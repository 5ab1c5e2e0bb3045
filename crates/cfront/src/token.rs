//! Tokens and source positions.

use std::fmt;

use crate::types::IntKind;

/// A half-open byte range into one source file, used for diagnostics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Span {
    /// Index of the source file within the compilation (see
    /// [`crate::Source`]).
    pub file: u32,
    /// Byte offset of the first character.
    pub start: u32,
    /// Byte offset one past the last character.
    pub end: u32,
}

impl Span {
    /// Builds a span covering `start..end` in `file`.
    pub fn new(file: u32, start: u32, end: u32) -> Self {
        Span { file, start, end }
    }

    /// The smallest span covering both `self` and `other`.
    ///
    /// Both spans must come from the same file; if they do not, `self`'s
    /// file wins (diagnostics stay best-effort).
    pub fn merge(self, other: Span) -> Span {
        Span {
            file: self.file,
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }
}

/// Keywords of the C subset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Keyword {
    /// `break`
    Break,
    /// `case`
    Case,
    /// `char`
    Char,
    /// `continue`
    Continue,
    /// `default`
    Default,
    /// `do`
    Do,
    /// `else`
    Else,
    /// `enum`
    Enum,
    /// `extern`
    Extern,
    /// `for`
    For,
    /// `if`
    If,
    /// `int`
    Int,
    /// `long`
    Long,
    /// `return`
    Return,
    /// `short`
    Short,
    /// `signed`
    Signed,
    /// `sizeof`
    Sizeof,
    /// `static` (accepted and ignored; every definition has internal
    /// linkage anyway because the whole program is one module)
    Static,
    /// `struct`
    Struct,
    /// `switch`
    Switch,
    /// `typedef`
    Typedef,
    /// `unsigned`
    Unsigned,
    /// `void`
    Void,
    /// `while`
    While,
}

impl Keyword {
    /// Maps an identifier to a keyword, if it is one.
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(s: &str) -> Option<Keyword> {
        Some(match s {
            "break" => Keyword::Break,
            "case" => Keyword::Case,
            "char" => Keyword::Char,
            "continue" => Keyword::Continue,
            "default" => Keyword::Default,
            "do" => Keyword::Do,
            "else" => Keyword::Else,
            "enum" => Keyword::Enum,
            "extern" => Keyword::Extern,
            "for" => Keyword::For,
            "if" => Keyword::If,
            "int" => Keyword::Int,
            "long" => Keyword::Long,
            "return" => Keyword::Return,
            "short" => Keyword::Short,
            "signed" => Keyword::Signed,
            "sizeof" => Keyword::Sizeof,
            "static" => Keyword::Static,
            "struct" => Keyword::Struct,
            "switch" => Keyword::Switch,
            "typedef" => Keyword::Typedef,
            "unsigned" => Keyword::Unsigned,
            "void" => Keyword::Void,
            "while" => Keyword::While,
            _ => return None,
        })
    }

    /// The keyword's spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Keyword::Break => "break",
            Keyword::Case => "case",
            Keyword::Char => "char",
            Keyword::Continue => "continue",
            Keyword::Default => "default",
            Keyword::Do => "do",
            Keyword::Else => "else",
            Keyword::Enum => "enum",
            Keyword::Extern => "extern",
            Keyword::For => "for",
            Keyword::If => "if",
            Keyword::Int => "int",
            Keyword::Long => "long",
            Keyword::Return => "return",
            Keyword::Short => "short",
            Keyword::Signed => "signed",
            Keyword::Sizeof => "sizeof",
            Keyword::Static => "static",
            Keyword::Struct => "struct",
            Keyword::Switch => "switch",
            Keyword::Typedef => "typedef",
            Keyword::Unsigned => "unsigned",
            Keyword::Void => "void",
            Keyword::While => "while",
        }
    }
}

/// Punctuation and operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // spellings given by `as_str`
pub enum Punct {
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Semi,
    Comma,
    Dot,
    Arrow,
    PlusPlus,
    MinusMinus,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Amp,
    Pipe,
    Caret,
    Tilde,
    Bang,
    Shl,
    Shr,
    Lt,
    Gt,
    Le,
    Ge,
    EqEq,
    Ne,
    AmpAmp,
    PipePipe,
    Question,
    Colon,
    Assign,
    PlusAssign,
    MinusAssign,
    StarAssign,
    SlashAssign,
    PercentAssign,
    AmpAssign,
    PipeAssign,
    CaretAssign,
    ShlAssign,
    ShrAssign,
}

impl Punct {
    /// The operator's spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Punct::LParen => "(",
            Punct::RParen => ")",
            Punct::LBrace => "{",
            Punct::RBrace => "}",
            Punct::LBracket => "[",
            Punct::RBracket => "]",
            Punct::Semi => ";",
            Punct::Comma => ",",
            Punct::Dot => ".",
            Punct::Arrow => "->",
            Punct::PlusPlus => "++",
            Punct::MinusMinus => "--",
            Punct::Plus => "+",
            Punct::Minus => "-",
            Punct::Star => "*",
            Punct::Slash => "/",
            Punct::Percent => "%",
            Punct::Amp => "&",
            Punct::Pipe => "|",
            Punct::Caret => "^",
            Punct::Tilde => "~",
            Punct::Bang => "!",
            Punct::Shl => "<<",
            Punct::Shr => ">>",
            Punct::Lt => "<",
            Punct::Gt => ">",
            Punct::Le => "<=",
            Punct::Ge => ">=",
            Punct::EqEq => "==",
            Punct::Ne => "!=",
            Punct::AmpAmp => "&&",
            Punct::PipePipe => "||",
            Punct::Question => "?",
            Punct::Colon => ":",
            Punct::Assign => "=",
            Punct::PlusAssign => "+=",
            Punct::MinusAssign => "-=",
            Punct::StarAssign => "*=",
            Punct::SlashAssign => "/=",
            Punct::PercentAssign => "%=",
            Punct::AmpAssign => "&=",
            Punct::PipeAssign => "|=",
            Punct::CaretAssign => "^=",
            Punct::ShlAssign => "<<=",
            Punct::ShrAssign => ">>=",
        }
    }
}

/// The payload of one token.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier (not a keyword).
    Ident(String),
    /// A keyword.
    Kw(Keyword),
    /// An integer literal (decimal, hex `0x`, octal `0`, or char literal),
    /// already folded to its value, with the kind C gives it.
    IntLit(i64, IntKind),
    /// A string literal, with escapes resolved (no trailing NUL; the
    /// compiler appends one when materializing it).
    StrLit(Vec<u8>),
    /// Punctuation or operator.
    Punct(Punct),
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "identifier `{s}`"),
            TokenKind::Kw(k) => write!(f, "keyword `{}`", k.as_str()),
            TokenKind::IntLit(v, _) => write!(f, "integer literal `{v}`"),
            TokenKind::StrLit(_) => write!(f, "string literal"),
            TokenKind::Punct(p) => write!(f, "`{}`", p.as_str()),
            TokenKind::Eof => write!(f, "end of input"),
        }
    }
}

/// One lexed token with its source location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Token {
    /// What the token is.
    pub kind: TokenKind,
    /// Where it came from.
    pub span: Span,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_round_trip() {
        for kw in [
            Keyword::Break,
            Keyword::Struct,
            Keyword::Unsigned,
            Keyword::While,
            Keyword::Sizeof,
        ] {
            assert_eq!(Keyword::from_str(kw.as_str()), Some(kw));
        }
        assert_eq!(Keyword::from_str("banana"), None);
    }

    #[test]
    fn span_merge_covers_both() {
        let a = Span::new(0, 4, 9);
        let b = Span::new(0, 7, 15);
        assert_eq!(a.merge(b), Span::new(0, 4, 15));
        assert_eq!(b.merge(a), Span::new(0, 4, 15));
    }

    #[test]
    fn token_kind_display() {
        assert_eq!(TokenKind::Punct(Punct::Arrow).to_string(), "`->`");
        assert_eq!(TokenKind::Kw(Keyword::If).to_string(), "keyword `if`");
        assert_eq!(TokenKind::Ident("x".into()).to_string(), "identifier `x`");
    }
}
