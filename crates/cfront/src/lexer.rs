//! Hand-written lexer for the C subset.
//!
//! Handles `//` and `/* */` comments, decimal/hex/octal integer literals
//! with their `u`/`l` suffixes, character literals with the usual escapes,
//! string literals, and the full operator set including compound
//! assignments.

use crate::error::{CompileError, Result};
use crate::token::{Keyword, Punct, Span, Token, TokenKind};
use crate::types::{literal_kind, IntKind};

struct Lexer<'s> {
    src: &'s [u8],
    file: u32,
    pos: usize,
}

impl<'s> Lexer<'s> {
    fn peek(&self) -> u8 {
        *self.src.get(self.pos).unwrap_or(&0)
    }

    fn peek2(&self) -> u8 {
        *self.src.get(self.pos + 1).unwrap_or(&0)
    }

    fn bump(&mut self) -> u8 {
        let c = self.peek();
        self.pos += 1;
        c
    }

    fn span_from(&self, start: usize) -> Span {
        Span::new(self.file, start as u32, self.pos as u32)
    }

    fn err(&self, start: usize, msg: impl Into<String>) -> CompileError {
        CompileError::new(self.span_from(start), msg)
    }

    fn skip_trivia(&mut self) -> Result<()> {
        loop {
            match self.peek() {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.pos += 1;
                }
                b'/' if self.peek2() == b'/' => {
                    while self.pos < self.src.len() && self.peek() != b'\n' {
                        self.pos += 1;
                    }
                }
                b'/' if self.peek2() == b'*' => {
                    let start = self.pos;
                    self.pos += 2;
                    loop {
                        if self.pos >= self.src.len() {
                            return Err(self.err(start, "unterminated block comment"));
                        }
                        if self.peek() == b'*' && self.peek2() == b'/' {
                            self.pos += 2;
                            break;
                        }
                        self.pos += 1;
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn lex_ident_or_kw(&mut self) -> TokenKind {
        let start = self.pos;
        while self.peek().is_ascii_alphanumeric() || self.peek() == b'_' {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).expect("ascii identifier");
        match Keyword::from_str(text) {
            Some(kw) => TokenKind::Kw(kw),
            None => TokenKind::Ident(text.to_owned()),
        }
    }

    fn lex_number(&mut self) -> Result<TokenKind> {
        let start = self.pos;
        let hex = self.peek() == b'0' && matches!(self.peek2(), b'x' | b'X');
        if hex {
            self.pos += 2;
        }
        let digits_start = self.pos;
        while self.peek().is_ascii_digit() || (hex && self.peek().is_ascii_hexdigit()) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.src[digits_start..self.pos]).expect("ascii digits");
        let (radix, what) = if hex {
            (16, "hex")
        } else if text.starts_with('0') {
            (8, "octal")
        } else {
            (10, "integer")
        };
        if hex && text.is_empty() {
            return Err(self.err(start, "hex literal needs at least one digit"));
        }
        if radix == 8 && text.bytes().any(|b| b == b'8' || b == b'9') {
            return Err(self.err(start, "invalid digit in octal literal"));
        }
        let value = u64::from_str_radix(text, radix)
            .map_err(|_| self.err(start, format!("{what} literal out of range")))?;
        let (mut unsigned, mut long) = (false, false);
        while let c @ (b'u' | b'U' | b'l' | b'L') = self.peek() {
            unsigned |= c.eq_ignore_ascii_case(&b'u');
            long |= c.eq_ignore_ascii_case(&b'l');
            self.pos += 1;
        }
        if self.peek().is_ascii_alphanumeric() || self.peek() == b'_' || self.peek() == b'.' {
            return Err(self.err(start, "malformed integer literal"));
        }
        let kind = literal_kind(value, radix == 10, unsigned, long);
        Ok(TokenKind::IntLit(value as i64, kind))
    }

    fn lex_escape(&mut self, start: usize) -> Result<u8> {
        Ok(match self.bump() {
            b'n' => b'\n',
            b't' => b'\t',
            b'r' => b'\r',
            b'0' => 0,
            b'\\' => b'\\',
            b'\'' => b'\'',
            b'"' => b'"',
            b'a' => 7,
            b'b' => 8,
            b'f' => 12,
            b'v' => 11,
            b'x' => {
                let mut v: u32 = 0;
                let mut any = false;
                while self.peek().is_ascii_hexdigit() {
                    v = v * 16 + (self.bump() as char).to_digit(16).expect("hex digit");
                    any = true;
                    if v > 0xff {
                        return Err(self.err(start, "hex escape out of range"));
                    }
                }
                if !any {
                    return Err(self.err(start, "hex escape needs digits"));
                }
                v as u8
            }
            other => return Err(self.err(start, format!("unknown escape `\\{}`", other as char))),
        })
    }

    fn lex_char_lit(&mut self) -> Result<TokenKind> {
        let start = self.pos;
        self.pos += 1; // opening quote
        let c = match self.bump() {
            0 => return Err(self.err(start, "unterminated character literal")),
            b'\\' => self.lex_escape(start)?,
            b'\'' => return Err(self.err(start, "empty character literal")),
            c => c,
        };
        if self.bump() != b'\'' {
            return Err(self.err(start, "unterminated character literal"));
        }
        Ok(TokenKind::IntLit(c as i8 as i64, IntKind::I32))
    }

    fn lex_str_lit(&mut self) -> Result<TokenKind> {
        let start = self.pos;
        self.pos += 1; // opening quote
        let mut bytes = Vec::new();
        loop {
            match self.bump() {
                0 => return Err(self.err(start, "unterminated string literal")),
                b'"' => break,
                b'\n' => return Err(self.err(start, "newline in string literal")),
                b'\\' => bytes.push(self.lex_escape(start)?),
                c => bytes.push(c),
            }
        }
        Ok(TokenKind::StrLit(bytes))
    }

    fn lex_punct(&mut self) -> Result<TokenKind> {
        use Punct::*;
        let start = self.pos;
        let c = self.bump();
        let p = match c {
            b'(' => LParen,
            b')' => RParen,
            b'{' => LBrace,
            b'}' => RBrace,
            b'[' => LBracket,
            b']' => RBracket,
            b';' => Semi,
            b',' => Comma,
            b'?' => Question,
            b':' => Colon,
            b'~' => Tilde,
            b'.' => Dot,
            b'+' => match self.peek() {
                b'+' => {
                    self.pos += 1;
                    PlusPlus
                }
                b'=' => {
                    self.pos += 1;
                    PlusAssign
                }
                _ => Plus,
            },
            b'-' => match self.peek() {
                b'-' => {
                    self.pos += 1;
                    MinusMinus
                }
                b'=' => {
                    self.pos += 1;
                    MinusAssign
                }
                b'>' => {
                    self.pos += 1;
                    Arrow
                }
                _ => Minus,
            },
            b'*' => {
                if self.peek() == b'=' {
                    self.pos += 1;
                    StarAssign
                } else {
                    Star
                }
            }
            b'/' => {
                if self.peek() == b'=' {
                    self.pos += 1;
                    SlashAssign
                } else {
                    Slash
                }
            }
            b'%' => {
                if self.peek() == b'=' {
                    self.pos += 1;
                    PercentAssign
                } else {
                    Percent
                }
            }
            b'&' => match self.peek() {
                b'&' => {
                    self.pos += 1;
                    AmpAmp
                }
                b'=' => {
                    self.pos += 1;
                    AmpAssign
                }
                _ => Amp,
            },
            b'|' => match self.peek() {
                b'|' => {
                    self.pos += 1;
                    PipePipe
                }
                b'=' => {
                    self.pos += 1;
                    PipeAssign
                }
                _ => Pipe,
            },
            b'^' => {
                if self.peek() == b'=' {
                    self.pos += 1;
                    CaretAssign
                } else {
                    Caret
                }
            }
            b'!' => {
                if self.peek() == b'=' {
                    self.pos += 1;
                    Ne
                } else {
                    Bang
                }
            }
            b'=' => {
                if self.peek() == b'=' {
                    self.pos += 1;
                    EqEq
                } else {
                    Assign
                }
            }
            b'<' => match self.peek() {
                b'<' => {
                    self.pos += 1;
                    if self.peek() == b'=' {
                        self.pos += 1;
                        ShlAssign
                    } else {
                        Shl
                    }
                }
                b'=' => {
                    self.pos += 1;
                    Le
                }
                _ => Lt,
            },
            b'>' => match self.peek() {
                b'>' => {
                    self.pos += 1;
                    if self.peek() == b'=' {
                        self.pos += 1;
                        ShrAssign
                    } else {
                        Shr
                    }
                }
                b'=' => {
                    self.pos += 1;
                    Ge
                }
                _ => Gt,
            },
            other => {
                return Err(self.err(start, format!("unexpected character `{}`", other as char)))
            }
        };
        Ok(TokenKind::Punct(p))
    }

    fn next_token(&mut self) -> Result<Token> {
        self.skip_trivia()?;
        let start = self.pos;
        if self.pos >= self.src.len() {
            return Ok(Token {
                kind: TokenKind::Eof,
                span: self.span_from(start),
            });
        }
        let kind = match self.peek() {
            c if c.is_ascii_alphabetic() || c == b'_' => self.lex_ident_or_kw(),
            c if c.is_ascii_digit() => self.lex_number()?,
            b'\'' => self.lex_char_lit()?,
            b'"' => self.lex_str_lit()?,
            _ => self.lex_punct()?,
        };
        Ok(Token {
            kind,
            span: self.span_from(start),
        })
    }
}

/// Lexes `text` (from file index `file`) into a token stream ending with a
/// single [`TokenKind::Eof`] token.
///
/// # Errors
///
/// Returns the first lexical error: an unterminated comment/string/char
/// literal, a malformed number, an unknown escape, or a stray character.
pub fn lex(file: u32, text: &str) -> Result<Vec<Token>> {
    let mut lexer = Lexer {
        src: text.as_bytes(),
        file,
        pos: 0,
    };
    let mut tokens = Vec::new();
    loop {
        let t = lexer.next_token()?;
        let done = t.kind == TokenKind::Eof;
        tokens.push(t);
        if done {
            return Ok(tokens);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(text: &str) -> Vec<TokenKind> {
        lex(0, text).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_keywords_and_idents() {
        assert_eq!(
            kinds("while whiles _x1"),
            vec![
                TokenKind::Kw(Keyword::While),
                TokenKind::Ident("whiles".into()),
                TokenKind::Ident("_x1".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lexes_numbers() {
        assert_eq!(
            kinds("0 42 0x1F 017 42u 42UL"),
            vec![
                TokenKind::IntLit(0, IntKind::I32),
                TokenKind::IntLit(42, IntKind::I32),
                TokenKind::IntLit(31, IntKind::I32),
                TokenKind::IntLit(15, IntKind::I32),
                TokenKind::IntLit(42, IntKind::U32),
                TokenKind::IntLit(42, IntKind::U64),
                TokenKind::Eof,
            ]
        );
    }

    /// The kinds `gcc` gives these literals on x86-64, except the decimal
    /// one above `LONG_MAX`, which is `__int128` there.
    #[test]
    fn literal_kinds_follow_the_c_table() {
        use IntKind::*;
        let cases = [
            ("2147483647", I32),
            ("2147483648", I64),
            ("0x7fffffff", I32),
            ("0x80000000", U32),
            ("020000000000", U32),
            ("0xFFFFFFFF", U32),
            ("0x100000000", I64),
            ("0xFFFFFFFFFFFFFFFF", U64),
            ("9223372036854775808", U64),
            ("3L", I64),
            ("3u", U32),
            ("3lU", U64),
            ("4294967296u", U64),
            ("0x80000000l", I64),
        ];
        for (text, kind) in cases {
            let TokenKind::IntLit(_, k) = &kinds(text)[0] else {
                panic!("`{text}` is no integer literal")
            };
            assert_eq!(*k, kind, "`{text}`");
        }
    }

    #[test]
    fn rejects_bad_numbers() {
        assert!(lex(0, "089").is_err());
        assert!(lex(0, "12abc").is_err());
        assert!(lex(0, "0x").is_err());
    }

    #[test]
    fn lexes_char_literals_with_escapes() {
        assert_eq!(
            kinds(r"'a' '\n' '\0' '\x41' '\\'"),
            vec![
                TokenKind::IntLit(97, IntKind::I32),
                TokenKind::IntLit(10, IntKind::I32),
                TokenKind::IntLit(0, IntKind::I32),
                TokenKind::IntLit(65, IntKind::I32),
                TokenKind::IntLit(92, IntKind::I32),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn char_literal_is_signed() {
        assert_eq!(
            kinds(r"'\xff'"),
            vec![TokenKind::IntLit(-1, IntKind::I32), TokenKind::Eof]
        );
    }

    #[test]
    fn lexes_string_literals() {
        assert_eq!(
            kinds(r#""hi\n""#),
            vec![TokenKind::StrLit(b"hi\n".to_vec()), TokenKind::Eof]
        );
    }

    #[test]
    fn rejects_unterminated_string() {
        assert!(lex(0, "\"abc").is_err());
        assert!(lex(0, "\"ab\nc\"").is_err());
        assert!(lex(0, "'a").is_err());
    }

    #[test]
    fn lexes_compound_operators_greedily() {
        use Punct::*;
        assert_eq!(
            kinds("a<<=b >>= ++ -- -> <= >= == != && || ^="),
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Punct(ShlAssign),
                TokenKind::Ident("b".into()),
                TokenKind::Punct(ShrAssign),
                TokenKind::Punct(PlusPlus),
                TokenKind::Punct(MinusMinus),
                TokenKind::Punct(Arrow),
                TokenKind::Punct(Le),
                TokenKind::Punct(Ge),
                TokenKind::Punct(EqEq),
                TokenKind::Punct(Ne),
                TokenKind::Punct(AmpAmp),
                TokenKind::Punct(PipePipe),
                TokenKind::Punct(CaretAssign),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn skips_comments() {
        assert_eq!(
            kinds("a // line\nb /* block\nstill */ c"),
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Ident("b".into()),
                TokenKind::Ident("c".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn rejects_unterminated_comment() {
        assert!(lex(0, "/* never ends").is_err());
    }

    #[test]
    fn spans_point_at_tokens() {
        let toks = lex(0, "ab  cd").unwrap();
        assert_eq!(toks[0].span, Span::new(0, 0, 2));
        assert_eq!(toks[1].span, Span::new(0, 4, 6));
    }

    #[test]
    fn rejects_stray_characters() {
        assert!(lex(0, "int @x;").is_err());
        assert!(lex(0, "$").is_err());
    }
}
