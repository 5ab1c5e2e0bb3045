//! Recursive-descent parser for the C subset.
//!
//! Produces the [`crate::ast`] tree plus the [`TypeTable`] of struct
//! layouts. Enum constants are substituted with their values during
//! parsing (so enum constants cannot be shadowed by variables — a
//! documented restriction of the subset).

use std::collections::HashMap;

use crate::ast::*;
use crate::error::{CompileError, Result};
use crate::token::{Keyword, Punct, Span, Token, TokenKind};
use crate::types::{
    arith_op, cmp_op, promote, usual_arith, CType, FuncType, IntKind, StructId, TypeTable,
};

/// Accumulated parse state shared across the source files of one
/// compilation.
#[derive(Debug, Default)]
pub struct ParseContext {
    /// Struct layouts.
    pub types: TypeTable,
    /// Enum constants seen so far.
    pub enum_consts: HashMap<String, i64>,
    /// `typedef` names and their meanings (top-level only; typedef names
    /// may not be shadowed by variables, as with enum constants).
    pub typedefs: HashMap<String, CType>,
    /// The growing program.
    pub program: Program,
}

impl ParseContext {
    /// Creates an empty context.
    pub fn new() -> Self {
        ParseContext::default()
    }
}

/// Parses one token stream (from [`crate::lexer::lex`]) into `ctx`.
///
/// # Errors
///
/// Returns the first syntax error encountered.
pub fn parse_into(ctx: &mut ParseContext, tokens: &[Token]) -> Result<()> {
    let mut p = Parser {
        ctx,
        tokens,
        pos: 0,
    };
    p.parse_top_level()
}

struct Parser<'c, 't> {
    ctx: &'c mut ParseContext,
    tokens: &'t [Token],
    pos: usize,
}

/// What one declarator declares.
struct Declarator {
    /// The declared name and its span; `None` for an abstract declarator.
    name: Option<(String, Span)>,
    /// The declared type.
    ty: CType,
    /// When `ty`'s outermost part is a function suffix of this declarator,
    /// that suffix's named parameters: the ones a definition binds.
    params: Option<Vec<Param>>,
}

impl<'c, 't> Parser<'c, 't> {
    // ----- token plumbing -------------------------------------------------

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek_at(&self, n: usize) -> &TokenKind {
        let i = (self.pos + n).min(self.tokens.len() - 1);
        &self.tokens[i].kind
    }

    fn span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn prev_span(&self) -> Span {
        self.tokens[self.pos.saturating_sub(1)].span
    }

    fn err_here(&self, msg: impl Into<String>) -> CompileError {
        CompileError::new(self.span(), msg)
    }

    fn eat_punct(&mut self, p: Punct) -> bool {
        if *self.peek() == TokenKind::Punct(p) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: Punct) -> Result<()> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.err_here(format!("expected `{}`, found {}", p.as_str(), self.peek())))
        }
    }

    fn eat_kw(&mut self, k: Keyword) -> bool {
        if *self.peek() == TokenKind::Kw(k) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, k: Keyword) -> Result<()> {
        if self.eat_kw(k) {
            Ok(())
        } else {
            Err(self.err_here(format!(
                "expected keyword `{}`, found {}",
                k.as_str(),
                self.peek()
            )))
        }
    }

    fn expect_ident(&mut self) -> Result<(String, Span)> {
        let span = self.span();
        if let TokenKind::Ident(name) = self.peek() {
            let name = name.clone();
            self.pos += 1;
            Ok((name, span))
        } else {
            Err(self.err_here(format!("expected identifier, found {}", self.peek())))
        }
    }

    // ----- type parsing ---------------------------------------------------

    /// Whether the token at offset `n` starts a type.
    fn is_type_start_at(&self, n: usize) -> bool {
        match self.peek_at(n) {
            TokenKind::Kw(
                Keyword::Void
                | Keyword::Char
                | Keyword::Short
                | Keyword::Int
                | Keyword::Long
                | Keyword::Signed
                | Keyword::Unsigned
                | Keyword::Struct
                | Keyword::Enum,
            ) => true,
            TokenKind::Ident(name) => self.ctx.typedefs.contains_key(name),
            _ => false,
        }
    }

    fn is_type_start(&self) -> bool {
        self.is_type_start_at(0)
    }

    /// Parses declaration specifiers (the base type before declarators).
    fn parse_base_type(&mut self) -> Result<CType> {
        if let TokenKind::Ident(name) = self.peek() {
            if let Some(ty) = self.ctx.typedefs.get(name) {
                let ty = ty.clone();
                self.pos += 1;
                return Ok(ty);
            }
        }
        if self.eat_kw(Keyword::Struct) {
            let (name, _) = self.expect_ident()?;
            let id = self.struct_id_or_declare(&name);
            return Ok(CType::Struct(id));
        }
        if self.eat_kw(Keyword::Enum) {
            // `enum Tag` as a type is just int; the tag is not tracked.
            if let TokenKind::Ident(_) = self.peek() {
                self.pos += 1;
            }
            return Ok(CType::int());
        }
        let mut signedness: Option<bool> = None; // Some(true) = unsigned
        let mut base: Option<Keyword> = None;
        loop {
            match self.peek() {
                TokenKind::Kw(Keyword::Signed) => {
                    signedness = Some(false);
                    self.pos += 1;
                }
                TokenKind::Kw(Keyword::Unsigned) => {
                    signedness = Some(true);
                    self.pos += 1;
                }
                TokenKind::Kw(
                    k @ (Keyword::Void | Keyword::Char | Keyword::Short | Keyword::Long),
                ) => {
                    if base.is_some() {
                        return Err(self.err_here("conflicting type specifiers"));
                    }
                    base = Some(*k);
                    self.pos += 1;
                }
                TokenKind::Kw(Keyword::Int) => {
                    // `short int` / `long int` / plain `int`.
                    if matches!(base, Some(Keyword::Short) | Some(Keyword::Long)) {
                        // the `int` adds nothing
                    } else if base.is_some() {
                        return Err(self.err_here("conflicting type specifiers"));
                    } else {
                        base = Some(Keyword::Int);
                    }
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let unsigned = signedness == Some(true);
        let ty = match base {
            Some(Keyword::Void) => {
                if signedness.is_some() {
                    return Err(self.err_here("`void` cannot be signed or unsigned"));
                }
                CType::Void
            }
            Some(Keyword::Char) => CType::Int(if unsigned { IntKind::U8 } else { IntKind::I8 }),
            Some(Keyword::Short) => CType::Int(if unsigned { IntKind::U16 } else { IntKind::I16 }),
            Some(Keyword::Int) | None => {
                if base.is_none() && signedness.is_none() {
                    return Err(self.err_here("expected a type"));
                }
                CType::Int(if unsigned { IntKind::U32 } else { IntKind::I32 })
            }
            Some(Keyword::Long) => CType::Int(if unsigned { IntKind::U64 } else { IntKind::I64 }),
            _ => unreachable!("base is limited to type keywords"),
        };
        Ok(ty)
    }

    fn struct_id_or_declare(&mut self, name: &str) -> StructId {
        match self.ctx.types.struct_by_name(name) {
            Some(id) => id,
            None => self.ctx.types.declare_struct(name),
        }
    }

    /// Parses a declarator given the base type.
    fn parse_declarator(&mut self, base: CType) -> Result<Declarator> {
        let mut base = base;
        while self.eat_punct(Punct::Star) {
            base = base.ptr_to();
        }
        self.parse_direct_declarator(base)
    }

    /// Parses a declarator that must declare a name, returning where it
    /// starts, the name and the type; `what` names the declaration in the
    /// error for a missing name.
    fn parse_named_declarator(&mut self, base: CType, what: &str) -> Result<(Span, String, CType)> {
        let span = self.span();
        let d = self.parse_declarator(base)?;
        match d.name {
            Some((name, _)) => Ok((span, name, d.ty)),
            None => Err(CompileError::new(span, format!("{what} needs a name"))),
        }
    }

    fn parse_direct_declarator(&mut self, base: CType) -> Result<Declarator> {
        // Parenthesized declarator: `(` followed by `*`, `(`, or an
        // identifier. A `(` followed by a type or `)` is a function suffix
        // of an abstract declarator instead.
        if *self.peek() == TokenKind::Punct(Punct::LParen)
            && matches!(
                self.peek_at(1),
                TokenKind::Punct(Punct::Star)
                    | TokenKind::Punct(Punct::LParen)
                    | TokenKind::Ident(_)
            )
            && !self.is_type_start_at(1)
        {
            let inner_start = self.pos;
            self.skip_balanced_parens()?;
            let (outer, params) = self.parse_declarator_suffixes(base)?;
            let after_suffixes = self.pos;
            self.pos = inner_start;
            self.expect_punct(Punct::LParen)?;
            let mut d = self.parse_declarator(outer.clone())?;
            self.expect_punct(Punct::RParen)?;
            self.pos = after_suffixes;
            // Parentheses around a bare name, as in `int (f)(int x)`, leave
            // the suffixes after them outermost.
            if d.ty == outer {
                d.params = params;
            }
            return Ok(d);
        }
        let name = if let TokenKind::Ident(n) = self.peek() {
            let name = (n.clone(), self.span());
            self.pos += 1;
            Some(name)
        } else {
            None
        };
        let (ty, params) = self.parse_declarator_suffixes(base)?;
        Ok(Declarator { name, ty, params })
    }

    fn skip_balanced_parens(&mut self) -> Result<()> {
        let start = self.span();
        debug_assert_eq!(*self.peek(), TokenKind::Punct(Punct::LParen));
        let mut depth = 0usize;
        loop {
            match self.peek() {
                TokenKind::Punct(Punct::LParen) => depth += 1,
                TokenKind::Punct(Punct::RParen) => {
                    depth -= 1;
                    if depth == 0 {
                        self.pos += 1;
                        return Ok(());
                    }
                }
                TokenKind::Eof => {
                    return Err(CompileError::new(start, "unbalanced parentheses"));
                }
                _ => {}
            }
            self.pos += 1;
        }
    }

    /// Parses `[n]` and `(params)` suffixes onto `base`, the leftmost
    /// outermost. A leading function suffix also returns its parameters.
    fn parse_declarator_suffixes(&mut self, base: CType) -> Result<(CType, Option<Vec<Param>>)> {
        if self.eat_punct(Punct::LBracket) {
            // `[]` — size completed from the initializer by lowering.
            let n = if self.eat_punct(Punct::RBracket) {
                0
            } else {
                let size_expr = self.parse_conditional()?;
                let n = const_eval(&size_expr, &self.ctx.types)?;
                if n < 0 {
                    return Err(CompileError::new(size_expr.span, "negative array size"));
                }
                self.expect_punct(Punct::RBracket)?;
                n as u64
            };
            let (elem, _) = self.parse_declarator_suffixes(base)?;
            Ok((CType::Array(Box::new(elem), n), None))
        } else if self.eat_punct(Punct::LParen) {
            let start = self.prev_span();
            let params = self.parse_param_list()?;
            self.expect_punct(Punct::RParen)?;
            let (ret, _) = self.parse_declarator_suffixes(base)?;
            if matches!(ret, CType::Array(..) | CType::Func(_)) {
                let msg = format!("a function cannot return `{ret}`");
                return Err(CompileError::new(start, msg));
            }
            let ty = CType::Func(Box::new(FuncType {
                ret,
                params: params.iter().map(|p| p.ty.clone()).collect(),
            }));
            Ok((ty, Some(params)))
        } else {
            Ok((base, None))
        }
    }

    /// Parses a parameter list body (after `(`, up to but not including
    /// `)`), returning named parameters. `void` alone means "no
    /// parameters". Array and function parameter types decay to pointers.
    fn parse_param_list(&mut self) -> Result<Vec<Param>> {
        let mut params = Vec::new();
        if *self.peek() == TokenKind::Punct(Punct::RParen) {
            return Ok(params);
        }
        if *self.peek() == TokenKind::Kw(Keyword::Void)
            && *self.peek_at(1) == TokenKind::Punct(Punct::RParen)
        {
            self.pos += 1;
            return Ok(params);
        }
        loop {
            if !self.is_type_start() {
                return Err(self.err_here("expected parameter type"));
            }
            let base = self.parse_base_type()?;
            let d = self.parse_declarator(base)?;
            params.push(Param {
                name: d.name.map(|(name, _)| name).unwrap_or_default(),
                ty: d.ty.decayed(),
            });
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        Ok(params)
    }

    /// Parses a type-name (specifiers + abstract declarator), as used by
    /// casts and `sizeof`.
    fn parse_type_name(&mut self) -> Result<CType> {
        let base = self.parse_base_type()?;
        let d = self.parse_declarator(base)?;
        if d.name.is_some() {
            return Err(self.err_here("type name must not declare an identifier"));
        }
        Ok(d.ty)
    }

    // ----- top level --------------------------------------------------------

    fn parse_top_level(&mut self) -> Result<()> {
        while *self.peek() != TokenKind::Eof {
            self.parse_top_item()?;
        }
        Ok(())
    }

    fn parse_top_item(&mut self) -> Result<()> {
        // `struct NAME { ... };` or `struct NAME;` (pure tag declaration).
        if *self.peek() == TokenKind::Kw(Keyword::Struct)
            && matches!(self.peek_at(1), TokenKind::Ident(_))
            && matches!(
                self.peek_at(2),
                TokenKind::Punct(Punct::LBrace) | TokenKind::Punct(Punct::Semi)
            )
        {
            return self.parse_struct_def();
        }
        if *self.peek() == TokenKind::Kw(Keyword::Enum)
            && (matches!(self.peek_at(1), TokenKind::Punct(Punct::LBrace))
                || (matches!(self.peek_at(1), TokenKind::Ident(_))
                    && matches!(self.peek_at(2), TokenKind::Punct(Punct::LBrace))))
        {
            return self.parse_enum_def();
        }
        if self.eat_kw(Keyword::Typedef) {
            return self.parse_typedef();
        }
        let is_extern = self.eat_kw(Keyword::Extern);
        let _ = self.eat_kw(Keyword::Static); // accepted, ignored
        if !self.is_type_start() {
            return Err(self.err_here(format!("expected a declaration, found {}", self.peek())));
        }
        let base = self.parse_base_type()?;

        // `struct S;` after parse_base_type (tag already declared).
        if self.eat_punct(Punct::Semi) {
            return Ok(());
        }

        let decl_span = self.span();
        let d = self.parse_declarator(base.clone())?;
        let Some((name, name_span)) = d.name else {
            return Err(CompileError::new(decl_span, "declaration needs a name"));
        };

        if let CType::Func(ft) = d.ty {
            if *self.peek() != TokenKind::Punct(Punct::LBrace) {
                // A prototype. Definitions are collected in a pre-pass, so
                // only an `extern` one, which may name a builtin, is kept.
                self.expect_punct(Punct::Semi)?;
                if is_extern {
                    self.ctx.program.externs.push(ExternFuncDecl {
                        span: decl_span,
                        name,
                        ret: ft.ret,
                        params: ft.params,
                    });
                }
                return Ok(());
            }
            // A definition binds the parameters its own declarator names,
            // so a function type taken from a typedef cannot define one.
            let Some(params) = d.params else {
                return Err(CompileError::new(
                    name_span,
                    format!("definition of `{name}` needs a parameter list"),
                ));
            };
            let body = self.parse_block()?;
            self.ctx.program.functions.push(FunctionDef {
                span: name_span,
                name,
                ret: ft.ret,
                params,
                body,
            });
            return Ok(());
        }

        // Global variable(s).
        let (mut span, mut name, mut ty) = (decl_span, name, d.ty);
        loop {
            let init = if self.eat_punct(Punct::Assign) {
                Some(self.parse_initializer()?)
            } else {
                None
            };
            self.ctx.program.globals.push(GlobalDecl {
                span,
                name,
                ty,
                init,
            });
            if !self.eat_punct(Punct::Comma) {
                return self.expect_punct(Punct::Semi);
            }
            (span, name, ty) = self.parse_named_declarator(base.clone(), "declaration")?;
        }
    }

    /// `typedef <specifiers> <declarator>;`
    fn parse_typedef(&mut self) -> Result<()> {
        if !self.is_type_start() {
            return Err(self.err_here("typedef needs a type"));
        }
        let base = self.parse_base_type()?;
        let (span, name, ty) = self.parse_named_declarator(base, "typedef")?;
        self.expect_punct(Punct::Semi)?;
        if self.ctx.typedefs.insert(name.clone(), ty).is_some() {
            return Err(CompileError::new(
                span,
                format!("typedef `{name}` redefined"),
            ));
        }
        Ok(())
    }

    fn parse_struct_def(&mut self) -> Result<()> {
        self.expect_kw(Keyword::Struct)?;
        let (name, span) = self.expect_ident()?;
        let id = self.struct_id_or_declare(&name);
        if self.eat_punct(Punct::Semi) {
            return Ok(()); // forward declaration
        }
        if self.ctx.types.struct_def(id).defined {
            return Err(CompileError::new(
                span,
                format!("struct `{name}` redefined"),
            ));
        }
        self.expect_punct(Punct::LBrace)?;
        let mut members = Vec::new();
        while !self.eat_punct(Punct::RBrace) {
            if !self.is_type_start() {
                return Err(self.err_here("expected a struct member declaration"));
            }
            let base = self.parse_base_type()?;
            loop {
                let (_, mname, mty) = self.parse_named_declarator(base.clone(), "struct member")?;
                members.push((mname, mty));
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
            self.expect_punct(Punct::Semi)?;
        }
        self.expect_punct(Punct::Semi)?;
        if !self.ctx.types.complete_struct(id, members) {
            return Err(CompileError::new(
                span,
                format!("struct `{name}` has a member of unsized type"),
            ));
        }
        Ok(())
    }

    fn parse_enum_def(&mut self) -> Result<()> {
        self.expect_kw(Keyword::Enum)?;
        if let TokenKind::Ident(_) = self.peek() {
            self.pos += 1; // tag ignored
        }
        self.expect_punct(Punct::LBrace)?;
        let mut next = 0i64;
        loop {
            let (name, span) = self.expect_ident()?;
            if self.eat_punct(Punct::Assign) {
                let e = self.parse_conditional()?;
                next = const_eval(&e, &self.ctx.types)?;
            }
            if self.ctx.enum_consts.insert(name.clone(), next).is_some() {
                return Err(CompileError::new(
                    span,
                    format!("enum constant `{name}` redefined"),
                ));
            }
            next += 1;
            if !self.eat_punct(Punct::Comma) {
                break;
            }
            if *self.peek() == TokenKind::Punct(Punct::RBrace) {
                break; // trailing comma
            }
        }
        self.expect_punct(Punct::RBrace)?;
        self.expect_punct(Punct::Semi)?;
        Ok(())
    }

    fn parse_initializer(&mut self) -> Result<Initializer> {
        if self.eat_punct(Punct::LBrace) {
            let mut items = Vec::new();
            if !self.eat_punct(Punct::RBrace) {
                loop {
                    items.push(self.parse_assign()?);
                    if !self.eat_punct(Punct::Comma) {
                        break;
                    }
                    if *self.peek() == TokenKind::Punct(Punct::RBrace) {
                        break; // trailing comma
                    }
                }
                self.expect_punct(Punct::RBrace)?;
            }
            Ok(Initializer::List(items))
        } else {
            Ok(Initializer::Expr(self.parse_assign()?))
        }
    }

    // ----- function bodies --------------------------------------------------

    fn parse_block(&mut self) -> Result<Stmt> {
        let span = self.span();
        self.expect_punct(Punct::LBrace)?;
        let mut decls = Vec::new();
        // C89: declarations first.
        while self.is_type_start() {
            let base = self.parse_base_type()?;
            loop {
                let (dspan, name, ty) =
                    self.parse_named_declarator(base.clone(), "local declaration")?;
                let init = if self.eat_punct(Punct::Assign) {
                    Some(self.parse_initializer()?)
                } else {
                    None
                };
                decls.push(LocalDecl {
                    span: dspan,
                    name,
                    ty,
                    init,
                });
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
            self.expect_punct(Punct::Semi)?;
        }
        let mut stmts = Vec::new();
        while !self.eat_punct(Punct::RBrace) {
            if *self.peek() == TokenKind::Eof {
                return Err(CompileError::new(span, "unterminated block"));
            }
            stmts.push(self.parse_stmt()?);
        }
        Ok(Stmt {
            span,
            kind: StmtKind::Block { decls, stmts },
        })
    }

    fn parse_stmt(&mut self) -> Result<Stmt> {
        let span = self.span();
        match self.peek() {
            TokenKind::Punct(Punct::LBrace) => self.parse_block(),
            TokenKind::Punct(Punct::Semi) => {
                self.pos += 1;
                Ok(Stmt {
                    span,
                    kind: StmtKind::Empty,
                })
            }
            TokenKind::Kw(Keyword::If) => {
                self.pos += 1;
                self.expect_punct(Punct::LParen)?;
                let cond = self.parse_expr()?;
                self.expect_punct(Punct::RParen)?;
                let then_s = Box::new(self.parse_stmt()?);
                let else_s = if self.eat_kw(Keyword::Else) {
                    Some(Box::new(self.parse_stmt()?))
                } else {
                    None
                };
                Ok(Stmt {
                    span,
                    kind: StmtKind::If {
                        cond,
                        then_s,
                        else_s,
                    },
                })
            }
            TokenKind::Kw(Keyword::While) => {
                self.pos += 1;
                self.expect_punct(Punct::LParen)?;
                let cond = self.parse_expr()?;
                self.expect_punct(Punct::RParen)?;
                let body = Box::new(self.parse_stmt()?);
                Ok(Stmt {
                    span,
                    kind: StmtKind::While { cond, body },
                })
            }
            TokenKind::Kw(Keyword::Do) => {
                self.pos += 1;
                let body = Box::new(self.parse_stmt()?);
                self.expect_kw(Keyword::While)?;
                self.expect_punct(Punct::LParen)?;
                let cond = self.parse_expr()?;
                self.expect_punct(Punct::RParen)?;
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt {
                    span,
                    kind: StmtKind::DoWhile { body, cond },
                })
            }
            TokenKind::Kw(Keyword::For) => {
                self.pos += 1;
                self.expect_punct(Punct::LParen)?;
                let init = if *self.peek() == TokenKind::Punct(Punct::Semi) {
                    None
                } else {
                    Some(self.parse_expr()?)
                };
                self.expect_punct(Punct::Semi)?;
                let cond = if *self.peek() == TokenKind::Punct(Punct::Semi) {
                    None
                } else {
                    Some(self.parse_expr()?)
                };
                self.expect_punct(Punct::Semi)?;
                let step = if *self.peek() == TokenKind::Punct(Punct::RParen) {
                    None
                } else {
                    Some(self.parse_expr()?)
                };
                self.expect_punct(Punct::RParen)?;
                let body = Box::new(self.parse_stmt()?);
                Ok(Stmt {
                    span,
                    kind: StmtKind::For {
                        init,
                        cond,
                        step,
                        body,
                    },
                })
            }
            TokenKind::Kw(Keyword::Switch) => self.parse_switch(),
            TokenKind::Kw(Keyword::Break) => {
                self.pos += 1;
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt {
                    span,
                    kind: StmtKind::Break,
                })
            }
            TokenKind::Kw(Keyword::Continue) => {
                self.pos += 1;
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt {
                    span,
                    kind: StmtKind::Continue,
                })
            }
            TokenKind::Kw(Keyword::Return) => {
                self.pos += 1;
                let value = if *self.peek() == TokenKind::Punct(Punct::Semi) {
                    None
                } else {
                    Some(self.parse_expr()?)
                };
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt {
                    span,
                    kind: StmtKind::Return(value),
                })
            }
            _ => {
                let e = self.parse_expr()?;
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt {
                    span,
                    kind: StmtKind::Expr(e),
                })
            }
        }
    }

    fn parse_switch(&mut self) -> Result<Stmt> {
        let span = self.span();
        self.expect_kw(Keyword::Switch)?;
        self.expect_punct(Punct::LParen)?;
        let scrutinee = self.parse_expr()?;
        self.expect_punct(Punct::RParen)?;
        self.expect_punct(Punct::LBrace)?;
        let mut cases: Vec<SwitchCase> = Vec::new();
        while !self.eat_punct(Punct::RBrace) {
            match self.peek() {
                TokenKind::Kw(Keyword::Case) => {
                    self.pos += 1;
                    let e = self.parse_conditional()?;
                    let v = const_eval(&e, &self.ctx.types)?;
                    self.expect_punct(Punct::Colon)?;
                    cases.push(SwitchCase {
                        value: Some(v),
                        stmts: Vec::new(),
                    });
                }
                TokenKind::Kw(Keyword::Default) => {
                    self.pos += 1;
                    self.expect_punct(Punct::Colon)?;
                    cases.push(SwitchCase {
                        value: None,
                        stmts: Vec::new(),
                    });
                }
                TokenKind::Eof => return Err(CompileError::new(span, "unterminated switch")),
                _ => {
                    let stmt = self.parse_stmt()?;
                    match cases.last_mut() {
                        Some(c) => c.stmts.push(stmt),
                        None => {
                            return Err(CompileError::new(
                                stmt.span,
                                "statement before first case label",
                            ))
                        }
                    }
                }
            }
        }
        Ok(Stmt {
            span,
            kind: StmtKind::Switch { scrutinee, cases },
        })
    }

    // ----- expressions ------------------------------------------------------

    fn parse_expr(&mut self) -> Result<Expr> {
        let mut e = self.parse_assign()?;
        while self.eat_punct(Punct::Comma) {
            let rhs = self.parse_assign()?;
            let span = e.span.merge(rhs.span);
            e = Expr {
                span,
                kind: ExprKind::Binary {
                    op: BinaryOp::Comma,
                    lhs: Box::new(e),
                    rhs: Box::new(rhs),
                },
            };
        }
        Ok(e)
    }

    fn parse_assign(&mut self) -> Result<Expr> {
        let lhs = self.parse_conditional()?;
        let op = match self.peek() {
            TokenKind::Punct(Punct::Assign) => None,
            TokenKind::Punct(Punct::PlusAssign) => Some(BinaryOp::Add),
            TokenKind::Punct(Punct::MinusAssign) => Some(BinaryOp::Sub),
            TokenKind::Punct(Punct::StarAssign) => Some(BinaryOp::Mul),
            TokenKind::Punct(Punct::SlashAssign) => Some(BinaryOp::Div),
            TokenKind::Punct(Punct::PercentAssign) => Some(BinaryOp::Rem),
            TokenKind::Punct(Punct::AmpAssign) => Some(BinaryOp::BitAnd),
            TokenKind::Punct(Punct::PipeAssign) => Some(BinaryOp::BitOr),
            TokenKind::Punct(Punct::CaretAssign) => Some(BinaryOp::BitXor),
            TokenKind::Punct(Punct::ShlAssign) => Some(BinaryOp::Shl),
            TokenKind::Punct(Punct::ShrAssign) => Some(BinaryOp::Shr),
            _ => return Ok(lhs),
        };
        self.pos += 1;
        let value = self.parse_assign()?; // right-associative
        let span = lhs.span.merge(value.span);
        Ok(Expr {
            span,
            kind: ExprKind::Assign {
                op,
                target: Box::new(lhs),
                value: Box::new(value),
            },
        })
    }

    fn parse_conditional(&mut self) -> Result<Expr> {
        let cond = self.parse_binary(0)?;
        if !self.eat_punct(Punct::Question) {
            return Ok(cond);
        }
        let then_e = self.parse_expr()?;
        self.expect_punct(Punct::Colon)?;
        let else_e = self.parse_conditional()?;
        let span = cond.span.merge(else_e.span);
        Ok(Expr {
            span,
            kind: ExprKind::Conditional {
                cond: Box::new(cond),
                then_e: Box::new(then_e),
                else_e: Box::new(else_e),
            },
        })
    }

    /// Binary operator precedence climbing. Level 0 is `||`.
    fn parse_binary(&mut self, min_level: u8) -> Result<Expr> {
        let mut lhs = self.parse_unary()?;
        loop {
            let (op, level) = match self.peek() {
                TokenKind::Punct(Punct::PipePipe) => (BinaryOp::LogOr, 0),
                TokenKind::Punct(Punct::AmpAmp) => (BinaryOp::LogAnd, 1),
                TokenKind::Punct(Punct::Pipe) => (BinaryOp::BitOr, 2),
                TokenKind::Punct(Punct::Caret) => (BinaryOp::BitXor, 3),
                TokenKind::Punct(Punct::Amp) => (BinaryOp::BitAnd, 4),
                TokenKind::Punct(Punct::EqEq) => (BinaryOp::Eq, 5),
                TokenKind::Punct(Punct::Ne) => (BinaryOp::Ne, 5),
                TokenKind::Punct(Punct::Lt) => (BinaryOp::Lt, 6),
                TokenKind::Punct(Punct::Gt) => (BinaryOp::Gt, 6),
                TokenKind::Punct(Punct::Le) => (BinaryOp::Le, 6),
                TokenKind::Punct(Punct::Ge) => (BinaryOp::Ge, 6),
                TokenKind::Punct(Punct::Shl) => (BinaryOp::Shl, 7),
                TokenKind::Punct(Punct::Shr) => (BinaryOp::Shr, 7),
                TokenKind::Punct(Punct::Plus) => (BinaryOp::Add, 8),
                TokenKind::Punct(Punct::Minus) => (BinaryOp::Sub, 8),
                TokenKind::Punct(Punct::Star) => (BinaryOp::Mul, 9),
                TokenKind::Punct(Punct::Slash) => (BinaryOp::Div, 9),
                TokenKind::Punct(Punct::Percent) => (BinaryOp::Rem, 9),
                _ => break,
            };
            if level < min_level {
                break;
            }
            self.pos += 1;
            let rhs = self.parse_binary(level + 1)?;
            let span = lhs.span.merge(rhs.span);
            lhs = Expr {
                span,
                kind: ExprKind::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
            };
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        let span = self.span();
        let op = match self.peek() {
            TokenKind::Punct(Punct::Minus) => Some(UnaryOp::Neg),
            TokenKind::Punct(Punct::Plus) => Some(UnaryOp::Plus),
            TokenKind::Punct(Punct::Bang) => Some(UnaryOp::LogNot),
            TokenKind::Punct(Punct::Tilde) => Some(UnaryOp::BitNot),
            TokenKind::Punct(Punct::Star) => Some(UnaryOp::Deref),
            TokenKind::Punct(Punct::Amp) => Some(UnaryOp::AddrOf),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let operand = self.parse_unary()?;
            let span = span.merge(operand.span);
            return Ok(Expr {
                span,
                kind: ExprKind::Unary {
                    op,
                    operand: Box::new(operand),
                },
            });
        }
        if *self.peek() == TokenKind::Punct(Punct::PlusPlus) {
            self.pos += 1;
            let target = self.parse_unary()?;
            let span = span.merge(target.span);
            return Ok(Expr {
                span,
                kind: ExprKind::IncDec {
                    op: IncDec::PreInc,
                    target: Box::new(target),
                },
            });
        }
        if *self.peek() == TokenKind::Punct(Punct::MinusMinus) {
            self.pos += 1;
            let target = self.parse_unary()?;
            let span = span.merge(target.span);
            return Ok(Expr {
                span,
                kind: ExprKind::IncDec {
                    op: IncDec::PreDec,
                    target: Box::new(target),
                },
            });
        }
        if *self.peek() == TokenKind::Kw(Keyword::Sizeof) {
            self.pos += 1;
            if *self.peek() == TokenKind::Punct(Punct::LParen) && self.is_type_start_at(1) {
                self.pos += 1;
                let ty = self.parse_type_name()?;
                self.expect_punct(Punct::RParen)?;
                return Ok(Expr {
                    span: span.merge(self.prev_span()),
                    kind: ExprKind::SizeofType(ty),
                });
            }
            let operand = self.parse_unary()?;
            let span = span.merge(operand.span);
            return Ok(Expr {
                span,
                kind: ExprKind::SizeofExpr(Box::new(operand)),
            });
        }
        // Cast: `(` type-name `)` unary.
        if *self.peek() == TokenKind::Punct(Punct::LParen) && self.is_type_start_at(1) {
            self.pos += 1;
            let ty = self.parse_type_name()?;
            self.expect_punct(Punct::RParen)?;
            let expr = self.parse_unary()?;
            let span = span.merge(expr.span);
            return Ok(Expr {
                span,
                kind: ExprKind::Cast {
                    ty,
                    expr: Box::new(expr),
                },
            });
        }
        self.parse_postfix()
    }

    fn parse_postfix(&mut self) -> Result<Expr> {
        let mut e = self.parse_primary()?;
        loop {
            match self.peek() {
                TokenKind::Punct(Punct::LParen) => {
                    self.pos += 1;
                    let mut args = Vec::new();
                    if !self.eat_punct(Punct::RParen) {
                        loop {
                            args.push(self.parse_assign()?);
                            if !self.eat_punct(Punct::Comma) {
                                break;
                            }
                        }
                        self.expect_punct(Punct::RParen)?;
                    }
                    let span = e.span.merge(self.prev_span());
                    e = Expr {
                        span,
                        kind: ExprKind::Call {
                            callee: Box::new(e),
                            args,
                        },
                    };
                }
                TokenKind::Punct(Punct::LBracket) => {
                    self.pos += 1;
                    let index = self.parse_expr()?;
                    self.expect_punct(Punct::RBracket)?;
                    let span = e.span.merge(self.prev_span());
                    e = Expr {
                        span,
                        kind: ExprKind::Index {
                            base: Box::new(e),
                            index: Box::new(index),
                        },
                    };
                }
                TokenKind::Punct(Punct::Dot) => {
                    self.pos += 1;
                    let (field, fspan) = self.expect_ident()?;
                    let span = e.span.merge(fspan);
                    e = Expr {
                        span,
                        kind: ExprKind::Member {
                            base: Box::new(e),
                            field,
                            arrow: false,
                        },
                    };
                }
                TokenKind::Punct(Punct::Arrow) => {
                    self.pos += 1;
                    let (field, fspan) = self.expect_ident()?;
                    let span = e.span.merge(fspan);
                    e = Expr {
                        span,
                        kind: ExprKind::Member {
                            base: Box::new(e),
                            field,
                            arrow: true,
                        },
                    };
                }
                TokenKind::Punct(Punct::PlusPlus) => {
                    self.pos += 1;
                    let span = e.span.merge(self.prev_span());
                    e = Expr {
                        span,
                        kind: ExprKind::IncDec {
                            op: IncDec::PostInc,
                            target: Box::new(e),
                        },
                    };
                }
                TokenKind::Punct(Punct::MinusMinus) => {
                    self.pos += 1;
                    let span = e.span.merge(self.prev_span());
                    e = Expr {
                        span,
                        kind: ExprKind::IncDec {
                            op: IncDec::PostDec,
                            target: Box::new(e),
                        },
                    };
                }
                _ => return Ok(e),
            }
        }
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        let span = self.span();
        match self.peek().clone() {
            TokenKind::IntLit(v, k) => {
                self.pos += 1;
                Ok(Expr {
                    span,
                    kind: ExprKind::IntLit(v, k),
                })
            }
            TokenKind::StrLit(bytes) => {
                self.pos += 1;
                Ok(Expr {
                    span,
                    kind: ExprKind::StrLit(bytes),
                })
            }
            TokenKind::Ident(name) => {
                self.pos += 1;
                if let Some(&v) = self.ctx.enum_consts.get(&name) {
                    // An enum constant is an `int`, or a `long` if it needs one.
                    let k = if i32::try_from(v).is_ok() {
                        IntKind::I32
                    } else {
                        IntKind::I64
                    };
                    Ok(Expr {
                        span,
                        kind: ExprKind::IntLit(v, k),
                    })
                } else {
                    Ok(Expr {
                        span,
                        kind: ExprKind::Ident(name),
                    })
                }
            }
            TokenKind::Punct(Punct::LParen) => {
                self.pos += 1;
                let e = self.parse_expr()?;
                self.expect_punct(Punct::RParen)?;
                Ok(e)
            }
            other => Err(CompileError::new(
                span,
                format!("expected an expression, found {other}"),
            )),
        }
    }
}

/// Evaluates a constant integer expression (used for array sizes, case
/// labels, enum values, and global initializers) to the value the
/// lowerer's code would compute for it.
pub(crate) fn const_eval(e: &Expr, types: &TypeTable) -> Result<i64> {
    const_eval_typed(e, types, true).map(|(v, _)| v)
}

/// [`const_eval`] with the expression's integer kind, typed as the
/// lowerer types it: the kinds pick signed or unsigned comparison,
/// division and right shift, through the IL operators the lowerer emits.
///
/// An `evaluated: false` expression is one C does not evaluate, such as
/// the operand of `sizeof`: only its kind counts, so a division by zero
/// in it is no error.
fn const_eval_typed(e: &Expr, types: &TypeTable, evaluated: bool) -> Result<(i64, IntKind)> {
    let fail = |msg: &str| Err(CompileError::new(e.span, msg.to_owned()));
    let eval = |e| const_eval_typed(e, types, evaluated);
    match &e.kind {
        ExprKind::IntLit(v, k) => Ok((*v, *k)),
        ExprKind::Unary { op, operand } => {
            let (v, k) = eval(operand)?;
            Ok(match op {
                UnaryOp::Neg => (v.wrapping_neg(), promote(k)),
                UnaryOp::Plus => (v, promote(k)),
                UnaryOp::BitNot => (!v, promote(k)),
                UnaryOp::LogNot => ((v == 0) as i64, IntKind::I32),
                UnaryOp::Deref | UnaryOp::AddrOf => {
                    return fail("pointer operations are not constant expressions")
                }
            })
        }
        ExprKind::Binary { op, lhs, rhs } => {
            let (l, lk) = eval(lhs)?;
            // Short-circuit forms must not evaluate the dead side if it
            // would divide by zero, and a comma takes its right side's
            // value and kind, so handle them first.
            match op {
                BinaryOp::LogAnd => {
                    let v = l != 0 && eval(rhs)?.0 != 0;
                    return Ok((v as i64, IntKind::I32));
                }
                BinaryOp::LogOr => {
                    let v = l != 0 || eval(rhs)?.0 != 0;
                    return Ok((v as i64, IntKind::I32));
                }
                BinaryOp::Comma => return eval(rhs),
                _ => {}
            }
            let (r, rk) = eval(rhs)?;
            if let Some(cmp) = cmp_op(*op, !usual_arith(lk, rk).is_signed()) {
                return Ok((cmp.eval(l, r) as i64, IntKind::I32));
            }
            let (il_op, kind) = arith_op(*op, lk, rk).expect("every operator is handled");
            match il_op.eval(l, r) {
                Some(v) => Ok((v, kind)),
                None if !evaluated => Ok((0, kind)),
                None => fail("division by zero in constant expression"),
            }
        }
        ExprKind::Conditional {
            cond,
            then_e,
            else_e,
        } => {
            let (c, _) = eval(cond)?;
            let (taken, dead) = if c != 0 {
                (then_e, else_e)
            } else {
                (else_e, then_e)
            };
            let (v, k) = eval(taken)?;
            // The result's kind joins both branches', as in the lowerer;
            // a dead branch that does not evaluate leaves the taken one's.
            let dead_kind = const_eval_typed(dead, types, true).map_or(k, |(_, dk)| dk);
            Ok((v, usual_arith(k, dead_kind)))
        }
        ExprKind::SizeofType(ty) => types
            .size_of(ty)
            .map(|s| (s as i64, IntKind::U64))
            .ok_or_else(|| CompileError::new(e.span, "sizeof of unsized type".to_owned())),
        // An operand that is itself a constant has its kind's size, and is
        // not evaluated; one that names an object is not a constant here.
        ExprKind::SizeofExpr(operand) => {
            let (_, k) = const_eval_typed(operand, types, false)?;
            Ok((k.size() as i64, IntKind::U64))
        }
        ExprKind::Cast { ty, expr } => {
            let (v, _) = eval(expr)?;
            match ty {
                CType::Int(k) => Ok((truncate_to_kind(v, *k), *k)),
                _ => fail("only integer casts are constant expressions"),
            }
        }
        _ => fail("not a constant expression"),
    }
}

/// Truncates `v` to integer kind `k` and re-extends canonically.
fn truncate_to_kind(v: i64, k: IntKind) -> i64 {
    match k {
        IntKind::I8 => v as i8 as i64,
        IntKind::U8 => v as u8 as i64,
        IntKind::I16 => v as i16 as i64,
        IntKind::U16 => v as u16 as i64,
        IntKind::I32 => v as i32 as i64,
        IntKind::U32 => v as u32 as i64,
        IntKind::I64 | IntKind::U64 => v,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_ok(src: &str) -> ParseContext {
        let mut ctx = ParseContext::new();
        let tokens = lex(0, src).expect("lexes");
        parse_into(&mut ctx, &tokens).expect("parses");
        ctx
    }

    fn parse_err(src: &str) -> CompileError {
        let mut ctx = ParseContext::new();
        let tokens = lex(0, src).expect("lexes");
        parse_into(&mut ctx, &tokens).expect_err("should fail")
    }

    #[test]
    fn parses_simple_function() {
        let ctx = parse_ok("int add(int a, int b) { return a + b; }");
        assert_eq!(ctx.program.functions.len(), 1);
        let f = &ctx.program.functions[0];
        assert_eq!(f.name, "add");
        assert_eq!(f.ret, CType::int());
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[0].name, "a");
    }

    #[test]
    fn parses_globals_with_initializers() {
        let ctx = parse_ok("int x = 42; char buf[10]; int t[3] = {1, 2, 3};");
        assert_eq!(ctx.program.globals.len(), 3);
        assert!(matches!(
            ctx.program.globals[0].init,
            Some(Initializer::Expr(_))
        ));
        assert_eq!(
            ctx.program.globals[1].ty,
            CType::Array(Box::new(CType::char()), 10)
        );
        assert!(matches!(
            ctx.program.globals[2].init,
            Some(Initializer::List(_))
        ));
    }

    #[test]
    fn parses_comma_separated_globals() {
        let ctx = parse_ok("int a, b = 2, *c;");
        assert_eq!(ctx.program.globals.len(), 3);
        assert_eq!(ctx.program.globals[2].ty, CType::int().ptr_to());
    }

    #[test]
    fn parses_extern_declaration() {
        let ctx = parse_ok("extern int __fgetc(int fd); extern void __exit(int code);");
        assert_eq!(ctx.program.externs.len(), 2);
        assert_eq!(ctx.program.externs[0].name, "__fgetc");
        assert_eq!(ctx.program.externs[0].params, vec![CType::int()]);
        assert_eq!(ctx.program.externs[1].ret, CType::Void);
    }

    #[test]
    fn parses_struct_definition_and_use() {
        let ctx = parse_ok(
            "struct point { int x; int y; };\n\
             int norm(struct point *p) { return p->x + p->y; }",
        );
        let id = ctx.types.struct_by_name("point").unwrap();
        let def = ctx.types.struct_def(id);
        assert_eq!(def.fields.len(), 2);
        assert_eq!(def.size, 8);
    }

    #[test]
    fn parses_self_referential_struct() {
        let ctx = parse_ok("struct node { int v; struct node *next; };");
        let id = ctx.types.struct_by_name("node").unwrap();
        assert_eq!(ctx.types.struct_def(id).size, 16);
    }

    #[test]
    fn rejects_struct_redefinition() {
        let e = parse_err("struct s { int a; }; struct s { int b; };");
        assert!(e.message.contains("redefined"));
    }

    #[test]
    fn parses_enum_and_substitutes_constants() {
        let ctx = parse_ok(
            "enum { RED, GREEN = 5, BLUE };\n\
             int f() { return BLUE; }",
        );
        assert_eq!(ctx.enum_consts["RED"], 0);
        assert_eq!(ctx.enum_consts["GREEN"], 5);
        assert_eq!(ctx.enum_consts["BLUE"], 6);
        // BLUE became a literal in the AST.
        let f = &ctx.program.functions[0];
        let StmtKind::Block { stmts, .. } = &f.body.kind else {
            panic!()
        };
        let StmtKind::Return(Some(e)) = &stmts[0].kind else {
            panic!()
        };
        assert_eq!(e.kind, ExprKind::IntLit(6, IntKind::I32));
    }

    #[test]
    fn parses_function_pointer_declarator() {
        let ctx = parse_ok("int apply(int (*f)(int, int), int x) { return f(x, x); }");
        let p = &ctx.program.functions[0].params[0];
        let CType::Ptr(inner) = &p.ty else {
            panic!("expected pointer")
        };
        let CType::Func(ft) = inner.as_ref() else {
            panic!("expected function type")
        };
        assert_eq!(ft.params.len(), 2);
    }

    #[test]
    fn parses_array_of_function_pointers_global() {
        let ctx = parse_ok("int (*ops[4])(int, int);");
        let g = &ctx.program.globals[0];
        let CType::Array(elem, 4) = &g.ty else {
            panic!("expected array of 4")
        };
        assert!(matches!(elem.as_ref(), CType::Ptr(_)));
    }

    #[test]
    fn array_suffixes_bind_left_to_right() {
        let ctx = parse_ok("int m[2][3];");
        assert_eq!(
            ctx.program.globals[0].ty,
            CType::Array(Box::new(CType::Array(Box::new(CType::int()), 3)), 2)
        );
    }

    #[test]
    fn pointer_binds_inside_array() {
        let ctx = parse_ok("int *a[3]; int (*b)[3];");
        // a: array of 3 pointer-to-int.
        assert_eq!(
            ctx.program.globals[0].ty,
            CType::Array(Box::new(CType::int().ptr_to()), 3)
        );
        // b: pointer to array of 3 int.
        assert_eq!(
            ctx.program.globals[1].ty,
            CType::Ptr(Box::new(CType::Array(Box::new(CType::int()), 3)))
        );
    }

    #[test]
    fn parses_all_statement_forms() {
        parse_ok(
            "int f(int n) {\n\
               int i; int acc;\n\
               acc = 0;\n\
               for (i = 0; i < n; i++) acc += i;\n\
               while (acc > 100) acc /= 2;\n\
               do { acc--; } while (acc > 50);\n\
               if (acc == 7) return 1; else acc = -acc;\n\
               switch (acc) {\n\
                 case 1: return 2;\n\
                 case 'x': acc++; break;\n\
                 default: acc = 0;\n\
               }\n\
               return acc;\n\
             }",
        );
    }

    #[test]
    fn parses_sizeof_forms() {
        let ctx = parse_ok("long a = sizeof(int); long b = sizeof(char*);");
        let Some(Initializer::Expr(e)) = &ctx.program.globals[0].init else {
            panic!()
        };
        assert_eq!(e.kind, ExprKind::SizeofType(CType::int()));
    }

    #[test]
    fn parses_casts_vs_parens() {
        let ctx = parse_ok("int f(int x) { return (int)(x) + (x); }");
        let f = &ctx.program.functions[0];
        let StmtKind::Block { stmts, .. } = &f.body.kind else {
            panic!()
        };
        let StmtKind::Return(Some(e)) = &stmts[0].kind else {
            panic!()
        };
        let ExprKind::Binary { lhs, .. } = &e.kind else {
            panic!()
        };
        assert!(matches!(lhs.kind, ExprKind::Cast { .. }));
    }

    #[test]
    fn parses_assignment_right_associative() {
        let ctx = parse_ok("int f(int a, int b) { a = b = 3; return a; }");
        let f = &ctx.program.functions[0];
        let StmtKind::Block { stmts, .. } = &f.body.kind else {
            panic!()
        };
        let StmtKind::Expr(e) = &stmts[0].kind else {
            panic!()
        };
        let ExprKind::Assign { value, .. } = &e.kind else {
            panic!()
        };
        assert!(matches!(value.kind, ExprKind::Assign { .. }));
    }

    #[test]
    fn rejects_statement_before_case() {
        let e = parse_err("int f(int x) { switch (x) { x++; case 1: break; } return 0; }");
        assert!(e.message.contains("before first case"));
    }

    #[test]
    fn rejects_missing_semicolon() {
        let e = parse_err("int f() { return 1 }");
        assert!(e.message.contains("expected `;`"));
    }

    #[test]
    fn rejects_negative_array_size() {
        let e = parse_err("int a[-1];");
        assert!(e.message.contains("negative array size"));
    }

    #[test]
    fn const_eval_handles_operators() {
        let ctx = parse_ok("int a[(1 + 2) * 3 - 4 / 2]; int b[1 << 4]; int c[5 > 3 ? 2 : 9];");
        assert_eq!(
            ctx.program.globals[0].ty,
            CType::Array(Box::new(CType::int()), 7)
        );
        assert_eq!(
            ctx.program.globals[1].ty,
            CType::Array(Box::new(CType::int()), 16)
        );
        assert_eq!(
            ctx.program.globals[2].ty,
            CType::Array(Box::new(CType::int()), 2)
        );
    }

    #[test]
    fn const_eval_uses_enum_constants() {
        let ctx = parse_ok("enum { N = 8 }; int a[N * 2];");
        assert_eq!(
            ctx.program.globals[0].ty,
            CType::Array(Box::new(CType::int()), 16)
        );
    }

    #[test]
    fn case_labels_fold_constants() {
        let ctx = parse_ok(
            "enum { ALPHA = 10 };\n\
             int f(int x) { switch (x) { case ALPHA + 1: return 1; } return 0; }",
        );
        let f = &ctx.program.functions[0];
        let StmtKind::Block { stmts, .. } = &f.body.kind else {
            panic!()
        };
        let StmtKind::Switch { cases, .. } = &stmts[0].kind else {
            panic!()
        };
        assert_eq!(cases[0].value, Some(11));
    }

    #[test]
    fn prototypes_are_accepted_and_ignored() {
        let ctx = parse_ok("int helper(int); int helper(int x) { return x; }");
        assert_eq!(ctx.program.functions.len(), 1);
    }

    #[test]
    fn static_is_ignored() {
        let ctx = parse_ok("static int counter; static int bump() { return ++counter; }");
        assert_eq!(ctx.program.globals.len(), 1);
        assert_eq!(ctx.program.functions.len(), 1);
    }

    #[test]
    fn parses_logical_operators_with_correct_precedence() {
        let ctx = parse_ok("int f(int a, int b) { return a == 1 || b == 2 && a < b; }");
        let f = &ctx.program.functions[0];
        let StmtKind::Block { stmts, .. } = &f.body.kind else {
            panic!()
        };
        let StmtKind::Return(Some(e)) = &stmts[0].kind else {
            panic!()
        };
        // Top node must be ||.
        let ExprKind::Binary { op, .. } = &e.kind else {
            panic!()
        };
        assert_eq!(*op, BinaryOp::LogOr);
    }

    #[test]
    fn parses_definition_returning_a_function_pointer() {
        let ctx = parse_ok("int (*pick(int k))(int j) { return 0; }");
        let f = &ctx.program.functions[0];
        assert_eq!(f.name, "pick");
        assert_eq!(
            f.params,
            vec![Param {
                name: "k".into(),
                ty: CType::int()
            }]
        );
        let CType::Ptr(inner) = &f.ret else {
            panic!("expected a pointer return")
        };
        assert!(matches!(inner.as_ref(), CType::Func(_)));
    }

    #[test]
    fn parses_definition_with_a_parenthesized_name() {
        let ctx = parse_ok("int (twice)(int x) { return x + x; } int ((id))(int y) { return y; }");
        let names: Vec<_> = ctx
            .program
            .functions
            .iter()
            .map(|f| &f.params[0].name)
            .collect();
        assert_eq!(names, ["x", "y"]);
        assert_eq!(ctx.program.functions[0].ret, CType::int());
    }

    #[test]
    fn parses_static_definition_with_a_typedef_return() {
        let ctx = parse_ok("typedef unsigned long word; static word *at(word *p) { return p; }");
        let f = &ctx.program.functions[0];
        assert_eq!(f.ret, CType::Int(IntKind::U64).ptr_to());
        assert_eq!(f.params[0].name, "p");
    }

    #[test]
    fn parses_definition_after_a_declaration_list() {
        let ctx = parse_ok("int a, b = 2; int f(int n) { return n + b; }");
        assert_eq!(ctx.program.globals.len(), 2);
        assert_eq!(ctx.program.functions[0].params[0].name, "n");
    }

    #[test]
    fn parses_extern_definition() {
        let ctx = parse_ok("extern int g(int x) { return x; }");
        assert!(ctx.program.externs.is_empty());
        assert_eq!(ctx.program.functions[0].name, "g");
        assert_eq!(ctx.program.functions[0].params[0].name, "x");
    }

    #[test]
    fn rejects_definitions_a_declarator_cannot_make() {
        for (src, want) in [
            (
                "typedef int fn_t(int); fn_t k { return 1; }",
                "definition of `k` needs a parameter list",
            ),
            ("int f()[3] { }", "a function cannot return `int[3]`"),
            ("int f()() { }", "a function cannot return `int()`"),
        ] {
            assert_eq!(parse_err(src).message, want, "`{src}`");
        }
    }

    #[test]
    fn a_redefined_function_is_reported_at_its_name() {
        let sources = [crate::Source::new(
            "t.c",
            "int *f() { return 0; }\nint *f() { return 0; }",
        )];
        let e = crate::compile(&sources).expect_err("redefinition");
        assert_eq!(e.render(&sources), "t.c:2:6: function `f` redefined");
    }

    #[test]
    fn void_param_list_is_empty() {
        let ctx = parse_ok("int f(void) { return 0; }");
        assert!(ctx.program.functions[0].params.is_empty());
    }

    #[test]
    fn unsigned_specifiers() {
        let ctx = parse_ok("unsigned x; unsigned long y; unsigned char z; short int w;");
        assert_eq!(ctx.program.globals[0].ty, CType::Int(IntKind::U32));
        assert_eq!(ctx.program.globals[1].ty, CType::Int(IntKind::U64));
        assert_eq!(ctx.program.globals[2].ty, CType::Int(IntKind::U8));
        assert_eq!(ctx.program.globals[3].ty, CType::Int(IntKind::I16));
    }
}

#[cfg(test)]
mod typedef_tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_ok(src: &str) -> ParseContext {
        let mut ctx = ParseContext::new();
        let tokens = lex(0, src).expect("lexes");
        parse_into(&mut ctx, &tokens).expect("parses");
        ctx
    }

    #[test]
    fn typedef_scalar_and_pointer() {
        let ctx = parse_ok(
            "typedef unsigned char byte;\n\
             typedef char *string;\n\
             byte b;\n\
             string s;",
        );
        assert_eq!(ctx.program.globals[0].ty, CType::Int(IntKind::U8));
        assert_eq!(ctx.program.globals[1].ty, CType::char().ptr_to());
    }

    #[test]
    fn typedef_struct_and_usage_in_functions() {
        let ctx = parse_ok(
            "struct point { int x; int y; };\n\
             typedef struct point Point;\n\
             int norm(Point *p) { return p->x + p->y; }",
        );
        let f = &ctx.program.functions[0];
        let CType::Ptr(inner) = &f.params[0].ty else {
            panic!()
        };
        assert!(matches!(inner.as_ref(), CType::Struct(_)));
    }

    #[test]
    fn typedef_in_cast_and_sizeof() {
        let ctx = parse_ok(
            "typedef long word;\n\
             long f(int x) { return (word)x + sizeof(word); }",
        );
        assert_eq!(ctx.typedefs["word"], CType::long());
    }

    #[test]
    fn typedef_array_and_function_pointer() {
        let ctx = parse_ok(
            "typedef int vec4[4];\n\
             typedef int (*binop)(int, int);\n\
             vec4 v;\n\
             binop op;",
        );
        assert_eq!(
            ctx.program.globals[0].ty,
            CType::Array(Box::new(CType::int()), 4)
        );
        assert!(matches!(ctx.program.globals[1].ty, CType::Ptr(_)));
    }

    #[test]
    fn typedef_of_typedef() {
        let ctx = parse_ok(
            "typedef int number;\n\
             typedef number *numptr;\n\
             numptr p;",
        );
        assert_eq!(ctx.program.globals[0].ty, CType::int().ptr_to());
    }

    #[test]
    fn typedef_as_function_return_type() {
        let ctx = parse_ok(
            "typedef unsigned int hash_t;\n\
             hash_t mix(hash_t h) { return h * 31; }",
        );
        assert_eq!(ctx.program.functions[0].ret, CType::Int(IntKind::U32));
    }

    #[test]
    fn typedef_redefinition_rejected() {
        let mut ctx = ParseContext::new();
        let tokens = lex(0, "typedef int a; typedef long a;").unwrap();
        let e = parse_into(&mut ctx, &tokens).expect_err("should fail");
        assert!(e.message.contains("redefined"));
    }
}
