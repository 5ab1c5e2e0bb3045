//! Abstract syntax tree produced by the parser.
//!
//! The AST is untyped; the lowering pass performs type checking while
//! translating to IL (single-pass, as small compilers of the paper's era
//! did).

use crate::token::Span;
use crate::types::{CType, IntKind};

/// Binary operators at the AST level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // names mirror the C operators
pub enum BinaryOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    BitAnd,
    BitOr,
    BitXor,
    Shl,
    Shr,
    Lt,
    Gt,
    Le,
    Ge,
    Eq,
    Ne,
    LogAnd,
    LogOr,
    Comma,
}

/// Unary operators at the AST level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum UnaryOp {
    /// `-x`
    Neg,
    /// `+x`
    Plus,
    /// `!x`
    LogNot,
    /// `~x`
    BitNot,
    /// `*p`
    Deref,
    /// `&x`
    AddrOf,
}

/// Prefix/postfix increment and decrement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum IncDec {
    PreInc,
    PreDec,
    PostInc,
    PostDec,
}

/// An expression.
#[derive(Clone, Debug, PartialEq)]
pub struct Expr {
    /// Source location, for diagnostics.
    pub span: Span,
    /// The expression's shape.
    pub kind: ExprKind,
}

/// Expression shapes.
#[derive(Clone, Debug, PartialEq)]
pub enum ExprKind {
    /// Integer (or character) literal, with its kind.
    IntLit(i64, IntKind),
    /// String literal (NUL appended during lowering).
    StrLit(Vec<u8>),
    /// Identifier reference.
    Ident(String),
    /// `lhs op rhs`.
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// `op operand`.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        operand: Box<Expr>,
    },
    /// `++x`, `x--`, etc.
    IncDec {
        /// Which of the four forms.
        op: IncDec,
        /// The lvalue operand.
        target: Box<Expr>,
    },
    /// `target = value` or a compound assignment (`op` is the underlying
    /// arithmetic operator for `+=` and friends).
    Assign {
        /// `None` for plain `=`; `Some(op)` for compound assignment.
        op: Option<BinaryOp>,
        /// Assigned-to lvalue.
        target: Box<Expr>,
        /// Right-hand side.
        value: Box<Expr>,
    },
    /// `cond ? then_e : else_e`.
    Conditional {
        /// Condition.
        cond: Box<Expr>,
        /// Value if nonzero.
        then_e: Box<Expr>,
        /// Value if zero.
        else_e: Box<Expr>,
    },
    /// `callee(args...)`.
    Call {
        /// Called expression (identifier or pointer-valued expression).
        callee: Box<Expr>,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// `base[index]`.
    Index {
        /// Array or pointer expression.
        base: Box<Expr>,
        /// Index expression.
        index: Box<Expr>,
    },
    /// `base.field` (`arrow = false`) or `base->field` (`arrow = true`).
    Member {
        /// Struct-valued (or pointer-valued) expression.
        base: Box<Expr>,
        /// Field name.
        field: String,
        /// Whether `->` was used.
        arrow: bool,
    },
    /// `(type)expr`.
    Cast {
        /// Target type.
        ty: CType,
        /// Operand.
        expr: Box<Expr>,
    },
    /// `sizeof(type)` or `sizeof expr`.
    SizeofType(CType),
    /// `sizeof expr`.
    SizeofExpr(Box<Expr>),
}

/// An initializer in a declaration.
#[derive(Clone, Debug, PartialEq)]
pub enum Initializer {
    /// `= expr`.
    Expr(Expr),
    /// `= { e0, e1, ... }` for arrays.
    List(Vec<Expr>),
}

/// One declared local variable.
#[derive(Clone, Debug, PartialEq)]
pub struct LocalDecl {
    /// Location of the declarator.
    pub span: Span,
    /// Variable name.
    pub name: String,
    /// Declared type.
    pub ty: CType,
    /// Optional initializer.
    pub init: Option<Initializer>,
}

/// A statement.
#[derive(Clone, Debug, PartialEq)]
pub struct Stmt {
    /// Source location.
    pub span: Span,
    /// The statement's shape.
    pub kind: StmtKind,
}

/// Statement shapes.
#[derive(Clone, Debug, PartialEq)]
pub enum StmtKind {
    /// `{ decls... stmts... }` — declarations first (C89 style).
    Block {
        /// Leading declarations.
        decls: Vec<LocalDecl>,
        /// Statements.
        stmts: Vec<Stmt>,
    },
    /// `expr;`
    Expr(Expr),
    /// `;`
    Empty,
    /// `if (cond) then_s [else else_s]`.
    If {
        /// Condition.
        cond: Expr,
        /// Then branch.
        then_s: Box<Stmt>,
        /// Optional else branch.
        else_s: Option<Box<Stmt>>,
    },
    /// `while (cond) body`.
    While {
        /// Condition.
        cond: Expr,
        /// Loop body.
        body: Box<Stmt>,
    },
    /// `do body while (cond);`
    DoWhile {
        /// Loop body.
        body: Box<Stmt>,
        /// Condition.
        cond: Expr,
    },
    /// `for (init; cond; step) body`.
    For {
        /// Optional init expression.
        init: Option<Expr>,
        /// Optional condition (absent means "always true").
        cond: Option<Expr>,
        /// Optional step expression.
        step: Option<Expr>,
        /// Loop body.
        body: Box<Stmt>,
    },
    /// `switch (scrutinee) { cases }` with C fallthrough semantics.
    Switch {
        /// The switched-on expression.
        scrutinee: Expr,
        /// The body, as a flat list of case-labelled groups.
        cases: Vec<SwitchCase>,
    },
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// `return [expr];`
    Return(Option<Expr>),
}

/// One `case`/`default` label and the statements that follow it (up to the
/// next label). Execution falls through to the next group unless a `break`
/// intervenes, as in C.
#[derive(Clone, Debug, PartialEq)]
pub struct SwitchCase {
    /// `Some(value)` for `case value:`, `None` for `default:`.
    pub value: Option<i64>,
    /// Statements in this group.
    pub stmts: Vec<Stmt>,
}

/// A function parameter.
#[derive(Clone, Debug, PartialEq)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Declared type (arrays already decayed to pointers by the parser).
    pub ty: CType,
}

/// A function definition.
#[derive(Clone, Debug, PartialEq)]
pub struct FunctionDef {
    /// Location of the function name.
    pub span: Span,
    /// Function name.
    pub name: String,
    /// Return type.
    pub ret: CType,
    /// Parameters.
    pub params: Vec<Param>,
    /// The body block.
    pub body: Stmt,
}

/// An `extern` function declaration (a VM builtin — the paper's
/// inaccessible external function).
#[derive(Clone, Debug, PartialEq)]
pub struct ExternFuncDecl {
    /// Location of the name.
    pub span: Span,
    /// Function name.
    pub name: String,
    /// Return type.
    pub ret: CType,
    /// Parameter types.
    pub params: Vec<CType>,
}

/// A global variable definition.
#[derive(Clone, Debug, PartialEq)]
pub struct GlobalDecl {
    /// Location of the name.
    pub span: Span,
    /// Variable name.
    pub name: String,
    /// Declared type.
    pub ty: CType,
    /// Optional constant initializer.
    pub init: Option<Initializer>,
}

/// A whole parsed compilation (all source files merged).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Program {
    /// Global variables, in declaration order.
    pub globals: Vec<GlobalDecl>,
    /// Function definitions, in declaration order.
    pub functions: Vec<FunctionDef>,
    /// Extern declarations.
    pub externs: Vec<ExternFuncDecl>,
}
