//! # impact-cfront — C-subset compiler front end
//!
//! A from-scratch front end (lexer → parser → type-checking lowering) that
//! translates a realistic subset of C89 into the [`impact_il`] three-address
//! code. It is the substrate the paper's inline expander operates above:
//! the twelve benchmark programs of the evaluation are written in this
//! subset and compiled here.
//!
//! ## Supported language
//!
//! * Types: `void`, `char`, `short`, `int`, `long` (signed and unsigned),
//!   pointers, fixed-size arrays, `struct`s (including self-referential via
//!   pointers), enums (constants of type `int`), `typedef` names, and
//!   function pointers with full declarator syntax (`int (*f)(int)`,
//!   `int (*ops[4])(int,int)`), function definitions included
//!   (`int (*pick(int k))(int) { ... }`).
//! * Integer literals in decimal, hex and octal, with `u` and `l` suffixes,
//!   typed by C's table for 32-bit `int` and 64-bit `long` (`0xFFFFFFFF`
//!   is an `unsigned int`, `3L` a `long`).
//! * Statements: blocks with C89-style leading declarations, `if`/`else`,
//!   `while`, `do`/`while`, `for`, `switch` with fallthrough, `break`,
//!   `continue`, `return`.
//! * Expressions: the full C operator set (assignment and compound
//!   assignment, `?:`, `&&`/`||` with short-circuit, comma, casts,
//!   `sizeof`, pointer arithmetic, `++`/`--`, `.`/`->`, indexing, calls
//!   through function pointers).
//! * `extern` function declarations denote **external functions** (VM
//!   builtins) — the paper's system calls and closed libraries, which the
//!   inline expander must treat as opaque.
//!
//! ## Deliberate omissions
//!
//! No preprocessor (write constants with `enum`), no `goto`, `union`,
//! bitfields, floating point, varargs, struct-by-value
//! assignment/parameters/returns, or block-scoped struct definitions or
//! typedefs. Enum constants and typedef names may not be shadowed by
//! variables. All arithmetic is performed in 64 bits and truncated at
//! casts, stores, and assignments to narrow variables.
//!
//! ## Example
//!
//! ```
//! use impact_cfront::{compile, Source};
//!
//! let module = compile(&[Source {
//!     name: "demo.c".into(),
//!     text: "int twice(int x) { return x + x; }\n\
//!            int main() { return twice(21); }"
//!         .into(),
//! }])
//! .expect("compiles");
//! assert_eq!(module.functions.len(), 2);
//! impact_il::verify_module(&module).expect("well-formed IL");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
mod error;
mod lexer;
mod lower;
mod parser;
pub mod token;
pub mod types;

pub use error::CompileError;
pub use lexer::lex;
pub use lower::lower;
pub use parser::{parse_into, ParseContext};

/// One named source file of a compilation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Source {
    /// Display name used in diagnostics (e.g. `"grep.c"`).
    pub name: String,
    /// Full source text.
    pub text: String,
}

impl Source {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, text: impl Into<String>) -> Self {
        Source {
            name: name.into(),
            text: text.into(),
        }
    }
}

/// Compiles a set of C sources into a single IL [`impact_il::Module`]
/// (whole-program compilation, as the paper's profile-guided pipeline
/// requires).
///
/// # Errors
///
/// Returns the first lexical, syntactic, or semantic error. Use
/// [`CompileError::render`] with the same `sources` to get a
/// `file:line:col`-formatted message.
pub fn compile(sources: &[Source]) -> Result<impact_il::Module, CompileError> {
    compile_with(sources, &impact_obs::Telemetry::disabled())
}

/// [`compile`] with pipeline telemetry: records `cfront:lex`,
/// `cfront:parse`, and `cfront:lower` spans plus source/function counters
/// on `obs`. With a disabled handle this is exactly [`compile`].
///
/// # Errors
///
/// Same as [`compile`].
pub fn compile_with(
    sources: &[Source],
    obs: &impact_obs::Telemetry,
) -> Result<impact_il::Module, CompileError> {
    let mut ctx = ParseContext::new();
    for (i, src) in sources.iter().enumerate() {
        let tokens = {
            let _s = obs.span("cfront:lex");
            lexer::lex(i as u32, &src.text)?
        };
        let _s = obs.span("cfront:parse");
        parser::parse_into(&mut ctx, &tokens)?;
    }
    obs.count("cfront:sources", sources.len() as u64);
    let module = {
        let _s = obs.span("cfront:lower");
        lower::lower(&ctx)?
    };
    obs.count("cfront:functions", module.functions.len() as u64);
    Ok(module)
}
