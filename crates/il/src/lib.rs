//! # impact-il — three-address intermediate language
//!
//! The IL is the program representation shared by every stage of this
//! reproduction of Hwu & Chang, *Inline Function Expansion for Compiling C
//! Programs* (PLDI 1989): the C front end lowers into it, the profiling VM
//! executes it, and the inline expander transforms it.
//!
//! Design points that mirror the paper:
//!
//! * **Intermediate instructions are the unit of measurement.** Dynamic
//!   instruction counts (`IL's` in the paper's tables) count executed IL
//!   instructions, and code-size bookkeeping counts static IL instructions
//!   ([`Function::size`]).
//! * **Call sites carry unique ids** ([`CallSiteId`]) because several
//!   call-graph arcs may connect the same caller/callee pair (§2.2).
//! * **External functions are first-class** ([`ExternDecl`]): they have
//!   declarations but no bodies, exactly like the system calls and library
//!   archives the paper's compiler could not see (§2.5).
//! * **Function pointers work**: [`Inst::AddrOfFunc`] materializes them,
//!   [`Callee::Reg`] calls through them, and [`Global::func_relocs`] lets
//!   dispatch tables live in initialized globals.
//!
//! The IL also defines its own semantics, so its users agree by
//! construction: [`BinOp::eval`], [`CmpOp::eval`], [`UnOp::eval`] and
//! [`Width::extend`] are what both VM engines execute and what constant
//! folding computes, and the register visitors on [`Inst`] and
//! [`Terminator`] are how the optimizer and the inliner find and rewrite
//! registers.
//!
//! ## Example
//!
//! Build `int add1(int x) { return x + 1; }` by hand and print it:
//!
//! ```
//! use impact_il::{BinOp, FunctionBuilder, Module, Reg, Terminator};
//!
//! let mut module = Module::new();
//! let mut b = FunctionBuilder::new("add1", 1);
//! let one = b.const_(1);
//! let sum = b.bin(BinOp::Add, Reg(0), one);
//! b.terminate(Terminator::Return(Some(sum)));
//! module.add_function(b.finish());
//!
//! impact_il::verify_module(&module).expect("well-formed");
//! let text = impact_il::module_to_string(&module);
//! assert!(text.contains("add"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod function;
mod ids;
mod inst;
mod module;
mod printer;
mod verify;

pub use builder::FunctionBuilder;
pub use function::{Block, Function, Slot, CALL_OVERHEAD_BYTES};
pub use ids::{BlockId, CallSiteId, ExternId, FuncId, GlobalId, Reg, SlotId};
pub use inst::{BinOp, Callee, CmpOp, Inst, Terminator, UnOp, Width};
pub use module::{ExternDecl, Global, Module};
pub use printer::{function_to_string, module_to_string, write_inst, write_terminator};
pub use verify::{verify_function, verify_module, VerifyError};
