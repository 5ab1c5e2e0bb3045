//! # impact-vm — profiling IL interpreter
//!
//! Executes [`impact_il`] modules and produces the execution [`Profile`]
//! that drives the paper's profile-guided inline expansion: function entry
//! counts (node weights), call-site counts (arc weights), dynamic
//! intermediate-instruction counts (`IL's`), and control-transfer counts.
//!
//! The VM also implements the **external functions** of the paper's world
//! (§2.5): byte-stream I/O over in-memory files, a heap, program
//! arguments, and process exit — see [`Os`] and the `__`-prefixed builtins
//! in [`Builtin`]. Programs declare them with `extern`:
//!
//! ```c
//! extern int  __fgetc(int fd);
//! extern int  __fputc(int c, int fd);
//! extern int  __open(char *path);
//! extern long __malloc(long n);
//! extern void __exit(int code);
//! ```
//!
//! ## Example
//!
//! Compile and run a tiny program, then inspect its profile:
//!
//! ```
//! use impact_cfront::{compile, Source};
//! use impact_vm::{run, VmConfig};
//!
//! let module = compile(&[Source::new(
//!     "t.c",
//!     "int triple(int x) { return 3 * x; }\n\
//!      int main() { return triple(5) + triple(9); }",
//! )])
//! .unwrap();
//! let out = run(&module, vec![], vec![], &VmConfig::default()).unwrap();
//! assert_eq!(out.exit_code, 42);
//! // `triple` was entered twice: its node weight is 2.
//! let triple = module.func_by_name("triple").unwrap();
//! assert_eq!(out.profile.func_weight(triple), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bytecode;
mod error;
mod exec;
mod fault;
mod icache;
mod interp;
mod memory;
mod os;
mod profile;

pub use error::VmError;
pub use fault::{panic_message, FaultPlan};
pub use icache::{IcacheConfig, IcacheSim, IcacheStats};
pub use interp::{run, Engine, RunOutcome, VmConfig};
pub use memory::{Memory, FUNC_BASE};
pub use os::{Builtin, BuiltinOutcome, NamedFile, Os};
pub use profile::{fnv1a64, FlowResidual, ProfTarget, Profile};

use impact_il::Module;

/// Profiles a module over many `(inputs, args)` runs, returning the merged
/// profile and each run's outcome.
///
/// This is the paper's profiling step (§3.1): the program is executed on a
/// spectrum of representative inputs and the statistics are accumulated.
///
/// # Errors
///
/// Fails on the first run that traps.
pub fn profile_runs(
    module: &Module,
    runs: &[(Vec<NamedFile>, Vec<String>)],
    config: &VmConfig,
) -> Result<(Profile, Vec<RunOutcome>), VmError> {
    let mut merged = Profile::for_module(module);
    let mut outcomes = Vec::with_capacity(runs.len());
    for (inputs, args) in runs {
        let out = run(module, inputs.clone(), args.clone(), config)?;
        merged.merge(&out.profile);
        outcomes.push(out);
    }
    Ok((merged, outcomes))
}
