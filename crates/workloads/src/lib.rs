//! # impact-workloads — the twelve-benchmark suite
//!
//! Rebuilds the paper's evaluation suite (§4, Table 1): twelve frequently
//! used UNIX programs — `cccp cmp compress eqn espresso grep lex make tar
//! tee wc yacc` — as miniature but functionally faithful programs in the
//! [`impact_cfront`] C subset, each paired with a seeded generator of
//! *representative inputs*.
//!
//! ## Substitution note (documented in `DESIGN.md`)
//!
//! The original 1989 sources and the paper's collected input sets are not
//! available; these miniatures preserve what the experiment measures —
//! each tool's *call structure* (scanner loops, table-driven automata,
//! recursive descent, dependency traversal) and therefore the distribution
//! of dynamic calls over static call sites. Inputs are synthesized by
//! seeded generators of the same kind of data (C sources for `cccp`,
//! similar/dissimilar files for `cmp`, grammars for `yacc`, ...), making
//! every number downstream reproducible bit-for-bit.
//!
//! ## Example
//!
//! ```
//! use impact_workloads::{benchmark, Benchmark};
//!
//! let grep = benchmark("grep").expect("known benchmark");
//! let module = grep.compile().expect("compiles");
//! assert!(module.main_id().is_some());
//! let input = grep.run_input(0);
//! assert!(!input.inputs.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod minilib;
pub mod programs;
pub mod textgen;

pub use minilib::MINILIB_C;

use impact_cfront::{compile, CompileError, Source};
use impact_il::Module;
use impact_vm::NamedFile;

/// The input files and program arguments for one benchmark run.
#[derive(Clone, Debug)]
pub struct RunInput {
    /// Named input files (one may be `stdin`).
    pub inputs: Vec<NamedFile>,
    /// Program arguments.
    pub args: Vec<String>,
}

/// One benchmark of the suite: program sources plus an input generator.
#[derive(Clone, Copy)]
pub struct Benchmark {
    /// The benchmark's name, as in the paper's tables.
    pub name: &'static str,
    /// Input description (Table 1's rightmost column).
    pub input_description: &'static str,
    /// Number of profiled runs (Table 1's `runs` column, from the paper).
    pub runs: u32,
    program: &'static str,
    gen: fn(u64) -> RunInput,
}

impl std::fmt::Debug for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Benchmark")
            .field("name", &self.name)
            .field("runs", &self.runs)
            .finish()
    }
}

impl Benchmark {
    /// The C sources: the program itself plus the shared mini library.
    pub fn sources(&self) -> Vec<Source> {
        vec![
            Source::new("minilib.c", MINILIB_C),
            Source::new(format!("{}.c", self.name), self.program),
        ]
    }

    /// Compiles the benchmark to an IL module.
    ///
    /// # Errors
    ///
    /// Propagates front-end errors (which would indicate a bug in the
    /// bundled sources).
    pub fn compile(&self) -> Result<Module, CompileError> {
        compile(&self.sources())
    }

    /// Lines of C code (Table 1's `C lines` column): non-blank lines of
    /// the program and library sources.
    pub fn c_lines(&self) -> usize {
        self.sources()
            .iter()
            .map(|s| s.text.lines().filter(|l| !l.trim().is_empty()).count())
            .sum()
    }

    /// The inputs and arguments for run `idx` (deterministic in
    /// `(benchmark, idx)`).
    pub fn run_input(&self, idx: u32) -> RunInput {
        (self.gen)(idx as u64)
    }

    /// Run pairs in the shape [`impact_vm::profile_runs`] consumes.
    pub fn profile_run_set(&self, max_runs: u32) -> Vec<(Vec<NamedFile>, Vec<String>)> {
        (0..self.runs.min(max_runs))
            .map(|i| {
                let r = self.run_input(i);
                (r.inputs, r.args)
            })
            .collect()
    }
}

macro_rules! bench_entry {
    ($module:ident) => {
        Benchmark {
            name: stringify!($module),
            input_description: programs::$module::DESCRIPTION,
            runs: programs::$module::RUNS,
            program: programs::$module::SOURCE,
            gen: programs::$module::gen,
        }
    };
}

/// The twelve benchmarks, in the paper's table order.
pub fn all_benchmarks() -> Vec<Benchmark> {
    vec![
        bench_entry!(cccp),
        bench_entry!(cmp),
        bench_entry!(compress),
        bench_entry!(eqn),
        bench_entry!(espresso),
        bench_entry!(grep),
        bench_entry!(lex),
        bench_entry!(make),
        bench_entry!(tar),
        bench_entry!(tee),
        bench_entry!(wc),
        bench_entry!(yacc),
    ]
}

/// Looks up one benchmark by name.
pub fn benchmark(name: &str) -> Option<Benchmark> {
    all_benchmarks().into_iter().find(|b| b.name == name)
}

/// The benchmark names in table order — the unit set `impactc batch
/// --workloads` supervises.
pub fn benchmark_names() -> Vec<&'static str> {
    all_benchmarks().iter().map(|b| b.name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_benchmarks_in_paper_order() {
        let names: Vec<&str> = all_benchmarks().iter().map(|b| b.name).collect();
        assert_eq!(
            names,
            vec![
                "cccp", "cmp", "compress", "eqn", "espresso", "grep", "lex", "make", "tar", "tee",
                "wc", "yacc"
            ]
        );
    }

    #[test]
    fn run_counts_match_the_paper() {
        let runs: Vec<u32> = all_benchmarks().iter().map(|b| b.runs).collect();
        assert_eq!(runs, vec![20, 16, 20, 20, 20, 20, 4, 20, 14, 20, 20, 8]);
    }

    #[test]
    fn every_benchmark_compiles() {
        for b in all_benchmarks() {
            let module = b.compile().unwrap_or_else(|e| {
                panic!("{} failed to compile: {}", b.name, e.render(&b.sources()))
            });
            impact_il::verify_module(&module)
                .unwrap_or_else(|e| panic!("{} IL invalid: {:?}", b.name, e));
            assert!(module.main_id().is_some(), "{} has no main", b.name);
        }
    }

    #[test]
    fn inputs_are_deterministic() {
        let g = benchmark("grep").unwrap();
        let a = g.run_input(3);
        let b = g.run_input(3);
        assert_eq!(a.inputs, b.inputs);
        assert_eq!(a.args, b.args);
    }

    #[test]
    fn c_lines_are_substantial() {
        for b in all_benchmarks() {
            assert!(b.c_lines() > 120, "{} only {} lines", b.name, b.c_lines());
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(benchmark("yacc").is_some());
        assert!(benchmark("nope").is_none());
    }
}
