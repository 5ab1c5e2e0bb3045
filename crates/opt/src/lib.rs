//! # impact-opt — classical IL optimizations
//!
//! The paper applies *constant folding and jump optimization* before the
//! inline expansion procedure (§4.4) and names copy propagation and dead
//! code elimination as the cleanups that remove parameter-buffering
//! overhead after expansion (§2.4). This crate implements those four
//! passes.
//!
//! All passes are intraprocedural and semantics-preserving; each returns
//! the number of changes it made so drivers can iterate to a fixpoint with
//! [`optimize_function`] / [`optimize_module`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use impact_il::{BlockId, Function, Module};
use impact_vm::{panic_message, FaultPlan};

mod cse;
mod fold;
mod jump;
mod layout;
mod peephole;

pub use cse::local_cse;
pub use fold::{constant_fold, copy_propagation};
pub use jump::jump_optimization;
pub use layout::reorder_blocks;
pub use peephole::strength_reduce;

/// Hard cap on optimizer fixpoint iterations (both the per-function pass
/// pipeline and pass-internal loops). Passes that keep reporting changes
/// past this many rounds are oscillating — e.g. two rewrites that undo
/// each other — and the loop must stop and report rather than spin.
pub const MAX_FIXPOINT_ROUNDS: usize = 8;

/// Removes instructions whose results are never used and that have no side
/// effects. Iterates to a fixpoint within the function (bounded by
/// [`MAX_FIXPOINT_ROUNDS`] so a buggy rewrite cannot spin forever).
///
/// Returns the number of instructions removed.
pub fn dead_code_elimination(func: &mut Function) -> usize {
    let mut removed_total = 0;
    for _ in 0..MAX_FIXPOINT_ROUNDS {
        let mut used = vec![false; func.num_regs as usize];
        for b in &func.blocks {
            for inst in &b.insts {
                inst.for_each_use(|r| used[r.index()] = true);
            }
            b.term.for_each_use(|r| used[r.index()] = true);
        }
        let mut removed = 0;
        for b in &mut func.blocks {
            b.insts.retain(|inst| {
                if inst.has_side_effect() {
                    return true;
                }
                match inst.def() {
                    Some(d) if !used[d.index()] => {
                        removed += 1;
                        false
                    }
                    _ => true,
                }
            });
        }
        removed_total += removed;
        if removed == 0 {
            break;
        }
    }
    removed_total
}

/// Runs constant folding, local CSE, copy propagation, dead code
/// elimination, and jump optimization on one function until nothing
/// changes (bounded at [`MAX_FIXPOINT_ROUNDS`] as a safety valve; use
/// [`optimize_function_isolated`] to also *observe* non-convergence).
///
/// Returns the total number of changes.
pub fn optimize_function(func: &mut Function) -> usize {
    let mut total = 0;
    for _ in 0..MAX_FIXPOINT_ROUNDS {
        // Convergence is structural (the IR stopped changing), not count
        // based: some passes report work they re-derive every round even
        // at a stable point, and trusting their counts would spin the
        // loop to the cap on already-converged functions.
        let before = func.clone();
        let mut changed = 0;
        changed += constant_fold(func);
        changed += strength_reduce(func);
        changed += local_cse(func);
        changed += copy_propagation(func);
        changed += dead_code_elimination(func);
        changed += jump_optimization(func);
        total += changed;
        if changed == 0 || *func == before {
            break;
        }
    }
    total
}

/// Optimizes every function of a module. Returns the total change count.
pub fn optimize_module(module: &mut Module) -> usize {
    let mut total = 0;
    for f in &mut module.functions {
        total += optimize_function(f);
    }
    total
}

/// One optimization pass skipped by the isolation layer of
/// [`optimize_function_isolated`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SkippedPass {
    /// The function the pass was skipped for.
    pub func: String,
    /// Name of the skipped pass.
    pub pass: &'static str,
    /// The panic message (or injected-fault note) that caused the skip.
    pub reason: String,
}

/// Diagnosis of an optimizer fixpoint loop that hit
/// [`MAX_FIXPOINT_ROUNDS`] while passes were still reporting changes —
/// a pass oscillation. The per-pass change counts of the final round
/// identify which rewrites are fighting each other.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FixpointDiagnostic {
    /// The function whose pipeline did not converge.
    pub func: String,
    /// Rounds executed before the cap stopped the loop.
    pub rounds: usize,
    /// `(pass name, changes it reported in the final round)`, for every
    /// pass that was still changing the function.
    pub last_round: Vec<(&'static str, usize)>,
}

impl std::fmt::Display for FixpointDiagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let passes = self
            .last_round
            .iter()
            .map(|(name, n)| format!("{name}={n}"))
            .collect::<Vec<_>>()
            .join(", ");
        write!(
            f,
            "fixpoint not reached after {} rounds in `{}`; still changing: {passes}",
            self.rounds, self.func
        )
    }
}

/// The fixpoint pass pipeline of [`optimize_function`], named for the
/// isolation layer's incident reports.
type PassFn = fn(&mut Function) -> usize;

const PASSES: [(&str, PassFn); 6] = [
    ("constant-fold", constant_fold),
    ("strength-reduce", strength_reduce),
    ("local-cse", local_cse),
    ("copy-propagation", copy_propagation),
    ("dead-code-elimination", dead_code_elimination),
    ("jump-optimization", jump_optimization),
];

/// Telemetry span name per pass (static so a disabled handle costs no
/// allocation); index-aligned with [`PASSES`].
const SPAN_NAMES: [&str; 6] = [
    "opt:constant-fold",
    "opt:strength-reduce",
    "opt:local-cse",
    "opt:copy-propagation",
    "opt:dead-code-elimination",
    "opt:jump-optimization",
];

/// Like [`optimize_function`], but each pass runs isolated: it operates
/// on a scratch clone of the function inside `catch_unwind`, so a
/// panicking pass is discarded (the function keeps its pre-pass body)
/// and that pass is disabled for this function's remaining rounds
/// instead of taking the compilation down.
///
/// The `opt:pass` fault point deterministically forces the Nth pass
/// invocation to panic, and `opt:fixpoint` forces the Nth function's
/// pipeline to report non-convergence, exercising both recovery paths.
///
/// Returns the total change count, one [`SkippedPass`] per disabled
/// pass, and a [`FixpointDiagnostic`] when the round cap was reached
/// while passes were still reporting changes (an oscillation — the
/// function is left in its last, still-verified state rather than
/// looping forever).
pub fn optimize_function_isolated(
    func: &mut Function,
    fault: &FaultPlan,
) -> (usize, Vec<SkippedPass>, Option<FixpointDiagnostic>) {
    optimize_function_observed(func, fault, &impact_obs::Telemetry::disabled())
}

/// [`optimize_function_isolated`] with pipeline telemetry: each pass
/// invocation is recorded as an `opt:<pass>` span and its change count
/// accumulated into the `opt:changes` counter. With a disabled handle
/// this is exactly [`optimize_function_isolated`].
pub fn optimize_function_observed(
    func: &mut Function,
    fault: &FaultPlan,
    obs: &impact_obs::Telemetry,
) -> (usize, Vec<SkippedPass>, Option<FixpointDiagnostic>) {
    let mut total = 0;
    let mut skipped = Vec::new();
    let mut disabled = [false; PASSES.len()];
    // When `opt:fixpoint` fires for this function, the loop behaves as if
    // every round kept changing: it runs to the cap and reports.
    let force_oscillation = fault.should_fail("opt:fixpoint");
    let mut rounds = 0;
    let mut last_round: Vec<(&'static str, usize)> = Vec::new();
    let mut converged = false;
    for _ in 0..MAX_FIXPOINT_ROUNDS {
        rounds += 1;
        let before = func.clone();
        let mut changed = 0;
        last_round.clear();
        for (i, (name, pass)) in PASSES.iter().enumerate() {
            if disabled[i] {
                continue;
            }
            let _pass_span = obs.span(SPAN_NAMES[i]);
            let inject = fault.should_fail("opt:pass");
            let mut scratch = func.clone();
            // The process-global panic hook is left alone: swapping it
            // here would race with other threads optimizing. The
            // injected panic unwinds without calling the hook; a real
            // pass panic reports through whatever hook is installed.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if inject {
                    std::panic::resume_unwind(Box::new(
                        "fault injection forced an optimizer pass panic",
                    ));
                }
                pass(&mut scratch)
            }));
            match outcome {
                Ok(n) => {
                    *func = scratch;
                    changed += n;
                    if n > 0 || (force_oscillation && rounds == MAX_FIXPOINT_ROUNDS) {
                        last_round.push((name, n));
                    }
                }
                Err(payload) => {
                    disabled[i] = true;
                    skipped.push(SkippedPass {
                        func: func.name.clone(),
                        pass: name,
                        reason: panic_message(payload.as_ref()),
                    });
                }
            }
        }
        total += changed;
        // Structural convergence check, as in [`optimize_function`]:
        // pass change counts over-report at stable points, so the loop
        // compares the IR itself round over round.
        if (changed == 0 || *func == before) && !force_oscillation {
            converged = true;
            break;
        }
    }
    let fixpoint = if converged {
        None
    } else {
        Some(FixpointDiagnostic {
            func: func.name.clone(),
            rounds,
            last_round: last_round.clone(),
        })
    };
    if obs.is_enabled() {
        obs.count("opt:changes", total as u64);
        obs.count("opt:functions", 1);
    }
    (total, skipped, fixpoint)
}

/// Like [`optimize_module`], but with per-pass isolation and fixpoint
/// oscillation detection (see [`optimize_function_isolated`]).
pub fn optimize_module_isolated(
    module: &mut Module,
    fault: &FaultPlan,
) -> (usize, Vec<SkippedPass>, Vec<FixpointDiagnostic>) {
    optimize_module_observed(module, fault, &impact_obs::Telemetry::disabled())
}

/// [`optimize_module_isolated`] with pipeline telemetry (see
/// [`optimize_function_observed`]).
pub fn optimize_module_observed(
    module: &mut Module,
    fault: &FaultPlan,
    obs: &impact_obs::Telemetry,
) -> (usize, Vec<SkippedPass>, Vec<FixpointDiagnostic>) {
    let mut total = 0;
    let mut skipped = Vec::new();
    let mut fixpoints = Vec::new();
    for f in &mut module.functions {
        let (n, s, fx) = optimize_function_observed(f, fault, obs);
        total += n;
        skipped.extend(s);
        fixpoints.extend(fx);
    }
    (total, skipped, fixpoints)
}

/// Builds predecessor lists for a function's CFG.
pub(crate) fn predecessors(func: &Function) -> Vec<Vec<BlockId>> {
    let mut preds = vec![Vec::new(); func.blocks.len()];
    for (bi, b) in func.blocks.iter().enumerate() {
        b.term.for_each_successor(|s| {
            preds[s.index()].push(BlockId::from_index(bi));
        });
    }
    preds
}

#[cfg(test)]
mod tests {
    use super::*;
    use impact_cfront::{compile, Source};
    use impact_il::Terminator;
    use impact_vm::{run, VmConfig};

    /// Compiles, optimizes, runs, and checks the observable result is
    /// unchanged.
    fn check_preserves(src: &str) -> (i64, usize) {
        let module = compile(&[Source::new("t.c", src)]).expect("compiles");
        let baseline = run(&module, vec![], vec![], &VmConfig::default())
            .expect("runs")
            .exit_code;
        let mut optimized = module.clone();
        let changes = optimize_module(&mut optimized);
        impact_il::verify_module(&optimized).expect("still verifies");
        let after = run(&optimized, vec![], vec![], &VmConfig::default())
            .expect("still runs")
            .exit_code;
        assert_eq!(baseline, after, "optimization changed behaviour");
        (after, changes)
    }

    #[test]
    fn folding_shrinks_constant_expressions() {
        let module =
            compile(&[Source::new("t.c", "int main() { return (2 + 3) * 4 - 6; }")]).unwrap();
        let mut m = module.clone();
        optimize_module(&mut m);
        assert!(m.total_size() < module.total_size());
        let out = run(&m, vec![], vec![], &VmConfig::default()).unwrap();
        assert_eq!(out.exit_code, 14);
    }

    #[test]
    fn optimization_preserves_various_programs() {
        check_preserves(
            "int main() { int i; int s; s = 0; for (i = 0; i < 9; i++) s += i * i; return s; }",
        );
        check_preserves(
            "int fib(int n) { return n < 2 ? n : fib(n-1) + fib(n-2); }\n\
             int main() { return fib(10); }",
        );
        check_preserves(
            "int main() { int a[5]; int i; for (i = 0; i < 5; i++) a[i] = i; return a[3]; }",
        );
        check_preserves(
            "unsigned h(unsigned x) { return (x ^ 61) ^ (x >> 16); }\n\
             int main() { return h(12345) & 0xff; }",
        );
    }

    #[test]
    fn dce_removes_unused_computation() {
        let module = compile(&[Source::new(
            "t.c",
            "int main() { int x; x = 5 * 5; return 1; }",
        )])
        .unwrap();
        let mut m = module.clone();
        optimize_module(&mut m);
        assert!(m.total_size() < module.total_size());
    }

    #[test]
    fn dce_keeps_side_effects() {
        let module = compile(&[Source::new(
            "t.c",
            "int g;\n\
             int bump() { g++; return g; }\n\
             int main() { bump(); return g; }",
        )])
        .unwrap();
        let mut m = module.clone();
        optimize_module(&mut m);
        let out = run(&m, vec![], vec![], &VmConfig::default()).unwrap();
        assert_eq!(out.exit_code, 1);
    }

    #[test]
    fn constant_branch_becomes_jump() {
        let module = compile(&[Source::new(
            "t.c",
            "int main() { if (1) return 7; return 8; }",
        )])
        .unwrap();
        let mut m = module.clone();
        optimize_module(&mut m);
        // After folding + jump optimization, no Branch remains in main.
        let main = m.function(m.main_id().unwrap());
        let has_branch = main
            .blocks
            .iter()
            .any(|b| matches!(b.term, Terminator::Branch { .. }));
        assert!(!has_branch);
        let out = run(&m, vec![], vec![], &VmConfig::default()).unwrap();
        assert_eq!(out.exit_code, 7);
    }

    #[test]
    fn division_by_zero_is_not_folded_away() {
        let module = compile(&[Source::new(
            "t.c",
            "int main() { int z; z = 0; return 1 / z; }",
        )])
        .unwrap();
        let mut m = module.clone();
        optimize_module(&mut m);
        // Still traps at runtime.
        assert!(run(&m, vec![], vec![], &VmConfig::default()).is_err());
    }

    #[test]
    fn optimize_reports_zero_changes_at_fixpoint() {
        let module = compile(&[Source::new("t.c", "int main() { return 3; }")]).unwrap();
        let mut m = module.clone();
        optimize_module(&mut m);
        let second = optimize_module(&mut m);
        assert_eq!(second, 0);
    }

    #[test]
    fn isolated_matches_plain_optimization_without_faults() {
        let src = "int fib(int n) { return n < 2 ? n : fib(n-1) + fib(n-2); }\n\
             int main() { return fib(10) + (2 + 3) * 4; }";
        let module = compile(&[Source::new("t.c", src)]).unwrap();
        let mut plain = module.clone();
        let mut isolated = module.clone();
        let n_plain = optimize_module(&mut plain);
        let (n_iso, skipped, fixpoints) =
            optimize_module_isolated(&mut isolated, &FaultPlan::new());
        assert!(skipped.is_empty());
        assert!(fixpoints.is_empty(), "healthy pipelines converge");
        assert_eq!(n_plain, n_iso);
        assert_eq!(
            impact_il::module_to_string(&plain),
            impact_il::module_to_string(&isolated)
        );
    }

    #[test]
    fn injected_pass_panic_is_contained_and_reported() {
        let src = "int sq(int x) { return x * x; }\n\
             int main() { int i; int s; s = 0; for (i = 0; i < 5; i++) s += sq(i); return s; }";
        let module = compile(&[Source::new("t.c", src)]).unwrap();
        let baseline = run(&module, vec![], vec![], &VmConfig::default())
            .unwrap()
            .exit_code;

        let fault = FaultPlan::new();
        fault.arm("opt:pass", 1);
        let mut m = module.clone();
        let (_, skipped, _) = optimize_module_isolated(&mut m, &fault);
        assert_eq!(skipped.len(), 1, "exactly one pass invocation panicked");
        assert_eq!(skipped[0].pass, "constant-fold");
        assert!(skipped[0].reason.contains("fault injection"));

        // The module survived the panic, still verifies, and behaves the
        // same: the panicking pass's scratch clone was discarded.
        impact_il::verify_module(&m).expect("still verifies");
        let after = run(&m, vec![], vec![], &VmConfig::default()).unwrap();
        assert_eq!(after.exit_code, baseline);
    }

    #[test]
    fn forced_fixpoint_oscillation_is_capped_and_diagnosed() {
        let src = "int sq(int x) { return x * x; }\n\
             int main() { int i; int s; s = 0; for (i = 0; i < 5; i++) s += sq(i); return s; }";
        let module = compile(&[Source::new("t.c", src)]).unwrap();
        let baseline = run(&module, vec![], vec![], &VmConfig::default())
            .unwrap()
            .exit_code;

        let fault = FaultPlan::new();
        fault.arm("opt:fixpoint", 1);
        let mut m = module.clone();
        let (_, skipped, fixpoints) = optimize_module_isolated(&mut m, &fault);
        assert!(skipped.is_empty());
        assert_eq!(fixpoints.len(), 1, "exactly one function 'oscillated'");
        let fx = &fixpoints[0];
        assert_eq!(fx.rounds, MAX_FIXPOINT_ROUNDS, "loop ran to the cap");
        assert!(
            !fx.last_round.is_empty(),
            "per-pass change counts are reported"
        );
        let rendered = fx.to_string();
        assert!(rendered.contains("fixpoint not reached"), "{rendered}");
        assert!(rendered.contains("constant-fold"), "{rendered}");

        // Capping instead of looping leaves a valid, equivalent module.
        impact_il::verify_module(&m).expect("still verifies");
        let after = run(&m, vec![], vec![], &VmConfig::default()).unwrap();
        assert_eq!(after.exit_code, baseline);
    }

    #[test]
    fn dce_fixpoint_is_bounded() {
        // A function with a long chain of dead copies needs several DCE
        // rounds; the bounded loop must still remove them all.
        let mut src = String::from("int main() { int a; int b; int c; a = 1; b = a; c = b;");
        src.push_str(" return 0; }");
        let module = compile(&[Source::new("t.c", &src)]).unwrap();
        let mut m = module.clone();
        let main = m.main_id().unwrap();
        let removed = dead_code_elimination(m.function_mut(main));
        assert!(removed > 0);
        let again = dead_code_elimination(m.function_mut(main));
        assert_eq!(again, 0, "bounded DCE still reaches its fixpoint");
    }
}
