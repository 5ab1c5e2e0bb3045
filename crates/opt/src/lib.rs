//! # impact-opt — classical IL optimizations
//!
//! The paper applies *constant folding and jump optimization* before the
//! inline expansion procedure (§4.4) and names copy propagation and dead
//! code elimination as the cleanups that remove parameter-buffering
//! overhead after expansion (§2.4). This crate implements those four
//! passes. Its copy propagation also coalesces a copy whose source is
//! defined once and read only by that copy into the source's definition,
//! so a value an expanded body computes lands in its caller's register
//! with no copy left to execute.
//!
//! All passes are intraprocedural and semantics-preserving; each returns
//! the number of changes it made, nonzero exactly when it changed the
//! function. [`optimize_module_observed`] runs them in one loop per
//! function that stops at the first round reporting no change, undoing
//! and skipping a pass that panics (see [`optimize_function_observed`]);
//! [`optimize_module`] runs the same loop with no fault armed and panics
//! if a pass does.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use impact_il::{Function, Module, Reg};
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
/// pipeline and pass-internal loops). A function the passes still change
/// after this many rounds (two rewrites that undo each other, or one
/// that needs more rounds to settle) is reported rather than left to
/// spin.
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

/// Optimizes every function of a module with no fault armed (see
/// [`optimize_function_observed`]). Returns the total change count.
/// With no fault armed a pass panic is a bug, so this panics too rather
/// than skipping the pass.
pub fn optimize_module(module: &mut Module) -> usize {
    let (n, skipped, _) = optimize_module_isolated(module, &FaultPlan::new());
    assert!(skipped.is_empty(), "optimizer pass panicked: {skipped:?}");
    n
}

/// One optimization pass skipped by the isolation layer of
/// [`optimize_function_observed`].
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
/// [`MAX_FIXPOINT_ROUNDS`] while passes were still changing the
/// function, confirmed by one more round on a copy. The per-pass change
/// counts of the final round identify which rewrites are still at work.
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

type PassFn = fn(&mut Function) -> usize;

/// The fixpoint pass pipeline, in order, each pass under its telemetry
/// span: `opt:` and the name incident reports use. The names are static
/// so a disabled handle costs no allocation.
const PASSES: [(&str, PassFn); 6] = [
    ("opt:constant-fold", constant_fold),
    ("opt:strength-reduce", strength_reduce),
    ("opt:local-cse", local_cse),
    ("opt:copy-propagation", copy_propagation),
    ("opt:dead-code-elimination", dead_code_elimination),
    ("opt:jump-optimization", jump_optimization),
];

/// Runs constant folding, strength reduction, local CSE, copy
/// propagation, dead code elimination and jump optimization on one
/// function, round after round, until a round reports no change (at most
/// [`MAX_FIXPOINT_ROUNDS`] rounds). Each pass invocation is recorded as an `opt:<pass>` span and
/// the change count accumulated into the `opt:changes` counter; with a
/// disabled handle nothing is recorded.
///
/// Each pass runs isolated inside `catch_unwind`. A panicking pass is
/// undone and disabled for this function's remaining rounds instead of
/// taking the compilation down: the function is restored from the copy
/// taken at the start of the round, and the round's earlier enabled
/// passes are replayed on it (without fault checks or spans), which
/// rebuilds exactly the body the pass started from.
///
/// The `opt:pass` fault point deterministically forces the Nth pass
/// invocation to panic, and `opt:fixpoint` forces the Nth function's
/// pipeline to report non-convergence, exercising both recovery paths.
///
/// Returns the total change count, one [`SkippedPass`] per disabled
/// pass, and a [`FixpointDiagnostic`] when the last round still changed
/// the function and one more round on a copy would change it again (the
/// function is left in its last, still-verified state rather than
/// looping forever).
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
    let mut last_round: Vec<(&'static str, usize)> = Vec::new();
    let mut converged = false;
    for round in 1..=MAX_FIXPOINT_ROUNDS {
        // The round's one copy of the function, kept to undo a pass panic.
        let start = func.clone();
        let mut changed = 0;
        last_round.clear();
        for (i, &(span, pass)) in PASSES.iter().enumerate() {
            if disabled[i] {
                continue;
            }
            let _pass_span = obs.span(span);
            let name = &span["opt:".len()..];
            let inject = fault.should_fail("opt:pass");
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
                pass(func)
            }));
            match outcome {
                Ok(n) => {
                    changed += n;
                    if n > 0 || (force_oscillation && round == MAX_FIXPOINT_ROUNDS) {
                        last_round.push((name, n));
                    }
                }
                Err(payload) => {
                    disabled[i] = true;
                    skipped.push(SkippedPass {
                        func: start.name.clone(),
                        pass: name,
                        reason: panic_message(payload.as_ref()),
                    });
                    func.clone_from(&start);
                    replay(func, &disabled[..i]);
                }
            }
        }
        total += changed;
        if changed == 0 && !force_oscillation {
            converged = true;
            break;
        }
    }
    // The last round changed the function, which may have settled it:
    // one more round on a copy that is then thrown away decides whether
    // the cap is diagnosed.
    if !converged && !force_oscillation {
        let mut copy = func.clone();
        converged = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            replay(&mut copy, &disabled)
        }))
        .is_ok_and(|n| n == 0);
    }
    let fixpoint = (!converged).then(|| FixpointDiagnostic {
        func: func.name.clone(),
        rounds: MAX_FIXPOINT_ROUNDS,
        last_round,
    });
    if obs.is_enabled() {
        obs.count("opt:changes", total as u64);
        obs.count("opt:functions", 1);
    }
    (total, skipped, fixpoint)
}

/// Runs the first `disabled.len()` passes of [`PASSES`] once each,
/// skipping the disabled ones, with no fault check and no span. Returns
/// their change count.
fn replay(func: &mut Function, disabled: &[bool]) -> usize {
    PASSES
        .iter()
        .zip(disabled)
        .filter(|&(_, &off)| !off)
        .map(|(&(_, pass), _)| pass(func))
        .sum()
}

/// Optimizes every function of a module with per-pass isolation and
/// fixpoint oscillation detection (see [`optimize_function_observed`]).
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

/// One fact per register for one pass invocation, valid only in the
/// block that recorded it: [`Facts::next_block`] forgets every fact at
/// once by bumping the epoch, so no table is built or cleared per block.
pub(crate) struct Facts<T> {
    table: Vec<(u32, Option<T>)>,
    epoch: u32,
}

impl<T: Copy> Facts<T> {
    pub(crate) fn new(func: &Function) -> Self {
        let table = vec![(0, None); func.num_regs as usize];
        Facts { table, epoch: 0 }
    }

    /// Forgets every fact; called on entering each block.
    pub(crate) fn next_block(&mut self) {
        self.epoch += 1;
    }

    pub(crate) fn get(&self, r: Reg) -> Option<T> {
        let (epoch, fact) = self.table[r.index()];
        fact.filter(|_| epoch == self.epoch)
    }

    /// Whether a fact, even none, was recorded for `r` in this block.
    pub(crate) fn recorded(&self, r: Reg) -> bool {
        self.table[r.index()].0 == self.epoch
    }

    /// Records `r`'s fact, or that it has none.
    pub(crate) fn set(&mut self, r: Reg, fact: Option<T>) {
        self.table[r.index()] = (self.epoch, fact);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impact_cfront::{compile, Source};
    use impact_il::{BinOp, FunctionBuilder, Terminator};
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
        // same: the panicking pass was undone.
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

    #[test]
    fn block_facts_do_not_cross_blocks() {
        // b0: k = 0; c = r0; jump b1
        // b1: x = k + k; y = r1 * k; z = c + r1; return z
        // Inside b0's block each of x, y and z would be rewritten.
        let mut fb = FunctionBuilder::new("t", 2);
        let next = fb.new_block();
        let k = fb.const_(0);
        let c = fb.new_reg();
        fb.mov(c, Reg(0));
        fb.terminate(Terminator::Jump(next));
        fb.switch_to(next);
        fb.bin(BinOp::Add, k, k);
        fb.bin(BinOp::Mul, Reg(1), k);
        let z = fb.bin(BinOp::Add, c, Reg(1));
        fb.terminate(Terminator::Return(Some(z)));
        let f = fb.finish();
        let passes: [(&str, PassFn); 3] = [
            ("constant_fold", constant_fold),
            ("strength_reduce", strength_reduce),
            ("copy_propagation", copy_propagation),
        ];
        for (name, pass) in passes {
            let mut g = f.clone();
            assert_eq!(pass(&mut g), 0, "{name} used a fact of the previous block");
            assert_eq!(g, f, "{name}");
        }
        // The same body as one block is rewritten by each pass.
        let mut one = f.clone();
        let tail = one.blocks.pop().unwrap();
        one.blocks[0].insts.extend(tail.insts);
        one.blocks[0].term = tail.term;
        for (name, pass) in passes {
            assert!(pass(&mut one.clone()) > 0, "{name} within one block");
        }
    }
}
