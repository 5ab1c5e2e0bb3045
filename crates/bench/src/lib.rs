//! # impact-bench — the experiment harness
//!
//! Reruns the paper's evaluation (§4) end to end and regenerates each of
//! its four tables. The pipeline per benchmark follows §4 exactly:
//!
//! 1. compile the benchmark (program + mini library);
//! 2. apply constant folding and jump optimization **before** inline
//!    expansion (§4.4: "constant folding and jump optimization were
//!    applied before the inline expansion procedure, but not after it");
//! 3. profile over the benchmark's representative inputs (Table 1's
//!    `runs` column) and average;
//! 4. classify call sites (Tables 2 and 3);
//! 5. inline-expand and re-profile the same inputs (Table 4).
//!
//! Numbers will not equal the paper's absolute values (different
//! programs, different decade); what reproduces is the *shape* — see
//! `EXPERIMENTS.md` at the repository root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use impact_callgraph::CallGraph;
use impact_il::Module;
use impact_inline::{classify, inline_module, ClassTotals, InlineConfig, InlineReport};
use impact_opt::{constant_fold, jump_optimization};
use impact_vm::{panic_message, profile_runs, Profile, VmConfig, VmError};
use impact_workloads::Benchmark;

/// Everything measured for one benchmark: the union of what Tables 1–4
/// report.
#[derive(Clone, Debug)]
pub struct Evaluation {
    /// Benchmark name.
    pub name: String,
    /// Lines of C (Table 1).
    pub c_lines: usize,
    /// Number of profiled runs (Table 1).
    pub runs: u32,
    /// Input description (Table 1).
    pub input_description: String,
    /// Average dynamic IL instructions per run (Table 1's `IL's`).
    pub avg_ils: u64,
    /// Average dynamic control transfers per run, excluding call/return
    /// (Table 1's `control`).
    pub avg_control: u64,
    /// Static call-site classification (Table 2).
    pub static_totals: ClassTotals,
    /// Dynamic (weighted) classification (Table 3).
    pub dynamic_totals: ClassTotals,
    /// Static code-size increase percent (Table 4's `code inc`).
    pub code_inc_percent: f64,
    /// Dynamic call decrease percent (Table 4's `call dec`).
    pub call_dec_percent: f64,
    /// ILs executed between dynamic calls after inlining (Table 4).
    pub ils_per_call: u64,
    /// Control transfers between dynamic calls after inlining (Table 4).
    pub cts_per_call: u64,
    /// Post-inline dynamic call mix (external, pointer, unsafe, safe)
    /// percentages — the §4.4 prose statistic.
    pub post_mix: [f64; 4],
    /// The inliner's own report (sizes, expansions, removals).
    pub report: InlineReport,
}

/// Harness configuration.
#[derive(Clone, Debug)]
pub struct HarnessConfig {
    /// Cap on the number of runs per benchmark (use `u32::MAX` for the
    /// full paper-shaped set; smaller values keep tests fast).
    pub max_runs: u32,
    /// Inline-expander parameters.
    pub inline: InlineConfig,
    /// VM limits.
    pub vm: VmConfig,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            max_runs: u32::MAX,
            // A 1.2x code budget is the operating point that reproduces
            // the paper's Table 4 trade-off (~17% growth for ~59% call
            // elimination); see the `ablate budget` sweep.
            inline: InlineConfig {
                code_growth_limit: 1.2,
                ..InlineConfig::default()
            },
            vm: VmConfig {
                max_steps: 2_000_000_000,
                ..VmConfig::default()
            },
        }
    }
}

/// Compiles a benchmark and applies the paper's pre-inline optimizations.
///
/// # Errors
///
/// Propagates compile errors (a bug in the bundled sources).
pub fn prepared_module(b: &Benchmark) -> Result<Module, impact_cfront::CompileError> {
    let mut module = b.compile()?;
    for f in &mut module.functions {
        constant_fold(f);
        jump_optimization(f);
    }
    Ok(module)
}

/// Profiles a module over a benchmark's run set; returns the **merged**
/// profile (call [`Profile::averaged`] for per-run weights).
///
/// # Errors
///
/// Fails if any run traps.
pub fn profile_benchmark(
    b: &Benchmark,
    module: &Module,
    cfg: &HarnessConfig,
) -> Result<Profile, VmError> {
    let runs = b.profile_run_set(cfg.max_runs);
    let (merged, _) = profile_runs(module, &runs, &cfg.vm)?;
    Ok(merged)
}

/// Runs the full §4 pipeline on one benchmark.
///
/// # Errors
///
/// Fails on compile errors (reported as a panic — the sources are part of
/// this crate) or VM traps.
pub fn evaluate(b: &Benchmark, cfg: &HarnessConfig) -> Result<Evaluation, VmError> {
    let module = prepared_module(b).expect("bundled benchmark compiles");
    let n_runs = b.runs.min(cfg.max_runs);

    // Baseline profile.
    let merged = profile_benchmark(b, &module, cfg)?;
    let averaged = merged.averaged();

    // Classification on the baseline (Tables 2 and 3).
    let graph = CallGraph::build(&module, &averaged);
    let classification = classify(&module, &graph, &cfg.inline);
    let static_totals = classification.static_totals();
    let dynamic_totals = classification.dynamic_totals();

    // Inline expansion.
    let mut inlined = module.clone();
    let report = inline_module(&mut inlined, &averaged, &cfg.inline);

    // Re-profile the same inputs.
    let merged_after = profile_benchmark(b, &inlined, cfg)?;
    let averaged_after = merged_after.averaged();

    // Post-inline dynamic mix.
    let graph_after = CallGraph::build(&inlined, &averaged_after);
    let classification_after = classify(&inlined, &graph_after, &cfg.inline);
    let mix = classification_after.dynamic_totals();
    let post_mix = [
        mix.percent(impact_inline::SiteClass::External),
        mix.percent(impact_inline::SiteClass::Pointer),
        mix.percent(impact_inline::SiteClass::Unsafe),
        mix.percent(impact_inline::SiteClass::Safe),
    ];

    let call_dec_percent = if merged.calls == 0 {
        0.0
    } else {
        100.0 * merged.calls.saturating_sub(merged_after.calls) as f64 / merged.calls as f64
    };

    Ok(Evaluation {
        name: b.name.to_string(),
        c_lines: b.c_lines(),
        runs: n_runs,
        input_description: b.input_description.to_string(),
        avg_ils: averaged.il_executed,
        avg_control: averaged.control_transfers,
        static_totals,
        dynamic_totals,
        code_inc_percent: report.code_increase_percent(),
        call_dec_percent,
        ils_per_call: averaged_after.ils_per_call(),
        cts_per_call: averaged_after.cts_per_call(),
        post_mix,
        report,
    })
}

/// Evaluates every benchmark of the suite.
///
/// # Errors
///
/// Fails on the first benchmark that traps.
pub fn evaluate_all(cfg: &HarnessConfig) -> Result<Vec<Evaluation>, VmError> {
    impact_workloads::all_benchmarks()
        .iter()
        .map(|b| evaluate(b, cfg))
        .collect()
}

/// Evaluates every benchmark with per-benchmark isolation, the batch
/// supervisor's contract applied to the harness: one benchmark trapping
/// or panicking no longer sinks the whole table. Returns the successful
/// evaluations plus `(name, error)` pairs for the isolated failures.
pub fn evaluate_all_supervised(cfg: &HarnessConfig) -> (Vec<Evaluation>, Vec<(String, String)>) {
    let mut evaluations = Vec::new();
    let mut failures = Vec::new();
    for b in impact_workloads::all_benchmarks() {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| evaluate(&b, cfg)));
        match outcome {
            Ok(Ok(e)) => evaluations.push(e),
            Ok(Err(e)) => failures.push((b.name.to_string(), e.to_string())),
            Err(payload) => {
                let msg = panic_message(&*payload);
                failures.push((b.name.to_string(), format!("panicked: {msg}")));
            }
        }
    }
    (evaluations, failures)
}

/// Mean and (population) standard deviation, as the paper's Table 4
/// AVG/SD rows.
pub fn mean_sd(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// Formats one row of an aligned text table.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    let mut s = String::new();
    for (i, c) in cells.iter().enumerate() {
        let w = widths.get(i).copied().unwrap_or(12);
        if i == 0 {
            s.push_str(&format!("{c:<w$}"));
        } else {
            s.push_str(&format!("{c:>w$}"));
        }
        s.push_str("  ");
    }
    s.trim_end().to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> HarnessConfig {
        HarnessConfig {
            max_runs: 2,
            ..HarnessConfig::default()
        }
    }

    #[test]
    fn evaluate_produces_consistent_numbers_for_grep() {
        let b = impact_workloads::benchmark("grep").unwrap();
        let e = evaluate(&b, &quick_cfg()).unwrap();
        assert_eq!(e.runs, 2);
        assert!(e.avg_ils > 50_000);
        assert!(e.static_totals.total() > 20);
        // Safe sites are a minority of static sites but a majority of
        // dynamic calls (the paper's central observation).
        let static_safe = e.static_totals.percent(impact_inline::SiteClass::Safe);
        let dyn_safe = e.dynamic_totals.percent(impact_inline::SiteClass::Safe);
        assert!(static_safe < 50.0, "static safe {static_safe:.1}%");
        assert!(dyn_safe > 50.0, "dynamic safe {dyn_safe:.1}%");
        assert!(e.call_dec_percent > 90.0);
        // Percentages sum to ~100.
        let sum: f64 = e.post_mix.iter().sum();
        assert!((sum - 100.0).abs() < 0.5, "post mix sums to {sum}");
    }

    #[test]
    fn supervised_evaluation_isolates_failures() {
        let cfg = HarnessConfig {
            max_runs: 1,
            ..HarnessConfig::default()
        };
        let (evaluations, failures) = evaluate_all_supervised(&cfg);
        assert!(
            failures.is_empty(),
            "bundled benchmarks should all evaluate: {failures:?}"
        );
        assert_eq!(evaluations.len(), impact_workloads::all_benchmarks().len());
    }

    #[test]
    fn mean_sd_matches_hand_computation() {
        let (m, s) = mean_sd(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((m - 5.0).abs() < 1e-9);
        assert!((s - 2.0).abs() < 1e-9);
        assert_eq!(mean_sd(&[]), (0.0, 0.0));
    }

    #[test]
    fn row_aligns_columns() {
        let r = row(&["name".into(), "12".into(), "3".into()], &[8, 6, 6]);
        assert!(r.starts_with("name    "));
        assert!(r.ends_with("3"));
    }
}
