//! `paper-suite`: the twelve bundled programs through the paper's §4
//! pipeline — compile, pre-inline constant folding and jump optimization,
//! profile over the run set, classify, inline at the 1.2x code budget, and
//! re-profile — plus `optimize_module` on the inlined module and a third
//! run of the same inputs. Nearly all of the time is in the VM, so this is
//! where engine and profiling changes show.

use std::hint::black_box;
use std::time::Instant;

use impact_callgraph::CallGraph;
use impact_driver::RunSpec;
use impact_il::Module;
use impact_inline::{classify, inline_module, InlineConfig};
use impact_opt::{constant_fold, jump_optimization, optimize_module_observed};
use impact_vm::{FaultPlan, VmConfig};
use impact_workloads::Benchmark;

use crate::check::{front_end, observed, reference, run_set, tally, verify, Reference, Sums};
use crate::report::{self, exact, Outcome, RoundTime, Value};
use crate::trace::{self, Tracer};
use crate::{measure, peak_rss_mb, timed_setup, Ctx};

/// Runs per program per round: the first four of each Table-1 run set.
pub const RUNS_PER_PROGRAM: u32 = 4;

/// The input generators size an input by `run mod k` for k up to 10, so
/// shifting the run index by a multiple of lcm(2..=10) = 2520 keeps every
/// run set's shape while the seed changes its contents.
const SHAPE_PERIOD: u64 = 2520;

/// One program and its inputs.
pub struct Program {
    bench: Benchmark,
    runs: Vec<RunSpec>,
}

/// The seeded inputs: for each bundled program, Table-1 run indices
/// shifted by a multiple of [`SHAPE_PERIOD`] chosen by the seed.
pub fn inputs(seed: u64) -> Vec<Program> {
    // Run indices are u32; keep offset + k in range.
    let offset = (seed % (u64::from(u32::MAX) / SHAPE_PERIOD - 1)) * SHAPE_PERIOD;
    impact_workloads::all_benchmarks()
        .into_iter()
        .map(|bench| {
            let runs = (0..bench.runs.min(RUNS_PER_PROGRAM))
                .map(|k| {
                    let r = bench.run_input(offset as u32 + k);
                    (r.inputs, r.args)
                })
                .collect();
            Program { bench, runs }
        })
        .collect()
}

/// Exact counts of one round; they must repeat in every round.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Counts {
    sums: Sums,
    dyn_ils_inlined: u64,
}

/// The §4 operating point: a 1.2x code budget reproduces the paper's
/// Table 4 trade-off.
fn inline_config() -> InlineConfig {
    InlineConfig {
        code_growth_limit: 1.2,
        ..InlineConfig::default()
    }
}

fn compile(b: &Benchmark, tr: &mut Tracer) -> Result<Module, String> {
    if tr.on() {
        Ok(front_end(&b.sources(), tr)?.0)
    } else {
        b.compile().map_err(|e| e.render(&b.sources()))
    }
}

/// One program through the pipeline; every run's output is checked.
fn program(
    p: &Program,
    want: &Reference,
    tr: &mut Tracer,
    out: &mut Outcome,
    c: &mut Counts,
    run_secs: &mut Vec<f64>,
) -> Result<(), String> {
    let name = p.bench.name;
    let vm = VmConfig::default();
    let mut module = compile(&p.bench, tr)?;
    for f in &mut module.functions {
        tr.time("opt.constant_fold", || constant_fold(f));
        tr.time("opt.jump_optimization", || jump_optimization(f));
    }
    let base = run_set(&module, &p.runs, &vm, tr)?;
    tally(out, &format!("{name} (pre-inline)"), &base.outs, &want.outs);
    let averaged = base.profile.averaged();
    let graph = tr.time("callgraph.build", || CallGraph::build(&module, &averaged));
    let cfg = inline_config();
    black_box(tr.time("inline.classify", || classify(&module, &graph, &cfg)));
    let mut inlined = module.clone();
    let report = observed(tr, "inline.inline_module", |obs| {
        let cfg = InlineConfig {
            obs: obs.clone(),
            ..cfg.clone()
        };
        inline_module(&mut inlined, &averaged, &cfg)
    });
    verify(&inlined, tr)?;
    let after = run_set(&inlined, &p.runs, &vm, tr)?;
    tally(out, &format!("{name} (inlined)"), &after.outs, &want.outs);
    let mut optimized = inlined.clone();
    let (changes, _, _) = observed(tr, "opt.optimize_module", |obs| {
        optimize_module_observed(&mut optimized, &FaultPlan::default(), obs)
    });
    verify(&optimized, tr)?;
    let last = run_set(&optimized, &p.runs, &vm, tr)?;
    tally(out, &format!("{name} (optimized)"), &last.outs, &want.outs);

    c.dyn_ils_inlined += after.profile.il_executed;
    let s = &mut c.sums;
    s.dyn_ils_final += last.profile.il_executed;
    s.size_before += report.size_before;
    s.size_inlined += report.size_after;
    s.size_final += optimized.total_size();
    s.arcs_planned += report.expanded.len() as u64;
    s.arcs_kept += report.records.len() as u64;
    s.calls_before += base.profile.calls;
    s.calls_after += after.profile.calls;
    s.opt_changes += changes as u64;
    s.vm_runs += 3 * p.runs.len() as u64;
    s.vm_ils += base.profile.il_executed + after.profile.il_executed + last.profile.il_executed;
    run_secs.extend(base.secs.iter().chain(&after.secs).chain(&last.secs));
    Ok(())
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup = Vec::new();
    let progs = timed_setup(&mut setup, || inputs(ctx.seed));
    let mut refs = Vec::with_capacity(progs.len());
    let (mut interp_ils, mut interp_secs, mut tokens) = (0, 0.0, 0);
    for p in &progs {
        let (m, t) = front_end(&p.bench.sources(), &mut Tracer::new(false))?;
        tokens += t;
        let r = reference(&m, &p.runs)?;
        interp_ils += r.ils;
        interp_secs += r.secs;
        refs.push(r);
    }

    let mut rounds: Vec<Counts> = Vec::new();
    let (mut untraced, mut traced_walls) = (Vec::new(), Vec::new());
    let mut totals = Default::default();
    let mut first_spans = None;
    measure(ctx, |traced| {
        black_box(timed_setup(&mut setup, || inputs(ctx.seed)));
        let mut tr = Tracer::new(traced);
        let mut c = Counts::default();
        let mut secs = Vec::new();
        let t = Instant::now();
        tr.enter("round");
        for (p, want) in progs.iter().zip(&refs) {
            tr.enter(&format!("program.{}", p.bench.name));
            program(p, want, &mut tr, &mut out, &mut c, &mut secs)?;
            tr.exit();
        }
        tr.exit();
        let wall = t.elapsed().as_secs_f64();
        rounds.push(c);
        if traced {
            traced_walls.push(wall);
            let spans = tr.take();
            trace::add_totals(&mut totals, &trace::totals(&spans));
            let inline_cov = report::coverage(&mut out, &spans, "inline.inline_module");
            let opt_cov = report::coverage(&mut out, &spans, "opt.optimize_module");
            if first_spans.is_none() {
                out.notes.push(format!(
                    "sub-phase spans cover {:.1}% of inline_module and {:.1}% of optimize_module",
                    100.0 * inline_cov,
                    100.0 * opt_cov
                ));
                first_spans = Some(spans);
            }
        } else {
            untraced.push(RoundTime {
                wall,
                unit_ms: secs.iter().map(|s| s * 1e3).collect(),
            });
        }
        Ok(())
    })?;

    let first = rounds[0];
    let per_round = |f: fn(&Counts) -> f64| rounds.iter().map(f).collect::<Vec<f64>>();
    if let Some(other) = rounds.iter().find(|c| **c != first) {
        out.problem(format!(
            "determinism: exact counts differ between rounds: {first:?} vs {other:?}"
        ));
    }
    exact(
        &mut out,
        "dyn_ils_inlined",
        &per_round(|c| c.dyn_ils_inlined as f64),
    );
    exact(
        &mut out,
        "dyn_ils_optimized",
        &per_round(|c| c.sums.dyn_ils_final as f64),
    );
    exact(
        &mut out,
        "code_growth_pct",
        &per_round(|c| c.sums.code_growth_pct()),
    );
    let s = first.sums;

    if !ctx.trace {
        out.put("setup_s", Value::median(&setup));
        out.put("peak_rss_mb", Value::single(peak_rss_mb("self")?));
        report::timings(&mut out, &untraced, 1);
    } else {
        let n = traced_walls.len() as f64;
        let programs = progs.len() as f64 * n;
        report::layer_times(&mut out, &totals, programs);
        let vm_secs = report::self_us(&totals, &["vm.run"]) / 1e6;
        out.put("vm.ils_per_s", Value::single(s.vm_ils as f64 * n / vm_secs));
        out.put("vm.runs", Value::single(s.vm_runs as f64));
        out.put(
            "vm.interp_ils_per_s",
            Value::single(interp_ils as f64 / interp_secs),
        );
        let lex_secs = report::self_us(&totals, &["cfront.lex"]) / 1e6;
        out.put(
            "cfront.tokens_per_s",
            Value::single(tokens as f64 * n / lex_secs),
        );
        s.put_layer_counts(&mut out);
        for idle in [
            "driver.pipeline_overhead_us",
            "cache.load_us",
            "cache.store_us",
            "cache.hit_ratio",
            "serve.connect_us",
            "serve.rtt_us",
            "serve.codec_us",
            "serve.busy",
            "serve.service_us",
            "serve.queue_wait_us",
            "serve.outside_worker_us",
            "obs.telemetry_on_pct",
        ] {
            out.put(idle, Value::single(0.0));
        }
        out.notes.push(
            "driver, cache and serve layers do no work here; obs.telemetry_on_pct is measured on compile-corpus"
                .to_string(),
        );
        let untraced_walls: Vec<f64> = untraced.iter().map(|r| r.wall).collect();
        out.put(
            "obs.trace_overhead_pct",
            Value::single(report::overhead_pct(&traced_walls, &untraced_walls)),
        );
        out.trace = first_spans.map(|s| (s, totals));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(seed: u64) -> Vec<RunSpec> {
        inputs(seed).into_iter().flat_map(|p| p.runs).collect()
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(digest(7), digest(7));
        assert_ne!(digest(7), digest(8));
    }

    #[test]
    fn seed_keeps_the_run_set_shape() {
        let shape = |seed| -> Vec<(usize, usize)> {
            inputs(seed)
                .iter()
                .flat_map(|p| p.runs.iter().map(|(f, a)| (f.len(), a.len())))
                .collect()
        };
        assert_eq!(shape(1), shape(123_456_789));
    }
}
