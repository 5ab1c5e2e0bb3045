//! Output checking and the layer-by-layer replica of the driver pipeline.
//!
//! The reference for every program output is the `interp` engine running
//! the untransformed cfront module: independent of the inliner, the
//! optimizer and the bytecode engine, which are what later changes touch.

use std::time::Instant;

use impact_cfront::{lex, lower, parse_into, ParseContext, Source};
use impact_driver::{inline_pipeline, Options, RunSpec, ValidatedFlags};
use impact_il::{module_to_string, verify_module, Module};
use impact_inline::inline_module;
use impact_opt::optimize_module_observed;
use impact_vm::{run, Engine, Profile, RunOutcome, VmConfig};

use crate::report::{Outcome, Value};
use crate::trace::Tracer;

/// What a run shows to the outside world.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Observed {
    /// Exit code.
    pub exit: i64,
    /// Bytes written to stdout.
    pub stdout: Vec<u8>,
    /// Files created, with contents.
    pub files: Vec<(String, Vec<u8>)>,
}

impl Observed {
    fn of(o: &RunOutcome) -> Observed {
        Observed {
            exit: o.exit_code,
            stdout: o.stdout.clone(),
            files: o.files.clone(),
        }
    }
}

/// Reference outputs of a module over a run set.
pub struct Reference {
    /// One per run.
    pub outs: Vec<Observed>,
    /// Dynamic IL instructions the reference engine executed.
    pub ils: u64,
    /// Wall time the reference engine took.
    pub secs: f64,
}

/// Runs the untransformed `module` on the reference engine.
pub fn reference(module: &Module, runs: &[RunSpec]) -> Result<Reference, String> {
    let cfg = VmConfig {
        engine: Engine::Interp,
        ..VmConfig::default()
    };
    let t = Instant::now();
    let mut outs = Vec::with_capacity(runs.len());
    let mut ils = 0;
    for (inputs, args) in runs {
        let o = run(module, inputs.clone(), args.clone(), &cfg)
            .map_err(|e| format!("reference run trapped: {e}"))?;
        ils += o.profile.il_executed;
        outs.push(Observed::of(&o));
    }
    Ok(Reference {
        outs,
        ils,
        secs: t.elapsed().as_secs_f64(),
    })
}

/// The merged profile and outputs of running a module over a run set.
pub struct RunSet {
    /// Merged profile (as `impact_vm::profile_runs` returns it).
    pub profile: Profile,
    /// Per-run outputs.
    pub outs: Vec<Observed>,
    /// Per-run wall time in seconds.
    pub secs: Vec<f64>,
}

/// `impact_vm::profile_runs`, one `run` call at a time so that each
/// execution is timed (and traced as `vm.run`).
pub fn run_set(
    module: &Module,
    runs: &[RunSpec],
    cfg: &VmConfig,
    tr: &mut Tracer,
) -> Result<RunSet, String> {
    let mut profile = Profile::for_module(module);
    let mut outs = Vec::with_capacity(runs.len());
    let mut secs = Vec::with_capacity(runs.len());
    for (inputs, args) in runs {
        let t = Instant::now();
        let o = tr
            .time("vm.run", || run(module, inputs.clone(), args.clone(), cfg))
            .map_err(|e| format!("run trapped: {e}"))?;
        secs.push(t.elapsed().as_secs_f64());
        profile.merge(&o.profile);
        outs.push(Observed::of(&o));
    }
    Ok(RunSet {
        profile,
        outs,
        secs,
    })
}

/// Runs `f` inside span `name` with a telemetry handle enabled when the
/// tracer is on, then imports the spans `f` recorded under that span.
pub fn observed<T>(tr: &mut Tracer, name: &str, f: impl FnOnce(&impact_obs::Telemetry) -> T) -> T {
    let obs = if tr.on() {
        impact_obs::Telemetry::enabled()
    } else {
        impact_obs::Telemetry::disabled()
    };
    // The handle's span offsets count from its creation, just before.
    let origin = Instant::now();
    let id = tr.enter(name);
    let r = f(&obs);
    tr.exit();
    tr.import(id, &obs.snapshot().spans, origin);
    r
}

/// Compiles sources through the front end's public phases, as
/// `impact_cfront::compile` does, tracing each phase. Returns the module
/// and the token count.
pub fn front_end(sources: &[Source], tr: &mut Tracer) -> Result<(Module, u64), String> {
    let mut ctx = ParseContext::new();
    let mut tokens = 0;
    for (i, src) in sources.iter().enumerate() {
        let toks = tr
            .time("cfront.lex", || lex(i as u32, &src.text))
            .map_err(|e| e.render(sources))?;
        tokens += toks.len() as u64;
        tr.time("cfront.parse", || parse_into(&mut ctx, &toks))
            .map_err(|e| e.render(sources))?;
    }
    let module = tr
        .time("cfront.lower", || lower(&ctx))
        .map_err(|e| e.render(sources))?;
    Ok((module, tokens))
}

/// Verifies a module, traced as `il.verify`.
pub fn verify(module: &Module, tr: &mut Tracer) -> Result<(), String> {
    tr.time("il.verify", || verify_module(module))
        .map_err(|es| format!("IL verification failed: {:?}", es.first()))
}

/// Everything the replica learned about one unit.
pub struct Replica {
    /// The emitted module.
    pub module: Module,
    /// Tokens the lexer produced.
    pub tokens: u64,
    /// Static size before inlining.
    pub size_before: u64,
    /// Static size after inlining.
    pub size_inlined: u64,
    /// Static size of the emitted module.
    pub size_final: u64,
    /// Arcs the planner chose.
    pub arcs_planned: u64,
    /// Arcs that expanded and stayed (not rolled back).
    pub arcs_kept: u64,
    /// Optimizer change count.
    pub opt_changes: u64,
    /// Dynamic calls in the profiling runs.
    pub calls_before: u64,
    /// Dynamic calls of the emitted code.
    pub calls_final: u64,
    /// Dynamic ILs of the inlined, not yet optimized code (only when
    /// asked for: the pipeline itself never runs that module).
    pub dyn_ils_inlined: u64,
    /// Dynamic ILs of the emitted code.
    pub dyn_ils_final: u64,
    /// VM runs the pipeline's own steps made, and the ILs they executed.
    pub vm_runs: u64,
    /// See `vm_runs`.
    pub vm_ils: u64,
    /// Outputs of the profiling runs (the untransformed module on the
    /// configured engine).
    pub profiled_outs: Vec<Observed>,
    /// Outputs of the inlined module (empty unless asked for).
    pub inlined_outs: Vec<Observed>,
    /// Outputs of the emitted code.
    pub outs: Vec<Observed>,
}

/// Exact totals over compiled units; they must repeat wherever the same
/// units are compiled again.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Sums {
    /// Static size before inlining.
    pub size_before: u64,
    /// Static size after inlining.
    pub size_inlined: u64,
    /// Static size of the emitted code.
    pub size_final: u64,
    /// Arcs planned.
    pub arcs_planned: u64,
    /// Arcs kept.
    pub arcs_kept: u64,
    /// Optimizer changes.
    pub opt_changes: u64,
    /// Dynamic calls while profiling.
    pub calls_before: u64,
    /// Dynamic calls after inlining.
    pub calls_after: u64,
    /// Dynamic ILs of the emitted code.
    pub dyn_ils_final: u64,
    /// VM runs made by the pipeline's steps.
    pub vm_runs: u64,
    /// ILs those runs executed.
    pub vm_ils: u64,
    /// Tokens lexed.
    pub tokens: u64,
}

impl Sums {
    /// Adds one unit's replica.
    pub fn add(&mut self, r: &Replica) {
        self.size_before += r.size_before;
        self.size_inlined += r.size_inlined;
        self.size_final += r.size_final;
        self.arcs_planned += r.arcs_planned;
        self.arcs_kept += r.arcs_kept;
        self.opt_changes += r.opt_changes;
        self.calls_before += r.calls_before;
        self.calls_after += r.calls_final;
        self.dyn_ils_final += r.dyn_ils_final;
        self.vm_runs += r.vm_runs;
        self.vm_ils += r.vm_ils;
        self.tokens += r.tokens;
    }

    /// The inline and opt outcome counts.
    pub fn put_layer_counts(&self, out: &mut Outcome) {
        out.put("inline.arcs_expanded", Value::single(self.arcs_kept as f64));
        out.put(
            "inline.calls_removed_pct",
            Value::single(
                100.0 * self.calls_before.saturating_sub(self.calls_after) as f64
                    / self.calls_before.max(1) as f64,
            ),
        );
        out.put(
            "inline.accept_ratio",
            Value::single(self.arcs_kept as f64 / self.arcs_planned.max(1) as f64),
        );
        out.put("opt.changes", Value::single(self.opt_changes as f64));
        out.put(
            "opt.il_removed",
            Value::single(self.size_inlined as f64 - self.size_final as f64),
        );
    }

    /// Code growth of inlining, in percent of the original size.
    pub fn code_growth_pct(&self) -> f64 {
        100.0 * (self.size_inlined as f64 - self.size_before as f64) / self.size_before as f64
    }
}

/// The compile path of `impact_driver::inline_pipeline --opt` rebuilt
/// from the crates' public functions, so each layer can be timed from
/// outside: front end, verify, profile, inline, verify, optimize, and the
/// final measurement run. The driver's differential guard, its re-checks
/// and its report rendering are left out; that difference is the driver's
/// own overhead. With `inlined_run`, the inlined module is also run (for
/// its dynamic IL count and outputs), which the pipeline does not do.
pub fn replica(
    sources: &[Source],
    runs: &[RunSpec],
    flags: &ValidatedFlags,
    inlined_run: bool,
    tr: &mut Tracer,
) -> Result<Replica, String> {
    let (mut module, tokens) = front_end(sources, tr)?;
    verify(&module, tr)?;
    let profiled = run_set(&module, runs, &flags.vm, tr)?;
    let mut cfg = flags.inline.clone();
    let report = observed(tr, "inline.inline_module", |obs| {
        cfg.obs = obs.clone();
        inline_module(&mut module, &profiled.profile.averaged(), &cfg)
    });
    verify(&module, tr)?;
    let (dyn_ils_inlined, inlined_outs) = if inlined_run {
        let inl = run_set(&module, runs, &VmConfig::default(), &mut Tracer::new(false))?;
        (inl.profile.il_executed, inl.outs)
    } else {
        (0, Vec::new())
    };
    let size_inlined = module.total_size();
    let (opt_changes, _, _) = observed(tr, "opt.optimize_module", |obs| {
        optimize_module_observed(&mut module, &cfg.fault, obs)
    });
    let last = run_set(&module, runs, &VmConfig::default(), tr)?;
    Ok(Replica {
        tokens,
        size_before: report.size_before,
        size_inlined,
        size_final: module.total_size(),
        arcs_planned: report.expanded.len() as u64,
        arcs_kept: report.records.len() as u64,
        opt_changes: opt_changes as u64,
        calls_before: profiled.profile.calls,
        calls_final: last.profile.calls,
        dyn_ils_inlined,
        dyn_ils_final: last.profile.il_executed,
        vm_runs: 2 * runs.len() as u64,
        vm_ils: profiled.profile.il_executed + last.profile.il_executed,
        profiled_outs: profiled.outs,
        inlined_outs,
        outs: last.outs,
        module,
    })
}

fn describe(what: &str, i: usize, g: &Observed, w: &Observed) -> String {
    format!(
        "{what}: run {i} differs from the reference (exit {} vs {}, {} vs {} stdout bytes, {} vs {} files)",
        g.exit,
        w.exit,
        g.stdout.len(),
        w.stdout.len(),
        g.files.len(),
        w.files.len()
    )
}

/// The first difference between outputs and the reference, if any.
pub fn diff(what: &str, got: &[Observed], want: &[Observed]) -> Option<String> {
    if got.len() != want.len() {
        return Some(format!(
            "{what}: {} runs, the reference has {}",
            got.len(),
            want.len()
        ));
    }
    got.iter()
        .zip(want)
        .enumerate()
        .find_map(|(i, (g, w))| (g != w).then(|| describe(what, i, g, w)))
}

/// Compares each run's outputs with the reference, counting every run as
/// attempted and every differing run as failed.
pub fn tally(out: &mut Outcome, what: &str, got: &[Observed], want: &[Observed]) {
    out.attempted += got.len().max(want.len()) as u64;
    if got.len() != want.len() {
        out.fail(diff(what, got, want).unwrap_or_default());
        return;
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if g != w {
            out.fail(describe(what, i, g, w));
        }
    }
}

/// Totals of a checking pass over a set of units.
#[derive(Default)]
pub struct CheckPass {
    /// Exact totals over the units that checked out.
    pub sums: Sums,
    /// Dynamic ILs of those units' inlined, not yet optimized code.
    pub dyn_ils_inlined: u64,
    /// ILs the reference engine executed, and the seconds it took.
    pub interp_ils: u64,
    /// See `interp_ils`.
    pub interp_secs: f64,
}

/// Checks every unit once ([`check_unit`]); `keep` extracts what the
/// timed rounds compare against. A unit that fails the check yields its
/// reason instead, and every later compile of it counts as failed.
pub fn check_units<T>(
    units: &[Vec<Source>],
    runs: &[RunSpec],
    opts: &Options,
    keep: impl Fn(&Checked) -> T,
) -> Result<(CheckPass, Vec<Result<T, String>>), String> {
    let flags = opts.validate_flags()?;
    let mut pass = CheckPass::default();
    let expect = units
        .iter()
        .enumerate()
        .map(|(i, unit)| {
            let c = check_unit(unit, runs, opts, &flags).map_err(|e| format!("unit {i}: {e}"))?;
            pass.sums.add(&c.replica);
            pass.dyn_ils_inlined += c.replica.dyn_ils_inlined;
            pass.interp_ils += c.reference.ils;
            pass.interp_secs += c.reference.secs;
            Ok(keep(&c))
        })
        .collect();
    Ok((pass, expect))
}

/// What checking a unit once established.
pub struct Checked {
    /// The replica's figures for the unit.
    pub replica: Replica,
    /// The reference engine's run of the unit.
    pub reference: Reference,
    /// The driver's report for the unit, ending in its IL dump.
    pub report: String,
    /// Length of that IL dump.
    pub il_len: usize,
}

/// Checks a unit once per run. The reference engine's outputs must match
/// the replica's on every module the pipeline produces, and the driver's
/// own report must describe the replica's module: nothing rolled back,
/// the same arc count and code sizes, and exactly the replica's IL at its
/// end. Incidents that change nothing (an optimizer fixpoint cut off at
/// its round cap) are allowed, since the replica runs the same passes.
pub fn check_unit(
    sources: &[Source],
    runs: &[RunSpec],
    opts: &Options,
    flags: &ValidatedFlags,
) -> Result<Checked, String> {
    let module = impact_cfront::compile(sources).map_err(|e| e.render(sources))?;
    let want = reference(&module, runs)?;
    let r = replica(sources, runs, flags, true, &mut Tracer::new(false))?;
    for (what, got) in [
        ("profiled", &r.profiled_outs),
        ("inlined", &r.inlined_outs),
        ("emitted", &r.outs),
    ] {
        if let Some(d) = diff(what, got, &want.outs) {
            return Err(d);
        }
    }
    let (code, report) = inline_pipeline(sources, runs, opts).map_err(|f| f.render())?;
    if code != 0 {
        return Err(format!("the driver exited {code}"));
    }
    let rolled_back = report
        .lines()
        .find(|l| l.starts_with("; incidents: "))
        .is_none_or(|l| !l.ends_with("(0 rolled back)"));
    if rolled_back {
        return Err("the driver rolled a transformation back".to_string());
    }
    let sizes = format!(
        "; expanded {} arcs; code size {} -> {} ",
        r.arcs_planned, r.size_before, r.size_final
    );
    if !report.contains(&sizes) {
        return Err(format!("report lacks `{}`", sizes.trim_end()));
    }
    let il = module_to_string(&r.module);
    if !report.ends_with(&il) {
        return Err("emitted IL differs from the replica's module".to_string());
    }
    Ok(Checked {
        il_len: il.len(),
        replica: r,
        reference: want,
        report,
    })
}
