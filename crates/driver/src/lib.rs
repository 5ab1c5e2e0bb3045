//! # impact-driver — the `impactc` command-line pipeline
//!
//! Library backing for the `impactc` binary: argument parsing and the
//! compile → profile → inline → report pipeline over real files, so that
//! the whole flow is unit-testable without spawning processes.

// `deny` rather than `forbid`: the one scoped exception is the SIGTERM
// handler installation in `serve::daemon::sig`, which binds the C `signal`
// function directly (no libc crate dependency) under a module-local
// `#[allow(unsafe_code)]`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;

use impact_callgraph::CallGraph;
use impact_cfront::{compile, compile_with, Source};
use impact_il::{module_to_string, verify_module, Module, VerifyError};
use impact_inline::{
    expand_site, inline_module, ExpansionRecord, Incident, IncidentStage, InlineConfig,
    InlineReport, Linearization, SiteDecision,
};
use impact_opt::optimize_module_observed;
use impact_vm::{
    profile_runs, Engine, FaultPlan, IcacheConfig, NamedFile, Profile, RunOutcome, VmConfig,
    VmError,
};

pub mod cache;
mod flags;
pub mod fuzz;
pub mod journal;
pub mod minimize;
pub mod pool;
pub mod report;
pub mod serve;
pub mod supervise;
pub mod telemetry;
#[cfg(unix)]
pub(crate) mod transport;

use report::PipelineFailure;

/// A parsed command line. Each flag sets one field; the flag table in
/// `flags.rs` declares which, and documents every flag.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Options {
    /// Subcommand: `compile`, `run`, `inline`, `callgraph`, `bench`,
    /// `batch`, `fuzz`, `serve`, or `request`.
    pub command: String,
    /// Positional arguments (source paths, units, a benchmark name, or a
    /// socket path).
    pub positional: Vec<String>,
    /// `--input name=path` pairs: files made visible to the program.
    pub inputs: Vec<(String, String)>,
    /// `--arg v` values passed as program arguments.
    pub args: Vec<String>,
    /// `--threshold N`: arc-weight threshold.
    pub threshold: Option<u64>,
    /// `--budget F`: code-growth limit (for `fuzz`, the program count).
    pub budget: Option<f64>,
    /// `--stack-bound N`: recursion stack bound in bytes.
    pub stack_bound: Option<u64>,
    /// `--linearize node-weight|reverse|random:<seed>|source`.
    pub linearization: Option<String>,
    /// `--promote-indirect`: profile-guided indirect-call promotion.
    pub promote_indirect: bool,
    /// `--profile-out PATH`: write the collected profile as text.
    pub profile_out: Option<String>,
    /// `--profile-in PATH`: reuse a written profile instead of profiling.
    pub profile_in: Option<String>,
    /// `--opt`: run the classical optimization passes after expansion.
    pub opt: bool,
    /// `--fault KEY[=N]` specs (repeatable): deterministic fault points.
    pub faults: Vec<String>,
    /// `--quiet`: suppress IL dumps.
    pub quiet: bool,
    /// `--fuel N`: VM instruction budget per run.
    pub fuel: Option<u64>,
    /// `--mem-limit N`: VM heap allocation quota in bytes.
    pub mem_limit: Option<u64>,
    /// `--time-limit-ms N`: per-unit wall-clock deadline.
    pub time_limit_ms: Option<u64>,
    /// `--retries N`: re-attempts for transient failures.
    pub retries: Option<u32>,
    /// `--retry-base-ms N`: base delay of the exponential backoff.
    pub retry_base_ms: Option<u64>,
    /// `--report-dir DIR`: where reports and reproducers are written.
    pub report_dir: Option<String>,
    /// `--fault-unit NAME` (batch): arm the `--fault` specs for one unit.
    pub fault_unit: Option<String>,
    /// `--workloads` (batch): add the bundled benchmarks as units.
    pub workloads: bool,
    /// `--seed N` (fuzz): campaign seed fixing the whole corpus.
    pub seed: Option<u64>,
    /// `--journal PATH`: record campaign progress to a journal.
    pub journal: Option<String>,
    /// `--resume`: continue the campaign recorded in `--journal`.
    pub resume: bool,
    /// `--force-resume`: resume despite a different config fingerprint.
    pub force_resume: bool,
    /// `--explain`: print the inline-decision audit table.
    pub explain: bool,
    /// `--decisions-out PATH`: write the audit trail as JSON.
    pub decisions_out: Option<String>,
    /// `--trace-out PATH`: write Chrome trace-event JSON.
    pub trace_out: Option<String>,
    /// `--metrics-out PATH`: write per-stage counters and timings as JSON.
    pub metrics_out: Option<String>,
    /// `--jobs N`: compile-pool worker count (default: available cores).
    pub jobs: Option<usize>,
    /// `--cache-dir DIR`: content-addressed artifact cache directory.
    pub cache_dir: Option<String>,
    /// `--queue-depth N` (serve): bound of the request queue.
    pub queue_depth: Option<usize>,
    /// `--cache-budget-bytes N`: LRU byte budget of the cache.
    pub cache_budget_bytes: Option<u64>,
    /// `--deadline-ms N` (request): overall client deadline.
    pub deadline_ms: Option<u64>,
    /// `--ping` (request): run the daemon health self-checks.
    pub ping: bool,
    /// `--tcp HOST:PORT` (serve): also listen on TCP.
    pub tcp: Option<String>,
    /// `--max-conns N` (serve): accept-time connection cap.
    pub max_conns: Option<u64>,
    /// `--remote ENDPOINTS` (batch): ship units to a daemon fleet.
    pub remote: Option<String>,
    /// `--engine interp|bytecode`: VM execution engine. The engines are
    /// behaviorally identical, so this enters no digest.
    pub engine: Option<String>,
    /// `--icache`: replay the run through the simulated icache.
    pub icache: bool,
    /// `--stats` (request): live daemon stats as a table.
    pub stats: bool,
    /// `--stats-prom` (request): live daemon stats as Prometheus text.
    pub stats_prom: bool,
    /// `--stats-json` (request): live daemon stats as JSON.
    pub stats_json: bool,
    /// `--flight-recorder N` (serve): flight-recorder ring capacity.
    pub flight_recorder: Option<usize>,
}

impl Options {
    /// Parses `argv[1..]`.
    ///
    /// # Errors
    ///
    /// Returns a usage message on malformed input.
    pub fn parse(argv: &[String]) -> Result<Options, String> {
        let (command, args) = argv.split_first().ok_or_else(usage)?;
        let mut opts = Options {
            command: command.clone(),
            ..Options::default()
        };
        flags::parse_into(&mut opts, args)?;
        Ok(opts)
    }

    /// Builds the fault-injection plan from the `--fault` flags.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed spec.
    pub fn fault_plan(&self) -> Result<FaultPlan, String> {
        self.fault_plan_where(|_| true)
    }

    /// Builds a fault-injection plan from the `--fault` specs `keep`
    /// selects (a fault domain: pipeline, journal or service).
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed spec.
    pub(crate) fn fault_plan_where(&self, keep: fn(&str) -> bool) -> Result<FaultPlan, String> {
        let plan = FaultPlan::new();
        for spec in self.faults.iter().filter(|s| keep(s)) {
            plan.arm_spec(spec)
                .map_err(|e| format!("bad --fault `{spec}`: {e}"))?;
        }
        Ok(plan)
    }

    /// Resolves the `--engine` flag (default: [`Engine::Bytecode`]).
    ///
    /// # Errors
    ///
    /// Returns an actionable message naming the valid engines.
    pub fn engine_choice(&self) -> Result<Engine, String> {
        match self.engine.as_deref() {
            None => Ok(Engine::default()),
            Some(name) => name.parse().map_err(|_| {
                format!(
                    "--engine `{name}` is not a known execution engine; use \
                     `bytecode` (the default register-bytecode engine) or \
                     `interp` (the reference tree-walking interpreter)"
                )
            }),
        }
    }

    /// Builds the VM configuration from the resource-governor flags,
    /// threading `fault` through it. Validates `--engine` and rejects
    /// zero values, and arms the simulated instruction cache for
    /// `--icache`.
    ///
    /// # Errors
    ///
    /// Returns an actionable message for out-of-range values.
    pub fn vm_config(&self, fault: FaultPlan) -> Result<VmConfig, String> {
        flags::check_zero(self)?;
        let mut cfg = VmConfig {
            fault,
            engine: self.engine_choice()?,
            ..VmConfig::default()
        };
        if self.icache {
            cfg.icache = Some(IcacheConfig::small_direct_mapped());
        }
        cfg.max_steps = self.fuel.unwrap_or(cfg.max_steps);
        cfg.mem_limit = self.mem_limit.or(cfg.mem_limit);
        Ok(cfg)
    }

    /// Builds the inline configuration from the flags.
    pub fn inline_config(&self) -> Result<InlineConfig, String> {
        flags::check_zero(self)?;
        let mut cfg = InlineConfig::default();
        cfg.weight_threshold = self.threshold.unwrap_or(cfg.weight_threshold);
        cfg.stack_bound = self.stack_bound.unwrap_or(cfg.stack_bound);
        if let Some(b) = self.budget {
            if !b.is_finite() {
                return Err(format!(
                    "--budget {b} is not a finite number; the code-growth limit \
                     must be a multiplier such as 1.5"
                ));
            }
            if b < 1.0 {
                return Err(format!(
                    "--budget {b} is below 1.0, which would forbid the original \
                     program itself; use a growth multiplier >= 1.0 (default 2.0)"
                ));
            }
            cfg.code_growth_limit = b;
        }
        cfg.fault = self.fault_plan()?;
        cfg.promote_indirect = self.promote_indirect;
        if let Some(l) = &self.linearization {
            cfg.linearization = match l.as_str() {
                "node-weight" => Linearization::NodeWeight,
                "reverse" => Linearization::ReverseNodeWeight,
                "source" => Linearization::SourceOrder,
                other => match other.strip_prefix("random:") {
                    Some(seed) => Linearization::Random(
                        seed.parse().map_err(|_| "bad random seed".to_string())?,
                    ),
                    None => return Err(format!("unknown linearization `{other}`")),
                },
            };
        }
        Ok(cfg)
    }

    /// Validates the service flags: zero values, and the rules that span
    /// flags or parse a value's shape (`--tcp`, endpoint lists, the daemon
    /// interrogations).
    pub(crate) fn check_service(&self) -> Result<(), String> {
        flags::check_zero(self)?;
        if self.cache_budget_bytes.is_some() && self.cache_dir.is_none() {
            return Err(
                "--cache-budget-bytes needs --cache-dir (there is no cache to \
                 bound without one)"
                    .to_string(),
            );
        }
        if let Some(addr) = &self.tcp {
            let ok = addr.rsplit_once(':').is_some_and(|(host, port)| {
                !host.is_empty() && !host.contains('/') && port.parse::<u16>().is_ok_and(|p| p > 0)
            });
            if !ok {
                return Err(format!(
                    "--tcp needs HOST:PORT with a nonzero port (got `{addr}`)"
                ));
            }
        }
        if let Some(list) = &self.remote {
            if list.is_empty() || list.split(',').any(str::is_empty) {
                return Err(
                    "--remote needs a non-empty comma-separated endpoint list with no \
                     empty elements"
                        .to_string(),
                );
            }
        }
        // The daemon interrogations: one per request, of one daemon.
        let asked: Vec<&str> = [
            (self.ping, "--ping"),
            (self.stats, "--stats"),
            (self.stats_prom, "--stats-prom"),
            (self.stats_json, "--stats-json"),
        ]
        .into_iter()
        .filter_map(|(on, name)| on.then_some(name))
        .collect();
        if asked.len() > 1 {
            return Err(format!(
                "{} are different daemon interrogations; pick one of --ping, \
                 --stats, --stats-prom, --stats-json per request",
                asked.join(" and ")
            ));
        }
        if let Some(flag) = asked.first() {
            if self.positional.first().is_some_and(|p| p.contains(',')) {
                return Err(format!(
                    "{flag} interrogates a single daemon; give one endpoint, not a \
                     comma-separated list"
                ));
            }
        }
        Ok(())
    }

    /// Validates the service flags ([`Options::validate_flags`] does the
    /// same) and builds the service configuration, resolving the `--jobs`
    /// default: call it only where a pool or daemon is sized.
    ///
    /// # Errors
    ///
    /// Returns an actionable message for out-of-range values.
    pub fn service_config(&self) -> Result<ServiceConfig, String> {
        self.check_service()?;
        let jobs = match self.jobs {
            Some(n) => n,
            None => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        };
        Ok(ServiceConfig {
            jobs,
            queue_depth: self.queue_depth.unwrap_or(DEFAULT_QUEUE_DEPTH),
            cache_dir: self.cache_dir.as_ref().map(std::path::PathBuf::from),
            cache_budget_bytes: self.cache_budget_bytes,
            tcp: self.tcp.clone(),
            max_conns: self.max_conns,
            flight_recorder: self
                .flight_recorder
                .unwrap_or(impact_obs::DEFAULT_FLIGHT_CAPACITY),
        })
    }

    /// Validates every flag in one shot, building the inline and VM
    /// configurations around one shared fault plan — the single
    /// flag-validation path of `inline`, `bench`, `batch`, and `fuzz`.
    ///
    /// # Errors
    ///
    /// Returns the first actionable flag error, exactly as the underlying
    /// validators produce it.
    pub fn validate_flags(&self) -> Result<ValidatedFlags, String> {
        let inline = self.inline_config()?;
        let vm = self.vm_config(inline.fault.clone())?;
        self.check_service()?;
        Ok(ValidatedFlags { inline, vm })
    }
}

/// Default bound of the serve request queue (`--queue-depth`).
pub const DEFAULT_QUEUE_DEPTH: usize = 8;

/// Service-level settings shared by `batch` and `serve`, defaults
/// applied. None of them change pipeline *behavior*, so none enters a
/// digest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Resolved worker count (`--jobs`, default: available cores).
    pub jobs: usize,
    /// Bounded serve queue depth (`--queue-depth`).
    pub queue_depth: usize,
    /// Artifact cache directory (`--cache-dir`), when caching is on.
    pub cache_dir: Option<std::path::PathBuf>,
    /// Cache byte budget (`--cache-budget-bytes`); `None`: no eviction.
    pub cache_budget_bytes: Option<u64>,
    /// TCP listen address (`--tcp HOST:PORT`), beside the Unix socket.
    pub tcp: Option<String>,
    /// Accept-time connection cap (`--max-conns`); `None`: queue only.
    pub max_conns: Option<u64>,
    /// Flight-recorder ring capacity (`--flight-recorder`).
    pub flight_recorder: usize,
}

impl ServiceConfig {
    /// Opens the `--cache-dir` artifact cache, if any, under the
    /// `--cache-budget-bytes` budget and the given `cache:*` fault plan.
    ///
    /// # Errors
    ///
    /// Returns a message naming the directory on I/O failure.
    pub(crate) fn open_cache(
        &self,
        obs: &impact_obs::Telemetry,
        fault: FaultPlan,
    ) -> Result<Option<cache::Cache>, String> {
        let open = |dir| cache::Cache::open_with(dir, obs, self.cache_budget_bytes, fault);
        self.cache_dir.as_deref().map(open).transpose()
    }
}

/// The result of [`Options::validate_flags`]: the pipeline
/// configurations, built from one validation pass and sharing one fault
/// plan.
#[derive(Clone, Debug)]
pub struct ValidatedFlags {
    /// The inline-expander configuration.
    pub inline: InlineConfig,
    /// The VM configuration (resource governor + the same fault plan).
    pub vm: VmConfig,
}

/// The usage text.
pub fn usage() -> String {
    "usage: impactc <command> [options]\n\
     \n\
     commands:\n\
     \x20 compile <files.c...>            compile and print the IL\n\
     \x20 run <files.c...>                compile and execute main()\n\
     \x20 inline <files.c...>             profile, inline-expand, report, re-run\n\
     \x20 callgraph <files.c...>          print the weighted call graph (DOT)\n\
     \x20 bench [name]                    run one bundled benchmark end to end; with no\n\
     \x20                                 name, evaluate the whole suite and write the\n\
     \x20                                 paper-style metrics to BENCH_inline.json\n\
     \x20 batch <dirs|files|bench:N...>   supervised batch compilation: every unit\n\
     \x20                                 runs isolated under the resource governor;\n\
     \x20                                 failures are retried, then quarantined with\n\
     \x20                                 a crash report (exit 0 all ok, 10 partial,\n\
     \x20                                 11 none succeeded)\n\
     \x20 fuzz                            differential oracle fuzzing: generate seeded\n\
     \x20                                 C programs, check behavioral equivalence and\n\
     \x20                                 profile invariants across a config lattice,\n\
     \x20                                 shrink failures into repro files (exit 0\n\
     \x20                                 clean, 12 divergences found)\n\
     \x20 serve <socket>                  persistent compile daemon on a Unix socket\n\
     \x20                                 (and, with --tcp, a TCP port): bounded queue\n\
     \x20                                 with overload shedding, crash-isolated request\n\
     \x20                                 workers, SIGTERM graceful drain (finish\n\
     \x20                                 in-flight work, exit 0)\n\
     \x20 request <endpoints> <files.c..> compile files through a running serve daemon\n\
     \x20                                 and print the pipeline report; a comma-\n\
     \x20                                 separated endpoint list (socket paths and/or\n\
     \x20                                 host:port) fails over with per-endpoint\n\
     \x20                                 circuit breakers\n"
        .to_string()
        + &flags::usage_options()
}

fn read_sources(paths: &[String]) -> Result<Vec<Source>, String> {
    if paths.is_empty() {
        return Err(format!("no source files given\n{}", usage()));
    }
    paths
        .iter()
        .map(|p| {
            std::fs::read_to_string(p)
                .map(|text| Source::new(p.clone(), text))
                .map_err(|e| format!("cannot read `{p}`: {e}"))
        })
        .collect()
}

/// Renders verifier errors the same way on every path: one readable
/// Display line per error.
fn render_verify_errors(errors: &[VerifyError]) -> String {
    errors
        .iter()
        .map(|e| e.to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

fn compile_sources(paths: &[String]) -> Result<Module, String> {
    let sources = read_sources(paths)?;
    let module = compile(&sources).map_err(|e| e.render(&sources))?;
    verify_module(&module).map_err(|es| render_verify_errors(&es))?;
    Ok(module)
}

fn load_inputs(pairs: &[(String, String)]) -> Result<Vec<NamedFile>, String> {
    pairs
        .iter()
        .map(|(name, path)| {
            std::fs::read(path)
                .map(|bytes| NamedFile::new(name.clone(), bytes))
                .map_err(|e| format!("cannot read input `{path}`: {e}"))
        })
        .collect()
}

/// One profiling/benchmark run: named input files plus program arguments.
pub type RunSpec = (Vec<NamedFile>, Vec<String>);

/// A module's run outcomes over the run set: the merged profile and each
/// run's outcome, or the trap that stopped the first failing run.
type Measured = Result<(Profile, Vec<RunOutcome>), VmError>;

/// Whether two measurements show the same observable behavior: each run
/// printed the same stdout and exited with the same code, or both
/// trapped.
fn same_behavior(a: &Measured, b: &Measured) -> bool {
    fn observed(m: &Measured) -> Option<Vec<(&Vec<u8>, i64)>> {
        let (_, outs) = m.as_ref().ok()?;
        Some(outs.iter().map(|o| (&o.stdout, o.exit_code)).collect())
    }
    observed(a) == observed(b)
}

/// Replays a subset of expansion records on a pristine pre-expansion
/// module (plan sites always refer to original-module sites, so any
/// subset replays cleanly in order).
fn replay(module0: &Module, records: &[ExpansionRecord], included: &[bool]) -> Module {
    let mut m = module0.clone();
    for (r, inc) in records.iter().zip(included) {
        if *inc {
            expand_site(&mut m, r.caller, r.site, r.callee);
        }
    }
    m
}

/// The differential safety net: compares the inlined module's observable
/// behavior against the pre-inline module's measurement `target` on the
/// same runs. On divergence, bisects the applied expansions to the
/// smallest offending set, rolls those arcs back (rebuilding the module
/// from the pristine copy), and records incidents — a miscompile is
/// never shipped. Returns the measurement of the module it leaves.
///
/// Promoted sites force the conservative path: promotion rewrites sites
/// the expansion records may reference, so the whole transformation is
/// rolled back instead of bisected.
#[allow(clippy::too_many_arguments)]
fn differential_guard(
    module: &mut Module,
    module0: &Module,
    target: Measured,
    report: &InlineReport,
    eliminate: bool,
    measure: &dyn Fn(&Module) -> Measured,
    incidents: &mut Vec<Incident>,
    out: &mut String,
) -> Measured {
    let records = &report.records;
    let inlined = measure(module);
    // A trapping original program leaves no ground truth to compare
    // against.
    if target.is_err() || same_behavior(&inlined, &target) {
        return inlined;
    }
    let _ = writeln!(
        out,
        "; warning: post-inline behavior diverged from the pre-inline run; bisecting"
    );
    if !report.promoted.is_empty() || records.is_empty() {
        *module = module0.clone();
        incidents.push(Incident {
            stage: IncidentStage::Divergence,
            subject: "whole transformation".to_string(),
            detail: "behavior diverged and the expansion set cannot be bisected; \
                     reverted to the pre-inline module"
                .to_string(),
            rolled_back: true,
        });
        return target;
    }
    // Each subset of arcs is measured at most once; with none included
    // the module is the original, which matches by definition.
    let mut verdicts = std::collections::HashMap::from([(vec![false; records.len()], true)]);
    let mut behaves = |subset: Vec<bool>| {
        *verdicts.entry(subset).or_insert_with_key(|subset| {
            same_behavior(&measure(&replay(module0, records, subset)), &target)
        })
    };
    let mut included = vec![true; records.len()];
    while !behaves(included.clone()) {
        // Smallest prefix of still-included arcs that diverges; its last
        // arc is an offender.
        let active: Vec<usize> = (0..records.len()).filter(|&i| included[i]).collect();
        let prefix = |k| {
            (0..records.len())
                .map(|i| active[..k].contains(&i))
                .collect()
        };
        let (mut lo, mut hi) = (1, active.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if behaves(prefix(mid)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let offender = active[lo - 1];
        included[offender] = false;
        let r = &records[offender];
        incidents.push(Incident {
            stage: IncidentStage::Divergence,
            subject: format!(
                "`{}` -> `{}` (site {})",
                module0.function(r.callee).name,
                module0.function(r.caller).name,
                r.site.0
            ),
            detail: "expansion changed observable behavior; arc rolled back".to_string(),
            rolled_back: true,
        });
    }
    *module = replay(module0, records, &included);
    if eliminate {
        impact_inline::eliminate_unreachable(module);
    }
    let kept = measure(module);
    debug_assert!(same_behavior(&kept, &target));
    kept
}

/// Warns about armed fault points that never fired — a typo'd domain or
/// an out-of-range hit count would otherwise be silently ignored.
fn warn_unfired(out: &mut String, fault: &FaultPlan) {
    for key in fault.unfired() {
        let _ = writeln!(
            out,
            "; warning: fault point `{key}` was armed but never fired; \
             check the spelling and hit count"
        );
    }
}

/// Appends per-incident lines and the `; incidents: N (M rolled back)`
/// summary to the report.
fn render_incidents(out: &mut String, incidents: &[Incident]) {
    for i in incidents {
        let _ = writeln!(out, "; incident: {i}");
    }
    let rolled = incidents.iter().filter(|i| i.rolled_back).count();
    let _ = writeln!(
        out,
        "; incidents: {} ({rolled} rolled back)",
        incidents.len()
    );
}

/// Percent of the `before` dynamic calls that `after` no longer makes.
fn calls_eliminated_pct(before: u64, after: u64) -> f64 {
    100.0 * before.saturating_sub(after) as f64 / before.max(1) as f64
}

/// What one run of the driver pipeline produced; each command renders
/// its own report from it.
struct Compiled {
    /// The module as compiled, before any transformation.
    module0: Module,
    /// The module the pipeline ships, and its run outcomes.
    module: Module,
    last: Measured,
    profile: Profile,
    report: InlineReport,
    incidents: Vec<Incident>,
    fault: FaultPlan,
}

/// The driver pipeline: compile → verify → profile → inline → verify →
/// differential guard → optimize (with `--opt`), appending its warnings
/// to `out`. Every VM run after profiling is a measurement under one
/// config, the default plus `obs`, made at most once per module state.
///
/// The post-inline verification step is the pipeline's one *unrecovered*
/// failure point: a module that fails it has no safe fallback short of
/// abandoning the unit, so it surfaces as a hard `inline:verify-failed`
/// error. The `inline:verify` fault key injects exactly this failure.
fn compile_pipeline(
    sources: &[Source],
    runs: &[RunSpec],
    opts: &Options,
    obs: &impact_obs::Telemetry,
    out: &mut String,
) -> Result<Compiled, PipelineFailure> {
    let bad_flag = |e| PipelineFailure::new("config", "bad-flag", e);
    let flags = opts.validate_flags().map_err(bad_flag)?;
    let (mut cfg, mut vm_cfg) = (flags.inline, flags.vm);
    cfg.obs = obs.clone();
    cfg.audit = telemetry::audit_requested(opts);
    vm_cfg.obs = obs.clone();
    let fault = cfg.fault.clone();
    let mut module = compile_with(sources, obs)
        .map_err(|e| PipelineFailure::new("compile", e.message.clone(), e.render(sources)))?;
    let verified = {
        let _verify_span = obs.span("il:verify");
        verify_module(&module).map_err(|es| render_verify_errors(&es))
    };
    verified.map_err(|e| PipelineFailure::new("verify", "post-compile-verify-failed", e))?;
    let module0 = module.clone();
    let mut incidents: Vec<Incident> = Vec::new();
    // A corrupt `--profile-in` (or the `profile:parse` fault point) and a
    // trapping profiling run both warn and fall back to an unprofiled
    // plan in which every arc carries exactly the threshold weight —
    // threshold-only inlining — instead of aborting the compilation.
    let (profile, profiled) = {
        let _profile_span = obs.span("profile:acquire");
        let (acquired, profiled) = match &opts.profile_in {
            Some(path) => {
                let text = std::fs::read_to_string(path).map_err(|e| {
                    let detail = format!("cannot read profile `{path}`: {e}");
                    PipelineFailure::new("io", "profile-read-failed", detail)
                })?;
                let parsed = if fault.should_fail("profile:parse") {
                    Err("fault injection corrupted the profile read".to_string())
                } else {
                    Profile::from_text(&text).map_err(|e| e.to_string())
                };
                let subject = format!("profile `{path}`");
                let acquired = parsed.map_err(|e| (format!("bad {subject}: {e}"), subject));
                (acquired, None)
            }
            None => {
                let profiled = profile_runs(&module, runs, &vm_cfg);
                let subject = "profiling run".to_string();
                let acquired = profiled.as_ref().map(|(p, _)| p.clone());
                let acquired = acquired.map_err(|e| (format!("{subject} trapped: {e}"), subject));
                (acquired, Some(profiled))
            }
        };
        let profile = acquired.unwrap_or_else(|(detail, subject)| {
            let _ = writeln!(
                out,
                "; warning: {detail}; falling back to unprofiled (threshold-only) inlining"
            );
            incidents.push(Incident {
                stage: IncidentStage::Profile,
                subject,
                detail,
                rolled_back: false,
            });
            Profile::assume_hot(&module0, cfg.weight_threshold)
        });
        (profile, profiled)
    };
    if let Some(path) = &opts.profile_out {
        report::atomic_write_path(std::path::Path::new(path), profile.to_text().as_bytes())
            .map_err(|e| PipelineFailure::new("io", "profile-write-failed", e))?;
    }
    let report = inline_module(&mut module, &profile.averaged(), &cfg);
    incidents.extend(report.incidents.iter().cloned());
    let verified = {
        let _verify_span = obs.span("il:verify");
        if fault.should_fail("inline:verify") {
            Err("fault injection: post-inline verification rejected the module".to_string())
        } else {
            verify_module(&module).map_err(|es| render_verify_errors(&es))
        }
    };
    if let Err(detail) = verified {
        let detail = format!("post-inline verification failed: {detail}");
        let mut f = PipelineFailure::new("inline", "verify-failed", detail);
        f.incidents = incidents.iter().map(|i| i.to_string()).collect();
        return Err(f);
    }
    let measure_cfg = VmConfig {
        obs: obs.clone(),
        ..VmConfig::default()
    };
    let measure = |m: &Module| profile_runs(m, runs, &measure_cfg);
    // The profiling run stands in for the original module's measurement
    // when it ran as a measuring run would: no armed fault, and the
    // default fuel, heap quota and engine. Telemetry and the icache
    // replay observe a run without changing it.
    let as_measured = vm_cfg.fault.is_empty()
        && vm_cfg.max_steps == measure_cfg.max_steps
        && vm_cfg.mem_limit == measure_cfg.mem_limit
        && vm_cfg.engine == measure_cfg.engine;
    let original = match profiled {
        Some(p) if as_measured => p,
        _ => measure(&module0),
    };
    let mut last = differential_guard(
        &mut module,
        &module0,
        original,
        &report,
        cfg.eliminate_unreachable,
        &measure,
        &mut incidents,
        out,
    );
    if opts.opt {
        let pre_opt = module.clone();
        let (_, skipped, fixpoints) = optimize_module_observed(&mut module, &fault, obs);
        for s in skipped {
            incidents.push(Incident {
                stage: IncidentStage::OptPass,
                subject: format!("pass `{}` on `{}`", s.pass, s.func),
                detail: s.reason,
                rolled_back: true,
            });
        }
        for fx in fixpoints {
            incidents.push(Incident {
                stage: IncidentStage::OptFixpoint,
                detail: fx.to_string(),
                subject: format!("optimizer fixpoint in `{}`", fx.func),
                rolled_back: false,
            });
        }
        // The optimizer gets the same never-ship-a-miscompile
        // treatment, but wholesale: verify and re-compare, and
        // revert the whole optimization on any failure.
        let optimized = verify_module(&module).ok().map(|()| measure(&module));
        match optimized {
            Some(m) if same_behavior(&m, &last) => last = m,
            _ => {
                module = pre_opt;
                incidents.push(Incident {
                    stage: IncidentStage::Divergence,
                    subject: "post-inline optimization".to_string(),
                    detail: "optimized module failed verification or diverged; \
                             optimization reverted"
                        .to_string(),
                    rolled_back: true,
                });
            }
        }
    }
    Ok(Compiled {
        module0,
        module,
        profile,
        report,
        incidents,
        last,
        fault,
    })
}

/// The full profile → inline → verify → guard → optimize pipeline over
/// already-loaded sources, with every hard failure classified as a
/// [`PipelineFailure`] so the batch supervisor (and the `inline` command)
/// can make retry/quarantine decisions and match failure signatures.
///
/// # Errors
///
/// Returns the classified failure; `Ok` carries `(exit_code, report)`.
pub fn inline_pipeline(
    sources: &[Source],
    runs: &[RunSpec],
    opts: &Options,
) -> Result<(i32, String), PipelineFailure> {
    let obs = telemetry::handle_for(opts);
    inline_pipeline_observed(sources, runs, opts, &obs).map(|(code, out, _)| (code, out))
}

/// [`inline_pipeline`] with an externally-owned telemetry handle (so a
/// campaign can aggregate across units into one collector) and the
/// inline-decision audit trail in the result. Spans cover every stage:
/// the front end (per-source lex/parse, lower), both verifier runs, every
/// VM run, each inline sub-phase, and each optimization pass.
///
/// # Errors
///
/// Returns the classified failure; `Ok` carries
/// `(exit_code, report, decisions)`.
pub fn inline_pipeline_observed(
    sources: &[Source],
    runs: &[RunSpec],
    opts: &Options,
    obs: &impact_obs::Telemetry,
) -> Result<(i32, String, Vec<SiteDecision>), PipelineFailure> {
    let mut out = String::new();
    let c = compile_pipeline(sources, runs, opts, obs, &mut out)?;
    let (module, report) = (&c.module, &c.report);
    let totals = report.classification.static_totals();
    let _ = writeln!(
        out,
        "; sites: {} total / {} external / {} pointer / {} unsafe / {} safe",
        totals.total(),
        totals.external,
        totals.pointer,
        totals.r#unsafe,
        totals.safe
    );
    // Summary lines reflect the *final* module: the differential
    // guard may have rolled expansions back since the report was
    // built, changing both code size and which functions died.
    let size_after = module.total_size();
    let _ = writeln!(
        out,
        "; expanded {} arcs; code size {} -> {} ({:+.1}%)",
        report.expanded.len(),
        report.size_before,
        size_after,
        if report.size_before == 0 {
            0.0
        } else {
            100.0 * (size_after as f64 - report.size_before as f64) / report.size_before as f64
        }
    );
    let names = c.module0.functions.iter().map(|f| f.name.as_str());
    let removed: Vec<&str> = names.filter(|n| module.func_by_name(n).is_none()).collect();
    if !removed.is_empty() {
        let _ = writeln!(out, "; removed: {}", removed.join(", "));
    }
    if !report.promoted.is_empty() {
        let _ = writeln!(
            out,
            "; promoted {} indirect site(s) to guarded direct calls",
            report.promoted.len()
        );
    }
    match &c.last {
        Ok((after, _)) => {
            let _ = writeln!(
                out,
                "; dynamic calls {} -> {} ({:.1}% eliminated)",
                c.profile.calls,
                after.calls,
                calls_eliminated_pct(c.profile.calls, after.calls)
            );
        }
        Err(e) => {
            let _ = writeln!(out, "; warning: post-inline measurement run trapped: {e}");
        }
    }
    warn_unfired(&mut out, &c.fault);
    render_incidents(&mut out, &c.incidents);
    if opts.explain {
        out.push_str(&telemetry::explain_table(&report.decisions));
    }
    if !opts.quiet {
        out.push_str(&module_to_string(module));
    }
    Ok((0, out, c.report.decisions))
}

/// Executes a parsed command; returns the process exit code and the text
/// to print.
///
/// # Errors
///
/// Returns a human-readable error message.
pub fn execute(opts: &Options) -> Result<(i32, String), String> {
    flags::check_scope(opts)?;
    let mut out = String::new();
    match opts.command.as_str() {
        "compile" => {
            let module = compile_sources(&opts.positional)?;
            let _ = writeln!(
                out,
                "; {} functions, {} IL instructions",
                module.functions.len(),
                module.total_size()
            );
            if !opts.quiet {
                out.push_str(&module_to_string(&module));
            }
            Ok((0, out))
        }
        "run" => {
            let module = compile_sources(&opts.positional)?;
            let inputs = load_inputs(&opts.inputs)?;
            let vm_cfg = opts.vm_config(opts.fault_plan()?)?;
            let result = impact_vm::run(&module, inputs, opts.args.clone(), &vm_cfg)
                .map_err(|e| e.to_string())?;
            if let Some(path) = &opts.profile_out {
                report::atomic_write_path(
                    std::path::Path::new(path),
                    result.profile.to_text().as_bytes(),
                )?;
            }
            out.push_str(&String::from_utf8_lossy(&result.stdout));
            let _ = writeln!(
                out,
                "; exit {} after {} ILs ({} calls)",
                result.exit_code, result.profile.il_executed, result.profile.calls
            );
            if let Some(stats) = &result.icache {
                let _ = writeln!(
                    out,
                    "; icache: {} accesses, {} misses ({:.2}% miss ratio)",
                    stats.accesses,
                    stats.misses,
                    100.0 * stats.miss_ratio()
                );
            }
            warn_unfired(&mut out, &vm_cfg.fault);
            Ok((result.exit_code as i32, out))
        }
        "inline" => {
            let sources = read_sources(&opts.positional)?;
            let inputs = load_inputs(&opts.inputs)?;
            let runs = vec![(inputs, opts.args.clone())];
            let obs = telemetry::handle_for(opts);
            let (code, text, decisions) =
                inline_pipeline_observed(&sources, &runs, opts, &obs).map_err(|f| f.render())?;
            telemetry::write_artifacts(opts, &obs, Some(&decisions))?;
            Ok((code, text))
        }
        "callgraph" => {
            let module = compile_sources(&opts.positional)?;
            let inputs = load_inputs(&opts.inputs)?;
            let runs = vec![(inputs, opts.args.clone())];
            let cfg = VmConfig {
                engine: opts.engine_choice()?,
                ..VmConfig::default()
            };
            let (profile, _) = profile_runs(&module, &runs, &cfg).map_err(|e| e.to_string())?;
            let graph = CallGraph::build(&module, &profile.averaged());
            out.push_str(&graph.to_dot(&module));
            Ok((0, out))
        }
        "bench" => {
            let obs = telemetry::handle_for(opts);
            let Some(name) = opts.positional.first() else {
                let (code, text) = telemetry::run_bench_suite(opts, &obs)?;
                telemetry::write_artifacts(opts, &obs, None)?;
                out.push_str(&text);
                return Ok((code, out));
            };
            let b = impact_workloads::benchmark(name)
                .ok_or_else(|| format!("unknown benchmark `{name}`"))?;
            let runs = b.profile_run_set(4);
            let c = compile_pipeline(&b.sources(), &runs, opts, &obs, &mut out)
                .map_err(|f| f.detail)?;
            let (after, _) = c.last.as_ref().map_err(|e| e.to_string())?;
            let _ = writeln!(
                out,
                "{name}: {} C lines, {} ILs/run, calls {} -> {} ({:.1}% eliminated), code {:+.1}%",
                b.c_lines(),
                c.profile.averaged().il_executed,
                c.profile.calls,
                after.calls,
                calls_eliminated_pct(c.profile.calls, after.calls),
                c.report.code_increase_percent()
            );
            warn_unfired(&mut out, &c.fault);
            if !c.incidents.is_empty() {
                render_incidents(&mut out, &c.incidents);
            }
            telemetry::write_artifacts(opts, &obs, None)?;
            Ok((0, out))
        }
        "batch" => supervise::run_batch(opts),
        "fuzz" => fuzz::run_fuzz(opts),
        "serve" => serve::run_serve(opts),
        "request" => serve::run_request(opts),
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_full_option_set() {
        let o = Options::parse(&strs(&[
            "inline",
            "a.c",
            "b.c",
            "--input",
            "stdin=/tmp/x",
            "--arg",
            "-v",
            "--threshold",
            "5",
            "--budget",
            "1.5",
            "--stack-bound",
            "8192",
            "--linearize",
            "random:9",
            "--quiet",
        ]))
        .unwrap();
        assert_eq!(o.command, "inline");
        assert_eq!(o.positional, strs(&["a.c", "b.c"]));
        assert_eq!(o.inputs, vec![("stdin".to_string(), "/tmp/x".to_string())]);
        assert_eq!(o.args, strs(&["-v"]));
        assert_eq!(o.threshold, Some(5));
        assert_eq!(o.budget, Some(1.5));
        assert_eq!(o.stack_bound, Some(8192));
        assert!(o.quiet);
        let cfg = o.inline_config().unwrap();
        assert_eq!(cfg.weight_threshold, 5);
        assert_eq!(cfg.linearization, Linearization::Random(9));
    }

    #[test]
    fn rejects_unknown_flags_and_commands() {
        assert!(Options::parse(&strs(&["compile", "--bogus"])).is_err());
        let o = Options::parse(&strs(&["teleport"])).unwrap();
        assert!(execute(&o).is_err());
    }

    #[test]
    fn engine_flag_resolves_and_rejects_unknown_names() {
        let o = Options::parse(&strs(&["run", "a.c"])).unwrap();
        assert_eq!(o.engine_choice().unwrap(), Engine::Bytecode);
        let o = Options::parse(&strs(&["run", "a.c", "--engine", "interp"])).unwrap();
        assert_eq!(o.engine_choice().unwrap(), Engine::Interp);
        let o = Options::parse(&strs(&["run", "a.c", "--engine", "bytecode"])).unwrap();
        assert_eq!(o.engine_choice().unwrap(), Engine::Bytecode);
        let o = Options::parse(&strs(&["run", "a.c", "--engine", "turbo"])).unwrap();
        let err = o.engine_choice().unwrap_err();
        assert!(err.contains("not a known execution engine"), "{err}");
        assert!(err.contains("interp") && err.contains("bytecode"), "{err}");
        // vm_config surfaces the same failure.
        assert!(o.vm_config(FaultPlan::new()).is_err());
    }

    #[test]
    fn engine_and_icache_only_apply_to_vm_commands() {
        for args in [
            vec!["compile", "a.c", "--engine", "interp"],
            vec!["compile", "a.c", "--icache"],
            vec!["request", "--engine", "bytecode"],
            vec!["request", "--icache"],
        ] {
            let o = Options::parse(&strs(&args)).unwrap();
            let err = execute(&o).unwrap_err();
            assert!(
                err.contains("only apply to commands that execute code"),
                "{args:?}: {err}"
            );
        }
    }

    #[test]
    fn both_engines_run_and_icache_composes() {
        let dir = std::env::temp_dir().join("impactc-test-engine");
        std::fs::create_dir_all(&dir).unwrap();
        let src = dir.join("e.c");
        std::fs::write(
            &src,
            "int main() { int i; int s; s = 0; for (i = 0; i < 10; i++) s += i; return s; }",
        )
        .unwrap();
        let path = src.to_str().unwrap();

        let mut outs = Vec::new();
        for engine in ["interp", "bytecode"] {
            let o = Options::parse(&strs(&["run", path, "--engine", engine, "--icache"])).unwrap();
            let (code, out) = execute(&o).unwrap();
            assert_eq!(code, 45, "{engine}");
            assert!(out.contains("icache:"), "{engine}: {out}");
            outs.push(out);
        }
        // The simulated stream (and thus the stats line) is identical
        // on both engines.
        assert_eq!(outs[0], outs[1]);
    }

    #[test]
    fn compile_and_run_a_real_file() {
        let dir = std::env::temp_dir().join("impactc-test");
        std::fs::create_dir_all(&dir).unwrap();
        let src = dir.join("t.c");
        std::fs::write(&src, "int main() { return 41 + 1; }").unwrap();

        let o = Options::parse(&strs(&["compile", src.to_str().unwrap()])).unwrap();
        let (code, out) = execute(&o).unwrap();
        assert_eq!(code, 0);
        assert!(out.contains("func"));

        let o = Options::parse(&strs(&["run", src.to_str().unwrap()])).unwrap();
        let (code, out) = execute(&o).unwrap();
        assert_eq!(code, 42);
        assert!(out.contains("exit 42"));
    }

    #[test]
    fn inline_pipeline_over_files() {
        let dir = std::env::temp_dir().join("impactc-test2");
        std::fs::create_dir_all(&dir).unwrap();
        let src = dir.join("hot.c");
        std::fs::write(
            &src,
            "int sq(int x) { return x * x; }\n\
             int main() { int i; int s; s = 0; for (i = 0; i < 50; i++) s += sq(i); return s & 0xff; }",
        )
        .unwrap();
        let o = Options::parse(&strs(&["inline", src.to_str().unwrap(), "--quiet"])).unwrap();
        let (code, out) = execute(&o).unwrap();
        assert_eq!(code, 0);
        assert!(out.contains("expanded 1 arcs"), "{out}");
        assert!(out.contains("100.0% eliminated"), "{out}");
    }

    #[test]
    fn callgraph_emits_dot() {
        let dir = std::env::temp_dir().join("impactc-test3");
        std::fs::create_dir_all(&dir).unwrap();
        let src = dir.join("g.c");
        std::fs::write(
            &src,
            "int f(int x) { return x; } int main() { return f(1); }",
        )
        .unwrap();
        let o = Options::parse(&strs(&["callgraph", src.to_str().unwrap()])).unwrap();
        let (_, out) = execute(&o).unwrap();
        assert!(out.starts_with("digraph"));
        assert!(out.contains("main"));
    }

    #[test]
    fn bench_command_runs_a_suite_member() {
        let o = Options::parse(&strs(&["bench", "wc"])).unwrap();
        let (code, out) = execute(&o).unwrap();
        assert_eq!(code, 0);
        assert!(out.contains("wc:"), "{out}");
        assert!(out.contains("eliminated"), "{out}");
    }
}

#[cfg(test)]
mod profile_flag_tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn profile_round_trips_through_disk() {
        let dir = std::env::temp_dir().join("impactc-prof");
        std::fs::create_dir_all(&dir).unwrap();
        let src = dir.join("p.c");
        std::fs::write(
            &src,
            "int sq(int x) { return x * x; }\n\
             int main() { int i; int s; s = 0; for (i = 0; i < 30; i++) s += sq(i); return s & 0x7f; }",
        )
        .unwrap();
        let prof = dir.join("p.profile");

        // run --profile-out
        let o = Options::parse(&strs(&[
            "run",
            src.to_str().unwrap(),
            "--profile-out",
            prof.to_str().unwrap(),
        ]))
        .unwrap();
        let (_, _) = execute(&o).unwrap();
        let text = std::fs::read_to_string(&prof).unwrap();
        assert!(text.starts_with("impact-profile v1"));

        // inline --profile-in (no re-profiling run needed)
        let o = Options::parse(&strs(&[
            "inline",
            src.to_str().unwrap(),
            "--profile-in",
            prof.to_str().unwrap(),
            "--quiet",
        ]))
        .unwrap();
        let (code, out) = execute(&o).unwrap();
        assert_eq!(code, 0);
        assert!(out.contains("expanded 1 arcs"), "{out}");
    }

    #[test]
    fn promote_indirect_flag_reaches_config() {
        let o = Options::parse(&strs(&["inline", "x.c", "--promote-indirect"])).unwrap();
        assert!(o.inline_config().unwrap().promote_indirect);
    }
}

#[cfg(test)]
mod recovery_tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    const HOT_TWO: &str = "int sq(int x) { return x * x; }\n\
         int cube(int x) { return x * x * x; }\n\
         int main() { int i; int s; s = 0;\n\
           for (i = 0; i < 100; i++) { s += sq(i); s += cube(i); }\n\
           return s & 0xff; }";

    fn write_src(dir: &str, name: &str, text: &str) -> String {
        let dir = std::env::temp_dir().join(dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        path.to_str().unwrap().to_string()
    }

    #[test]
    fn numeric_flag_validation() {
        for bad in [
            vec!["inline", "x.c", "--budget", "NaN"],
            vec!["inline", "x.c", "--budget", "inf"],
            vec!["inline", "x.c", "--budget", "0.5"],
            vec!["inline", "x.c", "--stack-bound", "0"],
        ] {
            let o = Options::parse(&strs(&bad)).unwrap();
            let err = o.inline_config().unwrap_err();
            assert!(
                err.contains("--budget") || err.contains("--stack-bound"),
                "unactionable message: {err}"
            );
        }
        // The boundary value 1.0 is allowed.
        let o = Options::parse(&strs(&["inline", "x.c", "--budget", "1.0"])).unwrap();
        assert_eq!(o.inline_config().unwrap().code_growth_limit, 1.0);
    }

    #[test]
    fn governor_flag_validation() {
        let o = Options::parse(&strs(&["run", "x.c", "--fuel", "0"])).unwrap();
        let err = o.vm_config(FaultPlan::new()).unwrap_err();
        assert!(err.contains("--fuel"), "unactionable message: {err}");
        let o = Options::parse(&strs(&["run", "x.c", "--mem-limit", "0"])).unwrap();
        let err = o.vm_config(FaultPlan::new()).unwrap_err();
        assert!(err.contains("--mem-limit"), "unactionable message: {err}");
        let o = Options::parse(&strs(&[
            "run",
            "x.c",
            "--fuel",
            "500",
            "--mem-limit",
            "4096",
        ]))
        .unwrap();
        let cfg = o.vm_config(FaultPlan::new()).unwrap();
        assert_eq!(cfg.max_steps, 500);
        assert_eq!(cfg.mem_limit, Some(4096));
    }

    #[test]
    fn service_flag_validation() {
        let o = Options::parse(&strs(&["batch", "u.c", "--jobs", "0"])).unwrap();
        let err = o.service_config().unwrap_err();
        assert!(err.contains("--jobs"), "unactionable message: {err}");
        let o = Options::parse(&strs(&["serve", "s.sock", "--queue-depth", "0"])).unwrap();
        let err = o.service_config().unwrap_err();
        assert!(err.contains("--queue-depth"), "unactionable message: {err}");
        let o = Options::parse(&strs(&["batch", "u.c", "--cache-dir", ""])).unwrap();
        let err = o.service_config().unwrap_err();
        assert!(err.contains("--cache-dir"), "unactionable message: {err}");
        // Explicit values round-trip; the default queue bound is applied.
        let o = Options::parse(&strs(&[
            "serve",
            "s.sock",
            "--jobs",
            "4",
            "--cache-dir",
            "/tmp/c",
        ]))
        .unwrap();
        let svc = o.service_config().unwrap();
        assert_eq!(svc.jobs, 4);
        assert_eq!(svc.queue_depth, DEFAULT_QUEUE_DEPTH);
        assert_eq!(
            svc.cache_dir.as_deref(),
            Some(std::path::Path::new("/tmp/c"))
        );
        // validate_flags surfaces the same rejection.
        let o = Options::parse(&strs(&["batch", "u.c", "--jobs", "0"])).unwrap();
        assert!(o.validate_flags().unwrap_err().contains("--jobs"));
    }

    #[test]
    fn cache_budget_flag_validation() {
        // A zero budget would make the cache useless; reject it outright.
        let o = Options::parse(&strs(&[
            "serve",
            "s.sock",
            "--cache-dir",
            "/tmp/c",
            "--cache-budget-bytes",
            "0",
        ]))
        .unwrap();
        let err = o.service_config().unwrap_err();
        assert!(err.contains("--cache-budget-bytes"), "unactionable: {err}");
        // A budget without a cache has nothing to bound.
        let o = Options::parse(&strs(&["serve", "s.sock", "--cache-budget-bytes", "64"])).unwrap();
        let err = o.service_config().unwrap_err();
        assert!(err.contains("--cache-dir"), "unactionable: {err}");
        // A positive budget with a cache dir rides through to the config.
        let o = Options::parse(&strs(&[
            "batch",
            "u.c",
            "--cache-dir",
            "/tmp/c",
            "--cache-budget-bytes",
            "4096",
        ]))
        .unwrap();
        assert_eq!(o.service_config().unwrap().cache_budget_bytes, Some(4096));
    }

    #[test]
    fn deadline_flag_validation() {
        let o = Options::parse(&strs(&["request", "s.sock", "x.c", "--deadline-ms", "0"])).unwrap();
        let err = o.service_config().unwrap_err();
        assert!(err.contains("--deadline-ms"), "unactionable: {err}");
    }

    #[test]
    fn tcp_flag_validation() {
        // Anything that is not HOST:PORT with a nonzero u16 port is
        // rejected — a Unix path here means the operator swapped flags.
        for bad in [
            "7070",
            "host:",
            ":7070",
            "host:0",
            "host:99999",
            "/tmp/d.sock",
        ] {
            let o = Options::parse(&strs(&["serve", "s.sock", "--tcp", bad])).unwrap();
            let err = o.service_config().unwrap_err();
            assert!(err.contains("--tcp"), "`{bad}`: unactionable: {err}");
        }
        let o = Options::parse(&strs(&["serve", "s.sock", "--tcp", "127.0.0.1:7070"])).unwrap();
        assert_eq!(
            o.service_config().unwrap().tcp.as_deref(),
            Some("127.0.0.1:7070")
        );
    }

    #[test]
    fn max_conns_zero_is_rejected() {
        let o = Options::parse(&strs(&["serve", "s.sock", "--max-conns", "0"])).unwrap();
        let err = o.service_config().unwrap_err();
        assert!(err.contains("--max-conns"), "unactionable: {err}");
        let o = Options::parse(&strs(&["serve", "s.sock", "--max-conns", "2"])).unwrap();
        assert_eq!(o.service_config().unwrap().max_conns, Some(2));
    }

    #[test]
    fn remote_endpoint_list_validation() {
        for bad in ["", ",", "a.sock,", ",a.sock", "a.sock,,b.sock"] {
            let o = Options::parse(&strs(&["batch", "u.c", "--remote", bad])).unwrap();
            let err = o.service_config().unwrap_err();
            assert!(err.contains("--remote"), "`{bad}`: unactionable: {err}");
        }
        let o = Options::parse(&strs(&["batch", "u.c", "--remote", "a.sock,host:9000"])).unwrap();
        assert!(o.service_config().is_ok());
    }

    #[test]
    fn ping_rejects_a_multi_endpoint_list() {
        let o = Options::parse(&strs(&["request", "a.sock,b.sock", "--ping"])).unwrap();
        let err = o.service_config().unwrap_err();
        assert!(err.contains("--ping"), "unactionable: {err}");
        let o = Options::parse(&strs(&["request", "a.sock", "--ping"])).unwrap();
        assert!(o.service_config().is_ok());
    }

    #[test]
    fn stats_formats_are_mutually_exclusive() {
        let o = Options::parse(&strs(&["request", "a.sock", "--stats", "--stats-prom"])).unwrap();
        let err = o.service_config().unwrap_err();
        assert!(
            err.contains("--stats") && err.contains("--stats-prom"),
            "unactionable: {err}"
        );
        let o = Options::parse(&strs(&[
            "request",
            "a.sock",
            "--stats-prom",
            "--stats-json",
        ]))
        .unwrap();
        assert!(o.service_config().is_err());
        let o = Options::parse(&strs(&["request", "a.sock", "--stats"])).unwrap();
        assert!(o.service_config().is_ok());
    }

    #[test]
    fn stats_rejects_ping_in_the_same_request() {
        let o = Options::parse(&strs(&["request", "a.sock", "--stats", "--ping"])).unwrap();
        let err = o.service_config().unwrap_err();
        assert!(
            err.contains("--stats") && err.contains("--ping"),
            "unactionable: {err}"
        );
    }

    #[test]
    fn stats_rejects_a_multi_endpoint_list() {
        let o = Options::parse(&strs(&["request", "a.sock,b.sock", "--stats-prom"])).unwrap();
        let err = o.service_config().unwrap_err();
        assert!(err.contains("--stats-prom"), "unactionable: {err}");
        let o = Options::parse(&strs(&["request", "a.sock", "--stats-prom"])).unwrap();
        assert!(o.service_config().is_ok());
    }

    #[test]
    fn flight_recorder_zero_is_rejected() {
        let o = Options::parse(&strs(&["serve", "s.sock", "--flight-recorder", "0"])).unwrap();
        let err = o.service_config().unwrap_err();
        assert!(err.contains("--flight-recorder"), "unactionable: {err}");
        let o = Options::parse(&strs(&["serve", "s.sock", "--flight-recorder", "16"])).unwrap();
        assert_eq!(o.service_config().unwrap().flight_recorder, 16);
        let o = Options::parse(&strs(&["serve", "s.sock"])).unwrap();
        assert_eq!(
            o.service_config().unwrap().flight_recorder,
            impact_obs::DEFAULT_FLIGHT_CAPACITY
        );
    }

    #[test]
    fn observability_flags_are_scoped_to_their_commands() {
        // Stats snapshots are a request-client interrogation...
        for flag in ["--stats", "--stats-prom", "--stats-json"] {
            let o = Options::parse(&strs(&["batch", "u.c", flag])).unwrap();
            let err = execute(&o).unwrap_err();
            assert!(err.contains("--stats"), "{flag}: unactionable: {err}");
        }
        // ...and the flight-recorder ring lives in the daemon.
        let o = Options::parse(&strs(&["request", "s.sock", "--flight-recorder", "8"])).unwrap();
        let err = execute(&o).unwrap_err();
        assert!(err.contains("--flight-recorder"), "unactionable: {err}");
    }

    #[test]
    fn transport_flags_are_scoped_to_their_commands() {
        // --tcp and --max-conns belong to the daemon...
        let o = Options::parse(&strs(&["request", "s.sock", "x.c", "--tcp", "h:1"])).unwrap();
        let err = execute(&o).unwrap_err();
        assert!(err.contains("--tcp"), "unactionable message: {err}");
        let o = Options::parse(&strs(&["batch", "u.c", "--max-conns", "4"])).unwrap();
        let err = execute(&o).unwrap_err();
        assert!(err.contains("--max-conns"), "unactionable message: {err}");
        // ...and --remote to batch.
        let o = Options::parse(&strs(&["request", "s.sock", "x.c", "--remote", "a.sock"])).unwrap();
        let err = execute(&o).unwrap_err();
        assert!(err.contains("--remote"), "unactionable message: {err}");
    }

    #[test]
    fn service_flags_are_scoped_to_service_commands() {
        let o = Options::parse(&strs(&["inline", "x.c", "--jobs", "2"])).unwrap();
        let err = execute(&o).unwrap_err();
        assert!(err.contains("--jobs"), "unactionable message: {err}");
        let o = Options::parse(&strs(&["run", "x.c", "--cache-dir", "/tmp/c"])).unwrap();
        let err = execute(&o).unwrap_err();
        assert!(err.contains("--cache-dir"), "unactionable message: {err}");
        // --queue-depth is serve-only: even batch rejects it.
        let o = Options::parse(&strs(&["batch", "u.c", "--queue-depth", "4"])).unwrap();
        let err = execute(&o).unwrap_err();
        assert!(err.contains("--queue-depth"), "unactionable message: {err}");
        // --cache-budget-bytes is service-only, like --cache-dir.
        let o = Options::parse(&strs(&["run", "x.c", "--cache-budget-bytes", "64"])).unwrap();
        let err = execute(&o).unwrap_err();
        assert!(err.contains("--cache-budget-bytes"), "unactionable: {err}");
        // The client knobs are request-only.
        let o = Options::parse(&strs(&["batch", "u.c", "--deadline-ms", "500"])).unwrap();
        let err = execute(&o).unwrap_err();
        assert!(err.contains("--deadline-ms"), "unactionable message: {err}");
        let o = Options::parse(&strs(&["serve", "s.sock", "--ping"])).unwrap();
        let err = execute(&o).unwrap_err();
        assert!(err.contains("--ping"), "unactionable message: {err}");
        // Retry knobs belong to the two retrying commands only.
        let o = Options::parse(&strs(&["run", "x.c", "--retries", "3"])).unwrap();
        let err = execute(&o).unwrap_err();
        assert!(err.contains("--retries"), "unactionable message: {err}");
        let o = Options::parse(&strs(&["fuzz", "--retry-base-ms", "5"])).unwrap();
        let err = execute(&o).unwrap_err();
        assert!(
            err.contains("--retry-base-ms"),
            "unactionable message: {err}"
        );
    }

    #[test]
    fn fuel_flag_bounds_a_run() {
        let src = write_src(
            "impactc-governor1",
            "spin.c",
            "int main() { int i; int s; s = 0; for (i = 0; i < 100000; i++) s += i; return s & 1; }",
        );
        let o = Options::parse(&strs(&["run", &src, "--fuel", "50"])).unwrap();
        let err = execute(&o).unwrap_err();
        assert!(err.contains("instruction budget"), "{err}");
    }

    #[test]
    fn mem_limit_flag_bounds_a_run() {
        let src = write_src(
            "impactc-governor2",
            "alloc.c",
            "extern long __malloc(long n);\n\
             int main() { long p; p = __malloc(100000); if (p == 0) return 1; return 0; }",
        );
        // Without a quota the allocation succeeds...
        let o = Options::parse(&strs(&["run", &src])).unwrap();
        let (code, _) = execute(&o).unwrap();
        assert_eq!(code, 0);
        // ...and the governor's quota makes the program observe NULL.
        let o = Options::parse(&strs(&["run", &src, "--mem-limit", "1024"])).unwrap();
        let (code, _) = execute(&o).unwrap();
        assert_eq!(code, 1);
    }

    #[test]
    fn bad_fault_specs_are_rejected() {
        let o = Options::parse(&strs(&["inline", "x.c", "--fault", "nocolon"])).unwrap();
        assert!(o.inline_config().unwrap_err().contains("--fault"));
        let o = Options::parse(&strs(&["inline", "x.c", "--fault", "vm:oom=x"])).unwrap();
        assert!(o.fault_plan().is_err());
    }

    #[test]
    fn expand_fault_rolls_back_one_arc_and_exits_zero() {
        let src = write_src("impactc-recover1", "hot.c", HOT_TWO);
        let o = Options::parse(&strs(&[
            "inline",
            &src,
            "--quiet",
            "--fault",
            "expand:verify:1",
        ]))
        .unwrap();
        let (code, out) = execute(&o).unwrap();
        assert_eq!(code, 0);
        assert!(out.contains("; incidents: 1 (1 rolled back)"), "{out}");
        assert!(out.contains("[expand]"), "{out}");
        // The other arc still expanded: half the dynamic calls are gone.
        assert!(out.contains("50.0% eliminated"), "{out}");
    }

    #[test]
    fn corrupt_profile_in_degrades_to_unprofiled_inlining() {
        let src = write_src("impactc-recover2", "hot.c", HOT_TWO);
        let prof = write_src("impactc-recover2", "bad.profile", "not a profile at all");
        let o = Options::parse(&strs(&["inline", &src, "--profile-in", &prof, "--quiet"])).unwrap();
        let (code, out) = execute(&o).unwrap();
        assert_eq!(code, 0);
        assert!(out.contains("warning"), "{out}");
        assert!(out.contains("falling back to unprofiled"), "{out}");
        assert!(out.contains("[profile]"), "{out}");
        // Threshold-only inlining still expands the hot arcs.
        assert!(out.contains("expanded 2 arcs"), "{out}");
    }

    #[test]
    fn profile_parse_fault_degrades_a_good_profile() {
        let src = write_src("impactc-recover3", "hot.c", HOT_TWO);
        let prof = std::env::temp_dir()
            .join("impactc-recover3")
            .join("good.profile");
        let o = Options::parse(&strs(&[
            "run",
            &src,
            "--profile-out",
            prof.to_str().unwrap(),
        ]))
        .unwrap();
        execute(&o).unwrap();

        let o = Options::parse(&strs(&[
            "inline",
            &src,
            "--profile-in",
            prof.to_str().unwrap(),
            "--quiet",
            "--fault",
            "profile:parse",
        ]))
        .unwrap();
        let (code, out) = execute(&o).unwrap();
        assert_eq!(code, 0);
        assert!(
            out.contains("fault injection corrupted the profile read"),
            "{out}"
        );
        assert!(out.contains("; incidents: 1 (0 rolled back)"), "{out}");
    }

    #[test]
    fn trapping_profile_run_degrades_instead_of_erroring() {
        let src = write_src(
            "impactc-recover4",
            "trap.c",
            "int sq(int x) { return x * x; }\n\
             int main() { int z; z = 0; return sq(3) / z; }",
        );
        let o = Options::parse(&strs(&["inline", &src, "--quiet"])).unwrap();
        let (code, out) = execute(&o).unwrap();
        assert_eq!(code, 0);
        assert!(out.contains("profiling run trapped"), "{out}");
        assert!(out.contains("falling back to unprofiled"), "{out}");
    }

    #[test]
    fn opt_pass_fault_is_isolated_and_reported() {
        let src = write_src("impactc-recover5", "hot.c", HOT_TWO);
        let o = Options::parse(&strs(&[
            "inline",
            &src,
            "--quiet",
            "--opt",
            "--fault",
            "opt:pass:1",
        ]))
        .unwrap();
        let (code, out) = execute(&o).unwrap();
        assert_eq!(code, 0);
        assert!(out.contains("[opt]"), "{out}");
        assert!(out.contains("rolled back)"), "{out}");
    }

    #[test]
    fn differential_net_bisects_a_real_stack_divergence() {
        // Inlining `leaf` (2 KiB frame) into `rec` passes the paper's
        // per-frame stack bound but multiplies the frame across 10 000
        // recursion levels, overflowing the VM's 4 MiB stack — a genuine
        // behavior divergence only the differential net can catch. The
        // bisect must roll back exactly that arc and keep the harmless
        // `leaf` -> `main` expansion.
        let src = write_src(
            "impactc-recover7",
            "deep.c",
            "int leaf(int x) { char a[2048]; a[0] = x; a[x & 1023] = 1; return a[0] + a[x & 1023]; }\n\
             int rec(int n) { if (n <= 0) return 0; return leaf(n) + rec(n - 1); }\n\
             int main() { int i; int s; s = 0;\n\
               for (i = 0; i < 20000; i++) s += leaf(i);\n\
               s += rec(10000);\n\
               return s & 0xff; }",
        );
        let o = Options::parse(&strs(&["inline", &src, "--quiet"])).unwrap();
        let (code, out) = execute(&o).unwrap();
        assert_eq!(code, 0);
        assert!(out.contains("behavior diverged"), "{out}");
        assert!(out.contains("[differential]"), "{out}");
        assert!(
            out.contains("`leaf` -> `rec`"),
            "bisect should name the offending arc: {out}"
        );
        assert!(
            !out.contains("`leaf` -> `main`"),
            "the harmless arc must survive: {out}"
        );
        assert!(out.contains("(1 rolled back)"), "{out}");
    }

    #[test]
    fn clean_run_reports_zero_incidents() {
        let src = write_src("impactc-recover6", "hot.c", HOT_TWO);
        let o = Options::parse(&strs(&["inline", &src, "--quiet", "--opt"])).unwrap();
        let (code, out) = execute(&o).unwrap();
        assert_eq!(code, 0);
        assert!(out.contains("; incidents: 0 (0 rolled back)"), "{out}");
        assert!(out.contains("100.0% eliminated"), "{out}");
    }
}
