//! Supervised batch compilation: resource governance, retry/quarantine,
//! and minimized crash reports.
//!
//! `impactc batch` runs a set of translation units (loose `.c` files,
//! directories of them, and bundled `bench:<name>` workloads) through the
//! full inline-expansion pipeline — serially by default, or concurrently
//! on the [`crate::pool`] work-stealing pool with `--jobs N`. Each
//! attempt is isolated on a worker thread under the resource governor:
//!
//! - **wall clock** — `--time-limit-ms` bounds every attempt; a worker
//!   that misses the deadline is abandoned (it keeps running detached but
//!   stays bounded by the VM's instruction fuel and the optimizer's
//!   fixpoint cap, so it cannot run forever) and the attempt is recorded
//!   as `governor:deadline-exceeded`;
//! - **instruction fuel** — `--fuel` caps VM steps per program run;
//! - **heap quota** — `--mem-limit` caps `__malloc`'d bytes;
//! - **panic isolation** — a panicking pipeline is caught with
//!   `catch_unwind` and classified as `panic:pipeline-panicked`.
//!
//! Failures are triaged by the taxonomy in [`is_persistent`]: persistent
//! classes quarantine immediately; presumed-transient classes are retried
//! with exponential backoff plus deterministic jitter before quarantine.
//! A quarantined unit never stops the batch — the remaining units still
//! compile and the process exits with the partial-success contract
//! ([`EXIT_ALL_OK`] / [`EXIT_PARTIAL`] / [`EXIT_ALL_FAILED`]).
//!
//! With `--report-dir`, every quarantined unit is persisted as a
//! structured JSON crash report (see [`crate::report`]) carrying a
//! delta-debugged reproducer (see [`crate::minimize`]) that replays the
//! same failure signature under `impactc inline`.
//!
//! **Parallel determinism.** Under `--jobs N` units complete in an
//! arbitrary order, but the summary renders in canonical unit order from
//! an index-addressed record table, and the journal stays a
//! single-writer structure: workers return results over the pool's event
//! channel and only the supervising thread appends. A parallel campaign
//! therefore produces the same stdout and journal-replayable record set
//! as a serial one, and crash→`--resume` keeps its byte-identical
//! contract regardless of worker count.
//!
//! With `--cache-dir`, each unit is probed against the content-addressed
//! artifact cache ([`crate::cache`]) before compiling, and successful
//! compilations are stored back through the atomic publish path.

use std::collections::hash_map::DefaultHasher;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::mpsc;
use std::sync::Once;
use std::time::{Duration, Instant};

use impact_cfront::Source;
use impact_obs::names;

use crate::journal::{campaign_fingerprint, open_for, prepare_report_dir, Event, UnitRecord};
use crate::minimize::{shrink, ShrinkResult};
use crate::pool::{self, PoolEvent};
use crate::report::{write_crash_report, AttemptRecord, CrashReport, PipelineFailure};
use crate::{cache, inline_pipeline_observed, load_inputs, telemetry, usage, Options, RunSpec};

/// Exit code when every unit compiled.
pub const EXIT_ALL_OK: i32 = 0;
/// Exit code when some units were quarantined but at least one succeeded.
pub const EXIT_PARTIAL: i32 = 10;
/// Exit code when no unit succeeded.
pub const EXIT_ALL_FAILED: i32 = 11;

/// Default per-attempt wall-clock deadline (`--time-limit-ms`).
pub const DEFAULT_TIME_LIMIT_MS: u64 = 10_000;
/// Default retry count for presumed-transient failures (`--retries`).
pub const DEFAULT_RETRIES: u32 = 2;
/// Default backoff base delay (`--retry-base-ms`).
pub const DEFAULT_RETRY_BASE_MS: u64 = 25;

/// Cap on minimization candidate evaluations per quarantined unit.
const SHRINK_EVAL_BUDGET: usize = 96;

/// Name (prefix) given to pipeline worker threads, used by the
/// process-wide panic hook to keep expected worker panics off stderr.
/// Pool workers (`supervise-worker-pool<i>`) and serve workers
/// (`supervise-worker-serve<i>`) extend it so the same hook covers them.
pub(crate) const WORKER_THREAD: &str = "supervise-worker";

/// Persistent failure classes are deterministic properties of the unit
/// (bad source, bad flags, missing files): retrying cannot help, so they
/// quarantine immediately. Everything else — inline verification
/// failures, panics, governor trips — is *presumed* transient and earns
/// the retry/backoff treatment before quarantine.
fn is_persistent(stage: &str) -> bool {
    matches!(stage, "io" | "config" | "compile" | "verify")
}

/// One batch unit: a loose source file or a bundled benchmark.
#[derive(Clone, Debug)]
enum UnitKind {
    File(String),
    Bench(impact_workloads::Benchmark),
}

/// A unit with its display name (the name `--fault-unit` matches).
#[derive(Clone, Debug)]
struct Unit {
    name: String,
    kind: UnitKind,
}

/// Expands the positional arguments (plus `--workloads`) into the unit
/// list: directories contribute their `*.c` files in sorted order, plain
/// paths contribute themselves, and `bench:<name>` contributes a bundled
/// benchmark.
///
/// # Errors
///
/// Returns a usage-style message for unknown benchmarks or unreadable
/// directories (a malformed *batch* is an operator error, unlike a
/// malformed *unit*, which is quarantined).
fn enumerate_units(opts: &Options) -> Result<Vec<Unit>, String> {
    let mut units = Vec::new();
    for p in &opts.positional {
        if let Some(name) = p.strip_prefix("bench:") {
            let b = impact_workloads::benchmark(name)
                .ok_or_else(|| format!("unknown benchmark `{name}` in unit `{p}`"))?;
            units.push(Unit {
                name: p.clone(),
                kind: UnitKind::Bench(b),
            });
            continue;
        }
        let path = Path::new(p);
        if path.is_dir() {
            let mut files: Vec<String> = std::fs::read_dir(path)
                .map_err(|e| format!("cannot read directory `{p}`: {e}"))?
                .filter_map(|entry| entry.ok().map(|e| e.path()))
                .filter(|f| f.extension().is_some_and(|x| x == "c"))
                .filter_map(|f| f.to_str().map(str::to_string))
                .collect();
            files.sort();
            for f in files {
                units.push(Unit {
                    name: f.clone(),
                    kind: UnitKind::File(f),
                });
            }
        } else {
            units.push(Unit {
                name: p.clone(),
                kind: UnitKind::File(p.clone()),
            });
        }
    }
    if opts.workloads {
        for name in impact_workloads::benchmark_names() {
            units.push(Unit {
                name: format!("bench:{name}"),
                kind: UnitKind::Bench(
                    impact_workloads::benchmark(name).expect("bundled benchmark exists"),
                ),
            });
        }
    }
    Ok(units)
}

/// The unit list restricted to loose source files, for `batch --remote`:
/// the fleet protocol ships source text, so bundled benchmarks (which
/// carry inputs and program arguments) must run locally.
///
/// # Errors
///
/// Returns a usage-style message for a malformed batch or a bench unit.
pub(crate) fn enumerate_file_units(opts: &Options) -> Result<Vec<String>, String> {
    enumerate_units(opts)?
        .into_iter()
        .map(|u| match u.kind {
            UnitKind::File(path) => Ok(path),
            UnitKind::Bench(_) => Err(format!(
                "remote batch ships source files to the daemons; `{}` is a bundled \
                 benchmark — run bench units locally",
                u.name
            )),
        })
        .collect()
}

/// The per-unit options ([`Options::for_unit`]: IL dumps, per-unit
/// profile I/O, telemetry outputs and journal and service fault specs
/// off), with the remaining `--fault` specs cleared unless `--fault-unit`
/// matches this unit (or no target was named, in which case faults arm
/// everywhere, matching single-unit semantics).
fn unit_options(opts: &Options, unit_name: &str) -> Options {
    let mut o = opts.for_unit();
    if let Some(target) = &opts.fault_unit {
        if target != unit_name {
            o.faults.clear();
        }
    }
    o
}

/// Loads a unit's sources and run set, classifying read failures as
/// persistent `io` errors (which quarantine the unit without retries).
fn materialize(
    unit: &Unit,
    opts: &Options,
) -> Result<(Vec<Source>, Vec<RunSpec>), PipelineFailure> {
    match &unit.kind {
        UnitKind::File(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| {
                PipelineFailure::new(
                    "io",
                    "source-read-failed",
                    format!("cannot read `{path}`: {e}"),
                )
            })?;
            let inputs = load_inputs(&opts.inputs)
                .map_err(|e| PipelineFailure::new("io", "input-read-failed", e))?;
            Ok((
                vec![Source::new(path.clone(), text)],
                vec![(inputs, opts.args.clone())],
            ))
        }
        UnitKind::Bench(b) => Ok((b.sources(), b.profile_run_set(2))),
    }
}

pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Installs (once, process-wide) a panic hook that suppresses the default
/// backtrace spew for supervised worker threads — their panics are
/// *expected*, caught, and classified — while delegating every other
/// thread's panics to the previously installed hook.
pub(crate) fn silence_worker_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            // Prefix match: pool and serve workers extend the base name.
            let supervised = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with(WORKER_THREAD));
            if !supervised {
                prev(info);
            }
        }));
    });
}

/// Runs one pipeline attempt on a worker thread under the wall-clock
/// deadline, recording into `obs` (the campaign's shared collector).
/// Returns the classified result and the attempt's wall time.
pub(crate) fn run_attempt(
    sources: Vec<Source>,
    runs: Vec<RunSpec>,
    opts: Options,
    deadline_ms: u64,
    obs: impact_obs::Telemetry,
) -> (Result<(i32, String), PipelineFailure>, u64) {
    silence_worker_panics();
    let start = Instant::now();
    let (tx, rx) = mpsc::channel();
    let spawned = std::thread::Builder::new()
        .name(WORKER_THREAD.to_string())
        .spawn(move || {
            let r = catch_unwind(AssertUnwindSafe(|| {
                inline_pipeline_observed(&sources, &runs, &opts, &obs)
                    .map(|(code, out, _)| (code, out))
            }))
            .unwrap_or_else(|payload| {
                Err(PipelineFailure::new(
                    "panic",
                    "pipeline-panicked",
                    format!("pipeline panicked: {}", panic_message(payload)),
                ))
            });
            let _ = tx.send(r);
        });
    let result = match spawned {
        Err(e) => Err(PipelineFailure::new(
            "panic",
            "spawn-failed",
            format!("cannot spawn worker thread: {e}"),
        )),
        // The JoinHandle is deliberately dropped: on deadline the worker
        // is abandoned, not joined (threads cannot be killed), and the
        // channel send to the disconnected receiver is simply discarded.
        Ok(_handle) => match rx.recv_timeout(Duration::from_millis(deadline_ms)) {
            Ok(r) => r,
            Err(mpsc::RecvTimeoutError::Timeout) => Err(PipelineFailure::new(
                "governor",
                "deadline-exceeded",
                format!("attempt exceeded the {deadline_ms} ms wall-clock deadline"),
            )),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(PipelineFailure::new(
                "panic",
                "worker-died",
                "worker thread exited without reporting a result".to_string(),
            )),
        },
    };
    (result, start.elapsed().as_millis() as u64)
}

/// Deterministic backoff jitter in `[0, base)`, derived from the unit
/// name and attempt number so reruns of the same batch sleep identically.
/// Shared with the serve client, which jitters on the socket path.
pub(crate) fn jitter_ms(unit: &str, attempt: u32, base: u64) -> u64 {
    if base == 0 {
        return 0;
    }
    let mut h = DefaultHasher::new();
    unit.hash(&mut h);
    attempt.hash(&mut h);
    h.finish() % base
}

/// The outcome of one supervised unit.
struct UnitOutcome {
    attempts: Vec<AttemptRecord>,
    /// Total wall time across every attempt, including the successful
    /// one (backoff sleeps excluded).
    elapsed_ms: u64,
    /// `Ok((exit code, pipeline report))` or
    /// `Err((taxonomy, final failure))`.
    result: Result<(i32, String), (String, PipelineFailure)>,
}

/// Runs one unit to completion: attempt, triage, back off, retry,
/// quarantine. Telemetry records into `obs`, the campaign's shared
/// collector.
fn run_unit(unit: &Unit, opts: &Options, obs: &impact_obs::Telemetry) -> UnitOutcome {
    let unit_opts = unit_options(opts, &unit.name);
    let retries = opts.retries.unwrap_or(DEFAULT_RETRIES);
    let base = opts.retry_base_ms.unwrap_or(DEFAULT_RETRY_BASE_MS);
    let deadline = opts.time_limit_ms.unwrap_or(DEFAULT_TIME_LIMIT_MS);
    let max_attempts = retries.saturating_add(1);
    let mut attempts: Vec<AttemptRecord> = Vec::new();
    let mut elapsed_ms: u64 = 0;
    for attempt in 1..=max_attempts {
        let staged = match materialize(unit, &unit_opts) {
            Ok((sources, runs)) => {
                let (r, wall) =
                    run_attempt(sources, runs, unit_opts.clone(), deadline, obs.clone());
                elapsed_ms += wall;
                r.map_err(|f| (f, wall))
            }
            // materialize() failed before an attempt could start.
            Err(f) => Err((f, 0)),
        };
        let (failure, wall_ms) = match staged {
            Ok(out) => {
                return UnitOutcome {
                    attempts,
                    elapsed_ms,
                    result: Ok(out),
                }
            }
            Err(t) => t,
        };
        let persistent = is_persistent(&failure.stage);
        let last = persistent || attempt == max_attempts;
        let backoff_ms = if last {
            0
        } else {
            (base << (attempt - 1)).saturating_add(jitter_ms(&unit.name, attempt, base))
        };
        attempts.push(AttemptRecord {
            attempt,
            wall_ms,
            signature: failure.signature(),
            detail: failure.detail.clone(),
            backoff_ms,
        });
        if last {
            let taxonomy = if persistent {
                "persistent"
            } else {
                "persistent-after-retries"
            };
            return UnitOutcome {
                attempts,
                elapsed_ms,
                result: Err((taxonomy.to_string(), failure)),
            };
        }
        std::thread::sleep(Duration::from_millis(backoff_ms));
    }
    unreachable!("the loop returns on success and on the last attempt")
}

/// Delta-debugs the unit's source down to a minimal reproducer of the
/// recorded failure signature. Multi-source units (benchmarks) are
/// flattened into one translation unit first; if the flat form does not
/// reproduce, minimization is skipped rather than shipping a reproducer
/// that fails differently. `governor` failures are never minimized: every
/// still-reproducing candidate would cost a full deadline to confirm.
fn minimize_failure(
    unit: &Unit,
    opts: &Options,
    failure: &PipelineFailure,
) -> Option<ShrinkResult> {
    if failure.stage == "governor" {
        return None;
    }
    let unit_opts = unit_options(opts, &unit.name);
    let (sources, runs) = materialize(unit, &unit_opts).ok()?;
    let flat = sources
        .iter()
        .map(|s| s.text.as_str())
        .collect::<Vec<_>>()
        .join("\n");
    let deadline = opts.time_limit_ms.unwrap_or(DEFAULT_TIME_LIMIT_MS);
    let signature = failure.signature();
    let mut check = |candidate: &str| {
        let candidate_sources = vec![Source::new("repro.c".to_string(), candidate.to_string())];
        let (r, _) = run_attempt(
            candidate_sources,
            runs.clone(),
            unit_opts.clone(),
            deadline,
            impact_obs::Telemetry::disabled(),
        );
        matches!(r, Err(f) if f.signature() == signature)
    };
    if !check(&flat) {
        return None;
    }
    Some(shrink(&flat, &mut check, SHRINK_EVAL_BUDGET))
}

/// Runs one unit end to end — cache probe, supervised compile with
/// retry/quarantine, crash-report persistence, cache store — and returns
/// its completion record plus any side-channel note lines (`; warning:`,
/// `; cache:`). Everything here is safe to run concurrently for distinct
/// units: artifacts are published atomically under unit-derived names,
/// and nothing touches the journal (the supervising thread appends
/// records after this returns).
fn process_unit(
    unit: &Unit,
    opts: &Options,
    obs: &impact_obs::Telemetry,
    cache: Option<&cache::Cache>,
    report_dir: Option<&Path>,
) -> (UnitRecord, Vec<String>) {
    let mut notes: Vec<String> = Vec::new();
    let unit_opts = unit_options(opts, &unit.name);
    // Cache probe, keyed by the fully-materialized inputs. A hit records
    // zero elapsed time (deterministically — no clock was read); a
    // quarantined entry degrades to a miss and leaves an audit note.
    let mut key = None;
    if let Some(c) = cache {
        if let Ok((sources, runs)) = materialize(unit, &unit_opts) {
            let k = cache::unit_key(&sources, &runs, &unit_opts);
            match c.load(k) {
                cache::Lookup::Hit(_) => {
                    return (
                        UnitRecord {
                            unit: unit.name.clone(),
                            status: "ok".to_string(),
                            attempts: 1,
                            signature: "-".to_string(),
                            report: "-".to_string(),
                            counts: vec![0, 0],
                        },
                        notes,
                    );
                }
                cache::Lookup::Quarantined { entry, reason } => {
                    notes.push(format!(
                        "; cache: quarantined {entry} ({reason}); recompiling"
                    ));
                }
                cache::Lookup::Miss => {}
            }
            key = Some(k);
        }
    }
    let outcome = run_unit(unit, opts, obs);
    let rec = match outcome.result {
        Ok((code, report)) => {
            if let (Some(c), Some(k)) = (cache, key) {
                if let Err(e) = c.store(k, code, &report) {
                    notes.push(format!("; warning: {e}"));
                }
            }
            UnitRecord {
                unit: unit.name.clone(),
                status: "ok".to_string(),
                attempts: outcome.attempts.len() as u64 + 1,
                signature: "-".to_string(),
                report: "-".to_string(),
                counts: vec![outcome.elapsed_ms, outcome.attempts.len() as u64],
            }
        }
        Err((taxonomy, failure)) => {
            let mut report_path = "-".to_string();
            let signature = failure.signature();
            if let Some(dir) = report_dir {
                let governor = unit_opts.validate_flags().map(|f| f.vm).unwrap_or_default();
                let report = CrashReport {
                    unit: unit.name.clone(),
                    taxonomy,
                    reproducer: minimize_failure(unit, opts, &failure),
                    failure,
                    attempts: outcome.attempts.clone(),
                    time_limit_ms: opts.time_limit_ms.unwrap_or(DEFAULT_TIME_LIMIT_MS),
                    fuel: governor.max_steps,
                    mem_limit: governor.mem_limit,
                };
                match write_crash_report(dir, &report, &unit_opts) {
                    Ok(path) => report_path = path.display().to_string(),
                    Err(e) => {
                        notes.push(format!("; warning: {e}"));
                    }
                }
            }
            UnitRecord {
                unit: unit.name.clone(),
                status: "quarantined".to_string(),
                attempts: outcome.attempts.len() as u64,
                signature,
                report: report_path,
                counts: vec![
                    outcome.elapsed_ms,
                    (outcome.attempts.len() as u64).saturating_sub(1),
                ],
            }
        }
    };
    (rec, notes)
}

/// Runs the batch described by `opts`.
///
/// # Errors
///
/// Returns a usage-style message when the batch itself is malformed
/// (no units, unknown benchmark name, unreadable directory). Unit
/// failures never surface here — they quarantine and the batch goes on.
pub fn run_batch(opts: &Options) -> Result<(i32, String), String> {
    if opts.remote.is_some() {
        // `--remote` ships units to a daemon fleet; everything below
        // (pool, journal, local cache) belongs to local supervision.
        return crate::serve::run_batch_remote(opts);
    }
    let units = enumerate_units(opts)?;
    if units.is_empty() {
        return Err(format!(
            "batch needs at least one unit (a directory, .c files, bench:<name>, or --workloads)\n{}",
            usage()
        ));
    }
    let service = opts.service_config()?;
    let unit_names: Vec<String> = units.iter().map(|u| u.name.clone()).collect();
    let fingerprint = campaign_fingerprint("batch", opts, &unit_names);
    let mut out = String::new();
    let journal = open_for(opts, "batch", fingerprint, &mut out)?;
    let (mut journal, completed) = match journal {
        Some((j, c)) => (Some(j), c),
        None => (None, std::collections::HashMap::new()),
    };
    let report_dir = opts.report_dir.as_ref().map(std::path::PathBuf::from);
    if let Some(dir) = &report_dir {
        prepare_report_dir(dir, "batch", fingerprint, opts.force_resume)?;
    }
    let obs = telemetry::handle_for(opts);
    // The batch cache honors the same budget and `cache:*` chaos points
    // as the serve daemon's.
    let artifact_cache = service.open_cache(&obs, crate::serve::service_fault_plan(opts)?)?;
    // Completion records and note lines, indexed by canonical unit
    // position. Filled from the journal (replays), the serial loop, or
    // the pool's event stream — the rendering below never depends on
    // completion order.
    let mut records: Vec<Option<UnitRecord>> = vec![None; units.len()];
    let mut notes: Vec<Vec<String>> = vec![Vec::new(); units.len()];
    let mut pending: Vec<usize> = Vec::new();
    for (i, unit) in units.iter().enumerate() {
        match completed.get(&unit.name) {
            Some(rec) => records[i] = Some(rec.clone()),
            None => pending.push(i),
        }
    }
    let jobs = service.jobs.min(pending.len().max(1));
    if jobs <= 1 {
        for &i in &pending {
            if let Some(j) = journal.as_mut() {
                j.append(&Event::UnitStart {
                    unit: units[i].name.clone(),
                })?;
            }
            let (rec, unit_notes) = process_unit(
                &units[i],
                opts,
                &obs,
                artifact_cache.as_ref(),
                report_dir.as_deref(),
            );
            // The unit's artifacts are durable before its completion
            // record — a `unit-done` in the journal therefore implies
            // nothing of this unit needs redoing on resume.
            if let Some(j) = journal.as_mut() {
                j.append(&Event::UnitDone(rec.clone()))?;
            }
            records[i] = Some(rec);
            notes[i] = unit_notes;
        }
    } else {
        obs.count(names::POOL_WORKERS, jobs as u64);
        // The pool delivers events on this thread, so the journal keeps
        // exactly one writer: `unit-start` on claim, `unit-done` only
        // after `process_unit` made the unit's artifacts durable.
        // Appends for different units may interleave, which replay
        // handles (`unit-start` is an in-flight marker, not a bracket).
        let steals = pool::run(
            &pending,
            jobs,
            |i| {
                process_unit(
                    &units[i],
                    opts,
                    &obs,
                    artifact_cache.as_ref(),
                    report_dir.as_deref(),
                )
            },
            |ev| {
                match ev {
                    PoolEvent::Started(i) => {
                        if let Some(j) = journal.as_mut() {
                            j.append(&Event::UnitStart {
                                unit: units[i].name.clone(),
                            })?;
                        }
                    }
                    PoolEvent::Done(i, r) => {
                        let (rec, unit_notes) = match r {
                            Ok(t) => t,
                            // The compile itself is already panic-isolated
                            // inside run_attempt; this catches a panic in
                            // the supervision scaffolding and degrades it
                            // to a quarantined unit.
                            Err(msg) => (
                                UnitRecord {
                                    unit: units[i].name.clone(),
                                    status: "quarantined".to_string(),
                                    attempts: 0,
                                    signature: "panic:pool-worker".to_string(),
                                    report: "-".to_string(),
                                    counts: vec![0, 0],
                                },
                                vec![format!("; warning: {msg}")],
                            ),
                        };
                        if let Some(j) = journal.as_mut() {
                            j.append(&Event::UnitDone(rec.clone()))?;
                        }
                        records[i] = Some(rec);
                        notes[i] = unit_notes;
                    }
                }
                Ok(())
            },
        )?;
        obs.count(names::POOL_STEALS, steals);
    }
    // Render in canonical unit order — the one code path shared by
    // freshly-run units and units replayed from the journal, so parallel,
    // serial, and resumed campaigns all produce identical output.
    // Elapsed time and retry counts come from the completion record,
    // never a fresh clock, so replayed units keep their recorded timings.
    let mut rows: Vec<(String, String, u64, u64, u64, String)> = Vec::new();
    let mut ok = 0usize;
    let mut quarantined = 0usize;
    for (i, rec) in records.iter().enumerate() {
        let rec = rec
            .as_ref()
            .expect("every unit has a record once the pool drains");
        for line in &notes[i] {
            let _ = writeln!(out, "{line}");
        }
        if rec.status == "ok" {
            ok += 1;
        } else {
            quarantined += 1;
        }
        let elapsed_ms = rec.counts.first().copied().unwrap_or(0);
        let retries = rec.counts.get(1).copied().unwrap_or(0);
        rows.push((
            rec.unit.clone(),
            rec.status.clone(),
            rec.attempts,
            retries,
            elapsed_ms,
            rec.signature.clone(),
        ));
        if rec.report != "-" {
            let _ = writeln!(out, "; crash report: {}", rec.report);
        }
    }
    // Summary table.
    let name_w = rows.iter().map(|r| r.0.len()).max().unwrap_or(4).max(4);
    let time_w = rows
        .iter()
        .map(|r| format!("{}ms", r.4).len())
        .max()
        .unwrap_or(4)
        .max(4);
    out.push_str(&format!(
        "{:name_w$}  {:11}  {:8}  {:7}  {:>time_w$}  {}\n",
        "unit", "status", "attempts", "retries", "time", "signature"
    ));
    for (name, status, attempts, retries, elapsed_ms, signature) in &rows {
        let time = format!("{elapsed_ms}ms");
        out.push_str(&format!(
            "{name:name_w$}  {status:11}  {attempts:<8}  {retries:<7}  {time:>time_w$}  {signature}\n"
        ));
    }
    // Total elapsed is the sum of journaled per-unit timings, so a
    // resumed campaign reports the same total as an uninterrupted one.
    let total_ms: u64 = rows.iter().map(|r| r.4).sum();
    out.push_str(&format!(
        "; batch: {} units, {ok} ok, {quarantined} quarantined in {total_ms}ms\n",
        units.len()
    ));
    obs.count("batch:units", units.len() as u64);
    obs.count("batch:ok", ok as u64);
    obs.count("batch:quarantined", quarantined as u64);
    telemetry::write_artifacts(opts, &obs, None)?;
    if let Some(j) = journal.as_mut() {
        j.append(&Event::CampaignEnd {
            ok: ok as u64,
            failed: quarantined as u64,
        })?;
    }
    let code = if quarantined == 0 {
        EXIT_ALL_OK
    } else if ok == 0 {
        EXIT_ALL_FAILED
    } else {
        EXIT_PARTIAL
    };
    Ok((code, out))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn taxonomy_splits_deterministic_from_presumed_transient() {
        for s in ["io", "config", "compile", "verify"] {
            assert!(is_persistent(s), "{s} should be persistent");
        }
        for s in ["inline", "panic", "governor"] {
            assert!(!is_persistent(s), "{s} should be presumed transient");
        }
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let a = jitter_ms("unit.c", 1, 25);
        let b = jitter_ms("unit.c", 1, 25);
        assert_eq!(a, b);
        assert!(a < 25);
        assert_eq!(jitter_ms("unit.c", 1, 0), 0);
    }

    #[test]
    fn fault_unit_gates_fault_specs() {
        let o = Options::parse(&strs(&[
            "batch",
            "a.c",
            "--fault",
            "inline:verify",
            "--fault-unit",
            "b.c",
        ]))
        .unwrap();
        assert!(unit_options(&o, "a.c").faults.is_empty());
        assert_eq!(unit_options(&o, "b.c").faults, strs(&["inline:verify"]));
        // No --fault-unit: faults arm everywhere.
        let o = Options::parse(&strs(&["batch", "a.c", "--fault", "inline:verify"])).unwrap();
        assert_eq!(unit_options(&o, "a.c").faults, strs(&["inline:verify"]));
    }

    #[test]
    fn enumerates_bench_units_and_rejects_unknown() {
        let o = Options::parse(&strs(&["batch", "bench:wc"])).unwrap();
        let units = enumerate_units(&o).unwrap();
        assert_eq!(units.len(), 1);
        assert_eq!(units[0].name, "bench:wc");
        let o = Options::parse(&strs(&["batch", "bench:nope"])).unwrap();
        assert!(enumerate_units(&o).unwrap_err().contains("nope"));
    }

    #[test]
    fn deadline_classifies_as_governor() {
        let sources = vec![Source::new(
            "spin.c".to_string(),
            // An infinite loop: only the deadline can stop this attempt
            // (the worker itself stays fuel-bounded afterwards).
            "int main() { int i; i = 0; while (1) i = i + 1; return i; }".to_string(),
        )];
        let opts = Options::parse(&strs(&["batch", "spin.c", "--fuel", "100000000"])).unwrap();
        let (r, _) = run_attempt(
            sources,
            vec![(vec![], vec![])],
            opts,
            300,
            impact_obs::Telemetry::disabled(),
        );
        let f = r.unwrap_err();
        assert_eq!(f.signature(), "governor:deadline-exceeded");
    }

    #[test]
    fn missing_file_quarantines_as_persistent_io() {
        let unit = Unit {
            name: "no-such-file.c".to_string(),
            kind: UnitKind::File("no-such-file.c".to_string()),
        };
        let opts = Options::parse(&strs(&["batch", "no-such-file.c"])).unwrap();
        let outcome = run_unit(&unit, &opts, &impact_obs::Telemetry::disabled());
        let (taxonomy, failure) = outcome.result.unwrap_err();
        assert_eq!(taxonomy, "persistent");
        assert_eq!(failure.signature(), "io:source-read-failed");
        assert_eq!(outcome.attempts.len(), 1, "io errors are not retried");
    }
}
