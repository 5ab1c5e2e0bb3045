//! `perfbench` — the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-suite|compile-corpus|serve-mixed|all> \
//!     --seed N --seconds S --trace <0|1>
//! ```
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics; a traced
//! run (`--trace 1`) reports the per-layer metrics, writes its spans to
//! `.perfbench/trace-<workload>-<seed>.json`, and measures its own overhead
//! against untraced rounds of the same run. Every program output is
//! checked against the reference engine; a mismatch or an exact count
//! that fails to repeat makes the run incorrect and the exit code 1.
//! The last line of stdout is one JSON object; the lines before it are a
//! `#`-prefixed table. See `perfbench/README.md` for what each workload
//! is for.

mod check;
mod corpus;
mod paper;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::Path;
use std::time::Instant;

use report::{Outcome, END_TO_END, PER_LAYER};

/// Where traces and daemon scratch directories go, relative to the
/// working directory.
pub const OUT_DIR: &str = ".perfbench";

/// Command-line settings shared by every workload.
pub struct Ctx {
    /// Seed all inputs derive from.
    pub seed: u64,
    /// How long a run measures.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// Runs rounds until `ctx.seconds` have passed. Untraced runs repeat
/// untraced rounds (at least two, so repeats can be compared); traced runs
/// alternate untraced and traced rounds (at least two of each), so the
/// tracing overhead is measured on the same inputs in the same process.
pub fn measure(ctx: &Ctx, mut round: impl FnMut(bool) -> Result<(), String>) -> Result<(), String> {
    let start = Instant::now();
    let min_rounds = if ctx.trace { 4 } else { 2 };
    let mut n = 0;
    while n < min_rounds || start.elapsed().as_secs_f64() < ctx.seconds {
        round(ctx.trace && n % 2 == 1)?;
        n += 1;
    }
    Ok(())
}

/// Back-to-back tries behind one set-up sample.
pub const SETUP_TRIES: usize = 5;

/// Runs a set-up step [`SETUP_TRIES`] times back to back, adds the fastest
/// try's duration in seconds to `times`, and returns the last result.
/// Workloads take a sample before the checking pass and again before every
/// round, so that the `setup_s` median covers the whole run rather than
/// its first moment; the fastest try leaves out the millisecond jitter a
/// step this short picks up from the allocator and the host.
pub fn timed_setup<T>(times: &mut Vec<f64>, mut f: impl FnMut() -> T) -> T {
    let mut fastest = f64::INFINITY;
    let mut last = None;
    for _ in 0..SETUP_TRIES {
        // One result alive at a time, so the tries leave peak memory alone.
        drop(last.take());
        let t = Instant::now();
        let r = f();
        fastest = fastest.min(t.elapsed().as_secs_f64());
        last = Some(r);
    }
    times.push(fastest);
    last.expect("SETUP_TRIES > 0")
}

/// Peak resident set size (`VmHWM`) of a process, in MiB; `pid` may be
/// `self`.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("cannot read /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in /proc/{pid}/status"))
}

const WORKLOADS: &[&str] = &["paper-suite", "compile-corpus", "serve-mixed"];

fn run_workload(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    match name {
        "paper-suite" => paper::run(ctx),
        "compile-corpus" => corpus::run(ctx),
        "serve-mixed" => serve::run(ctx),
        other => Err(format!("unknown workload `{other}`")),
    }
}

fn parse_args() -> Result<(Vec<&'static str>, Ctx), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                );
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                });
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let workloads = if workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![*WORKLOADS.iter().find(|w| **w == workload).ok_or_else(|| {
            format!("unknown workload `{workload}`; expected one of {WORKLOADS:?} or all")
        })?]
    };
    Ok((
        workloads,
        Ctx {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        },
    ))
}

fn main() {
    let (workloads, ctx) = match parse_args() {
        Ok(x) => x,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let catalogue = if ctx.trace { PER_LAYER } else { END_TO_END };
    let mut outcomes = Vec::new();
    for w in &workloads {
        let mut o = match run_workload(w, &ctx) {
            Ok(o) => o,
            Err(e) => {
                // A set-up failure (a trap, a daemon that never came up):
                // there is no result to report.
                eprintln!("perfbench: {w}: {e}");
                std::process::exit(1);
            }
        };
        for &(name, _) in catalogue {
            if !o.values.contains_key(name) {
                o.problem(format!("metric {name} was not measured"));
            }
        }
        if let Some((spans, totals)) = o.trace.take() {
            let path = Path::new(OUT_DIR).join(format!("trace-{w}-{}.json", ctx.seed));
            let body = trace::to_json(w, ctx.seed, &spans, &totals);
            if let Err(e) =
                std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, body))
            {
                o.problem(format!("cannot write {}: {e}", path.display()));
            } else {
                o.notes.push(format!("spans written to {}", path.display()));
            }
        }
        print!("{}", report::table(w, &o, catalogue));
        outcomes.push((*w, o));
    }
    let line = report::json(
        &outcomes.iter().map(|(w, o)| (*w, o)).collect::<Vec<_>>(),
        catalogue,
    );
    println!("{line}");
    if !outcomes.iter().all(|(_, o)| o.correct()) {
        std::process::exit(1);
    }
}
