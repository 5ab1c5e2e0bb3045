//! `serve-mixed`: a fresh release `impactc serve` daemon per round (Unix
//! socket, `--jobs 2`, a fresh `--cache-dir`), driven by a closed loop over
//! two connections, one connection per request. A seeded 50/50 mix picks
//! between fresh corpus units (a cache miss: compile and store) and
//! repeats of units the same connection sent before (a cache hit). It is
//! the only workload through the transport, the queue, the cache and the
//! supervised worker.

use std::fs::File;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use impact_cfront::Source;
use impact_driver::cache::{unit_key, Cache, Lookup};
use impact_driver::serve::{
    read_response, write_ping, write_request, write_stats, Response, StatsFormat,
};
use impact_driver::RunSpec;
use impact_fuzz::{generate, program_seed};
use impact_vm::FaultPlan;

use crate::check::check_units;
use crate::corpus::options;

use crate::report::{self, exact, Outcome, RoundTime, Value};
use crate::trace::{self, Tracer};
use crate::{measure, peak_rss_mb, Ctx, OUT_DIR};

/// Client connections, each a closed loop (one request in flight).
pub const CONNECTIONS: usize = 2;

/// Requests per connection per round.
pub const PER_CONNECTION: usize = 500;

/// Seeds the units (kept apart from the compile-corpus units).
const UNIT_SALT: u64 = 0x5e27_e001;

/// Seeds the hit/miss draws.
const DRAW_SALT: u64 = 0x5e27_e002;

/// How long a daemon may take to answer its first ping.
const READY_TIMEOUT: Duration = Duration::from_secs(60);

/// How long a daemon may take to drain after SIGTERM.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

/// Socket timeout for one exchange.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// One request of a connection's sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Req {
    /// Index into [`Plan::units`].
    pub unit: usize,
    /// True when this repeats a unit the connection sent before.
    pub hit: bool,
}

/// The seeded request sequences and the units they send.
pub struct Plan {
    /// Distinct compile units.
    pub units: Vec<Vec<Source>>,
    /// One request sequence per connection.
    pub conns: Vec<Vec<Req>>,
}

/// Builds the plan: half of each connection's requests, in seeded order,
/// send a fresh unit and the other half repeat one of the same
/// connection's earlier units. A connection waits for each reply before
/// its next request, so every repeat finds its unit already compiled and
/// stored: the hit count is exact.
pub fn plan(seed: u64) -> Plan {
    let mut units = Vec::new();
    let mut conns = Vec::with_capacity(CONNECTIONS);
    for c in 0..CONNECTIONS {
        let draw = |k: usize| program_seed(seed ^ DRAW_SALT ^ ((c as u64) << 40), k as u64);
        // A seeded shuffle of equal numbers of hits and misses, with a
        // miss first (there is nothing to repeat yet).
        let mut hits: Vec<bool> = (0..PER_CONNECTION).map(|k| k % 2 == 1).collect();
        for k in (1..PER_CONNECTION).rev() {
            hits.swap(k, (draw(k) % (k as u64 + 1)) as usize);
        }
        if hits[0] {
            let first_miss = hits.iter().position(|h| !h).expect("half are misses");
            hits.swap(0, first_miss);
        }
        let mut mine: Vec<usize> = Vec::new();
        let mut reqs = Vec::with_capacity(PER_CONNECTION);
        for (k, &hit) in hits.iter().enumerate() {
            let unit = if hit {
                mine[(draw(PER_CONNECTION + k) % mine.len() as u64) as usize]
            } else {
                let id = units.len();
                units.push(vec![Source::new(
                    format!("c{c}u{}.c", mine.len()),
                    generate(program_seed(seed ^ UNIT_SALT, id as u64)),
                )]);
                mine.push(id);
                id
            };
            reqs.push(Req { unit, hit });
        }
        conns.push(reqs);
    }
    Plan { units, conns }
}

/// Builds the release `impactc` from the repository at the working
/// directory and returns its path. (A root `cargo build --release` would
/// not relink the binary, so the package is named.)
fn impactc() -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "impact-driver",
            "--bin",
            "impactc",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building impactc failed: {status}"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let bin = target.join("release").join("impactc");
    if !bin.is_file() {
        return Err(format!("impactc not found at {}", bin.display()));
    }
    Ok(bin)
}

fn io(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Sends one pre-encoded frame on a fresh connection and reads the whole
/// reply (the daemon closes the connection after answering).
fn exchange(sock: &Path, frame: &[u8]) -> Result<Vec<u8>, String> {
    let mut stream = UnixStream::connect(sock).map_err(io("connect"))?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .map_err(io("timeout"))?;
    stream.write_all(frame).map_err(io("write"))?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(io("read"))?;
    Ok(raw)
}

fn ping(sock: &Path) -> Result<Response, String> {
    let mut frame = Vec::new();
    write_ping(&mut frame, 1).map_err(io("encode"))?;
    read_response(&mut &exchange(sock, &frame)?[..])
}

/// A daemon process; dropping it kills the process if it still runs.
struct Daemon {
    child: Child,
    sock: PathBuf,
    dir: PathBuf,
}

impl Daemon {
    /// Starts a daemon in a fresh directory and waits until it answers a
    /// healthy ping. Returns the daemon and the seconds that took.
    fn start(bin: &Path, dir: PathBuf) -> Result<(Daemon, f64), String> {
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(io("clear daemon dir"))?;
        }
        std::fs::create_dir_all(&dir).map_err(io("create daemon dir"))?;
        let sock = dir.join("d.sock");
        let stdout = File::create(dir.join("daemon.out")).map_err(io("daemon log"))?;
        let stderr = File::create(dir.join("daemon.err")).map_err(io("daemon log"))?;
        let t = Instant::now();
        let child = Command::new(bin)
            .arg("serve")
            .arg(&sock)
            .args(["--jobs", "2", "--opt", "--cache-dir"])
            .arg(dir.join("cache"))
            .stdin(Stdio::null())
            .stdout(stdout)
            .stderr(stderr)
            .spawn()
            .map_err(io("spawn impactc serve"))?;
        let mut d = Daemon { child, sock, dir };
        loop {
            if let Ok(r) = ping(&d.sock) {
                if r.status == "ok" && r.exit == 0 {
                    return Ok((d, t.elapsed().as_secs_f64()));
                }
            }
            if let Ok(Some(status)) = d.child.try_wait() {
                return Err(format!(
                    "daemon exited before it was ready: {status}; {}",
                    d.log()
                ));
            }
            if t.elapsed() > READY_TIMEOUT {
                return Err("daemon never answered a healthy ping".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn log(&self) -> String {
        let read = |f: &str| std::fs::read_to_string(self.dir.join(f)).unwrap_or_default();
        format!("{}{}", read("daemon.out"), read("daemon.err"))
    }

    /// The daemon's live stats, as JSON.
    fn stats(&self) -> Result<String, String> {
        let mut frame = Vec::new();
        write_stats(&mut frame, StatsFormat::Json).map_err(io("encode"))?;
        let r = read_response(&mut &exchange(&self.sock, &frame)?[..])?;
        Ok(r.payload)
    }

    /// SIGTERM, then require a clean drain: exit 0 and `0 errors`.
    fn stop(&mut self) -> Result<(), String> {
        let pid = self.child.id().to_string();
        let sent = Command::new("kill")
            .args(["-TERM", &pid])
            .status()
            .map_err(io("kill"))?;
        if !sent.success() {
            return Err(format!("kill -TERM {pid} failed"));
        }
        let t = Instant::now();
        let status = loop {
            if let Some(s) = self.child.try_wait().map_err(io("wait"))? {
                break s;
            }
            if t.elapsed() > DRAIN_TIMEOUT {
                return Err("daemon did not drain after SIGTERM".to_string());
            }
            std::thread::sleep(Duration::from_millis(2));
        };
        let log = self.log();
        if !status.success() || !log.contains(" 0 errors,") {
            return Err(format!("unclean drain ({status}): {}", log.trim()));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Client-side times of one request, in seconds.
#[derive(Clone, Copy, Default)]
struct Times {
    connect: f64,
    codec: f64,
    total: f64,
}

/// One request on a fresh connection, timed phase by phase (and traced:
/// the daemon's own spans for the request hang under `serve.wait`).
fn request(
    sock: &Path,
    sources: &[Source],
    id: u64,
    tr: &mut Tracer,
) -> Result<(Response, Times), String> {
    let t0 = Instant::now();
    tr.enter("serve.request");
    let stream = tr.time("serve.connect", || UnixStream::connect(sock));
    let mut stream = stream.map_err(io("connect"))?;
    let t1 = Instant::now();
    let mut frame = Vec::new();
    tr.time("serve.encode", || {
        write_request(&mut frame, sources, id, id)
    })
    .map_err(io("encode"))?;
    let t2 = Instant::now();
    let wait = tr.enter("serve.wait");
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .map_err(io("timeout"))?;
    stream.write_all(&frame).map_err(io("write"))?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(io("read"))?;
    tr.exit();
    let t3 = Instant::now();
    let resp = tr.time("serve.decode", || read_response(&mut &raw[..]))?;
    tr.exit();
    let t4 = Instant::now();
    tr.import(wait, &resp.spans, t1);
    let secs = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64();
    Ok((
        resp,
        Times {
            connect: secs(t0, t1),
            codec: secs(t1, t2) + secs(t3, t4),
            total: secs(t0, t4),
        },
    ))
}

/// What one round measured.
#[derive(Default)]
struct Round {
    ready_secs: f64,
    wall: f64,
    rss_mb: f64,
    times: Vec<Times>,
    hits: u64,
    busy: u64,
    vm_ils: u64,
    service: (f64, f64),
    queue_wait: (f64, f64),
}

/// `(count, total_us)` of a histogram in the daemon's stats JSON.
fn hist(json: &str, name: &str) -> Option<(f64, f64)> {
    let at = json.find(&format!("\"name\": \"{name}\""))?;
    let rest = &json[at..];
    let field = |key: &str| -> Option<f64> {
        let i = rest.find(&format!("\"{key}\": "))? + key.len() + 4;
        let end = rest[i..].find(|c: char| !c.is_ascii_digit())? + i;
        rest[i..end].parse().ok()
    };
    Some((field("count")?, field("total_us")?))
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let bin = impactc()?;
    let plan = plan(ctx.seed);
    let runs: Vec<RunSpec> = vec![(Vec::new(), Vec::new())];
    // The expected reply to each unit is the checked in-process report
    // without its IL dump: the daemon compiles with `--quiet`.
    let opts = options();
    let (checked, expect) = check_units(&plan.units, &runs, &opts, |c| {
        c.report[..c.report.len() - c.il_len].to_string()
    })?;
    let sums = checked.sums;

    let pid = std::process::id();
    let mut rounds: Vec<(bool, Round)> = Vec::new();
    let mut totals = Default::default();
    let mut first_spans = None;
    let (mut loads, mut stores) = (Vec::new(), Vec::new());
    let mut round_no = 0u64;
    measure(ctx, |traced| {
        round_no += 1;
        let dir = Path::new(OUT_DIR).join(format!("serve-{pid}-{round_no}"));
        let (mut daemon, ready_secs) = Daemon::start(&bin, dir.clone())?;
        let mut r = Round {
            ready_secs,
            ..Round::default()
        };
        let epoch = Instant::now();
        let t = Instant::now();
        let results = std::thread::scope(|s| {
            let handles: Vec<_> = plan
                .conns
                .iter()
                .enumerate()
                .map(|(c, reqs)| {
                    let (plan, sock) = (&plan, &daemon.sock);
                    s.spawn(move || {
                        let mut tr = Tracer::with_epoch(traced, epoch);
                        let replies: Vec<_> = reqs
                            .iter()
                            .enumerate()
                            .map(|(k, req)| {
                                let id = (round_no << 40) | ((c as u64) << 32) | (k as u64 + 1);
                                request(sock, &plan.units[req.unit], id, &mut tr)
                            })
                            .collect();
                        (tr, replies)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect::<Vec<_>>()
        });
        r.wall = t.elapsed().as_secs_f64();
        let stats = daemon.stats()?;
        r.service = hist(&stats, "hist:service-us").unwrap_or_default();
        r.queue_wait = hist(&stats, "hist:queue-wait-us").unwrap_or_default();
        r.rss_mb = peak_rss_mb(&daemon.child.id().to_string())?;
        let stopped = daemon.stop();

        let mut tr = Tracer::with_epoch(traced, epoch);
        for (c, (client_tr, replies)) in results.into_iter().enumerate() {
            tr.absorb(client_tr);
            for (req, reply) in plan.conns[c].iter().zip(replies) {
                out.attempted += 1;
                let verdict = match (&expect[req.unit], reply) {
                    (Err(e), _) => Err(e.clone()),
                    (_, Err(e)) => Err(format!("request failed: {e}")),
                    (Ok(want), Ok((resp, times))) => {
                        r.times.push(times);
                        r.hits += u64::from(resp.cached);
                        r.vm_ils += resp
                            .counters
                            .iter()
                            .filter(|(n, _)| n == "vm:il_executed")
                            .map(|(_, v)| v)
                            .sum::<u64>();
                        if resp.status == "busy" {
                            r.busy += 1;
                        }
                        if resp.status != "ok" || resp.exit != 0 {
                            Err(format!(
                                "daemon answered {} (exit {}): {}",
                                resp.status,
                                resp.exit,
                                resp.payload.trim()
                            ))
                        } else if resp.cached != req.hit {
                            Err(format!("expected cached={} for unit {}", req.hit, req.unit))
                        } else if resp.payload != *want {
                            Err(format!(
                                "report for unit {} differs from the in-process pipeline's",
                                req.unit
                            ))
                        } else {
                            Ok(())
                        }
                    }
                };
                if let Err(m) = verdict {
                    out.fail(m);
                }
            }
        }
        if let Err(e) = stopped {
            out.problem(e);
        }
        if traced {
            // The cache layer, timed in process: replay the round's
            // loads and stores against a fresh cache.
            let cache = Cache::open_with(
                &dir.join("replay"),
                &impact_obs::Telemetry::disabled(),
                None,
                FaultPlan::default(),
            )?;
            for req in plan.conns.iter().flatten() {
                let Ok(want) = &expect[req.unit] else {
                    continue;
                };
                let key = unit_key(&plan.units[req.unit], &runs, &opts);
                let t = Instant::now();
                let looked = cache.load(key);
                loads.push(t.elapsed().as_secs_f64());
                match (looked, req.hit) {
                    (Lookup::Hit(h), true) if h.report == *want => {}
                    (Lookup::Miss, false) => {
                        let t = Instant::now();
                        cache.store(key, 0, want)?;
                        stores.push(t.elapsed().as_secs_f64());
                    }
                    _ => out.problem(format!(
                        "cache replay: unexpected lookup for unit {}",
                        req.unit
                    )),
                }
            }
            let spans = tr.take();
            trace::add_totals(&mut totals, &trace::totals(&spans));
            if first_spans.is_none() {
                first_spans = Some(spans);
            }
        }
        drop(daemon);
        rounds.push((traced, r));
        Ok(())
    })?;

    let requests = (CONNECTIONS * PER_CONNECTION) as f64;
    let untraced: Vec<&Round> = rounds.iter().filter(|(t, _)| !t).map(|(_, r)| r).collect();
    let traced: Vec<&Round> = rounds.iter().filter(|(t, _)| *t).map(|(_, r)| r).collect();
    let hit_ratios: Vec<f64> = rounds
        .iter()
        .map(|(_, r)| r.hits as f64 / requests)
        .collect();
    exact(
        &mut out,
        "dyn_ils_inlined",
        &[checked.dyn_ils_inlined as f64],
    );
    exact(&mut out, "dyn_ils_optimized", &[sums.dyn_ils_final as f64]);
    exact(&mut out, "code_growth_pct", &[sums.code_growth_pct()]);
    exact(&mut out, "cache.hit_ratio", &hit_ratios);
    let walls: Vec<f64> = untraced.iter().map(|r| r.wall).collect();
    if !ctx.trace {
        let setup: Vec<f64> = rounds.iter().map(|(_, r)| r.ready_secs).collect();
        out.put("setup_s", Value::median(&setup));
        out.put(
            "peak_rss_mb",
            Value::median(&untraced.iter().map(|r| r.rss_mb).collect::<Vec<_>>()),
        );
        let times: Vec<RoundTime> = untraced
            .iter()
            .map(|r| RoundTime {
                wall: r.wall,
                unit_ms: r.times.iter().map(|t| t.total * 1e3).collect(),
            })
            .collect();
        report::timings(&mut out, &times, CONNECTIONS);
    } else {
        let n = traced.len() as f64;
        let reqs = requests * n;
        let mean = |f: fn(&Times) -> f64| -> f64 {
            traced
                .iter()
                .flat_map(|r| r.times.iter().map(f))
                .sum::<f64>()
                * 1e6
                / reqs
        };
        let hist_mean = |f: fn(&Round) -> (f64, f64)| -> f64 {
            let (count, total) = traced
                .iter()
                .map(|r| f(r))
                .fold((0.0, 0.0), |a, b| (a.0 + b.0, a.1 + b.1));
            total / count.max(1.0)
        };
        let rtt = mean(|t| t.total);
        let service = hist_mean(|r| r.service);
        out.put("serve.connect_us", Value::single(mean(|t| t.connect)));
        out.put("serve.rtt_us", Value::single(rtt));
        out.put("serve.codec_us", Value::single(mean(|t| t.codec)));
        out.put(
            "serve.busy",
            Value::single(traced.iter().map(|r| r.busy as f64).sum::<f64>() / n),
        );
        out.put("serve.service_us", Value::single(service));
        out.put(
            "serve.queue_wait_us",
            Value::single(hist_mean(|r| r.queue_wait)),
        );
        out.put("serve.outside_worker_us", Value::single(rtt - service));
        let mean_us = |xs: &[f64]| xs.iter().sum::<f64>() * 1e6 / xs.len().max(1) as f64;
        out.put("cache.load_us", Value::single(mean_us(&loads)));
        out.put("cache.store_us", Value::single(mean_us(&stores)));

        report::layer_times(&mut out, &totals, reqs);
        let vm_secs = report::self_us(&totals, &["vm:run", "vm:lower"]) / 1e6;
        let vm_ils: u64 = traced.iter().map(|r| r.vm_ils).sum();
        out.put("vm.ils_per_s", Value::single(vm_ils as f64 / vm_secs));
        let vm_runs = totals.get("vm:run").map_or(0, |t| t.count) as f64;
        out.put("vm.runs", Value::single(vm_runs / n));
        out.put(
            "vm.interp_ils_per_s",
            Value::single(checked.interp_ils as f64 / checked.interp_secs),
        );
        let lex_secs = report::self_us(&totals, &["cfront:lex"]) / 1e6;
        out.put(
            "cfront.tokens_per_s",
            Value::single(sums.tokens as f64 * n / lex_secs),
        );
        sums.put_layer_counts(&mut out);
        let misses = plan.units.len() as f64 * n;
        out.put(
            "driver.pipeline_overhead_us",
            Value::single(report::self_us(&totals, &["serve:request"]) / misses),
        );
        let traced_walls: Vec<f64> = traced.iter().map(|r| r.wall).collect();
        out.put(
            "obs.trace_overhead_pct",
            Value::single(report::overhead_pct(&traced_walls, &walls)),
        );
        out.put("obs.telemetry_on_pct", Value::single(0.0));
        out.notes.push(format!(
            "hit ratio {:.4}; daemon telemetry is always on (counters only), so obs.telemetry_on_pct is measured on compile-corpus",
            hit_ratios[0]
        ));
        out.trace = first_spans.map(|s| (s, totals));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(seed: u64) -> Vec<(usize, Req, String)> {
        let p = plan(seed);
        p.conns
            .iter()
            .enumerate()
            .flat_map(|(c, reqs)| reqs.iter().map(move |r| (c, *r)))
            .map(|(c, r)| (c, r, p.units[r.unit][0].text.clone()))
            .collect()
    }

    #[test]
    fn same_seed_same_requests_other_seed_other_requests() {
        assert_eq!(digest(11), digest(11));
        assert_ne!(digest(11), digest(12));
    }

    #[test]
    fn repeats_only_target_the_connections_own_earlier_units() {
        let p = plan(5);
        for reqs in &p.conns {
            let mut sent = std::collections::HashSet::new();
            assert!(!reqs[0].hit);
            for r in reqs {
                assert_eq!(r.hit, sent.contains(&r.unit));
                sent.insert(r.unit);
            }
        }
        let hits = p.conns.iter().flatten().filter(|r| r.hit).count();
        assert_eq!(hits * 2, CONNECTIONS * PER_CONNECTION);
        assert_eq!(p.units.len(), hits);
    }

    #[test]
    fn hist_reads_count_and_total() {
        let json = "{\"hists\": [\n    {\"name\": \"hist:queue-wait-us\", \"count\": 3, \"total_us\": 12, \"p50_us\": 7},\n    {\"name\": \"hist:service-us\", \"count\": 800, \"total_us\": 90210, \"p50_us\": 127}]}";
        assert_eq!(hist(json, "hist:service-us"), Some((800.0, 90210.0)));
        assert_eq!(hist(json, "hist:queue-wait-us"), Some((3.0, 12.0)));
        assert_eq!(hist(json, "hist:rtt-us"), None);
    }
}
