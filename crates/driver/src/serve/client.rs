//! The fleet-aware client behind `impactc request` and `impactc batch
//! --remote`: endpoint failover, per-endpoint circuit breakers, and
//! the retry loop (see the module docs of [`crate::serve`]).

use std::io::{BufReader, ErrorKind};
use std::time::Duration;

use impact_cfront::Source;
use impact_obs::names;
use impact_vm::fnv1a64;

use super::wire::{
    read_response, wire_error_is_retryable, write_ping, write_request, write_stats, Request,
    StatsFormat, IO_TIMEOUT_MS,
};
use crate::supervise::{jitter_ms, DEFAULT_RETRIES, DEFAULT_RETRY_BASE_MS};
use crate::{telemetry, usage, Options};

/// The outcome of one client attempt, classified by the retry taxonomy:
/// `Retry` failures are presumed transient (overload, a dropped or torn
/// connection, a panicked worker); `Fail` failures are deterministic
/// properties of the request or the server's answer, which retrying
/// cannot change.
enum Outcome {
    Done(i32, String),
    Retry { why: String, after_ms: Option<u64> },
    Fail(String),
}

/// Mixed into the invocation salt to derive a request's trace id as a
/// sibling of its idempotency id: both are stable across one logical
/// request's retries, but the two id spaces never collide.
const TRACE_SALT: u64 = 0x7e4a_1c09_5b3d_f861;

/// A per-invocation salt for idempotency ids: the same invocation
/// retries under one id (so a lost response replays), while two separate
/// invocations of the same files get distinct ids (so each observes its
/// own fresh compile-or-cache decision).
fn invocation_salt() -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| (d.as_secs() << 30) ^ u64::from(d.subsec_nanos()))
        .unwrap_or(0);
    (u64::from(std::process::id()) << 48) ^ nanos
}

/// FNV-1a over the salt and the request's sources: stable across the
/// retries of one logical request.
pub(super) fn request_id(sources: &[Source], salt: u64) -> u64 {
    let mut bytes = salt.to_le_bytes().to_vec();
    for s in sources {
        for field in [&s.name, &s.text] {
            bytes.extend_from_slice(field.as_bytes());
            bytes.push(0);
        }
    }
    fnv1a64(&bytes)
}

/// A compile request whose idempotency and trace ids both derive from
/// the sources and the salt.
fn compile_request(sources: Vec<Source>, salt: u64) -> Request {
    Request::Compile {
        id: request_id(&sources, salt),
        trace: request_id(&sources, salt ^ TRACE_SALT),
        sources,
    }
}

/// One endpoint's client-side state: its breaker, its `retry-after-ms`
/// hold, and the last error it produced (for the terminal fleet report).
struct EndpointState {
    endpoint: crate::transport::Endpoint,
    breaker: crate::transport::Breaker,
    not_before: Option<std::time::Instant>,
    last_err: String,
}

/// The fleet client: an ordered endpoint list with per-endpoint circuit
/// breakers, shared across every exchange of one invocation (so a
/// `batch --remote` campaign's breakers carry state from unit to unit).
struct Fleet<'a> {
    /// The original comma-separated argument, for jitter keying.
    arg: &'a str,
    states: Vec<EndpointState>,
    opts: &'a Options,
    obs: &'a impact_obs::Telemetry,
    /// Append the `; cache: hit` marker to cached responses. `request`
    /// keeps the marker; `batch --remote` suppresses it so campaign
    /// stdout is byte-identical whether the fleet's caches were warm.
    note_cache_hits: bool,
}

impl<'a> Fleet<'a> {
    fn new(
        endpoints: Vec<crate::transport::Endpoint>,
        arg: &'a str,
        opts: &'a Options,
        obs: &'a impact_obs::Telemetry,
        note_cache_hits: bool,
    ) -> Fleet<'a> {
        Fleet {
            arg,
            states: endpoints
                .into_iter()
                .map(|endpoint| EndpointState {
                    endpoint,
                    breaker: crate::transport::Breaker::new(),
                    not_before: None,
                    last_err: "not yet tried".to_string(),
                })
                .collect(),
            opts,
            obs,
            note_cache_hits,
        }
    }

    /// One wire attempt against one endpoint, classified by the retry
    /// taxonomy.
    fn attempt_endpoint(
        &self,
        ep: &crate::transport::Endpoint,
        wire: &Request,
        remaining_ms: Option<u64>,
    ) -> Outcome {
        let stream = match ep.connect() {
            Ok(s) => s,
            Err(e) => {
                return Outcome::Retry {
                    why: format!("cannot connect to serve socket `{}`: {e}", ep.display()),
                    after_ms: None,
                }
            }
        };
        // Mandatory timeouts, shrunk to the remaining deadline: an
        // exchange must never outlive its budget.
        let io_ms = remaining_ms
            .map_or(IO_TIMEOUT_MS, |r| r.min(IO_TIMEOUT_MS))
            .max(1);
        if let Err(e) = stream
            .set_read_timeout(Some(Duration::from_millis(io_ms)))
            .and_then(|()| stream.set_write_timeout(Some(Duration::from_millis(io_ms))))
        {
            return Outcome::Fail(format!("cannot configure socket timeouts: {e}"));
        }
        let mut writer = match stream.try_clone() {
            Ok(w) => w,
            Err(e) => return Outcome::Fail(format!("cannot clone socket stream: {e}")),
        };
        let t0 = self.obs.now_us();
        let wall = std::time::Instant::now();
        let sent = match wire {
            Request::Ping { trace } => write_ping(&mut writer, *trace),
            Request::Stats { format } => write_stats(&mut writer, *format),
            Request::Compile { sources, id, trace } => {
                write_request(&mut writer, sources, *id, *trace)
            }
        };
        // A shedding daemon writes `busy` and closes without reading, so
        // a send the peer cut short may have its answer waiting: read it
        // before giving up. A send timeout still fails at once.
        let cannot_send = |e: std::io::Error| Outcome::Retry {
            why: format!("cannot send request: {e}"),
            after_ms: None,
        };
        let send_error = match sent {
            Ok(()) => None,
            Err(e) if matches!(e.kind(), ErrorKind::BrokenPipe | ErrorKind::ConnectionReset) => {
                Some(e)
            }
            Err(e) => return cannot_send(e),
        };
        let resp = match (read_response(&mut BufReader::new(stream)), send_error) {
            (Ok(r), _) => r,
            (Err(_), Some(e)) => return cannot_send(e),
            (Err(e), None) if wire_error_is_retryable(&e) => {
                return Outcome::Retry {
                    why: e,
                    after_ms: None,
                }
            }
            (Err(e), None) => return Outcome::Fail(e),
        };
        let rtt_us = wall.elapsed().as_micros() as u64;
        self.obs.record_value(names::HIST_RTT, rtt_us);
        match resp.status.as_str() {
            "ok" => {
                if let Request::Compile { trace, .. } = wire {
                    // Stitch the daemon's summary under this exchange's
                    // round-trip span: daemon spans are rebased onto the
                    // wire timeline and clamped inside [t0, t0+rtt], so
                    // the client span always encloses them.
                    let traced = self.obs.with_trace(*trace);
                    traced.add_span("client:request", t0, rtt_us);
                    let end = t0.saturating_add(rtt_us);
                    for s in &resp.spans {
                        let start = t0.saturating_add(s.start_us).min(end);
                        let dur = s.dur_us.min(end.saturating_sub(start));
                        self.obs.with_trace(s.trace).add_span(&s.name, start, dur);
                    }
                    for (name, v) in &resp.counters {
                        self.obs.count(name, *v);
                    }
                }
                let mut out = resp.payload;
                if resp.cached && self.note_cache_hits {
                    out.push_str("; cache: hit\n");
                }
                Outcome::Done(resp.exit, out)
            }
            "busy" => Outcome::Retry {
                why: format!("server busy: {}", resp.payload),
                after_ms: (resp.retry_after_ms > 0).then_some(resp.retry_after_ms),
            },
            _ => {
                // A worker panic is presumed transient, mirroring the
                // batch supervisor's taxonomy; any other server error is
                // a deterministic property of this request.
                if resp.payload.starts_with("request worker panicked") {
                    Outcome::Retry {
                        why: resp.payload,
                        after_ms: None,
                    }
                } else {
                    Outcome::Fail(resp.payload)
                }
            }
        }
    }

    /// Records a retryable failure against endpoint `i`, driving its
    /// breaker and emitting the `breaker:opened` edge.
    fn note_failure(
        &mut self,
        i: usize,
        now: std::time::Instant,
        why: String,
        after_ms: Option<u64>,
    ) {
        let multi = self.states.len() > 1;
        let st = &mut self.states[i];
        st.not_before = after_ms.map(|ms| now + Duration::from_millis(ms));
        st.last_err = why;
        // Breakers only engage on a real fleet: a fleet of one
        // degenerates to the plain retry loop (skipping the only
        // endpoint would help nobody).
        if multi && st.breaker.record_failure(now) {
            self.obs.count(names::BREAKER_OPENED, 1);
            eprintln!(
                "; request: circuit breaker opened for `{}` after {} consecutive failures",
                st.endpoint.display(),
                crate::transport::BREAKER_THRESHOLD
            );
        }
    }

    /// Runs one logical exchange to completion across the fleet: rounds
    /// of deterministic-order failover bounded by `--retries` and
    /// `--deadline-ms`. See the module docs for the taxonomy.
    fn exchange(&mut self, wire: &Request) -> Result<(i32, String), String> {
        use std::time::Instant;

        let retries = self.opts.retries.unwrap_or(DEFAULT_RETRIES);
        let base = self.opts.retry_base_ms.unwrap_or(DEFAULT_RETRY_BASE_MS);
        let max_attempts = retries.saturating_add(1);
        let multi = self.states.len() > 1;
        let start = Instant::now();
        let mut last_err = String::new();
        for attempt in 1..=max_attempts {
            let remaining = match self.opts.deadline_ms {
                None => None,
                Some(budget) => {
                    let spent = start.elapsed().as_millis() as u64;
                    if spent >= budget {
                        return Err(format!(
                            "request deadline of {budget} ms exceeded after {} attempts: {last_err}",
                            attempt - 1
                        ));
                    }
                    Some(budget - spent)
                }
            };
            // One round: every admissible endpoint, in listed order.
            let mut round_hint: Option<u64> = None;
            for i in 0..self.states.len() {
                let now = Instant::now();
                if multi {
                    if let Some(nb) = self.states[i].not_before {
                        if now < nb {
                            // Honoring this endpoint's retry-after hint;
                            // the rest of the fleet is still in play.
                            continue;
                        }
                    }
                    match self.states[i].breaker.admit(now) {
                        crate::transport::Admission::Try => {}
                        crate::transport::Admission::Skip => continue,
                        crate::transport::Admission::Probe => {
                            // Half-open: one cheap ping decides between
                            // recovery and another cooldown before any
                            // real request is risked on this endpoint.
                            self.obs.count(names::BREAKER_PROBES, 1);
                            let ep = self.states[i].endpoint.clone();
                            eprintln!(
                                "; request: probing `{}` (circuit breaker half-open)",
                                ep.display()
                            );
                            match self.attempt_endpoint(&ep, &Request::Ping { trace: 0 }, remaining)
                            {
                                Outcome::Done(..) => {
                                    if self.states[i].breaker.record_success() {
                                        self.obs.count(names::BREAKER_RECOVERED, 1);
                                        eprintln!(
                                            "; request: endpoint `{}` recovered",
                                            ep.display()
                                        );
                                    }
                                }
                                Outcome::Retry { why, after_ms } => {
                                    let why = format!("half-open probe failed: {why}");
                                    self.note_failure(i, Instant::now(), why, after_ms);
                                    last_err = self.states[i].last_err.clone();
                                    continue;
                                }
                                Outcome::Fail(why) => {
                                    let why = format!("half-open probe failed: {why}");
                                    self.note_failure(i, Instant::now(), why, None);
                                    last_err = self.states[i].last_err.clone();
                                    continue;
                                }
                            }
                        }
                    }
                }
                let ep = self.states[i].endpoint.clone();
                match self.attempt_endpoint(&ep, wire, remaining) {
                    Outcome::Done(exit, out) => {
                        if self.states[i].breaker.record_success() {
                            self.obs.count(names::BREAKER_RECOVERED, 1);
                        }
                        return Ok((exit, out));
                    }
                    Outcome::Fail(msg) => return Err(msg),
                    Outcome::Retry { why, after_ms } => {
                        round_hint = after_ms;
                        self.note_failure(i, Instant::now(), why, after_ms);
                        last_err = self.states[i].last_err.clone();
                        if multi {
                            self.obs.count(names::NET_FAILOVERS, 1);
                            eprintln!(
                                "; request: endpoint `{}` failed ({last_err}); failing over",
                                ep.display()
                            );
                        }
                    }
                }
            }
            if last_err.is_empty() {
                last_err =
                    "every endpoint is cooling down behind an open circuit breaker".to_string();
            }
            if attempt == max_attempts {
                break;
            }
            // Server hint when present (single-endpoint semantics; a
            // fleet holds hints per endpoint instead), else exponential
            // backoff; deterministic jitter either way, clipped to
            // whatever deadline remains.
            let mut delay = if multi { None } else { round_hint }
                .unwrap_or(base << (attempt - 1))
                .saturating_add(jitter_ms(self.arg, attempt, base));
            if let Some(r) = remaining {
                delay = delay.min(r);
            }
            if multi {
                eprintln!(
                    "; request: round {attempt}/{max_attempts} failed across {} endpoints ({last_err}); retrying in {delay}ms",
                    self.states.len()
                );
            } else {
                eprintln!(
                    "; request: attempt {attempt}/{max_attempts} failed ({last_err}); retrying in {delay}ms"
                );
            }
            std::thread::sleep(Duration::from_millis(delay));
        }
        if multi {
            let mut msg = format!("all endpoints down after {max_attempts} rounds:");
            for st in &self.states {
                msg.push_str(&format!("\n  {}: {}", st.endpoint.display(), st.last_err));
            }
            Err(msg)
        } else if max_attempts == 1 {
            Err(last_err)
        } else {
            Err(format!(
                "request failed after {max_attempts} attempts: {last_err}"
            ))
        }
    }
}

/// `impactc request <endpoints> <files.c...>` — the fleet-aware resilient
/// client: sends the files to a running daemon and prints the pipeline
/// report. The first positional is a comma-separated endpoint list (Unix
/// socket paths and/or `host:port` TCP endpoints); with more than one
/// endpoint the client fails over in listed order, holds a per-endpoint
/// circuit breaker, and reports a terminal "all endpoints down" summary
/// naming each endpoint's last error. A cached response appends a
/// `; cache: hit` marker line. With `--ping`, runs the daemon's health
/// self-checks instead (no files, single endpoint only) and exits 0 only
/// when the daemon reports healthy. With `--stats`/`--stats-prom`/
/// `--stats-json` (also no files, single endpoint), fetches the daemon's
/// live registry snapshot — counters, latency histograms, queue and
/// table occupancy — rendered daemon-side as a table, Prometheus text
/// exposition, or schema-versioned JSON; the table additionally appends
/// the client's own per-endpoint circuit-breaker states.
///
/// Retryable failures (connect errors, truncated/torn responses, `busy`,
/// presumed-transient worker panics) are retried up to `--retries` times
/// with exponential backoff and deterministic jitter, honoring the
/// server's `retry-after-ms` hint per endpoint; `--deadline-ms` bounds
/// the whole exchange, shrinking the per-attempt socket timeouts as it
/// runs down. Retry/failover notices go to stderr so stdout stays
/// byte-identical to a fault-free run.
///
/// # Errors
///
/// Returns a terminal failure immediately, or the last retryable failure
/// once the rounds (or the deadline) are exhausted.
pub fn run_request(opts: &Options) -> Result<(i32, String), String> {
    // Client flags (--deadline-ms, endpoint shapes) validate through the
    // same call as the daemon's, so a bad value fails before any I/O.
    opts.check_service()?;
    let Some((endpoint_arg, files)) = opts.positional.split_first() else {
        return Err(format!(
            "request needs a socket path and at least one .c file\n{}",
            usage()
        ));
    };
    let stats_format = [
        (opts.stats, StatsFormat::Table),
        (opts.stats_prom, StatsFormat::Prom),
        (opts.stats_json, StatsFormat::Json),
    ]
    .into_iter()
    .find_map(|(on, format)| on.then_some(format));
    if opts.ping || stats_format.is_some() {
        if !files.is_empty() {
            return Err(format!(
                "request {} takes only the socket path (got {} extra args)\n{}",
                if opts.ping { "--ping" } else { "--stats" },
                files.len(),
                usage()
            ));
        }
    } else if files.is_empty() {
        return Err(format!(
            "request needs at least one .c file after the socket path\n{}",
            usage()
        ));
    }
    let endpoints = crate::transport::parse_endpoints(endpoint_arg)?;
    let mut sources = Vec::with_capacity(files.len());
    for f in files {
        let text = std::fs::read_to_string(f).map_err(|e| format!("cannot read `{f}`: {e}"))?;
        sources.push(Source::new(f.clone(), text));
    }

    let obs = telemetry::handle_for(opts);
    let mut fleet = Fleet::new(endpoints, endpoint_arg, opts, &obs, true);
    let salt = invocation_salt();
    let wire = if opts.ping {
        Request::Ping {
            trace: salt ^ TRACE_SALT,
        }
    } else if let Some(format) = stats_format {
        Request::Stats { format }
    } else {
        compile_request(sources, salt)
    };
    let mut result = fleet.exchange(&wire);
    // The daemon cannot see the client's breakers; the table is the one
    // place both sides of the wire are reported together.
    let table = Request::Stats {
        format: StatsFormat::Table,
    };
    if let (true, Ok((_, out))) = (wire == table, &mut result) {
        let now = std::time::Instant::now();
        for st in &fleet.states {
            out.push_str(&format!(
                "; breaker {}: {}\n",
                st.endpoint.display(),
                st.breaker.state_name(now)
            ));
        }
    }
    telemetry::write_artifacts(opts, &obs, None)?;
    result
}

/// `impactc batch --remote <endpoints>` — ships each file unit of the
/// batch to the daemon fleet instead of compiling locally, sharing one
/// [`Fleet`] (so breaker state carries from unit to unit) and printing a
/// deterministic per-unit report plus a summary line. The daemons own the
/// pool and the cache, so the local supervision knobs (`--jobs`,
/// `--cache-dir`, `--journal`, `--report-dir`, `--fault*`) are rejected;
/// retried units are idempotent on the daemon side, so a campaign's
/// stdout is byte-identical whether or not faults forced retries.
///
/// Exit contract matches local batch: 0 all ok, 10 partial, 11 all
/// failed.
///
/// # Errors
///
/// Returns a usage-style message for a malformed invocation; per-unit
/// failures are folded into the summary and the exit code instead.
pub fn run_batch_remote(opts: &Options) -> Result<(i32, String), String> {
    use crate::supervise::{EXIT_ALL_FAILED, EXIT_ALL_OK, EXIT_PARTIAL};

    let endpoint_arg = opts
        .remote
        .clone()
        .expect("run_batch_remote requires --remote");
    opts.check_service()?;
    if opts.jobs.is_some() || opts.cache_dir.is_some() || opts.cache_budget_bytes.is_some() {
        return Err(
            "--jobs/--cache-dir/--cache-budget-bytes configure the local pool and cache; \
             with --remote the daemons own both"
                .to_string(),
        );
    }
    if opts.journal.is_some() || opts.resume {
        return Err(
            "--journal/--resume supervise local units; a --remote campaign's durability \
             lives in the daemons' caches"
                .to_string(),
        );
    }
    if opts.report_dir.is_some() || !opts.faults.is_empty() || opts.fault_unit.is_some() {
        return Err(
            "--report-dir/--fault/--fault-unit apply to locally supervised units, not --remote \
             (arm faults on the daemon invocation instead)"
                .to_string(),
        );
    }
    let units = crate::supervise::enumerate_file_units(opts)?;
    if units.is_empty() {
        return Err(format!(
            "batch --remote needs at least one unit (a .c file or a directory of them)\n{}",
            usage()
        ));
    }
    let endpoints = crate::transport::parse_endpoints(&endpoint_arg)?;

    let obs = telemetry::handle_for(opts);
    // One fleet for the whole campaign — and no cache-hit markers, so
    // stdout is byte-identical whether the fleet's caches were warm.
    let mut fleet = Fleet::new(endpoints, &endpoint_arg, opts, &obs, false);
    let salt = invocation_salt();
    let mut out = String::new();
    let (mut ok, mut failed) = (0usize, 0usize);
    for (i, path) in units.iter().enumerate() {
        let resolved = match std::fs::read_to_string(path) {
            // Mix the unit index into the salt so two listings of the
            // same file stay distinct logical requests.
            Ok(text) => fleet.exchange(&compile_request(
                vec![Source::new(path.clone(), text)],
                salt ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            )),
            Err(e) => Err(format!("cannot read `{path}`: {e}")),
        };
        match resolved {
            Ok((exit, payload)) => {
                ok += 1;
                out.push_str(&format!("; unit {path}: exit {exit}\n"));
                out.push_str(&payload);
            }
            Err(msg) => {
                failed += 1;
                out.push_str(&format!("; unit {path}: failed: {msg}\n"));
            }
        }
    }
    out.push_str(&format!(
        "; batch --remote: {} units, {ok} ok, {failed} failed\n",
        units.len()
    ));
    telemetry::write_artifacts(opts, &obs, None)?;
    let code = if failed == 0 {
        EXIT_ALL_OK
    } else if ok == 0 {
        EXIT_ALL_FAILED
    } else {
        EXIT_PARTIAL
    };
    Ok((code, out))
}
