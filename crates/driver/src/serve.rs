//! `impactc serve` — a persistent compilation daemon on a Unix socket
//! and, with `--tcp HOST:PORT`, a TCP listener bound alongside it.
//!
//! The daemon accepts compile requests (a set of C sources framed by the
//! length-prefixed protocol below), runs each through the supervised
//! pipeline, and responds with the pipeline report. Both carriers run
//! the same accept loop, bounded queue, deadlines, and chaos points —
//! the carrier split lives in [`crate::transport`]. The design goals are
//! the batch supervisor's robustness guarantees, restated for a server:
//!
//! - **Bounded queue, explicit shedding.** Accepted connections go into a
//!   `sync_channel` bounded by `--queue-depth`. When the queue is full the
//!   accept thread responds `busy` immediately and closes — the daemon
//!   never buffers unbounded work, and clients learn about overload at
//!   once rather than timing out. The `busy` response carries a
//!   deterministic `retry-after-ms` hint sized to the queue.
//! - **Crash-isolated request workers.** Connection handling runs under
//!   `catch_unwind` end to end (and the compile itself additionally runs
//!   on the supervised worker thread with the wall-clock deadline from
//!   `--time-limit-ms`). A panicking request produces a structured
//!   `error` response — or, for a crash before the response could be
//!   written, a dropped connection the client treats as retryable; the
//!   daemon keeps serving either way.
//! - **Graceful drain.** SIGTERM/SIGINT flip an atomic flag (the handler
//!   does nothing else); the accept loop notices within milliseconds,
//!   stops accepting, lets the workers finish the queue and in-flight
//!   requests, publishes telemetry artifacts, removes the socket, and
//!   exits 0.
//! - **Per-request deadlines.** Socket I/O carries read/write timeouts —
//!   and configuring them is mandatory: a connection whose timeouts
//!   cannot be set is answered with a terminal protocol error, never
//!   served with unbounded I/O. The compile runs under the same deadline
//!   machinery as a batch attempt, so a hung client or a pathological
//!   source cannot wedge a worker forever.
//! - **Health checks.** A `ping` request runs the daemon's self-checks
//!   (queue headroom, cache-dir writability) through the normal queue
//!   path and reports `healthy`/`degraded` with the evidence, surfaced
//!   via `impactc request --ping` and the `serve:pings` counter.
//! - **TCP hardening.** A TCP peer is a network, not a local process, so
//!   the TCP carrier gets three extra defenses: `--max-conns N` caps
//!   accepted-but-unfinished connections at accept time (over the cap, an
//!   immediate `busy` — counted under `serve:conn-capped`); a slow-loris
//!   header deadline gives a TCP peer only [`TCP_HEADER_TIMEOUT_MS`] to
//!   deliver its complete request (a Unix peer keeps the ordinary
//!   [`IO_TIMEOUT_MS`]); and every compile request carries an
//!   **idempotency id** — the daemon remembers recently completed `ok`
//!   responses by id, so a retried request whose first response was lost
//!   on the wire is replayed verbatim (`serve:idempotent-replays`)
//!   instead of recompiled, and a fault-injected retry converges to the
//!   exact bytes of the fault-free run.
//!
//! With `--cache-dir`, requests are served from the content-addressed
//! artifact cache when the whole input set matches ([`crate::cache`]);
//! responses carry a `cached` flag so clients (and the serve smoke test)
//! can observe warm hits. `--cache-budget-bytes` bounds the cache with
//! LRU eviction (see the cache module docs for the pinning and restart
//! invariants).
//!
//! **Fault injection** (`--fault`, deterministic and replayable): the
//! service fault domains `serve:*`, `net:*`, and `cache:*` arm on the
//! daemon's own plan and are stripped from per-request pipeline options.
//! `serve:stall` (worker sleeps before compiling), `serve:panic` (worker
//! panics mid-compile), `serve:accept-crash` (handler panics before
//! reading the request — the client sees a dropped connection),
//! `net:torn-write` (response cut off mid-frame), `net:drop` (connection
//! closed without any response), `net:reset` (connection shut down right
//! after the request is read, before any work), `net:slow-read` (the
//! daemon dawdles before reading the request, holding the connection
//! open), `net:partial-frame` (only a prefix of the response *header
//! line* is written), `net:connect-refused[=N]` (the Nth accepted
//! connection is dropped on the floor before admission), `cache:bitflip`
//! and `cache:evict-read-race` (see [`crate::cache`]). Every injection
//! bumps `chaos:injected` plus a `chaos:<key>` counter, so a chaos run
//! can prove each armed fault actually fired.
//!
//! **The fleet-aware client.** `impactc request` (and `impactc batch
//! --remote`) accepts a comma-separated endpoint list — Unix socket
//! paths and `host:port` TCP addresses mixed freely — and fails over in
//! the listed (deterministic) order. Each endpoint carries its own
//! circuit breaker ([`crate::transport::Breaker`]): after
//! [`crate::transport::BREAKER_THRESHOLD`] consecutive retryable
//! failures the endpoint is skipped until its cooldown elapses, then a
//! single half-open `ping` probe decides between recovery and another
//! cooldown. A `busy` hint (`retry-after-ms`) defers only the endpoint
//! that sent it. When every endpoint is down, the terminal report names
//! each endpoint's last error. With a single endpoint the fleet
//! machinery degenerates to the PR 7 retry loop: retryable failures —
//! connect errors, truncated/torn responses, `busy`, presumed-transient
//! worker panics — retried with exponential backoff and deterministic
//! jitter, bounded by `--retries` and an overall `--deadline-ms` that
//! shrinks across attempts. Everything else — a protocol violation, a
//! server-side compile error, an unreadable local file — is terminal
//! and fails fast. Retry and failover notices go to stderr so stdout
//! stays byte-identical to a fault-free run.

use std::io::{BufRead, BufReader, Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use impact_cfront::Source;
use impact_obs::names;
use impact_vm::FaultPlan;

use crate::supervise::{
    jitter_ms, panic_message, DEFAULT_RETRIES, DEFAULT_RETRY_BASE_MS, DEFAULT_TIME_LIMIT_MS,
};
use crate::{cache, load_inputs, telemetry, usage, Options, RunSpec};

/// Protocol magic/version, the first token of every request and response.
/// v2 added the `ping` verb and the `retry-after-ms` response field; v3
/// added the compile request's idempotency id; v4 added the per-request
/// trace id on compile/ping frames, the `stats` verb, and the response's
/// span/counter summary section.
pub const PROTOCOL: &str = "impact-serve v4";

/// Cap on sources per request — a framing sanity bound, not a compile
/// limit (the pipeline already has its own governors).
const MAX_SOURCES: usize = 64;

/// Cap on a single name or source text, in bytes.
const MAX_FIELD_BYTES: usize = 1 << 22;

/// Socket read/write timeout: a stalled peer cannot wedge a worker.
const IO_TIMEOUT_MS: u64 = 10_000;

/// Slow-loris defense: how long a **TCP** peer gets to deliver its
/// complete request. A legitimate client writes the whole frame in one
/// go, so two seconds is generous; a byte-at-a-time peer loses its
/// connection long before it can pin a worker for [`IO_TIMEOUT_MS`].
const TCP_HEADER_TIMEOUT_MS: u64 = 2_000;

/// Injected dawdle for `--fault net:slow-read` (the daemon sits on the
/// accepted connection before reading — long enough that a test can
/// observe the connection being held, short enough to stay under every
/// client deadline).
const SLOW_READ_MS: u64 = 300;

/// How many completed `ok` responses the idempotency table remembers.
/// Bounds daemon memory; old ids age out FIFO, degrading a very late
/// retry to an ordinary recompile (which the cache then absorbs).
const IDEMPOTENCY_CAPACITY: usize = 256;

/// Accept-loop poll interval while the listener has no pending
/// connection; bounds SIGTERM reaction latency.
const POLL_MS: u64 = 5;

/// Injected stall duration for `--fault serve:stall` (long enough that a
/// test can reliably fill the queue behind the stalled worker).
const STALL_MS: u64 = 1500;

/// Per-queue-slot component of the deterministic `retry-after-ms` hint a
/// `busy` response carries: a deeper queue implies a longer drain, so the
/// hint scales with `--queue-depth`.
const BUSY_RETRY_SLOT_MS: u64 = 25;

/// A parsed request: a compile job, a health-check ping, or a live
/// stats snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Compile the translation unit formed by these sources, in order.
    Compile {
        /// The unit's sources.
        sources: Vec<Source>,
        /// Idempotency id: constant across a client's retries of one
        /// logical request, distinct across logical requests. The daemon
        /// replays a completed `ok` response for a repeated id verbatim.
        id: u64,
        /// Trace id: like the idempotency id it is constant across one
        /// logical request's retries, but it rides on every span and
        /// counter delta the daemon records for this request, so the
        /// client can stitch daemon-side work under its own span.
        trace: u64,
    },
    /// Run the daemon self-checks and report health.
    Ping {
        /// Trace id for the health check's daemon-side spans.
        trace: u64,
    },
    /// Snapshot the daemon's live registry (counters, histograms, queue
    /// and table occupancy) without compiling anything.
    Stats {
        /// How the daemon should render the snapshot.
        format: StatsFormat,
    },
}

/// Rendering requested by a `stats` protocol op. The daemon renders (it
/// owns the registry); the client prints the payload verbatim.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StatsFormat {
    /// Human-readable `; `-prefixed table.
    Table,
    /// Prometheus text exposition, suitable for scraping.
    Prom,
    /// Schema-versioned JSON.
    Json,
}

impl StatsFormat {
    /// The wire token naming this format.
    pub fn wire_name(self) -> &'static str {
        match self {
            StatsFormat::Table => "table",
            StatsFormat::Prom => "prom",
            StatsFormat::Json => "json",
        }
    }

    /// Parses a wire token.
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown token.
    pub fn parse(s: &str) -> Result<StatsFormat, String> {
        match s {
            "table" => Ok(StatsFormat::Table),
            "prom" => Ok(StatsFormat::Prom),
            "json" => Ok(StatsFormat::Json),
            _ => Err(format!("unknown stats format `{s}`")),
        }
    }
}

/// A serve response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// `ok`, `error`, or `busy`.
    pub status: String,
    /// Pipeline exit code (`1` for `error`; `0` for `busy`).
    pub exit: i32,
    /// True when the payload came from the artifact cache.
    pub cached: bool,
    /// For `busy`: how long the server suggests waiting before a retry.
    /// `0` means no hint.
    pub retry_after_ms: u64,
    /// Report text (`ok`), error message (`error`/`busy`).
    pub payload: String,
    /// The daemon's span summary for this request, rebased onto the
    /// request's own timeline (`start_us` 0 = the connection was
    /// accepted) and tagged with the request's trace id. Empty for
    /// errors, `busy`, and pre-v4 semantics.
    pub spans: Vec<impact_obs::SpanEvent>,
    /// Counter deltas this request caused daemon-side (cache hit/miss,
    /// pipeline counters), for the client to absorb into its own
    /// telemetry.
    pub counters: Vec<(String, u64)>,
}

/// A parsed summary section: the daemon's spans plus its counter deltas.
type SummarySection = (Vec<impact_obs::SpanEvent>, Vec<(String, u64)>);

impl Response {
    fn ok(exit: i32, cached: bool, payload: String) -> Response {
        Response {
            status: "ok".to_string(),
            exit,
            cached,
            retry_after_ms: 0,
            payload,
            spans: Vec::new(),
            counters: Vec::new(),
        }
    }

    fn error(message: String) -> Response {
        Response {
            status: "error".to_string(),
            exit: 1,
            cached: false,
            retry_after_ms: 0,
            payload: message,
            spans: Vec::new(),
            counters: Vec::new(),
        }
    }

    fn busy(retry_after_ms: u64) -> Response {
        Response {
            status: "busy".to_string(),
            exit: 0,
            cached: false,
            retry_after_ms,
            payload: "request queue is full; retry later".to_string(),
            spans: Vec::new(),
            counters: Vec::new(),
        }
    }

    fn with_summary(mut self, (spans, counters): SummarySection) -> Response {
        self.spans = spans;
        self.counters = counters;
        self
    }
}

// ----- wire protocol -------------------------------------------------------
//
// Request:   `impact-serve v4 compile <nsources> <id:016x> <trace:016x>\n`
//            then per source: `<name_len> <text_len>\n<name><text>`
//            or: `impact-serve v4 ping <trace:016x>\n`
//            or: `impact-serve v4 stats <table|prom|json>\n`
// Response:  `impact-serve v4 <status> <exit> <cached 0|1> <retry_after_ms>
//             <payload_len> <summary_len>\n<payload><summary>`
// Summary:   span records    `s <start_us> <dur_us> <trace:016x> <name_len>\n<name>`
//            counter records `c <value> <name_len>\n<name>`
//
// Length-prefixed framing keeps parsing allocation-bounded and makes
// truncation detectable (read_exact fails instead of blocking forever,
// thanks to the socket timeouts). Summary record names are themselves
// length-prefixed so span names with spaces or newlines survive the wire.

/// Writes a compile request for `sources` under idempotency id `id` and
/// trace id `trace`.
///
/// # Errors
///
/// Returns the underlying I/O error.
pub fn write_request<W: Write>(
    w: &mut W,
    sources: &[Source],
    id: u64,
    trace: u64,
) -> std::io::Result<()> {
    writeln!(
        w,
        "{PROTOCOL} compile {} {id:016x} {trace:016x}",
        sources.len()
    )?;
    for s in sources {
        writeln!(w, "{} {}", s.name.len(), s.text.len())?;
        w.write_all(s.name.as_bytes())?;
        w.write_all(s.text.as_bytes())?;
    }
    w.flush()
}

/// Writes a health-check ping request under trace id `trace`.
///
/// # Errors
///
/// Returns the underlying I/O error.
pub fn write_ping<W: Write>(w: &mut W, trace: u64) -> std::io::Result<()> {
    writeln!(w, "{PROTOCOL} ping {trace:016x}")?;
    w.flush()
}

/// Writes a live-stats request.
///
/// # Errors
///
/// Returns the underlying I/O error.
pub fn write_stats<W: Write>(w: &mut W, format: StatsFormat) -> std::io::Result<()> {
    writeln!(w, "{PROTOCOL} stats {}", format.wire_name())?;
    w.flush()
}

/// Reads and validates a request.
///
/// # Errors
///
/// Returns a human-readable framing/validation error.
pub fn read_request<R: BufRead>(r: &mut R) -> Result<Request, String> {
    let header = read_line(r)?;
    let rest = header
        .strip_prefix(PROTOCOL)
        .ok_or_else(|| format!("bad protocol header `{header}`"))?;
    if let Some(trace_hex) = rest.strip_prefix(" ping ") {
        let trace = u64::from_str_radix(trace_hex, 16)
            .map_err(|_| format!("bad trace id in `{header}`"))?;
        return Ok(Request::Ping { trace });
    }
    if let Some(fmt) = rest.strip_prefix(" stats ") {
        return Ok(Request::Stats {
            format: StatsFormat::parse(fmt)?,
        });
    }
    let rest = rest
        .strip_prefix(" compile ")
        .ok_or_else(|| format!("unknown request verb in `{header}`"))?;
    let mut tok = rest.split(' ');
    let n: usize = tok
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| format!("bad source count in `{header}`"))?;
    if n == 0 || n > MAX_SOURCES {
        return Err(format!("source count {n} outside 1..={MAX_SOURCES}"));
    }
    let id_hex = tok
        .next()
        .ok_or_else(|| format!("missing request id in `{header}`"))?;
    let id =
        u64::from_str_radix(id_hex, 16).map_err(|_| format!("bad request id in `{header}`"))?;
    let trace_hex = tok
        .next()
        .ok_or_else(|| format!("missing trace id in `{header}`"))?;
    let trace =
        u64::from_str_radix(trace_hex, 16).map_err(|_| format!("bad trace id in `{header}`"))?;
    if tok.next().is_some() {
        return Err(format!("trailing fields in `{header}`"));
    }
    let mut sources = Vec::with_capacity(n);
    for _ in 0..n {
        let frame = read_line(r)?;
        let (name_len, text_len) = frame
            .split_once(' ')
            .ok_or_else(|| format!("bad source frame `{frame}`"))?;
        let name_len: usize = name_len
            .parse()
            .map_err(|_| format!("bad name length in `{frame}`"))?;
        let text_len: usize = text_len
            .parse()
            .map_err(|_| format!("bad text length in `{frame}`"))?;
        if name_len > MAX_FIELD_BYTES || text_len > MAX_FIELD_BYTES {
            return Err(format!(
                "source frame `{frame}` exceeds the {MAX_FIELD_BYTES}-byte field cap"
            ));
        }
        let name = read_exact_utf8(r, name_len, "source name")?;
        let text = read_exact_utf8(r, text_len, "source text")?;
        sources.push(Source::new(name, text));
    }
    Ok(Request::Compile { sources, id, trace })
}

/// Renders a response's span/counter summary section. Record names are
/// length-prefixed so arbitrary span names survive the wire.
fn render_summary(resp: &Response) -> String {
    let mut s = String::new();
    for sp in &resp.spans {
        s.push_str(&format!(
            "s {} {} {:016x} {}\n{}",
            sp.start_us,
            sp.dur_us,
            sp.trace,
            sp.name.len(),
            sp.name
        ));
    }
    for (name, v) in &resp.counters {
        s.push_str(&format!("c {} {}\n{}", v, name.len(), name));
    }
    s
}

/// Parses a summary section back into span and counter records.
fn parse_summary(s: &str) -> Result<SummarySection, String> {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    let mut spans = Vec::new();
    let mut counters = Vec::new();
    let take_name = |pos: &mut usize, len: usize| -> Result<String, String> {
        let end = pos
            .checked_add(len)
            .filter(|&e| e <= bytes.len())
            .ok_or("truncated response summary name")?;
        let name = std::str::from_utf8(&bytes[*pos..end])
            .map_err(|_| "non-UTF-8 response summary name")?
            .to_string();
        *pos = end;
        Ok(name)
    };
    while pos < bytes.len() {
        let nl = bytes[pos..]
            .iter()
            .position(|&b| b == b'\n')
            .ok_or("truncated response summary record")?;
        let line = std::str::from_utf8(&bytes[pos..pos + nl])
            .map_err(|_| "non-UTF-8 response summary record")?;
        pos += nl + 1;
        let mut tok = line.split(' ');
        match tok.next() {
            Some("s") => {
                let start_us: u64 = tok
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| format!("bad summary span record `{line}`"))?;
                let dur_us: u64 = tok
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| format!("bad summary span record `{line}`"))?;
                let trace = tok
                    .next()
                    .and_then(|t| u64::from_str_radix(t, 16).ok())
                    .ok_or_else(|| format!("bad summary span trace in `{line}`"))?;
                let name_len: usize = tok
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| format!("bad summary span record `{line}`"))?;
                let name = take_name(&mut pos, name_len)?;
                spans.push(impact_obs::SpanEvent {
                    name,
                    start_us,
                    dur_us,
                    trace,
                });
            }
            Some("c") => {
                let value: u64 = tok
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| format!("bad summary counter record `{line}`"))?;
                let name_len: usize = tok
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| format!("bad summary counter record `{line}`"))?;
                let name = take_name(&mut pos, name_len)?;
                counters.push((name, value));
            }
            _ => return Err(format!("unknown summary record `{line}`")),
        }
    }
    Ok((spans, counters))
}

/// Writes a response.
///
/// # Errors
///
/// Returns the underlying I/O error.
pub fn write_response<W: Write>(w: &mut W, resp: &Response) -> std::io::Result<()> {
    let summary = render_summary(resp);
    writeln!(
        w,
        "{PROTOCOL} {} {} {} {} {} {}",
        resp.status,
        resp.exit,
        u8::from(resp.cached),
        resp.retry_after_ms,
        resp.payload.len(),
        summary.len()
    )?;
    w.write_all(resp.payload.as_bytes())?;
    w.write_all(summary.as_bytes())?;
    w.flush()
}

/// Reads and validates a response.
///
/// # Errors
///
/// Returns a human-readable framing/validation error.
pub fn read_response<R: BufRead>(r: &mut R) -> Result<Response, String> {
    let header = read_line(r)?;
    let rest = header
        .strip_prefix(PROTOCOL)
        .ok_or_else(|| format!("bad protocol header `{header}`"))?;
    let mut tok = rest.split_whitespace();
    let status = tok.next().ok_or("response missing status")?.to_string();
    if !matches!(status.as_str(), "ok" | "error" | "busy") {
        return Err(format!("unknown response status `{status}`"));
    }
    let exit: i32 = tok
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or("response missing exit code")?;
    let cached = match tok.next() {
        Some("0") => false,
        Some("1") => true,
        _ => return Err("response missing cached flag".to_string()),
    };
    let retry_after_ms: u64 = tok
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or("response missing retry-after field")?;
    let len: usize = tok
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or("response missing payload length")?;
    if len > MAX_FIELD_BYTES {
        return Err(format!(
            "response payload length {len} exceeds the {MAX_FIELD_BYTES}-byte cap"
        ));
    }
    let summary_len: usize = tok
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or("response missing summary length")?;
    if summary_len > MAX_FIELD_BYTES {
        return Err(format!(
            "response summary length {summary_len} exceeds the {MAX_FIELD_BYTES}-byte cap"
        ));
    }
    let payload = read_exact_utf8(r, len, "response payload")?;
    let summary = read_exact_utf8(r, summary_len, "response summary")?;
    let (spans, counters) = parse_summary(&summary)?;
    Ok(Response {
        status,
        exit,
        cached,
        retry_after_ms,
        payload,
        spans,
        counters,
    })
}

fn read_line<R: BufRead>(r: &mut R) -> Result<String, String> {
    let mut buf = Vec::new();
    r.read_until(b'\n', &mut buf)
        .map_err(|e| format!("read failed: {e}"))?;
    if buf.last() != Some(&b'\n') {
        return Err("truncated line (peer closed or timed out)".to_string());
    }
    buf.pop();
    String::from_utf8(buf).map_err(|_| "non-UTF-8 header line".to_string())
}

fn read_exact_utf8<R: Read>(r: &mut R, len: usize, what: &str) -> Result<String, String> {
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)
        .map_err(|e| format!("truncated {what}: {e}"))?;
    String::from_utf8(buf).map_err(|_| format!("non-UTF-8 {what}"))
}

// ----- live stats ----------------------------------------------------------

/// A point-in-time view of the daemon's live registry, answered over the
/// `stats` protocol op. The snapshot is taken lock-light (one collector
/// lock for counters/histograms, one each for the idempotency table,
/// flight ring, and cache index) and rendered by the pure functions
/// below, so rendering is unit-testable without a daemon.
pub struct StatsSnapshot {
    /// Microseconds since the daemon's telemetry epoch.
    pub uptime_us: u64,
    /// Worker threads serving the queue.
    pub workers: usize,
    /// Configured queue depth (`--queue-depth`).
    pub queue_depth: usize,
    /// Connections accepted but not yet picked up by a worker.
    pub queued: u64,
    /// Connections admitted and not yet finished (queued or in a worker).
    pub open: u64,
    /// The `--max-conns` cap, when one is set.
    pub max_conns: Option<u64>,
    /// Entries currently in the idempotency replay table.
    pub idem_len: usize,
    /// The idempotency table's capacity.
    pub idem_capacity: usize,
    /// Events currently buffered in the flight recorder ring.
    pub flight_len: usize,
    /// The flight recorder's ring capacity.
    pub flight_capacity: usize,
    /// Flight events discarded because the ring was full.
    pub flight_dropped: u64,
    /// Cache occupancy `(live entries, quarantined entries, bytes)`;
    /// `None` when the daemon runs without `--cache-dir`.
    pub cache: Option<(usize, usize, u64)>,
    /// Counter values, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Histograms, sorted by name.
    pub hists: Vec<(String, impact_obs::Histogram)>,
}

impl StatsSnapshot {
    fn headroom(&self) -> u64 {
        (self.queue_depth as u64).saturating_sub(self.queued)
    }
}

/// Renders a stats snapshot as the `; `-prefixed human-readable table
/// shown by `impactc request --stats`.
pub fn render_stats_table(s: &StatsSnapshot) -> String {
    let mut out = String::new();
    out.push_str("; serve stats\n");
    out.push_str(&format!("; uptime_us: {}\n", s.uptime_us));
    out.push_str(&format!("; workers: {}\n", s.workers));
    let cap = s
        .max_conns
        .map_or(String::new(), |c| format!(", {c} conn cap"));
    out.push_str(&format!(
        "; queue: {}/{} used, {} headroom, {} open{cap}\n",
        s.queued,
        s.queue_depth,
        s.headroom(),
        s.open
    ));
    out.push_str(&format!(
        "; idempotency: {}/{} entries\n",
        s.idem_len, s.idem_capacity
    ));
    out.push_str(&format!(
        "; flight: {}/{} buffered, {} dropped\n",
        s.flight_len, s.flight_capacity, s.flight_dropped
    ));
    match s.cache {
        None => out.push_str("; cache: disabled\n"),
        Some((live, quarantined, bytes)) => out.push_str(&format!(
            "; cache: {live} live, {quarantined} quarantined, {bytes} bytes\n"
        )),
    }
    out.push_str("; counters:\n");
    for (name, v) in &s.counters {
        out.push_str(&format!(";   {name} {v}\n"));
    }
    out.push_str("; histograms:\n");
    for (name, h) in &s.hists {
        out.push_str(&format!(
            ";   {name} count={} p50={} p90={} p99={}\n",
            h.count(),
            h.percentile(50),
            h.percentile(90),
            h.percentile(99)
        ));
    }
    out
}

/// Mangles a counter/histogram name into a valid Prometheus metric name:
/// `impact_` prefix, every non-alphanumeric byte replaced with `_`.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 7);
    out.push_str("impact_");
    for c in name.chars() {
        out.push(if c.is_ascii_alphanumeric() { c } else { '_' });
    }
    out
}

/// Renders a stats snapshot as Prometheus text exposition (gauges for
/// occupancy, counters for the counter registry, cumulative-bucket
/// histograms for the latency distributions).
pub fn render_stats_prom(s: &StatsSnapshot) -> String {
    let mut out = String::new();
    let mut gauge = |name: &str, v: u64| {
        out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
    };
    gauge("impact_uptime_us", s.uptime_us);
    gauge("impact_serve_workers", s.workers as u64);
    gauge("impact_serve_queue_depth", s.queue_depth as u64);
    gauge("impact_serve_queued", s.queued);
    gauge("impact_serve_queue_headroom", s.headroom());
    gauge("impact_serve_open_conns", s.open);
    gauge("impact_idempotency_entries", s.idem_len as u64);
    gauge("impact_flight_buffered", s.flight_len as u64);
    gauge("impact_flight_ring_dropped", s.flight_dropped);
    if let Some((live, quarantined, bytes)) = s.cache {
        gauge("impact_cache_live_entries", live as u64);
        gauge("impact_cache_quarantined_entries", quarantined as u64);
        gauge("impact_cache_bytes", bytes);
    }
    for (name, v) in &s.counters {
        let n = prom_name(name);
        out.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
    }
    for (name, h) in &s.hists {
        let n = prom_name(name);
        out.push_str(&format!("# TYPE {n} histogram\n"));
        let mut cum = 0u64;
        for (i, &c) in h.buckets().iter().enumerate() {
            cum += c;
            let le = if i == impact_obs::HISTOGRAM_BUCKETS - 1 {
                "+Inf".to_string()
            } else {
                impact_obs::Histogram::bucket_bound(i).to_string()
            };
            out.push_str(&format!("{n}_bucket{{le=\"{le}\"}} {cum}\n"));
        }
        out.push_str(&format!("{n}_sum {}\n", h.sum()));
        out.push_str(&format!("{n}_count {}\n", h.count()));
    }
    out
}

/// Schema version of [`render_stats_json`] output.
pub const STATS_SCHEMA_VERSION: u32 = 1;

/// Renders a stats snapshot as schema-versioned JSON (the shape the CI
/// `obs-smoke` job validates with `jq`).
pub fn render_stats_json(s: &StatsSnapshot) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\n  \"version\": {STATS_SCHEMA_VERSION},\n  \"kind\": \"impact-serve-stats\",\n"
    ));
    out.push_str(&format!("  \"uptime_us\": {},\n", s.uptime_us));
    out.push_str(&format!("  \"workers\": {},\n", s.workers));
    out.push_str(&format!(
        "  \"queue\": {{\"depth\": {}, \"queued\": {}, \"headroom\": {}, \"open\": {}, \"max_conns\": {}}},\n",
        s.queue_depth,
        s.queued,
        s.headroom(),
        s.open,
        s.max_conns.map_or("null".to_string(), |c| c.to_string())
    ));
    out.push_str(&format!(
        "  \"idempotency\": {{\"entries\": {}, \"capacity\": {}}},\n",
        s.idem_len, s.idem_capacity
    ));
    out.push_str(&format!(
        "  \"flight\": {{\"buffered\": {}, \"capacity\": {}, \"dropped\": {}}},\n",
        s.flight_len, s.flight_capacity, s.flight_dropped
    ));
    match s.cache {
        None => out.push_str("  \"cache\": null,\n"),
        Some((live, quarantined, bytes)) => out.push_str(&format!(
            "  \"cache\": {{\"live\": {live}, \"quarantined\": {quarantined}, \"bytes\": {bytes}}},\n"
        )),
    }
    out.push_str("  ");
    out.push_str(&impact_obs::counters_hists_json(
        s.counters.iter().map(|(k, v)| (k.as_str(), *v)),
        s.hists.iter().map(|(k, h)| (k.as_str(), h)),
    ));
    out.push_str("\n}\n");
    out
}

/// Renders a flight-recorder dump as incident JSON (`kind` distinguishes
/// a crash incident from the drain's final ring).
fn flight_json(
    kind: &str,
    reason: &str,
    trace: u64,
    events: &[impact_obs::FlightEvent],
    dropped: u64,
) -> String {
    use crate::report::json_str;
    let mut out = String::new();
    out.push_str("{\n  \"version\": 1,\n");
    out.push_str(&format!("  \"kind\": {},\n", json_str(kind)));
    out.push_str(&format!("  \"reason\": {},\n", json_str(reason)));
    out.push_str(&format!("  \"trace\": \"{trace:016x}\",\n"));
    out.push_str(&format!("  \"dropped\": {dropped},\n"));
    out.push_str("  \"flight\": [");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"seq\": {}, \"at_us\": {}, \"kind\": {}, \"detail\": {}, \"trace\": \"{:016x}\"}}",
            e.seq,
            e.at_us,
            json_str(&e.kind),
            json_str(&e.detail),
            e.trace
        ));
    }
    if !events.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

// ----- fault plumbing ------------------------------------------------------

/// True for fault specs that target the service layer — the serve daemon
/// (`serve:*`), its socket I/O (`net:*`), or the artifact cache's
/// lifecycle (`cache:*`). They arm on the daemon's plan (and the cache's,
/// for `cache:*`) and are stripped from per-request pipeline options
/// (mirroring `journal:*` handling); they also never contribute to cache
/// keys, since they cannot change pipeline output.
pub fn is_service_fault(spec: &str) -> bool {
    spec.starts_with("serve:") || spec.starts_with("net:") || spec.starts_with("cache:")
}

/// Builds the service-layer fault plan from the `serve:*`/`net:*`/
/// `cache:*` subset of `--fault`. The same plan (a clone sharing its
/// counters) is handed to the artifact cache, so `:N`/`=N` occurrence
/// counts stay global across the daemon and the cache.
pub(crate) fn service_fault_plan(opts: &Options) -> Result<FaultPlan, String> {
    opts.fault_plan_where(is_service_fault)
}

/// Per-request pipeline options: those of one batch unit
/// ([`Options::for_unit`]). The daemon aggregates telemetry and writes
/// artifacts once, at drain.
fn request_options(opts: &Options) -> Options {
    opts.for_unit()
}

// ----- the daemon ----------------------------------------------------------

#[cfg(unix)]
mod daemon {
    use super::*;
    use crate::transport::{Conn, Listener};
    use std::collections::{HashMap, VecDeque};
    use std::net::TcpListener;
    use std::os::unix::net::UnixListener;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::mpsc::{self, TrySendError};
    use std::sync::{Arc, Mutex};

    /// Drain-visible request totals, independent of whether telemetry is
    /// enabled (the summary line must always be accurate).
    #[derive(Default)]
    struct Totals {
        requests: AtomicU64,
        ok: AtomicU64,
        errors: AtomicU64,
        shed: AtomicU64,
        pings: AtomicU64,
        stats: AtomicU64,
    }

    fn bump(c: &AtomicU64) {
        c.fetch_add(1, Ordering::Relaxed);
    }

    /// Bounded memory of recently completed `ok` responses, keyed by the
    /// request's idempotency id. A retried request whose first response
    /// was lost on the wire is answered from here **verbatim** — same
    /// status, exit, `cached` flag, and payload bytes — so a fault-free
    /// run and a retried run produce identical client output, and the
    /// compile (plus its cache store) happens exactly once.
    #[derive(Default)]
    pub(super) struct Idempotency {
        state: Mutex<(VecDeque<u64>, HashMap<u64, Response>)>,
    }

    impl Idempotency {
        pub(super) fn lookup(&self, id: u64) -> Option<Response> {
            let st = self
                .state
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            st.1.get(&id).cloned()
        }

        /// Current occupancy, for the `stats` snapshot.
        pub(super) fn len(&self) -> usize {
            let st = self
                .state
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            st.1.len()
        }

        pub(super) fn insert(&self, id: u64, resp: Response) {
            let mut st = self
                .state
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let (order, map) = &mut *st;
            // First answer wins: a duplicate id is by definition a retry
            // of the same logical request, so the stored response is
            // already the one its client must see.
            if let std::collections::hash_map::Entry::Vacant(slot) = map.entry(id) {
                slot.insert(resp);
                order.push_back(id);
                if order.len() > IDEMPOTENCY_CAPACITY {
                    if let Some(old) = order.pop_front() {
                        map.remove(&old);
                    }
                }
            }
        }
    }

    /// Everything a worker needs to handle one connection; bundled so the
    /// handlers stay call-site readable.
    struct Ctx<'a> {
        opts: &'a Options,
        deadline: u64,
        cache: Option<&'a cache::Cache>,
        obs: &'a impact_obs::Telemetry,
        plan: &'a FaultPlan,
        totals: &'a Totals,
        jobs: usize,
        queue_depth: usize,
        /// Connections accepted but not yet picked up by a worker; the
        /// ping self-check reports queue headroom from this.
        queued: &'a AtomicU64,
        /// Connections admitted past the accept loop and not yet finished
        /// (queued or in a worker); `--max-conns` sheds against this.
        open: &'a AtomicU64,
        idem: &'a Idempotency,
        /// Bounded ring of recent structured events, dumped on crashes.
        flight: &'a impact_obs::FlightRecorder,
        /// Where incident/flight dumps land (`--report-dir`, else the
        /// cache dir, else nowhere).
        incident_dir: Option<&'a std::path::Path>,
        /// Sequence number for incident dump file names.
        incidents: &'a AtomicU64,
        /// The `--max-conns` cap, echoed into the `stats` snapshot.
        max_conns: Option<u64>,
    }

    /// Fires the named service fault if armed, making every injection
    /// visible in telemetry (`chaos:injected` + `chaos:<key>`).
    fn chaos(ctx: &Ctx, key: &str) -> bool {
        if ctx.plan.should_fail(key) {
            ctx.obs.count(names::CHAOS_INJECTED, 1);
            ctx.obs.count(&format!("chaos:{key}"), 1);
            true
        } else {
            false
        }
    }

    /// Records a flight-recorder event, surfacing ring evictions on the
    /// `flight:dropped` counter.
    fn flight(ctx: &Ctx, kind: &str, detail: &str, trace: u64) {
        if ctx.flight.record(kind, detail, trace) {
            ctx.obs.count(names::FLIGHT_DROPPED, 1);
        }
    }

    /// Dumps the flight ring into the incident path — the last moments
    /// before a worker panic, quarantine, or protocol violation. Dump
    /// failures are swallowed: the recorder must never take the daemon
    /// down with it.
    fn dump_incident(ctx: &Ctx, reason: &str, trace: u64) {
        let Some(dir) = ctx.incident_dir else { return };
        let n = ctx.incidents.fetch_add(1, Ordering::Relaxed);
        let (events, dropped) = ctx.flight.snapshot();
        let body = flight_json("serve-incident", reason, trace, &events, dropped);
        let _ = crate::report::atomic_write_in(
            dir,
            &format!("serve-incident-{n:04}.json"),
            body.as_bytes(),
        );
    }

    /// Builds the response's span/counter summary from a request's
    /// private collector: a queue-wait span at the origin, the request's
    /// own spans rebased past it (so `start_us` 0 = the connection was
    /// accepted), and the counter deltas plus the explicit cache
    /// hit/miss outcome (which the cache counted against the daemon's
    /// aggregate, not the request collector).
    fn summary_records(
        snap: &impact_obs::Metrics,
        trace: u64,
        wait_us: u64,
        cache_delta: Option<bool>,
    ) -> SummarySection {
        let mut spans = Vec::with_capacity(snap.spans.len() + 1);
        spans.push(impact_obs::SpanEvent {
            name: "serve:queue-wait".to_string(),
            start_us: 0,
            dur_us: wait_us,
            trace,
        });
        spans.extend(snap.spans.iter().map(|s| impact_obs::SpanEvent {
            name: s.name.clone(),
            start_us: s.start_us.saturating_add(wait_us),
            dur_us: s.dur_us,
            trace: s.trace,
        }));
        // The service span parents every request span in the stitched
        // trace: it starts where queue-wait ends and extends to the last
        // recorded span's end (the response write is not yet measurable
        // here).
        let service_end = spans
            .iter()
            .map(|s| s.start_us.saturating_add(s.dur_us))
            .max()
            .unwrap_or(wait_us);
        spans.insert(
            1,
            impact_obs::SpanEvent {
                name: "serve:request".to_string(),
                start_us: wait_us,
                dur_us: service_end.saturating_sub(wait_us),
                trace,
            },
        );
        let mut counters: Vec<(String, u64)> =
            snap.counters.iter().map(|(k, v)| (k.clone(), *v)).collect();
        match cache_delta {
            Some(true) => counters.push((names::CACHE_HITS.to_string(), 1)),
            Some(false) => counters.push((names::CACHE_MISSES.to_string(), 1)),
            None => {}
        }
        (spans, counters)
    }

    /// Takes the live registry snapshot behind the `stats` op.
    fn stats_snapshot(ctx: &Ctx) -> StatsSnapshot {
        let m = ctx.obs.snapshot();
        let (flight_events, flight_dropped) = ctx.flight.snapshot();
        StatsSnapshot {
            uptime_us: ctx.obs.now_us(),
            workers: ctx.jobs,
            queue_depth: ctx.queue_depth,
            queued: ctx.queued.load(Ordering::Relaxed),
            open: ctx.open.load(Ordering::Relaxed),
            max_conns: ctx.max_conns,
            idem_len: ctx.idem.len(),
            idem_capacity: IDEMPOTENCY_CAPACITY,
            flight_len: flight_events.len(),
            flight_capacity: ctx.flight.capacity(),
            flight_dropped,
            cache: ctx.cache.map(cache::Cache::entry_stats),
            counters: m.counters.into_iter().collect(),
            hists: m.hists.into_iter().collect(),
        }
    }

    /// Answers a `stats` request from the registry snapshot, rendered
    /// daemon-side in the requested format.
    fn stats_response(ctx: &Ctx, format: StatsFormat) -> Response {
        let snap = stats_snapshot(ctx);
        let payload = match format {
            StatsFormat::Table => render_stats_table(&snap),
            StatsFormat::Prom => render_stats_prom(&snap),
            StatsFormat::Json => render_stats_json(&snap),
        };
        Response::ok(0, false, payload)
    }

    /// Runs the daemon until SIGTERM/SIGINT, then drains and returns the
    /// serve summary with exit code 0.
    pub fn run_serve(opts: &Options) -> Result<(i32, String), String> {
        let service = opts.service_config()?;
        // Pipeline flags are validated once at startup so a bad config
        // fails the daemon immediately instead of every request.
        opts.validate_flags()?;
        let plan = service_fault_plan(opts)?;
        if opts.positional.len() != 1 {
            return Err(format!(
                "serve needs exactly one socket path (got {})\n{}",
                opts.positional.len(),
                usage()
            ));
        }
        let socket = PathBuf::from(&opts.positional[0]);
        if socket.exists() {
            // A previous daemon's stale socket; binding requires the name
            // to be free.
            std::fs::remove_file(&socket)
                .map_err(|e| format!("cannot remove stale socket `{}`: {e}", socket.display()))?;
        }
        // The daemon's aggregate is always at least counters-only — the
        // `stats` op needs a live registry whether or not artifacts were
        // requested; full span retention only when artifacts will be
        // written at drain.
        let obs = if opts.trace_out.is_some() || opts.metrics_out.is_some() {
            impact_obs::Telemetry::enabled()
        } else {
            impact_obs::Telemetry::counters_only()
        };
        // The cache shares the daemon's fault plan (cloned plans share
        // counters) so `cache:*` chaos arms in one place.
        let artifact_cache = service.open_cache(&obs, plan.clone())?;
        crate::supervise::silence_worker_panics();
        super::sig::install();
        // Bind TCP (when asked) *before* the Unix socket: the socket
        // file's existence is the readiness signal tests and operators
        // poll, so by the time it appears, every carrier is accepting.
        let mut listeners: Vec<Listener> = Vec::new();
        if let Some(addr) = &service.tcp {
            let l = TcpListener::bind(addr.as_str())
                .map_err(|e| format!("cannot bind serve TCP address `{addr}`: {e}"))?;
            listeners.push(Listener::Tcp(l));
        }
        let unix = UnixListener::bind(&socket)
            .map_err(|e| format!("cannot bind serve socket `{}`: {e}", socket.display()))?;
        listeners.push(Listener::Unix(unix));
        for l in &listeners {
            l.set_nonblocking(true)
                .map_err(|e| format!("cannot configure serve listener: {e}"))?;
        }
        let (tx, rx) = mpsc::sync_channel::<(Conn, std::time::Instant)>(service.queue_depth);
        let rx = Arc::new(Mutex::new(rx));
        let req_opts = request_options(opts);
        let deadline = opts.time_limit_ms.unwrap_or(DEFAULT_TIME_LIMIT_MS);
        let totals = Totals::default();
        let queued = AtomicU64::new(0);
        let open = AtomicU64::new(0);
        let idem = Idempotency::default();
        let flight_ring = impact_obs::FlightRecorder::new(service.flight_recorder);
        let incidents = AtomicU64::new(0);
        // Crash dumps land next to the other per-run artifacts: the
        // report dir when configured, else the cache dir, else nowhere.
        let incident_dir: Option<PathBuf> = opts
            .report_dir
            .as_ref()
            .map(PathBuf::from)
            .or_else(|| service.cache_dir.clone());
        if let Some(dir) = &incident_dir {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create incident dir `{}`: {e}", dir.display()))?;
        }
        let busy_hint = service.queue_depth as u64 * BUSY_RETRY_SLOT_MS;
        let ctx = Ctx {
            opts: &req_opts,
            deadline,
            cache: artifact_cache.as_ref(),
            obs: &obs,
            plan: &plan,
            totals: &totals,
            jobs: service.jobs,
            queue_depth: service.queue_depth,
            queued: &queued,
            open: &open,
            idem: &idem,
            flight: &flight_ring,
            incident_dir: incident_dir.as_deref(),
            incidents: &incidents,
            max_conns: service.max_conns,
        };

        std::thread::scope(|scope| {
            for w in 0..service.jobs {
                let rx = Arc::clone(&rx);
                let ctx = &ctx;
                std::thread::Builder::new()
                    .name(format!("{}-serve{w}", crate::supervise::WORKER_THREAD))
                    .spawn_scoped(scope, move || loop {
                        // Take the stream with the receiver lock scoped
                        // tightly: handling must not serialize workers.
                        let stream = {
                            let guard =
                                rx.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                            guard.recv()
                        };
                        let Ok((stream, accepted_at)) = stream else {
                            break;
                        };
                        ctx.queued.fetch_sub(1, Ordering::Relaxed);
                        handle_connection(stream, accepted_at, ctx);
                        ctx.open.fetch_sub(1, Ordering::Relaxed);
                    })
                    .expect("spawn serve worker");
            }
            // Accept loop, on this thread, round-robin over the bound
            // carriers. SIGTERM flips the flag; the loop notices within
            // POLL_MS and falls through to the drain.
            'accept: loop {
                if super::sig::requested() {
                    break;
                }
                let mut any_ready = false;
                for listener in &listeners {
                    match listener.accept() {
                        Ok(stream) => {
                            any_ready = true;
                            // `net:connect-refused[=N]`: the Nth accepted
                            // connection is dropped before admission —
                            // the peer sees an abrupt close, exactly as
                            // if a dying daemon's backlog were flushed.
                            if chaos(&ctx, "net:connect-refused") {
                                flight(&ctx, "fault", "net:connect-refused", 0);
                                drop(stream);
                                continue;
                            }
                            bump(&totals.requests);
                            obs.count(names::SERVE_REQUESTS, 1);
                            flight(&ctx, "accept", "connection admitted", 0);
                            // Accept-time connection cap (TCP hardening,
                            // enforced on every carrier): over the cap,
                            // shed immediately rather than queue.
                            if let Some(cap) = service.max_conns {
                                if open.load(Ordering::Relaxed) >= cap {
                                    bump(&totals.shed);
                                    obs.count(names::SERVE_SHED, 1);
                                    obs.count(names::SERVE_CONN_CAPPED, 1);
                                    flight(&ctx, "shed", "max-conns cap", 0);
                                    respond_busy(stream, busy_hint);
                                    continue;
                                }
                            }
                            queued.fetch_add(1, Ordering::Relaxed);
                            open.fetch_add(1, Ordering::Relaxed);
                            match tx.try_send((stream, std::time::Instant::now())) {
                                Ok(()) => {}
                                Err(TrySendError::Full((stream, _))) => {
                                    // Explicit overload shedding: an
                                    // immediate `busy` beats an unbounded
                                    // queue.
                                    queued.fetch_sub(1, Ordering::Relaxed);
                                    open.fetch_sub(1, Ordering::Relaxed);
                                    bump(&totals.shed);
                                    obs.count(names::SERVE_SHED, 1);
                                    flight(&ctx, "shed", "queue full", 0);
                                    respond_busy(stream, busy_hint);
                                }
                                Err(TrySendError::Disconnected(_)) => break 'accept,
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(_) => {
                            // Transient accept failure; the poll sleep
                            // below is the backoff.
                        }
                    }
                }
                if !any_ready {
                    std::thread::sleep(Duration::from_millis(POLL_MS));
                }
            }
            // Drain: closing the channel lets each worker finish its
            // in-flight request plus whatever is queued, then exit.
            drop(tx);
        });
        let _ = std::fs::remove_file(&socket);
        telemetry::write_artifacts(opts, &obs, None)?;
        // The final ring rides alongside the telemetry artifacts, so the
        // daemon's last moments are captured even on a clean drain.
        if let Some(dir) = &incident_dir {
            let (events, dropped) = flight_ring.snapshot();
            let body = flight_json("serve-flight-final", "drain", 0, &events, dropped);
            let _ = crate::report::atomic_write_in(dir, "flight-final.json", body.as_bytes());
        }
        let mut out = String::new();
        let _ = std::fmt::Write::write_fmt(
            &mut out,
            format_args!(
                "; serve: drained after {} requests, {} ok, {} errors, {} shed, {} pings, {} stats\n",
                totals.requests.load(Ordering::Relaxed),
                totals.ok.load(Ordering::Relaxed),
                totals.errors.load(Ordering::Relaxed),
                totals.shed.load(Ordering::Relaxed),
                totals.pings.load(Ordering::Relaxed),
                totals.stats.load(Ordering::Relaxed),
            ),
        );
        Ok((0, out))
    }

    /// Best-effort `busy` response on the accept thread; a short write
    /// timeout keeps a stalled client from wedging the accept loop. If
    /// the timeout cannot be configured, the write is skipped entirely —
    /// never attempted unbounded.
    fn respond_busy(stream: Conn, retry_after_ms: u64) {
        if stream
            .set_write_timeout(Some(Duration::from_millis(250)))
            .is_err()
        {
            return;
        }
        let mut stream = stream;
        let _ = write_response(&mut stream, &Response::busy(retry_after_ms));
    }

    /// Handles one connection end to end under `catch_unwind`: a panic
    /// anywhere in the handling (including the injected
    /// `serve:accept-crash`) costs that connection its response — the
    /// client sees a drop and retries — but never the daemon, which would
    /// otherwise die at scope join when the worker unwound.
    fn handle_connection(stream: Conn, accepted_at: std::time::Instant, ctx: &Ctx) {
        if catch_unwind(AssertUnwindSafe(|| {
            handle_connection_inner(stream, accepted_at, ctx);
        }))
        .is_err()
        {
            bump(&ctx.totals.errors);
            ctx.obs.count(names::SERVE_ERRORS, 1);
            flight(ctx, "panic", "connection handler panicked", 0);
            dump_incident(ctx, "handler-panic", 0);
        }
    }

    /// The connection body: configure timeouts (mandatory), read, handle
    /// (panic-isolated compile or ping self-check), respond. Never
    /// propagates errors — a broken peer only loses its own response.
    fn handle_connection_inner(stream: Conn, accepted_at: std::time::Instant, ctx: &Ctx) {
        let wait_us = accepted_at.elapsed().as_micros() as u64;
        let pickup = std::time::Instant::now();
        let pickup_us = ctx.obs.now_us();
        ctx.obs.record_value(names::HIST_QUEUE_WAIT, wait_us);
        if chaos(ctx, "serve:accept-crash") {
            flight(ctx, "fault", "serve:accept-crash", 0);
            panic!("injected accept-path crash");
        }
        // Unbounded I/O is never acceptable: a connection whose timeouts
        // cannot be configured gets a terminal protocol error (written
        // best-effort) instead of a compile. TCP peers get the tight
        // slow-loris deadline for delivering the request; a Unix peer is
        // a local process and keeps the ordinary IO timeout.
        let request_timeout = if stream.is_tcp() {
            TCP_HEADER_TIMEOUT_MS
        } else {
            IO_TIMEOUT_MS
        };
        if let Err(e) = stream
            .set_read_timeout(Some(Duration::from_millis(request_timeout)))
            .and_then(|()| stream.set_write_timeout(Some(Duration::from_millis(IO_TIMEOUT_MS))))
        {
            bump(&ctx.totals.errors);
            ctx.obs.count(names::SERVE_ERRORS, 1);
            let mut stream = stream;
            let _ = write_response(
                &mut stream,
                &Response::error(format!("cannot configure socket timeouts: {e}")),
            );
            return;
        }
        // `net:slow-read`: the daemon dawdles before reading, holding
        // the admitted connection open — the fault a `--max-conns` cap
        // (and a patient client) must absorb.
        if chaos(ctx, "net:slow-read") {
            std::thread::sleep(Duration::from_millis(SLOW_READ_MS));
        }
        let reader = match stream.try_clone() {
            Ok(r) => r,
            Err(_) => return,
        };
        let request = read_request(&mut BufReader::new(reader));
        let trace = match &request {
            Ok(Request::Compile { trace, .. }) | Ok(Request::Ping { trace }) => *trace,
            _ => 0,
        };
        // `net:reset`: the connection dies right after the request is on
        // the wire, before any work — unlike `net:drop`, nothing was
        // compiled, so the retry must redo (or idempotently replay) it.
        if chaos(ctx, "net:reset") {
            bump(&ctx.totals.errors);
            ctx.obs.count(names::SERVE_ERRORS, 1);
            flight(ctx, "fault", "net:reset", trace);
            dump_incident(ctx, "net:reset", trace);
            let _ = stream.shutdown_both();
            return;
        }
        let response = match request {
            Err(e) => {
                bump(&ctx.totals.errors);
                ctx.obs.count(names::SERVE_ERRORS, 1);
                flight(ctx, "protocol-error", &e, 0);
                dump_incident(ctx, "protocol-violation", 0);
                Response::error(format!("bad request: {e}"))
            }
            Ok(Request::Ping { trace }) => {
                bump(&ctx.totals.pings);
                ctx.obs.count(names::SERVE_PINGS, 1);
                flight(ctx, "request", "ping", trace);
                health_response(ctx)
            }
            Ok(Request::Stats { format }) => {
                bump(&ctx.totals.stats);
                ctx.obs.count(names::STATS_REQUESTS, 1);
                flight(ctx, "request", "stats", 0);
                stats_response(ctx, format)
            }
            Ok(Request::Compile { sources, id, trace }) => {
                flight(ctx, "request", "compile", trace);
                // The compile additionally runs on the supervised worker
                // thread under the wall-clock deadline; this catch_unwind
                // isolates panics in the compile path (and the injected
                // `serve:panic`) into a structured error response.
                match catch_unwind(AssertUnwindSafe(|| {
                    compile_request(&sources, id, trace, wait_us, ctx)
                })) {
                    Ok(resp) => {
                        if resp.status == "ok" {
                            bump(&ctx.totals.ok);
                            ctx.obs.count(names::SERVE_OK, 1);
                        } else {
                            bump(&ctx.totals.errors);
                            ctx.obs.count(names::SERVE_ERRORS, 1);
                        }
                        resp
                    }
                    Err(payload) => {
                        bump(&ctx.totals.errors);
                        ctx.obs.count(names::SERVE_ERRORS, 1);
                        let msg = panic_message(payload);
                        flight(ctx, "panic", &msg, trace);
                        dump_incident(ctx, "worker-panic", trace);
                        Response::error(format!("request worker panicked: {msg}"))
                    }
                }
            }
        };
        // Daemon-side latency accounting, tagged with the request's
        // trace: the queue wait it endured and the pickup-to-done
        // service time.
        let service_us = pickup.elapsed().as_micros() as u64;
        ctx.obs.record_value(names::HIST_SERVICE, service_us);
        let traced = ctx.obs.with_trace(trace);
        traced.add_span(
            "serve:queue-wait",
            pickup_us.saturating_sub(wait_us),
            wait_us,
        );
        traced.add_span("serve:request", pickup_us, service_us);
        // Network chaos on the response path: the work above is done (and
        // cached, and remembered by id), so the retrying client converges
        // to the same bytes.
        if chaos(ctx, "net:drop") {
            return;
        }
        let mut stream = stream;
        if chaos(ctx, "net:torn-write") {
            let mut wire = Vec::new();
            let _ = write_response(&mut wire, &response);
            let _ = stream.write_all(&wire[..wire.len() / 2]);
            let _ = stream.flush();
            return;
        }
        // `net:partial-frame`: only a prefix of the response *header
        // line* makes it out — the client cannot even learn the payload
        // length (torn-write, by contrast, usually dies mid-payload).
        if chaos(ctx, "net:partial-frame") {
            let mut wire = Vec::new();
            let _ = write_response(&mut wire, &response);
            let header_end = wire
                .iter()
                .position(|&b| b == b'\n')
                .map_or(wire.len(), |i| i + 1);
            let _ = stream.write_all(&wire[..header_end / 2]);
            let _ = stream.flush();
            return;
        }
        let _ = write_response(&mut stream, &response);
    }

    /// The daemon self-checks behind `ping`: queue headroom (from the
    /// accepted-but-unclaimed connection count) and cache-dir
    /// writability (a real probe write). Degraded states answer `ok`
    /// with exit 1 so `impactc request --ping` can gate on it.
    fn health_response(ctx: &Ctx) -> Response {
        let queued = ctx.queued.load(Ordering::Relaxed);
        let depth = ctx.queue_depth as u64;
        let headroom = depth.saturating_sub(queued);
        let cache_state = match ctx.cache {
            None => "disabled",
            Some(c) => {
                // A daemon killed between this write and the remove
                // leaks the probe file; the cache's startup scan reaps
                // it (see `cache::HEALTH_PROBE`).
                let probe = c.dir().join(cache::HEALTH_PROBE);
                match std::fs::write(&probe, b"ok") {
                    Ok(()) => {
                        let _ = std::fs::remove_file(&probe);
                        "writable"
                    }
                    Err(_) => "read-only",
                }
            }
        };
        let healthy = headroom > 0 && cache_state != "read-only";
        let payload = format!(
            "; serve: {}\n; workers: {}\n; queue: {queued}/{depth} used, {headroom} headroom\n; cache: {cache_state}\n",
            if healthy { "healthy" } else { "degraded" },
            ctx.jobs,
        );
        Response::ok(i32::from(!healthy), false, payload)
    }

    /// Compiles one request: idempotent replay, fault points, cache
    /// probe, supervised attempt, cache store. All the work records into
    /// a per-request collector tagged with the request's trace id; the
    /// collector is absorbed into the daemon aggregate and summarized
    /// into the response so the client can stitch daemon spans under its
    /// own.
    fn compile_request(
        sources: &[Source],
        id: u64,
        trace: u64,
        wait_us: u64,
        ctx: &Ctx,
    ) -> Response {
        // A repeated id means this exact logical request already landed
        // and only its response was lost: replay the remembered bytes —
        // no recompile, no second cache store, no `; cache: hit` marker
        // the first response didn't have. The stored response carries
        // its summary, so the replayed client still stitches a trace.
        if let Some(resp) = ctx.idem.lookup(id) {
            ctx.obs.count(names::SERVE_IDEMPOTENT_REPLAYS, 1);
            return resp;
        }
        if chaos(ctx, "serve:stall") {
            std::thread::sleep(Duration::from_millis(STALL_MS));
        }
        if chaos(ctx, "serve:panic") {
            flight(ctx, "fault", "serve:panic", trace);
            panic!("injected serve worker panic");
        }
        let pickup_us = ctx.obs.now_us();
        // The request's private collector always keeps spans (for the
        // response summary) even when the daemon aggregate is
        // counters-only.
        let req_obs = impact_obs::Telemetry::enabled().with_trace(trace);
        let inputs = match load_inputs(&ctx.opts.inputs) {
            Ok(i) => i,
            Err(e) => return Response::error(e),
        };
        let runs: Vec<RunSpec> = vec![(inputs, ctx.opts.args.clone())];
        let key = ctx.cache.map(|_| cache::unit_key(sources, &runs, ctx.opts));
        let mut cache_delta = None;
        if let (Some(c), Some(k)) = (ctx.cache, key) {
            let looked = {
                let _probe = req_obs.span("serve:cache-probe");
                c.load(k)
            };
            match looked {
                cache::Lookup::Hit(hit) => {
                    let snap = req_obs.snapshot();
                    ctx.obs.absorb(&snap, pickup_us);
                    return Response::ok(hit.exit, true, hit.report).with_summary(summary_records(
                        &snap,
                        trace,
                        wait_us,
                        Some(true),
                    ));
                }
                cache::Lookup::Quarantined { entry, reason } => {
                    // The entry has already been renamed aside with a
                    // cache incident report; the flight ring captures
                    // the moment for the serve-side dump too.
                    cache_delta = Some(false);
                    flight(ctx, "quarantine", &format!("{entry}: {reason}"), trace);
                    dump_incident(ctx, "cache-quarantine", trace);
                }
                cache::Lookup::Miss => cache_delta = Some(false),
            }
        }
        let compile_t0 = std::time::Instant::now();
        let (result, _wall) = crate::supervise::run_attempt(
            sources.to_vec(),
            runs,
            ctx.opts.clone(),
            ctx.deadline,
            req_obs.clone(),
        );
        ctx.obs
            .record_value(names::HIST_COMPILE, compile_t0.elapsed().as_micros() as u64);
        let snap = req_obs.snapshot();
        // Per-stage latency distributions, one histogram per span name
        // (the dynamic-name precedent is the `chaos:<key>` counters).
        for st in snap.span_stats() {
            ctx.obs
                .record_value(&format!("hist:stage:{}-us", st.name), st.total_us);
        }
        ctx.obs.absorb(&snap, pickup_us);
        match result {
            Ok((code, report)) => {
                if let (Some(c), Some(k)) = (ctx.cache, key) {
                    // Store failures degrade the cache, not the response.
                    let _ = c.store(k, code, &report);
                }
                let resp = Response::ok(code, false, report).with_summary(summary_records(
                    &snap,
                    trace,
                    wait_us,
                    cache_delta,
                ));
                // Only completed `ok` responses are replayable: an error
                // (a worker panic, say) is exactly what a retry should
                // get a fresh chance at.
                ctx.idem.insert(id, resp.clone());
                resp
            }
            Err(f) => Response::error(f.render()),
        }
    }
}

// ----- signal handling -----------------------------------------------------

/// SIGTERM/SIGINT latch. The handler performs exactly one atomic store —
/// the only operation that is unconditionally async-signal-safe — and the
/// accept loop polls the flag.
///
/// This binds the C `signal` function directly rather than depending on a
/// bindings crate; it is the crate's sole `unsafe_code` exception (see
/// the crate attribute in `lib.rs`).
#[cfg(unix)]
#[allow(unsafe_code)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    static SHUTDOWN: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    /// Installs the handlers and clears any previously latched request.
    pub fn install() {
        SHUTDOWN.store(false, Ordering::SeqCst);
        let handler = on_signal as *const () as usize;
        unsafe {
            signal(SIGTERM, handler);
            signal(SIGINT, handler);
        }
    }

    /// True once SIGTERM or SIGINT has been received.
    pub fn requested() -> bool {
        SHUTDOWN.load(Ordering::SeqCst)
    }
}

// ----- entry points --------------------------------------------------------

/// Runs the serve daemon (see the module docs).
///
/// # Errors
///
/// Returns a usage-style message for a malformed invocation or an
/// unbindable socket. A drained daemon returns `Ok((0, summary))`.
#[cfg(unix)]
pub fn run_serve(opts: &Options) -> Result<(i32, String), String> {
    daemon::run_serve(opts)
}

/// Serve is Unix-only (it is built on Unix domain sockets and POSIX
/// signals).
#[cfg(not(unix))]
pub fn run_serve(_opts: &Options) -> Result<(i32, String), String> {
    Err("serve requires a Unix platform (Unix sockets and signals)".to_string())
}

// ----- the client ----------------------------------------------------------

/// The outcome of one client attempt, classified by the retry taxonomy:
/// `Retry` failures are presumed transient (overload, a dropped or torn
/// connection, a panicked worker); `Fail` failures are deterministic
/// properties of the request or the server's answer, which retrying
/// cannot change.
#[cfg(unix)]
enum Outcome {
    Done(i32, String),
    Retry { why: String, after_ms: Option<u64> },
    Fail(String),
}

/// True for wire errors a retry can plausibly fix: a torn or dropped
/// response (truncation) or a failed/timed-out socket read. Protocol
/// violations (a well-formed but wrong header) stay terminal.
#[cfg(unix)]
fn wire_error_is_retryable(err: &str) -> bool {
    err.contains("truncated") || err.contains("read failed")
}

/// What one exchange sends: a health-check ping, a stats snapshot, or a
/// compile with its idempotency and trace ids.
#[cfg(unix)]
enum WirePayload<'a> {
    Ping {
        trace: u64,
    },
    Stats(StatsFormat),
    Compile {
        sources: &'a [Source],
        id: u64,
        trace: u64,
    },
}

/// Mixed into the invocation salt to derive a request's trace id as a
/// sibling of its idempotency id: both are stable across one logical
/// request's retries, but the two id spaces never collide.
#[cfg(unix)]
const TRACE_SALT: u64 = 0x7e4a_1c09_5b3d_f861;

/// A per-invocation salt for idempotency ids: the same invocation
/// retries under one id (so a lost response replays), while two separate
/// invocations of the same files get distinct ids (so each observes its
/// own fresh compile-or-cache decision).
#[cfg(unix)]
fn invocation_salt() -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| (d.as_secs() << 30) ^ u64::from(d.subsec_nanos()))
        .unwrap_or(0);
    (u64::from(std::process::id()) << 48) ^ nanos
}

/// FNV-1a over the salt and the request's sources: stable across the
/// retries of one logical request.
#[cfg(unix)]
fn request_id(sources: &[Source], salt: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(&salt.to_le_bytes());
    for s in sources {
        eat(s.name.as_bytes());
        eat(&[0]);
        eat(s.text.as_bytes());
        eat(&[0]);
    }
    h
}

/// One endpoint's client-side state: its breaker, its `retry-after-ms`
/// hold, and the last error it produced (for the terminal fleet report).
#[cfg(unix)]
struct EndpointState {
    endpoint: crate::transport::Endpoint,
    breaker: crate::transport::Breaker,
    not_before: Option<std::time::Instant>,
    last_err: String,
}

/// The fleet client: an ordered endpoint list with per-endpoint circuit
/// breakers, shared across every exchange of one invocation (so a
/// `batch --remote` campaign's breakers carry state from unit to unit).
#[cfg(unix)]
struct Fleet<'a> {
    /// The original comma-separated argument, for jitter keying.
    arg: &'a str,
    states: Vec<EndpointState>,
    opts: &'a Options,
    obs: &'a impact_obs::Telemetry,
    /// Append the `; cache: hit` marker to cached responses. `request`
    /// keeps the PR 6 marker; `batch --remote` suppresses it so campaign
    /// stdout is byte-identical whether the fleet's caches were warm.
    note_cache_hits: bool,
}

#[cfg(unix)]
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
        wire: &WirePayload,
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
            WirePayload::Ping { trace } => write_ping(&mut writer, *trace),
            WirePayload::Stats(format) => write_stats(&mut writer, *format),
            WirePayload::Compile { sources, id, trace } => {
                write_request(&mut writer, sources, *id, *trace)
            }
        };
        if let Err(e) = sent {
            return Outcome::Retry {
                why: format!("cannot send request: {e}"),
                after_ms: None,
            };
        }
        let resp = match read_response(&mut BufReader::new(stream)) {
            Ok(r) => r,
            Err(e) if wire_error_is_retryable(&e) => {
                return Outcome::Retry {
                    why: e,
                    after_ms: None,
                }
            }
            Err(e) => return Outcome::Fail(e),
        };
        let rtt_us = wall.elapsed().as_micros() as u64;
        self.obs.record_value(names::HIST_RTT, rtt_us);
        match resp.status.as_str() {
            "ok" => {
                if let WirePayload::Compile { trace, .. } = wire {
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
    fn exchange(&mut self, wire: &WirePayload) -> Result<(i32, String), String> {
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
                            match self.attempt_endpoint(
                                &ep,
                                &WirePayload::Ping { trace: 0 },
                                remaining,
                            ) {
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
#[cfg(unix)]
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
        WirePayload::Ping {
            trace: salt ^ TRACE_SALT,
        }
    } else if let Some(format) = stats_format {
        WirePayload::Stats(format)
    } else {
        WirePayload::Compile {
            sources: &sources,
            id: request_id(&sources, salt),
            trace: request_id(&sources, salt ^ TRACE_SALT),
        }
    };
    let mut result = fleet.exchange(&wire);
    if matches!(wire, WirePayload::Stats(StatsFormat::Table)) {
        // The daemon cannot see the client's breakers; the table is the
        // one place both sides of the wire are reported together.
        if let Ok((_, out)) = &mut result {
            let now = std::time::Instant::now();
            for st in &fleet.states {
                out.push_str(&format!(
                    "; breaker {}: {}\n",
                    st.endpoint.display(),
                    st.breaker.state_name(now)
                ));
            }
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
#[cfg(unix)]
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
            Ok(text) => {
                let sources = vec![Source::new(path.clone(), text)];
                // Mix the unit index into the salt so two listings of the
                // same file stay distinct logical requests.
                let unit_salt = salt ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                fleet.exchange(&WirePayload::Compile {
                    sources: &sources,
                    id: request_id(&sources, unit_salt),
                    trace: request_id(&sources, unit_salt ^ TRACE_SALT),
                })
            }
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

/// Request is Unix-only, like serve.
#[cfg(not(unix))]
pub fn run_request(_opts: &Options) -> Result<(i32, String), String> {
    Err("request requires a Unix platform (Unix sockets)".to_string())
}

/// Remote batch is Unix-only, like serve.
#[cfg(not(unix))]
pub fn run_batch_remote(_opts: &Options) -> Result<(i32, String), String> {
    Err("batch --remote requires a Unix platform".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn request_round_trips_through_the_wire_format() {
        let sources = vec![
            Source::new("a.c", "int main() { return 0; }\n"),
            Source::new("dir/b.c", "int helper() { return 1; }\n"),
        ];
        let mut wire = Vec::new();
        write_request(
            &mut wire,
            &sources,
            0xdead_beef_0042_1234,
            0x0123_4567_89ab_cdef,
        )
        .unwrap();
        let req = read_request(&mut std::io::Cursor::new(wire)).unwrap();
        assert_eq!(
            req,
            Request::Compile {
                sources,
                id: 0xdead_beef_0042_1234,
                trace: 0x0123_4567_89ab_cdef
            }
        );
    }

    #[test]
    fn ping_round_trips_through_the_wire_format() {
        let mut wire = Vec::new();
        write_ping(&mut wire, 0xfeed_f00d).unwrap();
        let req = read_request(&mut std::io::Cursor::new(wire)).unwrap();
        assert_eq!(req, Request::Ping { trace: 0xfeed_f00d });
    }

    #[test]
    fn stats_round_trips_through_the_wire_format() {
        for format in [StatsFormat::Table, StatsFormat::Prom, StatsFormat::Json] {
            let mut wire = Vec::new();
            write_stats(&mut wire, format).unwrap();
            let req = read_request(&mut std::io::Cursor::new(wire)).unwrap();
            assert_eq!(req, Request::Stats { format });
        }
        let err = read_request(&mut std::io::Cursor::new(
            b"impact-serve v4 stats yaml\n".to_vec(),
        ))
        .unwrap_err();
        assert!(err.contains("unknown stats format"), "{err}");
    }

    #[test]
    fn response_round_trips_including_cached_and_retry_after() {
        for resp in [
            Response::ok(0, true, "; report\n".to_string()),
            Response::ok(3, false, String::new()),
            Response::error("compile failed: x.c:1:1".to_string()),
            Response::busy(200),
            Response::busy(0),
        ] {
            let mut wire = Vec::new();
            write_response(&mut wire, &resp).unwrap();
            let back = read_response(&mut std::io::Cursor::new(wire)).unwrap();
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn response_summary_round_trips_spans_and_counters() {
        // Names with spaces and newlines must survive: summary record
        // names are length-prefixed, not line-delimited.
        let resp = Response::ok(0, false, "; report\n".to_string()).with_summary((
            vec![
                impact_obs::SpanEvent {
                    name: "serve:queue-wait".to_string(),
                    start_us: 0,
                    dur_us: 42,
                    trace: 0xabc,
                },
                impact_obs::SpanEvent {
                    name: "odd name\nwith newline".to_string(),
                    start_us: 42,
                    dur_us: 7,
                    trace: 0,
                },
            ],
            vec![("cache:misses".to_string(), 1), ("c x".to_string(), 9)],
        ));
        let mut wire = Vec::new();
        write_response(&mut wire, &resp).unwrap();
        let back = read_response(&mut std::io::Cursor::new(wire)).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn torn_summary_reads_as_truncated_and_is_retryable() {
        let resp = Response::ok(0, false, "r".to_string()).with_summary((
            vec![impact_obs::SpanEvent {
                name: "inline:plan".to_string(),
                start_us: 1,
                dur_us: 2,
                trace: 3,
            }],
            Vec::new(),
        ));
        let mut wire = Vec::new();
        write_response(&mut wire, &resp).unwrap();
        // Cut the frame mid-summary: the client must classify this as a
        // truncation (retryable), never hang or trust a partial record.
        wire.truncate(wire.len() - 4);
        let err = read_response(&mut std::io::Cursor::new(wire)).unwrap_err();
        assert!(err.contains("truncated"), "{err}");
        assert!(wire_error_is_retryable(&err));
    }

    #[test]
    fn malformed_requests_are_rejected_not_trusted() {
        let id = "0000000000000001";
        let tr = "0000000000000002";
        for (wire, needle) in [
            (
                format!("impact-serve v9 compile 1 {id} {tr}\n").into_bytes(),
                "bad protocol",
            ),
            (
                format!("impact-serve v4 decompile 1 {id} {tr}\n").into_bytes(),
                "unknown request verb",
            ),
            (
                format!("impact-serve v4 compile 0 {id} {tr}\n").into_bytes(),
                "source count",
            ),
            (
                format!("impact-serve v4 compile 999 {id} {tr}\n").into_bytes(),
                "source count",
            ),
            (
                // A compile header without the idempotency id is a
                // protocol violation, not a silent default.
                b"impact-serve v4 compile 1\n".to_vec(),
                "missing request id",
            ),
            (
                // Likewise a v4 header without the trace id.
                format!("impact-serve v4 compile 1 {id}\n").into_bytes(),
                "missing trace id",
            ),
            (
                format!("impact-serve v4 compile 1 zz {tr}\n").into_bytes(),
                "bad request id",
            ),
            (
                format!("impact-serve v4 compile 1 {id} zz\n").into_bytes(),
                "bad trace id",
            ),
            (
                format!("impact-serve v4 compile 1 {id} {tr} extra\n").into_bytes(),
                "trailing fields",
            ),
            (
                format!("impact-serve v4 compile 1 {id} {tr}\n5 99999999\n").into_bytes(),
                "field cap",
            ),
            (
                format!("impact-serve v4 compile 1 {id} {tr}\n3 4\na.cint").into_bytes(),
                "truncated",
            ),
            (b"impact-serve v4 compile 1".to_vec(), "truncated line"),
            // v1/v2/v3 clients are rejected at the header, not
            // half-parsed: a v3 frame against a v4 daemon is a clean
            // protocol-version error.
            (b"impact-serve v1 compile 1\n".to_vec(), "bad protocol"),
            (
                format!("impact-serve v2 compile 1 {id}\n").into_bytes(),
                "bad protocol",
            ),
            (
                format!("impact-serve v3 compile 1 {id}\n").into_bytes(),
                "bad protocol",
            ),
            (b"impact-serve v3 ping\n".to_vec(), "bad protocol"),
        ] {
            let err = read_request(&mut std::io::Cursor::new(wire)).unwrap_err();
            assert!(err.contains(needle), "`{err}` should mention `{needle}`");
        }
    }

    #[test]
    fn malformed_responses_name_the_missing_field() {
        for (wire, needle) in [
            (&b"impact-serve v4 ok 0\n"[..], "cached flag"),
            (&b"impact-serve v4 ok 0 1\n"[..], "retry-after"),
            (&b"impact-serve v4 ok 0 1 5\n"[..], "payload length"),
            (&b"impact-serve v4 ok 0 1 5 0\n"[..], "summary length"),
            (
                &b"impact-serve v4 maybe 0 1 0 0 0\n"[..],
                "unknown response",
            ),
            (&b"impact-serve v3 ok 0 1 0 5\n"[..], "bad protocol"),
            (&b"impact-serve v2 ok 0 1 0\n"[..], "bad protocol"),
        ] {
            let err = read_response(&mut std::io::Cursor::new(wire.to_vec())).unwrap_err();
            assert!(err.contains(needle), "`{err}` should mention `{needle}`");
        }
    }

    #[cfg(unix)]
    #[test]
    fn request_ids_are_stable_per_invocation_and_distinct_across_salts() {
        let sources = vec![Source::new("a.c", "int main() { return 0; }\n")];
        let again = vec![Source::new("a.c", "int main() { return 0; }\n")];
        assert_eq!(request_id(&sources, 7), request_id(&again, 7));
        assert_ne!(request_id(&sources, 7), request_id(&sources, 8));
        let other = vec![Source::new("a.c", "int main() { return 1; }\n")];
        assert_ne!(request_id(&sources, 7), request_id(&other, 7));
    }

    #[cfg(unix)]
    #[test]
    fn idempotency_table_replays_and_evicts_fifo() {
        let idem = super::daemon::Idempotency::default();
        assert!(idem.lookup(1).is_none());
        idem.insert(1, Response::ok(0, false, "one\n".to_string()));
        // Re-inserting under the same id keeps the first answer.
        idem.insert(1, Response::ok(0, false, "other\n".to_string()));
        assert_eq!(idem.lookup(1).unwrap().payload, "one\n");
        for id in 2..=(IDEMPOTENCY_CAPACITY as u64 + 1) {
            idem.insert(id, Response::ok(0, false, format!("{id}\n")));
        }
        // Capacity inserts later evicted the oldest entry, and only it.
        assert!(idem.lookup(1).is_none());
        assert_eq!(idem.lookup(2).unwrap().payload, "2\n");
        assert_eq!(
            idem.lookup(IDEMPOTENCY_CAPACITY as u64 + 1)
                .unwrap()
                .payload,
            format!("{}\n", IDEMPOTENCY_CAPACITY as u64 + 1)
        );
    }

    #[test]
    fn wire_retryability_separates_truncation_from_protocol_violations() {
        assert!(wire_error_is_retryable(
            "truncated line (peer closed or timed out)"
        ));
        assert!(wire_error_is_retryable("truncated response payload: eof"));
        assert!(wire_error_is_retryable("read failed: timed out"));
        assert!(!wire_error_is_retryable("bad protocol header `x`"));
        assert!(!wire_error_is_retryable("unknown response status `maybe`"));
    }

    #[test]
    fn service_faults_are_stripped_from_request_options() {
        let o = Options::parse(&strs(&[
            "serve",
            "s.sock",
            "--fault",
            "serve:panic=1",
            "--fault",
            "net:torn-write",
            "--fault",
            "cache:bitflip=2",
            "--fault",
            "inline:verify",
        ]))
        .unwrap();
        let r = request_options(&o);
        assert_eq!(r.faults, strs(&["inline:verify"]));
        assert!(r.quiet);
        assert!(r.positional.is_empty());
        for spec in ["serve:stall", "net:drop", "cache:evict-read-race"] {
            assert!(is_service_fault(spec), "{spec}");
        }
        assert!(!is_service_fault("inline:verify"));
        assert!(!is_service_fault("journal:torn-write"));
    }

    #[test]
    fn service_fault_plan_arms_only_service_specs() {
        let o = Options::parse(&strs(&[
            "serve",
            "s.sock",
            "--fault",
            "serve:stall=1",
            "--fault",
            "inline:verify",
        ]))
        .unwrap();
        let plan = service_fault_plan(&o).unwrap();
        assert!(plan.should_fail("serve:stall"));
        assert!(!plan.should_fail("inline:verify"));
        let bad = Options::parse(&strs(&["serve", "s.sock", "--fault", "serve:stall=x"])).unwrap();
        assert!(service_fault_plan(&bad).is_err());
    }

    fn sample_snapshot() -> StatsSnapshot {
        let mut h = impact_obs::Histogram::default();
        h.record(100);
        h.record(3000);
        h.record(3000);
        StatsSnapshot {
            uptime_us: 123_456,
            workers: 4,
            queue_depth: 8,
            queued: 2,
            open: 3,
            max_conns: Some(16),
            idem_len: 5,
            idem_capacity: IDEMPOTENCY_CAPACITY,
            flight_len: 7,
            flight_capacity: 256,
            flight_dropped: 1,
            cache: Some((10, 1, 4096)),
            counters: vec![
                ("serve:ok".to_string(), 9),
                ("serve:requests".to_string(), 12),
            ],
            hists: vec![("hist:queue-wait-us".to_string(), h)],
        }
    }

    #[test]
    fn stats_table_reports_every_registry_section() {
        let out = render_stats_table(&sample_snapshot());
        assert!(out.contains("; serve stats\n"));
        assert!(out.contains("; workers: 4\n"));
        assert!(out.contains("; queue: 2/8 used, 6 headroom, 3 open, 16 conn cap\n"));
        assert!(out.contains(&format!(
            "; idempotency: 5/{IDEMPOTENCY_CAPACITY} entries\n"
        )));
        assert!(out.contains("; flight: 7/256 buffered, 1 dropped\n"));
        assert!(out.contains("; cache: 10 live, 1 quarantined, 4096 bytes\n"));
        assert!(out.contains(";   serve:ok 9\n"));
        assert!(out.contains(";   hist:queue-wait-us count=3"));
        // Every line is a `; ` comment so the table can never be
        // mistaken for a pipeline report.
        assert!(out.lines().all(|l| l.starts_with(';')));
    }

    #[test]
    fn stats_prom_is_valid_text_exposition_with_cumulative_buckets() {
        let out = render_stats_prom(&sample_snapshot());
        assert!(out.contains("# TYPE impact_serve_queued gauge\nimpact_serve_queued 2\n"));
        assert!(out.contains("# TYPE impact_serve_ok counter\nimpact_serve_ok 9\n"));
        assert!(out.contains("# TYPE impact_hist_queue_wait_us histogram\n"));
        assert!(out.contains("impact_hist_queue_wait_us_bucket{le=\"+Inf\"} 3\n"));
        assert!(out.contains("impact_hist_queue_wait_us_sum 6100\n"));
        assert!(out.contains("impact_hist_queue_wait_us_count 3\n"));
        // Strict shape: every line is `# TYPE name kind` or `name[{le}] value`,
        // names start with impact_ and contain no unmangled separators.
        let mut cum_prev = 0u64;
        for line in out.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut f = rest.split(' ');
                let name = f.next().unwrap();
                assert!(name.starts_with("impact_"), "{line}");
                assert!(matches!(f.next(), Some("gauge" | "counter" | "histogram")));
                assert_eq!(f.next(), None);
                cum_prev = 0;
            } else {
                let (name, value) = line.rsplit_once(' ').expect(line);
                assert!(name.starts_with("impact_"), "{line}");
                assert!(!name.contains(':') && !name.contains('-'), "{line}");
                let v: u64 = value.parse().expect(line);
                // Histogram buckets are cumulative, so monotone.
                if name.contains("_bucket{") {
                    assert!(v >= cum_prev, "non-monotone bucket in {line}");
                    cum_prev = v;
                }
            }
        }
    }

    #[test]
    fn stats_json_schema_includes_occupancy_and_buckets() {
        let out = render_stats_json(&sample_snapshot());
        assert!(out.contains("\"version\": 1"));
        assert!(out.contains("\"kind\": \"impact-serve-stats\""));
        assert!(out.contains(
            "\"queue\": {\"depth\": 8, \"queued\": 2, \"headroom\": 6, \"open\": 3, \"max_conns\": 16}"
        ));
        assert!(out.contains("\"flight\": {\"buffered\": 7, \"capacity\": 256, \"dropped\": 1}"));
        assert!(out.contains("\"cache\": {\"live\": 10, \"quarantined\": 1, \"bytes\": 4096}"));
        assert!(out.contains("\"name\": \"hist:queue-wait-us\""));
        assert!(out.contains("\"buckets_us\": ["));
        // No cache / no cap render as null, not as absent keys.
        let mut bare = sample_snapshot();
        bare.cache = None;
        bare.max_conns = None;
        let out = render_stats_json(&bare);
        assert!(out.contains("\"cache\": null"));
        assert!(out.contains("\"max_conns\": null"));
    }

    #[test]
    fn flight_json_escapes_details_and_names_the_trace() {
        let events = vec![impact_obs::FlightEvent {
            seq: 41,
            at_us: 99,
            kind: "panic".to_string(),
            detail: "worker said \"boom\"\nand died".to_string(),
            trace: 0xabc,
        }];
        let out = flight_json("serve-incident", "worker-panic", 0xabc, &events, 2);
        assert!(out.contains("\"kind\": \"serve-incident\""));
        assert!(out.contains("\"reason\": \"worker-panic\""));
        assert!(out.contains("\"trace\": \"0000000000000abc\""));
        assert!(out.contains("\"dropped\": 2"));
        assert!(out.contains("\\\"boom\\\"\\nand died"));
        assert!(!out.contains("\"boom\"\nand"), "raw quote/newline leaked");
        assert!(out.contains("\"seq\": 41"));
    }

    #[test]
    fn summary_rejects_unknown_record_tags() {
        let err = parse_summary("x 1 2\nab").unwrap_err();
        assert!(err.contains("unknown summary record"), "{err}");
    }
}
