//! The `impactc serve` daemon: the accept loop, the workers, the
//! idempotency table, the live stats snapshot with its three
//! renderers, the flight-recorder JSON and the signal latch.

use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, Read, Write};
use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use impact_cfront::Source;
use impact_obs::names;
use impact_vm::{panic_message, FaultPlan};

use super::service_fault_plan;
use super::wire::{
    read_request, write_response, Request, Response, StatsFormat, SummarySection, IO_TIMEOUT_MS,
};
use crate::supervise::DEFAULT_TIME_LIMIT_MS;
use crate::transport::{Conn, Listener};
use crate::{cache, load_inputs, telemetry, usage, Options, RunSpec};

/// Slow-loris defense: how long a **TCP** peer gets to deliver its
/// complete request — one deadline for the whole read, not a timeout
/// per read. A legitimate client writes the whole frame in one go, so
/// two seconds is generous; a byte-at-a-time peer loses its connection
/// long before it can pin a worker for [`IO_TIMEOUT_MS`].
const TCP_HEADER_TIMEOUT_MS: u64 = 2_000;

/// Injected dawdle for `--fault net:slow-read` (the daemon sits on the
/// accepted connection before reading — long enough that a test can
/// observe the connection being held, short enough to stay under every
/// client deadline).
const SLOW_READ_MS: u64 = 300;

/// How many completed `ok` responses the idempotency table remembers.
/// Bounds daemon memory; old ids age out FIFO, degrading a very late
/// retry to an ordinary recompile (which the cache then absorbs).
pub(super) const IDEMPOTENCY_CAPACITY: usize = 256;

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
pub(super) fn flight_json(
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
    fn state(&self) -> std::sync::MutexGuard<'_, (VecDeque<u64>, HashMap<u64, Response>)> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    pub(super) fn lookup(&self, id: u64) -> Option<Response> {
        self.state().1.get(&id).cloned()
    }

    /// Current occupancy, for the `stats` snapshot.
    pub(super) fn len(&self) -> usize {
        self.state().1.len()
    }

    pub(super) fn insert(&self, id: u64, resp: Response) {
        let mut st = self.state();
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

/// Binds the Unix socket under a hidden name beside it (`.` and the pid
/// in hex) and renames it into place once it listens: `bind` creates
/// the file before `listen`, and the file is the readiness signal. A
/// directory that leaves `sun_path` no room for that name binds in place.
fn bind_listening(socket: &std::path::Path) -> std::io::Result<UnixListener> {
    let staging = socket.with_file_name(format!(".{:x}", std::process::id()));
    let _ = std::fs::remove_file(&staging);
    match UnixListener::bind(&staging) {
        Ok(l) => std::fs::rename(&staging, socket).map(|()| l),
        Err(e) if e.kind() == std::io::ErrorKind::InvalidInput => UnixListener::bind(socket),
        Err(e) => Err(e),
    }
}

/// Runs the serve daemon (see the module docs) until SIGTERM/SIGINT,
/// then drains and returns the serve summary with exit code 0.
///
/// # Errors
///
/// Returns a usage-style message for a malformed invocation or an
/// unbindable socket.
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
        // A previous daemon's stale socket would read as ready until
        // this daemon renames its own into place.
        std::fs::remove_file(&socket)
            .map_err(|e| format!("cannot remove stale socket `{}`: {e}", socket.display()))?;
    }
    // The daemon's aggregate is always at least counters-only — the
    // `stats` op and the drain totals need a live registry whether or
    // not artifacts were requested; full span retention only when
    // artifacts will be written at drain.
    let obs = if opts.trace_out.is_some() || opts.metrics_out.is_some() {
        impact_obs::Telemetry::enabled()
    } else {
        impact_obs::Telemetry::counters_only()
    };
    // The cache shares the daemon's fault plan (cloned plans share
    // counters) so `cache:*` chaos arms in one place.
    let artifact_cache = service.open_cache(&obs, plan.clone())?;
    crate::supervise::silence_worker_panics();
    sig::install();
    // Bind TCP (when asked) *before* the Unix socket: the socket
    // file's existence is the readiness signal tests and operators
    // poll, so by the time it appears, every carrier is accepting.
    let mut listeners: Vec<Listener> = Vec::new();
    if let Some(addr) = &service.tcp {
        let l = TcpListener::bind(addr.as_str())
            .map_err(|e| format!("cannot bind serve TCP address `{addr}`: {e}"))?;
        listeners.push(Listener::Tcp(l));
    }
    let unix = bind_listening(&socket)
        .map_err(|e| format!("cannot bind serve socket `{}`: {e}", socket.display()))?;
    listeners.push(Listener::Unix(unix));
    for l in &listeners {
        l.set_nonblocking(true)
            .map_err(|e| format!("cannot configure serve listener: {e}"))?;
    }
    let (tx, rx) = mpsc::sync_channel::<(Conn, std::time::Instant)>(service.queue_depth);
    let rx = Arc::new(Mutex::new(rx));
    let req_opts = opts.for_unit();
    let deadline = opts.time_limit_ms.unwrap_or(DEFAULT_TIME_LIMIT_MS);
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
                        let guard = rx.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
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
            if sig::requested() {
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
                        obs.count(names::SERVE_REQUESTS, 1);
                        flight(&ctx, "accept", "connection admitted", 0);
                        // Accept-time connection cap (TCP hardening,
                        // enforced on every carrier): over the cap,
                        // shed immediately rather than queue.
                        if let Some(cap) = service.max_conns {
                            if open.load(Ordering::Relaxed) >= cap {
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
    let counters = obs.snapshot().counters;
    let n = |name| counters.get(name).copied().unwrap_or(0);
    Ok((
        0,
        format!(
            "; serve: drained after {} requests, {} ok, {} errors, {} shed, {} pings, {} stats\n",
            n(names::SERVE_REQUESTS),
            n(names::SERVE_OK),
            n(names::SERVE_ERRORS),
            n(names::SERVE_SHED),
            n(names::SERVE_PINGS),
            n(names::STATS_REQUESTS),
        ),
    ))
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
    // slow-loris deadline for delivering the whole request; a Unix peer
    // is a local process and gets the ordinary IO timeout for it.
    let request_timeout = Duration::from_millis(if stream.is_tcp() {
        TCP_HEADER_TIMEOUT_MS
    } else {
        IO_TIMEOUT_MS
    });
    if let Err(e) = stream
        .set_read_timeout(Some(request_timeout))
        .and_then(|()| stream.set_write_timeout(Some(Duration::from_millis(IO_TIMEOUT_MS))))
    {
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
        Ok(conn) => Deadline {
            conn,
            until: std::time::Instant::now() + request_timeout,
        },
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
        ctx.obs.count(names::SERVE_ERRORS, 1);
        flight(ctx, "fault", "net:reset", trace);
        dump_incident(ctx, "net:reset", trace);
        let _ = stream.shutdown_both();
        return;
    }
    let response = match request {
        Err(e) => {
            ctx.obs.count(names::SERVE_ERRORS, 1);
            flight(ctx, "protocol-error", &e, 0);
            dump_incident(ctx, "protocol-violation", 0);
            Response::error(format!("bad request: {e}"))
        }
        Ok(Request::Ping { trace }) => {
            ctx.obs.count(names::SERVE_PINGS, 1);
            flight(ctx, "request", "ping", trace);
            health_response(ctx)
        }
        Ok(Request::Stats { format }) => {
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
                        ctx.obs.count(names::SERVE_OK, 1);
                    } else {
                        ctx.obs.count(names::SERVE_ERRORS, 1);
                    }
                    resp
                }
                Err(payload) => {
                    ctx.obs.count(names::SERVE_ERRORS, 1);
                    let msg = panic_message(&*payload);
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
    // The frame goes out in one write: encoded first, then cut short by
    // `net:torn-write` (mid-frame) or `net:partial-frame` (only a prefix
    // of the *header line*, so the client cannot even learn the payload
    // length).
    let mut wire = Vec::new();
    let _ = write_response(&mut wire, &response);
    let cut = if chaos(ctx, "net:torn-write") {
        wire.len() / 2
    } else if chaos(ctx, "net:partial-frame") {
        wire.iter()
            .position(|&b| b == b'\n')
            .map_or(wire.len(), |i| i + 1)
            / 2
    } else {
        wire.len()
    };
    let mut stream = stream;
    let _ = stream.write_all(&wire[..cut]);
}

/// A connection whose reads share one deadline: each read's timeout is
/// re-armed with the time left, so a peer that trickles bytes cannot
/// stretch the request past the deadline one read at a time.
struct Deadline {
    conn: Conn,
    until: std::time::Instant,
}

impl Read for Deadline {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = self
            .until
            .saturating_duration_since(std::time::Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        self.conn.set_read_timeout(Some(left))?;
        self.conn.read(buf)
    }
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
fn compile_request(sources: &[Source], id: u64, trace: u64, wait_us: u64, ctx: &Ctx) -> Response {
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

// ----- signal handling -----------------------------------------------------

/// SIGTERM/SIGINT latch. The handler performs exactly one atomic store —
/// the only operation that is unconditionally async-signal-safe — and the
/// accept loop polls the flag.
///
/// This binds the C `signal` function directly rather than depending on a
/// bindings crate; it is the crate's sole `unsafe_code` exception (see
/// the crate attribute in `lib.rs`).
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
