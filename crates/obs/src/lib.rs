//! # impact-obs — pipeline telemetry core
//!
//! A deliberately small span/counter recorder threaded through every stage
//! of the compilation pipeline (front end, verifier, call graph, inline
//! sub-phases, optimization passes, VM execution). Two properties shape
//! the design:
//!
//! * **Zero cost when disabled.** A disabled [`Telemetry`] handle is a
//!   `None` — [`Telemetry::span`] and [`Telemetry::count`] neither
//!   allocate nor read the clock, so instrumented code paths behave
//!   identically whether or not anyone is listening. This is the
//!   "minimum coverage instrumentation" discipline: observation must not
//!   perturb the thing observed.
//! * **No wall-clock in durable payloads.** Timings live only in
//!   clearly-marked `*_us` fields of the exported JSON, so consumers
//!   (tests, the campaign journal's byte-identical resume contract) can
//!   strip or avoid them. Counters — instruction counts, cache hits,
//!   site classes — are fully deterministic.
//!
//! Exporters: [`chrome_trace_json`] renders spans as Chrome trace-event
//! JSON (load it at `chrome://tracing` or <https://ui.perfetto.dev> for a
//! flamegraph); [`metrics_json`] renders aggregated per-stage counters
//! and timings as schema-versioned JSON.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Canonical counter names for the compilation service (pool, cache,
/// serve). Centralizing them here keeps the producer (driver) and the
/// consumers (metrics JSON assertions in tests and CI `jq` probes) from
/// drifting apart on spelling.
pub mod names {
    /// Tasks executed by a worker other than the one they were seeded to.
    pub const POOL_STEALS: &str = "pool:steals";
    /// Worker threads the pool actually ran with.
    pub const POOL_WORKERS: &str = "pool:workers";
    /// Cache probes that returned a validated entry.
    pub const CACHE_HITS: &str = "cache:hits";
    /// Cache probes that found no entry (includes quarantined probes,
    /// which degrade to a miss).
    pub const CACHE_MISSES: &str = "cache:misses";
    /// Entries published through the atomic staging path.
    pub const CACHE_STORES: &str = "cache:stores";
    /// Entries that failed validation and were renamed aside.
    pub const CACHE_QUARANTINED: &str = "cache:quarantined";
    /// Requests accepted off the socket (including ones later shed).
    pub const SERVE_REQUESTS: &str = "serve:requests";
    /// Requests that compiled and responded `ok`.
    pub const SERVE_OK: &str = "serve:ok";
    /// Requests that responded `error` (bad protocol, failed compile,
    /// worker panic).
    pub const SERVE_ERRORS: &str = "serve:errors";
    /// Requests shed with an immediate `busy` response (queue full).
    pub const SERVE_SHED: &str = "serve:shed";
    /// `ping` health checks answered by the daemon.
    pub const SERVE_PINGS: &str = "serve:pings";
    /// Entries (live or quarantined) deleted by budget eviction.
    pub const CACHE_EVICTIONS: &str = "cache:evictions";
    /// On-disk bytes reclaimed by budget eviction.
    pub const CACHE_EVICTED_BYTES: &str = "cache:evicted-bytes";
    /// Eviction passes that ran out of unpinned victims while still over
    /// budget (an in-flight read kept its entry alive).
    pub const CACHE_PIN_SKIPS: &str = "cache:pin-skips";
    /// Deterministic service faults that actually fired (each also bumps
    /// a dynamic `chaos:<fault-key>` counter naming the exact point).
    pub const CHAOS_INJECTED: &str = "chaos:injected";
    /// Retried requests answered verbatim from the daemon's idempotency
    /// table instead of recompiling.
    pub const SERVE_IDEMPOTENT_REPLAYS: &str = "serve:idempotent-replays";
    /// Connections shed at accept time by the `--max-conns` cap.
    pub const SERVE_CONN_CAPPED: &str = "serve:conn-capped";
    /// Client circuit breakers that tripped open (threshold consecutive
    /// retryable failures on one endpoint).
    pub const BREAKER_OPENED: &str = "breaker:opened";
    /// Half-open probes sent to cooled-down endpoints.
    pub const BREAKER_PROBES: &str = "breaker:probes";
    /// Breakers that closed again after a successful probe or request.
    pub const BREAKER_RECOVERED: &str = "breaker:recovered";
    /// Retryable endpoint failures that moved the client to another
    /// endpoint in the fleet.
    pub const NET_FAILOVERS: &str = "net:failovers";
    /// `stats` protocol requests answered from the daemon's live
    /// registry snapshot.
    pub const STATS_REQUESTS: &str = "stats:requests";
    /// Flight-recorder events discarded because the bounded ring was
    /// full (each discard evicts the oldest event).
    pub const FLIGHT_DROPPED: &str = "flight:dropped";
    /// Histogram: how long a connection sat in the serve queue before a
    /// worker picked it up.
    pub const HIST_QUEUE_WAIT: &str = "hist:queue-wait-us";
    /// Histogram: worker pickup to response written (daemon-side service
    /// time).
    pub const HIST_SERVICE: &str = "hist:service-us";
    /// Histogram: client-observed wire round-trip per exchange.
    pub const HIST_RTT: &str = "hist:rtt-us";
    /// Histogram: supervised compile-attempt wall time per request.
    pub const HIST_COMPILE: &str = "hist:compile-us";

    /// Every service counter name, for exhaustiveness checks.
    pub const ALL: &[&str] = &[
        POOL_STEALS,
        POOL_WORKERS,
        CACHE_HITS,
        CACHE_MISSES,
        CACHE_STORES,
        CACHE_QUARANTINED,
        CACHE_EVICTIONS,
        CACHE_EVICTED_BYTES,
        CACHE_PIN_SKIPS,
        SERVE_REQUESTS,
        SERVE_OK,
        SERVE_ERRORS,
        SERVE_SHED,
        SERVE_PINGS,
        SERVE_IDEMPOTENT_REPLAYS,
        SERVE_CONN_CAPPED,
        BREAKER_OPENED,
        BREAKER_PROBES,
        BREAKER_RECOVERED,
        NET_FAILOVERS,
        CHAOS_INJECTED,
        STATS_REQUESTS,
        FLIGHT_DROPPED,
        HIST_QUEUE_WAIT,
        HIST_SERVICE,
        HIST_RTT,
        HIST_COMPILE,
    ];
}

/// One completed span: a named region of pipeline work with its offset
/// from the telemetry epoch and its duration, both in microseconds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Stage name, e.g. `inline:plan` or `opt:constant-fold`.
    pub name: String,
    /// Start offset from the handle's creation, in microseconds.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Trace id tying this span to one logical request across the wire;
    /// `0` means untraced (local pipeline work).
    pub trace: u64,
}

/// Aggregated statistics for one span name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanStat {
    /// Stage name.
    pub name: String,
    /// Number of times the span was entered.
    pub count: u64,
    /// Total time across all entries, in microseconds.
    pub total_us: u64,
}

/// Number of fixed log2-spaced buckets in a [`Histogram`].
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A fixed log-spaced-bucket latency histogram. Bucket boundaries are
/// deterministic powers of two — bucket `0` holds the value `0`, bucket
/// `i` (for `0 < i < 31`) holds values in `[2^(i-1), 2^i)`, and the last
/// bucket absorbs everything at or above `2^30` — so two runs that record
/// the same values always produce the same bucket counts, and merging is
/// plain element-wise addition. Percentiles are derived from the counts
/// and report the matching bucket's inclusive upper bound.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    /// The bucket a value lands in: its bit length, clamped to the last
    /// bucket (values beyond `2^30` never index out of range).
    pub fn bucket_index(v: u64) -> usize {
        ((u64::BITS - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// The inclusive upper bound of bucket `i`; the last bucket is
    /// unbounded (`u64::MAX`, rendered as `+Inf` in Prometheus form).
    pub fn bucket_bound(i: usize) -> u64 {
        if i >= HISTOGRAM_BUCKETS - 1 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The raw bucket counts.
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// The `p`-th percentile (`0..=100`) as the upper bound of the first
    /// bucket whose cumulative count reaches the rank. Zero samples
    /// report `0` — never a NaN, since everything here is integral.
    pub fn percentile(&self, p: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (self.count.saturating_mul(p)).div_ceil(100).max(1);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Self::bucket_bound(i);
            }
        }
        Self::bucket_bound(HISTOGRAM_BUCKETS - 1)
    }

    /// Folds another histogram in: bucket counts, count, and sum are
    /// summed element-wise, so merging is associative and commutative
    /// (serial and parallel worker merges agree).
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }
}

#[derive(Default)]
struct Collector {
    spans: Vec<SpanEvent>,
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, Histogram>,
}

struct Inner {
    base: Instant,
    /// When false (a `counters_only` handle), raw span events are folded
    /// away on drop instead of accumulated — a long-lived daemon keeps
    /// bounded memory while its counters and histograms stay live.
    keep_spans: bool,
    state: Mutex<Collector>,
}

/// A cheaply-clonable telemetry handle. Disabled by default; every clone
/// shares the same recording. The `trace` id rides on the handle (not
/// the shared collector), so `with_trace` clones tag their spans without
/// affecting sibling clones.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
    trace: u64,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Telemetry {
    /// A disabled handle: never allocates, never reads the clock.
    pub fn disabled() -> Self {
        Telemetry {
            inner: None,
            trace: 0,
        }
    }

    /// An enabled handle recording into a fresh collector.
    pub fn enabled() -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                base: Instant::now(),
                keep_spans: true,
                state: Mutex::new(Collector::default()),
            })),
            trace: 0,
        }
    }

    /// An enabled handle that keeps counters and histograms but folds raw
    /// span events away on drop. A long-lived daemon uses this so the
    /// `stats` protocol op always has a live registry to answer from
    /// without the span vector growing for the daemon's whole lifetime.
    pub fn counters_only() -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                base: Instant::now(),
                keep_spans: false,
                state: Mutex::new(Collector::default()),
            })),
            trace: 0,
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A clone of this handle whose spans are tagged with `trace`. The
    /// collector is shared; only the tag differs.
    pub fn with_trace(&self, trace: u64) -> Telemetry {
        Telemetry {
            inner: self.inner.clone(),
            trace,
        }
    }

    /// The trace id this handle tags spans with (`0` = untraced).
    pub fn trace(&self) -> u64 {
        self.trace
    }

    /// Microseconds elapsed since the handle's epoch (`0` when disabled).
    pub fn now_us(&self) -> u64 {
        match &self.inner {
            None => 0,
            Some(inner) => inner.base.elapsed().as_micros() as u64,
        }
    }

    /// Opens a span; the region is recorded when the returned guard drops.
    /// On a disabled handle this is a no-op returning an inert guard.
    pub fn span(&self, name: &str) -> Span {
        match &self.inner {
            None => Span { rec: None },
            Some(inner) => Span {
                rec: Some(SpanRec {
                    inner: Arc::clone(inner),
                    name: name.to_string(),
                    trace: self.trace,
                    started: Instant::now(),
                }),
            },
        }
    }

    /// Records a pre-measured span at an explicit offset, tagged with
    /// this handle's trace id. This is how the serve daemon rebases a
    /// request's spans onto its own timeline and the client stitches
    /// daemon spans under its round-trip span.
    pub fn add_span(&self, name: &str, start_us: u64, dur_us: u64) {
        if let Some(inner) = &self.inner {
            if !inner.keep_spans {
                return;
            }
            let mut st = inner.state.lock().unwrap_or_else(|p| p.into_inner());
            st.spans.push(SpanEvent {
                name: name.to_string(),
                start_us,
                dur_us,
                trace: self.trace,
            });
        }
    }

    /// Adds `n` to the named counter. No-op on a disabled handle.
    pub fn count(&self, name: &str, n: u64) {
        if let Some(inner) = &self.inner {
            let mut st = inner.state.lock().unwrap_or_else(|p| p.into_inner());
            *st.counters.entry(name.to_string()).or_insert(0) += n;
        }
    }

    /// Records one value into the named histogram. No-op on a disabled
    /// handle.
    pub fn record_value(&self, name: &str, v: u64) {
        if let Some(inner) = &self.inner {
            let mut st = inner.state.lock().unwrap_or_else(|p| p.into_inner());
            st.hists.entry(name.to_string()).or_default().record(v);
        }
    }

    /// Folds a finished snapshot into this handle: counters and
    /// histograms are summed, spans (when this handle keeps them) are
    /// appended shifted by `offset_us` onto this handle's timeline with
    /// their trace tags preserved. The serve daemon absorbs each
    /// request's private collector this way.
    pub fn absorb(&self, m: &Metrics, offset_us: u64) {
        if let Some(inner) = &self.inner {
            let mut st = inner.state.lock().unwrap_or_else(|p| p.into_inner());
            if inner.keep_spans {
                st.spans.extend(m.spans.iter().map(|s| SpanEvent {
                    name: s.name.clone(),
                    start_us: s.start_us.saturating_add(offset_us),
                    dur_us: s.dur_us,
                    trace: s.trace,
                }));
            }
            for (k, v) in &m.counters {
                *st.counters.entry(k.clone()).or_insert(0) += v;
            }
            for (k, h) in &m.hists {
                st.hists.entry(k.clone()).or_default().merge(h);
            }
        }
    }

    /// Takes a snapshot of everything recorded so far. A disabled handle
    /// snapshots as empty.
    pub fn snapshot(&self) -> Metrics {
        match &self.inner {
            None => Metrics::default(),
            Some(inner) => {
                let st = inner.state.lock().unwrap_or_else(|p| p.into_inner());
                Metrics {
                    spans: st.spans.clone(),
                    counters: st.counters.clone(),
                    hists: st.hists.clone(),
                }
            }
        }
    }
}

struct SpanRec {
    inner: Arc<Inner>,
    name: String,
    trace: u64,
    started: Instant,
}

/// RAII guard for an open span; records on drop.
pub struct Span {
    rec: Option<SpanRec>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(rec) = self.rec.take() {
            if !rec.inner.keep_spans {
                return;
            }
            let dur_us = rec.started.elapsed().as_micros() as u64;
            let start_us = rec
                .started
                .saturating_duration_since(rec.inner.base)
                .as_micros() as u64;
            let mut st = rec.inner.state.lock().unwrap_or_else(|p| p.into_inner());
            st.spans.push(SpanEvent {
                name: rec.name,
                start_us,
                dur_us,
                trace: rec.trace,
            });
        }
    }
}

/// A snapshot of recorded telemetry: raw span events, counters, and
/// latency histograms.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Every recorded span, in completion order.
    pub spans: Vec<SpanEvent>,
    /// Counter values, keyed by name (sorted).
    pub counters: BTreeMap<String, u64>,
    /// Latency histograms, keyed by name (sorted).
    pub hists: BTreeMap<String, Histogram>,
}

impl Metrics {
    /// Aggregates spans by name (count + total duration), sorted by name.
    pub fn span_stats(&self) -> Vec<SpanStat> {
        let mut by_name: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let e = by_name.entry(&s.name).or_insert((0, 0));
            e.0 += 1;
            e.1 += s.dur_us;
        }
        by_name
            .into_iter()
            .map(|(name, (count, total_us))| SpanStat {
                name: name.to_string(),
                count,
                total_us,
            })
            .collect()
    }
}

/// Escapes a string for inclusion in a JSON string literal: the one
/// escaper behind every JSON document the workspace writes.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders a snapshot as Chrome trace-event JSON (the `traceEvents`
/// array format): one complete (`"ph":"X"`) event per span, microsecond
/// timestamps. Loads in `chrome://tracing` and Perfetto.
pub fn chrome_trace_json(m: &Metrics) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, s) in m.spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let args = if s.trace == 0 {
            String::new()
        } else {
            format!(",\"args\":{{\"trace\":\"{:016x}\"}}", s.trace)
        };
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"impact\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{},\"dur\":{}{}}}",
            json_escape(&s.name),
            s.start_us,
            s.dur_us,
            args
        ));
    }
    out.push_str("]}\n");
    out
}

/// Schema version of [`metrics_json`] output.
pub const METRICS_SCHEMA_VERSION: u32 = 1;

/// Renders a snapshot as schema-versioned metrics JSON. Wall-clock data
/// is confined to fields named `*_us`; everything else is deterministic
/// for a given input, so tests can compare two runs after stripping the
/// `*_us` fields.
pub fn metrics_json(m: &Metrics) -> String {
    let spans: Vec<String> = m
        .span_stats()
        .iter()
        .map(|s| {
            format!(
                "\n    {{\"name\": \"{}\", \"count\": {}, \"total_us\": {}}}",
                json_escape(&s.name),
                s.count,
                s.total_us
            )
        })
        .collect();
    format!(
        "{{\n  \"version\": {METRICS_SCHEMA_VERSION},\n  \"kind\": \"impact-metrics\",\n  \"spans\": {},\n  {}\n}}\n",
        json_lines_array(&spans),
        counters_hists_json(
            m.counters.iter().map(|(k, v)| (k.as_str(), *v)),
            m.hists.iter().map(|(k, h)| (k.as_str(), h)),
        )
    )
}

/// A JSON array of pre-rendered elements, each starting on its own
/// indented line; `[]` when empty.
fn json_lines_array(items: &[String]) -> String {
    if items.is_empty() {
        "[]".to_string()
    } else {
        format!("[{}\n  ]", items.join(","))
    }
}

/// Renders the `"counters"` and `"hists"` members shared by the metrics
/// JSON and the serve stats JSON: `"counters": [...],\n  "hists": [...]`,
/// one element per line, histograms with their percentiles and buckets.
pub fn counters_hists_json<'a>(
    counters: impl Iterator<Item = (&'a str, u64)>,
    hists: impl Iterator<Item = (&'a str, &'a Histogram)>,
) -> String {
    let counters: Vec<String> = counters
        .map(|(k, v)| format!("\n    {{\"name\": \"{}\", \"value\": {v}}}", json_escape(k)))
        .collect();
    let hists: Vec<String> = hists
        .map(|(k, h)| {
            let buckets: Vec<String> = h.buckets().iter().map(u64::to_string).collect();
            format!(
                "\n    {{\"name\": \"{}\", \"count\": {}, \"total_us\": {}, \"p50_us\": {}, \"p90_us\": {}, \"p99_us\": {}, \"buckets_us\": [{}]}}",
                json_escape(k),
                h.count(),
                h.sum(),
                h.percentile(50),
                h.percentile(90),
                h.percentile(99),
                buckets.join(",")
            )
        })
        .collect();
    format!(
        "\"counters\": {},\n  \"hists\": {}",
        json_lines_array(&counters),
        json_lines_array(&hists)
    )
}

/// Default bounded capacity of a daemon [`FlightRecorder`] ring.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

/// One structured flight-recorder event: what happened, when (relative to
/// the recorder's epoch), and on behalf of which traced request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlightEvent {
    /// Monotonic sequence number across the recorder's whole lifetime,
    /// so a dump shows how many events preceded the retained window.
    pub seq: u64,
    /// Microseconds since the recorder was created.
    pub at_us: u64,
    /// Event kind, e.g. `accept`, `shed`, `fault`, `panic`, `quarantine`.
    pub kind: String,
    /// Free-form detail (fault key, error text, request verb).
    pub detail: String,
    /// Trace id of the request involved; `0` when none applies.
    pub trace: u64,
}

struct FlightState {
    ring: VecDeque<FlightEvent>,
    next_seq: u64,
    dropped: u64,
}

/// A bounded ring of recent structured events — the daemon's crash flight
/// recorder. Recording is cheap (one mutex, no allocation beyond the
/// event strings) and never blocks the request path on I/O; when a crash
/// or violation happens, [`FlightRecorder::snapshot`] yields the last
/// moments for the incident dump.
pub struct FlightRecorder {
    capacity: usize,
    base: Instant,
    state: Mutex<FlightState>,
}

impl FlightRecorder {
    /// Creates a recorder holding at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            capacity,
            base: Instant::now(),
            state: Mutex::new(FlightState {
                ring: VecDeque::with_capacity(capacity),
                next_seq: 0,
                dropped: 0,
            }),
        }
    }

    /// The configured ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records one event, evicting the oldest when the ring is full.
    /// Returns `true` when an event was evicted (the caller can bump the
    /// `flight:dropped` counter).
    pub fn record(&self, kind: &str, detail: &str, trace: u64) -> bool {
        let at_us = self.base.elapsed().as_micros() as u64;
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        let seq = st.next_seq;
        st.next_seq += 1;
        let mut evicted = false;
        if st.ring.len() == self.capacity {
            st.ring.pop_front();
            st.dropped += 1;
            evicted = true;
        }
        st.ring.push_back(FlightEvent {
            seq,
            at_us,
            kind: kind.to_string(),
            detail: detail.to_string(),
            trace,
        });
        evicted
    }

    /// The retained events in arrival order, plus how many older events
    /// the bounded ring has discarded.
    pub fn snapshot(&self) -> (Vec<FlightEvent>, u64) {
        let st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        (st.ring.iter().cloned().collect(), st.dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping_handles_quotes_newlines_and_controls() {
        assert_eq!(json_escape("a\"b"), "a\\\"b");
        assert_eq!(json_escape("a\\b"), "a\\\\b");
        assert_eq!(json_escape("a\nb\tc"), "a\\nb\\tc");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn service_counter_names_are_unique_and_namespaced() {
        let mut seen = std::collections::BTreeSet::new();
        for n in names::ALL {
            assert!(seen.insert(n), "duplicate counter name {n}");
            assert!(
                n.starts_with("pool:")
                    || n.starts_with("cache:")
                    || n.starts_with("serve:")
                    || n.starts_with("chaos:")
                    || n.starts_with("breaker:")
                    || n.starts_with("net:")
                    || n.starts_with("stats:")
                    || n.starts_with("flight:")
                    || n.starts_with("hist:"),
                "unnamespaced counter {n}"
            );
        }
    }

    /// Scans this crate's own source for `pub const` counter names inside
    /// `mod names` and asserts each one is registered in `names::ALL`, so
    /// a counter added later can't silently drift out of the registry.
    #[test]
    fn every_declared_counter_name_is_registered_in_all() {
        let src = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/src/lib.rs"))
            .expect("crate source is readable");
        let mut declared = Vec::new();
        for line in src.lines() {
            let Some(rest) = line.trim_start().strip_prefix("pub const ") else {
                continue;
            };
            // Only counter-name string constants: `NAME: &str = "..."`.
            let Some((_, value)) = rest.split_once(": &str = \"") else {
                continue;
            };
            let Some((name, _)) = value.split_once('"') else {
                continue;
            };
            declared.push(name.to_string());
        }
        assert!(
            declared.len() >= names::ALL.len(),
            "source scan found {} names, registry has {}",
            declared.len(),
            names::ALL.len()
        );
        for name in &declared {
            assert!(
                names::ALL.contains(&name.as_str()),
                "counter `{name}` is declared but missing from names::ALL"
            );
        }
    }

    #[test]
    fn disabled_handle_records_nothing() {
        let t = Telemetry::disabled();
        {
            let _s = t.span("stage");
            t.count("things", 5);
        }
        let m = t.snapshot();
        assert!(m.spans.is_empty());
        assert!(m.counters.is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn default_is_disabled() {
        assert!(!Telemetry::default().is_enabled());
    }

    #[test]
    fn spans_and_counters_record_and_aggregate() {
        let t = Telemetry::enabled();
        {
            let _a = t.span("phase");
        }
        {
            let _b = t.span("phase");
        }
        t.count("items", 3);
        t.count("items", 4);
        let m = t.snapshot();
        assert_eq!(m.spans.len(), 2);
        assert_eq!(m.counters.get("items"), Some(&7));
        let stats = m.span_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].name, "phase");
        assert_eq!(stats[0].count, 2);
    }

    #[test]
    fn clones_share_one_collector() {
        let t = Telemetry::enabled();
        let u = t.clone();
        u.count("shared", 1);
        assert_eq!(t.snapshot().counters.get("shared"), Some(&1));
    }

    #[test]
    fn chrome_trace_is_well_formed() {
        let t = Telemetry::enabled();
        {
            let _s = t.span("a\"b");
        }
        let json = chrome_trace_json(&t.snapshot());
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("a\\\"b"));
        assert!(json.trim_end().ends_with("]}"));
    }

    #[test]
    fn metrics_json_shape_and_determinism_without_us_fields() {
        let t = Telemetry::enabled();
        {
            let _s = t.span("stage");
        }
        t.count("n", 9);
        let json = metrics_json(&t.snapshot());
        assert!(json.contains("\"version\": 1"));
        assert!(json.contains("\"kind\": \"impact-metrics\""));
        assert!(json.contains("\"name\": \"stage\""));
        assert!(json.contains("\"name\": \"n\", \"value\": 9"));
        // Stripping the timing fields yields a deterministic document.
        let strip = |s: &str| -> String {
            s.lines()
                .map(|l| match l.find("\"total_us\"") {
                    Some(i) => format!("{}…", &l[..i]),
                    None => l.to_string(),
                })
                .collect::<Vec<_>>()
                .join("\n")
        };
        let t2 = Telemetry::enabled();
        {
            let _s = t2.span("stage");
        }
        t2.count("n", 9);
        assert_eq!(strip(&json), strip(&metrics_json(&t2.snapshot())));
    }

    #[test]
    fn empty_metrics_render_empty_arrays() {
        let json = metrics_json(&Metrics::default());
        assert!(json.contains("\"spans\": []"));
        assert!(json.contains("\"counters\": []"));
        assert!(json.contains("\"hists\": []"));
        assert_eq!(
            chrome_trace_json(&Metrics::default()),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}\n"
        );
    }

    #[test]
    fn histogram_with_zero_samples_has_zero_percentiles() {
        let h = Histogram::default();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(50), 0);
        assert_eq!(h.percentile(99), 0);
        assert_eq!(h.percentile(100), 0);
    }

    #[test]
    fn histogram_single_sample_reports_its_bucket_at_every_percentile() {
        let mut h = Histogram::default();
        h.record(100);
        let bound = Histogram::bucket_bound(Histogram::bucket_index(100));
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 100);
        assert_eq!(h.percentile(1), bound);
        assert_eq!(h.percentile(50), bound);
        assert_eq!(h.percentile(99), bound);
        assert!(bound >= 100, "bucket bound must cover the sample");
    }

    #[test]
    fn histogram_clamps_values_beyond_the_top_bucket() {
        let mut h = Histogram::default();
        h.record(u64::MAX);
        h.record(u64::MAX / 2);
        h.record(1u64 << 40);
        assert_eq!(h.buckets()[HISTOGRAM_BUCKETS - 1], 3);
        assert_eq!(h.percentile(50), u64::MAX);
        // Sum saturates rather than wrapping.
        assert_eq!(h.sum(), u64::MAX);
    }

    #[test]
    fn histogram_bucket_boundaries_are_exclusive_powers_of_two() {
        // Bucket 0 holds only the value 0.
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        // A value always lands in a bucket whose bound covers it.
        for v in [0u64, 1, 7, 8, 1023, 1024, 123_456_789] {
            assert!(Histogram::bucket_bound(Histogram::bucket_index(v)) >= v);
        }
    }

    #[test]
    fn histogram_merge_is_associative_like_parallel_workers() {
        let mk = |vals: &[u64]| {
            let mut h = Histogram::default();
            for &v in vals {
                h.record(v);
            }
            h
        };
        let (a, b, c) = (mk(&[1, 50, 900]), mk(&[2, 2, 7]), mk(&[1u64 << 35]));
        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);
        assert_eq!(left.count(), 7);
    }

    #[test]
    fn absorb_sums_histogram_buckets() {
        let ta = Telemetry::enabled();
        ta.record_value("hist:rtt-us", 10);
        ta.record_value("hist:rtt-us", 10);
        let tb = Telemetry::enabled();
        tb.record_value("hist:rtt-us", 10);
        tb.record_value("hist:service-us", 5000);
        let host = Telemetry::enabled();
        host.absorb(&ta.snapshot(), 0);
        host.absorb(&tb.snapshot(), 0);
        let merged = host.snapshot();
        assert_eq!(merged.hists["hist:rtt-us"].count(), 3);
        assert_eq!(
            merged.hists["hist:rtt-us"].buckets()[Histogram::bucket_index(10)],
            3
        );
        assert_eq!(merged.hists["hist:service-us"].count(), 1);
    }

    #[test]
    fn counters_only_handle_drops_spans_but_keeps_counters_and_hists() {
        let t = Telemetry::counters_only();
        assert!(t.is_enabled());
        {
            let _s = t.span("stage");
        }
        t.add_span("explicit", 0, 5);
        t.count("serve:ok", 1);
        t.record_value("hist:queue-wait-us", 42);
        let mut donor = Metrics::default();
        donor.spans.push(SpanEvent {
            name: "donated".into(),
            start_us: 0,
            dur_us: 1,
            trace: 7,
        });
        t.absorb(&donor, 100);
        let m = t.snapshot();
        assert!(m.spans.is_empty(), "counters_only keeps no raw spans");
        assert_eq!(m.counters.get("serve:ok"), Some(&1));
        assert_eq!(m.hists["hist:queue-wait-us"].count(), 1);
    }

    #[test]
    fn with_trace_tags_spans_and_chrome_trace_carries_the_id() {
        let t = Telemetry::enabled();
        let traced = t.with_trace(0xfeed);
        {
            let _s = traced.span("remote");
        }
        traced.add_span("wire", 3, 9);
        {
            let _s = t.span("local");
        }
        let m = t.snapshot();
        assert_eq!(m.spans.len(), 3);
        assert!(m
            .spans
            .iter()
            .any(|s| s.name == "remote" && s.trace == 0xfeed));
        assert!(m
            .spans
            .iter()
            .any(|s| s.name == "wire" && s.trace == 0xfeed));
        assert!(m.spans.iter().any(|s| s.name == "local" && s.trace == 0));
        let json = chrome_trace_json(&m);
        assert!(json.contains("\"args\":{\"trace\":\"000000000000feed\"}"));
        // Untraced spans carry no args object.
        assert!(json.contains("\"name\":\"local\""));
        let local = json.split("\"name\":\"local\"").nth(1).unwrap();
        let local_evt = local.split('}').next().unwrap();
        assert!(!local_evt.contains("args"));
    }

    #[test]
    fn absorb_shifts_spans_onto_the_host_timeline() {
        let donor = Telemetry::enabled().with_trace(0xabc);
        donor.add_span("inner", 10, 20);
        donor.count("cache:hits", 1);
        donor.record_value("hist:compile-us", 30);
        let host = Telemetry::enabled();
        host.absorb(&donor.snapshot(), 1000);
        let m = host.snapshot();
        assert_eq!(m.spans.len(), 1);
        assert_eq!(m.spans[0].start_us, 1010);
        assert_eq!(m.spans[0].dur_us, 20);
        assert_eq!(m.spans[0].trace, 0xabc);
        assert_eq!(m.counters.get("cache:hits"), Some(&1));
        assert_eq!(m.hists["hist:compile-us"].count(), 1);
    }

    #[test]
    fn exporters_escape_hostile_names_in_every_section() {
        let mut m = Metrics::default();
        let hostile = "a\"b\\c\nd\u{1}e";
        m.spans.push(SpanEvent {
            name: hostile.into(),
            start_us: 0,
            dur_us: 1,
            trace: 0,
        });
        m.counters.insert(hostile.into(), 1);
        let mut h = Histogram::default();
        h.record(1);
        m.hists.insert(hostile.into(), h);
        let escaped = "a\\\"b\\\\c\\nd\\u0001e";
        let trace = chrome_trace_json(&m);
        assert!(trace.contains(escaped), "chrome trace must escape: {trace}");
        assert!(!trace.contains('\u{1}'), "raw control char leaked");
        let metrics = metrics_json(&m);
        // The hostile name appears escaped in spans, counters, and hists.
        assert_eq!(metrics.matches(escaped).count(), 3, "{metrics}");
        assert!(!metrics.contains('\u{1}'));
    }

    #[test]
    fn metrics_json_renders_histogram_buckets_deterministically() {
        let t = Telemetry::enabled();
        t.record_value("hist:rtt-us", 3);
        t.record_value("hist:rtt-us", 3);
        let json = metrics_json(&t.snapshot());
        assert!(json.contains("\"name\": \"hist:rtt-us\""));
        assert!(json.contains("\"count\": 2"));
        assert!(json.contains("\"p50_us\": 3"));
        // 32 comma-separated bucket counts, both samples in bucket 2.
        let buckets = json.split("\"buckets_us\": [").nth(1).unwrap();
        let buckets = buckets.split(']').next().unwrap();
        let counts: Vec<u64> = buckets.split(',').map(|c| c.parse().unwrap()).collect();
        assert_eq!(counts.len(), HISTOGRAM_BUCKETS);
        assert_eq!(counts[Histogram::bucket_index(3)], 2);
        assert_eq!(counts.iter().sum::<u64>(), 2);
    }

    #[test]
    fn flight_recorder_ring_bounds_and_sequences_events() {
        let fr = FlightRecorder::new(3);
        assert_eq!(fr.capacity(), 3);
        assert!(!fr.record("accept", "conn", 0));
        assert!(!fr.record("request", "compile", 0xaa));
        assert!(!fr.record("fault", "net:reset", 0xaa));
        // Fourth event evicts the oldest.
        assert!(fr.record("panic", "worker died", 0xbb));
        let (events, dropped) = fr.snapshot();
        assert_eq!(events.len(), 3);
        assert_eq!(dropped, 1);
        assert_eq!(events[0].kind, "request");
        assert_eq!(events[0].seq, 1);
        assert_eq!(events[2].kind, "panic");
        assert_eq!(events[2].seq, 3);
        assert_eq!(events[2].trace, 0xbb);
        // Timestamps are monotone.
        assert!(events.windows(2).all(|w| w[0].at_us <= w[1].at_us));
    }

    #[test]
    fn flight_recorder_capacity_floor_is_one() {
        let fr = FlightRecorder::new(0);
        assert_eq!(fr.capacity(), 1);
        fr.record("a", "", 0);
        fr.record("b", "", 0);
        let (events, dropped) = fr.snapshot();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, "b");
        assert_eq!(dropped, 1);
    }
}
