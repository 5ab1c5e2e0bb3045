//! `impactc serve` — a persistent compilation daemon on a Unix socket
//! and, with `--tcp HOST:PORT`, a TCP listener bound alongside it.
//!
//! The daemon accepts compile requests (a set of C sources framed by the
//! length-prefixed protocol below), runs each through the supervised
//! pipeline, and responds with the pipeline report. Each carrier gets one
//! thread blocked in `accept`, and both feed the same bounded queue,
//! deadlines, and chaos points — the carrier split lives in
//! [`crate::transport`]. The design goals are the batch supervisor's
//! robustness guarantees, restated for a server:
//!
//! - **Bounded queue, explicit shedding.** Accepted connections go into a
//!   `sync_channel` bounded by `--queue-depth`. When the queue is full the
//!   carrier's accept thread answers `busy` at once and closes — the
//!   daemon never buffers unbounded work, and clients learn about
//!   overload without timing out. The `busy` response carries a
//!   deterministic `retry-after-ms` hint sized to the queue.
//! - **Crash-isolated request workers.** Connection handling runs under
//!   `catch_unwind` end to end (and the compile itself additionally runs
//!   on the supervised worker thread with the wall-clock deadline from
//!   `--time-limit-ms`). A panicking request produces a structured
//!   `error` response — or, for a crash before the response could be
//!   written, a dropped connection the client treats as retryable; the
//!   daemon keeps serving either way.
//! - **Graceful drain.** SIGTERM/SIGINT flip an atomic flag (the handler
//!   does nothing else); within milliseconds the daemon shuts its
//!   listeners down, waking their accept threads, lets the workers finish
//!   the queue and in-flight requests, publishes telemetry artifacts,
//!   removes the socket, and exits 0.
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
//! machinery degenerates to a plain retry loop: retryable failures —
//! connect errors, truncated/torn responses, `busy`, presumed-transient
//! worker panics — retried with exponential backoff and deterministic
//! jitter, bounded by `--retries` and an overall `--deadline-ms` that
//! shrinks across attempts. Everything else — a protocol violation, a
//! server-side compile error, an unreadable local file — is terminal
//! and fails fast. Retry and failover notices go to stderr so stdout
//! stays byte-identical to a fault-free run.

use impact_vm::FaultPlan;

use crate::Options;

#[cfg(unix)]
mod client;
#[cfg(unix)]
mod daemon;
mod wire;

#[cfg(unix)]
pub use client::{run_batch_remote, run_request};
#[cfg(unix)]
pub use daemon::{
    render_stats_json, render_stats_prom, render_stats_table, run_serve, StatsSnapshot,
    STATS_SCHEMA_VERSION,
};
pub use wire::{
    read_request, read_response, write_ping, write_request, write_response, write_stats, Request,
    Response, StatsFormat, PROTOCOL,
};

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

// ----- entry points --------------------------------------------------------

/// Serve is Unix-only (it is built on Unix domain sockets and POSIX
/// signals).
#[cfg(not(unix))]
pub fn run_serve(_opts: &Options) -> Result<(i32, String), String> {
    Err("serve requires a Unix platform (Unix sockets and signals)".to_string())
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
    use super::wire::{parse_summary, wire_error_is_retryable};
    use super::*;
    #[cfg(unix)]
    use super::{
        client::request_id,
        daemon::{flight_json, IDEMPOTENCY_CAPACITY},
    };
    use impact_cfront::Source;

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
        // FNV-1a over the salt's little-endian bytes, then each name and
        // text, each followed by a zero byte.
        assert_eq!(request_id(&sources, 7), 0xb939_0f9b_0a4f_f254);
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
        let r = o.for_unit();
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

    #[cfg(unix)]
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

    #[cfg(unix)]
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

    #[cfg(unix)]
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

    #[cfg(unix)]
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

    #[cfg(unix)]
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
