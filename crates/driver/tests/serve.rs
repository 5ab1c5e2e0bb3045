//! `impactc serve` lifecycle matrix: the daemon must compile over its
//! Unix socket, serve cache hits, shed overload with an immediate `busy`
//! (never queue unboundedly), isolate request-worker panics from the
//! process, and on SIGTERM finish in-flight requests before exiting 0.
//!
//! Every test drives the real binary: a spawned daemon process, client
//! requests via `impactc request`, and `kill -TERM` for the drain path.
#![cfg(unix)]

use std::os::unix::net::UnixStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

mod daemon;

use daemon::{
    free_port, impactc, spawn_daemon, stop_and_collect, tmp_dir, write_hot_c, RunResult, BIN,
};

fn request(sock: &Path, file: &str) -> RunResult {
    impactc(&["request", sock.to_str().unwrap(), file])
}

/// A request with extra client flags (e.g. `--retries 0` where a test
/// needs exactly one attempt for its accounting to be deterministic).
fn request_with(sock: &Path, file: &str, extra: &[&str]) -> RunResult {
    let mut args = vec!["request", sock.to_str().unwrap(), file];
    args.extend_from_slice(extra);
    impactc(&args)
}

/// Spawns a client request as a child process (for concurrency tests).
fn spawn_request(sock: &Path, file: &str) -> Child {
    Command::new(BIN)
        .args(["request", sock.to_str().unwrap(), file])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn request client")
}

fn wait_client(child: Child) -> RunResult {
    let out = child.wait_with_output().expect("collect client output");
    RunResult {
        code: out.status.code(),
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
    }
}

/// The socket file is the readiness signal: a client that connects the
/// moment the file exists, with no retry, is accepted every time.
#[test]
fn socket_file_appears_only_once_the_daemon_accepts() {
    let dir = tmp_dir("ready");
    let sock = dir.join("d.sock");
    for start in 0..20 {
        let daemon = spawn_daemon(&sock, &["--jobs", "1"]);
        let conn = UnixStream::connect(&sock);
        assert!(conn.is_ok(), "start {start}: connect refused: {conn:?}");
        drop(conn);
        let (code, _) = stop_and_collect(daemon);
        assert_eq!(code, Some(0), "start {start}");
        assert!(
            !sock.exists(),
            "start {start}: drain left the socket behind"
        );
    }
    let leftovers: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(
        leftovers.is_empty(),
        "staging names left behind: {leftovers:?}"
    );
}

#[test]
fn serve_compiles_caches_and_drains_cleanly() {
    let dir = tmp_dir("lifecycle");
    let hot = write_hot_c(&dir);
    let sock = dir.join("d.sock");
    let cache = dir.join("cache");
    let metrics = dir.join("metrics.json");
    let daemon = spawn_daemon(
        &sock,
        &[
            "--jobs",
            "1",
            "--cache-dir",
            cache.to_str().unwrap(),
            "--metrics-out",
            metrics.to_str().unwrap(),
        ],
    );

    // First compile is a miss, second is a hit serving the exact stored
    // report plus the hit marker.
    let r1 = request(&sock, &hot);
    assert_eq!(r1.code, Some(0), "first request: {}", r1.stderr);
    assert!(!r1.stdout.is_empty(), "first request produced no report");
    assert!(
        !r1.stdout.contains("; cache: hit"),
        "first request cannot be a cache hit: {}",
        r1.stdout
    );
    let r2 = request(&sock, &hot);
    assert_eq!(r2.code, Some(0), "second request: {}", r2.stderr);
    assert_eq!(
        r2.stdout,
        format!("{}; cache: hit\n", r1.stdout),
        "cached response must replay the stored report byte-for-byte"
    );

    let (code, stdout) = stop_and_collect(daemon);
    assert_eq!(code, Some(0), "graceful drain must exit 0: {stdout}");
    assert!(
        stdout.contains("; serve: drained after 2 requests, 2 ok, 0 errors, 0 shed"),
        "drain summary wrong: {stdout}"
    );
    let metrics_text = std::fs::read_to_string(&metrics).expect("metrics written on drain");
    assert!(
        metrics_text.contains("\"name\": \"cache:hits\", \"value\": 1"),
        "metrics missed the cache hit: {metrics_text}"
    );
    assert!(
        metrics_text.contains("\"name\": \"serve:requests\", \"value\": 2"),
        "metrics missed the request count: {metrics_text}"
    );
    assert!(!sock.exists(), "drained daemon must remove its socket");
}

#[test]
fn serve_sheds_overload_with_immediate_busy() {
    let dir = tmp_dir("overload");
    let hot = write_hot_c(&dir);
    let sock = dir.join("d.sock");
    // One worker that stalls on its first request + a queue of one slot:
    // request A occupies the worker, B the queue slot, so C must be shed
    // immediately rather than queued.
    let daemon = spawn_daemon(
        &sock,
        &[
            "--jobs",
            "1",
            "--queue-depth",
            "1",
            "--fault",
            "serve:stall=1",
        ],
    );

    let a = spawn_request(&sock, &hot);
    std::thread::sleep(Duration::from_millis(500));
    let b = spawn_request(&sock, &hot);
    std::thread::sleep(Duration::from_millis(300));
    // --retries 0: one attempt keeps the shed count at exactly 1.
    let c = request_with(&sock, &hot, &["--retries", "0"]);
    assert_eq!(c.code, Some(2), "shed request must fail fast: {}", c.stdout);
    assert!(
        c.stderr.contains("server busy"),
        "shed request lacks the busy notice: {}",
        c.stderr
    );

    // The stalled and queued requests still complete.
    let a = wait_client(a);
    assert_eq!(a.code, Some(0), "stalled request failed: {}", a.stderr);
    let b = wait_client(b);
    assert_eq!(b.code, Some(0), "queued request failed: {}", b.stderr);

    let (code, stdout) = stop_and_collect(daemon);
    assert_eq!(code, Some(0), "drain after shed must exit 0: {stdout}");
    assert!(
        stdout.contains("; serve: drained after 3 requests, 2 ok, 0 errors, 1 shed"),
        "shed accounting wrong: {stdout}"
    );
}

#[test]
fn serve_isolates_request_worker_panics() {
    let dir = tmp_dir("panic");
    let hot = write_hot_c(&dir);
    let sock = dir.join("d.sock");
    let daemon = spawn_daemon(&sock, &["--jobs", "1", "--fault", "serve:panic=1"]);

    // The injected panic fires inside the first request's worker; the
    // client sees a structured error, not a hang or a dead daemon.
    // --retries 0: a retry would succeed past the one-shot fault and
    // hide the error this test is about.
    let r1 = request_with(&sock, &hot, &["--retries", "0"]);
    assert_eq!(
        r1.code,
        Some(2),
        "panicked request must error: {}",
        r1.stdout
    );
    assert!(
        r1.stderr.contains("request worker panicked"),
        "panic not reported to the client: {}",
        r1.stderr
    );

    // The daemon keeps serving.
    let r2 = request(&sock, &hot);
    assert_eq!(r2.code, Some(0), "daemon died after a panic: {}", r2.stderr);

    let (code, stdout) = stop_and_collect(daemon);
    assert_eq!(code, Some(0), "drain after panic must exit 0: {stdout}");
    assert!(
        stdout.contains("; serve: drained after 2 requests, 1 ok, 1 errors, 0 shed"),
        "panic accounting wrong: {stdout}"
    );
}

#[test]
fn sigterm_drains_in_flight_requests_before_exiting() {
    let dir = tmp_dir("drain");
    let hot = write_hot_c(&dir);
    let sock = dir.join("d.sock");
    let daemon = spawn_daemon(&sock, &["--jobs", "1", "--fault", "serve:stall=1"]);

    // Request A stalls inside the worker; SIGTERM lands while it is
    // in-flight. Graceful drain means A still gets its full response.
    let a = spawn_request(&sock, &hot);
    std::thread::sleep(Duration::from_millis(400));
    let (code, stdout) = stop_and_collect(daemon);
    assert_eq!(code, Some(0), "drain must exit 0: {stdout}");
    assert!(
        stdout.contains("; serve: drained after 1 requests, 1 ok, 0 errors, 0 shed"),
        "in-flight request lost on drain: {stdout}"
    );
    let a = wait_client(a);
    assert_eq!(
        a.code,
        Some(0),
        "in-flight request must complete across SIGTERM: {}",
        a.stderr
    );
    assert!(!a.stdout.is_empty(), "drained request produced no report");
}

#[test]
fn ping_reports_daemon_health() {
    let dir = tmp_dir("ping");
    let sock = dir.join("d.sock");
    let cache = dir.join("cache");
    let daemon = spawn_daemon(
        &sock,
        &["--jobs", "2", "--cache-dir", cache.to_str().unwrap()],
    );

    let p = impactc(&["request", sock.to_str().unwrap(), "--ping"]);
    assert_eq!(p.code, Some(0), "healthy daemon must ping 0: {}", p.stderr);
    assert!(p.stdout.contains("; serve: healthy"), "{}", p.stdout);
    assert!(p.stdout.contains("; workers: 2"), "{}", p.stdout);
    assert!(p.stdout.contains("; cache: writable"), "{}", p.stdout);

    // --ping takes no files.
    let bad = impactc(&["request", sock.to_str().unwrap(), "x.c", "--ping"]);
    assert_eq!(bad.code, Some(2));
    assert!(bad.stderr.contains("--ping"), "{}", bad.stderr);

    let (code, stdout) = stop_and_collect(daemon);
    assert_eq!(code, Some(0), "drain after ping must exit 0: {stdout}");
    assert!(
        stdout.contains("1 pings"),
        "ping missing from the drain summary: {stdout}"
    );
}

#[test]
fn tcp_listener_serves_the_same_protocol_as_the_unix_socket() {
    let dir = tmp_dir("tcp");
    let hot = write_hot_c(&dir);
    let sock = dir.join("d.sock");
    let port = free_port();
    let tcp = format!("127.0.0.1:{port}");
    // The daemon binds TCP before the Unix socket, so the socket file
    // appearing means both listeners are live.
    let daemon = spawn_daemon(&sock, &["--jobs", "1", "--tcp", &tcp]);

    let over_unix = request(&sock, &hot);
    assert_eq!(
        over_unix.code,
        Some(0),
        "unix request: {}",
        over_unix.stderr
    );
    let over_tcp = impactc(&["request", &tcp, &hot]);
    assert_eq!(over_tcp.code, Some(0), "tcp request: {}", over_tcp.stderr);
    assert_eq!(
        over_tcp.stdout, over_unix.stdout,
        "the transports must serve byte-identical reports"
    );

    // Health checks work over TCP too.
    let p = impactc(&["request", &tcp, "--ping"]);
    assert_eq!(p.code, Some(0), "tcp ping: {}", p.stderr);
    assert!(p.stdout.contains("; serve: healthy"), "{}", p.stdout);

    let (code, stdout) = stop_and_collect(daemon);
    assert_eq!(code, Some(0), "drain with tcp must exit 0: {stdout}");
    assert!(
        stdout.contains("; serve: drained after 3 requests, 2 ok, 0 errors, 0 shed"),
        "tcp requests missing from the drain accounting: {stdout}"
    );
    assert!(!sock.exists(), "drained daemon must remove its socket");
}

#[test]
fn tcp_flag_rejects_malformed_addresses() {
    let bad = impactc(&["serve", "/tmp/unused.sock", "--tcp", "7070"]);
    assert_eq!(bad.code, Some(2));
    assert!(bad.stderr.contains("--tcp"), "{}", bad.stderr);
    let swapped = impactc(&["serve", "/tmp/unused.sock", "--tcp", "/tmp/d.sock"]);
    assert_eq!(swapped.code, Some(2));
    assert!(swapped.stderr.contains("--tcp"), "{}", swapped.stderr);
}

#[test]
fn serve_usage_and_connection_errors() {
    let dir = tmp_dir("usage");
    let hot = write_hot_c(&dir);

    let no_sock = impactc(&["serve"]);
    assert_eq!(no_sock.code, Some(2));
    assert!(no_sock.stderr.contains("socket path"), "{}", no_sock.stderr);

    let missing = dir.join("missing.sock");
    let dead = impactc(&["request", missing.to_str().unwrap(), &hot]);
    assert_eq!(dead.code, Some(2));
    assert!(dead.stderr.contains("cannot connect"), "{}", dead.stderr);

    let no_files = impactc(&["request", missing.to_str().unwrap()]);
    assert_eq!(no_files.code, Some(2));
    assert!(
        no_files.stderr.contains("at least one .c file"),
        "{}",
        no_files.stderr
    );
}

#[test]
fn stats_op_reports_the_live_registry_in_three_formats() {
    let dir = tmp_dir("stats");
    let hot = write_hot_c(&dir);
    let sock = dir.join("d.sock");
    let cache = dir.join("cache");
    let daemon = spawn_daemon(
        &sock,
        &["--jobs", "2", "--cache-dir", cache.to_str().unwrap()],
    );

    // Populate the registry: a miss, then a hit.
    assert_eq!(request(&sock, &hot).code, Some(0));
    assert_eq!(request(&sock, &hot).code, Some(0));

    let table = impactc(&["request", sock.to_str().unwrap(), "--stats"]);
    assert_eq!(table.code, Some(0), "stats table: {}", table.stderr);
    assert!(table.stdout.contains("; serve stats\n"), "{}", table.stdout);
    assert!(table.stdout.contains("; workers: 2\n"), "{}", table.stdout);
    assert!(table.stdout.contains("; cache: 1 live"), "{}", table.stdout);
    assert!(
        table.stdout.contains(";   serve:ok 2\n"),
        "{}",
        table.stdout
    );
    assert!(
        table.stdout.contains(";   cache:hits 1\n"),
        "{}",
        table.stdout
    );
    assert!(
        table.stdout.contains(";   hist:queue-wait-us count="),
        "queue-wait histogram missing: {}",
        table.stdout
    );
    assert!(
        table.stdout.contains(";   hist:service-us count="),
        "service-time histogram missing: {}",
        table.stdout
    );
    // The client appends its own side of the wire: breaker states.
    assert!(
        table.stdout.contains("; breaker") && table.stdout.contains(": closed\n"),
        "breaker line missing: {}",
        table.stdout
    );

    let prom = impactc(&["request", sock.to_str().unwrap(), "--stats-prom"]);
    assert_eq!(prom.code, Some(0), "stats prom: {}", prom.stderr);
    assert!(
        prom.stdout
            .contains("# TYPE impact_serve_ok counter\nimpact_serve_ok 2\n"),
        "{}",
        prom.stdout
    );
    assert!(
        prom.stdout
            .contains("# TYPE impact_hist_queue_wait_us histogram\n"),
        "{}",
        prom.stdout
    );
    assert!(
        prom.stdout.contains("_bucket{le=\"+Inf\"}"),
        "{}",
        prom.stdout
    );

    let json = impactc(&["request", sock.to_str().unwrap(), "--stats-json"]);
    assert_eq!(json.code, Some(0), "stats json: {}", json.stderr);
    assert!(json.stdout.contains("\"version\": 1"), "{}", json.stdout);
    assert!(
        json.stdout.contains("\"kind\": \"impact-serve-stats\""),
        "{}",
        json.stdout
    );
    assert!(json.stdout.contains("\"buckets_us\": ["), "{}", json.stdout);

    // Stats snapshots take no files, like --ping.
    let bad = impactc(&["request", sock.to_str().unwrap(), "x.c", "--stats"]);
    assert_eq!(bad.code, Some(2));
    assert!(bad.stderr.contains("--stats"), "{}", bad.stderr);

    let (code, stdout) = stop_and_collect(daemon);
    assert_eq!(code, Some(0), "drain after stats must exit 0: {stdout}");
    assert!(
        stdout.contains("3 stats"),
        "stats ops missing from the drain summary: {stdout}"
    );
}

/// Minimal parse of one Chrome trace event object: (name, ts, dur,
/// trace-arg), enough to check nesting without a JSON dependency.
fn parse_trace_events(trace_json: &str) -> Vec<(String, u64, u64, String)> {
    let mut events = Vec::new();
    for chunk in trace_json.split("{\"name\":\"").skip(1) {
        let name = chunk.split('"').next().unwrap().to_string();
        let field = |key: &str| {
            chunk
                .split(key)
                .nth(1)
                .and_then(|r| r.split(|c: char| !c.is_ascii_digit()).next())
                .and_then(|v| v.parse::<u64>().ok())
        };
        let (Some(ts), Some(dur)) = (field("\"ts\":"), field("\"dur\":")) else {
            continue;
        };
        let trace = chunk
            .split("\"trace\":\"")
            .nth(1)
            .and_then(|r| r.split('"').next())
            .unwrap_or("")
            .to_string();
        events.push((name, ts, dur, trace));
    }
    events
}

#[test]
fn trace_out_stitches_daemon_spans_under_the_client_span() {
    let dir = tmp_dir("stitch");
    let hot = write_hot_c(&dir);
    let sock = dir.join("d.sock");
    let trace_path = dir.join("trace.json");
    let daemon = spawn_daemon(&sock, &["--jobs", "1"]);

    let r = request_with(&sock, &hot, &["--trace-out", trace_path.to_str().unwrap()]);
    assert_eq!(r.code, Some(0), "traced request: {}", r.stderr);
    let (code, _) = stop_and_collect(daemon);
    assert_eq!(code, Some(0));

    let trace_json = std::fs::read_to_string(&trace_path).expect("trace written");
    let events = parse_trace_events(&trace_json);
    let client = events
        .iter()
        .find(|(name, ..)| name == "client:request")
        .expect("client:request span missing from the stitched trace");
    let trace_id = &client.3;
    assert_eq!(trace_id.len(), 16, "client span untagged: {trace_json}");

    // Every daemon-side span with this trace id nests inside the client
    // span's [ts, ts+dur] window — that is what "stitched" means.
    let daemon_spans: Vec<_> = events
        .iter()
        .filter(|(name, _, _, trace)| trace == trace_id && name != "client:request")
        .collect();
    assert!(
        daemon_spans
            .iter()
            .any(|(name, ..)| name == "serve:request"),
        "daemon spans missing from the stitched trace: {trace_json}"
    );
    assert!(
        daemon_spans
            .iter()
            .any(|(name, ..)| name == "serve:queue-wait"),
        "queue-wait span missing: {trace_json}"
    );
    let (cts, cdur) = (client.1, client.2);
    for (name, ts, dur, _) in &daemon_spans {
        assert!(
            *ts >= cts && ts + dur <= cts + cdur,
            "daemon span `{name}` [{ts}, {}] escapes the client span [{cts}, {}]: {trace_json}",
            ts + dur,
            cts + cdur
        );
    }
}

#[test]
fn flight_recorder_final_ring_is_written_at_drain() {
    let dir = tmp_dir("flight");
    let hot = write_hot_c(&dir);
    let sock = dir.join("d.sock");
    let reports = dir.join("reports");
    let daemon = spawn_daemon(
        &sock,
        &[
            "--jobs",
            "1",
            "--flight-recorder",
            "8",
            "--report-dir",
            reports.to_str().unwrap(),
        ],
    );

    assert_eq!(request(&sock, &hot).code, Some(0));
    let (code, _) = stop_and_collect(daemon);
    assert_eq!(code, Some(0));

    let final_ring = reports.join("flight-final.json");
    let text = std::fs::read_to_string(&final_ring).expect("flight-final.json written at drain");
    assert!(text.contains("\"kind\": \"serve-flight-final\""), "{text}");
    assert!(text.contains("\"reason\": \"drain\""), "{text}");
    assert!(
        text.contains("\"kind\": \"accept\""),
        "ring lost the accept event: {text}"
    );
    assert!(
        text.contains("\"kind\": \"request\""),
        "ring lost the request event: {text}"
    );
}
