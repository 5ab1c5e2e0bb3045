//! Chaos matrix for the serve path: every service fault point is
//! injected against a live daemon, once with the resilient client's
//! retries and once without. With retries, every scenario must converge
//! to the byte-identical report of a fault-free run with a daemon that
//! never crashes; without retries, response-path faults must fail as
//! structured errors, never hangs. The second half covers the cache
//! lifecycle across hard kills: entries and quarantine decisions must
//! survive a `kill -9` and a restart.
//!
//! Every test drives the real binary, like `tests/serve.rs`.
#![cfg(unix)]

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

mod daemon;

use daemon::{
    free_port, impactc, sig, spawn_daemon, stop_and_collect, tmp_dir, write_hot_c, Daemon,
    RunResult, BIN,
};

/// Hard-kills the daemon (no drain, no cleanup) — the crash half of the
/// crash-safe cache lifecycle.
fn kill9_and_reap(daemon: Daemon, sock: &Path) {
    sig(&daemon, "-KILL");
    let _ = daemon.take().wait();
    // A killed daemon leaves its socket behind; remove it so the next
    // daemon's bind (and our bind-wait) starts clean.
    let _ = std::fs::remove_file(sock);
}

fn request(sock: &Path, file: &str, extra: &[&str]) -> RunResult {
    let mut args = vec!["request", sock.to_str().unwrap(), file];
    args.extend_from_slice(extra);
    impactc(&args)
}

/// The fault-free report for `hot.c`, computed once per daemon config
/// so every chaos scenario has its ground truth.
fn baseline(dir: &Path, tag: &str) -> String {
    let hot = write_hot_c(dir);
    let sock = dir.join(format!("base-{tag}.sock"));
    let daemon = spawn_daemon(&sock, &["--jobs", "1"]);
    let r = request(&sock, &hot, &[]);
    assert_eq!(r.code, Some(0), "fault-free baseline failed: {}", r.stderr);
    let (code, _) = stop_and_collect(daemon);
    assert_eq!(code, Some(0));
    r.stdout
}

/// The chaos matrix proper: each daemon-side fault point, with and
/// without client retries. With retries every run converges to the
/// fault-free bytes; without, response-path faults fail structured.
#[test]
fn chaos_matrix_converges_with_retries_and_fails_structured_without() {
    let dir = tmp_dir("matrix");
    let hot = write_hot_c(&dir);
    let expected = baseline(&dir, "matrix");

    // (fault spec, survives a single attempt without retries?)
    let matrix: &[(&str, bool)] = &[
        ("serve:stall=1", true),         // slow, not wrong
        ("serve:panic=1", false),        // structured error response
        ("serve:accept-crash=1", false), // connection dropped pre-read
        ("net:torn-write=1", false),     // half a response frame
        ("net:drop=1", false),           // response never written
    ];

    for (fault, survives_single) in matrix {
        let tag = fault.replace([':', '='], "-");
        let sock = dir.join(format!("{tag}.sock"));
        let metrics = dir.join(format!("{tag}.metrics.json"));

        let daemon = spawn_daemon(
            &sock,
            &[
                "--jobs",
                "1",
                "--fault",
                fault,
                "--metrics-out",
                metrics.to_str().unwrap(),
            ],
        );

        // Without retries: the injected fault costs this attempt, and
        // the failure must be a structured error, never a hang.
        let bare = request(&sock, &hot, &["--retries", "0"]);
        if *survives_single {
            assert_eq!(bare.code, Some(0), "{fault} bare: {}", bare.stderr);
            assert_eq!(bare.stdout, expected, "{fault} bare bytes diverged");
        } else {
            assert_eq!(
                bare.code,
                Some(2),
                "{fault} bare must fail structured: {}",
                bare.stdout
            );
            assert!(
                !bare.stderr.is_empty(),
                "{fault} bare failed without naming a reason"
            );
        }

        // With retries (the default): the client must converge to the
        // fault-free bytes. The fault is one-shot, so for faults that
        // consumed their shot on the bare attempt the retry run is
        // fault-free; for `serve:stall` it already converged above.
        let resilient = request(&sock, &hot, &[]);
        assert_eq!(
            resilient.code,
            Some(0),
            "{fault} with retries must converge: {}",
            resilient.stderr
        );
        assert_eq!(
            resilient.stdout, expected,
            "{fault} with retries diverged from the fault-free bytes"
        );

        // The daemon never crashed: it still drains gracefully, and the
        // injected fault is visible in the chaos telemetry.
        let (code, stdout) = stop_and_collect(daemon);
        assert_eq!(code, Some(0), "{fault}: daemon must survive: {stdout}");
        let metrics_text = std::fs::read_to_string(&metrics).expect("metrics written on drain");
        let key = fault.split('=').next().unwrap();
        assert!(
            metrics_text.contains("\"name\": \"chaos:injected\""),
            "{fault}: chaos counter missing: {metrics_text}"
        );
        assert!(
            metrics_text.contains(&format!("\"name\": \"chaos:{key}\"")),
            "{fault}: per-point chaos counter missing: {metrics_text}"
        );
        // The drain line's totals are the telemetry counters, number for
        // number.
        let drained = stdout
            .lines()
            .find_map(|l| l.strip_prefix("; serve: drained after "))
            .unwrap_or_else(|| panic!("{fault}: no drain line: {stdout}"));
        let totals: Vec<u64> = drained
            .split(", ")
            .map(|field| field.split(' ').next().unwrap().parse().unwrap())
            .collect();
        let from_metrics: Vec<u64> = [
            "serve:requests",
            "serve:ok",
            "serve:errors",
            "serve:shed",
            "serve:pings",
            "stats:requests",
        ]
        .iter()
        .map(|name| counter(&metrics_text, name))
        .collect();
        assert_eq!(
            totals, from_metrics,
            "{fault}: drain line `{drained}` disagrees with the metrics counters"
        );
    }
}

/// `cache:bitflip` corrupts a stored entry; the next lookup must
/// quarantine it (incident report and all) and recompile to the same
/// bytes — the client never sees the corruption.
#[test]
fn cache_bitflip_quarantines_and_recompiles_identically() {
    let dir = tmp_dir("bitflip");
    let hot = write_hot_c(&dir);
    let expected = baseline(&dir, "bitflip");
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
            "--fault",
            "cache:bitflip=1",
            "--metrics-out",
            metrics.to_str().unwrap(),
        ],
    );

    // Store (corrupted on disk by the fault), then look up: the entry
    // is quarantined and the request recompiles to the same bytes with
    // no hit marker.
    let r1 = request(&sock, &hot, &[]);
    assert_eq!(r1.code, Some(0), "store request: {}", r1.stderr);
    assert_eq!(r1.stdout, expected, "store request bytes diverged");
    let r2 = request(&sock, &hot, &[]);
    assert_eq!(r2.code, Some(0), "recompile request: {}", r2.stderr);
    assert_eq!(
        r2.stdout, expected,
        "corrupt entry must recompile, not serve garbage"
    );

    // The third request hits the freshly re-stored entry.
    let r3 = request(&sock, &hot, &[]);
    assert_eq!(r3.code, Some(0), "post-quarantine request: {}", r3.stderr);
    assert_eq!(r3.stdout, format!("{expected}; cache: hit\n"));

    let (code, _) = stop_and_collect(daemon);
    assert_eq!(code, Some(0), "daemon must survive cache corruption");
    let quarantined: Vec<_> = std::fs::read_dir(&cache)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".quarantined"))
        .collect();
    assert_eq!(quarantined.len(), 1, "exactly one quarantined entry");
    let incidents: Vec<_> = std::fs::read_dir(&cache)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".incident.json"))
        .collect();
    assert_eq!(incidents.len(), 1, "exactly one incident report");
    let metrics_text = std::fs::read_to_string(&metrics).unwrap();
    assert!(
        metrics_text.contains("\"name\": \"chaos:cache:bitflip\""),
        "bitflip injection missing from telemetry: {metrics_text}"
    );
}

/// A hard kill (`kill -9`, no drain) must not cost the cache: a
/// restarted daemon rebuilds its index from the scan and serves the
/// prior entries as hits.
#[test]
fn cache_entries_survive_a_hard_kill_and_restart() {
    let dir = tmp_dir("restart");
    let hot = write_hot_c(&dir);
    let expected = baseline(&dir, "restart");
    let sock = dir.join("d.sock");
    let cache = dir.join("cache");

    let daemon = spawn_daemon(
        &sock,
        &["--jobs", "1", "--cache-dir", cache.to_str().unwrap()],
    );
    let r1 = request(&sock, &hot, &[]);
    assert_eq!(r1.code, Some(0), "store request: {}", r1.stderr);
    assert_eq!(r1.stdout, expected);
    kill9_and_reap(daemon, &sock);

    // Restart on the same cache dir: the entry stored before the kill
    // is served as a hit.
    let daemon = spawn_daemon(
        &sock,
        &["--jobs", "1", "--cache-dir", cache.to_str().unwrap()],
    );
    let r2 = request(&sock, &hot, &[]);
    assert_eq!(r2.code, Some(0), "post-restart request: {}", r2.stderr);
    assert_eq!(
        r2.stdout,
        format!("{expected}; cache: hit\n"),
        "entry lost across kill -9"
    );
    let (code, _) = stop_and_collect(daemon);
    assert_eq!(code, Some(0));
}

/// Quarantine decisions are crash-safe too: an entry that goes corrupt
/// while the daemon is down is quarantined by the startup scan, and
/// stays quarantined across further restarts instead of being
/// resurrected into the live set.
#[test]
fn quarantine_decisions_survive_restarts() {
    let dir = tmp_dir("quarantine-restart");
    let hot = write_hot_c(&dir);
    let expected = baseline(&dir, "quarantine-restart");
    let sock = dir.join("d.sock");
    let cache = dir.join("cache");

    let daemon = spawn_daemon(
        &sock,
        &["--jobs", "1", "--cache-dir", cache.to_str().unwrap()],
    );
    let r1 = request(&sock, &hot, &[]);
    assert_eq!(r1.code, Some(0), "store request: {}", r1.stderr);
    kill9_and_reap(daemon, &sock);

    // Corrupt the stored entry on disk while the daemon is down.
    let entry = std::fs::read_dir(&cache)
        .unwrap()
        .filter_map(|e| e.ok())
        .find(|e| e.file_name().to_string_lossy().ends_with(".entry"))
        .expect("stored entry on disk")
        .path();
    let mut bytes = std::fs::read(&entry).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&entry, &bytes).unwrap();

    // Restart: the scan quarantines the corrupt entry, and the request
    // recompiles to the same bytes (no hit, no garbage).
    let daemon = spawn_daemon(
        &sock,
        &["--jobs", "1", "--cache-dir", cache.to_str().unwrap()],
    );
    let r2 = request(&sock, &hot, &[]);
    assert_eq!(r2.code, Some(0), "post-corruption request: {}", r2.stderr);
    assert_eq!(
        r2.stdout, expected,
        "corrupt entry must recompile after restart"
    );
    kill9_and_reap(daemon, &sock);

    let names: Vec<String> = std::fs::read_dir(&cache)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        names.iter().any(|n| n.ends_with(".quarantined")),
        "quarantine decision lost: {names:?}"
    );
    assert!(
        names.iter().any(|n| n.ends_with(".incident.json")),
        "incident report missing: {names:?}"
    );

    // One more restart: the quarantined entry stays quarantined (the
    // recompiled entry from r2 is the hit; the old bytes are never
    // resurrected).
    let daemon = spawn_daemon(
        &sock,
        &["--jobs", "1", "--cache-dir", cache.to_str().unwrap()],
    );
    let r3 = request(&sock, &hot, &[]);
    assert_eq!(r3.code, Some(0), "second restart request: {}", r3.stderr);
    assert_eq!(
        r3.stdout,
        format!("{expected}; cache: hit\n"),
        "re-stored entry must hit after the second restart"
    );
    let (code, _) = stop_and_collect(daemon);
    assert_eq!(code, Some(0));
}

/// The budget holds through the daemon: with room for only one entry,
/// the older of two entries is evicted, and every response still
/// carries the right bytes.
#[test]
fn eviction_under_budget_keeps_responses_correct() {
    let dir = tmp_dir("evict");
    let hot = write_hot_c(&dir);
    // Comparable in size to hot.c so its entry also exceeds half the
    // measured budget (the eviction has to be forced, not incidental).
    let cold = dir.join("cold.c");
    std::fs::write(
        &cold,
        "int mul(int x) { return x * 3; }\n\
         int main() { int i; int s; s = 1; for (i = 0; i < 9; i++) s += mul(i); return s & 0; }",
    )
    .unwrap();
    let cold = cold.to_str().unwrap().to_string();
    let sock = dir.join("d.sock");
    let cache = dir.join("cache");

    // First, measure one entry: store hot.c with no budget, then size
    // the budget to fit one entry but not two.
    let daemon = spawn_daemon(
        &sock,
        &["--jobs", "1", "--cache-dir", cache.to_str().unwrap()],
    );
    let r = request(&sock, &hot, &[]);
    assert_eq!(r.code, Some(0), "measure request: {}", r.stderr);
    let (code, _) = stop_and_collect(daemon);
    assert_eq!(code, Some(0));
    let entry_bytes = std::fs::read_dir(&cache)
        .unwrap()
        .filter_map(|e| e.ok())
        .find(|e| e.file_name().to_string_lossy().ends_with(".entry"))
        .expect("measured entry")
        .metadata()
        .unwrap()
        .len();
    let budget = (entry_bytes + entry_bytes / 2).to_string();

    let daemon = spawn_daemon(
        &sock,
        &[
            "--jobs",
            "1",
            "--cache-dir",
            cache.to_str().unwrap(),
            "--cache-budget-bytes",
            &budget,
        ],
    );
    // hot is still cached from the measuring run; storing cold must
    // evict it (LRU) to stay under budget.
    let h1 = request(&sock, &hot, &[]);
    assert_eq!(h1.code, Some(0));
    assert!(h1.stdout.ends_with("; cache: hit\n"), "{}", h1.stdout);
    let c1 = request(&sock, &cold, &[]);
    assert_eq!(c1.code, Some(0), "cold store: {}", c1.stderr);
    let c2 = request(&sock, &cold, &[]);
    assert_eq!(c2.code, Some(0));
    assert!(
        c2.stdout.ends_with("; cache: hit\n"),
        "cold entry should have survived: {}",
        c2.stdout
    );
    let h2 = request(&sock, &hot, &[]);
    assert_eq!(h2.code, Some(0), "evicted recompile: {}", h2.stderr);
    assert!(
        !h2.stdout.contains("; cache: hit"),
        "hot entry should have been evicted: {}",
        h2.stdout
    );
    let (code, _) = stop_and_collect(daemon);
    assert_eq!(code, Some(0));
}

/// The busy path end to end: a full queue sheds with a deterministic
/// retry-after hint, the client surfaces each attempt on stderr, and
/// the daemon accounts every shed.
#[test]
fn busy_responses_carry_a_retry_hint_the_client_honors() {
    let dir = tmp_dir("busy");
    let hot = write_hot_c(&dir);
    let sock = dir.join("d.sock");
    // One stalled worker + one queue slot: the third client only sees
    // `busy` until the stall clears.
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

    let a = Command::new(BIN)
        .args(["request", sock.to_str().unwrap(), &hot])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn request A");
    std::thread::sleep(Duration::from_millis(500));
    let b = Command::new(BIN)
        .args(["request", sock.to_str().unwrap(), &hot])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn request B");
    std::thread::sleep(Duration::from_millis(300));

    // C retries against the busy daemon: each attempt is shed, each
    // retry notice names the busy reason, and the overall failure is
    // structured.
    let c = request(&sock, &hot, &["--retries", "2", "--retry-base-ms", "10"]);
    assert_eq!(c.code, Some(2), "busy must stay busy: {}", c.stdout);
    assert!(c.stderr.contains("server busy"), "{}", c.stderr);
    assert!(
        c.stderr.contains("retrying in"),
        "retry notices missing: {}",
        c.stderr
    );
    assert!(
        c.stderr.contains("request failed after 3 attempts"),
        "attempt accounting missing: {}",
        c.stderr
    );

    for (name, client) in [("A", a), ("B", b)] {
        let out = client.wait_with_output().expect("collect client");
        assert_eq!(
            out.status.code(),
            Some(0),
            "request {name} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let (code, stdout) = stop_and_collect(daemon);
    assert_eq!(code, Some(0));
    assert!(
        stdout.contains("3 shed"),
        "every shed attempt must be accounted: {stdout}"
    );
}

// ----- TCP transport chaos -------------------------------------------------

/// `request` against an endpoint *string* (TCP address or endpoint
/// list) rather than a socket path.
fn request_ep(ep: &str, file: &str, extra: &[&str]) -> RunResult {
    let mut args = vec!["request", ep, file];
    args.extend_from_slice(extra);
    impactc(&args)
}

/// Reads one counter value out of a `--metrics-out` JSON file; absent
/// counters read as zero (they were never bumped).
fn counter(metrics_text: &str, name: &str) -> u64 {
    let needle = format!("{{\"name\": \"{name}\", \"value\": ");
    let Some(at) = metrics_text.find(&needle) else {
        return 0;
    };
    let rest = &metrics_text[at + needle.len()..];
    let end = rest.find('}').expect("well-formed counter object");
    rest[..end].trim().parse().expect("integer counter value")
}

/// The TCP chaos matrix: every TCP-era network fault fires against a
/// daemon serving loopback TCP, once without retries (structured
/// failure or transparent survival, never a hang) and once with (always
/// byte-identical convergence). The daemon survives every row and
/// accounts the injection in `chaos:*` telemetry.
#[test]
fn tcp_chaos_matrix_converges_with_retries_and_fails_structured_without() {
    let dir = tmp_dir("tcp-matrix");
    let hot = write_hot_c(&dir);
    let expected = baseline(&dir, "tcp-matrix");

    // (fault spec, survives a single attempt without retries?)
    let matrix: &[(&str, bool)] = &[
        ("net:reset=1", false),           // connection shut right after the read
        ("net:slow-read=1", true),        // dawdling reader; slow, not wrong
        ("net:partial-frame=1", false),   // half a response header line
        ("net:connect-refused=1", false), // accepted then dropped pre-admission
    ];

    for (fault, survives_single) in matrix {
        let tag = fault.replace([':', '='], "-");
        let sock = dir.join(format!("{tag}.sock"));
        let metrics = dir.join(format!("{tag}.metrics.json"));
        let addr = format!("127.0.0.1:{}", free_port());

        let daemon = spawn_daemon(
            &sock,
            &[
                "--jobs",
                "1",
                "--tcp",
                &addr,
                "--fault",
                fault,
                "--metrics-out",
                metrics.to_str().unwrap(),
            ],
        );

        let bare = request_ep(&addr, &hot, &["--retries", "0"]);
        if *survives_single {
            assert_eq!(bare.code, Some(0), "{fault} bare: {}", bare.stderr);
            assert_eq!(bare.stdout, expected, "{fault} bare bytes diverged");
        } else {
            assert_eq!(
                bare.code,
                Some(2),
                "{fault} bare must fail structured: {}",
                bare.stdout
            );
            assert!(
                !bare.stderr.is_empty(),
                "{fault} bare failed without naming a reason"
            );
        }

        // With retries (the default): every row converges to the
        // fault-free bytes over TCP, exactly as over the Unix socket.
        let resilient = request_ep(&addr, &hot, &[]);
        assert_eq!(
            resilient.code,
            Some(0),
            "{fault} with retries must converge: {}",
            resilient.stderr
        );
        assert_eq!(
            resilient.stdout, expected,
            "{fault} with retries diverged from the fault-free bytes"
        );

        let (code, stdout) = stop_and_collect(daemon);
        assert_eq!(code, Some(0), "{fault}: daemon must survive: {stdout}");
        let metrics_text = std::fs::read_to_string(&metrics).expect("metrics written on drain");
        let key = fault.split('=').next().unwrap();
        assert!(
            counter(&metrics_text, "chaos:injected") >= 1,
            "{fault}: chaos counter missing: {metrics_text}"
        );
        assert!(
            counter(&metrics_text, &format!("chaos:{key}")) >= 1,
            "{fault}: per-point chaos counter missing: {metrics_text}"
        );
    }
}

/// A retried compile whose first answer landed is *replayed* from the
/// idempotency table, never recompiled: after `net:drop` eats the first
/// response, the retry produces byte-identical output while the daemon
/// accounts one store, one replay, and zero cache hits.
#[test]
fn idempotent_replay_absorbs_a_dropped_response_without_recompiling() {
    let dir = tmp_dir("idem-replay");
    let hot = write_hot_c(&dir);
    let expected = baseline(&dir, "idem-replay");
    let sock = dir.join("d.sock");
    let cache = dir.join("cache");
    let metrics = dir.join("metrics.json");
    let addr = format!("127.0.0.1:{}", free_port());

    let daemon = spawn_daemon(
        &sock,
        &[
            "--jobs",
            "1",
            "--tcp",
            &addr,
            "--cache-dir",
            cache.to_str().unwrap(),
            "--fault",
            "net:drop=1",
            "--metrics-out",
            metrics.to_str().unwrap(),
        ],
    );

    // Attempt 1 compiles and stores, then the response is dropped on
    // the floor; the retry carries the same request id and must be
    // answered from the idempotency table — same bytes, no `cache: hit`
    // marker, no second compile.
    let r = request_ep(&addr, &hot, &[]);
    assert_eq!(r.code, Some(0), "retried request: {}", r.stderr);
    assert_eq!(
        r.stdout, expected,
        "idempotent replay must be byte-identical to the fault-free run"
    );

    let (code, _) = stop_and_collect(daemon);
    assert_eq!(code, Some(0), "daemon must survive the drop");
    let metrics_text = std::fs::read_to_string(&metrics).unwrap();
    assert_eq!(
        counter(&metrics_text, "serve:idempotent-replays"),
        1,
        "exactly one replay: {metrics_text}"
    );
    assert_eq!(
        counter(&metrics_text, "cache:stores"),
        1,
        "exactly one compile reached the cache: {metrics_text}"
    );
    assert_eq!(
        counter(&metrics_text, "cache:hits"),
        0,
        "a replay must not be served from the artifact cache: {metrics_text}"
    );
}

/// The accept-time connection cap: with `--max-conns 1` and the single
/// worker stalled, an overlapping client is shed immediately with a
/// `busy` hint (accounted as `serve:conn-capped`), then converges once
/// the stalled connection clears.
#[test]
fn conn_cap_sheds_overlap_with_busy_then_converges() {
    let dir = tmp_dir("conn-cap");
    let hot = write_hot_c(&dir);
    let expected = baseline(&dir, "conn-cap");
    let sock = dir.join("d.sock");
    let metrics = dir.join("metrics.json");
    let addr = format!("127.0.0.1:{}", free_port());

    let daemon = spawn_daemon(
        &sock,
        &[
            "--jobs",
            "1",
            "--tcp",
            &addr,
            "--max-conns",
            "1",
            "--fault",
            "serve:stall=1",
            "--metrics-out",
            metrics.to_str().unwrap(),
        ],
    );

    // A occupies the only connection slot (stalled ~1.5s in the
    // worker); B arrives while the slot is held, is shed with `busy`,
    // and retries until the slot frees.
    let a = Command::new(BIN)
        .args(["request", &addr, &hot])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn request A");
    std::thread::sleep(Duration::from_millis(400));
    let b = request_ep(&addr, &hot, &["--retries", "12", "--retry-base-ms", "25"]);
    assert_eq!(b.code, Some(0), "capped client must converge: {}", b.stderr);
    assert_eq!(b.stdout, expected, "capped client bytes diverged");
    assert!(
        b.stderr.contains("server busy"),
        "shed must surface as busy: {}",
        b.stderr
    );

    let out = a.wait_with_output().expect("collect request A");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stalled client failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let (code, stdout) = stop_and_collect(daemon);
    assert_eq!(code, Some(0), "daemon must survive the cap: {stdout}");
    let metrics_text = std::fs::read_to_string(&metrics).unwrap();
    assert!(
        counter(&metrics_text, "serve:conn-capped") >= 1,
        "cap sheds must be accounted: {metrics_text}"
    );
}

/// The units a daemon has answered, from its live `serve:ok` counter.
fn answered(sock: &Path) -> u64 {
    let stats = impactc(&[
        "request",
        sock.to_str().unwrap(),
        "--stats",
        "--retries",
        "0",
    ]);
    stats
        .stdout
        .lines()
        .find_map(|l| l.strip_prefix(";   serve:ok "))
        .map_or(0, |n| n.parse().expect("integer counter"))
}

/// The tentpole scenario: a `batch --remote` campaign against two TCP
/// daemons, one of which is `kill -9`ed mid-campaign and later
/// restarted. The multi-endpoint client must fail over, open the dead
/// endpoint's circuit breaker, recover it through a half-open probe
/// after the restart, and still produce a campaign report byte-identical
/// to a fault-free single-daemon run — with zero daemon crashes.
#[test]
fn two_daemon_failover_campaign_converges_byte_identically() {
    let dir = tmp_dir("failover");
    let units = dir.join("units");
    std::fs::create_dir_all(&units).unwrap();
    // The choreography below waits on events and on injected stalls,
    // never on how long a unit takes to compile, so the units are small.
    for i in 0..24 {
        std::fs::write(
            units.join(format!("u{i:02}.c")),
            format!(
                "int spin(int n) {{ int i; int s; s = {i}; for (i = 0; i < n; i++) s += i & 7; return s; }}\n\
                 int main() {{ int r; int j; r = 0; for (j = 0; j < 10; j++) r += spin(200); return r & 0; }}"
            ),
        )
        .unwrap();
    }
    let units = units.to_str().unwrap().to_string();

    // Ground truth: the same campaign against one fresh daemon.
    let base_sock = dir.join("base.sock");
    let base = spawn_daemon(&base_sock, &["--jobs", "1"]);
    let expected = impactc(&["batch", &units, "--remote", base_sock.to_str().unwrap()]);
    assert_eq!(
        expected.code,
        Some(0),
        "fault-free campaign failed: {}",
        expected.stderr
    );
    let (code, _) = stop_and_collect(base);
    assert_eq!(code, Some(0));
    let expected = expected.stdout;

    let sock_a = dir.join("a.sock");
    let sock_b = dir.join("b.sock");
    let addr_a = format!("127.0.0.1:{}", free_port());
    let addr_b = format!("127.0.0.1:{}", free_port());
    // A holds its second unit, so the kill lands mid-campaign; its
    // second worker answers the stats polls meanwhile. B holds its
    // fourth unit, the first one after A's breaker opens (three A
    // failures, each failing over to B), which keeps the campaign open
    // past the breaker's 500 ms cooldown.
    let daemon_a = spawn_daemon(
        &sock_a,
        &["--jobs", "2", "--tcp", &addr_a, "--fault", "serve:stall=2"],
    );
    let daemon_b = spawn_daemon(
        &sock_b,
        &["--jobs", "1", "--tcp", &addr_b, "--fault", "serve:stall=4"],
    );

    let endpoints = format!("{addr_a},{addr_b}");
    let metrics = dir.join("metrics.json");
    let mut client = Command::new(BIN)
        .args([
            "batch",
            &units,
            "--remote",
            &endpoints,
            "--metrics-out",
            metrics.to_str().unwrap(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn remote campaign");
    let notices = client.stderr.take().expect("piped stderr");
    let (tx, rx) = std::sync::mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        for line in BufReader::new(notices).lines() {
            let line = line.expect("read campaign stderr");
            let _ = tx.send(line.contains("circuit breaker opened"));
            text.push_str(&line);
            text.push('\n');
        }
        text
    });

    // Mid-campaign: hard-kill A once it has answered a unit. The next
    // units fail over to B; after three consecutive A failures the
    // breaker opens and A is skipped outright.
    let deadline = Instant::now() + Duration::from_secs(30);
    while answered(&sock_a) == 0 {
        assert!(Instant::now() < deadline, "A never answered a unit");
    }
    kill9_and_reap(daemon_a, &sock_a);
    // Restart A on the same endpoint once its breaker has opened: after
    // the cooldown, a half-open probe finds it healthy and brings it
    // back into rotation.
    let opened = rx.iter().any(|breaker_opened| breaker_opened);
    assert!(opened, "the campaign ended before A's breaker opened");
    let daemon_a = spawn_daemon(&sock_a, &["--jobs", "1", "--tcp", &addr_a]);

    let out = client.wait_with_output().expect("collect campaign");
    let stderr = reader.join().expect("stderr reader");
    assert_eq!(
        out.status.code(),
        Some(0),
        "campaign must converge despite the kill: {stderr}"
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        expected,
        "failover campaign diverged from the fault-free bytes"
    );
    assert!(
        stderr.contains("circuit breaker opened"),
        "breaker never opened for the dead endpoint: {stderr}"
    );
    assert!(
        stderr.contains("recovered"),
        "restarted endpoint never recovered: {stderr}"
    );

    // Client-side breaker lifecycle, from telemetry: opened at least
    // once, probed at least once, recovered at least once, and at least
    // one unit failed over.
    let metrics_text = std::fs::read_to_string(&metrics).expect("campaign metrics");
    for name in [
        "breaker:opened",
        "breaker:probes",
        "breaker:recovered",
        "net:failovers",
    ] {
        assert!(
            counter(&metrics_text, name) >= 1,
            "`{name}` must fire during the failover campaign: {metrics_text}"
        );
    }

    // Zero daemon crashes: B rode through the whole campaign, and the
    // restarted A drains cleanly.
    let (code, _) = stop_and_collect(daemon_b);
    assert_eq!(code, Some(0), "daemon B must survive the campaign");
    let (code, _) = stop_and_collect(daemon_a);
    assert_eq!(code, Some(0), "restarted daemon A must drain cleanly");
}

/// `--deadline-ms` is an overall budget: against a daemon that never
/// answers usefully (stall longer than the deadline), the client gives
/// up with a deadline error instead of burning all its retries.
#[test]
fn deadline_bounds_the_whole_retry_schedule() {
    let dir = tmp_dir("deadline");
    let hot = write_hot_c(&dir);
    let sock = dir.join("d.sock");
    // The first request stalls 1500ms; a 600ms overall deadline must
    // expire during that stalled exchange.
    let daemon = spawn_daemon(&sock, &["--jobs", "1", "--fault", "serve:stall=1"]);

    let start = Instant::now();
    let r = request(&sock, &hot, &["--deadline-ms", "600"]);
    let elapsed = start.elapsed();
    assert_eq!(r.code, Some(2), "deadline run must fail: {}", r.stdout);
    assert!(
        r.stderr.contains("deadline"),
        "failure must name the deadline: {}",
        r.stderr
    );
    assert!(
        elapsed < Duration::from_secs(5),
        "client overstayed its deadline: {elapsed:?}"
    );

    let (code, _) = stop_and_collect(daemon);
    assert_eq!(code, Some(0), "daemon must survive deadline clients");
}

// ----- Flight recorder under chaos ----------------------------------------

/// Reads the one `serve-incident-*.json` dump a scenario produced.
fn read_incident(reports: &Path) -> String {
    let incidents: Vec<_> = std::fs::read_dir(reports)
        .expect("report dir exists")
        .filter_map(|e| e.ok())
        .filter(|e| {
            let n = e.file_name().to_string_lossy().into_owned();
            n.starts_with("serve-incident-") && n.ends_with(".json")
        })
        .collect();
    assert_eq!(
        incidents.len(),
        1,
        "expected exactly one incident dump, got {incidents:?}"
    );
    std::fs::read_to_string(incidents[0].path()).unwrap()
}

/// Asserts an incident dump carries a non-empty flight ring whose last
/// events name the failing request's trace id (the dump's own `trace`
/// field), for the given armed fault.
fn assert_incident_names_the_trace(incident: &str, reason: &str, fault_detail: &str) {
    assert!(
        incident.contains(&format!("\"reason\": \"{reason}\"")),
        "wrong incident reason: {incident}"
    );
    let trace = incident
        .split("\"trace\": \"")
        .nth(1)
        .and_then(|r| r.split('"').next())
        .expect("incident names a trace id")
        .to_string();
    assert_ne!(
        trace, "0000000000000000",
        "incident trace must be the failing request's, not untraced: {incident}"
    );
    assert!(
        incident.contains("\"seq\": "),
        "flight ring dump is empty: {incident}"
    );
    // The ring's recent events include the fault firing, tagged with the
    // same trace id as the dump header.
    let fault_event = incident
        .split(&format!("\"detail\": \"{fault_detail}\""))
        .nth(1)
        .unwrap_or_else(|| panic!("`{fault_detail}` event missing from the ring: {incident}"));
    assert!(
        fault_event.contains(&format!("\"trace\": \"{trace}\"")),
        "fault event not tagged with the failing trace {trace}: {incident}"
    );
}

/// Under `serve:panic`, the incident JSON must contain a non-empty
/// flight-recorder dump whose last events name the failing request's
/// trace id.
#[test]
fn serve_panic_incident_dumps_the_flight_ring_with_the_failing_trace() {
    let dir = tmp_dir("flight-panic");
    let hot = write_hot_c(&dir);
    let sock = dir.join("d.sock");
    let reports = dir.join("reports");
    let daemon = spawn_daemon(
        &sock,
        &[
            "--jobs",
            "1",
            "--fault",
            "serve:panic=1",
            "--report-dir",
            reports.to_str().unwrap(),
        ],
    );

    let r = request(&sock, &hot, &["--retries", "0"]);
    assert_eq!(r.code, Some(2), "panicked request must error: {}", r.stdout);
    let (code, _) = stop_and_collect(daemon);
    assert_eq!(code, Some(0), "daemon must survive the panic");

    let incident = read_incident(&reports);
    assert_incident_names_the_trace(&incident, "worker-panic", "serve:panic");
    assert!(
        incident.contains("\"kind\": \"panic\""),
        "the panic itself must be the ring's last event: {incident}"
    );
}

/// Same contract under `net:reset`: the connection dies right after the
/// request is read, and the dump still names the victim's trace id.
#[test]
fn net_reset_incident_dumps_the_flight_ring_with_the_failing_trace() {
    let dir = tmp_dir("flight-reset");
    let hot = write_hot_c(&dir);
    let sock = dir.join("d.sock");
    let reports = dir.join("reports");
    let daemon = spawn_daemon(
        &sock,
        &[
            "--jobs",
            "1",
            "--fault",
            "net:reset=1",
            "--report-dir",
            reports.to_str().unwrap(),
        ],
    );

    let r = request(&sock, &hot, &["--retries", "0"]);
    assert_eq!(r.code, Some(2), "reset request must error: {}", r.stdout);
    let (code, _) = stop_and_collect(daemon);
    assert_eq!(code, Some(0), "daemon must survive the reset");

    let incident = read_incident(&reports);
    assert_incident_names_the_trace(&incident, "net:reset", "net:reset");
}

/// A pre-v4 client must get a clean protocol-version error, never a
/// hang: the daemon answers a v3 header with a structured `bad protocol`
/// error response within the read timeout.
#[test]
fn v3_client_gets_a_clean_protocol_error_not_a_hang() {
    use std::io::{Read, Write};
    use std::os::unix::net::UnixStream;

    let dir = tmp_dir("v3-client");
    let sock = dir.join("d.sock");
    let daemon = spawn_daemon(&sock, &["--jobs", "1"]);

    // A verbatim PR 9-era compile frame: v3 had no trace-id field.
    let mut stream = UnixStream::connect(&sock).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let body = "int main() { return 0; }\n";
    let frame = format!(
        "impact-serve v3 compile 1 00000000deadbeef\n{} {}\na.c{body}",
        "a.c".len(),
        body.len()
    );
    stream.write_all(frame.as_bytes()).expect("write v3 frame");
    stream.flush().unwrap();

    let mut reply = String::new();
    stream
        .read_to_string(&mut reply)
        .expect("v4 daemon must answer, not hang");
    assert!(
        reply.starts_with("impact-serve v4 error"),
        "expected a structured error response: {reply:?}"
    );
    assert!(
        reply.contains("bad protocol"),
        "error must name the protocol mismatch: {reply:?}"
    );

    let (code, _) = stop_and_collect(daemon);
    assert_eq!(code, Some(0), "daemon must survive a pre-v4 client");
}

/// The TCP request deadline bounds the whole request, not each read: a
/// peer that trickles a ping header one byte every 300 ms is answered
/// or dropped once the deadline passes, instead of holding a worker for
/// as long as the trickle lasts.
#[test]
fn tcp_trickling_peer_is_cut_off_at_the_request_deadline() {
    use std::io::{Read, Write};
    use std::net::TcpStream;

    let dir = tmp_dir("trickle");
    let sock = dir.join("d.sock");
    let addr = format!("127.0.0.1:{}", free_port());
    let daemon = spawn_daemon(&sock, &["--jobs", "1", "--tcp", &addr]);

    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(15)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let started = Instant::now();
    let trickle = std::thread::spawn(move || {
        for b in b"impact-serve v4 ping 0000000000000001\n" {
            if writer.write_all(&[*b]).is_err() {
                break;
            }
            std::thread::sleep(Duration::from_millis(300));
        }
    });
    // An error response, a close or a reset all end the wait; only the
    // time it took matters.
    let mut reply = Vec::new();
    let _ = stream.read_to_end(&mut reply);
    let held = started.elapsed();
    trickle.join().unwrap();
    // Drain first, so a failed check below does not leave the daemon
    // running.
    let (code, _) = stop_and_collect(daemon);
    assert!(
        held < Duration::from_millis(3500),
        "a trickling peer held its connection for {held:?}: {:?}",
        String::from_utf8_lossy(&reply)
    );
    assert_eq!(code, Some(0), "daemon must survive a trickling peer");
}
