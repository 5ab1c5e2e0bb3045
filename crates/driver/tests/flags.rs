//! Characterization of the `impactc` flag surface, pinned so that the way
//! flags are declared can change without changing what they do:
//!
//! 1. the command-scope matrix: for each of the 43 flags, exactly which
//!    of the 9 commands accept it and which reject it with a scope
//!    message naming the flag, and
//! 2. the cache key and campaign fingerprint of a fully-populated command
//!    line, as hex literals — existing artifact caches and campaign
//!    journals stay valid only while these bytes do.

use impact_cfront::Source;
use impact_driver::cache::unit_key;
use impact_driver::journal::campaign_fingerprint;
use impact_driver::{execute, Options, RunSpec};
use impact_vm::NamedFile;

const COMMANDS: [&str; 9] = [
    "compile",
    "run",
    "inline",
    "callgraph",
    "bench",
    "batch",
    "fuzz",
    "serve",
    "request",
];

const ALL: &[&str] = &COMMANDS;
const CAMPAIGN: &[&str] = &["batch", "fuzz"];
const PIPELINE: &[&str] = &["inline", "bench", "batch", "fuzz", "serve", "request"];
const SERVICE: &[&str] = &["batch", "serve"];
const RETRYING: &[&str] = &["batch", "request"];
const VM: &[&str] = &[
    "run",
    "inline",
    "callgraph",
    "bench",
    "batch",
    "fuzz",
    "serve",
];

/// Every flag, a value that parses (`None` for a switch), and the
/// commands that accept it.
const MATRIX: [(&str, Option<&str>, &[&str]); 43] = [
    ("--input", Some("in=/nonexistent/in"), ALL),
    ("--arg", Some("-v"), ALL),
    ("--threshold", Some("5"), ALL),
    ("--budget", Some("1.5"), ALL),
    ("--stack-bound", Some("64"), ALL),
    ("--linearize", Some("source"), ALL),
    ("--promote-indirect", None, ALL),
    ("--profile-out", Some("/nonexistent/p.out"), ALL),
    ("--profile-in", Some("/nonexistent/p.in"), ALL),
    ("--opt", None, ALL),
    ("--fault", Some("expand:verify"), ALL),
    ("--quiet", None, ALL),
    ("--fuel", Some("100"), ALL),
    ("--mem-limit", Some("100"), ALL),
    ("--time-limit-ms", Some("100"), ALL),
    ("--retries", Some("1"), RETRYING),
    ("--retry-base-ms", Some("1"), RETRYING),
    ("--report-dir", Some("/nonexistent/reports"), ALL),
    ("--fault-unit", Some("u.c"), ALL),
    ("--workloads", None, ALL),
    ("--journal", Some("/nonexistent/j.journal"), CAMPAIGN),
    ("--resume", None, CAMPAIGN),
    ("--force-resume", None, CAMPAIGN),
    ("--explain", None, &["inline"]),
    ("--decisions-out", Some("/nonexistent/d.json"), &["inline"]),
    ("--trace-out", Some("/nonexistent/t.json"), PIPELINE),
    ("--metrics-out", Some("/nonexistent/m.json"), PIPELINE),
    ("--seed", Some("7"), ALL),
    ("--jobs", Some("2"), SERVICE),
    ("--cache-dir", Some("/nonexistent/cache"), SERVICE),
    ("--queue-depth", Some("2"), &["serve"]),
    ("--cache-budget-bytes", Some("64"), SERVICE),
    ("--deadline-ms", Some("100"), &["request"]),
    ("--ping", None, &["request"]),
    ("--tcp", Some("127.0.0.1:1"), &["serve"]),
    ("--max-conns", Some("2"), &["serve"]),
    ("--remote", Some("a.sock"), &["batch"]),
    ("--engine", Some("interp"), VM),
    ("--icache", None, VM),
    ("--stats", None, &["request"]),
    ("--stats-prom", None, &["request"]),
    ("--stats-json", None, &["request"]),
    ("--flight-recorder", Some("4"), &["serve"]),
];

/// Positional arguments that make each command fail fast, before any
/// file or socket is touched, once the scope check has passed.
fn fail_fast_positionals(command: &str) -> &'static [&'static str] {
    match command {
        "bench" => &["no-such-benchmark"],
        "batch" => &["bench:no-such-benchmark"],
        "fuzz" => &["unexpected-positional"],
        "serve" => &["a.sock", "b.sock"],
        _ => &[],
    }
}

fn strs(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| s.to_string()).collect()
}

#[test]
fn every_command_accepts_exactly_its_flags() {
    let mut wrong = Vec::new();
    for (flag, value, accepted) in MATRIX {
        for command in COMMANDS {
            let mut argv = vec![command];
            argv.extend(fail_fast_positionals(command));
            argv.push(flag);
            argv.extend(value);
            let opts = Options::parse(&strs(&argv)).expect("every sample value parses");
            let scope_error = match execute(&opts) {
                Err(e) if e.contains(" only apply to ") || e.contains(" only applies to ") => {
                    assert!(e.contains(flag), "{command} {flag}: unactionable: {e}");
                    assert!(e.contains(&format!("`{command}`")), "{command} {flag}: {e}");
                    Some(e)
                }
                _ => None,
            };
            if scope_error.is_some() == accepted.contains(&command) {
                wrong.push(format!("{command} {flag}: scope error {scope_error:?}"));
            }
        }
    }
    assert!(
        wrong.is_empty(),
        "scope decisions changed:\n{}",
        wrong.join("\n")
    );
}

/// One command line setting all 43 flags, with faults from every domain
/// in unsorted order and values that need escaping.
fn populated() -> Options {
    let mut argv = vec!["batch", "u1.c", "u2.c"];
    for (flag, value, _) in MATRIX {
        argv.push(flag);
        argv.extend(value);
    }
    argv.extend([
        "--input",
        "two words=/tmp/a b%c",
        "--arg",
        "x y",
        "--linearize",
        "random:9",
        "--fault",
        "journal:crash=3",
        "--fault",
        "serve:stall=1",
        "--fault",
        "opt:pass:1",
        "--fault",
        "cache:bitflip=1",
        "--fault",
        "net:drop=1",
        "--fault",
        "vm:oom=2",
    ]);
    Options::parse(&strs(&argv)).unwrap()
}

fn unit() -> (Vec<Source>, Vec<RunSpec>) {
    let sources = vec![
        Source::new("a.c", "int f(int x) { return x; }"),
        Source::new("b c.c", "int main() { return f(1); }"),
    ];
    let runs = vec![
        (vec![NamedFile::new("in", b"xyz".to_vec())], strs(&["-v"])),
        (Vec::new(), strs(&["a b", ""])),
    ];
    (sources, runs)
}

#[test]
fn cache_key_and_campaign_fingerprint_bytes_are_pinned() {
    let (sources, runs) = unit();
    let bare = Options::parse(&strs(&["batch"])).unwrap();
    let full = populated();
    let units = strs(&["u1.c", "u 2.c"]);
    let got = [
        unit_key(&sources, &runs, &bare),
        unit_key(&sources, &runs, &full),
        campaign_fingerprint("batch", &bare, &[]),
        campaign_fingerprint("batch", &full, &units),
        campaign_fingerprint("fuzz", &full, &[]),
    ]
    .map(|h| format!("{h:016x}"));
    assert_eq!(
        got,
        [
            "8a7caa1eff62537b",
            "53fe29373ba3c53e",
            "d048fb508104a562",
            "d6a42eeb3121626c",
            "cbb3e510b30b2af5",
        ]
    );
}
