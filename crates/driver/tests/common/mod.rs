//! Helpers shared by the campaign matrices (`crash_recovery.rs`,
//! `parallel.rs`): spawning the real binary, canonicalizing campaign
//! output, snapshotting report dirs, and the crash-consistency checks.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_impactc");

pub struct RunResult {
    /// `None` when the process died on a signal (SIGABRT from a kill
    /// point); `Some(code)` for a normal exit.
    pub code: Option<i32>,
    pub stdout: String,
    pub stderr: String,
}

pub fn impactc<S: AsRef<std::ffi::OsStr>>(args: &[S]) -> RunResult {
    let out = Command::new(BIN)
        .args(args)
        .output()
        .expect("spawn impactc");
    RunResult {
        code: out.status.code(),
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
    }
}

/// A fresh temp dir, distinct per test binary and tag.
pub fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("impactc-{}-{tag}", env!("CARGO_CRATE_NAME")));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Drops the `; journal:` status lines — the one output difference the
/// resume contract allows — and rewrites the scenario's report dir to a
/// placeholder so summaries from different directories compare equal.
/// Elapsed-time tokens (`<digits>ms`) are nondeterministic between
/// processes, so they are normalized to `<N>ms`; because the batch table
/// pads its time column to the widest value, runs of spaces are then
/// collapsed so column alignment differences cancel out too.
pub fn canon(s: &str, report_dir: &Path) -> String {
    let kept = s
        .lines()
        .filter(|l| !l.starts_with("; journal:"))
        .map(|l| format!("{l}\n"))
        .collect::<String>()
        .replace(report_dir.to_str().unwrap(), "<REPORT_DIR>");
    collapse_spaces(&normalize_ms(&kept))
}

/// Replaces every `<digits>ms` token with `<N>ms`.
fn normalize_ms(s: &str) -> String {
    let pieces: Vec<&str> = s.split("ms").collect();
    let mut out = String::with_capacity(s.len());
    for (i, piece) in pieces.iter().enumerate() {
        if i > 0 {
            out.push_str("ms");
        }
        let head = piece.trim_end_matches(|c: char| c.is_ascii_digit());
        if i + 1 < pieces.len() && head.len() < piece.len() {
            out.push_str(head);
            out.push_str("<N>");
        } else {
            out.push_str(piece);
        }
    }
    out
}

/// Collapses runs of spaces to a single space (padded columns shift when
/// `normalize_ms` replaces variable-width digits with a fixed token).
fn collapse_spaces(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut prev_space = false;
    for c in s.chars() {
        if c == ' ' {
            if !prev_space {
                out.push(c);
            }
            prev_space = true;
        } else {
            prev_space = false;
            out.push(c);
        }
    }
    out
}

/// Zeroes every `"wall_ms": N` in a JSON report — wall time is the one
/// nondeterministic field a rerun cannot reproduce.
fn normalize_wall_ms(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(i) = rest.find("\"wall_ms\": ") {
        let tail = &rest[i + "\"wall_ms\": ".len()..];
        let digits = tail.chars().take_while(char::is_ascii_digit).count();
        out.push_str(&rest[..i]);
        out.push_str("\"wall_ms\": 0");
        rest = &tail[digits..];
    }
    out.push_str(rest);
    out
}

/// Snapshot of a report dir: file name → normalized content, excluding
/// subdirectories (the `.staging/` scratch area) and the manifest, which
/// fingerprints the campaign *including* its report dir and so
/// legitimately differs across scenario directories.
pub fn snapshot(dir: &Path) -> BTreeMap<String, String> {
    let mut map = BTreeMap::new();
    if !dir.is_dir() {
        return map;
    }
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name().to_string_lossy().into_owned();
        if entry.path().is_dir() || name == "campaign.manifest" {
            continue;
        }
        let text = std::fs::read_to_string(entry.path()).unwrap();
        map.insert(
            name,
            normalize_wall_ms(&text).replace(dir.to_str().unwrap(), "<REPORT_DIR>"),
        );
    }
    map
}

/// Post-kill invariant: no torn *published* artifact — no `*.tmp`
/// outside `.staging/`, every published JSON document complete. The
/// `.staging/` scratch area is excluded: a kill can interrupt a pool
/// worker mid-staging-write (the abort fires on the journal thread while
/// compiles are in flight), and the crash-consistency contract is that
/// such in-flight files are never *published* and are scrubbed on the
/// next campaign start (`assert_staging_scrubbed`).
pub fn assert_no_torn_artifacts(dir: &Path) {
    if !dir.is_dir() {
        return;
    }
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).unwrap() {
            let p = entry.unwrap().path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n == ".staging") {
                    continue;
                }
                stack.push(p);
                continue;
            }
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            assert!(
                !name.ends_with(".tmp"),
                "torn staging file visible after kill: {}",
                p.display()
            );
            if name.ends_with(".json") {
                let text = std::fs::read_to_string(&p).unwrap();
                let opens = text.matches('{').count();
                let closes = text.matches('}').count();
                assert!(
                    opens > 0 && opens == closes && text.ends_with('\n'),
                    "truncated JSON visible after kill: {} ({opens} open / {closes} close braces)",
                    p.display()
                );
            }
        }
    }
}

/// After a completed (resumed) campaign, even the scratch area is
/// clean: campaign start scrubs staging leftovers a crash stranded.
pub fn assert_staging_scrubbed(dir: &Path) {
    let stale = std::fs::read_dir(dir.join(".staging"))
        .ok()
        .and_then(|mut entries| entries.next());
    if let Some(entry) = stale {
        panic!(
            "stale staging file survived the resumed campaign: {}",
            entry.unwrap().path().display()
        );
    }
}

pub fn write_units(dir: &Path) -> Vec<String> {
    let units = [
        (
            "alpha.c",
            "int sq(int x) { return x * x; }\n\
             int main() { int i; int s; s = 0; for (i = 0; i < 40; i++) s += sq(i); return s & 0xff; }",
        ),
        (
            "beta.c",
            "int tri(int x) { return x + x + x; }\n\
             int main() { int i; int s; s = 0; for (i = 0; i < 40; i++) s += tri(i); return s & 0xff; }",
        ),
        (
            "gamma.c",
            "int half(int x) { return x / 2; }\n\
             int main() { int i; int s; s = 0; for (i = 0; i < 40; i++) s += half(i); return s & 0xff; }",
        ),
    ];
    units
        .iter()
        .map(|(name, text)| {
            let p = dir.join(name);
            std::fs::write(&p, text).unwrap();
            p.to_str().unwrap().to_string()
        })
        .collect()
}

/// Batch flag set shared by the baselines, every kill run, and every
/// resume (the kill fault itself is the only difference, and `journal:*`
/// specs are excluded from the campaign fingerprint by design): beta
/// quarantines via an injected verifier fault, so the batch exercises ok
/// units, a failing unit, and crash reporting.
pub fn batch_args<'a>(
    units: &'a [String],
    beta: &'a str,
    report: &'a str,
    journal: &'a str,
) -> Vec<&'a str> {
    let mut v: Vec<&str> = vec!["batch"];
    v.extend(units.iter().map(String::as_str));
    v.extend([
        "--retries",
        "0",
        "--fault",
        "inline:verify",
        "--fault-unit",
        beta,
        "--report-dir",
        report,
        "--journal",
        journal,
    ]);
    v
}
