//! End-to-end telemetry tests: the `--explain` / `--decisions-out`
//! golden agreement contract, run-to-run determinism of the exported
//! JSON (modulo wall-clock fields), exporter file shapes, the
//! zero-artifact guarantee of a flag-free run, and the bench suite's
//! `BENCH_inline.json` report.

use impact_driver::{execute, Options};

fn strs(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| s.to_string()).collect()
}

/// A program exercising all four call-site classes of the paper's
/// taxonomy: `__fgetc` is external, `p(i)` is a pointer call, `rare` is
/// unsafe (below the weight threshold), `hot` is safe and expanded.
const ALL_CLASSES: &str = "extern int __fgetc(int fd);\n\
     int hot(int x) { return x + 1; }\n\
     int rare(int x) { return x - 1; }\n\
     int main() { int (*p)(int); int i; int s; p = hot; s = __fgetc(0) + rare(1);\n\
       for (i = 0; i < 40; i++) s += hot(i) + p(i);\n\
       return s & 0xff; }\n";

/// A fresh temp dir holding the all-classes fixture.
fn fixture_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("impactc-telemetry-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("all_classes.c"), ALL_CLASSES).unwrap();
    dir
}

/// Zeroes every `"total_us": N` so metrics snapshots from two runs can
/// be compared; everything else in the document is deterministic.
fn strip_total_us(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(i) = rest.find("\"total_us\": ") {
        let tail = &rest[i + "\"total_us\": ".len()..];
        let digits = tail.chars().take_while(char::is_ascii_digit).count();
        out.push_str(&rest[..i]);
        out.push_str("\"total_us\": 0");
        rest = &tail[digits..];
    }
    out.push_str(rest);
    out
}

/// Pulls `"key": value` (unquoted or quoted scalar up to the next comma
/// or brace) out of one JSON object line.
fn field<'a>(line: &'a str, key: &str) -> &'a str {
    let pat = format!("\"{key}\": ");
    let start = line
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {line}"))
        + pat.len();
    let rest = &line[start..];
    let end = rest
        .find([',', '}'])
        .unwrap_or_else(|| panic!("unterminated {key} in {line}"));
    rest[..end].trim_matches('"')
}

#[test]
fn explain_and_decisions_out_agree_record_for_record() {
    let dir = fixture_dir("golden");
    let src = dir.join("all_classes.c");
    let djson = dir.join("decisions.json");
    let o = Options::parse(&strs(&[
        "inline",
        src.to_str().unwrap(),
        "--explain",
        "--decisions-out",
        djson.to_str().unwrap(),
    ]))
    .unwrap();
    let (code, out) = execute(&o).unwrap();
    assert_eq!(code, 0, "{out}");

    let json = std::fs::read_to_string(&djson).unwrap();
    assert!(
        json.contains("\"kind\": \"impact-inline-decisions\""),
        "{json}"
    );
    assert!(json.contains("\"version\": 1"), "{json}");
    let records: Vec<&str> = json
        .lines()
        .filter(|l| l.trim_start().starts_with("{\"site\":"))
        .collect();
    assert!(!records.is_empty(), "{json}");

    // All four classes of the paper's taxonomy appear on this fixture.
    for class in ["external", "pointer", "unsafe", "safe"] {
        assert!(
            records.iter().any(|r| field(r, "class") == class),
            "missing class {class} in {json}"
        );
    }

    // The table header's totals match the JSON header's.
    let header = out
        .lines()
        .find(|l| l.starts_with("; inline decisions:"))
        .unwrap_or_else(|| panic!("no decisions header in {out}"));
    assert!(
        header.contains(&format!("{} sites", records.len())),
        "{header} vs {} JSON records",
        records.len()
    );
    let expanded = records
        .iter()
        .filter(|r| field(r, "accepted") == "true")
        .count();
    assert!(header.contains(&format!("{expanded} expanded")), "{header}");

    // Table data rows: `;  <site>  <class>  ... <reason>` — one per JSON
    // record, same site order, same class, same reason.
    let rows: Vec<&str> = out
        .lines()
        .filter(|l| {
            l.starts_with(";  ")
                && l.split_whitespace()
                    .nth(1)
                    .is_some_and(|t| t.chars().all(|c| c.is_ascii_digit()))
        })
        .collect();
    assert_eq!(rows.len(), records.len(), "{out}");
    for (row, rec) in rows.iter().zip(&records) {
        let mut toks = row.split_whitespace();
        assert_eq!(toks.next(), Some(";"));
        assert_eq!(toks.next(), Some(field(rec, "site")), "{row} vs {rec}");
        assert_eq!(toks.next(), Some(field(rec, "class")), "{row} vs {rec}");
        let reason = field(rec, "reason");
        assert!(row.trim_end().ends_with(reason), "{row} vs reason {reason}");
    }
}

#[test]
fn identical_runs_export_identical_json_modulo_wall_clock() {
    let dir = fixture_dir("determinism");
    let src = dir.join("all_classes.c");
    let run = |tag: &str| {
        let d = dir.join(format!("{tag}-decisions.json"));
        let m = dir.join(format!("{tag}-metrics.json"));
        let t = dir.join(format!("{tag}-trace.json"));
        let o = Options::parse(&strs(&[
            "inline",
            src.to_str().unwrap(),
            "--decisions-out",
            d.to_str().unwrap(),
            "--metrics-out",
            m.to_str().unwrap(),
            "--trace-out",
            t.to_str().unwrap(),
        ]))
        .unwrap();
        let (code, out) = execute(&o).unwrap();
        assert_eq!(code, 0, "{out}");
        (
            std::fs::read_to_string(d).unwrap(),
            std::fs::read_to_string(m).unwrap(),
            std::fs::read_to_string(t).unwrap(),
        )
    };
    let (da, ma, ta) = run("a");
    let (db, mb, tb) = run("b");
    // Decisions carry no clock data at all: byte-identical.
    assert_eq!(da, db);
    // Metrics are identical once the `total_us` timings are stripped.
    assert_eq!(strip_total_us(&ma), strip_total_us(&mb));
    // Traces are Chrome trace-event documents with the same event names.
    for t in [&ta, &tb] {
        assert!(t.starts_with("{\"displayTimeUnit\""), "{t}");
        assert!(t.ends_with("]}\n"), "{t}");
        for span in ["cfront:parse", "il:verify", "inline:expand", "vm:run"] {
            assert!(t.contains(span), "trace missing {span}: {t}");
        }
    }
    // Metrics carry the pipeline's counters.
    for counter in ["inline:sites:safe", "vm:il_executed", "cfront:functions"] {
        assert!(ma.contains(counter), "metrics missing {counter}: {ma}");
    }
    assert!(ma.contains("\"kind\": \"impact-metrics\""), "{ma}");
}

#[test]
fn flag_free_run_writes_no_telemetry_artifacts() {
    let dir = fixture_dir("silent");
    let src = dir.join("all_classes.c");
    let o = Options::parse(&strs(&["inline", src.to_str().unwrap()])).unwrap();
    let (code, out) = execute(&o).unwrap();
    assert_eq!(code, 0, "{out}");
    assert!(!out.contains("inline decisions:"), "{out}");
    let entries: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(
        entries,
        vec!["all_classes.c"],
        "unexpected artifacts: {entries:?}"
    );
}

#[test]
fn telemetry_flags_are_scoped_to_their_commands() {
    let dir = fixture_dir("scope");
    let src = dir.join("all_classes.c");
    let o = Options::parse(&strs(&["compile", src.to_str().unwrap(), "--explain"])).unwrap();
    let err = execute(&o).unwrap_err();
    assert!(err.contains("only apply to `inline`"), "{err}");
    let o = Options::parse(&strs(&[
        "compile",
        src.to_str().unwrap(),
        "--trace-out",
        dir.join("t.json").to_str().unwrap(),
    ]))
    .unwrap();
    let err = execute(&o).unwrap_err();
    assert!(err.contains("pipeline commands"), "{err}");
}

#[test]
fn batch_summary_reports_per_unit_time_and_retries() {
    let dir = fixture_dir("batch");
    let metrics = dir.join("metrics.json");
    let o = Options::parse(&strs(&[
        "batch",
        dir.to_str().unwrap(),
        "--metrics-out",
        metrics.to_str().unwrap(),
    ]))
    .unwrap();
    let (code, out) = execute(&o).unwrap();
    assert_eq!(code, 0, "{out}");
    let header = out
        .lines()
        .find(|l| l.starts_with("unit"))
        .unwrap_or_else(|| panic!("no table header in {out}"));
    for col in ["attempts", "retries", "time", "signature"] {
        assert!(header.contains(col), "{header}");
    }
    let row = out
        .lines()
        .find(|l| l.contains("all_classes.c"))
        .unwrap_or_else(|| panic!("no unit row in {out}"));
    assert!(
        row.split_whitespace()
            .any(|t| t.ends_with("ms") && t.trim_end_matches("ms").parse::<u64>().is_ok()),
        "no time column in {row}"
    );
    assert!(out.contains("quarantined in "), "{out}");
    let m = std::fs::read_to_string(&metrics).unwrap();
    for counter in ["batch:units", "batch:ok", "vm:il_executed"] {
        assert!(m.contains(counter), "metrics missing {counter}: {m}");
    }
}

#[test]
fn bench_suite_writes_paper_style_report() {
    let dir = fixture_dir("bench");
    let o = Options::parse(&strs(&["bench", "--report-dir", dir.to_str().unwrap()])).unwrap();
    let (code, out) = execute(&o).unwrap();
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("; bench suite:"), "{out}");
    assert!(out.contains("; wrote "), "{out}");
    let json = std::fs::read_to_string(dir.join("BENCH_inline.json")).unwrap();
    assert!(json.contains("\"kind\": \"impact-bench-inline\""), "{json}");
    assert!(json.contains("\"version\": 1"), "{json}");
    assert!(json.contains("\"static_sites\""), "{json}");
    assert!(json.contains("\"dynamic_calls\""), "{json}");
    assert!(
        json.lines()
            .any(|l| l.trim_start().starts_with("{\"name\":")),
        "no benchmark entries: {json}"
    );
    // Tables 1-4 are pinned: a change that moves a cell regenerates the
    // committed file with `impactc bench` in the repository root.
    assert_eq!(
        json,
        include_str!("../../../BENCH_inline.json"),
        "BENCH_inline.json differs from the committed copy"
    );
    // The staging scratch dir never leaks a temp file.
    let staging = dir.join(".staging");
    if staging.is_dir() {
        assert_eq!(std::fs::read_dir(&staging).unwrap().count(), 0);
    }
}
