//! Structured failure classification and JSON crash reports.
//!
//! Batch supervision turns every quarantined unit into a small, replayable
//! artifact instead of a stack trace: a versioned JSON document carrying
//! the failure signature, the configuration and governor limits in force,
//! the per-attempt history, the incident chain the recovery layer
//! collected before the hard failure, and a delta-debugged reproducer
//! (also written next to the JSON as a plain `.repro.c` file so it can be
//! replayed directly with `impactc inline`).

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::minimize::ShrinkResult;
use crate::Options;

/// Hidden staging subdirectory used by [`atomic_write_in`]: in-flight
/// bytes live here (as `<name>.tmp`) until the final rename, so a crash
/// can never leave a partially-written file among the observable reports.
pub const STAGING_DIR: &str = ".staging";

/// Atomically publishes `bytes` as `dir/name`: write to
/// `dir/.staging/name.tmp`, fsync, rename into place, fsync the
/// directory. Readers (and a post-crash scan of `dir`) either see the
/// complete file or no file — never a torn one. Re-emitting the same
/// report is idempotent: the rename replaces the old copy whole.
///
/// # Errors
///
/// Returns a message on filesystem errors.
pub fn atomic_write_in(dir: &Path, name: &str, bytes: &[u8]) -> Result<PathBuf, String> {
    let staging = dir.join(STAGING_DIR);
    std::fs::create_dir_all(&staging)
        .map_err(|e| format!("cannot create staging dir `{}`: {e}", staging.display()))?;
    let tmp = staging.join(format!("{name}.tmp"));
    let dest = dir.join(name);
    let mut f = std::fs::File::create(&tmp)
        .map_err(|e| format!("cannot create `{}`: {e}", tmp.display()))?;
    f.write_all(bytes)
        .and_then(|()| f.sync_all())
        .map_err(|e| format!("cannot write `{}`: {e}", tmp.display()))?;
    drop(f);
    std::fs::rename(&tmp, &dest).map_err(|e| {
        format!(
            "cannot publish `{}` -> `{}`: {e}",
            tmp.display(),
            dest.display()
        )
    })?;
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(dest)
}

/// Atomic write for a caller-chosen file path outside a report directory
/// (e.g. `--profile-out`): write to a `<path>.tmp` sibling, fsync, rename.
///
/// # Errors
///
/// Returns a message on filesystem errors.
pub fn atomic_write_path(path: &Path, bytes: &[u8]) -> Result<(), String> {
    let tmp = PathBuf::from(format!("{}.tmp", path.display()));
    let mut f = std::fs::File::create(&tmp)
        .map_err(|e| format!("cannot create `{}`: {e}", tmp.display()))?;
    f.write_all(bytes)
        .and_then(|()| f.sync_all())
        .map_err(|e| format!("cannot write `{}`: {e}", tmp.display()))?;
    drop(f);
    std::fs::rename(&tmp, path).map_err(|e| format!("cannot publish `{}`: {e}", path.display()))
}

/// A hard pipeline failure, classified for retry/quarantine decisions and
/// for signature comparison during reproducer minimization.
///
/// The `stage`/`class` pair is the **failure signature**: it is stable
/// across source edits (no file names, line numbers, or addresses), which
/// is what lets the delta-debugging shrinker test "does the candidate
/// still fail the same way?".
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PipelineFailure {
    /// Pipeline stage that failed: `io`, `config`, `compile`, `verify`,
    /// `inline`, `panic`, or `governor`.
    pub stage: String,
    /// Location-free failure class within the stage (e.g. the compile
    /// error message without its `file:line:col`, or `deadline-exceeded`).
    pub class: String,
    /// Full human-readable detail; may contain paths and line numbers.
    pub detail: String,
    /// Rendered incident chain the recovery layer collected before the
    /// failure (empty when the failure predates incident collection).
    pub incidents: Vec<String>,
}

impl PipelineFailure {
    /// Builds a failure with no incident chain.
    pub fn new(
        stage: impl Into<String>,
        class: impl Into<String>,
        detail: impl Into<String>,
    ) -> Self {
        PipelineFailure {
            stage: stage.into(),
            class: class.into(),
            detail: detail.into(),
            incidents: Vec::new(),
        }
    }

    /// The stable `stage:class` signature used for minimization and
    /// report matching.
    pub fn signature(&self) -> String {
        format!("{}:{}", self.stage, self.class)
    }

    /// Renders the failure as a single driver error message. The
    /// signature rides along in brackets so replays can be matched
    /// against a crash report by grepping stderr.
    pub fn render(&self) -> String {
        format!("{} [signature: {}]", self.detail, self.signature())
    }
}

/// One attempt of a supervised job, for the crash-report history.
#[derive(Clone, Debug)]
pub struct AttemptRecord {
    /// 1-based attempt number.
    pub attempt: u32,
    /// Wall-clock duration of the attempt in milliseconds.
    pub wall_ms: u64,
    /// The attempt's failure signature (attempts recorded here all
    /// failed; a success ends the history).
    pub signature: String,
    /// Failure detail.
    pub detail: String,
    /// Backoff delay slept *after* this attempt (0 for the last).
    pub backoff_ms: u64,
}

/// Everything persisted for one quarantined unit.
#[derive(Clone, Debug)]
pub struct CrashReport {
    /// Unit name as shown in the batch summary.
    pub unit: String,
    /// `persistent` (deterministic, not retried) or
    /// `persistent-after-retries` (presumed transient, survived backoff).
    pub taxonomy: String,
    /// The final failure.
    pub failure: PipelineFailure,
    /// Per-attempt history.
    pub attempts: Vec<AttemptRecord>,
    /// Governor limits in force.
    pub time_limit_ms: u64,
    /// VM instruction fuel per run.
    pub fuel: u64,
    /// Heap quota in bytes, when set.
    pub mem_limit: Option<u64>,
    /// Minimized reproducer, when minimization ran.
    pub reproducer: Option<ShrinkResult>,
}

/// A JSON string literal for `s`.
pub(crate) fn json_str(s: &str) -> String {
    format!("\"{}\"", impact_obs::json_escape(s))
}

pub(crate) fn json_str_list(items: &[String]) -> String {
    let inner = items
        .iter()
        .map(|s| json_str(s))
        .collect::<Vec<_>>()
        .join(", ");
    format!("[{inner}]")
}

/// Renders the crash report as a JSON document (schema documented in
/// `DESIGN.md` §6; `version` is bumped on any incompatible change).
pub fn render_crash_report(r: &CrashReport, opts: &Options) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"version\": 1,");
    let _ = writeln!(s, "  \"unit\": {},", json_str(&r.unit));
    let _ = writeln!(s, "  \"status\": \"quarantined\",");
    let _ = writeln!(s, "  \"taxonomy\": {},", json_str(&r.taxonomy));
    let _ = writeln!(s, "  \"failure\": {{");
    let _ = writeln!(s, "    \"stage\": {},", json_str(&r.failure.stage));
    let _ = writeln!(s, "    \"class\": {},", json_str(&r.failure.class));
    let _ = writeln!(
        s,
        "    \"signature\": {},",
        json_str(&r.failure.signature())
    );
    let _ = writeln!(s, "    \"detail\": {}", json_str(&r.failure.detail));
    let _ = writeln!(s, "  }},");
    let _ = writeln!(
        s,
        "  \"incidents\": {},",
        json_str_list(&r.failure.incidents)
    );
    let _ = writeln!(s, "  \"config\": {{");
    let _ = writeln!(
        s,
        "    \"threshold\": {},",
        opts.threshold.map_or("null".into(), |v| v.to_string())
    );
    let _ = writeln!(
        s,
        "    \"budget\": {},",
        opts.budget.map_or("null".into(), |v| v.to_string())
    );
    let _ = writeln!(
        s,
        "    \"stack_bound\": {},",
        opts.stack_bound.map_or("null".into(), |v| v.to_string())
    );
    let _ = writeln!(
        s,
        "    \"linearize\": {},",
        opts.linearization
            .as_deref()
            .map_or("null".into(), json_str)
    );
    let _ = writeln!(s, "    \"opt\": {},", opts.opt);
    let _ = writeln!(s, "    \"promote_indirect\": {}", opts.promote_indirect);
    let _ = writeln!(s, "  }},");
    let _ = writeln!(s, "  \"fault_plan\": {},", json_str_list(&opts.faults));
    let _ = writeln!(s, "  \"governor\": {{");
    let _ = writeln!(s, "    \"time_limit_ms\": {},", r.time_limit_ms);
    let _ = writeln!(s, "    \"fuel\": {},", r.fuel);
    let _ = writeln!(
        s,
        "    \"mem_limit\": {}",
        r.mem_limit.map_or("null".into(), |v| v.to_string())
    );
    let _ = writeln!(s, "  }},");
    let _ = writeln!(s, "  \"attempts\": [");
    for (i, a) in r.attempts.iter().enumerate() {
        let comma = if i + 1 < r.attempts.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{ \"attempt\": {}, \"wall_ms\": {}, \"signature\": {}, \
             \"detail\": {}, \"backoff_ms\": {} }}{comma}",
            a.attempt,
            a.wall_ms,
            json_str(&a.signature),
            json_str(&a.detail),
            a.backoff_ms
        );
    }
    let _ = writeln!(s, "  ],");
    match &r.reproducer {
        Some(rep) => {
            let _ = writeln!(s, "  \"reproducer\": {{");
            let _ = writeln!(s, "    \"original_bytes\": {},", rep.original_bytes);
            let _ = writeln!(s, "    \"reduced_bytes\": {},", rep.reduced_bytes);
            let _ = writeln!(s, "    \"candidates_tried\": {},", rep.evals);
            let _ = writeln!(s, "    \"source\": {}", json_str(&rep.source));
            let _ = writeln!(s, "  }}");
        }
        None => {
            let _ = writeln!(s, "  \"reproducer\": null");
        }
    }
    s.push_str("}\n");
    s
}

/// A filesystem-safe file stem for a unit name.
pub fn sanitize_unit_name(unit: &str) -> String {
    unit.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Writes the crash report (and, when a reproducer was minimized, a
/// sibling `<unit>.repro.c` replayable with `impactc inline`) into `dir`.
///
/// Both files are emitted through [`atomic_write_in`] under stable,
/// unit-keyed names, so emission is idempotent and a crash mid-write can
/// never leave a torn report among the observable files.
///
/// # Errors
///
/// Returns a message on filesystem errors.
pub fn write_crash_report(dir: &Path, r: &CrashReport, opts: &Options) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir)
        .map_err(|e| format!("cannot create report dir `{}`: {e}", dir.display()))?;
    let stem = sanitize_unit_name(&r.unit);
    let json_path = atomic_write_in(
        dir,
        &format!("{stem}.json"),
        render_crash_report(r, opts).as_bytes(),
    )?;
    if let Some(rep) = &r.reproducer {
        atomic_write_in(dir, &format!("{stem}.repro.c"), rep.source.as_bytes())?;
    }
    Ok(json_path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signature_is_location_free_and_render_carries_it() {
        let f = PipelineFailure::new("compile", "expected `;`", "t.c:3:7: expected `;`");
        assert_eq!(f.signature(), "compile:expected `;`");
        assert!(f.render().contains("[signature: compile:expected `;`]"));
        assert!(f.render().contains("t.c:3:7"));
    }

    #[test]
    fn crash_report_renders_valid_shape() {
        let opts = Options::parse(&[
            "batch".to_string(),
            "u.c".to_string(),
            "--fault".to_string(),
            "inline:verify".to_string(),
        ])
        .unwrap();
        let r = CrashReport {
            unit: "u.c".into(),
            taxonomy: "persistent-after-retries".into(),
            failure: PipelineFailure {
                stage: "inline".into(),
                class: "verify-failed".into(),
                detail: "fault \"injection\"".into(),
                incidents: vec!["[expand] x: y (rolled back)".into()],
            },
            attempts: vec![AttemptRecord {
                attempt: 1,
                wall_ms: 12,
                signature: "inline:verify-failed".into(),
                detail: "d".into(),
                backoff_ms: 25,
            }],
            time_limit_ms: 10_000,
            fuel: 1_000_000,
            mem_limit: Some(65536),
            reproducer: Some(ShrinkResult {
                source: "int main() { return 0; }".into(),
                original_bytes: 100,
                reduced_bytes: 24,
                evals: 7,
            }),
        };
        let json = render_crash_report(&r, &opts);
        assert!(json.contains("\"version\": 1"));
        assert!(json.contains("\"signature\": \"inline:verify-failed\""));
        assert!(json.contains("\"fault \\\"injection\\\"\""));
        assert!(json.contains("\"mem_limit\": 65536"));
        assert!(json.contains("\"reduced_bytes\": 24"));
        assert!(json.contains("\"fault_plan\": [\"inline:verify\"]"));
        // Every quote is escaped: the document never contains an unescaped
        // quote inside a string value.
        assert_eq!(json.matches("\\\"injection\\\"").count(), 1);
    }

    #[test]
    fn unit_names_sanitize_to_file_stems() {
        assert_eq!(sanitize_unit_name("bench:wc"), "bench_wc");
        assert_eq!(sanitize_unit_name("dir/unit-1.c"), "dir_unit_1_c");
    }

    #[test]
    fn atomic_write_publishes_whole_files_and_is_idempotent() {
        let dir = std::env::temp_dir().join("impactc-atomic-write");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let p = atomic_write_in(&dir, "r.json", b"{\"v\": 1}\n").unwrap();
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "{\"v\": 1}\n");
        // Re-emission replaces the file whole.
        let p2 = atomic_write_in(&dir, "r.json", b"{\"v\": 2}\n").unwrap();
        assert_eq!(p, p2);
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "{\"v\": 2}\n");
        // Nothing in-flight remains observable next to the report.
        let stray: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(stray.is_empty(), "{stray:?}");
    }
}
