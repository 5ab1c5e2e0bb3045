//! Crash-consistent campaign journal: a checkpointed, resumable record of
//! `impactc batch` and `impactc fuzz` campaigns.
//!
//! PR 2 and PR 3 made campaigns resilient *inside* a process; this module
//! makes them survive the process dying. The journal is an append-only,
//! checksummed, schema-versioned write-ahead log of campaign events:
//!
//! | event             | meaning                                            |
//! |-------------------|----------------------------------------------------|
//! | `campaign-start`  | campaign opened; carries the config fingerprint    |
//! | `campaign-resume` | a resume re-attached to an existing journal        |
//! | `unit-start`      | a unit/program attempt began (in-flight marker)    |
//! | `unit-done`       | a unit finished; carries everything the summary row |
//! |                   | and report reconstruction need                     |
//! | `finding`         | the fuzz oracle flagged a diverging program        |
//! | `campaign-end`    | the campaign summary was produced                  |
//!
//! **Durability discipline.** Every record is one line, `CRC SEQ BODY`,
//! where `CRC` is FNV-1a 64 over `SEQ BODY` and `SEQ` is a dense record
//! counter. Appends go straight to the file descriptor and are fsync'd
//! before the campaign proceeds, and `unit-done` is only appended *after*
//! the unit's report artifacts were atomically published — so a record's
//! presence implies its work (and its files) are durable.
//!
//! **Replay rules.** On `--resume`, the journal is scanned front to back:
//! a checksum/sequence failure on the *last* line is a torn tail — the
//! expected shape of a crash mid-append — and is truncated away; the same
//! failure with valid records after it is corruption and refuses to load.
//! Units with a `unit-done` record are *skipped* and their summary rows
//! (plus `; crash report:` lines) are reconstructed from the record;
//! units with only a `unit-start` were in flight and re-run from scratch.
//! Report emission is idempotent (stable names, atomic replace), so
//! re-running an in-flight unit converges on the same artifact set.
//!
//! **Fingerprinting.** `campaign-start` records an FNV-1a fingerprint of
//! the campaign configuration (command, unit list or seed/budget, every
//! behavior-affecting flag; `journal:*` fault specs excluded so a
//! kill-injection run and its resume fingerprint identically). Resuming
//! under a different fingerprint is refused unless `--force-resume`.
//!
//! **Kill injection.** [`Journal::append`] evaluates three fault points
//! in order — `journal:crash` (abort before the write), `journal:torn`
//! (write half the record, then abort), `journal:crash-after` (abort
//! after the fsync) — so the crash→resume matrix test can kill a campaign
//! at every event class and prove recovery is exact.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use impact_vm::{fnv1a64, FaultPlan};

use crate::flags::{self, Digest, Entry};
use crate::report::{atomic_write_in, STAGING_DIR};
use crate::Options;

/// First line of every journal file; bumped on incompatible changes.
pub const JOURNAL_HEADER: &str = "impact-journal v1";

/// Manifest file written into `--report-dir` so directory reuse across
/// different campaigns is detected (see [`prepare_report_dir`]).
pub const MANIFEST_NAME: &str = "campaign.manifest";

/// Everything a `unit-done` record carries: enough to rebuild the unit's
/// summary row, its `; crash report:` line, and (for fuzz) its class
/// totals without re-running the unit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnitRecord {
    /// Unit name (batch) or `p<index>` (fuzz).
    pub unit: String,
    /// `ok` / `quarantined` (batch) or `checked` (fuzz).
    pub status: String,
    /// Attempts as displayed in the batch summary table.
    pub attempts: u64,
    /// Failure signature, `-` for none.
    pub signature: String,
    /// Path of the published crash report, `-` for none.
    pub report: String,
    /// Campaign-specific counters (fuzz packs its per-program class
    /// totals, skipped flag, and diverged flag here; batch leaves it
    /// empty).
    pub counts: Vec<u64>,
}

/// One journal event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// Campaign opened under `kind` (`batch`/`fuzz`) with `fingerprint`.
    CampaignStart {
        /// The subcommand that owns the journal.
        kind: String,
        /// [`campaign_fingerprint`] of the flags in force.
        fingerprint: u64,
    },
    /// A `--resume` re-attached to the journal.
    CampaignResume {
        /// Fingerprint of the resuming invocation.
        fingerprint: u64,
    },
    /// A unit attempt began.
    UnitStart {
        /// Unit name.
        unit: String,
    },
    /// A unit completed (its artifacts are already durable).
    UnitDone(UnitRecord),
    /// The fuzz oracle emitted a finding for `id`.
    Finding {
        /// Finding id (`p<index>`).
        id: String,
    },
    /// The campaign produced its final summary.
    CampaignEnd {
        /// Units that succeeded (batch) / programs checked (fuzz).
        ok: u64,
        /// Units quarantined (batch) / findings (fuzz).
        failed: u64,
    },
}

// ----- record encode/decode ------------------------------------------------

/// Percent-escapes a token so it survives the space-separated record
/// format: `%`, whitespace, control bytes, and all non-ASCII bytes become
/// `%XX` (record lines are therefore pure printable ASCII).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'%' | b' ' => {
                let _ = write!(out, "%{b:02x}");
            }
            0x21..=0x7e => out.push(b as char),
            _ => {
                let _ = write!(out, "%{b:02x}");
            }
        }
    }
    out
}

/// Inverse of [`escape`].
fn unescape(s: &str) -> Result<String, String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes
                .get(i + 1..i + 3)
                .ok_or_else(|| format!("truncated escape in `{s}`"))?;
            let hex = std::str::from_utf8(hex).map_err(|_| format!("bad escape in `{s}`"))?;
            out.push(
                u8::from_str_radix(hex, 16).map_err(|_| format!("bad escape `%{hex}` in `{s}`"))?,
            );
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).map_err(|_| format!("non-UTF-8 escape payload in `{s}`"))
}

/// Encodes an event body (everything after the sequence number).
fn encode_body(ev: &Event) -> String {
    match ev {
        Event::CampaignStart { kind, fingerprint } => {
            format!("campaign-start {} {fingerprint:016x}", escape(kind))
        }
        Event::CampaignResume { fingerprint } => {
            format!("campaign-resume {fingerprint:016x}")
        }
        Event::UnitStart { unit } => format!("unit-start {}", escape(unit)),
        Event::UnitDone(r) => {
            let mut s = format!(
                "unit-done {} {} {} {} {}",
                escape(&r.unit),
                escape(&r.status),
                r.attempts,
                escape(&r.signature),
                escape(&r.report)
            );
            for c in &r.counts {
                let _ = write!(s, " {c}");
            }
            s
        }
        Event::Finding { id } => format!("finding {}", escape(id)),
        Event::CampaignEnd { ok, failed } => format!("campaign-end {ok} {failed}"),
    }
}

/// Encodes one full journal line (with CRC, sequence number, and newline).
pub fn encode_record(seq: u64, ev: &Event) -> String {
    let body = format!("{seq} {}", encode_body(ev));
    format!("{:016x} {body}\n", fnv1a64(body.as_bytes()))
}

/// Decodes one journal line (without its newline) into `(seq, event)`.
///
/// # Errors
///
/// Returns a message on any checksum, framing, or field error.
pub fn decode_record(line: &str) -> Result<(u64, Event), String> {
    let (crc_hex, body) = line
        .split_once(' ')
        .ok_or_else(|| "record has no checksum field".to_string())?;
    let crc = u64::from_str_radix(crc_hex, 16).map_err(|_| format!("bad CRC `{crc_hex}`"))?;
    if fnv1a64(body.as_bytes()) != crc {
        return Err("record checksum mismatch".to_string());
    }
    let mut tok = body.split(' ');
    let seq: u64 = tok
        .next()
        .ok_or("missing sequence number")?
        .parse()
        .map_err(|_| "bad sequence number".to_string())?;
    let kind = tok.next().ok_or("missing event kind")?;
    let mut next = |what: &str| -> Result<&str, String> {
        tok.next().ok_or_else(|| format!("missing {what} field"))
    };
    let ev = match kind {
        "campaign-start" => {
            let k = unescape(next("kind")?)?;
            let fp = u64::from_str_radix(next("fingerprint")?, 16)
                .map_err(|_| "bad fingerprint".to_string())?;
            Event::CampaignStart {
                kind: k,
                fingerprint: fp,
            }
        }
        "campaign-resume" => Event::CampaignResume {
            fingerprint: u64::from_str_radix(next("fingerprint")?, 16)
                .map_err(|_| "bad fingerprint".to_string())?,
        },
        "unit-start" => Event::UnitStart {
            unit: unescape(next("unit")?)?,
        },
        "unit-done" => {
            let unit = unescape(next("unit")?)?;
            let status = unescape(next("status")?)?;
            let attempts = next("attempts")?
                .parse()
                .map_err(|_| "bad attempts".to_string())?;
            let signature = unescape(next("signature")?)?;
            let report = unescape(next("report")?)?;
            let counts = tok
                .map(|t| t.parse::<u64>().map_err(|_| format!("bad count `{t}`")))
                .collect::<Result<Vec<_>, _>>()?;
            Event::UnitDone(UnitRecord {
                unit,
                status,
                attempts,
                signature,
                report,
                counts,
            })
        }
        "finding" => Event::Finding {
            id: unescape(next("id")?)?,
        },
        "campaign-end" => Event::CampaignEnd {
            ok: next("ok")?.parse().map_err(|_| "bad count".to_string())?,
            failed: next("failed")?
                .parse()
                .map_err(|_| "bad count".to_string())?,
        },
        other => return Err(format!("unknown event kind `{other}`")),
    };
    Ok((seq, ev))
}

// ----- replay --------------------------------------------------------------

/// The state recovered from a journal file.
#[derive(Clone, Debug, Default)]
pub struct Replay {
    /// Fingerprint from the `campaign-start` record, when one survived.
    pub fingerprint: Option<u64>,
    /// Completed units by name, latest record wins.
    pub completed: HashMap<String, UnitRecord>,
    /// Number of valid records (the next sequence number to append).
    pub records: u64,
    /// Byte length of the valid prefix (repair truncates to this).
    pub valid_bytes: u64,
    /// Bytes of torn tail discarded (0 for a clean journal).
    pub torn_bytes: u64,
    /// Whether a `campaign-end` record is present.
    pub ended: bool,
}

/// Scans journal `text` and recovers the campaign state, truncating (in
/// the returned offsets, not on disk) a torn tail.
///
/// # Errors
///
/// Refuses journals whose header is wrong or whose *interior* records are
/// corrupt — only the final record may be torn.
pub fn replay(text: &str) -> Result<Replay, String> {
    // Split into (offset, line, terminated) triples by hand: a torn tail
    // is exactly a final line without its newline (or one that fails to
    // decode), and offsets are needed for the repair truncation.
    let mut lines: Vec<(usize, &str, bool)> = Vec::new();
    let mut pos = 0;
    while pos < text.len() {
        match text[pos..].find('\n') {
            Some(i) => {
                lines.push((pos, &text[pos..pos + i], true));
                pos += i + 1;
            }
            None => {
                lines.push((pos, &text[pos..], false));
                pos = text.len();
            }
        }
    }
    let mut rep = Replay::default();
    if lines.is_empty() {
        return Ok(rep);
    }
    let (_, header, header_complete) = lines[0];
    if !header_complete || header != JOURNAL_HEADER {
        if lines.len() == 1 {
            // The create itself was interrupted: nothing usable, treat
            // the whole file as a torn tail.
            rep.torn_bytes = text.len() as u64;
            return Ok(rep);
        }
        return Err(format!(
            "`{header}` is not an {JOURNAL_HEADER} journal header"
        ));
    }
    rep.valid_bytes = (lines[0].0 + header.len() + 1) as u64;
    for (i, &(offset, line, complete)) in lines.iter().enumerate().skip(1) {
        let last = i + 1 == lines.len();
        let decoded = if complete {
            decode_record(line)
        } else {
            Err("unterminated record".to_string())
        };
        match decoded {
            Ok((seq, ev)) if seq == rep.records => {
                rep.records += 1;
                rep.valid_bytes = (offset + line.len() + 1) as u64;
                match ev {
                    Event::CampaignStart { fingerprint, .. } => {
                        rep.fingerprint.get_or_insert(fingerprint);
                    }
                    Event::CampaignResume { .. } | Event::UnitStart { .. } => {}
                    Event::UnitDone(r) => {
                        rep.completed.insert(r.unit.clone(), r);
                    }
                    Event::Finding { .. } => {}
                    Event::CampaignEnd { .. } => rep.ended = true,
                }
            }
            Ok((seq, _)) if last => {
                // A stale sequence number on the final line is treated as
                // a torn/duplicated tail and discarded.
                let _ = seq;
                rep.torn_bytes = (text.len() as u64) - rep.valid_bytes;
                break;
            }
            Ok((seq, _)) => {
                return Err(format!(
                    "journal record {i} has sequence {seq}, expected {}: \
                     the journal is corrupt (not a torn tail)",
                    rep.records
                ));
            }
            Err(e) if last => {
                let _ = e;
                rep.torn_bytes = (text.len() as u64) - rep.valid_bytes;
                break;
            }
            Err(e) => {
                return Err(format!(
                    "journal record {i} is corrupt ({e}) but later records \
                     are intact: refusing to replay a damaged interior"
                ));
            }
        }
    }
    Ok(rep)
}

// ----- the writer ----------------------------------------------------------

/// An open, append-only campaign journal.
#[derive(Debug)]
pub struct Journal {
    file: std::fs::File,
    path: PathBuf,
    seq: u64,
    fault: FaultPlan,
}

impl Journal {
    /// Creates a fresh journal at `path` and records `campaign-start`.
    ///
    /// # Errors
    ///
    /// Refuses to overwrite an existing journal (resume it or pick a
    /// fresh path), and reports filesystem errors.
    pub fn create(
        path: &Path,
        kind: &str,
        fingerprint: u64,
        fault: FaultPlan,
    ) -> Result<Journal, String> {
        if path.exists() {
            return Err(format!(
                "journal `{}` already exists; pass --resume to continue that \
                 campaign or point --journal at a fresh path",
                path.display()
            ));
        }
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create `{}`: {e}", parent.display()))?;
        }
        let mut file = std::fs::File::create(path)
            .map_err(|e| format!("cannot create journal `{}`: {e}", path.display()))?;
        file.write_all(format!("{JOURNAL_HEADER}\n").as_bytes())
            .and_then(|()| file.sync_data())
            .map_err(|e| format!("cannot write journal `{}`: {e}", path.display()))?;
        let mut j = Journal {
            file,
            path: path.to_path_buf(),
            seq: 0,
            fault,
        };
        j.append(&Event::CampaignStart {
            kind: kind.to_string(),
            fingerprint,
        })?;
        Ok(j)
    }

    /// Re-opens an existing journal for `--resume`: replays it, validates
    /// the fingerprint, truncates any torn tail on disk, and records
    /// `campaign-resume` (or a fresh `campaign-start` when the previous
    /// run died before its start record survived).
    ///
    /// # Errors
    ///
    /// Refuses a missing journal, a corrupt interior, and — without
    /// `force` — a fingerprint mismatch.
    pub fn resume(
        path: &Path,
        kind: &str,
        fingerprint: u64,
        force: bool,
        fault: FaultPlan,
    ) -> Result<(Journal, Replay), String> {
        let bytes = std::fs::read(path)
            .map_err(|e| format!("cannot resume: journal `{}`: {e}", path.display()))?;
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let rep = replay(&text).map_err(|e| format!("cannot resume `{}`: {e}", path.display()))?;
        if let Some(fp) = rep.fingerprint {
            if fp != fingerprint && !force {
                return Err(format!(
                    "journal `{}` records campaign fingerprint {fp:016x}, but the \
                     current flags fingerprint to {fingerprint:016x}; refusing to \
                     resume a campaign under different flags (rerun with the \
                     original flags, or pass --force-resume to override)",
                    path.display()
                ));
            }
        }
        if rep.torn_bytes > 0 {
            let f = std::fs::OpenOptions::new()
                .write(true)
                .open(path)
                .map_err(|e| format!("cannot repair journal `{}`: {e}", path.display()))?;
            f.set_len(rep.valid_bytes)
                .and_then(|()| f.sync_data())
                .map_err(|e| format!("cannot repair journal `{}`: {e}", path.display()))?;
        }
        let file = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(path)
            .map_err(|e| format!("cannot reopen journal `{}`: {e}", path.display()))?;
        let mut j = Journal {
            file,
            path: path.to_path_buf(),
            seq: rep.records,
            fault,
        };
        if rep.valid_bytes == 0 {
            // Even the header was lost: restart the file from scratch.
            j.file
                .write_all(format!("{JOURNAL_HEADER}\n").as_bytes())
                .and_then(|()| j.file.sync_data())
                .map_err(|e| format!("cannot write journal `{}`: {e}", path.display()))?;
        }
        if rep.fingerprint.is_none() {
            j.append(&Event::CampaignStart {
                kind: kind.to_string(),
                fingerprint,
            })?;
        } else {
            j.append(&Event::CampaignResume { fingerprint })?;
        }
        Ok((j, rep))
    }

    /// Appends one event with write→fsync discipline, evaluating the
    /// `journal:crash` / `journal:torn` / `journal:crash-after` kill
    /// points (which abort the whole process — that is their job).
    ///
    /// # Errors
    ///
    /// Returns a message on filesystem errors.
    pub fn append(&mut self, ev: &Event) -> Result<(), String> {
        if self.fault.should_fail("journal:crash") {
            std::process::abort();
        }
        let line = encode_record(self.seq, ev);
        if self.fault.should_fail("journal:torn") {
            // Persist a deliberately torn record: a strict prefix of the
            // line, synced so the tail is really on disk, then die.
            let cut = line.len() / 2;
            let _ = self.file.write_all(&line.as_bytes()[..cut]);
            let _ = self.file.sync_data();
            std::process::abort();
        }
        self.file
            .write_all(line.as_bytes())
            .and_then(|()| self.file.sync_data())
            .map_err(|e| format!("cannot append to journal `{}`: {e}", self.path.display()))?;
        if self.fault.should_fail("journal:crash-after") {
            std::process::abort();
        }
        self.seq += 1;
        Ok(())
    }
}

// ----- fingerprints and flag plumbing --------------------------------------

/// True for fault specs that target the journal itself: they are armed on
/// the *driver's* plan only and must not leak into per-unit pipelines,
/// oracle configs, or the campaign fingerprint (a kill-injection run and
/// its resume must fingerprint identically).
pub fn is_journal_fault(spec: &str) -> bool {
    spec.starts_with("journal:")
}

/// Builds the fault plan driving the journal kill points from the
/// `journal:*` subset of `--fault` specs.
///
/// # Errors
///
/// Returns a message naming the malformed spec.
pub fn journal_fault_plan(opts: &Options) -> Result<FaultPlan, String> {
    opts.fault_plan_where(is_journal_fault)
}

/// The campaign's config fingerprint: FNV-1a 64 over a canonical dump of
/// the unit list (batch) and every flag the flag table marks as entering
/// the fingerprint — the identity `--resume` checks before trusting a
/// journal, and the value recorded in the report-dir manifest. Repeatable
/// flags come first, one line per item, then one line per other flag.
///
/// Telemetry and service flags are not marked: they change *how* a
/// campaign runs, never *what* it computes, so an instrumented or
/// `--jobs 4` rerun may resume a plain serial campaign's journal.
pub fn campaign_fingerprint(kind: &str, opts: &Options, units: &[String]) -> u64 {
    let mut s = String::new();
    let _ = writeln!(s, "kind {kind}");
    for u in units {
        let _ = writeln!(s, "unit {}", escape(u));
    }
    let entries = flags::digest(opts, Digest::Campaign);
    for (key, entry) in &entries {
        if let Entry::Items(items) = entry {
            for v in items {
                let _ = writeln!(s, "{key} {}", escape(v));
            }
        }
    }
    for (key, entry) in &entries {
        if let Entry::Scalar(v) = entry {
            let _ = writeln!(s, "{key} {v}");
        }
    }
    fnv1a64(s.as_bytes())
}

/// Completed units recovered by a resume, keyed by unit name.
pub type CompletedUnits = HashMap<String, UnitRecord>;

/// Opens the campaign journal named by the flags: `None` when `--journal`
/// was not given, otherwise the journal plus the map of already-completed
/// units (empty unless `--resume`). Emits `; journal:` status lines into
/// `out` — the one output prefix excluded from the byte-identical resume
/// contract.
///
/// # Errors
///
/// Returns flag-validation and journal errors (missing journal on
/// `--resume`, fingerprint mismatch without `--force-resume`, corrupt
/// interior records).
pub fn open_for(
    opts: &Options,
    kind: &str,
    fingerprint: u64,
    out: &mut String,
) -> Result<Option<(Journal, CompletedUnits)>, String> {
    let Some(path) = opts.journal.as_deref() else {
        if opts.resume {
            return Err("--resume requires --journal <path>".to_string());
        }
        return Ok(None);
    };
    let path = Path::new(path);
    let fault = journal_fault_plan(opts)?;
    if opts.resume {
        let (j, rep) = Journal::resume(path, kind, fingerprint, opts.force_resume, fault)?;
        let _ = writeln!(
            out,
            "; journal: resumed `{}`: {} unit(s) already complete{}",
            path.display(),
            rep.completed.len(),
            if rep.torn_bytes > 0 {
                format!(" (truncated a {}-byte torn tail)", rep.torn_bytes)
            } else {
                String::new()
            }
        );
        Ok(Some((j, rep.completed)))
    } else {
        let j = Journal::create(path, kind, fingerprint, fault)?;
        let _ = writeln!(out, "; journal: recording to `{}`", path.display());
        Ok(Some((j, HashMap::new())))
    }
}

// ----- report-dir manifest --------------------------------------------------

/// Prepares a `--report-dir` for a campaign: creates it, clears stale
/// staging leftovers from a previous crash, and enforces the reuse
/// contract via an atomically-written `campaign.manifest` — a fresh (or
/// resumed) campaign whose fingerprint differs from the directory's
/// recorded one is refused unless `force`.
///
/// # Errors
///
/// Returns the collision diagnostic or a filesystem error.
pub fn prepare_report_dir(
    dir: &Path,
    kind: &str,
    fingerprint: u64,
    force: bool,
) -> Result<(), String> {
    std::fs::create_dir_all(dir)
        .map_err(|e| format!("cannot create report dir `{}`: {e}", dir.display()))?;
    let manifest = dir.join(MANIFEST_NAME);
    if manifest.exists() && !force {
        let text = std::fs::read_to_string(&manifest)
            .map_err(|e| format!("cannot read `{}`: {e}", manifest.display()))?;
        let recorded = text
            .lines()
            .find_map(|l| l.strip_prefix("fingerprint "))
            .and_then(|h| u64::from_str_radix(h.trim(), 16).ok());
        match recorded {
            Some(fp) if fp == fingerprint => {}
            Some(fp) => {
                return Err(format!(
                    "report dir `{}` already holds artifacts of a different campaign \
                     (its manifest records fingerprint {fp:016x}, this invocation \
                     fingerprints to {fingerprint:016x}); use a fresh directory, rerun \
                     with the original flags, or pass --force-resume to take it over",
                    dir.display()
                ));
            }
            None => {
                return Err(format!(
                    "report dir `{}` contains an unreadable `{MANIFEST_NAME}`; use a \
                     fresh directory or pass --force-resume to take it over",
                    dir.display()
                ));
            }
        }
    }
    // Clear staging leftovers a crash may have stranded mid-write.
    let staging = dir.join(STAGING_DIR);
    if staging.is_dir() {
        let _ = std::fs::remove_dir_all(&staging);
    }
    atomic_write_in(
        dir,
        MANIFEST_NAME,
        format!("impact-manifest v1\nkind {kind}\nfingerprint {fingerprint:016x}\n").as_bytes(),
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("impactc-journal-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_events() -> Vec<Event> {
        vec![
            Event::CampaignStart {
                kind: "batch".into(),
                fingerprint: 0xdead_beef_cafe_f00d,
            },
            Event::UnitStart {
                unit: "a b.c".into(),
            },
            Event::UnitDone(UnitRecord {
                unit: "a b.c".into(),
                status: "ok".into(),
                attempts: 1,
                signature: "-".into(),
                report: "-".into(),
                counts: vec![],
            }),
            Event::UnitStart { unit: "p1".into() },
            Event::Finding { id: "p1".into() },
            Event::UnitDone(UnitRecord {
                unit: "p1".into(),
                status: "checked".into(),
                attempts: 1,
                signature: "behavior@inline-default".into(),
                report: "r/p1.json".into(),
                counts: vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 1],
            }),
            Event::CampaignEnd { ok: 2, failed: 1 },
        ]
    }

    fn journal_text(events: &[Event]) -> String {
        let mut s = format!("{JOURNAL_HEADER}\n");
        for (i, ev) in events.iter().enumerate() {
            s.push_str(&encode_record(i as u64, ev));
        }
        s
    }

    #[test]
    fn records_round_trip() {
        for (i, ev) in sample_events().iter().enumerate() {
            let line = encode_record(i as u64, ev);
            let (seq, back) = decode_record(line.trim_end()).unwrap();
            assert_eq!(seq, i as u64);
            assert_eq!(&back, ev);
        }
    }

    #[test]
    fn replay_recovers_completed_units_and_end_marker() {
        let rep = replay(&journal_text(&sample_events())).unwrap();
        assert_eq!(rep.records, 7);
        assert_eq!(rep.torn_bytes, 0);
        assert!(rep.ended);
        assert_eq!(rep.fingerprint, Some(0xdead_beef_cafe_f00d));
        assert_eq!(rep.completed.len(), 2);
        assert_eq!(rep.completed["a b.c"].status, "ok");
        assert_eq!(rep.completed["p1"].counts.len(), 10);
    }

    #[test]
    fn torn_tail_is_truncated_but_interior_corruption_refuses() {
        let text = journal_text(&sample_events());
        // Any strict prefix that cuts into the last record replays to the
        // records before it.
        let last_start = text
            .rfind("\n")
            .map(|_| {
                let body = text.trim_end_matches('\n');
                body.rfind('\n').unwrap() + 1
            })
            .unwrap();
        for cut in [last_start + 1, last_start + 10, text.len() - 1] {
            let rep = replay(&text[..cut]).unwrap();
            assert_eq!(rep.records, 6, "cut at {cut}");
            assert!(!rep.ended);
            assert!(rep.torn_bytes > 0);
            assert_eq!(rep.valid_bytes as usize, last_start);
        }
        // Flipping a byte in an interior record is corruption, not a tear.
        let mut corrupt = text.clone().into_bytes();
        corrupt[JOURNAL_HEADER.len() + 5] ^= 0x01;
        let err = replay(&String::from_utf8(corrupt).unwrap()).unwrap_err();
        assert!(err.contains("corrupt"), "{err}");
    }

    #[test]
    fn journal_files_append_resume_and_repair() {
        let dir = tmp_dir("file");
        let path = dir.join("c.journal");
        let mut j = Journal::create(&path, "batch", 7, FaultPlan::new()).unwrap();
        j.append(&Event::UnitStart { unit: "u.c".into() }).unwrap();
        j.append(&Event::UnitDone(UnitRecord {
            unit: "u.c".into(),
            status: "ok".into(),
            attempts: 1,
            signature: "-".into(),
            report: "-".into(),
            counts: vec![],
        }))
        .unwrap();
        drop(j);
        // Fresh create refuses to clobber.
        let err = Journal::create(&path, "batch", 7, FaultPlan::new()).unwrap_err();
        assert!(err.contains("--resume"), "{err}");
        // Simulate a torn append, then resume: the tail is repaired away.
        let clean_len = std::fs::metadata(&path).unwrap().len();
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        use std::io::Write as _;
        f.write_all(b"0123 torn garb").unwrap();
        drop(f);
        let (mut j, rep) = Journal::resume(&path, "batch", 7, false, FaultPlan::new()).unwrap();
        assert_eq!(rep.completed.len(), 1);
        assert!(rep.torn_bytes > 0);
        j.append(&Event::CampaignEnd { ok: 1, failed: 0 }).unwrap();
        drop(j);
        let text = std::fs::read_to_string(&path).unwrap();
        let rep = replay(&text).unwrap();
        assert!(rep.ended);
        assert_eq!(rep.torn_bytes, 0, "repair left a clean journal: {text}");
        assert!(std::fs::metadata(&path).unwrap().len() > clean_len);
    }

    #[test]
    fn resume_refuses_fingerprint_mismatch_without_force() {
        let dir = tmp_dir("fp");
        let path = dir.join("c.journal");
        drop(Journal::create(&path, "batch", 0xaaaa, FaultPlan::new()).unwrap());
        let err = Journal::resume(&path, "batch", 0xbbbb, false, FaultPlan::new()).unwrap_err();
        assert!(err.contains("--force-resume"), "{err}");
        assert!(err.contains("000000000000aaaa"), "{err}");
        // --force-resume overrides.
        let (_, rep) = Journal::resume(&path, "batch", 0xbbbb, true, FaultPlan::new()).unwrap();
        assert_eq!(rep.fingerprint, Some(0xaaaa));
        // A matching fingerprint needs no force.
        assert!(Journal::resume(&path, "batch", 0xaaaa, false, FaultPlan::new()).is_ok());
    }

    #[test]
    fn fingerprint_ignores_journal_faults_but_tracks_real_flags() {
        let base = Options::parse(&strs(&["batch", "a.c", "--threshold", "5"])).unwrap();
        let with_kill = Options::parse(&strs(&[
            "batch",
            "a.c",
            "--threshold",
            "5",
            "--fault",
            "journal:crash=3",
        ]))
        .unwrap();
        let units = strs(&["a.c"]);
        assert_eq!(
            campaign_fingerprint("batch", &base, &units),
            campaign_fingerprint("batch", &with_kill, &units),
            "journal kill faults must not change the campaign identity"
        );
        let other = Options::parse(&strs(&["batch", "a.c", "--threshold", "6"])).unwrap();
        assert_ne!(
            campaign_fingerprint("batch", &base, &units),
            campaign_fingerprint("batch", &other, &units)
        );
        assert_ne!(
            campaign_fingerprint("batch", &base, &units),
            campaign_fingerprint("fuzz", &base, &units)
        );
    }

    #[test]
    fn fingerprint_ignores_telemetry_flags() {
        let base = Options::parse(&strs(&["batch", "a.c", "--threshold", "5"])).unwrap();
        let instrumented = Options::parse(&strs(&[
            "batch",
            "a.c",
            "--threshold",
            "5",
            "--trace-out",
            "trace.json",
            "--metrics-out",
            "metrics.json",
        ]))
        .unwrap();
        let units = strs(&["a.c"]);
        assert_eq!(
            campaign_fingerprint("batch", &base, &units),
            campaign_fingerprint("batch", &instrumented, &units),
            "telemetry flags must not change the campaign identity"
        );
        let mut audited = base.clone();
        audited.explain = true;
        audited.decisions_out = Some("decisions.json".to_string());
        assert_eq!(
            campaign_fingerprint("batch", &base, &units),
            campaign_fingerprint("batch", &audited, &units),
            "audit flags must not change the campaign identity"
        );
    }

    #[test]
    fn fingerprint_ignores_service_knobs() {
        let base = Options::parse(&strs(&["batch", "a.c", "--threshold", "5"])).unwrap();
        let tuned = Options::parse(&strs(&[
            "batch",
            "a.c",
            "--threshold",
            "5",
            "--jobs",
            "4",
            "--cache-dir",
            "artifact-cache",
        ]))
        .unwrap();
        let units = strs(&["a.c"]);
        assert_eq!(
            campaign_fingerprint("batch", &base, &units),
            campaign_fingerprint("batch", &tuned, &units),
            "service knobs tune execution, not campaign identity: a \
             serial journal must resume under --jobs N and vice versa"
        );
    }

    #[test]
    fn fingerprint_ignores_engine_selection() {
        // The two engines are behaviorally identical (proven by the
        // parity suite), so switching engines mid-campaign must resume
        // the same journal rather than start a new campaign.
        let base = Options::parse(&strs(&["batch", "a.c", "--threshold", "5"])).unwrap();
        let interp = Options::parse(&strs(&[
            "batch",
            "a.c",
            "--threshold",
            "5",
            "--engine",
            "interp",
        ]))
        .unwrap();
        let simulated = Options::parse(&strs(&[
            "batch",
            "a.c",
            "--threshold",
            "5",
            "--engine",
            "bytecode",
            "--icache",
        ]))
        .unwrap();
        let units = strs(&["a.c"]);
        let k = campaign_fingerprint("batch", &base, &units);
        assert_eq!(
            k,
            campaign_fingerprint("batch", &interp, &units),
            "engine choice must not change the campaign identity"
        );
        assert_eq!(
            k,
            campaign_fingerprint("batch", &simulated, &units),
            "icache simulation must not change the campaign identity"
        );
    }

    #[test]
    fn report_dir_manifest_detects_collisions() {
        let dir = tmp_dir("manifest");
        prepare_report_dir(&dir, "batch", 0x1111, false).unwrap();
        // Same campaign: fine (idempotent).
        prepare_report_dir(&dir, "batch", 0x1111, false).unwrap();
        // Different campaign: refused with the fingerprints named.
        let err = prepare_report_dir(&dir, "batch", 0x2222, false).unwrap_err();
        assert!(err.contains("different campaign"), "{err}");
        assert!(err.contains("0000000000001111"), "{err}");
        // Force takes the directory over and rewrites the manifest.
        prepare_report_dir(&dir, "batch", 0x2222, true).unwrap();
        prepare_report_dir(&dir, "batch", 0x2222, false).unwrap();
    }

    #[test]
    fn open_for_validates_flag_combinations() {
        let mut out = String::new();
        let o = Options::parse(&strs(&["batch", "a.c", "--resume"])).unwrap();
        let err = open_for(&o, "batch", 1, &mut out).unwrap_err();
        assert!(err.contains("--journal"), "{err}");
        let o = Options::parse(&strs(&["batch", "a.c"])).unwrap();
        assert!(open_for(&o, "batch", 1, &mut out).unwrap().is_none());
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    fn arb_unit_record() -> impl Strategy<Value = UnitRecord> {
        (
            any::<String>(),
            any::<String>(),
            any::<u64>(),
            any::<String>(),
            any::<String>(),
            proptest::collection::vec(any::<u64>(), 0..12),
        )
            .prop_map(
                |(unit, status, attempts, signature, report, counts)| UnitRecord {
                    unit,
                    status,
                    attempts,
                    signature,
                    report,
                    counts,
                },
            )
    }

    fn arb_event() -> impl Strategy<Value = Event> {
        prop_oneof![
            (any::<String>(), any::<u64>())
                .prop_map(|(kind, fingerprint)| { Event::CampaignStart { kind, fingerprint } }),
            any::<u64>().prop_map(|fingerprint| Event::CampaignResume { fingerprint }),
            any::<String>().prop_map(|unit| Event::UnitStart { unit }),
            arb_unit_record().prop_map(Event::UnitDone),
            any::<String>().prop_map(|id| Event::Finding { id }),
            (any::<u64>(), any::<u64>()).prop_map(|(ok, failed)| Event::CampaignEnd { ok, failed }),
        ]
    }

    proptest! {
        #[test]
        fn record_encode_decode_round_trips(seq in any::<u64>(), ev in arb_event()) {
            let line = encode_record(seq, &ev);
            prop_assert!(line.ends_with('\n'));
            // One record is exactly one line: no interior newline survives
            // escaping.
            prop_assert_eq!(line.matches('\n').count(), 1);
            let (seq2, ev2) = decode_record(line.trim_end_matches('\n')).unwrap();
            prop_assert_eq!(seq2, seq);
            prop_assert_eq!(ev2, ev);
        }

        #[test]
        fn torn_tails_replay_to_the_valid_prefix(
            events in proptest::collection::vec(arb_event(), 1..8),
            cut_back in 1usize..64,
        ) {
            let mut text = format!("{JOURNAL_HEADER}\n");
            let mut offsets = vec![text.len()];
            for (i, ev) in events.iter().enumerate() {
                text.push_str(&encode_record(i as u64, ev));
                offsets.push(text.len());
            }
            // Cut somewhere inside the final record.
            let last_start = offsets[offsets.len() - 2];
            let cut = (text.len() - (cut_back % (text.len() - last_start)).max(1)).max(last_start);
            if cut == last_start {
                // Clean cut at a record boundary: full prefix, no tear.
                let rep = replay(&text[..cut]).unwrap();
                prop_assert_eq!(rep.records, events.len() as u64 - 1);
                prop_assert_eq!(rep.torn_bytes, 0);
            } else {
                let rep = replay(&text[..cut]).unwrap();
                prop_assert_eq!(rep.records, events.len() as u64 - 1);
                prop_assert!(rep.torn_bytes > 0);
                prop_assert_eq!(rep.valid_bytes as usize, last_start);
            }
        }

        #[test]
        fn replay_never_panics_on_arbitrary_text(s in any::<String>()) {
            let _ = replay(&s);
        }
    }
}
