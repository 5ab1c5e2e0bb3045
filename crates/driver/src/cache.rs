//! Content-addressed artifact cache with corruption quarantine and a
//! budgeted, crash-safe lifecycle.
//!
//! A cache entry maps `hash(sources + inputs + behavior-affecting flags)`
//! to the pipeline's exit code and rendered report, so a batch or serve
//! run can skip recompiling a unit whose whole input set is unchanged.
//! Only *successful* compilations are cached: failures carry retry and
//! crash-report machinery that must re-run to stay observable.
//!
//! Integrity model (the robustness headline):
//!
//! - Entries are published through the same atomic staging + fsync +
//!   rename path as crash reports ([`crate::report::atomic_write_in`]),
//!   so a torn write can never leave a half-entry under the final name.
//! - Each entry carries its key and an FNV-1a 64 checksum footer over
//!   everything before the footer line. A read validates header, key,
//!   payload length, and checksum.
//! - Any validation failure — truncation, bit flip, wrong key, missing
//!   footer — is *quarantined*: the entry is renamed aside to
//!   `<key>.quarantined`, an incident report is written next to it, and
//!   the lookup reports a miss so the unit is transparently recompiled.
//!   A corrupt entry is never served, and never silently deleted (the
//!   quarantined bytes are evidence) — though under a size budget the
//!   *bytes* may later be reclaimed by eviction; the incident report
//!   always survives as the durable record.
//!
//! Lifecycle model (`--cache-budget-bytes`):
//!
//! - The cache tracks every live and quarantined entry's size plus a
//!   least-recently-used order. When the total exceeds the budget,
//!   entries are evicted oldest-first — quarantined bytes are reclaimed
//!   before any live entry is touched, and a *pinned* entry (one with an
//!   in-flight read under it, see [`Cache::load`]) is never evicted.
//! - The LRU order lives in memory; a hit or a store writes nothing
//!   else. It is published once, when the cache closes, to a checksummed
//!   `cache-index.v1` through the same atomic publish path, so hit
//!   ordering survives a drained restart. The index is advisory: on
//!   startup the directory is rebuilt by scan-and-validate (every entry
//!   re-checksummed; corrupt ones quarantined on the spot), and a
//!   missing or corrupt index degrades to a deterministic key-order
//!   rebuild, never an error. After a `kill -9` the index is the last
//!   clean close's: entries stored since then rebuild as the oldest.
//! - Quarantine decisions survive restarts structurally: the corrupt
//!   entry was renamed aside, so the key stays a miss until a fresh
//!   compile republishes it.
//!
//! Fault points (armed via `--fault`, deterministic and replayable):
//! `cache:bitflip` corrupts the Nth stored entry's bytes on disk (the
//! next load must quarantine, never serve it); `cache:evict-read-race`
//! forces a full eviction pass in the middle of the Nth load, proving
//! the pin keeps the entry under the reader alive.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use impact_obs::{names, Telemetry};
use impact_vm::{fnv1a64, FaultPlan};

use crate::flags::{self, Digest, Entry};
use crate::report::{atomic_write_in, json_str};
use crate::{Options, RunSpec};
use impact_cfront::Source;

/// First line of every cache entry; version-bumps invalidate old caches.
pub const CACHE_HEADER: &str = "impact-cache v1";

/// First line of the persisted LRU index.
pub const INDEX_HEADER: &str = "impact-cache-index v1";

/// File name of the persisted LRU index.
const INDEX_NAME: &str = "cache-index.v1";

/// Extension of a live entry (`<key:016x>.entry`).
const ENTRY_EXT: &str = "entry";

/// Extension an entry is renamed to when it fails validation.
const QUARANTINE_EXT: &str = "quarantined";

/// Scratch file the serve ping health check writes (and removes) to prove
/// the cache dir is writable. A daemon killed between write and remove
/// leaks it, so the startup scan reaps any left behind.
pub(crate) const HEALTH_PROBE: &str = ".health-probe";

/// A validated cache hit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CachedResult {
    /// Exit code the original compilation returned.
    pub exit: i32,
    /// The rendered pipeline report, byte-for-byte.
    pub report: String,
}

/// Outcome of a cache probe.
#[derive(Debug)]
pub enum Lookup {
    /// Entry present and validated.
    Hit(CachedResult),
    /// No entry under this key.
    Miss,
    /// Entry present but failed validation; it has been renamed aside
    /// and an incident report written. The caller must recompile.
    Quarantined {
        /// File name of the quarantined entry (relative to the cache dir).
        entry: String,
        /// Human-readable validation failure.
        reason: String,
    },
}

/// Size and recency of one on-disk entry (live or quarantined).
#[derive(Clone, Copy, Debug)]
struct EntryMeta {
    /// On-disk size in bytes.
    bytes: u64,
    /// Monotonic access sequence; lower = less recently used.
    last_use: u64,
}

/// In-memory lifecycle state, rebuilt by scan-and-validate on open.
#[derive(Default)]
struct State {
    /// Monotonic access counter backing the LRU order.
    seq: u64,
    /// Live entries by key.
    live: HashMap<u64, EntryMeta>,
    /// Quarantined entries by key (bytes kept as evidence, but they
    /// count against the budget and are reclaimed first under pressure).
    quarantined: HashMap<u64, EntryMeta>,
    /// Pin counts: a pinned key has an in-flight read and is never
    /// evicted from under it.
    pins: HashMap<u64, usize>,
}

/// Handle on an open cache directory.
pub struct Cache {
    dir: PathBuf,
    obs: Telemetry,
    /// Total-bytes budget across live + quarantined entries; `None`
    /// disables eviction entirely (the pre-budget behavior).
    budget: Option<u64>,
    /// Deterministic `cache:*` fault points (chaos injection).
    fault: FaultPlan,
    state: Mutex<State>,
}

/// Computes the content address of one unit of work: FNV-1a 64 over a
/// canonical dump of the sources, the run inputs/args, and every flag the
/// flag table marks as entering the unit key, in table order. Flags that
/// cannot change pipeline output (telemetry, journaling, `--jobs`,
/// journal and service fault domains) are not marked.
pub fn unit_key(sources: &[Source], runs: &[RunSpec], opts: &Options) -> u64 {
    let mut s = String::new();
    let _ = writeln!(s, "{CACHE_HEADER} key");
    for src in sources {
        let _ = writeln!(
            s,
            "source {} {:016x} {}",
            src.name.len(),
            fnv1a64(src.text.as_bytes()),
            src.name
        );
    }
    for (inputs, args) in runs {
        for f in inputs {
            let _ = writeln!(
                s,
                "input {} {:016x} {}",
                f.bytes.len(),
                fnv1a64(&f.bytes),
                f.name
            );
        }
        for a in args {
            let _ = writeln!(s, "arg {} {a}", a.len());
        }
        let _ = writeln!(s, "run-end");
    }
    for (key, entry) in flags::digest(opts, Digest::Unit) {
        match entry {
            Entry::Scalar(v) => {
                let _ = writeln!(s, "{key} {v}");
            }
            Entry::Items(items) => {
                for v in items {
                    let _ = writeln!(s, "{key} {} {v}", v.len());
                }
            }
        }
    }
    fnv1a64(s.as_bytes())
}

/// Renders an entry's on-disk bytes: header, key, exit, payload length,
/// payload, checksum footer.
fn render_entry(key: u64, exit: i32, report: &str) -> Vec<u8> {
    let mut body = String::new();
    let _ = writeln!(body, "{CACHE_HEADER}");
    let _ = writeln!(body, "key {key:016x}");
    let _ = writeln!(body, "exit {exit}");
    let _ = writeln!(body, "len {}", report.len());
    body.push_str(report);
    body.push('\n');
    let sum = fnv1a64(body.as_bytes());
    let _ = writeln!(body, "checksum {sum:016x}");
    body.into_bytes()
}

/// Parses and validates entry bytes against the expected key.
///
/// # Errors
///
/// Returns a description of the first validation failure.
fn parse_entry(key: u64, bytes: &[u8]) -> Result<CachedResult, String> {
    let text = std::str::from_utf8(bytes).map_err(|_| "entry is not UTF-8".to_string())?;
    // The checksum footer is the last line; everything before it is the
    // checksummed body.
    let trimmed = text
        .strip_suffix('\n')
        .ok_or("entry missing final newline")?;
    let footer_at = trimmed.rfind('\n').ok_or("entry truncated before footer")?;
    let (body, footer) = trimmed.split_at(footer_at + 1);
    let sum = footer
        .strip_prefix("checksum ")
        .ok_or("entry missing checksum footer")?;
    let sum = u64::from_str_radix(sum, 16).map_err(|_| "unparseable checksum".to_string())?;
    let actual = fnv1a64(body.as_bytes());
    if actual != sum {
        return Err(format!(
            "checksum mismatch: footer {sum:016x}, computed {actual:016x}"
        ));
    }
    let mut lines = body.splitn(4, '\n');
    let header = lines.next().unwrap_or_default();
    if header != CACHE_HEADER {
        return Err(format!("bad header `{header}`"));
    }
    let key_line = lines.next().unwrap_or_default();
    let stored = key_line
        .strip_prefix("key ")
        .and_then(|k| u64::from_str_radix(k, 16).ok())
        .ok_or("entry missing key line")?;
    if stored != key {
        return Err(format!(
            "key mismatch: entry {stored:016x}, expected {key:016x}"
        ));
    }
    let exit_line = lines.next().unwrap_or_default();
    let exit: i32 = exit_line
        .strip_prefix("exit ")
        .and_then(|e| e.parse().ok())
        .ok_or("entry missing exit line")?;
    let rest = lines.next().ok_or("entry truncated after exit line")?;
    let (len_line, payload) = rest
        .split_once('\n')
        .ok_or("entry truncated after len line")?;
    let len: usize = len_line
        .strip_prefix("len ")
        .and_then(|l| l.parse().ok())
        .ok_or("entry missing len line")?;
    // The payload is followed by the newline `render_entry` appended.
    let payload = payload
        .strip_suffix('\n')
        .ok_or("payload missing trailing newline")?;
    if payload.len() != len {
        return Err(format!(
            "payload length mismatch: len line {len}, actual {}",
            payload.len()
        ));
    }
    Ok(CachedResult {
        exit,
        report: payload.to_string(),
    })
}

/// RAII pin on one key: while any pin is held, eviction skips that key.
struct Pin<'a> {
    cache: &'a Cache,
    key: u64,
}

impl Drop for Pin<'_> {
    fn drop(&mut self) {
        let mut st = self.cache.lock_state();
        if let Some(n) = st.pins.get_mut(&self.key) {
            *n -= 1;
            if *n == 0 {
                st.pins.remove(&self.key);
            }
        }
    }
}

impl Cache {
    /// Opens (creating if needed) the cache directory with no size budget
    /// and no fault injection — the probe-and-store behavior unchanged
    /// from before the lifecycle layer.
    ///
    /// # Errors
    ///
    /// Returns a message naming the directory on I/O failure.
    pub fn open(dir: &Path, obs: &Telemetry) -> Result<Cache, String> {
        Cache::open_with(dir, obs, None, FaultPlan::new())
    }

    /// Opens the cache with a byte budget (`None` disables eviction) and
    /// a fault plan whose `cache:*` points inject deterministic chaos.
    ///
    /// Startup is scan-and-validate: every `*.entry` file is re-parsed
    /// and re-checksummed (corrupt ones are quarantined immediately, with
    /// incident reports), quarantined bytes are re-counted against the
    /// budget, the persisted LRU index is applied where it validates, and
    /// the budget is enforced before the first probe.
    ///
    /// # Errors
    ///
    /// Returns a message naming the directory on I/O failure.
    pub fn open_with(
        dir: &Path,
        obs: &Telemetry,
        budget: Option<u64>,
        fault: FaultPlan,
    ) -> Result<Cache, String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("create cache dir {}: {e}", dir.display()))?;
        // Scanned first, so a cache that never opened publishes no index.
        let scan =
            std::fs::read_dir(dir).map_err(|e| format!("scan cache dir {}: {e}", dir.display()))?;
        let cache = Cache {
            dir: dir.to_path_buf(),
            obs: obs.clone(),
            budget,
            fault,
            state: Mutex::new(State::default()),
        };
        cache.rebuild(scan);
        Ok(cache)
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn entry_name(key: u64) -> String {
        format!("{key:016x}.{ENTRY_EXT}")
    }

    fn quarantine_name(key: u64) -> String {
        format!("{key:016x}.{QUARANTINE_EXT}")
    }

    /// Counts an injected fault under both the aggregate and the per-key
    /// chaos counters, so every injection is visible in the metrics.
    fn chaos(&self, key: &str) -> bool {
        if self.fault.should_fail(key) {
            self.obs.count(names::CHAOS_INJECTED, 1);
            self.obs.count(&format!("chaos:{key}"), 1);
            true
        } else {
            false
        }
    }

    /// Scan-and-validate rebuild of the lifecycle state (see
    /// [`Cache::open_with`]).
    fn rebuild(&self, scan: std::fs::ReadDir) {
        let mut corrupt: Vec<(u64, String)> = Vec::new();
        {
            let mut st = self.lock_state();
            for entry in scan.filter_map(Result::ok) {
                let path = entry.path();
                if path.file_name().and_then(|n| n.to_str()) == Some(HEALTH_PROBE) {
                    // A health probe leaked by a daemon killed between
                    // its write and its remove; reap it rather than let
                    // stale scratch accumulate in the cache dir.
                    let _ = std::fs::remove_file(&path);
                    continue;
                }
                let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
                    continue;
                };
                let Ok(key) = u64::from_str_radix(stem, 16) else {
                    continue;
                };
                let Some(ext) = path.extension().and_then(|e| e.to_str()) else {
                    continue;
                };
                let Ok(meta) = std::fs::metadata(&path) else {
                    continue;
                };
                match ext {
                    ENTRY_EXT => match std::fs::read(&path).map_err(|e| e.to_string()) {
                        Ok(bytes) => match parse_entry(key, &bytes) {
                            Ok(_) => {
                                st.live.insert(
                                    key,
                                    EntryMeta {
                                        bytes: meta.len(),
                                        last_use: 0,
                                    },
                                );
                            }
                            Err(reason) => corrupt.push((key, reason)),
                        },
                        Err(e) => corrupt.push((key, format!("read failed: {e}"))),
                    },
                    QUARANTINE_EXT => {
                        st.quarantined.insert(
                            key,
                            EntryMeta {
                                bytes: meta.len(),
                                last_use: 0,
                            },
                        );
                    }
                    _ => {}
                }
            }
            // Deterministic base order (ascending key), then overlay the
            // persisted index: every key the index names, in index order,
            // becomes more recent than every key it does not.
            let mut keys: Vec<u64> = st.live.keys().copied().collect();
            keys.sort_unstable();
            for (i, k) in keys.iter().enumerate() {
                if let Some(m) = st.live.get_mut(k) {
                    m.last_use = i as u64;
                }
            }
            st.seq = keys.len() as u64;
            for key in self.read_index() {
                if st.live.contains_key(&key) {
                    let seq = st.seq;
                    st.seq += 1;
                    if let Some(m) = st.live.get_mut(&key) {
                        m.last_use = seq;
                    }
                }
            }
        }
        // Quarantine outside the state lock (quarantine_entry relocks).
        for (key, reason) in corrupt {
            let size = std::fs::metadata(self.dir.join(Self::entry_name(key)))
                .map(|m| m.len())
                .unwrap_or(0);
            {
                let mut st = self.lock_state();
                st.live.insert(
                    key,
                    EntryMeta {
                        bytes: size,
                        last_use: 0,
                    },
                );
            }
            self.quarantine_entry(key, &reason);
        }
        self.evict_to_budget_locked(&mut self.lock_state(), self.budget);
    }

    /// Reads the persisted LRU order; a missing or invalid index is a
    /// silent empty result (the scan order stands).
    fn read_index(&self) -> Vec<u64> {
        let Ok(text) = std::fs::read_to_string(self.dir.join(INDEX_NAME)) else {
            return Vec::new();
        };
        let Some(trimmed) = text.strip_suffix('\n') else {
            return Vec::new();
        };
        let Some(footer_at) = trimmed.rfind('\n') else {
            return Vec::new();
        };
        let (body, footer) = trimmed.split_at(footer_at + 1);
        let Some(sum) = footer
            .strip_prefix("checksum ")
            .and_then(|s| u64::from_str_radix(s, 16).ok())
        else {
            return Vec::new();
        };
        if fnv1a64(body.as_bytes()) != sum {
            return Vec::new();
        }
        let mut lines = body.lines();
        if lines.next() != Some(INDEX_HEADER) {
            return Vec::new();
        }
        lines
            .filter_map(|l| l.strip_prefix("entry "))
            .filter_map(|k| u64::from_str_radix(k, 16).ok())
            .collect()
    }

    /// Persists the live-entry LRU order (oldest first) through the
    /// atomic publish path. Best-effort: an unwritable index degrades the
    /// next restart's ordering, never this process's correctness.
    fn persist_index(&self, st: &State) {
        let mut order: Vec<(u64, u64)> = st.live.iter().map(|(k, m)| (m.last_use, *k)).collect();
        order.sort_unstable();
        let mut body = String::new();
        let _ = writeln!(body, "{INDEX_HEADER}");
        for (_, key) in order {
            let _ = writeln!(body, "entry {key:016x}");
        }
        let sum = fnv1a64(body.as_bytes());
        let _ = writeln!(body, "checksum {sum:016x}");
        let _ = atomic_write_in(&self.dir, INDEX_NAME, body.as_bytes());
    }

    /// Evicts oldest-first until `budget` holds: quarantined bytes are
    /// reclaimed before any live entry, and pinned keys are never
    /// touched. Call with the state lock held.
    fn evict_to_budget_locked(&self, st: &mut State, budget: Option<u64>) {
        let Some(budget) = budget else { return };
        let total = |st: &State| -> u64 {
            st.live.values().map(|m| m.bytes).sum::<u64>()
                + st.quarantined.values().map(|m| m.bytes).sum::<u64>()
        };
        while total(st) > budget {
            // Victim: oldest unpinned quarantined entry, else oldest
            // unpinned live entry. (last_use, key) makes the order total
            // and deterministic.
            let pick = |m: &HashMap<u64, EntryMeta>, pins: &HashMap<u64, usize>| {
                m.iter()
                    .filter(|(k, _)| !pins.contains_key(k))
                    .map(|(k, meta)| (meta.last_use, *k, meta.bytes))
                    .min()
            };
            let pinned_skips = st.pins.len() as u64;
            let (victim, quarantined) = match pick(&st.quarantined, &st.pins) {
                Some(v) => (v, true),
                None => match pick(&st.live, &st.pins) {
                    Some(v) => (v, false),
                    None => {
                        // Everything left is pinned: over budget but
                        // untouchable until the readers finish.
                        if pinned_skips > 0 {
                            self.obs.count(names::CACHE_PIN_SKIPS, pinned_skips);
                        }
                        return;
                    }
                },
            };
            let (_, key, bytes) = victim;
            let name = if quarantined {
                st.quarantined.remove(&key);
                Self::quarantine_name(key)
            } else {
                st.live.remove(&key);
                Self::entry_name(key)
            };
            let _ = std::fs::remove_file(self.dir.join(name));
            self.obs.count(names::CACHE_EVICTIONS, 1);
            self.obs.count(names::CACHE_EVICTED_BYTES, bytes);
        }
    }

    /// Probes the cache. A corrupt entry is quarantined (renamed aside,
    /// incident report written) and reported as [`Lookup::Quarantined`];
    /// the caller recompiles exactly as for a miss. The probed key is
    /// pinned for the duration of the read, so a concurrent eviction pass
    /// can never delete the entry from under it.
    pub fn load(&self, key: u64) -> Lookup {
        let pin = Pin { cache: self, key };
        {
            let mut st = self.lock_state();
            *st.pins.entry(key).or_insert(0) += 1;
        }
        // `cache:evict-read-race`: force a hostile eviction pass in the
        // middle of this read. The pin above must keep `key` alive.
        if self.chaos("cache:evict-read-race") {
            // Evict as if the budget were zero, without changing it.
            self.evict_to_budget_locked(&mut self.lock_state(), Some(0));
        }
        let name = Self::entry_name(key);
        let path = self.dir.join(&name);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                self.obs.count(names::CACHE_MISSES, 1);
                return Lookup::Miss;
            }
            Err(e) => {
                // Unreadable is as untrustworthy as corrupt.
                drop(pin);
                return self.quarantine_lookup(key, &format!("read failed: {e}"));
            }
        };
        match parse_entry(key, &bytes) {
            Ok(hit) => {
                self.obs.count(names::CACHE_HITS, 1);
                let mut st = self.lock_state();
                let seq = st.seq;
                st.seq += 1;
                let size = bytes.len() as u64;
                st.live.insert(
                    key,
                    EntryMeta {
                        bytes: size,
                        last_use: seq,
                    },
                );
                Lookup::Hit(hit)
            }
            Err(reason) => {
                drop(pin);
                self.quarantine_lookup(key, &reason)
            }
        }
    }

    /// Stores a successful compilation under `key` through the atomic
    /// publish path, then enforces the budget (the fresh entry is the
    /// most recently used, so older entries make room for it — unless
    /// the budget cannot hold even this one entry, in which case it is
    /// reclaimed immediately and the store degrades to a no-op).
    ///
    /// # Errors
    ///
    /// Returns a message on I/O failure.
    pub fn store(&self, key: u64, exit: i32, report: &str) -> Result<(), String> {
        let rendered = render_entry(key, exit, report);
        let size = rendered.len() as u64;
        atomic_write_in(&self.dir, &Self::entry_name(key), &rendered)?;
        // `cache:bitflip`: corrupt the just-published entry on disk, the
        // way a failing device would — the next load must quarantine it.
        if self.chaos("cache:bitflip") {
            let path = self.dir.join(Self::entry_name(key));
            if let Ok(mut bytes) = std::fs::read(&path) {
                let mid = bytes.len() / 2;
                if !bytes.is_empty() {
                    bytes[mid] ^= 0x40;
                    let _ = std::fs::write(&path, &bytes);
                }
            }
        }
        self.obs.count(names::CACHE_STORES, 1);
        let mut st = self.lock_state();
        let seq = st.seq;
        st.seq += 1;
        st.live.insert(
            key,
            EntryMeta {
                bytes: size,
                last_use: seq,
            },
        );
        self.evict_to_budget_locked(&mut st, self.budget);
        Ok(())
    }

    /// Quarantines `key` and reports the probe outcome (counts the miss
    /// the caller's recompile implies).
    fn quarantine_lookup(&self, key: u64, reason: &str) -> Lookup {
        let entry = self.quarantine_entry(key, reason);
        self.obs.count(names::CACHE_MISSES, 1);
        Lookup::Quarantined {
            entry,
            reason: reason.to_string(),
        }
    }

    /// Renames a failed entry aside and writes an incident report; the
    /// bytes are preserved as evidence (but remain budget-accounted, and
    /// reclaimable by eviction — the incident report is the durable
    /// record). Returns the quarantined file name.
    fn quarantine_entry(&self, key: u64, reason: &str) -> String {
        let name = Self::entry_name(key);
        let quarantined = Self::quarantine_name(key);
        let rename = std::fs::rename(self.dir.join(&name), self.dir.join(&quarantined));
        let mut incident = String::new();
        let _ = writeln!(incident, "{{");
        let _ = writeln!(incident, "  \"version\": 1,");
        let _ = writeln!(incident, "  \"kind\": \"cache-incident\",");
        let _ = writeln!(incident, "  \"entry\": {},", json_str(&name));
        let _ = writeln!(incident, "  \"reason\": {},", json_str(reason));
        let _ = writeln!(
            incident,
            "  \"quarantined_to\": {}",
            json_str(if rename.is_ok() { &quarantined } else { "" })
        );
        let _ = writeln!(incident, "}}");
        let _ = atomic_write_in(
            &self.dir,
            &format!("{key:016x}.incident.json"),
            incident.as_bytes(),
        );
        self.obs.count(names::CACHE_QUARANTINED, 1);
        let mut st = self.lock_state();
        let meta = st.live.remove(&key).unwrap_or(EntryMeta {
            bytes: std::fs::metadata(self.dir.join(&quarantined))
                .map(|m| m.len())
                .unwrap_or(0),
            last_use: 0,
        });
        if rename.is_ok() {
            st.quarantined.insert(key, meta);
        }
        self.evict_to_budget_locked(&mut st, self.budget);
        quarantined
    }

    /// Total on-disk bytes currently accounted against the budget
    /// (live + quarantined entries).
    pub fn accounted_bytes(&self) -> u64 {
        let st = self.lock_state();
        st.live.values().map(|m| m.bytes).sum::<u64>()
            + st.quarantined.values().map(|m| m.bytes).sum::<u64>()
    }

    /// Occupancy snapshot for the `stats` protocol op: live entry count,
    /// quarantined entry count, and total accounted bytes, read under one
    /// lock acquisition.
    pub fn entry_stats(&self) -> (usize, usize, u64) {
        let st = self.lock_state();
        let bytes = st.live.values().map(|m| m.bytes).sum::<u64>()
            + st.quarantined.values().map(|m| m.bytes).sum::<u64>();
        (st.live.len(), st.quarantined.len(), bytes)
    }
}

impl Drop for Cache {
    /// Publishes the LRU index: the one write a hit or a store defers.
    fn drop(&mut self) {
        self.persist_index(&self.lock_state());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("impactc-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn entry_path(dir: &Path, key: u64) -> PathBuf {
        dir.join(format!("{key:016x}.entry"))
    }

    #[test]
    fn round_trips_a_stored_entry() {
        let dir = tmp("roundtrip");
        let cache = Cache::open(&dir, &Telemetry::disabled()).unwrap();
        assert!(matches!(cache.load(7), Lookup::Miss));
        cache.store(7, 0, "; ok\nline two\n").unwrap();
        match cache.load(7) {
            Lookup::Hit(hit) => {
                assert_eq!(hit.exit, 0);
                assert_eq!(hit.report, "; ok\nline two\n");
            }
            other => panic!("expected hit, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn startup_scan_reaps_a_leaked_health_probe() {
        let dir = tmp("health-probe");
        {
            let cache = Cache::open(&dir, &Telemetry::disabled()).unwrap();
            cache.store(3, 0, "; survivor\n").unwrap();
        }
        // Simulate a daemon killed between the probe's write and remove.
        let probe = dir.join(HEALTH_PROBE);
        std::fs::write(&probe, b"impact-serve health probe\n").unwrap();
        let cache = Cache::open(&dir, &Telemetry::disabled()).unwrap();
        assert!(!probe.exists(), "startup scan should reap the probe file");
        match cache.load(3) {
            Lookup::Hit(hit) => assert_eq!(hit.report, "; survivor\n"),
            other => panic!("expected the real entry to survive, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_is_quarantined_and_recompile_path_recovers() {
        let dir = tmp("bitflip");
        let obs = Telemetry::enabled();
        let cache = Cache::open(&dir, &obs).unwrap();
        cache.store(9, 0, "; report payload\n").unwrap();
        let entry = entry_path(&dir, 9);
        let mut bytes = std::fs::read(&entry).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&entry, &bytes).unwrap();
        match cache.load(9) {
            Lookup::Quarantined { entry: q, reason } => {
                assert!(dir.join(&q).exists(), "entry renamed aside");
                assert!(!entry.exists(), "live entry removed");
                assert!(!reason.is_empty());
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        let incident = dir.join(format!("{:016x}.incident.json", 9));
        let text = std::fs::read_to_string(&incident).unwrap();
        assert!(text.contains("cache-incident"), "{text}");
        // The recompile path stores a fresh entry and subsequent loads hit.
        cache.store(9, 0, "; report payload\n").unwrap();
        assert!(matches!(cache.load(9), Lookup::Hit(_)));
        let metrics = obs.snapshot();
        let get = |n: &str| metrics.counters.get(n).copied().unwrap_or(0);
        assert_eq!(get(names::CACHE_QUARANTINED), 1);
        assert_eq!(get(names::CACHE_HITS), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_and_missing_footer_are_detected() {
        let dir = tmp("trunc");
        let cache = Cache::open(&dir, &Telemetry::disabled()).unwrap();
        cache.store(3, 0, "; payload\n").unwrap();
        let entry = entry_path(&dir, 3);
        let bytes = std::fs::read(&entry).unwrap();
        // Truncate mid-payload: the checksum footer disappears entirely.
        std::fs::write(&entry, &bytes[..bytes.len() / 2]).unwrap();
        assert!(matches!(cache.load(3), Lookup::Quarantined { .. }));
        // An empty file is also quarantined, not served.
        cache.store(4, 0, "x\n").unwrap();
        let entry4 = entry_path(&dir, 4);
        std::fs::write(&entry4, b"").unwrap();
        assert!(matches!(cache.load(4), Lookup::Quarantined { .. }));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_mismatch_is_quarantined() {
        let dir = tmp("keymismatch");
        let cache = Cache::open(&dir, &Telemetry::disabled()).unwrap();
        cache.store(5, 0, "; payload\n").unwrap();
        // Copy key 5's entry under key 6's name: checksum is valid but the
        // embedded key is wrong.
        let bytes = std::fs::read(entry_path(&dir, 5)).unwrap();
        std::fs::write(entry_path(&dir, 6), &bytes).unwrap();
        match cache.load(6) {
            Lookup::Quarantined { reason, .. } => {
                assert!(reason.contains("key mismatch"), "{reason}");
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unit_key_tracks_content_and_flags_but_not_service_knobs() {
        let strs = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let sources = vec![Source::new("a.c", "int main() { return 0; }")];
        let runs: Vec<RunSpec> = vec![(Vec::new(), Vec::new())];
        let base = Options::parse(&strs(&["batch", "u.c"])).unwrap();
        let k0 = unit_key(&sources, &runs, &base);
        // Source text changes the key.
        let other = vec![Source::new("a.c", "int main() { return 1; }")];
        assert_ne!(k0, unit_key(&other, &runs, &base));
        // A behavior-affecting flag changes the key.
        let o = Options::parse(&strs(&["batch", "u.c", "--threshold", "5"])).unwrap();
        assert_ne!(k0, unit_key(&sources, &runs, &o));
        // Service/journal/telemetry knobs do not.
        let o = Options::parse(&strs(&[
            "batch",
            "u.c",
            "--jobs",
            "4",
            "--cache-dir",
            "/tmp/c",
            "--cache-budget-bytes",
            "4096",
            "--journal",
            "/tmp/j",
            "--trace-out",
            "/tmp/t",
        ]))
        .unwrap();
        assert_eq!(k0, unit_key(&sources, &runs, &o));
        // Service fault domains (daemon chaos) do not change the key
        // either: they never reach the pipeline.
        let o = Options::parse(&strs(&[
            "batch",
            "u.c",
            "--fault",
            "net:torn-write",
            "--fault",
            "cache:bitflip",
            "--fault",
            "serve:stall",
        ]))
        .unwrap();
        assert_eq!(k0, unit_key(&sources, &runs, &o));
        // Engine selection and icache simulation do not either: both
        // engines produce identical artifacts (the parity suite proves
        // it), so a cache filled under one engine serves the other.
        let o = Options::parse(&strs(&["batch", "u.c", "--engine", "interp", "--icache"])).unwrap();
        assert_eq!(k0, unit_key(&sources, &runs, &o));
        let _ = std::fs::remove_dir_all(std::path::Path::new("/tmp/c"));
    }

    // ----- lifecycle: budget, eviction, pinning, restart -----------------

    /// Renders a report payload sized so each stored entry lands at a
    /// known on-disk size, making budget arithmetic exact in tests.
    fn sized_report(fill: usize) -> String {
        format!("; r\n{}\n", "x".repeat(fill))
    }

    fn entry_size(dir: &Path, key: u64) -> u64 {
        std::fs::metadata(entry_path(dir, key)).unwrap().len()
    }

    #[test]
    fn eviction_reclaims_oldest_first_under_budget() {
        let dir = tmp("evict-lru");
        let obs = Telemetry::enabled();
        let cache = Cache::open_with(&dir, &obs, None, FaultPlan::new()).unwrap();
        cache.store(1, 0, &sized_report(100)).unwrap();
        cache.store(2, 0, &sized_report(100)).unwrap();
        cache.store(3, 0, &sized_report(100)).unwrap();
        let one = entry_size(&dir, 1);
        drop(cache);
        // Reopen with a budget for exactly two entries; touch 1 so 2 is
        // the LRU victim when 4 arrives.
        let cache = Cache::open_with(&dir, &obs, Some(one * 3), FaultPlan::new()).unwrap();
        assert!(matches!(cache.load(1), Lookup::Hit(_)));
        cache.store(4, 0, &sized_report(100)).unwrap();
        assert!(!entry_path(&dir, 2).exists(), "LRU victim must be 2");
        assert!(entry_path(&dir, 1).exists(), "recently-used 1 survives");
        assert!(entry_path(&dir, 4).exists(), "fresh store survives");
        let m = obs.snapshot();
        assert!(m.counters.get(names::CACHE_EVICTIONS).copied().unwrap_or(0) >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn budget_smaller_than_one_entry_keeps_the_cache_empty() {
        let dir = tmp("evict-tiny");
        let obs = Telemetry::enabled();
        let cache = Cache::open_with(&dir, &obs, Some(8), FaultPlan::new()).unwrap();
        cache.store(1, 0, &sized_report(100)).unwrap();
        // The entry was published, then immediately reclaimed: the store
        // degrades to a no-op rather than blowing the budget.
        assert!(!entry_path(&dir, 1).exists());
        assert_eq!(cache.accounted_bytes(), 0);
        assert!(matches!(cache.load(1), Lookup::Miss));
        let m = obs.snapshot();
        assert_eq!(
            m.counters.get(names::CACHE_EVICTIONS).copied().unwrap_or(0),
            1
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_order_survives_a_restart() {
        let dir = tmp("evict-restart");
        let obs = Telemetry::disabled();
        let cache = Cache::open_with(&dir, &obs, None, FaultPlan::new()).unwrap();
        cache.store(1, 0, &sized_report(100)).unwrap();
        cache.store(2, 0, &sized_report(100)).unwrap();
        cache.store(3, 0, &sized_report(100)).unwrap();
        // Access order now 1 < 2 < 3; touching 1 makes 2 the oldest.
        assert!(matches!(cache.load(1), Lookup::Hit(_)));
        let one = entry_size(&dir, 1);
        drop(cache);
        // Restart with a two-entry budget: the persisted index must make
        // 2 (not 1) the eviction victim, proving hit order survived.
        let cache = Cache::open_with(&dir, &obs, Some(one * 2), FaultPlan::new()).unwrap();
        assert!(
            !entry_path(&dir, 2).exists(),
            "restart forgot the LRU order"
        );
        assert!(entry_path(&dir, 1).exists());
        assert!(entry_path(&dir, 3).exists());
        drop(cache);
        // A deleted (or corrupt) index degrades to key-order scan, not an
        // error.
        std::fs::remove_file(dir.join(INDEX_NAME)).unwrap();
        let cache = Cache::open_with(&dir, &obs, Some(one), FaultPlan::new()).unwrap();
        assert!(entry_path(&dir, 3).exists(), "key-order fallback keeps 3");
        assert!(!entry_path(&dir, 1).exists());
        drop(cache);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hits_and_stores_leave_the_index_to_close() {
        let dir = tmp("index-at-close");
        let obs = Telemetry::disabled();
        let cache = Cache::open_with(&dir, &obs, None, FaultPlan::new()).unwrap();
        let index = dir.join(INDEX_NAME);
        let _ = std::fs::remove_file(&index);
        for key in [1, 2, 3] {
            cache.store(key, 0, &sized_report(100)).unwrap();
        }
        // Hit order 3, 1, 2 makes 3 the oldest, unlike key or store order.
        for key in [3, 1, 2] {
            assert!(matches!(cache.load(key), Lookup::Hit(_)));
        }
        assert!(!index.exists(), "a hit or a store wrote the index");
        let one = entry_size(&dir, 1);
        drop(cache);
        assert!(index.exists(), "closing the cache must publish the index");
        let cache = Cache::open_with(&dir, &obs, Some(one * 2), FaultPlan::new()).unwrap();
        assert!(
            !entry_path(&dir, 3).exists(),
            "restart forgot the hit order"
        );
        assert!(entry_path(&dir, 1).exists());
        assert!(entry_path(&dir, 2).exists());
        drop(cache);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantined_bytes_count_against_the_budget_then_free_first() {
        let dir = tmp("evict-quarantine");
        let obs = Telemetry::enabled();
        let cache = Cache::open_with(&dir, &obs, None, FaultPlan::new()).unwrap();
        cache.store(1, 0, &sized_report(100)).unwrap();
        let one = entry_size(&dir, 1);
        // Corrupt and quarantine: the bytes move aside but still count.
        let mut bytes = std::fs::read(entry_path(&dir, 1)).unwrap();
        bytes[10] ^= 0x01;
        std::fs::write(entry_path(&dir, 1), &bytes).unwrap();
        assert!(matches!(cache.load(1), Lookup::Quarantined { .. }));
        assert_eq!(cache.accounted_bytes(), one);
        drop(cache);
        // Reopen under a budget with room for two entries. Storing two
        // fresh entries passes the budget only if the quarantined bytes
        // are reclaimed first — and they must be the first victim.
        let cache = Cache::open_with(&dir, &obs, Some(one * 2), FaultPlan::new()).unwrap();
        assert_eq!(cache.accounted_bytes(), one, "restart re-counts quarantine");
        cache.store(2, 0, &sized_report(100)).unwrap();
        cache.store(3, 0, &sized_report(100)).unwrap();
        assert!(
            !dir.join(format!("{:016x}.quarantined", 1)).exists(),
            "quarantined bytes must be reclaimed before live entries"
        );
        assert!(entry_path(&dir, 2).exists());
        assert!(entry_path(&dir, 3).exists());
        // The incident report survives as the durable record.
        assert!(dir.join(format!("{:016x}.incident.json", 1)).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bitflip_fault_corrupts_store_and_next_load_quarantines() {
        let dir = tmp("fault-bitflip");
        let obs = Telemetry::enabled();
        let plan = FaultPlan::new();
        plan.arm_spec("cache:bitflip=1").unwrap();
        let cache = Cache::open_with(&dir, &obs, None, plan).unwrap();
        cache.store(7, 0, "; chaos payload\n").unwrap();
        match cache.load(7) {
            Lookup::Quarantined { reason, .. } => {
                assert!(reason.contains("checksum mismatch"), "{reason}");
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        // One-shot: the recompile's store publishes a clean entry.
        cache.store(7, 0, "; chaos payload\n").unwrap();
        assert!(matches!(cache.load(7), Lookup::Hit(_)));
        let m = obs.snapshot();
        assert_eq!(
            m.counters.get("chaos:cache:bitflip").copied().unwrap_or(0),
            1
        );
        assert_eq!(
            m.counters.get(names::CHAOS_INJECTED).copied().unwrap_or(0),
            1
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn evict_read_race_fault_cannot_evict_the_pinned_entry() {
        let dir = tmp("fault-race");
        let obs = Telemetry::enabled();
        let plan = FaultPlan::new();
        plan.arm_spec("cache:evict-read-race=2").unwrap();
        let cache = Cache::open_with(&dir, &obs, Some(1 << 20), plan).unwrap();
        cache.store(1, 0, "; pinned payload\n").unwrap();
        cache.store(2, 0, "; other payload\n").unwrap();
        assert!(matches!(cache.load(1), Lookup::Hit(_)), "first load clean");
        // Second load fires the race: a full eviction pass runs mid-read.
        // The pinned key 1 must still be served; unpinned 2 is collateral.
        match cache.load(1) {
            Lookup::Hit(hit) => assert_eq!(hit.report, "; pinned payload\n"),
            other => panic!("pinned entry evicted from under the read: {other:?}"),
        }
        assert!(
            entry_path(&dir, 1).exists(),
            "pinned entry survives on disk"
        );
        assert!(!entry_path(&dir, 2).exists(), "unpinned entry was evicted");
        let m = obs.snapshot();
        assert_eq!(
            m.counters
                .get("chaos:cache:evict-read-race")
                .copied()
                .unwrap_or(0),
            1
        );
        assert!(m.counters.get(names::CACHE_PIN_SKIPS).copied().unwrap_or(0) >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn startup_scan_quarantines_corrupt_entries() {
        let dir = tmp("scan-validate");
        let obs = Telemetry::enabled();
        let cache = Cache::open(&dir, &obs).unwrap();
        cache.store(1, 0, "; good\n").unwrap();
        cache.store(2, 0, "; soon corrupt\n").unwrap();
        drop(cache);
        let mut bytes = std::fs::read(entry_path(&dir, 2)).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x08;
        std::fs::write(entry_path(&dir, 2), &bytes).unwrap();
        // Reopen: the scan quarantines 2 before the first probe.
        let cache = Cache::open(&dir, &obs).unwrap();
        assert!(!entry_path(&dir, 2).exists());
        assert!(dir.join(format!("{:016x}.quarantined", 2)).exists());
        assert!(dir.join(format!("{:016x}.incident.json", 2)).exists());
        assert!(matches!(cache.load(2), Lookup::Miss), "no resurrection");
        assert!(
            matches!(cache.load(1), Lookup::Hit(_)),
            "clean entry serves"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
