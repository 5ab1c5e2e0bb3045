//! The `impactc` flag table: one row per flag, and everything the driver
//! does with flags derived from the rows — parsing, command scoping,
//! zero-value rejection, the usage text, the artifact-cache key, the
//! campaign fingerprint, and the options of one supervised unit or daemon
//! request. Adding a flag means adding one [`Options`] field and one row.
//!
//! Rules that span more than one flag, or parse the shape of a value
//! (budget finiteness, `--linearize`, `--tcp`, endpoint lists, the stats
//! formats), stay as code in the configuration builders.

use std::fmt::{Debug, Write as _};
use std::str::FromStr;

use crate::Options;
use Digest::{Both, Campaign, Unit};
use PerUnit::{Clear, On};

/// A field at its default means its flag was not given.
pub(crate) trait Given {
    /// Whether the flag was given.
    fn is_set(&self) -> bool;
    /// Forgets every occurrence.
    fn clear(&mut self);
}

impl<T: Default + PartialEq> Given for T {
    fn is_set(&self) -> bool {
        *self != T::default()
    }
    fn clear(&mut self) {
        *self = T::default();
    }
}

/// A typed [`Options`] field, as the table drives it.
pub(crate) trait Value: Debug + Given {
    /// Records one occurrence of the flag; `raw` is the flag's argument
    /// (empty for a switch). Fails when `raw` does not parse.
    fn set(&mut self, raw: &str) -> Result<(), ()>;
    /// Whether the value is zero (numbers) or empty (strings).
    fn is_zero(&self) -> bool {
        false
    }
    /// The occurrences of a repeatable flag, in order; `None` when the
    /// flag holds one value.
    fn items(&self) -> Option<Vec<String>> {
        None
    }
}

impl Value for bool {
    fn set(&mut self, _: &str) -> Result<(), ()> {
        *self = true;
        Ok(())
    }
}

impl<T: FromStr + Debug + Default + PartialEq> Value for Option<T> {
    fn set(&mut self, raw: &str) -> Result<(), ()> {
        *self = Some(raw.parse().map_err(drop)?);
        Ok(())
    }
    fn is_zero(&self) -> bool {
        self.as_ref() == Some(&T::default())
    }
}

impl Value for Vec<String> {
    fn set(&mut self, raw: &str) -> Result<(), ()> {
        self.push(raw.to_string());
        Ok(())
    }
    fn items(&self) -> Option<Vec<String>> {
        Some(self.clone())
    }
}

/// `name=path` pairs.
impl Value for Vec<(String, String)> {
    fn set(&mut self, raw: &str) -> Result<(), ()> {
        let (name, path) = raw.split_once('=').ok_or(())?;
        self.push((name.to_string(), path.to_string()));
        Ok(())
    }
    fn items(&self) -> Option<Vec<String>> {
        Some(self.iter().map(|(n, p)| format!("{n}={p}")).collect())
    }
}

/// Read and write access to the [`Options`] field a flag sets.
pub(crate) struct Field(
    fn(&Options) -> &dyn Value,
    fn(&mut Options) -> &mut dyn Value,
);

macro_rules! field {
    ($name:ident) => {
        Field(|o| &o.$name, |o| &mut o.$name)
    };
}

/// The commands a flag applies to, and the phrase its rejection names
/// them by. Flags sharing a scope are rejected together: the message
/// lists them all.
pub(crate) struct Scope(&'static [&'static str], &'static str);

#[rustfmt::skip]
impl Scope {
    const CAMPAIGN: Scope = Scope(&["batch", "fuzz"], "campaign commands (batch, fuzz)");
    const AUDIT: Scope = Scope(&["inline"], "`inline` (the command that plans inline expansion)");
    const PIPELINE: Scope = Scope(&["inline", "bench", "batch", "fuzz", "serve", "request"],
        "pipeline commands (inline, bench, batch, fuzz, serve, request)");
    const SERVICE: Scope = Scope(&["batch", "serve"], "service commands (batch, serve)");
    const QUEUE: Scope = Scope(&["serve"], "`serve` (the command with a bounded request queue)");
    const LISTEN: Scope = Scope(&["serve"], "`serve` (the daemon that binds listeners)");
    const RING: Scope = Scope(&["serve"], "`serve` (the daemon that keeps the event ring)");
    const FLEET: Scope = Scope(&["batch"], "`batch` (shipping units to a daemon fleet)");
    const CLIENT: Scope = Scope(&["request"], "`request` (the client talking to a serve daemon)");
    const STATS: Scope = Scope(&["request"], "`request` (the client interrogating a serve daemon)");
    const RETRY: Scope = Scope(&["batch", "request"], "the commands that retry (batch supervision, request client)");
    const VM: Scope = Scope(&["run", "inline", "callgraph", "bench", "batch", "fuzz", "serve"],
        "commands that execute code on the VM (run, inline, callgraph, bench, batch, fuzz, serve)");
}

/// Which digests a flag's value enters: the artifact-cache key of one
/// unit ([`crate::cache::unit_key`]), the campaign fingerprint
/// ([`crate::journal::campaign_fingerprint`]), both, or neither.
/// Telemetry, journaling and service knobs enter neither: they change
/// how a compile runs, never what it computes.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Digest {
    Neither,
    Unit,
    Campaign,
    Both,
}

impl Digest {
    fn covers(self, which: Digest) -> bool {
        self == Digest::Both || self == which
    }
}

/// What the options of one supervised unit or daemon request
/// ([`Options::for_unit`]) keep of a flag.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum PerUnit {
    Keep,
    /// Cleared: per-run artifacts, telemetry outputs and journaling
    /// belong to the campaign or the daemon, not to each unit.
    Clear,
    /// Forced on (units never dump IL).
    On,
}

/// One row of the flag table.
pub(crate) struct Flag {
    /// The flag as typed, e.g. `--stack-bound`.
    name: &'static str,
    /// Placeholder for the value in usage and errors; empty for a switch.
    metavar: &'static str,
    field: Field,
    help: &'static str,
    /// `None`: every command accepts the flag.
    scope: Option<&'static Scope>,
    /// Rejection message for a zero or empty value.
    zero: Option<&'static str>,
    digest: Digest,
    /// For a repeatable flag whose items are a set (sorted in digests),
    /// the digests each item enters.
    item_digest: Option<fn(&str) -> Digest>,
    unit: PerUnit,
}

const fn flag(name: &'static str, metavar: &'static str, field: Field, help: &'static str) -> Flag {
    Flag {
        name,
        metavar,
        field,
        help,
        scope: None,
        zero: None,
        digest: Digest::Neither,
        item_digest: None,
        unit: PerUnit::Keep,
    }
}

impl Flag {
    const fn only(mut self, scope: &'static Scope) -> Flag {
        self.scope = Some(scope);
        self
    }
    const fn nonzero(mut self, message: &'static str) -> Flag {
        self.zero = Some(message);
        self
    }
    const fn digest(mut self, digest: Digest) -> Flag {
        self.digest = digest;
        self
    }
    const fn items(mut self, item_digest: fn(&str) -> Digest) -> Flag {
        self.item_digest = Some(item_digest);
        self
    }
    const fn per_unit(mut self, unit: PerUnit) -> Flag {
        self.unit = unit;
        self
    }

    fn get<'a>(&self, opts: &'a Options) -> &'a dyn Value {
        (self.field.0)(opts)
    }

    fn get_mut<'a>(&self, opts: &'a mut Options) -> &'a mut dyn Value {
        (self.field.1)(opts)
    }
}

/// Fault specs carry their domain: journal kill points reach neither
/// digest, service faults (`serve:`/`net:`/`cache:`) only the campaign
/// (batch arms `cache:*` on its artifact cache), and the rest reach the
/// pipeline itself.
fn fault_digest(spec: &str) -> Digest {
    if crate::journal::is_journal_fault(spec) {
        Digest::Neither
    } else if crate::serve::is_service_fault(spec) {
        Digest::Campaign
    } else {
        Digest::Both
    }
}

/// Every flag `impactc` accepts. Within each digest, rows appear in the
/// order their lines are hashed, so existing caches and journals stay
/// valid; usage groups rows by the commands that accept them.
#[rustfmt::skip]
pub(crate) const FLAGS: &[Flag] = &[
    flag("--input", "name=path", field!(inputs), "make a file visible to the program (repeatable)").digest(Campaign),
    flag("--arg", "value", field!(args), "program argument (repeatable)").digest(Campaign),
    flag("--threshold", "N", field!(threshold), "arc-weight threshold (default 10)").digest(Both),
    flag("--budget", "F", field!(budget),
        "code-growth limit (default 2.0); for fuzz, the number of programs to check (default 100)").digest(Both),
    flag("--stack-bound", "N", field!(stack_bound), "recursion stack bound in bytes (default 4096)").digest(Both)
        .nonzero("--stack-bound 0 would reject every expansion into a recursive region; \
                  use a positive byte bound (default 4096)"),
    flag("--linearize", "S", field!(linearization), "node-weight | reverse | source | random:<seed>").digest(Both),
    flag("--promote-indirect", "", field!(promote_indirect), "promote profile-dominated indirect calls (extension)")
        .digest(Both),
    flag("--opt", "", field!(opt), "run classical optimizations after expansion").digest(Both),
    flag("--fuel", "N", field!(fuel), "VM instruction budget per run (default 2000000000)").digest(Both)
        .nonzero("--fuel 0 would stop the VM before its first instruction; \
                  use a positive instruction budget (default 2000000000)"),
    flag("--mem-limit", "N", field!(mem_limit), "VM heap allocation quota in bytes").digest(Both)
        .nonzero("--mem-limit 0 would reject the program's first allocation; use a positive heap quota in bytes"),
    flag("--profile-in", "PATH", field!(profile_in), "reuse a saved profile instead of re-profiling")
        .digest(Unit).per_unit(Clear),
    flag("--profile-out", "PATH", field!(profile_out), "save the collected profile as text")
        .digest(Unit).per_unit(Clear),
    flag("--quiet", "", field!(quiet), "suppress IL dumps").digest(Unit).per_unit(On),
    flag("--fault", "KEY[=N]", field!(faults),
        "arm a deterministic fault point (repeatable), e.g. expand:verify:1, vm:oom=3, profile:parse; \
         fuzz arms it in every oracle config, where it must surface as a finding")
        .digest(Both).items(fault_digest),
    flag("--time-limit-ms", "N", field!(time_limit_ms),
        "per-unit wall-clock deadline of batch and serve (default 10000)").digest(Campaign),
    flag("--retries", "N", field!(retries),
        "re-attempts after transient failures: a batch unit's, or a request's torn or dropped connection, \
         busy daemon or crashed worker (default 2)").only(&Scope::RETRY).digest(Campaign),
    flag("--retry-base-ms", "N", field!(retry_base_ms),
        "exponential backoff base delay; a busy daemon's retry-after hint overrides it (default 25)")
        .only(&Scope::RETRY).digest(Campaign),
    flag("--report-dir", "DIR", field!(report_dir),
        "where batch crash reports and reproducers, fuzz *.repro.c and oracle reports (default \
         fuzz-reports), bench's BENCH_inline.json and serve's incident dumps are written").digest(Campaign),
    flag("--fault-unit", "NAME", field!(fault_unit), "batch: arm --fault specs for this unit only").digest(Campaign),
    flag("--workloads", "", field!(workloads), "batch: add the twelve bundled benchmarks as units").digest(Campaign),
    flag("--seed", "N", field!(seed), "fuzz campaign seed (default 42)").digest(Campaign),
    flag("--engine", "interp|bytecode", field!(engine),
        "VM execution engine (default bytecode: flat register bytecode, measured multiple-x faster; interp \
         is the reference tree-walker; the parity suite proves both behaviorally identical, so results \
         never depend on the choice)").only(&Scope::VM),
    flag("--icache", "", field!(icache),
        "replay the instruction stream through the paper-era simulated icache (8 KiB direct-mapped, \
         32-byte lines) and report miss stats; the stream is identical on either engine").only(&Scope::VM),
    flag("--explain", "", field!(explain),
        "print the per-call-site decision audit table: class, weight, budget state, and the accept/reject \
         reason").only(&Scope::AUDIT).per_unit(Clear),
    flag("--decisions-out", "PATH", field!(decisions_out), "write the same audit trail as schema-versioned JSON")
        .only(&Scope::AUDIT).per_unit(Clear),
    flag("--trace-out", "PATH", field!(trace_out),
        "write Chrome trace-event JSON (load it at chrome://tracing or ui.perfetto.dev)")
        .only(&Scope::PIPELINE).per_unit(Clear),
    flag("--metrics-out", "PATH", field!(metrics_out),
        "write per-stage counters and timings as schema-versioned JSON; batch and fuzz aggregate across \
         all units into campaign-level metrics").only(&Scope::PIPELINE).per_unit(Clear),
    flag("--journal", "PATH", field!(journal),
        "record campaign progress to a checksummed write-ahead journal (fsync'd per event)")
        .only(&Scope::CAMPAIGN).per_unit(Clear),
    flag("--resume", "", field!(resume),
        "continue the campaign in --journal: completed units are skipped, in-flight ones re-run, and \
         reports are re-emitted idempotently").only(&Scope::CAMPAIGN).per_unit(Clear),
    flag("--force-resume", "", field!(force_resume),
        "resume even if the journal or report-dir manifest records different campaign flags")
        .only(&Scope::CAMPAIGN).per_unit(Clear),
    flag("--jobs", "N", field!(jobs), "compile-pool worker count (default: the number of available cores)")
        .only(&Scope::SERVICE)
        .nonzero("--jobs 0 would run no compile workers; use a positive worker count \
                  (default: the number of available cores)"),
    flag("--cache-dir", "DIR", field!(cache_dir),
        "content-addressed artifact cache: hits skip recompilation; corrupt or truncated entries are \
         quarantined with an incident report and recompiled, never served").only(&Scope::SERVICE)
        .nonzero("--cache-dir needs a non-empty directory path for the artifact cache"),
    flag("--cache-budget-bytes", "N", field!(cache_budget_bytes),
        "total on-disk byte budget for the cache; past it, least-recently-used entries are evicted \
         (quarantined bytes reclaimed first, in-flight reads never; needs --cache-dir)").only(&Scope::SERVICE)
        .nonzero("--cache-budget-bytes 0 would evict every entry the moment it was stored; \
                  use a positive byte budget, or omit the flag for an unbounded cache"),
    flag("--remote", "ENDPOINTS", field!(remote),
        "ship each file unit to this comma-separated daemon fleet (failover and circuit breakers) instead \
         of compiling locally").only(&Scope::FLEET),
    flag("--queue-depth", "N", field!(queue_depth),
        "request queue bound; a full queue sheds new requests with an immediate busy response (default 8)")
        .only(&Scope::QUEUE)
        .nonzero("--queue-depth 0 would shed every request before a worker could accept one; \
                  use a positive queue bound (default 8)"),
    flag("--tcp", "HOST:PORT", field!(tcp), "also bind a TCP listener serving the same protocol to remote clients")
        .only(&Scope::LISTEN),
    flag("--max-conns", "N", field!(max_conns),
        "accept-time cap on connections being served; past it new connections are shed with an immediate \
         busy response").only(&Scope::LISTEN)
        .nonzero("--max-conns 0 would shed every connection at accept time; use a positive cap, \
                  or omit the flag for an unbounded daemon"),
    flag("--flight-recorder", "N", field!(flight_recorder),
        "capacity of the in-memory ring of recent structured events dumped as incident JSON on panic, \
         quarantine or protocol violation and at drain (default 256)").only(&Scope::RING)
        .nonzero("--flight-recorder 0 would record no events before a crash; use a positive \
                  ring capacity (default 256), or omit the flag"),
    flag("--deadline-ms", "N", field!(deadline_ms),
        "overall deadline across all attempts; socket timeouts shrink as the budget runs down").only(&Scope::CLIENT)
        .nonzero("--deadline-ms 0 would expire the request before its first attempt; use a \
                  positive overall deadline in milliseconds"),
    flag("--ping", "", field!(ping),
        "daemon health self-check instead of compiling: queue headroom and cache-dir writability \
         (exit 0 healthy, 1 degraded)").only(&Scope::CLIENT),
    flag("--stats", "", field!(stats),
        "live daemon stats snapshot as a table: counters, latency histograms, queue, cache and \
         idempotency occupancy, breaker states").only(&Scope::STATS),
    flag("--stats-prom", "", field!(stats_prom),
        "the same snapshot as Prometheus text exposition, suitable for scraping").only(&Scope::STATS),
    flag("--stats-json", "", field!(stats_json), "the same snapshot as versioned JSON").only(&Scope::STATS),
];

/// Parses `argv[1..]` (after the command) into `opts`: each flag through
/// its row, everything else positional.
pub(crate) fn parse_into(opts: &mut Options, args: &[String]) -> Result<(), String> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(f) = FLAGS.iter().find(|f| f.name == a) else {
            if a.starts_with("--") {
                return Err(format!("unknown option `{a}`\n{}", crate::usage()));
            }
            opts.positional.push(a.clone());
            continue;
        };
        let raw = match f.metavar {
            "" => "",
            metavar => it.next().ok_or_else(|| format!("{a} needs {metavar}"))?,
        };
        f.get_mut(opts)
            .set(raw)
            .map_err(|()| format!("bad {a} `{raw}` (expected {})", f.metavar))?;
    }
    Ok(())
}

/// Rejects a flag given to a command outside its scope, naming every
/// flag that shares the scope.
pub(crate) fn check_scope(opts: &Options) -> Result<(), String> {
    let command = opts.command.as_str();
    let Some(scope) = FLAGS.iter().find_map(|f| {
        f.scope
            .filter(|s| f.get(opts).is_set() && !s.0.contains(&command))
    }) else {
        return Ok(());
    };
    let names: Vec<&str> = FLAGS
        .iter()
        .filter(|f| f.scope.is_some_and(|s| s.1 == scope.1))
        .map(|f| f.name)
        .collect();
    let verb = if names.len() == 1 { "applies" } else { "apply" };
    Err(format!(
        "{} only {verb} to {}, not `{command}`",
        names.join("/"),
        scope.1
    ))
}

/// Rejects the first zero or empty value among the flags whose row
/// forbids one.
pub(crate) fn check_zero(opts: &Options) -> Result<(), String> {
    FLAGS
        .iter()
        .find_map(|f| f.zero.filter(|_| f.get(opts).is_zero()))
        .map_or(Ok(()), |message| Err(message.to_string()))
}

/// One flag's contribution to a digest.
pub(crate) enum Entry {
    /// A single value, in `Debug` form (`Some(5)`, `None`, `true`).
    Scalar(String),
    /// The occurrences of a repeatable flag.
    Items(Vec<String>),
}

/// The `(label, entry)` pairs a digest of kind `which` (`Unit` or
/// `Campaign`) hashes, in table order. A flag's label is its name without
/// dashes, inner dashes as underscores (`--stack-bound` → `stack_bound`);
/// a set-valued flag keeps only the items whose own digest covers
/// `which`, sorted.
pub(crate) fn digest(opts: &Options, which: Digest) -> Vec<(String, Entry)> {
    let rows = FLAGS.iter().filter(|f| f.digest.covers(which));
    rows.map(|f| {
        let entry = match (f.get(opts).items(), f.item_digest) {
            (None, _) => Entry::Scalar(format!("{:?}", f.get(opts))),
            (Some(items), None) => Entry::Items(items),
            (Some(mut items), Some(item_digest)) => {
                items.retain(|v| item_digest(v).covers(which));
                items.sort();
                Entry::Items(items)
            }
        };
        (f.name.trim_start_matches('-').replace('-', "_"), entry)
    })
    .collect()
}

impl Options {
    /// The options one supervised batch unit or daemon request compiles
    /// with: no positionals, the table's per-unit column applied, and
    /// only the fault specs that reach the pipeline.
    pub(crate) fn for_unit(&self) -> Options {
        let mut o = self.clone();
        o.positional.clear();
        for f in FLAGS {
            match f.unit {
                PerUnit::Keep => {}
                PerUnit::Clear => f.get_mut(&mut o).clear(),
                PerUnit::On => {
                    let _ = f.get_mut(&mut o).set("");
                }
            }
            if let (Some(item_digest), Some(items)) = (f.item_digest, f.get(self).items()) {
                let v = f.get_mut(&mut o);
                v.clear();
                for item in items.iter().filter(|i| item_digest(i).covers(Unit)) {
                    let _ = v.set(item);
                }
            }
        }
        o
    }
}

/// Renders the option lines of the usage text: one section per set of
/// accepting commands, in table order, help text wrapped to 80 columns.
pub(crate) fn usage_options() -> String {
    const INDENT: usize = 34;
    let commands = |f: &Flag| {
        f.scope
            .map_or("every command".to_string(), |s| s.0.join(", "))
    };
    let mut sections: Vec<String> = Vec::new();
    for f in FLAGS {
        if !sections.contains(&commands(f)) {
            sections.push(commands(f));
        }
    }
    let mut out = String::new();
    for section in sections {
        let _ = write!(out, "\noptions for {section}:\n");
        for f in FLAGS.iter().filter(|f| commands(f) == section) {
            let head = format!("  {} {}", f.name, f.metavar);
            let mut line = format!("{:<INDENT$}", head.trim_end());
            for word in f.help.split_whitespace() {
                if line.len() > INDENT && line.len() + 1 + word.len() > 80 {
                    let _ = writeln!(out, "{line}");
                    line = " ".repeat(INDENT);
                } else if line.len() > INDENT {
                    line.push(' ');
                }
                line.push_str(word);
            }
            let _ = writeln!(out, "{line}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_well_formed() {
        let defaults = Options::default();
        for (i, f) in FLAGS.iter().enumerate() {
            assert!(f.name.starts_with("--"), "{}", f.name);
            assert!(
                FLAGS[..i].iter().all(|g| g.name != f.name),
                "{} is declared twice",
                f.name
            );
            // A switch is exactly a flag with no metavar.
            let is_switch = format!("{:?}", f.get(&defaults)) == "false";
            assert_eq!(f.metavar.is_empty(), is_switch, "{}", f.name);
            assert!(!f.get(&defaults).is_set(), "{} is set by default", f.name);
            if let Some(message) = f.zero {
                assert!(message.contains(f.name), "{}: {message}", f.name);
            }
        }
        assert_eq!(FLAGS.len(), 43);
    }

    /// The defaults the usage text and rejections quote are the ones the
    /// code applies.
    #[test]
    fn quoted_defaults_match_the_code() {
        use crate::supervise::{DEFAULT_RETRIES, DEFAULT_RETRY_BASE_MS, DEFAULT_TIME_LIMIT_MS};
        let inline = impact_inline::InlineConfig::default();
        let vm = impact_vm::VmConfig::default();
        let quoted = [
            ("--threshold", inline.weight_threshold.to_string()),
            ("--budget", format!("{:.1}", inline.code_growth_limit)),
            ("--stack-bound", inline.stack_bound.to_string()),
            ("--fuel", vm.max_steps.to_string()),
            ("--time-limit-ms", DEFAULT_TIME_LIMIT_MS.to_string()),
            ("--retries", DEFAULT_RETRIES.to_string()),
            ("--retry-base-ms", DEFAULT_RETRY_BASE_MS.to_string()),
            ("--queue-depth", crate::DEFAULT_QUEUE_DEPTH.to_string()),
            (
                "--flight-recorder",
                impact_obs::DEFAULT_FLIGHT_CAPACITY.to_string(),
            ),
        ];
        for (name, default) in quoted {
            let f = FLAGS.iter().find(|f| f.name == name).unwrap();
            let text = format!("{} {}", f.help, f.zero.unwrap_or_default());
            assert!(
                text.contains(&format!("(default {default})")),
                "{name}: {text}"
            );
            if let Some(message) = f.zero {
                assert!(
                    message.contains(&format!("(default {default})")),
                    "{name}: {message}"
                );
            }
        }
    }

    #[test]
    fn usage_lists_every_flag_once() {
        let text = crate::usage();
        for f in FLAGS {
            let head = format!("{} ", format!("  {} {}", f.name, f.metavar).trim_end());
            let lines = text.lines().filter(|l| l.starts_with(&head)).count();
            assert_eq!(lines, 1, "{}", f.name);
        }
        assert!(text.lines().all(|l| l.len() <= 80), "{text}");
    }

    #[test]
    fn per_unit_options_strip_what_units_must_not_see() {
        let argv: Vec<String> = [
            "batch",
            "u.c",
            "--journal",
            "j",
            "--resume",
            "--trace-out",
            "t.json",
            "--profile-in",
            "p",
            "--fault",
            "journal:crash=1",
            "--fault",
            "cache:bitflip",
            "--fault",
            "expand:verify",
            "--threshold",
            "7",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let o = Options::parse(&argv).unwrap().for_unit();
        assert!(o.positional.is_empty() && o.journal.is_none() && !o.resume);
        assert!(o.trace_out.is_none() && o.profile_in.is_none() && o.quiet);
        assert_eq!(o.faults, vec!["expand:verify".to_string()]);
        assert_eq!(o.threshold, Some(7));
    }
}
