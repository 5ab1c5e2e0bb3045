//! The benchmark's own tracer: spans with parent links, recorded around
//! calls into each crate's public functions, plus import of the spans the
//! crates emit themselves when handed an enabled `Telemetry`.
//!
//! A disabled tracer reads no clock and records nothing, so untraced
//! rounds run the same code path at no cost.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Slack for containment tests on imported spans, whose start and
/// duration are each truncated to whole microseconds.
const IMPORT_SLACK_NS: u64 = 2_000;

/// One completed span.
#[derive(Clone, Debug)]
pub struct SpanRec {
    /// Layer-qualified name, e.g. `cfront.lex` (benchmark) or `inline:plan`
    /// (imported from the program's telemetry).
    pub name: String,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Number of spans.
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of self times: duration minus the part covered by children.
    pub self_ns: u64,
}

/// A span recorder. Spans nest by `enter`/`exit`.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<SpanRec>,
    open: Vec<(usize, Instant)>,
}

impl Tracer {
    /// A tracer; when `on` is false every method is a no-op.
    pub fn new(on: bool) -> Tracer {
        Tracer::with_epoch(on, Instant::now())
    }

    /// A tracer sharing another tracer's epoch, so the two can be merged.
    pub fn with_epoch(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn ns_since_epoch(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span; returns its
    /// index (`None` when off).
    pub fn enter(&mut self, name: &str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let now = Instant::now();
        let id = self.spans.len();
        self.spans.push(SpanRec {
            name: name.to_string(),
            parent: self.open.last().map(|&(p, _)| p),
            start_ns: self.ns_since_epoch(now),
            dur_ns: 0,
        });
        self.open.push((id, now));
        Some(id)
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if let Some((id, started)) = self.open.pop() {
            self.spans[id].dur_ns = started.elapsed().as_nanos() as u64;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    /// Imports program telemetry spans (microsecond offsets from
    /// `origin`) as descendants of span `under`. Parents among the imported
    /// spans follow interval containment: the crates record flat spans,
    /// and nesting in time is nesting in the call tree on one thread.
    pub fn import(
        &mut self,
        under: Option<usize>,
        spans: &[impact_obs::SpanEvent],
        origin: Instant,
    ) {
        if !self.on {
            return;
        }
        let base = self.ns_since_epoch(origin);
        let mut evs: Vec<(u64, u64, &str)> = spans
            .iter()
            .map(|s| (base + s.start_us * 1_000, s.dur_us * 1_000, s.name.as_str()))
            .collect();
        evs.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        let mut stack: Vec<(usize, u64, u64)> = Vec::new();
        for (start, dur, name) in evs {
            while let Some(&(_, s, e)) = stack.last() {
                if start + IMPORT_SLACK_NS >= s && start + dur <= e + IMPORT_SLACK_NS {
                    break;
                }
                stack.pop();
            }
            let id = self.spans.len();
            self.spans.push(SpanRec {
                name: name.to_string(),
                parent: stack.last().map(|&(p, _, _)| p).or(under),
                start_ns: start,
                dur_ns: dur,
            });
            stack.push((id, start, start + dur));
        }
    }

    /// Moves another tracer's spans (same epoch) into this one.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Takes the recorded spans, leaving the tracer empty.
    pub fn take(&mut self) -> Vec<SpanRec> {
        std::mem::take(&mut self.spans)
    }
}

/// Self time of every span: its duration minus its children's.
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.dur_ns;
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| s.dur_ns.saturating_sub(c))
        .collect()
}

/// Per-name totals, including self time.
pub fn totals(spans: &[SpanRec]) -> BTreeMap<String, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<String, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name.clone()).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns;
        t.self_ns += self_ns;
    }
    out
}

/// Adds `more` into `into`, name by name.
pub fn add_totals(into: &mut BTreeMap<String, NameTotals>, more: &BTreeMap<String, NameTotals>) {
    for (k, v) in more {
        let t = into.entry(k.clone()).or_default();
        t.count += v.count;
        t.total_ns += v.total_ns;
        t.self_ns += v.self_ns;
    }
}

/// Sum of the durations of the direct children of each span named
/// `parent`, and the sum of those parents' own durations.
pub fn child_coverage(spans: &[SpanRec], parent: &str) -> (u64, u64) {
    let mut children = 0;
    let mut parents = 0;
    for s in spans {
        if s.name == parent {
            parents += s.dur_ns;
        }
        if let Some(p) = s.parent {
            if spans[p].name == parent {
                children += s.dur_ns;
            }
        }
    }
    (children, parents)
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders spans (with parent links and self time) and per-name totals as
/// JSON.
pub fn to_json(
    workload: &str,
    seed: u64,
    spans: &[SpanRec],
    by_name: &BTreeMap<String, NameTotals>,
) -> String {
    let selfs = self_times(spans);
    let mut out = format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"time_unit\": \"us\", \"spans\": [",
        json_str(workload)
    );
    for (i, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "\n  {{\"id\": {i}, \"parent\": {parent}, \"name\": {}, \"start\": {}, \"dur\": {}, \"self\": {}}}",
            json_str(&s.name),
            s.start_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3,
            self_ns as f64 / 1e3
        );
    }
    out.push_str("\n], \"totals\": {");
    for (i, (name, t)) in by_name.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n  {}: {{\"count\": {}, \"total\": {}, \"self\": {}}}",
            json_str(name),
            t.count,
            t.total_ns as f64 / 1e3,
            t.self_ns as f64 / 1e3
        );
    }
    out.push_str("\n}}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.enter("a"), None);
        t.time("b", || ());
        t.exit();
        assert!(t.take().is_empty());
    }

    #[test]
    fn nesting_gives_parents_and_self_time() {
        let spans = vec![
            SpanRec {
                name: "root".into(),
                parent: None,
                start_ns: 0,
                dur_ns: 100,
            },
            SpanRec {
                name: "a".into(),
                parent: Some(0),
                start_ns: 10,
                dur_ns: 30,
            },
            SpanRec {
                name: "b".into(),
                parent: Some(0),
                start_ns: 50,
                dur_ns: 20,
            },
            SpanRec {
                name: "a".into(),
                parent: Some(2),
                start_ns: 55,
                dur_ns: 5,
            },
        ];
        assert_eq!(self_times(&spans), vec![50, 30, 15, 5]);
        let t = totals(&spans);
        assert_eq!(
            t["a"],
            NameTotals {
                count: 2,
                total_ns: 35,
                self_ns: 35
            }
        );
        assert_eq!(child_coverage(&spans, "root"), (50, 100));
    }

    #[test]
    fn imported_spans_nest_by_containment() {
        let origin = Instant::now();
        let mut t = Tracer::with_epoch(true, origin);
        let outer = t.enter("outer");
        t.exit();
        let ev = |name: &str, start_us, dur_us| impact_obs::SpanEvent {
            name: name.into(),
            start_us,
            dur_us,
            trace: 0,
        };
        t.import(
            outer,
            &[ev("leaf", 12, 3), ev("run", 10, 10), ev("next", 30, 5)],
            origin,
        );
        let spans = t.take();
        let by = |n: &str| spans.iter().position(|s| s.name == n).unwrap();
        assert_eq!(spans[by("run")].parent, outer);
        assert_eq!(spans[by("leaf")].parent, Some(by("run")));
        assert_eq!(spans[by("next")].parent, outer);
    }
}
