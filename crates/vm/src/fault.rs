//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a failpoint table: each armed key names one place in
//! the pipeline that should fail, and *which* hit of that place should
//! fail (the Nth time execution reaches it). The same plan is threaded
//! through `VmConfig` and `InlineConfig`, so a single `--fault` flag on
//! the driver can reach every recovery path — the Nth arc expansion's
//! verifier check, the Nth VM allocation, a profile parse — and tests can
//! prove each rollback fires.
//!
//! Keys are namespaced strings:
//!
//! | key              | effect                                              |
//! |------------------|-----------------------------------------------------|
//! | `expand:verify`  | Nth inlined arc fails post-expansion verification   |
//! | `promote:verify` | Nth promoted call site fails verification           |
//! | `opt:pass`       | Nth optimization pass application panics            |
//! | `opt:fixpoint`   | Nth function's optimizer fixpoint loop "oscillates" |
//! | `vm:oom`         | Nth VM heap allocation traps with `OutOfMemory`     |
//! | `profile:parse`  | Nth profile-text parse fails as corrupt             |
//! | `inline:verify`  | Nth post-inline module verification fails *hard*    |
//! | `journal:crash`  | process aborts *before* the Nth journal append      |
//! | `journal:torn`   | Nth journal append writes a torn half-record, aborts |
//! | `journal:crash-after` | process aborts right *after* the Nth append    |
//!
//! Unlike the others, `inline:verify` is deliberately not recovered by the
//! driver: it models the unrecoverable class of failure (a miscompile the
//! robustness layer could not repair) that the batch supervisor must
//! quarantine, report, and minimize. The `journal:*` keys are harsher
//! still: they kill the whole *process* (SIGABRT) at a chosen campaign
//! journal event, so the crash→resume recovery tests can prove that no
//! completed work is lost and no torn artifact survives a resume.
//!
//! Counters live behind an `Arc`, so clones of a plan share hit counts:
//! "the 3rd expansion overall", not "the 3rd per clone". Every trigger is
//! one-shot — after it fires the key is spent and later hits proceed
//! normally, which keeps "fail the Nth, then recover and finish" scenarios
//! deterministic end to end.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};

#[derive(Debug, Default)]
struct Point {
    /// Fire when `hits` reaches this value (1-based).
    trigger_at: u64,
    /// Times this key has been evaluated so far.
    hits: u64,
    /// Whether the point already fired (one-shot).
    fired: bool,
}

/// A shared table of armed failpoints. The default plan is empty and
/// every check is a cheap no-op.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    points: Arc<Mutex<HashMap<String, Point>>>,
}

impl FaultPlan {
    /// An empty plan (no faults armed).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Arms `key` to fire on its `nth` hit (1-based; 0 is treated as 1).
    pub fn arm(&self, key: &str, nth: u64) {
        let mut points = self.points.lock().expect("fault plan poisoned");
        points.insert(
            key.to_string(),
            Point {
                trigger_at: nth.max(1),
                hits: 0,
                fired: false,
            },
        );
    }

    /// Parses and arms a `--fault` spec: `domain:point`, `domain:point:N`,
    /// or `domain:point=N`. `N` defaults to 1 (the first hit).
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed spec.
    pub fn arm_spec(&self, spec: &str) -> Result<(), String> {
        let (key, nth) = match spec.split_once('=') {
            Some((key, n)) => (key, parse_nth(spec, n)?),
            None => {
                // `domain:point:N` — split on the last colon only if the
                // tail is numeric, so bare `profile:parse` stays whole.
                match spec.rsplit_once(':') {
                    Some((key, tail))
                        if tail.chars().all(|c| c.is_ascii_digit()) && !tail.is_empty() =>
                    {
                        (key, parse_nth(spec, tail)?)
                    }
                    _ => (spec, 1),
                }
            }
        };
        let key = key.trim();
        if key.is_empty() || !key.contains(':') {
            return Err(format!(
                "bad fault spec '{spec}': expected DOMAIN:POINT[:N] (e.g. expand:verify:1)"
            ));
        }
        self.arm(key, nth);
        Ok(())
    }

    /// Evaluates `key`: counts the hit and reports whether the armed
    /// fault fires here. Unarmed keys never fire.
    pub fn should_fail(&self, key: &str) -> bool {
        let mut points = self.points.lock().expect("fault plan poisoned");
        let Some(point) = points.get_mut(key) else {
            return false;
        };
        if point.fired {
            return false;
        }
        point.hits += 1;
        if point.hits == point.trigger_at {
            point.fired = true;
            true
        } else {
            false
        }
    }

    /// True when no faults are armed.
    pub fn is_empty(&self) -> bool {
        self.points.lock().expect("fault plan poisoned").is_empty()
    }

    /// Keys that were armed but never fired — a test asking for the 7th
    /// expansion when only 3 happen wants to know its fault went unused.
    pub fn unfired(&self) -> Vec<String> {
        let points = self.points.lock().expect("fault plan poisoned");
        let mut keys: Vec<String> = points
            .iter()
            .filter(|(_, p)| !p.fired)
            .map(|(k, _)| k.clone())
            .collect();
        keys.sort();
        keys
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let points = self.points.lock().expect("fault plan poisoned");
        let mut keys: Vec<String> = points
            .iter()
            .map(|(k, p)| format!("{k}:{}", p.trigger_at))
            .collect();
        keys.sort();
        write!(f, "{}", keys.join(","))
    }
}

/// Renders a caught panic's payload as text: the message of a `&str` or
/// `String` payload, otherwise a fixed placeholder. Every layer that
/// catches a panic reports it through this.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn parse_nth(spec: &str, text: &str) -> Result<u64, String> {
    text.trim()
        .parse::<u64>()
        .map_err(|_| format!("bad fault spec '{spec}': '{text}' is not a count"))
}

#[cfg(test)]
mod tests {
    use super::{panic_message, FaultPlan};

    #[test]
    fn panic_message_renders_string_payloads() {
        assert_eq!(panic_message(&"boom"), "boom");
        assert_eq!(panic_message(&String::from("bang")), "bang");
        assert_eq!(panic_message(&7u8), "non-string panic payload");
    }

    #[test]
    fn unarmed_keys_never_fire() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        assert!(!plan.should_fail("vm:oom"));
    }

    #[test]
    fn fires_exactly_on_nth_hit_once() {
        let plan = FaultPlan::new();
        plan.arm("expand:verify", 3);
        assert!(!plan.should_fail("expand:verify"));
        assert!(!plan.should_fail("expand:verify"));
        assert!(plan.should_fail("expand:verify"));
        assert!(!plan.should_fail("expand:verify"), "one-shot after firing");
        assert!(plan.unfired().is_empty());
    }

    #[test]
    fn clones_share_hit_counters() {
        let plan = FaultPlan::new();
        plan.arm("vm:oom", 2);
        let clone = plan.clone();
        assert!(!clone.should_fail("vm:oom"));
        assert!(
            plan.should_fail("vm:oom"),
            "second hit counted across clones"
        );
    }

    #[test]
    fn spec_parsing_variants() {
        let plan = FaultPlan::new();
        plan.arm_spec("expand:verify:3").unwrap();
        plan.arm_spec("vm:oom=128").unwrap();
        plan.arm_spec("profile:parse").unwrap();
        assert_eq!(
            plan.to_string(),
            "expand:verify:3,profile:parse:1,vm:oom:128"
        );
        assert!(plan.arm_spec("").is_err());
        assert!(plan.arm_spec("nodomaincolon").is_err());
        assert!(plan.arm_spec("vm:oom=notanumber").is_err());
    }

    #[test]
    fn zero_count_means_first_hit() {
        let plan = FaultPlan::new();
        plan.arm_spec("opt:pass:0").unwrap();
        assert!(plan.should_fail("opt:pass"));
    }

    #[test]
    fn unfired_reports_leftover_keys() {
        let plan = FaultPlan::new();
        plan.arm("expand:verify", 7);
        plan.should_fail("expand:verify");
        assert_eq!(plan.unfired(), vec!["expand:verify".to_string()]);
    }
}
