//! Transport abstraction for the compile service: one daemon, two wire
//! carriers.
//!
//! PR 6/7 built `impactc serve` directly on `UnixStream`. This module
//! factors the carrier out so the same daemon loop, bounded queue, IO
//! deadlines, and chaos points serve both a Unix domain socket and a TCP
//! listener (`--tcp HOST:PORT`), and the same client exchange runs
//! against either — the wire protocol in [`crate::serve`] never sees the
//! difference.
//!
//! Three pieces live here:
//!
//! * [`Listener`] / [`Conn`] — the daemon- and stream-side carrier
//!   enums. Every capability the serve loop relies on (blocking
//!   accept, mandatory read/write timeouts, `try_clone` for the
//!   buffered reader, shutdown) is forwarded verbatim to the underlying
//!   socket type.
//! * [`Endpoint`] — a client-side address. The textual form
//!   disambiguates by shape: an argument with no `/` whose final
//!   `:`-suffix parses as a port is TCP (`127.0.0.1:7070`,
//!   `build-host:9000`); anything else is a Unix socket path, which
//!   keeps every PR 6/7 invocation (`/tmp/d.sock`, `./cache.sock`)
//!   meaning what it always meant. [`parse_endpoints`] accepts the
//!   comma-separated fleet form.
//! * [`Breaker`] — the per-endpoint circuit breaker for the fleet
//!   client. Closed → Open after [`BREAKER_THRESHOLD`] *consecutive*
//!   retryable failures; Open admits nothing until
//!   [`BREAKER_COOLDOWN_MS`] has passed, then admits exactly one
//!   half-open probe (the existing `ping` verb); a successful probe
//!   closes the breaker, a failed one re-arms the cooldown. The state
//!   machine is pure (time is passed in), so the transitions are unit
//!   tested without sockets or sleeps.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::OwnedFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::time::{Duration, Instant};

/// Consecutive retryable failures that trip a breaker open.
pub(crate) const BREAKER_THRESHOLD: u32 = 3;

/// How long an open breaker blocks an endpoint before admitting a
/// half-open probe.
pub(crate) const BREAKER_COOLDOWN_MS: u64 = 500;

// ----- endpoints -----------------------------------------------------------

/// A client-side service address: a Unix socket path or a TCP
/// `host:port`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Endpoint {
    /// Unix domain socket path.
    Unix(String),
    /// TCP `host:port`.
    Tcp(String),
}

/// True when `spec` is shaped like `host:port` rather than a filesystem
/// path: no `/`, a nonempty host, and a valid nonzero port after the
/// last `:`.
pub(crate) fn looks_like_tcp(spec: &str) -> bool {
    if spec.contains('/') {
        return false;
    }
    let Some((host, port)) = spec.rsplit_once(':') else {
        return false;
    };
    !host.is_empty() && port.parse::<u16>().is_ok_and(|p| p != 0)
}

impl Endpoint {
    /// Classifies one endpoint spec (see [`looks_like_tcp`]).
    pub(crate) fn parse(spec: &str) -> Endpoint {
        if looks_like_tcp(spec) {
            Endpoint::Tcp(spec.to_string())
        } else {
            Endpoint::Unix(spec.to_string())
        }
    }

    /// The original textual form, for error reports and jitter keying.
    pub(crate) fn display(&self) -> &str {
        match self {
            Endpoint::Unix(s) | Endpoint::Tcp(s) => s,
        }
    }

    /// Connects, yielding a carrier-agnostic stream.
    ///
    /// # Errors
    ///
    /// Returns the underlying connect error.
    pub(crate) fn connect(&self) -> std::io::Result<Conn> {
        match self {
            Endpoint::Unix(path) => UnixStream::connect(path.as_str()).map(Conn::Unix),
            Endpoint::Tcp(addr) => TcpStream::connect(addr.as_str()).map(Conn::Tcp),
        }
    }
}

/// Splits a comma-separated endpoint list, rejecting empty elements (a
/// stray comma silently shrinking the fleet is an operator error worth
/// failing loudly on).
///
/// # Errors
///
/// Returns an actionable message naming the empty position.
pub(crate) fn parse_endpoints(arg: &str) -> Result<Vec<Endpoint>, String> {
    if arg.is_empty() {
        return Err("endpoint list is empty; give a socket path or host:port".to_string());
    }
    let mut endpoints = Vec::new();
    for (i, spec) in arg.split(',').enumerate() {
        if spec.is_empty() {
            return Err(format!(
                "endpoint list `{arg}` has an empty element at position {}",
                i + 1
            ));
        }
        endpoints.push(Endpoint::parse(spec));
    }
    Ok(endpoints)
}

// ----- daemon-side carriers ------------------------------------------------

/// A bound server socket of either carrier.
pub(crate) enum Listener {
    /// Unix domain socket listener.
    Unix(UnixListener),
    /// TCP listener.
    Tcp(TcpListener),
}

impl Listener {
    /// Blocks until a connection arrives and accepts it. Once the
    /// listener's [`Listener::waker`] is shut down, fails at once.
    pub(crate) fn accept(&self) -> std::io::Result<Conn> {
        match self {
            Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
        }
    }

    /// A second handle on the listening socket. Its
    /// [`Conn::shutdown_both`] wakes a thread blocked in
    /// [`Listener::accept`], which Linux fails with `EINVAL`, on either
    /// carrier.
    ///
    /// # Errors
    ///
    /// Returns the underlying socket error.
    pub(crate) fn waker(&self) -> std::io::Result<Conn> {
        Ok(match self {
            Listener::Unix(l) => Conn::Unix(OwnedFd::from(l.try_clone()?).into()),
            Listener::Tcp(l) => Conn::Tcp(OwnedFd::from(l.try_clone()?).into()),
        })
    }
}

/// One accepted or connected stream of either carrier. Implements
/// `Read`/`Write` by delegation so the wire functions in [`crate::serve`]
/// are carrier-blind.
pub(crate) enum Conn {
    /// Unix domain socket stream.
    Unix(UnixStream),
    /// TCP stream.
    Tcp(TcpStream),
}

impl Conn {
    /// True for TCP streams — the carrier that gets the tighter
    /// slow-loris header deadline (a Unix peer is a local process, not a
    /// hostile network).
    pub(crate) fn is_tcp(&self) -> bool {
        matches!(self, Conn::Tcp(_))
    }

    /// Sets the read timeout (mandatory on every serve path).
    ///
    /// # Errors
    ///
    /// Returns the underlying socket error.
    pub(crate) fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        match self {
            Conn::Unix(s) => s.set_read_timeout(dur),
            Conn::Tcp(s) => s.set_read_timeout(dur),
        }
    }

    /// Sets the write timeout (mandatory on every serve path).
    ///
    /// # Errors
    ///
    /// Returns the underlying socket error.
    pub(crate) fn set_write_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        match self {
            Conn::Unix(s) => s.set_write_timeout(dur),
            Conn::Tcp(s) => s.set_write_timeout(dur),
        }
    }

    /// Clones the stream handle (the serve/request code reads through a
    /// `BufReader` over one clone while writing through the other).
    ///
    /// # Errors
    ///
    /// Returns the underlying socket error.
    pub(crate) fn try_clone(&self) -> std::io::Result<Conn> {
        match self {
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
        }
    }

    /// Shuts down both directions — the `net:reset` chaos point's
    /// implementation of an abrupt peer.
    ///
    /// # Errors
    ///
    /// Returns the underlying socket error.
    pub(crate) fn shutdown_both(&self) -> std::io::Result<()> {
        match self {
            Conn::Unix(s) => s.shutdown(Shutdown::Both),
            Conn::Tcp(s) => s.shutdown(Shutdown::Both),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Unix(s) => s.read(buf),
            Conn::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Unix(s) => s.write(buf),
            Conn::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Unix(s) => s.flush(),
            Conn::Tcp(s) => s.flush(),
        }
    }
}

// ----- circuit breaker -----------------------------------------------------

/// What the breaker admits for an endpoint right now.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Admission {
    /// Closed: send the real request.
    Try,
    /// Open, cooldown elapsed: send one half-open `ping` probe first.
    Probe,
    /// Open, still cooling down: skip this endpoint.
    Skip,
}

/// Per-endpoint circuit breaker (see the module docs for the state
/// machine). Time is an explicit parameter so transitions are testable
/// without sleeping.
#[derive(Debug)]
pub(crate) struct Breaker {
    consecutive_failures: u32,
    opened_at: Option<Instant>,
}

impl Breaker {
    /// A fresh, closed breaker.
    pub(crate) fn new() -> Breaker {
        Breaker {
            consecutive_failures: 0,
            opened_at: None,
        }
    }

    /// True while the breaker is open (cooling down or probe-eligible).
    #[cfg(test)]
    pub(crate) fn is_open(&self) -> bool {
        self.opened_at.is_some()
    }

    /// What to do with this endpoint at `now`.
    pub(crate) fn admit(&self, now: Instant) -> Admission {
        match self.opened_at {
            None => Admission::Try,
            Some(at) => {
                if now.duration_since(at) >= Duration::from_millis(BREAKER_COOLDOWN_MS) {
                    Admission::Probe
                } else {
                    Admission::Skip
                }
            }
        }
    }

    /// Records a retryable failure at `now`. Returns `true` exactly when
    /// this failure tripped a closed breaker open (the `breaker:opened`
    /// edge); a failed half-open probe re-arms the cooldown without
    /// re-counting as a trip.
    pub(crate) fn record_failure(&mut self, now: Instant) -> bool {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        if self.opened_at.is_some() {
            // Probe failed: stay open, restart the cooldown.
            self.opened_at = Some(now);
            return false;
        }
        if self.consecutive_failures >= BREAKER_THRESHOLD {
            self.opened_at = Some(now);
            return true;
        }
        false
    }

    /// Records a successful exchange (or probe). Returns `true` exactly
    /// when this closed an open breaker (the `breaker:recovered` edge).
    pub(crate) fn record_success(&mut self) -> bool {
        let recovered = self.opened_at.is_some();
        self.consecutive_failures = 0;
        self.opened_at = None;
        recovered
    }

    /// Human-readable state at `now`, for the `--stats` table.
    pub(crate) fn state_name(&self, now: Instant) -> &'static str {
        match self.opened_at {
            None => "closed",
            Some(_) => match self.admit(now) {
                Admission::Probe => "half-open",
                _ => "open",
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_specs_classify_by_shape() {
        for spec in ["127.0.0.1:7070", "localhost:1", "build-host:65535"] {
            assert_eq!(
                Endpoint::parse(spec),
                Endpoint::Tcp(spec.to_string()),
                "{spec}"
            );
        }
        for spec in [
            "/tmp/d.sock",
            "./serve.sock",
            "d.sock",
            "dir/with:colon.sock",
            "host:0",     // port 0 is not a connectable endpoint
            "host:99999", // not a u16
            ":7070",      // empty host
            "host:port",  // non-numeric
        ] {
            assert_eq!(
                Endpoint::parse(spec),
                Endpoint::Unix(spec.to_string()),
                "{spec}"
            );
        }
    }

    #[test]
    fn endpoint_lists_split_and_reject_empty_elements() {
        let eps = parse_endpoints("127.0.0.1:7070,/tmp/d.sock,host:9000").unwrap();
        assert_eq!(
            eps,
            vec![
                Endpoint::Tcp("127.0.0.1:7070".to_string()),
                Endpoint::Unix("/tmp/d.sock".to_string()),
                Endpoint::Tcp("host:9000".to_string()),
            ]
        );
        for bad in ["", ",", "a.sock,", ",a.sock", "a.sock,,b.sock"] {
            let err = parse_endpoints(bad).unwrap_err();
            assert!(err.contains("empty"), "`{bad}` -> {err}");
        }
    }

    #[test]
    fn breaker_opens_after_consecutive_failures_only() {
        let t0 = Instant::now();
        let mut b = Breaker::new();
        assert_eq!(b.admit(t0), Admission::Try);
        assert!(!b.record_failure(t0));
        assert!(!b.record_failure(t0));
        // A success resets the consecutive count: two more failures do
        // not trip it...
        assert!(!b.record_success());
        assert!(!b.record_failure(t0));
        assert!(!b.record_failure(t0));
        assert_eq!(b.admit(t0), Admission::Try);
        // ...the third consecutive one does, exactly once.
        assert!(b.record_failure(t0));
        assert!(b.is_open());
        assert_eq!(b.admit(t0), Admission::Skip);
    }

    #[test]
    fn open_breaker_cools_down_then_probes_then_recovers() {
        let t0 = Instant::now();
        let mut b = Breaker::new();
        for _ in 0..BREAKER_THRESHOLD {
            b.record_failure(t0);
        }
        let cooldown = Duration::from_millis(BREAKER_COOLDOWN_MS);
        assert_eq!(
            b.admit(t0 + cooldown - Duration::from_millis(1)),
            Admission::Skip
        );
        assert_eq!(b.admit(t0 + cooldown), Admission::Probe);
        // Failed probe: no second `opened` edge, cooldown restarts from
        // the probe.
        let t1 = t0 + cooldown;
        assert!(!b.record_failure(t1));
        assert_eq!(b.admit(t1 + Duration::from_millis(1)), Admission::Skip);
        assert_eq!(b.admit(t1 + cooldown), Admission::Probe);
        // Successful probe: exactly one `recovered` edge, fully closed.
        assert!(b.record_success());
        assert!(!b.is_open());
        assert_eq!(b.admit(t1 + cooldown), Admission::Try);
        assert!(!b.record_success());
    }
}
