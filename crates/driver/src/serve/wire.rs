//! The `impact-serve` wire codec: the request and response types and
//! their readers and writers (see the framing comment below).

use std::io::{BufRead, Read, Write};

use impact_cfront::Source;

/// Protocol magic/version, the first token of every request and response.
/// v2 added the `ping` verb and the `retry-after-ms` response field; v3
/// added the compile request's idempotency id; v4 added the per-request
/// trace id on compile/ping frames, the `stats` verb, and the response's
/// span/counter summary section.
pub const PROTOCOL: &str = "impact-serve v4";

/// Cap on sources per request — a framing sanity bound, not a compile
/// limit (the pipeline already has its own governors).
const MAX_SOURCES: usize = 64;

/// Cap on a single name or source text, in bytes.
const MAX_FIELD_BYTES: usize = 1 << 22;

/// Cap on a header or summary-record line, newline included. Every line
/// the writers produce is under 100 bytes.
const MAX_LINE_BYTES: usize = 256;

/// Socket read/write timeout: a stalled peer cannot wedge a worker.
pub(super) const IO_TIMEOUT_MS: u64 = 10_000;

/// A parsed request: a compile job, a health-check ping, or a live
/// stats snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Compile the translation unit formed by these sources, in order.
    Compile {
        /// The unit's sources.
        sources: Vec<Source>,
        /// Idempotency id: constant across a client's retries of one
        /// logical request, distinct across logical requests. The daemon
        /// replays a completed `ok` response for a repeated id verbatim.
        id: u64,
        /// Trace id: like the idempotency id it is constant across one
        /// logical request's retries, but it rides on every span and
        /// counter delta the daemon records for this request, so the
        /// client can stitch daemon-side work under its own span.
        trace: u64,
    },
    /// Run the daemon self-checks and report health.
    Ping {
        /// Trace id for the health check's daemon-side spans.
        trace: u64,
    },
    /// Snapshot the daemon's live registry (counters, histograms, queue
    /// and table occupancy) without compiling anything.
    Stats {
        /// How the daemon should render the snapshot.
        format: StatsFormat,
    },
}

/// Rendering requested by a `stats` protocol op. The daemon renders (it
/// owns the registry); the client prints the payload verbatim.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StatsFormat {
    /// Human-readable `; `-prefixed table.
    Table,
    /// Prometheus text exposition, suitable for scraping.
    Prom,
    /// Schema-versioned JSON.
    Json,
}

impl StatsFormat {
    /// The wire token naming this format.
    pub fn wire_name(self) -> &'static str {
        match self {
            StatsFormat::Table => "table",
            StatsFormat::Prom => "prom",
            StatsFormat::Json => "json",
        }
    }

    /// Parses a wire token.
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown token.
    pub fn parse(s: &str) -> Result<StatsFormat, String> {
        match s {
            "table" => Ok(StatsFormat::Table),
            "prom" => Ok(StatsFormat::Prom),
            "json" => Ok(StatsFormat::Json),
            _ => Err(format!("unknown stats format `{s}`")),
        }
    }
}

/// A serve response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// `ok`, `error`, or `busy`.
    pub status: String,
    /// Pipeline exit code (`1` for `error`; `0` for `busy`).
    pub exit: i32,
    /// True when the payload came from the artifact cache.
    pub cached: bool,
    /// For `busy`: how long the server suggests waiting before a retry.
    /// `0` means no hint.
    pub retry_after_ms: u64,
    /// Report text (`ok`), error message (`error`/`busy`).
    pub payload: String,
    /// The daemon's span summary for this request, rebased onto the
    /// request's own timeline (`start_us` 0 = the connection was
    /// accepted) and tagged with the request's trace id. Empty for
    /// errors, `busy`, and pre-v4 semantics.
    pub spans: Vec<impact_obs::SpanEvent>,
    /// Counter deltas this request caused daemon-side (cache hit/miss,
    /// pipeline counters), for the client to absorb into its own
    /// telemetry.
    pub counters: Vec<(String, u64)>,
}

/// A parsed summary section: the daemon's spans plus its counter deltas.
pub(super) type SummarySection = (Vec<impact_obs::SpanEvent>, Vec<(String, u64)>);

impl Response {
    fn new(status: &str, exit: i32, payload: String) -> Response {
        Response {
            status: status.to_string(),
            exit,
            cached: false,
            retry_after_ms: 0,
            payload,
            spans: Vec::new(),
            counters: Vec::new(),
        }
    }

    pub(super) fn ok(exit: i32, cached: bool, payload: String) -> Response {
        Response {
            cached,
            ..Response::new("ok", exit, payload)
        }
    }

    pub(super) fn error(message: String) -> Response {
        Response::new("error", 1, message)
    }

    pub(super) fn busy(retry_after_ms: u64) -> Response {
        let payload = "request queue is full; retry later".to_string();
        Response {
            retry_after_ms,
            ..Response::new("busy", 0, payload)
        }
    }

    pub(super) fn with_summary(mut self, (spans, counters): SummarySection) -> Response {
        self.spans = spans;
        self.counters = counters;
        self
    }
}

// ----- wire protocol -------------------------------------------------------
//
// Request:   `impact-serve v4 compile <nsources> <id:016x> <trace:016x>\n`
//            then per source: `<name_len> <text_len>\n<name><text>`
//            or: `impact-serve v4 ping <trace:016x>\n`
//            or: `impact-serve v4 stats <table|prom|json>\n`
// Response:  `impact-serve v4 <status> <exit> <cached 0|1> <retry_after_ms>
//             <payload_len> <summary_len>\n<payload><summary>`
// Summary:   span records    `s <start_us> <dur_us> <trace:016x> <name_len>\n<name>`
//            counter records `c <value> <name_len>\n<name>`
//
// Every frame is built from two pieces: a header line of space-separated
// fields, read by `read_line` under the line cap, and length-prefixed
// blobs, read by `read_blob` under the field cap. Length-prefixed framing
// keeps parsing allocation-bounded and makes truncation detectable
// (read_exact fails instead of blocking forever, thanks to the socket
// timeouts). Summary record names are themselves length-prefixed so span
// names with spaces or newlines survive the wire.

/// Writes a compile request for `sources` under idempotency id `id` and
/// trace id `trace`.
///
/// # Errors
///
/// Returns the underlying I/O error.
pub fn write_request<W: Write>(
    w: &mut W,
    sources: &[Source],
    id: u64,
    trace: u64,
) -> std::io::Result<()> {
    writeln!(
        w,
        "{PROTOCOL} compile {} {id:016x} {trace:016x}",
        sources.len()
    )?;
    for s in sources {
        writeln!(w, "{} {}", s.name.len(), s.text.len())?;
        w.write_all(s.name.as_bytes())?;
        w.write_all(s.text.as_bytes())?;
    }
    w.flush()
}

/// Writes a health-check ping request under trace id `trace`.
///
/// # Errors
///
/// Returns the underlying I/O error.
pub fn write_ping<W: Write>(w: &mut W, trace: u64) -> std::io::Result<()> {
    writeln!(w, "{PROTOCOL} ping {trace:016x}")?;
    w.flush()
}

/// Writes a live-stats request.
///
/// # Errors
///
/// Returns the underlying I/O error.
pub fn write_stats<W: Write>(w: &mut W, format: StatsFormat) -> std::io::Result<()> {
    writeln!(w, "{PROTOCOL} stats {}", format.wire_name())?;
    w.flush()
}

/// Reads and validates a request.
///
/// # Errors
///
/// Returns a human-readable framing/validation error.
pub fn read_request<R: BufRead>(r: &mut R) -> Result<Request, String> {
    let header = read_line(r)?;
    let mut f = Fields::after_protocol(&header)?;
    let request = match f.take("request verb", Some)? {
        "ping" => Request::Ping {
            trace: f.hex("trace id")?,
        },
        "stats" => Request::Stats {
            format: StatsFormat::parse(f.take("stats format", Some)?)?,
        },
        "compile" => {
            let n: usize = f.num("source count")?;
            if n == 0 || n > MAX_SOURCES {
                return Err(format!("source count {n} outside 1..={MAX_SOURCES}"));
            }
            let (id, trace) = (f.hex("request id")?, f.hex("trace id")?);
            f.end()?;
            let mut sources = Vec::with_capacity(n);
            for _ in 0..n {
                let frame = read_line(r)?;
                let mut f = Fields::new(&frame);
                let (name_len, text_len) = (f.len("name length")?, f.len("text length")?);
                f.end()?;
                let name = read_blob(r, name_len, "source name")?;
                sources.push(Source::new(name, read_blob(r, text_len, "source text")?));
            }
            return Ok(Request::Compile { sources, id, trace });
        }
        _ => return Err(format!("unknown request verb in `{header}`")),
    };
    f.end()?;
    Ok(request)
}

/// Renders a response's span/counter summary section. Record names are
/// length-prefixed so arbitrary span names survive the wire.
fn render_summary(resp: &Response) -> String {
    let mut s = String::new();
    for sp in &resp.spans {
        s.push_str(&format!(
            "s {} {} {:016x} {}\n{}",
            sp.start_us,
            sp.dur_us,
            sp.trace,
            sp.name.len(),
            sp.name
        ));
    }
    for (name, v) in &resp.counters {
        s.push_str(&format!("c {} {}\n{}", v, name.len(), name));
    }
    s
}

/// Parses a summary section back into span and counter records, with
/// the same line and blob readers as the frames around it.
pub(super) fn parse_summary(s: &str) -> Result<SummarySection, String> {
    let mut r = s.as_bytes();
    let mut spans = Vec::new();
    let mut counters = Vec::new();
    while !r.is_empty() {
        let line = read_line(&mut r)?;
        let mut f = Fields::new(&line);
        match f.take("summary record tag", Some)? {
            "s" => {
                let (start_us, dur_us) = (f.num("span start")?, f.num("span duration")?);
                let (trace, len) = (f.hex("span trace")?, f.len("span name length")?);
                f.end()?;
                let name = read_blob(&mut r, len, "response summary name")?;
                spans.push(impact_obs::SpanEvent {
                    name,
                    start_us,
                    dur_us,
                    trace,
                });
            }
            "c" => {
                let (value, len) = (f.num("counter value")?, f.len("counter name length")?);
                f.end()?;
                counters.push((read_blob(&mut r, len, "response summary name")?, value));
            }
            _ => return Err(format!("unknown summary record `{line}`")),
        }
    }
    Ok((spans, counters))
}

/// Writes a response.
///
/// # Errors
///
/// Returns the underlying I/O error.
pub fn write_response<W: Write>(w: &mut W, resp: &Response) -> std::io::Result<()> {
    let summary = render_summary(resp);
    writeln!(
        w,
        "{PROTOCOL} {} {} {} {} {} {}",
        resp.status,
        resp.exit,
        u8::from(resp.cached),
        resp.retry_after_ms,
        resp.payload.len(),
        summary.len()
    )?;
    w.write_all(resp.payload.as_bytes())?;
    w.write_all(summary.as_bytes())?;
    w.flush()
}

/// Reads and validates a response.
///
/// # Errors
///
/// Returns a human-readable framing/validation error.
pub fn read_response<R: BufRead>(r: &mut R) -> Result<Response, String> {
    let header = read_line(r)?;
    let mut f = Fields::after_protocol(&header)?;
    let status = f.take("status", Some)?;
    if !matches!(status, "ok" | "error" | "busy") {
        return Err(format!("unknown response status `{status}`"));
    }
    let exit = f.num("exit code")?;
    let cached = f.take("cached flag", |t| match t {
        "0" => Some(false),
        "1" => Some(true),
        _ => None,
    })?;
    let retry_after_ms = f.num("retry-after field")?;
    let (len, summary_len) = (f.len("payload length")?, f.len("summary length")?);
    f.end()?;
    let payload = read_blob(r, len, "response payload")?;
    let (spans, counters) = parse_summary(&read_blob(r, summary_len, "response summary")?)?;
    Ok(Response {
        status: status.to_string(),
        exit,
        cached,
        retry_after_ms,
        payload,
        spans,
        counters,
    })
}

/// Reads one `\n`-terminated line of at most [`MAX_LINE_BYTES`]. A
/// longer line is a protocol violation, not a truncation: the reader
/// never buffers more than the cap, however long the peer keeps sending.
fn read_line<R: BufRead>(r: &mut R) -> Result<String, String> {
    let mut buf = Vec::new();
    r.by_ref()
        .take(MAX_LINE_BYTES as u64)
        .read_until(b'\n', &mut buf)
        .map_err(|e| format!("read failed: {e}"))?;
    if buf.last() != Some(&b'\n') {
        return Err(if buf.len() == MAX_LINE_BYTES {
            format!("line exceeds the {MAX_LINE_BYTES}-byte line cap")
        } else {
            "truncated line (peer closed or timed out)".to_string()
        });
    }
    buf.pop();
    String::from_utf8(buf).map_err(|_| "non-UTF-8 header line".to_string())
}

/// Reads one length-prefixed blob of `len` bytes as UTF-8.
fn read_blob<R: Read>(r: &mut R, len: usize, what: &str) -> Result<String, String> {
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)
        .map_err(|e| format!("truncated {what}: {e}"))?;
    String::from_utf8(buf).map_err(|_| format!("non-UTF-8 {what}"))
}

/// The space-separated fields of one header or record line, taken in
/// order. Errors quote the whole line.
struct Fields<'a> {
    line: &'a str,
    tok: std::str::Split<'a, char>,
}

impl<'a> Fields<'a> {
    fn new(line: &'a str) -> Fields<'a> {
        Fields {
            line,
            tok: line.split(' '),
        }
    }

    /// The fields of a frame header after its [`PROTOCOL`] token.
    fn after_protocol(header: &'a str) -> Result<Fields<'a>, String> {
        let rest = header
            .strip_prefix(PROTOCOL)
            .and_then(|rest| rest.strip_prefix(' '))
            .ok_or_else(|| format!("bad protocol header `{header}`"))?;
        Ok(Fields {
            line: header,
            tok: rest.split(' '),
        })
    }

    /// The next field, read by `parse`; `what` names it in the error.
    fn take<T>(
        &mut self,
        what: &str,
        parse: impl FnOnce(&'a str) -> Option<T>,
    ) -> Result<T, String> {
        let t = self
            .tok
            .next()
            .ok_or_else(|| format!("missing {what} in `{}`", self.line))?;
        parse(t).ok_or_else(|| format!("bad {what} in `{}`", self.line))
    }

    fn num<T: std::str::FromStr>(&mut self, what: &str) -> Result<T, String> {
        self.take(what, |t| t.parse().ok())
    }

    fn hex(&mut self, what: &str) -> Result<u64, String> {
        self.take(what, |t| u64::from_str_radix(t, 16).ok())
    }

    /// A blob length, within the field cap.
    fn len(&mut self, what: &str) -> Result<usize, String> {
        let n = self.num(what)?;
        if n > MAX_FIELD_BYTES {
            return Err(format!(
                "{what} {n} in `{}` exceeds the {MAX_FIELD_BYTES}-byte field cap",
                self.line
            ));
        }
        Ok(n)
    }

    /// Rejects anything left on the line.
    fn end(mut self) -> Result<(), String> {
        match self.tok.next() {
            None => Ok(()),
            Some(_) => Err(format!("trailing fields in `{}`", self.line)),
        }
    }
}

/// True for wire errors a retry can plausibly fix: a torn or dropped
/// response (truncation) or a failed/timed-out socket read. Protocol
/// violations (a well-formed but wrong header) stay terminal.
pub(super) fn wire_error_is_retryable(err: &str) -> bool {
    err.contains("truncated") || err.contains("read failed")
}
