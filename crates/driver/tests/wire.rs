//! Property tests for the `impact-serve` wire protocol.
//!
//! Two guarantees matter to the fleet client's retry taxonomy:
//!
//! 1. **Round-trip fidelity** — any request or response the writers can
//!    produce parses back to exactly the same value, so a retried
//!    exchange can never be *mis*parsed into a different job. Since v4
//!    that includes the trace id on every frame and the span/counter
//!    summary riding on responses (arbitrary span names exercise the
//!    length-prefixed record framing).
//! 2. **Torn prefixes are retryable** — cutting the wire at *any* byte
//!    boundary must surface as an error the client classifies as
//!    retryable (it mentions `truncated`), never as a panic, a hang, or
//!    a successful parse of half a frame. This is what makes
//!    `net:torn-write`/`net:partial-frame` chaos survivable: the client
//!    sees "truncated", retries, and the daemon's idempotency table
//!    absorbs the duplicate.

use std::io::Cursor;

use impact_cfront::Source;
use impact_driver::serve::{
    read_request, read_response, write_ping, write_request, write_response, write_stats, Request,
    Response, StatsFormat,
};
use proptest::prelude::*;

fn arb_source() -> impl Strategy<Value = Source> {
    // Names and texts exercise the length-prefixed framing, including
    // embedded newlines and spaces (framing never scans for them) and
    // multi-byte UTF-8.
    (any::<String>(), any::<String>()).prop_map(|(name, text)| Source::new(name, text))
}

fn arb_sources() -> impl Strategy<Value = Vec<Source>> {
    proptest::collection::vec(arb_source(), 1..5)
}

fn arb_spans() -> impl Strategy<Value = Vec<impact_obs::SpanEvent>> {
    proptest::collection::vec(
        (any::<String>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
            |(name, start_us, dur_us, trace)| impact_obs::SpanEvent {
                name,
                start_us,
                dur_us,
                trace,
            },
        ),
        0..4,
    )
}

fn arb_counters() -> impl Strategy<Value = Vec<(String, u64)>> {
    proptest::collection::vec((any::<String>(), any::<u64>()), 0..4)
}

fn arb_response() -> impl Strategy<Value = Response> {
    (
        prop_oneof![Just("ok"), Just("error"), Just("busy")],
        0i32..=255,
        any::<bool>(),
        any::<u64>(),
        any::<String>(),
        arb_spans(),
        arb_counters(),
    )
        .prop_map(
            |(status, exit, cached, retry_after_ms, payload, spans, counters)| Response {
                status: status.to_string(),
                exit,
                cached,
                retry_after_ms,
                payload,
                spans,
                counters,
            },
        )
}

proptest! {
    #[test]
    fn requests_round_trip(sources in arb_sources(), id in any::<u64>(), trace in any::<u64>()) {
        let mut wire = Vec::new();
        write_request(&mut wire, &sources, id, trace).unwrap();
        let back = read_request(&mut Cursor::new(wire)).unwrap();
        prop_assert_eq!(back, Request::Compile { sources, id, trace });
    }

    #[test]
    fn responses_round_trip(resp in arb_response()) {
        let mut wire = Vec::new();
        write_response(&mut wire, &resp).unwrap();
        let back = read_response(&mut Cursor::new(wire)).unwrap();
        prop_assert_eq!(back, resp);
    }

    #[test]
    fn every_torn_request_prefix_is_a_retryable_truncation(
        sources in arb_sources(),
        id in any::<u64>(),
        trace in any::<u64>(),
        cut in any::<usize>(),
    ) {
        let mut wire = Vec::new();
        write_request(&mut wire, &sources, id, trace).unwrap();
        let cut = cut % wire.len(); // strict prefix: 0..len
        let err = read_request(&mut Cursor::new(&wire[..cut])).unwrap_err();
        prop_assert!(
            err.contains("truncated"),
            "prefix {cut}/{} gave a non-retryable error: {err}",
            wire.len()
        );
    }

    #[test]
    fn every_torn_response_prefix_is_a_retryable_truncation(
        resp in arb_response(),
        cut in any::<usize>(),
    ) {
        let mut wire = Vec::new();
        write_response(&mut wire, &resp).unwrap();
        let cut = cut % wire.len();
        let err = read_response(&mut Cursor::new(&wire[..cut])).unwrap_err();
        prop_assert!(
            err.contains("truncated"),
            "prefix {cut}/{} gave a non-retryable error: {err}",
            wire.len()
        );
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_parsers(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = read_request(&mut Cursor::new(bytes.clone()));
        let _ = read_response(&mut Cursor::new(bytes));
    }
}

#[test]
fn torn_ping_prefixes_are_retryable_truncations() {
    let mut wire = Vec::new();
    write_ping(&mut wire, 0xdead_beef).unwrap();
    for cut in 0..wire.len() {
        let err = read_request(&mut Cursor::new(&wire[..cut])).unwrap_err();
        assert!(err.contains("truncated"), "prefix {cut}: {err}");
    }
}

#[test]
fn stats_requests_round_trip_every_format() {
    for format in [StatsFormat::Table, StatsFormat::Prom, StatsFormat::Json] {
        let mut wire = Vec::new();
        write_stats(&mut wire, format).unwrap();
        let back = read_request(&mut Cursor::new(wire.clone())).unwrap();
        assert_eq!(back, Request::Stats { format });
        for cut in 0..wire.len() {
            let err = read_request(&mut Cursor::new(&wire[..cut])).unwrap_err();
            assert!(err.contains("truncated"), "prefix {cut}: {err}");
        }
    }
}

// ----- pinned frames -------------------------------------------------------
//
// The round-trip properties above would still pass if a framing change
// were made the same way on both sides of the wire. These pin the exact
// bytes of one frame per op, so any change to the encoding shows here.

/// Encodes with `write` and checks the exact bytes.
fn assert_frame(write: impl FnOnce(&mut Vec<u8>) -> std::io::Result<()>, expected: &str) {
    let mut wire = Vec::new();
    write(&mut wire).unwrap();
    assert_eq!(String::from_utf8(wire).unwrap(), expected);
}

#[test]
fn compile_request_frame_bytes_are_pinned() {
    // A name with a space and a newline, and multi-byte UTF-8 text: the
    // length prefixes count bytes, and framing never scans the fields.
    let sources = vec![
        Source::new("a b\nc.c", "int main() { return 0; } /* é → ✓ */\n"),
        Source::new("lib.c", "int f() { return 1; }\n"),
    ];
    let expected = "impact-serve v4 compile 2 0123456789abcdef fedcba9876543210\n\
                    7 42\na b\nc.cint main() { return 0; } /* é → ✓ */\n\
                    5 22\nlib.cint f() { return 1; }\n";
    assert_frame(
        |w| write_request(w, &sources, 0x0123_4567_89ab_cdef, 0xfedc_ba98_7654_3210),
        expected,
    );
    let back = read_request(&mut Cursor::new(expected.as_bytes())).unwrap();
    assert_eq!(
        back,
        Request::Compile {
            sources,
            id: 0x0123_4567_89ab_cdef,
            trace: 0xfedc_ba98_7654_3210,
        }
    );
}

#[test]
fn ping_and_stats_frame_bytes_are_pinned() {
    assert_frame(
        |w| write_ping(w, 0xfeed_f00d),
        "impact-serve v4 ping 00000000feedf00d\n",
    );
    for (format, expected) in [
        (StatsFormat::Table, "impact-serve v4 stats table\n"),
        (StatsFormat::Prom, "impact-serve v4 stats prom\n"),
        (StatsFormat::Json, "impact-serve v4 stats json\n"),
    ] {
        assert_frame(|w| write_stats(w, format), expected);
    }
}

#[test]
fn response_frame_bytes_are_pinned() {
    let ok = Response {
        status: "ok".to_string(),
        exit: 0,
        cached: true,
        retry_after_ms: 0,
        payload: "; report\n".to_string(),
        spans: vec![impact_obs::SpanEvent {
            name: "serve:queue-wait".to_string(),
            start_us: 0,
            dur_us: 42,
            trace: 0xabc,
        }],
        counters: vec![("cache:hits".to_string(), 1)],
    };
    let error = Response {
        status: "error".to_string(),
        exit: 1,
        cached: false,
        retry_after_ms: 0,
        payload: "compile failed: x.c:1:1".to_string(),
        spans: Vec::new(),
        counters: Vec::new(),
    };
    let busy = Response {
        status: "busy".to_string(),
        exit: 0,
        cached: false,
        retry_after_ms: 200,
        payload: "request queue is full; retry later".to_string(),
        spans: Vec::new(),
        counters: Vec::new(),
    };
    for (resp, expected) in [
        (
            ok,
            "impact-serve v4 ok 0 1 0 9 60\n; report\n\
             s 0 42 0000000000000abc 16\nserve:queue-wait\
             c 1 10\ncache:hits",
        ),
        (
            error,
            "impact-serve v4 error 1 0 0 23 0\ncompile failed: x.c:1:1",
        ),
        (
            busy,
            "impact-serve v4 busy 0 0 200 34 0\nrequest queue is full; retry later",
        ),
    ] {
        assert_frame(|w| write_response(w, &resp), expected);
        let back = read_response(&mut Cursor::new(expected.as_bytes())).unwrap();
        assert_eq!(back, resp);
    }
}

/// A peer that streams bytes without a newline hits the line cap instead
/// of growing the reader's buffer for as long as it keeps sending. The
/// error is a protocol violation, so it must not read as a retryable
/// truncation.
#[test]
fn an_endless_header_line_hits_the_line_cap() {
    use std::io::Read;
    let mut endless = std::io::BufReader::new(std::io::repeat(b'a').take(64 << 20));
    let err = read_request(&mut endless).unwrap_err();
    assert!(err.contains("line cap"), "{err}");
    assert!(!err.contains("truncated"), "{err}");
}
