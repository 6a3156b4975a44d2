//! Transport-level tests for the event-loop server: responses must be
//! **byte-identical** no matter how the network fragments the request or
//! how slowly the client drains the response, on both readiness drivers.
//!
//! Where `serve.rs` golden-matches decoded structs against direct engine
//! calls, this suite attacks the framing itself: 1-byte request segments,
//! a 1-byte client read window, pipelined keep-alive requests delivered in
//! a single segment, `Expect: 100-continue` interims, slowloris headers,
//! and silent idle closes.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use gf_json::ToJson;
use gf_server::{DriverKind, Server, ServerConfig, ServerHandle};
use greenfpga::api::{BatchEvalResponse, EvaluateResponse};
use greenfpga::{Domain, Estimator, OperatingPoint, ScenarioSpec};

fn spawn_with(config: ServerConfig) -> ServerHandle {
    Server::bind(config).expect("bind ephemeral server").spawn()
}

fn spawn_server() -> ServerHandle {
    spawn_with(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        ..ServerConfig::default()
    })
}

fn connect(handle: &ServerHandle) -> TcpStream {
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream
}

fn evaluate_request_bytes(keep_alive: bool) -> Vec<u8> {
    let body =
        r#"{"domain":"dnn","point":{"applications":5,"lifetime_years":2.0,"volume":1000000}}"#;
    let connection = if keep_alive {
        ""
    } else {
        "Connection: close\r\n"
    };
    format!(
        "POST /v1/evaluate HTTP/1.1\r\nHost: loopback\r\n{connection}Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Reads exactly one `Content-Length`-framed response and returns its raw
/// bytes (status line through body). Reads through the provided closure so
/// tests can throttle the read window; `carry` holds bytes of any
/// *following* pipelined response a read happened to pull in, and must be
/// passed back in for the next call.
fn read_response_carry(
    carry: &mut Vec<u8>,
    mut read: impl FnMut(&mut [u8]) -> std::io::Result<usize>,
) -> Vec<u8> {
    let mut raw = std::mem::take(carry);
    let mut chunk = [0u8; 4096];
    let header_end = loop {
        if let Some(pos) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        let n = read(&mut chunk).expect("read response head");
        assert!(n > 0, "connection closed inside response head");
        raw.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&raw[..header_end]).expect("response head is ASCII");
    let content_length: usize = head
        .lines()
        .find_map(|line| {
            let (name, value) = line.split_once(':')?;
            name.trim()
                .eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().expect("Content-Length value"))
        })
        .expect("response carries Content-Length");
    while raw.len() < header_end + content_length {
        let n = read(&mut chunk).expect("read response body");
        assert!(n > 0, "connection closed inside response body");
        raw.extend_from_slice(&chunk[..n]);
    }
    *carry = raw.split_off(header_end + content_length);
    raw
}

/// [`read_response_carry`] for the single-response case: any trailing
/// bytes are a framing bug.
fn read_response(read: impl FnMut(&mut [u8]) -> std::io::Result<usize>) -> Vec<u8> {
    let mut carry = Vec::new();
    let raw = read_response_carry(&mut carry, read);
    assert!(carry.is_empty(), "stray bytes after a lone response");
    raw
}

fn body_of(raw: &[u8]) -> &[u8] {
    let pos = raw.windows(4).position(|w| w == b"\r\n\r\n").unwrap();
    &raw[pos + 4..]
}

/// The `x-request-id` value of a raw response — every non-interim response
/// must carry exactly one, 16 lowercase hex chars wide.
fn request_id_of(raw: &[u8]) -> String {
    const NEEDLE: &[u8] = b"x-request-id: ";
    let at = raw
        .windows(NEEDLE.len())
        .position(|w| w == NEEDLE)
        .expect("response carries x-request-id");
    let id = &raw[at + NEEDLE.len()..at + NEEDLE.len() + 16];
    assert!(
        id.iter()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(b)),
        "request id is 16 lowercase hex chars, got {:?}",
        String::from_utf8_lossy(id)
    );
    assert!(
        raw[at + 1..].windows(NEEDLE.len()).all(|w| w != NEEDLE),
        "exactly one x-request-id header"
    );
    String::from_utf8(id.to_vec()).unwrap()
}

/// A response with its request-id hex zeroed: the id is the one byte span
/// that legitimately differs between identical requests, so byte-identity
/// assertions compare the masked form (same length — the id is
/// fixed-width, so masking never moves the framing).
fn masked(raw: &[u8]) -> Vec<u8> {
    request_id_of(raw); // validates presence, width and uniqueness
    const NEEDLE: &[u8] = b"x-request-id: ";
    let at = raw.windows(NEEDLE.len()).position(|w| w == NEEDLE).unwrap();
    let mut out = raw.to_vec();
    for byte in &mut out[at + NEEDLE.len()..at + NEEDLE.len() + 16] {
        *byte = b'0';
    }
    out
}

fn status_of(raw: &[u8]) -> u16 {
    std::str::from_utf8(raw)
        .unwrap()
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap()
}

/// The reference response bytes for [`evaluate_request_bytes`], produced by
/// one clean single-segment round-trip against `handle`.
fn golden_response(handle: &ServerHandle) -> Vec<u8> {
    let mut stream = connect(handle);
    stream.write_all(&evaluate_request_bytes(true)).unwrap();
    read_response(|buf| stream.read(buf))
}

/// The direct-engine evaluation the served response must encode.
fn direct_evaluation() -> greenfpga::PlatformComparison {
    let scenario = ScenarioSpec::baseline(Domain::Dnn);
    Estimator::new(scenario.params())
        .compile(scenario.domain)
        .unwrap()
        .evaluate(OperatingPoint::paper_default())
        .unwrap()
}

/// Checks a raw response's body byte for byte against the encoding of
/// the direct engine call.
fn assert_matches_direct(raw: &[u8]) {
    assert_eq!(status_of(raw), 200);
    let comparison = direct_evaluation();
    let expected = EvaluateResponse { comparison }.to_json_string().unwrap();
    assert_eq!(std::str::from_utf8(body_of(raw)).unwrap(), expected);
}

#[test]
fn one_byte_request_segments_produce_identical_bytes() {
    let handle = spawn_server();
    let golden = golden_response(&handle);
    assert_matches_direct(&golden);

    let mut stream = connect(&handle);
    for &byte in &evaluate_request_bytes(true) {
        stream.write_all(&[byte]).unwrap();
        stream.flush().unwrap();
    }
    let raw = read_response(|buf| stream.read(buf));
    assert_eq!(
        masked(&raw),
        masked(&golden),
        "worst-case fragmentation changed the bytes"
    );
    assert_ne!(
        request_id_of(&raw),
        request_id_of(&golden),
        "distinct requests get distinct ids"
    );
    handle.shutdown();
}

#[test]
fn one_byte_client_read_window_produces_identical_bytes() {
    let handle = spawn_server();
    let golden = golden_response(&handle);

    let mut stream = connect(&handle);
    stream.write_all(&evaluate_request_bytes(true)).unwrap();
    // Drain the response one byte at a time: the server's writes must
    // resume across however many partial flushes the window forces.
    let raw = read_response(|buf| stream.read(&mut buf[..1]));
    assert_eq!(
        masked(&raw),
        masked(&golden),
        "a slow reader changed the bytes"
    );
    handle.shutdown();
}

#[test]
fn pipelined_requests_in_one_segment_answer_in_order() {
    let handle = spawn_server();
    let golden = golden_response(&handle);

    // Three identical evaluates pipelined into a single segment, plus an
    // offloaded batch wedged in the middle: responses must come back
    // complete, in request order, each byte-identical to the clean run.
    let batch_body =
        r#"{"domain":"dnn","points":[{"applications":5,"lifetime_years":2.0,"volume":1000000}]}"#;
    let batch = format!(
        "POST /v1/batch HTTP/1.1\r\nHost: loopback\r\nContent-Length: {}\r\n\r\n{batch_body}",
        batch_body.len()
    );
    let mut wire = Vec::new();
    wire.extend_from_slice(&evaluate_request_bytes(true));
    wire.extend_from_slice(batch.as_bytes());
    wire.extend_from_slice(&evaluate_request_bytes(true));
    let mut stream = connect(&handle);
    stream.write_all(&wire).unwrap();

    let mut carry = Vec::new();
    let first = read_response_carry(&mut carry, |buf| stream.read(buf));
    assert_eq!(masked(&first), masked(&golden), "pipelined response 1");
    let second = read_response_carry(&mut carry, |buf| stream.read(buf));
    assert_eq!(status_of(&second), 200, "offloaded batch in the middle");
    let comparisons = vec![direct_evaluation()];
    let expected = BatchEvalResponse { comparisons }.to_json_string().unwrap();
    assert_eq!(std::str::from_utf8(body_of(&second)).unwrap(), expected);
    let third = read_response_carry(&mut carry, |buf| stream.read(buf));
    assert_eq!(masked(&third), masked(&golden), "pipelined response 3");
    assert!(carry.is_empty(), "exactly three responses");
    // Pipelined requests on one connection still get distinct ids.
    let ids = [
        request_id_of(&first),
        request_id_of(&second),
        request_id_of(&third),
    ];
    assert_ne!(ids[0], ids[1]);
    assert_ne!(ids[1], ids[2]);
    assert_ne!(ids[0], ids[2]);
    handle.shutdown();
}

#[test]
fn expect_continue_interim_then_identical_response() {
    let handle = spawn_server();
    let golden = golden_response(&handle);

    let body =
        r#"{"domain":"dnn","point":{"applications":5,"lifetime_years":2.0,"volume":1000000}}"#;
    let head = format!(
        "POST /v1/evaluate HTTP/1.1\r\nHost: loopback\r\nExpect: 100-continue\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    let mut stream = connect(&handle);
    stream.write_all(head.as_bytes()).unwrap();
    // The interim must arrive before the body is sent.
    let mut interim = vec![0u8; b"HTTP/1.1 100 Continue\r\n\r\n".len()];
    stream.read_exact(&mut interim).unwrap();
    assert_eq!(interim, b"HTTP/1.1 100 Continue\r\n\r\n");
    stream.write_all(body.as_bytes()).unwrap();
    let raw = read_response(|buf| stream.read(buf));
    assert_eq!(
        masked(&raw),
        masked(&golden),
        "100-continue flow changed the final bytes"
    );
    handle.shutdown();
}

#[test]
fn slowloris_partial_header_gets_408_and_close() {
    let handle = spawn_with(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        header_timeout: Duration::from_millis(300),
        idle_timeout: Duration::from_secs(30), // idle must not fire first
        ..ServerConfig::default()
    });
    let mut stream = connect(&handle);
    // Trickle a partial request line, then stall: re-sending a byte before
    // the deadline must NOT reset it (it is armed once per request).
    stream.write_all(b"GET /health").unwrap();
    std::thread::sleep(Duration::from_millis(200));
    stream.write_all(b"z").unwrap();
    let raw = read_response(|buf| stream.read(buf));
    assert_eq!(status_of(&raw), 408, "stalled header times out");
    assert!(body_of(&raw).starts_with(b"{\"error\""));
    // After the 408 the server closes: EOF, not a hang.
    let mut rest = [0u8; 16];
    assert_eq!(stream.read(&mut rest).unwrap(), 0, "connection closed");
    handle.shutdown();
}

#[test]
fn idle_keep_alive_connection_closes_silently() {
    let handle = spawn_with(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        idle_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    });
    let mut stream = connect(&handle);
    // No request sent: the idle deadline closes the connection with no
    // bytes owed (a 408 would be wrong — nothing was asked).
    let mut chunk = [0u8; 16];
    assert_eq!(stream.read(&mut chunk).unwrap(), 0, "silent close");
    handle.shutdown();
}

#[test]
fn portable_driver_serves_identical_bytes() {
    let epoll_default = spawn_server();
    let golden = golden_response(&epoll_default);
    epoll_default.shutdown();

    let handle = spawn_with(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        driver: DriverKind::Portable,
        ..ServerConfig::default()
    });
    // Clean, fragmented, and slow-reader paths all hit the same bytes on
    // the speculative-sweep driver.
    assert_eq!(
        masked(&golden_response(&handle)),
        masked(&golden),
        "clean round-trip"
    );
    let mut stream = connect(&handle);
    for &byte in &evaluate_request_bytes(true) {
        stream.write_all(&[byte]).unwrap();
    }
    let raw = read_response(|buf| stream.read(&mut buf[..1]));
    assert_eq!(
        masked(&raw),
        masked(&golden),
        "fragmented + slow reader on portable"
    );
    assert_matches_direct(&raw);
    handle.shutdown();
}

/// A keep-alive connection holds at most a couple of timer-heap entries
/// however many requests it carries, offloaded ones included: their
/// dispatch clears the peer deadline, and re-arming afterwards must ride
/// the standing entry rather than push one entry per request.
#[test]
fn timer_heap_stays_bounded_across_offloaded_requests() {
    let handle = spawn_server();
    let mut stream = connect(&handle);
    let body =
        r#"{"domain":"dnn","points":[{"applications":5,"lifetime_years":2.0,"volume":1000000}]}"#;
    let request = format!(
        "POST /v1/batch HTTP/1.1\r\nHost: loopback\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    for _ in 0..200 {
        stream.write_all(request.as_bytes()).expect("write batch");
        let raw = read_response(|buf| stream.read(buf));
        assert!(raw.starts_with(b"HTTP/1.1 200"), "batch answered");
    }
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: loopback\r\n\r\n")
        .expect("write metrics request");
    let raw = read_response(|buf| stream.read(buf));
    let text = std::str::from_utf8(body_of(&raw)).expect("metrics text is UTF-8");
    let entries: f64 = text
        .lines()
        .find_map(|line| line.strip_prefix("gf_loop_timer_heap_entries "))
        .expect("timer-heap gauge exported")
        .trim()
        .parse()
        .expect("gauge value");
    assert!(
        entries <= 4.0,
        "{entries} timer-heap entries after 200 requests on one connection"
    );
    handle.shutdown();
}
