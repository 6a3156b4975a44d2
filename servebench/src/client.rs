//! The wire side: expected responses, closed-loop keep-alive connections,
//! and the child `greenfpga-serve` process with its `/proc` counters.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

/// The response header whose value differs between identical requests.
const REQUEST_ID_HEADER: &[u8] = b"x-request-id: ";
/// The request id is printed as fixed-width hex, so framing never moves.
const REQUEST_ID_HEX: usize = 16;
/// A read or write stalled this long counts as a timed-out request.
const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// `/proc/<pid>/stat` reports CPU time in clock ticks of 1/100 s (Linux
/// `USER_HZ`, fixed at 100 for user space).
const TICKS_PER_SECOND: u64 = 100;

/// The exact response a request must get: head and body, with the
/// request id zeroed.
pub struct Expected {
    bytes: Vec<u8>,
    head_len: usize,
    id_at: usize,
    chunked: bool,
}

impl Expected {
    /// The `200` response carrying `body`, framed by `Content-Length`, or
    /// by chunked transfer-encoding for a streamed grid (whose de-chunked
    /// body must equal `body`).
    pub fn new(body: Vec<u8>, chunked: bool) -> Expected {
        let framing = if chunked {
            "Transfer-Encoding: chunked".to_string()
        } else {
            format!("Content-Length: {}", body.len())
        };
        let head = format!(
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n{framing}\r\nConnection: keep-alive\r\nx-request-id: {}\r\n\r\n",
            "0".repeat(REQUEST_ID_HEX)
        );
        let id_at = find(head.as_bytes(), REQUEST_ID_HEADER).expect("the head names the id")
            + REQUEST_ID_HEADER.len();
        let head_len = head.len();
        let mut bytes = head.into_bytes();
        bytes.extend_from_slice(&body);
        Expected {
            bytes,
            head_len,
            id_at,
            chunked,
        }
    }

    /// Head followed by the (de-chunked) body.
    #[cfg(test)]
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Whether the response is framed by chunked transfer-encoding.
    pub fn is_chunked(&self) -> bool {
        self.chunked
    }

    /// The response body.
    pub fn body(&self) -> &[u8] {
        &self.bytes[self.head_len..]
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Whether `got` equals `expected` everywhere except the request id at
/// `id_at`, whose 16 bytes must still be hex digits.
pub fn masked_eq(got: &[u8], expected: &[u8], id_at: usize) -> bool {
    let id_to = id_at + REQUEST_ID_HEX;
    got.len() == expected.len()
        && expected.len() >= id_to
        && got[..id_at] == expected[..id_at]
        && got[id_at..id_to].iter().all(u8::is_ascii_hexdigit)
        && got[id_to..] == expected[id_to..]
}

/// Parses a complete chunked response in `raw` into `body`, returning the
/// head length; `Ok(None)` while the terminating chunk has not arrived.
pub fn dechunk(raw: &[u8], body: &mut Vec<u8>) -> io::Result<Option<usize>> {
    let malformed = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let Some(head_len) = find(raw, b"\r\n\r\n").map(|at| at + 4) else {
        return Ok(None);
    };
    body.clear();
    let mut at = head_len;
    loop {
        let Some(line_len) = find(&raw[at..], b"\r\n") else {
            return Ok(None);
        };
        let size = std::str::from_utf8(&raw[at..at + line_len])
            .ok()
            .and_then(|hex| usize::from_str_radix(hex, 16).ok())
            .ok_or_else(|| malformed("bad chunk size line"))?;
        at += line_len + 2;
        if raw.len() < at + size + 2 {
            return Ok(None);
        }
        if &raw[at + size..at + size + 2] != b"\r\n" {
            return Err(malformed("chunk not followed by CRLF"));
        }
        if size == 0 {
            return if at + 2 == raw.len() {
                Ok(Some(head_len))
            } else {
                Err(malformed("bytes after the last chunk"))
            };
        }
        body.extend_from_slice(&raw[at..at + size]);
        at += size + 2;
    }
}

/// One keep-alive client connection, strictly one request in flight.
pub struct Connection {
    stream: TcpStream,
    raw: Vec<u8>,
    body: Vec<u8>,
    head_len: usize,
}

impl Connection {
    /// Connects with Nagle off and bounded reads and writes.
    pub fn open(addr: SocketAddr) -> io::Result<Connection> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Connection {
            stream,
            raw: Vec::new(),
            body: Vec::new(),
            head_len: 0,
        })
    }

    /// Writes one request and reads its whole response: `expected`'s
    /// length for a `Content-Length` response, up to the last chunk for a
    /// chunked one. Check the bytes with [`Connection::matches`].
    pub fn exchange(&mut self, wire: &[u8], expected: &Expected) -> io::Result<()> {
        self.stream.write_all(wire)?;
        self.raw.clear();
        if !expected.chunked {
            self.raw.resize(expected.bytes.len(), 0);
            return self.stream.read_exact(&mut self.raw);
        }
        let mut chunk = [0u8; 64 << 10];
        loop {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.raw.extend_from_slice(&chunk[..n]);
            if self.raw.ends_with(b"0\r\n\r\n") {
                if let Some(head_len) = dechunk(&self.raw, &mut self.body)? {
                    self.head_len = head_len;
                    return Ok(());
                }
            }
        }
    }

    /// Whether the last exchanged response equals `expected`, request id
    /// masked.
    pub fn matches(&self, expected: &Expected) -> bool {
        if expected.chunked {
            masked_eq(
                &self.raw[..self.head_len],
                &expected.bytes[..expected.head_len],
                expected.id_at,
            ) && self.body == expected.body()
        } else {
            masked_eq(&self.raw, &expected.bytes, expected.id_at)
        }
    }

    /// `GET path`, returning the body of a `200` response.
    pub fn get(&mut self, path: &str) -> io::Result<Vec<u8>> {
        let request = format!("GET {path} HTTP/1.1\r\nHost: loopback\r\n\r\n");
        self.stream.write_all(request.as_bytes())?;
        self.raw.clear();
        let mut chunk = [0u8; 16 << 10];
        let head_len = loop {
            if let Some(at) = find(&self.raw, b"\r\n\r\n") {
                break at + 4;
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.raw.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&self.raw[..head_len]).into_owned();
        if !head.starts_with("HTTP/1.1 200 ") {
            return Err(io::Error::other(format!(
                "GET {path}: {}",
                head.lines().next().unwrap_or("")
            )));
        }
        let length: usize = head
            .lines()
            .find_map(|line| {
                let (name, value) = line.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())?
            })
            .ok_or_else(|| io::Error::other(format!("GET {path}: no Content-Length")))?;
        while self.raw.len() < head_len + length {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.raw.extend_from_slice(&chunk[..n]);
        }
        Ok(self.raw[head_len..head_len + length].to_vec())
    }
}

/// A running `greenfpga-serve` child, killed and reaped on drop.
pub struct ServerProcess {
    child: Child,
    /// Kept open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// The bound loopback address.
    pub addr: SocketAddr,
    /// The server's start-up line.
    pub banner: String,
}

impl ServerProcess {
    /// Starts `binary` with default flags on an ephemeral loopback port
    /// and waits for its start-up line, which follows the bind.
    pub fn spawn(binary: &Path) -> io::Result<ServerProcess> {
        let mut child = Command::new(binary)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| io::Error::other(format!("spawn {}: {e}", binary.display())))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut server = ServerProcess {
            child,
            _stdout: BufReader::new(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            banner: String::new(),
        };
        server._stdout.read_line(&mut server.banner)?;
        server.banner = server.banner.trim().to_string();
        server.addr = server
            .banner
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|addr| addr.parse().ok())
            .ok_or_else(|| {
                io::Error::other(format!("unexpected start-up line '{}'", server.banner))
            })?;
        Ok(server)
    }

    /// The driver named in the start-up line (`auto` resolves to epoll on
    /// Linux unless `GF_SERVE_DRIVER` says otherwise).
    pub fn driver(&self) -> &str {
        self.banner
            .rsplit(", ")
            .next()
            .and_then(|tail| tail.strip_suffix(" driver)"))
            .unwrap_or("unknown")
    }

    /// User plus system CPU time the server has used, in microseconds.
    pub fn cpu_us(&self) -> io::Result<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id()))?;
        // Fields after the parenthesized command name: state is field 3,
        // utime field 14, stime field 15.
        let fields: Vec<&str> = stat
            .rsplit_once(')')
            .map(|(_, rest)| rest.split_whitespace().collect())
            .unwrap_or_default();
        let ticks = |index: usize| -> io::Result<u64> {
            fields
                .get(index)
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| io::Error::other("malformed /proc stat"))
        };
        let total = ticks(14 - 3)? + ticks(15 - 3)?;
        Ok(total as f64 * 1e6 / TICKS_PER_SECOND as f64)
    }

    /// Peak resident set size (`VmHWM`), in MiB.
    pub fn rss_peak_mib(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|value| {
                value
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_covers_exactly_the_request_id() {
        let expected = Expected::new(b"{\"ok\":1}".to_vec(), false);
        let id_at = expected.id_at;
        let mut got = expected.bytes().to_vec();
        got[id_at..id_at + 16].copy_from_slice(b"00f3a9c2e1b4d5a6");
        assert!(masked_eq(&got, expected.bytes(), id_at));
        // A non-hex id is not a request id.
        got[id_at] = b'x';
        assert!(!masked_eq(&got, expected.bytes(), id_at));
        got[id_at] = b'0';
        // Any byte outside the id must match: header, framing or body.
        for at in [0, id_at - 1, id_at + 16, got.len() - 2] {
            let mut bad = got.clone();
            bad[at] ^= 1;
            assert!(!masked_eq(&bad, expected.bytes(), id_at), "byte {at}");
        }
        assert!(!masked_eq(&got[..got.len() - 1], expected.bytes(), id_at));
    }

    #[test]
    fn dechunk_reassembles_the_body() {
        let head = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n";
        let mut raw = head.to_vec();
        raw.extend_from_slice(b"4\r\n{\"a\"\r\n9\r\n:[1,2,3]}\r\n0\r\n\r\n");
        let mut body = Vec::new();
        assert_eq!(dechunk(&raw, &mut body).unwrap(), Some(head.len()));
        assert_eq!(body, b"{\"a\":[1,2,3]}");
        // Cut short anywhere, the response is incomplete, not malformed.
        for cut in head.len()..raw.len() {
            assert_eq!(dechunk(&raw[..cut], &mut body).unwrap(), None, "cut {cut}");
        }
        raw.push(b'x');
        assert!(dechunk(&raw, &mut body).is_err());
    }
}
