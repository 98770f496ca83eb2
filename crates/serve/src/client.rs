//! A minimal blocking HTTP/1.1 client, just big enough to talk to this
//! crate's server: one request, read to EOF, parse the response.
//!
//! It exists so the black-box test suites, the load gate among them,
//! drive the server over **real sockets** without a client dependency.
//! [`send_raw`] additionally ships arbitrary bytes, which is what the
//! adversarial suite uses to probe the parser.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A parsed response.
#[derive(Debug)]
pub struct Response {
    /// The status code from the status line.
    pub status: u16,
    /// Header `(name, value)` pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// The response body.
    pub body: String,
}

impl Response {
    /// Case-insensitive header lookup (first match).
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

fn invalid(why: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, why.into())
}

/// Sends `bytes` verbatim and parses whatever comes back.
///
/// # Errors
///
/// Propagates socket errors; [`std::io::ErrorKind::InvalidData`] when
/// the peer's answer is not a parseable HTTP/1.1 response (including an
/// empty answer — a dropped connection).
pub fn send_raw(addr: SocketAddr, bytes: &[u8], timeout: Duration) -> std::io::Result<Response> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.write_all(bytes)?;
    stream.flush()?;
    // The server replies then closes (`Connection: close`), so EOF
    // delimits the response.
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_response(&raw)
}

/// `GET path` with a 10-second timeout.
///
/// # Errors
///
/// As for [`send_raw`].
pub fn get(addr: SocketAddr, path: &str) -> std::io::Result<Response> {
    let request = format!("GET {path} HTTP/1.1\r\nHost: mcm\r\nConnection: close\r\n\r\n");
    send_raw(addr, request.as_bytes(), Duration::from_secs(10))
}

/// `POST /query` with a JSON body and a generous timeout (queries can
/// legitimately take a while under load).
///
/// # Errors
///
/// As for [`send_raw`].
pub fn post_query(addr: SocketAddr, body: &str) -> std::io::Result<Response> {
    let request = format!(
        "POST /query HTTP/1.1\r\nHost: mcm\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    send_raw(addr, request.as_bytes(), Duration::from_secs(120))
}

fn parse_response(raw: &[u8]) -> std::io::Result<Response> {
    if raw.is_empty() {
        return Err(invalid("peer closed the connection without a response"));
    }
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| invalid("response head never ended"))?;
    let head = std::str::from_utf8(&raw[..head_end]).map_err(|_| invalid("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let mut parts = status_line.splitn(3, ' ');
    let version = parts.next().unwrap_or_default();
    if !version.starts_with("HTTP/1.") {
        return Err(invalid(format!("unexpected status line `{status_line}`")));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid(format!("unparseable status in `{status_line}`")))?;
    let headers = lines
        .filter(|line| !line.is_empty())
        .map(|line| {
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| invalid(format!("malformed response header `{line}`")))?;
            Ok((name.to_string(), value.trim().to_string()))
        })
        .collect::<std::io::Result<Vec<_>>>()?;
    let body = String::from_utf8(raw[head_end + 4..].to_vec())
        .map_err(|_| invalid("non-UTF-8 body"))?;
    Ok(Response {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_complete_response() {
        let raw = b"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\n\
                    Content-Length: 2\r\n\r\nhi";
        let response = parse_response(raw).unwrap();
        assert_eq!(response.status, 503);
        assert_eq!(response.header("retry-after"), Some("1"));
        assert_eq!(response.body, "hi");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_response(b"").is_err());
        assert!(parse_response(b"nonsense\r\n\r\n").is_err());
        assert!(parse_response(b"HTTP/1.1 abc OK\r\n\r\n").is_err());
        assert!(parse_response(b"HTTP/1.1 200 OK\r\nno end").is_err());
    }
}
