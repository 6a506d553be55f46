//! The benchmark's own HTTP/1.1 client.
//!
//! It keeps a connection open unless the response says
//! `Connection: close`, so a server that starts keeping connections
//! alive shows up in `serve.connects_per_request` and in serve-hot's
//! latency without any change here.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A response as received.
pub struct Response {
    pub status: u16,
    pub degraded: bool,
    pub body: Vec<u8>,
    /// Head plus body bytes read off the socket.
    pub bytes: usize,
}

pub struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
    /// TCP connections opened so far.
    pub connects: u64,
}

fn bad(detail: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, detail)
}

impl Client {
    pub fn new(addr: SocketAddr) -> Self {
        Client {
            addr,
            conn: None,
            connects: 0,
        }
    }

    /// POST `body` to `target` (path and query) and read the response.
    pub fn post(&mut self, target: &str, body: &[u8]) -> io::Result<Response> {
        let mut req = format!(
            "POST {target} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\n\r\n",
            self.addr,
            body.len()
        )
        .into_bytes();
        req.extend_from_slice(body);
        let reused = self.conn.is_some();
        match self.exchange(&req) {
            // A kept-alive connection the server has since closed fails
            // on first use; the request is idempotent, so retry once on
            // a fresh connection.
            Err(_) if reused => {
                self.conn = None;
                self.exchange(&req)
            }
            other => other,
        }
    }

    fn exchange(&mut self, req: &[u8]) -> io::Result<Response> {
        if self.conn.is_none() {
            let timeout = Duration::from_secs(30);
            let stream = TcpStream::connect_timeout(&self.addr, timeout)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(timeout))?;
            stream.set_write_timeout(Some(timeout))?;
            self.connects += 1;
            self.conn = Some(BufReader::new(stream));
        }
        let conn = self.conn.as_mut().expect("connection opened above");
        conn.get_mut().write_all(req)?;

        let mut line = String::new();
        let mut bytes = conn.read_line(&mut line)?;
        if bytes == 0 {
            return Err(bad("connection closed before a response".into()));
        }
        let status: u16 = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(format!("bad status line {line:?}")))?;
        let (mut length, mut close, mut degraded) = (None, false, false);
        loop {
            line.clear();
            let n = conn.read_line(&mut line)?;
            bytes += n;
            let header = line.trim_end();
            if n == 0 || header.is_empty() {
                break;
            }
            let Some((name, value)) = header.split_once(':') else {
                return Err(bad(format!("bad header line {header:?}")));
            };
            let value = value.trim();
            match name.trim().to_ascii_lowercase().as_str() {
                "content-length" => length = value.parse::<usize>().ok(),
                "connection" => close = value.eq_ignore_ascii_case("close"),
                "x-asched-degraded" => degraded = true,
                _ => {}
            }
        }
        let length = length.ok_or_else(|| bad("response without Content-Length".into()))?;
        let mut body = vec![0; length];
        conn.read_exact(&mut body)?;
        if close {
            self.conn = None;
        }
        Ok(Response {
            status,
            degraded,
            bytes: bytes + length,
            body,
        })
    }
}
