//! A minimal blocking HTTP/1.1 client over one keep-alive connection —
//! just enough to drive the service from tests, benches and examples
//! without external dependencies.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// One keep-alive connection to the server.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects (TCP no-delay, 30 s read timeout).
    ///
    /// # Errors
    ///
    /// Propagates connect errors.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: stream,
        })
    }

    /// Sends one request and reads the reply, reusing the connection.
    ///
    /// # Errors
    ///
    /// Returns an [`io::Error`] for transport failures or replies this
    /// minimal parser cannot frame.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<(u16, String)> {
        let (status, bytes) = self.request_with(method, path, &[], body)?;
        String::from_utf8(bytes)
            .map(|text| (status, text))
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 body"))
    }

    /// Sends one request with extra headers and reads the reply as raw
    /// bytes — the general form behind [`Client::request`] and
    /// [`Client::post_binary`].
    ///
    /// # Errors
    ///
    /// Same as [`Client::request`].
    pub fn request_with(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> io::Result<(u16, Vec<u8>)> {
        // One buffer, one write: head and body leave in a single syscall
        // (and, with TCP_NODELAY, usually a single segment).
        let mut head = format!("{method} {path} HTTP/1.1\r\nhost: abbd\r\n");
        for (name, value) in headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str(&format!("content-length: {}\r\n\r\n", body.len()));
        let mut frame = head.into_bytes();
        frame.extend_from_slice(body);
        self.writer.write_all(&frame)?;
        self.writer.flush()?;

        let mut status_line = String::new();
        if self.reader.read_line(&mut status_line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            self.reader.read_line(&mut line)?;
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().map_err(|_| {
                        io::Error::new(io::ErrorKind::InvalidData, "bad content-length")
                    })?;
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        Ok((status, body))
    }

    /// `GET path`.
    ///
    /// # Errors
    ///
    /// Same as [`Client::request`].
    pub fn get(&mut self, path: &str) -> io::Result<(u16, String)> {
        self.request("GET", path, b"")
    }

    /// `POST path` with a JSON body.
    ///
    /// # Errors
    ///
    /// Same as [`Client::request`].
    pub fn post(&mut self, path: &str, json: &str) -> io::Result<(u16, String)> {
        self.request("POST", path, json.as_bytes())
    }

    /// `DELETE path`.
    ///
    /// # Errors
    ///
    /// Same as [`Client::request`].
    pub fn delete(&mut self, path: &str) -> io::Result<(u16, String)> {
        self.request("DELETE", path, b"")
    }

    /// `POST path` with a compact-binary body (see [`crate::codec`]),
    /// asking for a binary reply too. The reply bytes are binary frames
    /// on success and JSON on error — check the status before decoding.
    ///
    /// # Errors
    ///
    /// Same as [`Client::request`].
    pub fn post_binary(&mut self, path: &str, frame: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        self.request_with(
            "POST",
            path,
            &[
                ("content-type", crate::codec::CONTENT_TYPE),
                ("accept", crate::codec::CONTENT_TYPE),
            ],
            frame,
        )
    }

    /// Writes raw bytes down the connection *without* HTTP framing — the
    /// fuzz harness uses this to feed the server junk — then tries to
    /// read whatever (possibly nothing) comes back.
    ///
    /// # Errors
    ///
    /// Propagates transport errors (the server dropping junk
    /// connections mid-read is expected and *not* an error here: reads
    /// report whatever arrived before the close).
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<Vec<u8>> {
        self.writer.write_all(bytes)?;
        self.writer.flush()?;
        let _ = self.writer.shutdown(std::net::Shutdown::Write);
        let mut reply = Vec::new();
        let _ = self.reader.read_to_end(&mut reply);
        Ok(reply)
    }
}
