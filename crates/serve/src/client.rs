//! A blocking `ftb-serve/1` client: used by `ftrace client`, the
//! `serve_load` bench, the serve smoke in `scripts/check.sh`, and the
//! integration tests.

use crate::frame::{read_frame, write_frame, Frame};
use ft_trace::json::{parse, JsonValue};
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A parsed `REPORT` frame plus client-side timing.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// The raw `ftrace.serve.report/1` JSON document.
    pub json: String,
    /// Events the server analyzed.
    pub events: u64,
    /// Accesses the server shed under backpressure.
    pub dropped_events: u64,
    /// Number of race warnings in the report.
    pub warnings: u64,
    /// The server's precision string (`"full"` or a degradation summary).
    pub precision: String,
    /// Wall time from sending `CLOSE` to receiving the report.
    pub report_latency: Duration,
}

/// One open connection to a daemon.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

fn u64_field(doc: &JsonValue, key: &str) -> u64 {
    doc.get(key).and_then(|v| v.as_f64()).unwrap_or(0.0) as u64
}

impl Client {
    /// Connects to a daemon at `addr` (e.g. `127.0.0.1:7199`).
    pub fn connect(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
        // Frames are flushed whole; Nagle would only hold a frame's tail
        // back until the peer's delayed ACK (~40 ms).
        stream
            .set_nodelay(true)
            .map_err(|e| format!("setting TCP_NODELAY: {e}"))?;
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("cloning socket: {e}"))?,
        );
        Ok(Client {
            reader,
            writer: BufWriter::new(stream),
        })
    }

    fn send(&mut self, frame: &Frame) -> Result<(), String> {
        write_frame(&mut self.writer, frame).map_err(|e| format!("send: {e}"))?;
        self.writer.flush().map_err(|e| format!("send: {e}"))
    }

    fn recv(&mut self) -> Result<Frame, String> {
        match read_frame(&mut self.reader) {
            Ok(Some(Frame::Error(msg))) => Err(format!("server error: {msg}")),
            Ok(Some(f)) => Ok(f),
            Ok(None) => Err("server closed the connection".into()),
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    /// Opens an upload session; returns the server's hello JSON.
    pub fn open(&mut self, tenant: &str) -> Result<String, String> {
        self.open_with_mode(tenant, None)
    }

    /// Opens an upload session in an explicit detector mode
    /// (`"sampler"` or `"fasttrack"`); `None` uses the server default
    /// (FastTrack). Returns the server's hello JSON.
    pub fn open_with_mode(&mut self, tenant: &str, mode: Option<&str>) -> Result<String, String> {
        let payload = match mode {
            Some(m) => format!("{tenant} mode={m}"),
            None => tenant.to_string(),
        };
        self.send(&Frame::Open(payload))?;
        match self.recv()? {
            Frame::Hello(json) => Ok(json),
            other => Err(format!("expected HELLO, got {other:?}")),
        }
    }

    /// Streams one chunk of `.ftb` bytes.
    pub fn send_chunk(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.send(&Frame::Data(bytes.to_vec()))
    }

    /// Ends the upload and waits for the session report.
    pub fn close_session(&mut self) -> Result<ServeReport, String> {
        let start = Instant::now();
        self.send(&Frame::Close)?;
        let json = match self.recv()? {
            Frame::Report(json) => json,
            other => return Err(format!("expected REPORT, got {other:?}")),
        };
        let report_latency = start.elapsed();
        let doc = parse(&json).map_err(|e| format!("report is not valid JSON: {e}"))?;
        let warnings = doc
            .get("warnings")
            .and_then(|v| v.as_array())
            .map_or(0, |a| a.len() as u64);
        Ok(ServeReport {
            events: u64_field(&doc, "events"),
            dropped_events: u64_field(&doc, "dropped_events"),
            warnings,
            precision: doc
                .get("precision")
                .and_then(|v| v.as_str())
                .unwrap_or("")
                .to_string(),
            json,
            report_latency,
        })
    }

    /// Scrapes the server-wide Prometheus exposition.
    pub fn metrics(&mut self) -> Result<String, String> {
        self.send(&Frame::Metrics)?;
        match self.recv()? {
            Frame::MetricsText(text) => Ok(text),
            other => Err(format!("expected METRICS text, got {other:?}")),
        }
    }

    /// Asks the daemon to shut down; returns once it acknowledges.
    pub fn shutdown(&mut self) -> Result<(), String> {
        self.send(&Frame::Shutdown)?;
        match self.recv()? {
            Frame::Bye => Ok(()),
            other => Err(format!("expected BYE, got {other:?}")),
        }
    }
}

/// Uploads a whole in-memory `.ftb` image as one session, chunked at
/// `chunk` bytes, and returns the report.
pub fn upload(
    addr: &str,
    tenant: &str,
    ftb_bytes: &[u8],
    chunk: usize,
) -> Result<ServeReport, String> {
    upload_with_mode(addr, tenant, ftb_bytes, chunk, None)
}

/// [`upload`], with an explicit per-session detector mode (`"sampler"` or
/// `"fasttrack"`; `None` = server default).
pub fn upload_with_mode(
    addr: &str,
    tenant: &str,
    ftb_bytes: &[u8],
    chunk: usize,
    mode: Option<&str>,
) -> Result<ServeReport, String> {
    let mut client = Client::connect(addr)?;
    client.open_with_mode(tenant, mode)?;
    for piece in ftb_bytes.chunks(chunk.max(1)) {
        client.send_chunk(piece)?;
    }
    client.close_session()
}
