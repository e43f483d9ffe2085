//! The daemon: TCP listener, per-connection protocol loop, graceful
//! shutdown.
//!
//! One OS thread per connection (uploads are long byte streams, so the
//! thread-per-connection model costs one mostly-blocked thread per tenant
//! and keeps every code path synchronous and lock-light), plus one
//! analysis thread per *open session*. The connection thread decodes each
//! `DATA` frame's `.ftb` bytes with [`FtbDecoder::decode_block`] into one
//! [`EventBlock`] and pushes it through the session's bounded [`Lane`];
//! the worker analyzes that block as it is. Decoding on the socket thread
//! is what lets the `DropOldest` policy shed *accesses* instead of
//! corrupting the byte stream mid-record.
//!
//! Shutdown is a control frame (`SHUTDOWN`), not a signal: the workspace
//! is dependency-free and pure-std Rust cannot install signal handlers, so
//! the daemon's graceful path is in-band. (An external SIGTERM still works
//! via the default disposition — the process dies, the kernel reaps the
//! socket — it is just not graceful.) The accept loop parks in
//! `TcpListener::accept`; the shutdown path sets a flag and then
//! self-connects to wake it.

use crate::frame::{read_frame, write_frame, Frame};
use crate::lane::Lane;
use crate::registry::Registry;
use crate::session::{SessionMode, Worker};
use ft_runtime::online::OverflowPolicy;
use ft_trace::{EventBlock, FtbDecoder, FTB_RECORD_BYTES};
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Daemon configuration (all fields have serviceable defaults).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; use port `0` to let the OS pick (tests do).
    pub addr: String,
    /// Global shadow-state budget in bytes, apportioned across live
    /// sessions. `0` = unbudgeted (no guards).
    pub mem_budget: usize,
    /// Per-session lane capacity in *events* (decoded events, not bytes).
    pub lane_cap: usize,
    /// What to do when a session's lane fills faster than its worker
    /// drains: block the socket (TCP backpressure) or shed old accesses.
    pub overflow: OverflowPolicy,
    /// Report every race on a variable instead of only the first.
    pub report_all: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7199".into(),
            mem_budget: 0,
            lane_cap: 1 << 16,
            overflow: OverflowPolicy::Block,
            report_all: false,
        }
    }
}

/// A running daemon; joinable via [`Daemon::join`].
pub struct Daemon {
    addr: SocketAddr,
    registry: Arc<Registry>,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Binds the listener and starts the accept loop.
    pub fn start(config: ServeConfig) -> std::io::Result<Daemon> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let registry = Arc::new(Registry::new(config.mem_budget));
        let shutdown = Arc::new(AtomicBool::new(false));
        let accept = {
            let registry = Arc::clone(&registry);
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name("ft-serve-accept".into())
                .spawn(move || accept_loop(listener, config, registry, shutdown))
                .expect("spawn accept loop")
        };
        Ok(Daemon {
            addr,
            registry,
            shutdown,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves port `0` binds).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared registry (metrics and live-session introspection).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Blocks until the accept loop exits (a `SHUTDOWN` frame arrived).
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }

    /// Requests shutdown from within the process (tests; the CLI's ^C
    /// path just lets the process die).
    pub fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr); // wake the accept loop
    }
}

fn accept_loop(
    listener: TcpListener,
    config: ServeConfig,
    registry: Arc<Registry>,
    shutdown: Arc<AtomicBool>,
) {
    for stream in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let config = config.clone();
        let registry = Arc::clone(&registry);
        let shutdown = Arc::clone(&shutdown);
        let addr = listener.local_addr().ok();
        // Connection threads are deliberately not joined at shutdown: a
        // handler parked in `read_frame` only wakes when its client sends
        // or disconnects, so joining here would hold shutdown hostage to
        // the slowest idle client. `Daemon::join` returning means "no new
        // sessions"; in-flight handlers finish on their own clock (the CLI
        // process exits right after, which is the non-graceful remainder).
        std::thread::Builder::new()
            .name("ft-serve-conn".into())
            .spawn(move || {
                let _ = handle_conn(stream, &config, &registry, &shutdown, addr);
            })
            .expect("spawn connection handler");
    }
}

/// Serves one connection until EOF, protocol error, or shutdown.
fn handle_conn(
    stream: TcpStream,
    config: &ServeConfig,
    registry: &Registry,
    shutdown: &AtomicBool,
    self_addr: Option<SocketAddr>,
) -> std::io::Result<()> {
    // Every frame is flushed whole, so Nagle can only delay a report frame
    // until the client's delayed ACK, never merge two.
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    // At most one open session per connection.
    let mut session: Option<(Worker, FtbDecoder)> = None;

    loop {
        let frame = match read_frame(&mut reader) {
            Ok(Some(f)) => f,
            Ok(None) => break, // clean EOF
            Err(e) => {
                send(&mut writer, &Frame::Error(format!("protocol: {e}")))?;
                break;
            }
        };
        match frame {
            Frame::Open(payload) => {
                if session.is_some() {
                    send(&mut writer, &Frame::Error("session already open".into()))?;
                    break;
                }
                // OPEN payload: `tenant [mode=sampler|fasttrack]` — the
                // tenant id optionally followed by per-session options.
                let (tenant, mode) = match parse_open(&payload) {
                    Ok(pair) => pair,
                    Err(e) => {
                        send(&mut writer, &Frame::Error(e))?;
                        break;
                    }
                };
                let ticket = registry.open(tenant);
                let lane = Arc::new(Lane::new(config.lane_cap, config.overflow));
                let hello = hello_json(&ticket.tenant, ticket.id, mode, registry);
                session = Some((
                    Worker::spawn(ticket, lane, config.report_all, mode),
                    FtbDecoder::new(),
                ));
                send(&mut writer, &Frame::Hello(hello))?;
            }
            Frame::Data(bytes) => {
                if session.is_none() {
                    send(&mut writer, &Frame::Error("DATA before OPEN".into()))?;
                    break;
                }
                registry.add_bytes(bytes.len() as u64);
                let decode_err = {
                    let (worker, decoder) = session.as_mut().expect("checked above");
                    decoder.push(&bytes);
                    let mut block = EventBlock::with_capacity(bytes.len() / FTB_RECORD_BYTES);
                    let decoded = decoder.decode_block(&mut block);
                    // Ship what decoded cleanly even on error: the worker
                    // exits via lane close either way.
                    worker.lane().push(block);
                    decoded.err()
                };
                if let Some(e) = decode_err {
                    send(&mut writer, &Frame::Error(format!("ftb decode: {e}")))?;
                    let (worker, _) = session.take().expect("checked above");
                    let id = worker.ticket().id;
                    worker.abandon();
                    registry.abort(id);
                    break;
                }
            }
            Frame::Close => {
                let Some((worker, decoder)) = session.take() else {
                    send(&mut writer, &Frame::Error("CLOSE before OPEN".into()))?;
                    break;
                };
                if let Err(e) = decoder.finish() {
                    let id = worker.ticket().id;
                    worker.abandon();
                    registry.abort(id);
                    send(&mut writer, &Frame::Error(format!("ftb incomplete: {e}")))?;
                    break;
                }
                let id = worker.ticket().id;
                let outcome = worker.finish();
                let report = outcome.report_json.clone();
                registry.close(id, &outcome);
                send(&mut writer, &Frame::Report(report))?;
            }
            Frame::Metrics => {
                send(&mut writer, &Frame::MetricsText(registry.prometheus()))?;
            }
            Frame::Shutdown => {
                send(&mut writer, &Frame::Bye)?;
                shutdown.store(true, Ordering::SeqCst);
                if let Some(addr) = self_addr {
                    let _ = TcpStream::connect(addr); // wake the accept loop
                }
                break;
            }
            Frame::Hello(_)
            | Frame::Report(_)
            | Frame::MetricsText(_)
            | Frame::Bye
            | Frame::Error(_) => {
                send(&mut writer, &Frame::Error("server-only frame type".into()))?;
                break;
            }
        }
    }

    // The client vanished (or errored) with a session still open: tear it
    // down and return its budget share.
    if let Some((worker, _)) = session.take() {
        let id = worker.ticket().id;
        worker.abandon();
        registry.abort(id);
    }
    Ok(())
}

fn send<W: Write>(w: &mut W, frame: &Frame) -> std::io::Result<()> {
    write_frame(w, frame)?;
    w.flush()
}

/// Splits the OPEN payload into the tenant id and per-session options.
/// Today the only option is `mode=`; unknown options are a protocol error
/// so typos fail loudly instead of silently running the wrong tier.
fn parse_open(payload: &str) -> Result<(&str, SessionMode), String> {
    let mut parts = payload.split_whitespace();
    let tenant = parts.next().unwrap_or("");
    if tenant.is_empty() {
        return Err("OPEN payload is missing a tenant id".into());
    }
    let mut mode = SessionMode::default();
    for token in parts {
        match token.split_once('=') {
            Some(("mode", value)) => mode = SessionMode::parse(value)?,
            _ => return Err(format!("unknown OPEN option {token:?}")),
        }
    }
    Ok((tenant, mode))
}

fn hello_json(tenant: &str, id: u64, mode: SessionMode, registry: &Registry) -> String {
    let mut w = ft_obs::JsonWriter::new();
    w.begin_object();
    w.field_str("schema", "ftrace.serve.hello/1");
    w.field_u64("session", id);
    w.field_str("tenant", tenant);
    w.field_str("mode", mode.tool_label());
    w.field_u64("budget_share_bytes", registry.current_share() as u64);
    w.field_u64("sessions_live", registry.live_sessions() as u64);
    w.end_object();
    w.finish()
}
