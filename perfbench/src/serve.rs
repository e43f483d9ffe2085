//! The serve path: a child `ftrace serve` process and closed-loop clients
//! that upload fixtures through `ft_serve::Client`, one session at a time
//! per client.

use crate::inputs::Fixture;
use crate::spans::{Tracer, ROOT};
use ft_serve::{Client, ServeReport};
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Bytes per DATA frame.
pub const UPLOAD_CHUNK: usize = 64 << 10;

/// A child `ftrace serve --addr 127.0.0.1:0` with default configuration.
pub struct Daemon {
    child: Child,
    pub addr: String,
    /// Kept open so the daemon's closing line never meets a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Spawns the daemon and waits for its "listening on" line.
    pub fn start(ftrace: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(ftrace)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", ftrace.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("daemon exited before listening".into());
                }
                Ok(_) => {
                    if let Some(addr) = line.trim().strip_prefix("ftrace serve: listening on ") {
                        let addr = addr.to_string();
                        return Ok(Daemon {
                            child,
                            addr,
                            _stdout: stdout,
                        });
                    }
                }
            }
        }
    }

    pub fn alive(&mut self) -> bool {
        matches!(self.child.try_wait(), Ok(None))
    }

    /// The daemon's current resident set (`VmRSS`), in MiB.
    pub fn rss_mib(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let kib: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmRSS:"))?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()?;
        Some(kib / 1024.0)
    }

    pub fn kill(&mut self) {
        let _ = self.child.kill();
    }

    /// Stops the daemon with the SHUTDOWN frame and waits for it to exit;
    /// kills it if it does not within five seconds. True when it shut
    /// down cleanly.
    pub fn stop(mut self) -> bool {
        let acked = Client::connect(&self.addr)
            .and_then(|mut c| c.shutdown())
            .is_ok();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return acked && status.success(),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return false, // Drop kills and reaps it.
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Client-side timing of one completed session.
pub struct Session {
    /// Connect plus OPEN → HELLO.
    pub open_ms: f64,
    /// Every DATA frame written.
    pub send_ms: f64,
    /// CLOSE → REPORT (`ServeReport::report_latency`).
    pub close_ms: f64,
    /// OPEN to REPORT received.
    pub total_ms: f64,
    /// When the report arrived.
    pub done: Instant,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Uploads `fixture` as one session.
fn session(
    addr: &str,
    tenant: &str,
    fixture: &Fixture,
    tracer: &mut Option<Tracer>,
    id: u64,
) -> Result<(Session, ServeReport), String> {
    let span = |t: &mut Option<Tracer>, name, parent| {
        t.as_mut().map_or(0, |t| t.begin(name, "serve", id, parent))
    };
    let end = |t: &mut Option<Tracer>, s| {
        if let Some(t) = t.as_mut() {
            t.end(s)
        }
    };
    let start = Instant::now();
    let root = span(tracer, "serve.session", ROOT);
    let s = span(tracer, "serve.open", root);
    let mut client = Client::connect(addr)?;
    client.open(tenant)?;
    end(tracer, s);
    let opened = Instant::now();
    let s = span(tracer, "serve.send", root);
    for piece in fixture.ftb.chunks(UPLOAD_CHUNK) {
        client.send_chunk(piece)?;
    }
    end(tracer, s);
    let sent = Instant::now();
    let s = span(tracer, "serve.close", root);
    let report = client.close_session()?;
    end(tracer, s);
    end(tracer, root);
    let done = Instant::now();
    Ok((
        Session {
            open_ms: ms(opened - start),
            send_ms: ms(sent - opened),
            close_ms: ms(report.report_latency),
            total_ms: ms(done - start),
            done,
        },
        report,
    ))
}

/// What one client saw.
pub struct ClientOut {
    pub sessions: Vec<Session>,
    pub attempted: u64,
    pub failures: Vec<String>,
    pub tracer: Option<Tracer>,
}

/// Runs `clients` closed-loop clients against `daemon`; client `c` uploads
/// the fixtures `c, c + clients, ...` in turn as tenant `tenant-c`. Each
/// client stops after `max_sessions` sessions, at its first failed upload,
/// or when a session would start after `deadline`. The calling thread acts as
/// a watchdog: it samples the daemon's resident set into `rss_mib`, and
/// kills the daemon when `kill_after` sessions have completed (the
/// self-test's dead daemon) or when the clients overrun the deadline by
/// `grace`.
#[allow(clippy::too_many_arguments)]
pub fn run_clients(
    daemon: &mut Daemon,
    fixtures: &[Fixture],
    clients: usize,
    max_sessions: usize,
    deadline: Instant,
    grace: Duration,
    kill_after: Option<u64>,
    trace_epoch: Option<Instant>,
    rss_mib: &mut Vec<f64>,
) -> Vec<ClientOut> {
    let completed = AtomicU64::new(0);
    let finished = AtomicUsize::new(0);
    let addr = daemon.addr.clone();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (addr, completed, finished) = (&addr, &completed, &finished);
                scope.spawn(move || {
                    let mut out = ClientOut {
                        sessions: Vec::new(),
                        attempted: 0,
                        failures: Vec::new(),
                        tracer: trace_epoch.map(Tracer::new),
                    };
                    let mine: Vec<&Fixture> = fixtures.iter().skip(c).step_by(clients).collect();
                    let tenant = format!("tenant-{c}");
                    let mut next = 0usize;
                    while out.sessions.len() < max_sessions && Instant::now() < deadline {
                        let fixture = mine[next % mine.len()];
                        next += 1;
                        out.attempted += 1;
                        let id = (c as u64) << 32 | next as u64;
                        match session(addr, &tenant, fixture, &mut out.tracer, id) {
                            Ok((s, report)) => {
                                completed.fetch_add(1, Ordering::SeqCst);
                                out.failures.extend(check_report(fixture, &report));
                                out.sessions.push(s);
                            }
                            Err(e) => {
                                out.failures
                                    .push(format!("upload of {}: {e}", fixture.name));
                                break;
                            }
                        }
                    }
                    finished.fetch_add(1, Ordering::SeqCst);
                    out
                })
            })
            .collect();
        let mut killed = false;
        while finished.load(Ordering::SeqCst) < clients {
            let overdue = Instant::now() > deadline + grace;
            let kill_now = kill_after.is_some_and(|k| completed.load(Ordering::SeqCst) >= k);
            if !killed && (overdue || kill_now) {
                daemon.kill();
                killed = true;
            }
            rss_mib.extend(daemon.rss_mib());
            std::thread::sleep(Duration::from_millis(10));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    })
}

/// The served report must match the local single-tenant run exactly, with
/// nothing shed.
fn check_report(fixture: &Fixture, report: &ServeReport) -> Option<String> {
    let fail = |msg: String| Some(format!("serve on {}: {msg}", fixture.name));
    if !report
        .json
        .contains(&format!("\"warnings\":{}", fixture.oracle_json))
    {
        return fail("report warnings differ from the local run".into());
    }
    if report.dropped_events > 0 {
        return fail(format!("{} events dropped", report.dropped_events));
    }
    if report.events != fixture.events {
        return fail(format!(
            "{} events, expected {}",
            report.events, fixture.events
        ));
    }
    None
}

/// Scrapes the daemon's METRICS frame into `(name, value)` pairs.
pub fn scrape(addr: &str) -> Result<Vec<(String, f64)>, String> {
    let text = Client::connect(addr)?.metrics()?;
    Ok(text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect())
}
