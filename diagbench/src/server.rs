//! `abbd-serve` as a child process: launch, readiness, warm-up, stats,
//! peak memory, and a stop that always reaps the process.

use crate::workload::{board_blocks, BOARD};
use abbd_server::{Client, OpenSessionReply, StatsReport};
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::Instant;

/// A running `abbd-serve`.
#[derive(Debug)]
pub struct ServerProcess {
    child: Child,
    /// The bound `host:port`.
    pub addr: String,
    stderr: Option<JoinHandle<()>>,
}

fn check(status: u16, want: u16, what: &str) -> Result<(), String> {
    if status == want {
        Ok(())
    } else {
        Err(format!("{what} answered {status}"))
    }
}

impl ServerProcess {
    /// Launches `binary` with `workers` workers, the built-in regulator
    /// and the board bundle at `bundle`, waits until it listens, and
    /// warms it up by opening (and closing) one session on every board
    /// block, which compiles each block's lazy sub-model. Returns the
    /// server and the seconds from launch to ready.
    ///
    /// # Errors
    ///
    /// Launch, readiness and warm-up failures, as text; the process is
    /// reaped before returning an error.
    pub fn launch(binary: &Path, bundle: &Path, workers: usize) -> Result<(Self, f64), String> {
        let start = Instant::now();
        let mut child = Command::new(binary)
            .args(["--addr", "127.0.0.1:0", "--workers", &workers.to_string()])
            .arg("--model")
            .arg(format!("{BOARD}={}", bundle.display()))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot launch {}: {e}", binary.display()))?;
        let mut lines = BufReader::new(child.stderr.take().expect("stderr is piped")).lines();
        let mut log = Vec::new();
        let addr = loop {
            match lines.next() {
                Some(Ok(line)) => {
                    let addr = line
                        .split_once(" on http://")
                        .and_then(|(_, rest)| rest.split_whitespace().next())
                        .map(str::to_string);
                    log.push(line);
                    if let Some(addr) = addr {
                        break addr;
                    }
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!(
                        "abbd-serve exited before listening: {}",
                        log.join(" | ")
                    ));
                }
            }
        };
        // Keep draining stderr so the server never blocks on a full pipe.
        let stderr = std::thread::spawn(move || {
            for line in lines.map_while(Result::ok) {
                if !line.starts_with("try:") {
                    eprintln!("abbd-serve: {line}");
                }
            }
        });
        let mut server = ServerProcess {
            child,
            addr,
            stderr: Some(stderr),
        };
        server.warm_up()?;
        Ok((server, start.elapsed().as_secs_f64()))
    }

    fn warm_up(&mut self) -> Result<(), String> {
        let mut client = Client::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        let (status, _) = client.get("/healthz").map_err(|e| e.to_string())?;
        check(status, 200, "healthz")?;
        for block in board_blocks() {
            let (status, body) = client
                .post(&format!("/v1/models/{BOARD}/{block}/sessions"), "{}")
                .map_err(|e| e.to_string())?;
            check(status, 201, "warm-up open")?;
            let open: OpenSessionReply =
                serde_json::from_str(&body).map_err(|e| format!("warm-up open: {e}"))?;
            let (status, _) = client
                .delete(&format!("/v1/sessions/{}", open.session_id))
                .map_err(|e| e.to_string())?;
            check(status, 200, "warm-up close")?;
        }
        Ok(())
    }

    /// `GET /v1/stats`.
    ///
    /// # Errors
    ///
    /// Transport and decode failures, as text.
    pub fn stats(&self) -> Result<StatsReport, String> {
        stats(&self.addr)
    }

    /// The server's peak resident set (`VmHWM`), MB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let kb: f64 = status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))?
            .split_whitespace()
            .next()?
            .parse()
            .ok()?;
        Some(kb / 1024.0)
    }

    fn reap(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(stderr) = self.stderr.take() {
            let _ = stderr.join();
        }
    }

    /// Kills the server and waits for it (and its stderr reader).
    pub fn stop(mut self) {
        self.reap();
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        self.reap();
    }
}

/// `GET /v1/stats` on `addr`.
///
/// # Errors
///
/// Transport and decode failures, as text.
pub fn stats(addr: &str) -> Result<StatsReport, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let (status, body) = client.get("/v1/stats").map_err(|e| e.to_string())?;
    check(status, 200, "stats")?;
    serde_json::from_str(&body).map_err(|e| format!("stats reply: {e}"))
}
