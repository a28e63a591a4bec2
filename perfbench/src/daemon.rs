//! The daemon under test: the real `halk serve --snapshot` binary as a
//! child process, booted with default flags apart from its addresses.

use halk_serve::{Client, Response};
use std::fs::File;
use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

pub struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    pub addr: String,
    pub obs_addr: Option<String>,
    /// Spawn → first PONG, seconds.
    pub boot_s: f64,
}

impl Daemon {
    /// Spawns `halk serve` on an OS-chosen port and waits for its first
    /// PONG. It runs with its defaults: `HALK_THREADS` is cleared, and
    /// `trace` sets `HALK_TRACE`; `obs` adds `--obs-addr` so
    /// `/metrics.json` can be scraped. The daemon's working directory and
    /// log go to `workdir`.
    pub fn spawn(
        halk: &Path,
        snap: &Path,
        workdir: &Path,
        trace: Option<&Path>,
        obs: bool,
    ) -> Result<Daemon, String> {
        let log = File::create(workdir.join("daemon.log")).map_err(|e| e.to_string())?;
        let mut cmd = Command::new(halk);
        cmd.arg("serve")
            .arg("--snapshot")
            .arg(snap)
            .args(["--addr", "127.0.0.1:0"])
            .current_dir(workdir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log))
            .env_remove("HALK_TRACE")
            .env_remove("HALK_THREADS");
        if obs {
            cmd.args(["--obs-addr", "127.0.0.1:0"]);
        }
        if let Some(t) = trace {
            cmd.env("HALK_TRACE", t);
        }
        let t0 = Instant::now();
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", halk.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut read_addr = |prefix: &str| -> Result<String, String> {
            let mut line = String::new();
            loop {
                line.clear();
                match stdout.read_line(&mut line) {
                    Ok(0) | Err(_) => return Err(format!("daemon exited before '{prefix}'")),
                    Ok(_) => {
                        if let Some(a) = line.trim().strip_prefix(prefix) {
                            return Ok(a.trim().to_string());
                        }
                    }
                }
            }
        };
        let addr = match read_addr("listening on") {
            Ok(a) => a,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        let obs_addr = if obs {
            Some(read_addr("metrics on")?)
        } else {
            None
        };
        let mut daemon = Daemon {
            child,
            stdout,
            addr,
            obs_addr,
            boot_s: 0.0,
        };
        let mut client = Client::connect(&daemon.addr).map_err(|e| format!("connect: {e}"))?;
        match client.ping() {
            Ok(Response::Pong) => {}
            other => return Err(format!("bad PING reply: {other:?}")),
        }
        daemon.boot_s = t0.elapsed().as_secs_f64();
        Ok(daemon)
    }

    /// The daemon's STATS counters.
    pub fn stats(&self) -> Result<Vec<(String, u64)>, String> {
        let mut c = Client::connect(&self.addr).map_err(|e| e.to_string())?;
        match c.stats() {
            Ok(Response::Stats { pairs }) => Ok(pairs),
            other => Err(format!("bad STATS reply: {other:?}")),
        }
    }

    /// Peak resident set (VmHWM) of the daemon process, MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// CPU time the daemon has used so far, seconds.
    pub fn cpu_s(&self) -> Result<f64, String> {
        cpu_s(&format!("/proc/{}/stat", self.child.id()))
    }

    /// Body of `GET path` on the telemetry endpoint.
    pub fn http_get(&self, path: &str) -> Result<String, String> {
        use std::io::Write;
        let addr = self.obs_addr.as_ref().ok_or("daemon has no --obs-addr")?;
        let mut s = std::net::TcpStream::connect(addr).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(Duration::from_secs(5)))
            .map_err(|e| e.to_string())?;
        write!(s, "GET {path} HTTP/1.0\r\n\r\n").map_err(|e| e.to_string())?;
        let mut text = String::new();
        s.read_to_string(&mut text).map_err(|e| e.to_string())?;
        text.split_once("\r\n\r\n")
            .map(|(_, body)| body.to_string())
            .ok_or_else(|| "malformed HTTP reply".to_string())
    }

    /// Asks the daemon to drain and exit, and waits for it.
    pub fn shutdown(mut self) -> Result<(), String> {
        if let Ok(mut c) = Client::connect(&self.addr) {
            let _ = c.shutdown();
        }
        // Drain stdout so the daemon's last lines never hit a closed pipe.
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("daemon did not exit after SHUTDOWN".to_string());
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // After `shutdown` the child is reaped and these are no-ops.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// VmHWM from a `/proc/<pid>/status` file, MiB.
pub fn peak_rss_mb(status_path: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(status_path).map_err(|e| e.to_string())?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in {status_path}"))
}

/// Ticks per second of the CPU times in `/proc/<pid>/stat` (`USER_HZ`,
/// 100 on every Linux architecture this runs on).
const CLOCK_TICKS: f64 = 100.0;

/// User plus system CPU time of a process — all its threads, exited ones
/// too — from a `/proc/<pid>/stat` file, seconds. The kernel leaves out
/// time a virtual CPU was stolen by the host, so this moves with the
/// work done, not with how busy the host was.
pub fn cpu_s(stat_path: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(stat_path).map_err(|e| e.to_string())?;
    // Fields after the parenthesised command name start at field 3.
    let fields: Vec<&str> = text
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().collect())
        .unwrap_or_default();
    let tick = |i: usize| fields.get(i - 3).and_then(|v| v.parse::<f64>().ok());
    match (tick(14), tick(15)) {
        (Some(utime), Some(stime)) => Ok((utime + stime) / CLOCK_TICKS),
        _ => Err(format!("no utime/stime in {stat_path}")),
    }
}
