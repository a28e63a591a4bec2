//! The telemetry scrape endpoint: a dependency-free HTTP/1.0 server on a
//! dedicated thread, enabled by `halk serve --obs-addr HOST:PORT`.
//!
//! Three read-only routes, all answerable while the query plane is
//! saturated (this thread never touches the request queue beyond reading
//! its depth):
//!
//! * `GET /metrics` — Prometheus exposition text: the cumulative registry
//!   ([`halk_obs::metrics::snapshot_prometheus`]) concatenated with the
//!   windowed one (`*_window_*` series, last ~60 s).
//! * `GET /metrics.json` — one JSON object with `cumulative`, `window`
//!   and `health` sub-objects; this is what `halk top` polls.
//! * `GET /healthz` — liveness plus capacity facts: queue depth/cap,
//!   session count, drain state, shard count, resident table bytes.
//!
//! The framing is deliberately minimal — request line parsed, headers
//! ignored, `Connection: close` on every response — because the clients
//! are scrapers and `halk top`, not browsers. Malformed requests get a
//! 400, unknown paths a 404; neither can wedge the thread (read timeout,
//! bounded request buffer).

use crate::server::Shared;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Most bytes of request head we will buffer before answering anyway.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// Binds the scrape listener and spawns its serving thread. The thread
/// exits when the daemon's shutdown flag rises (checked every accept
/// tick), so [`crate::server::Server::join`] can join it in bounded time.
pub(crate) fn spawn(addr: &str, shared: Arc<Shared>) -> io::Result<(SocketAddr, JoinHandle<()>)> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;
    let handle = std::thread::Builder::new()
        .name("halk-serve-obs".to_string())
        .spawn(move || serve_loop(&listener, &shared))
        .expect("spawn obs thread");
    Ok((local, handle))
}

fn serve_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        // Rotate due window slots even when nobody is scraping, so rates
        // decay in real time rather than on the next request.
        halk_obs::window::tick(halk_obs::trace::now_us());
        match listener.accept() {
            Ok((stream, _)) => handle_conn(stream, shared),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(100));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(100)),
        }
    }
}

fn handle_conn(mut stream: TcpStream, shared: &Arc<Shared>) {
    // Accepted sockets can inherit the listener's nonblocking mode on
    // some platforms; force blocking-with-timeout semantics.
    if stream.set_nonblocking(false).is_err() {
        return;
    }
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let mut head = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                head.extend_from_slice(&chunk[..n]);
                let complete = head.windows(4).any(|w| w == b"\r\n\r\n")
                    || head.windows(2).any(|w| w == b"\n\n");
                if complete || head.len() > MAX_REQUEST_BYTES {
                    break;
                }
            }
            // Timeout or disconnect: answer with whatever arrived.
            Err(_) => break,
        }
    }
    let text = String::from_utf8_lossy(&head);
    let (status, reason, ctype, body) = match parse_path(&text) {
        Some(path) => match path.as_str() {
            "/metrics" => (200, "OK", "text/plain; version=0.0.4", render_prometheus()),
            "/metrics.json" => (200, "OK", "application/json", render_json(shared)),
            "/healthz" => (200, "OK", "application/json", render_healthz(shared)),
            _ => (404, "Not Found", "text/plain", "not found\n".to_string()),
        },
        None => (
            400,
            "Bad Request",
            "text/plain",
            "bad request\n".to_string(),
        ),
    };
    let header = format!(
        "HTTP/1.0 {status} {reason}\r\nContent-Type: {ctype}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(header.as_bytes());
    let _ = stream.write_all(body.as_bytes());
}

/// Extracts the path from an HTTP request head: `GET <path> ...` on the
/// first line. Query strings are stripped; non-GET methods are rejected.
fn parse_path(head: &str) -> Option<String> {
    let line = head.lines().next()?;
    let mut parts = line.split_ascii_whitespace();
    if parts.next()? != "GET" {
        return None;
    }
    let target = parts.next()?;
    let path = target.split('?').next().unwrap_or(target);
    Some(path.to_string())
}

fn render_prometheus() -> String {
    halk_obs::window::tick(halk_obs::trace::now_us());
    let mut out = halk_obs::metrics::snapshot_prometheus();
    out.push_str(&halk_obs::window::snapshot_prometheus());
    out
}

fn render_json(shared: &Arc<Shared>) -> String {
    halk_obs::window::tick(halk_obs::trace::now_us());
    format!(
        "{{\"cumulative\":{},\"window\":{},\"health\":{}}}",
        halk_obs::metrics::snapshot_json(),
        halk_obs::window::snapshot_json(),
        render_healthz(shared)
    )
}

fn render_healthz(shared: &Arc<Shared>) -> String {
    let e = &shared.engine;
    format!(
        "{{\"ok\":true,\"draining\":{},\"queue_depth\":{},\"queue_cap\":{},\
         \"sessions\":{},\"max_sessions\":{},\"workers\":{},\"has_model\":{},\
         \"shards\":{},\"batch_cap\":{},\
         \"trig_resident_bytes\":{}}}",
        shared.shutdown.load(Ordering::SeqCst),
        shared.queue_len(),
        shared.cfg.queue_cap,
        shared.sessions.load(Ordering::SeqCst),
        shared.cfg.max_sessions,
        shared.cfg.workers,
        e.has_model(),
        e.n_shards(),
        e.max_batch(),
        e.trig_resident_bytes(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_path_handles_the_usual_shapes() {
        assert_eq!(
            parse_path("GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").as_deref(),
            Some("/metrics")
        );
        assert_eq!(
            parse_path("GET /metrics.json?pretty=1 HTTP/1.0\r\n\r\n").as_deref(),
            Some("/metrics.json")
        );
        assert_eq!(parse_path("GET /healthz\n\n").as_deref(), Some("/healthz"));
        assert_eq!(parse_path("POST /metrics HTTP/1.1\r\n\r\n"), None);
        assert_eq!(parse_path(""), None);
        assert_eq!(parse_path("garbage"), None);
    }
}
