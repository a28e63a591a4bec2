//! The open-loop load generator: one thread per connection (the calling
//! thread drives the first), requests pipelined on each connection and
//! sent on a seeded Poisson schedule whether or not earlier replies came
//! back. Latency is timed from each request's due time, so a stall is
//! charged to every request it delays.

use crate::stats;
use halk_serve::protocol::{encode_frame, AskEngine, ErrorKind, FrameDecoder, Request, Response};
use halk_serve::MAX_FRAME;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::io::{ErrorKind as IoKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// `struct pollfd` of poll(2).
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

const POLLIN: i16 = 0x1;

/// Waits until `stream` has bytes to read or `timeout_ns` passed, with
/// the kernel's high-resolution timers. A socket read timeout would do
/// the same in safe code but rounds up to the scheduler tick (milliseconds),
/// which would make the generator send late.
fn wait_readable(stream: &TcpStream, timeout_ns: u64) -> std::io::Result<bool> {
    let mut pfd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: (timeout_ns / 1_000_000_000) as i64,
        tv_nsec: (timeout_ns % 1_000_000_000) as i64,
    };
    // SAFETY: `pfd` and `ts` are live, properly laid-out C structs for the
    // duration of the call; nfds is 1, matching the single `pfd`; a null
    // sigmask leaves the signal mask unchanged.
    let n = unsafe { ppoll(&mut pfd, 1, &ts, std::ptr::null()) };
    match n {
        n if n > 0 => Ok(true),
        0 => Ok(false),
        _ => {
            let e = std::io::Error::last_os_error();
            if e.kind() == IoKind::Interrupted {
                Ok(false)
            } else {
                Err(e)
            }
        }
    }
}

/// A pre-encoded ASK frame for pool item `item`.
pub struct Wire {
    pub frame: Vec<u8>,
    pub item: usize,
}

impl Wire {
    pub fn ask(item: usize, engine: AskEngine, top: usize, sparql: &str) -> Wire {
        let req = Request::Ask {
            engine,
            top,
            deadline_ms: 0,
            sparql: sparql.to_string(),
        };
        Wire {
            frame: encode_frame(req.encode().as_bytes()),
            item,
        }
    }
}

/// How a reply compared with the locally computed reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Ok,
    Mismatch,
    Overloaded,
    Deadline,
    Truncated,
    OtherError,
}

/// Classifies one reply; `check` compares a successful reply with the
/// reference for `item`.
fn classify(resp: &Response, item: usize, check: &dyn Fn(usize, &Response) -> bool) -> Verdict {
    match resp {
        Response::Error { kind, .. } => match kind {
            ErrorKind::Overloaded => Verdict::Overloaded,
            ErrorKind::Deadline => Verdict::Deadline,
            _ => Verdict::OtherError,
        },
        Response::Scores {
            truncated: true, ..
        } => Verdict::Truncated,
        _ if check(item, resp) => Verdict::Ok,
        _ => Verdict::Mismatch,
    }
}

/// One open-loop phase: a fixed offered rate for a fixed time.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    pub rate: f64,
    pub duration: Duration,
    pub seed: u64,
    /// Stop offering load once the oldest unanswered request is this old;
    /// the phase is then marked aborted (it cannot meet any sane limit).
    pub abort_after: Duration,
}

/// Everything one phase measured, summed over its connections.
#[derive(Debug, Default, Clone)]
pub struct Outcome {
    pub sent: u64,
    pub ok: u64,
    pub mismatches: u64,
    pub overloaded: u64,
    pub deadline: u64,
    pub truncated: u64,
    pub other_errors: u64,
    pub io_errors: u64,
    /// Due time → reply, µs; failed requests are `INFINITY` (a failure
    /// misses every latency limit).
    pub latency_us: Vec<f64>,
    /// Send → reply, µs, successful requests only.
    pub service_us: Vec<f64>,
    /// Send time − due time, µs: how late the generator ran.
    pub lag_us: Vec<f64>,
    /// Backlog (sent, unanswered) averaged per time bin, summed over
    /// connections.
    pub backlog: Vec<f64>,
    pub aborted: bool,
    pub first_mismatch: Option<String>,
}

impl Outcome {
    pub fn failed(&self) -> u64 {
        self.overloaded + self.deadline + self.truncated + self.other_errors + self.io_errors
    }

    pub fn failed_frac(&self) -> f64 {
        if self.sent == 0 {
            1.0
        } else {
            self.failed() as f64 / self.sent as f64
        }
    }

    /// Adds another phase's counts and samples to this one.
    pub fn absorb(&mut self, o: Outcome) {
        self.sent += o.sent;
        self.ok += o.ok;
        self.mismatches += o.mismatches;
        self.overloaded += o.overloaded;
        self.deadline += o.deadline;
        self.truncated += o.truncated;
        self.other_errors += o.other_errors;
        self.io_errors += o.io_errors;
        self.latency_us.extend(o.latency_us);
        self.service_us.extend(o.service_us);
        self.lag_us.extend(o.lag_us);
        if self.backlog.is_empty() {
            self.backlog = o.backlog;
        } else {
            for (a, b) in self.backlog.iter_mut().zip(o.backlog) {
                *a += b;
            }
        }
        self.aborted |= o.aborted;
        if self.first_mismatch.is_none() {
            self.first_mismatch = o.first_mismatch;
        }
    }

    /// p99 of the generator's lateness, µs (0 with no sends).
    pub fn lag_p99_us(&self) -> f64 {
        let mut s = self.lag_us.clone();
        s.sort_by(f64::total_cmp);
        stats::quantile(&s, 0.99).unwrap_or(0.0)
    }

    /// One-line account of the phase for the report on stderr.
    pub fn account(&self) -> String {
        format!(
            "sent {} ok {} mismatch {} overloaded {} deadline {} truncated {} err {} io {}{}",
            self.sent,
            self.ok,
            self.mismatches,
            self.overloaded,
            self.deadline,
            self.truncated,
            self.other_errors,
            self.io_errors,
            if self.aborted { " (aborted)" } else { "" }
        )
    }
}

/// Time bins used for the backlog series.
const BACKLOG_BINS: usize = 12;

/// Runs one phase over `conns` connections to `addr`. Connection `c`
/// follows its own Poisson process at `rate / conns` seeded from
/// `phase.seed` and `c`, choosing uniformly among `wires`; the merged
/// arrivals are a Poisson process at `rate`.
pub fn run_phase(
    addr: &str,
    conns: usize,
    wires: &[Wire],
    phase: Phase,
    check: &(dyn Fn(usize, &Response) -> bool + Sync),
) -> Outcome {
    let conns = conns.max(1);
    let duration_ns = phase.duration.as_nanos() as u64;
    let schedules: Vec<Vec<(u64, usize)>> = (0..conns)
        .map(|c| {
            let seed = phase.seed ^ (c as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let mut pick = StdRng::seed_from_u64(seed.rotate_left(17));
            stats::poisson_schedule(phase.rate / conns as f64, duration_ns, seed)
                .into_iter()
                .map(|t| (t, pick.gen_range(0..wires.len())))
                .collect()
        })
        .collect();
    // Connect everything before the clock starts.
    let mut streams = Vec::with_capacity(conns);
    for _ in 0..conns {
        match TcpStream::connect(addr) {
            Ok(s) => streams.push(Some(s)),
            Err(_) => streams.push(None),
        }
    }
    let t0 = Instant::now();
    let mut total = Outcome::default();
    let mut rest = streams.into_iter().zip(&schedules);
    let (first_stream, first_sched) = rest.next().expect("at least one connection");
    std::thread::scope(|scope| {
        let handles: Vec<_> = rest
            .map(|(stream, sched)| {
                scope.spawn(move || drive(stream, sched, wires, t0, duration_ns, phase, check))
            })
            .collect();
        total.absorb(drive(
            first_stream,
            first_sched,
            wires,
            t0,
            duration_ns,
            phase,
            check,
        ));
        for h in handles {
            total.absorb(h.join().expect("generator thread panicked"));
        }
    });
    total
}

fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// Drives one connection through its schedule and drains its replies.
fn drive(
    stream: Option<TcpStream>,
    sched: &[(u64, usize)],
    wires: &[Wire],
    t0: Instant,
    duration_ns: u64,
    phase: Phase,
    check: &(dyn Fn(usize, &Response) -> bool + Sync),
) -> Outcome {
    let mut out = Outcome {
        backlog: vec![0.0; BACKLOG_BINS],
        ..Outcome::default()
    };
    let Some(mut stream) = stream else {
        out.sent = sched.len() as u64;
        out.io_errors = out.sent;
        out.latency_us = vec![f64::INFINITY; sched.len()];
        return out;
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let abort_ns = phase.abort_after.as_nanos() as u64;
    // Replies to what was sent are awaited at most this long past the
    // end of the schedule.
    let drain_until = duration_ns + abort_ns + 2_000_000_000;
    let mut bin_sum = [0.0f64; BACKLOG_BINS];
    let mut bin_n = [0u32; BACKLOG_BINS];
    let mut decoder = FrameDecoder::new(MAX_FRAME);
    let mut frames: Vec<Vec<u8>> = Vec::new();
    let mut buf = vec![0u8; 64 * 1024];
    // (due ns, sent ns, wire index), in send order = reply order.
    let mut inflight: VecDeque<(u64, u64, usize)> = VecDeque::new();
    let mut next = 0usize;
    let mut broken = false;
    'run: loop {
        let mut now = ns_since(t0);
        while next < sched.len() && sched[next].0 <= now {
            let (due, w) = sched[next];
            if stream.write_all(&wires[w].frame).is_err() {
                broken = true;
                break 'run;
            }
            out.sent += 1;
            out.lag_us.push((now - due) as f64 / 1e3);
            inflight.push_back((due, now, w));
            let bin = ((due * BACKLOG_BINS as u64) / duration_ns.max(1)) as usize;
            bin_sum[bin.min(BACKLOG_BINS - 1)] += inflight.len() as f64;
            bin_n[bin.min(BACKLOG_BINS - 1)] += 1;
            next += 1;
            now = ns_since(t0);
        }
        if let Some(&(due, _, _)) = inflight.front() {
            if next < sched.len() && now.saturating_sub(due) > abort_ns {
                // Hopelessly behind: stop offering load; unsent requests
                // are not attempted.
                out.aborted = true;
                next = sched.len();
            }
        }
        if next == sched.len() && inflight.is_empty() {
            break;
        }
        if now > drain_until {
            broken = true;
            break;
        }
        let wait_ns = if next < sched.len() {
            sched[next].0.saturating_sub(now)
        } else {
            20_000_000
        };
        match wait_readable(&stream, wait_ns) {
            Ok(true) => {}
            Ok(false) => continue,
            Err(_) => {
                broken = true;
                break;
            }
        }
        match stream.read(&mut buf) {
            Ok(0) => {
                broken = true;
                break;
            }
            Ok(n) => {
                let got = ns_since(t0);
                if decoder.push(&buf[..n], &mut frames).is_err() {
                    broken = true;
                    break;
                }
                for payload in frames.drain(..) {
                    let Some((due, sent, w)) = inflight.pop_front() else {
                        broken = true;
                        break 'run;
                    };
                    let resp = std::str::from_utf8(&payload)
                        .ok()
                        .and_then(|t| Response::parse(t).ok());
                    let verdict = match &resp {
                        Some(r) => classify(r, wires[w].item, check),
                        None => Verdict::OtherError,
                    };
                    let lat = (got - due) as f64 / 1e3;
                    match verdict {
                        Verdict::Ok => {
                            out.ok += 1;
                            out.latency_us.push(lat);
                            out.service_us.push((got - sent) as f64 / 1e3);
                        }
                        Verdict::Mismatch => {
                            out.mismatches += 1;
                            out.latency_us.push(lat);
                            if out.first_mismatch.is_none() {
                                out.first_mismatch =
                                    Some(format!("item {}: {resp:?}", wires[w].item));
                            }
                        }
                        v => {
                            out.latency_us.push(f64::INFINITY);
                            match v {
                                Verdict::Overloaded => out.overloaded += 1,
                                Verdict::Deadline => out.deadline += 1,
                                Verdict::Truncated => out.truncated += 1,
                                _ => out.other_errors += 1,
                            }
                        }
                    }
                }
            }
            Err(e) if matches!(e.kind(), IoKind::WouldBlock | IoKind::TimedOut) => {}
            Err(_) => {
                broken = true;
                break;
            }
        }
    }
    if broken {
        out.io_errors += inflight.len() as u64;
        out.latency_us
            .extend(std::iter::repeat_n(f64::INFINITY, inflight.len()));
    }
    out.backlog = bin_sum
        .iter()
        .zip(bin_n)
        .map(|(&s, n)| if n == 0 { 0.0 } else { s / f64::from(n) })
        .collect();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use halk_kg::{generate, SynthConfig};
    use halk_logic::plan::{execute_set, PlanBindings, PlanShape};
    use halk_logic::{Sampler, Structure};
    use halk_serve::{Engine, ServeConfig, Server};

    /// Drives an in-process daemon (exact lane) through one open-loop
    /// phase: every scheduled request is sent, answered and verified.
    #[test]
    fn open_loop_phase_sends_the_schedule_and_verifies_every_reply() {
        let g = generate(&SynthConfig::fb237_like(), &mut StdRng::seed_from_u64(5));
        let sampler = Sampler::new(&g);
        let mut rng = StdRng::seed_from_u64(6);
        let mut wires = Vec::new();
        let mut want = Vec::new();
        for s in [Structure::P1, Structure::P2, Structure::I2] {
            for gq in sampler.sample_many(s, 4, &mut rng) {
                let sparql = crate::render::query_to_sparql(&gq.query).expect("renders");
                let q = halk_sparql::sparql_to_query(&sparql).expect("adapts");
                let ans = execute_set(&PlanShape::compile(&q), &PlanBindings::of(&q), &g);
                want.push((
                    ans.len(),
                    ans.iter().take(10).map(|e| e.0).collect::<Vec<_>>(),
                ));
                wires.push(Wire::ask(wires.len(), AskEngine::Exact, 10, &sparql));
            }
        }
        let server = Server::start(Engine::new(g, None), ServeConfig::default()).expect("bind");
        let addr = server.local_addr().to_string();
        let check = |i: usize, r: &Response| matches!(r, Response::Answers { total, ids } if (*total, ids.clone()) == want[i]);
        let phase = Phase {
            rate: 400.0,
            duration: Duration::from_millis(500),
            seed: 9,
            abort_after: Duration::from_secs(1),
        };
        let o = run_phase(&addr, 2, &wires, phase, &check);
        let scheduled: usize = (0..2u64)
            .map(|c| {
                let seed = 9 ^ (c + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                stats::poisson_schedule(200.0, 500_000_000, seed).len()
            })
            .sum();
        assert_eq!(o.sent as usize, scheduled, "{}", o.account());
        assert_eq!(o.ok, o.sent, "{}", o.account());
        assert_eq!(o.latency_us.len(), scheduled);
        assert_eq!(o.lag_us.len(), scheduled);
        assert!(o.latency_us.iter().all(|l| l.is_finite() && *l >= 0.0));
        assert!(!o.aborted);

        // A reference that never matches turns every reply into a mismatch.
        let o = run_phase(&addr, 1, &wires, phase, &|_, _| false);
        assert_eq!(o.mismatches, o.sent);
        assert!(o.first_mismatch.is_some());
        server.join();
    }
}
