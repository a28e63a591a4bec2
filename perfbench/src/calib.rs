//! Host-speed calibration.
//!
//! On a shared host the speed of a virtual CPU drifts: the same fixed
//! loop costs up to half again as much CPU time from one minute to the
//! next, as other tenants load the physical cores under it, and it
//! jitters by a tenth from one second to the next. So a run interleaves
//! short runs of a fixed reference computation with its measured work,
//! and every time it gates on is scaled by `NOMINAL_REF_US / mean
//! reference`: the time the work would have taken at the reference's
//! nominal speed. Each stretch of work (a training, a daemon's serial
//! passes, a part of the set-ups) is scaled by the mean of the several
//! reference runs spread over it, which follows the drift without the
//! jitter of any single reference run. The reference is this module's
//! own code and uses nothing from the repository's crates, so a change to
//! the program moves the measured time and never the reference.

use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

/// Rows and width of the reference table: 512 KiB of `f32`, the size of
/// a small entity table, resident in a core's L2.
const ROWS: usize = 4096;
const DIM: usize = 32;
/// Timed table sweeps per reference run on each thread.
const SWEEPS: usize = 480;
/// CPU time of one reference run on one thread, on this benchmark's
/// 2-vCPU reference host in its usual state, µs. Fixed for good:
/// changing it rescales every calibrated metric.
pub const NOMINAL_REF_US: f64 = 24_000.0;

pub struct Calib {
    table: Vec<f32>,
    threads: usize,
    log: Mutex<Log>,
}

#[derive(Default)]
struct Log {
    /// Per-thread CPU time of each reference run, µs.
    runs_us: Vec<f64>,
    /// CPU and wall time spent in reference runs, seconds.
    cpu_s: f64,
    wall_s: f64,
}

impl Calib {
    /// The reference runs on `threads` threads at once, so it samples
    /// every virtual CPU a multi-threaded workload runs on.
    pub fn new(threads: usize) -> Calib {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let table = (0..ROWS * DIM)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 40) as f32 / (1u64 << 24) as f32 - 0.5
            })
            .collect();
        Calib {
            table,
            threads: threads.max(1),
            log: Mutex::new(Log::default()),
        }
    }

    /// One reference run, recorded.
    pub fn measure(&self) {
        let t = Instant::now();
        let per_thread: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..self.threads)
                .map(|i| s.spawn(move || self.run_once(i)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reference thread"))
                .collect()
        });
        let cpu_ns: u64 = per_thread.iter().sum();
        let mut log = self.log.lock().expect("calibration log");
        log.runs_us.push(cpu_ns as f64 / 1e3 / self.threads as f64);
        log.cpu_s += cpu_ns as f64 / 1e9;
        log.wall_s += t.elapsed().as_secs_f64();
    }

    /// Marks the start of a stretch of work; see [`Calib::scale_since`].
    pub fn mark(&self) -> usize {
        self.runs()
    }

    /// Scales `time`, measured over a stretch of work that began at
    /// `mark`, by the reference runs made since.
    pub fn scale_since(&self, mark: usize, time: f64) -> f64 {
        let log = self.log.lock().expect("calibration log");
        nominal(
            time,
            crate::stats::mean(&log.runs_us[mark.min(log.runs_us.len())..]),
        )
    }

    /// Mean reference run so far, µs per thread.
    pub fn mean_ref_us(&self) -> f64 {
        crate::stats::mean(&self.log.lock().expect("calibration log").runs_us)
    }

    /// Reference runs so far.
    pub fn runs(&self) -> usize {
        self.log.lock().expect("calibration log").runs_us.len()
    }

    /// CPU and wall time spent in reference runs so far, seconds.
    pub fn spent_s(&self) -> (f64, f64) {
        let log = self.log.lock().expect("calibration log");
        (log.cpu_s, log.wall_s)
    }

    /// Sweeps the table with `SWEEPS` query vectors, keeping a top-10 of
    /// scores (dot products and branchy inserts, like a scoring sweep);
    /// returns this thread's CPU time over it, ns.
    fn run_once(&self, salt: usize) -> u64 {
        let mut top = [f32::NEG_INFINITY; 10];
        let mut start = thread_cpu_ns();
        // The first sweep brings the table into cache and is not timed.
        for q in 0..=SWEEPS {
            if q == 1 {
                start = thread_cpu_ns();
            }
            let query = &self.table[((q * 7 + salt) % ROWS) * DIM..][..DIM];
            for row in self.table.chunks_exact(DIM) {
                let s: f32 = row.iter().zip(query).map(|(a, b)| a * b).sum();
                if s > top[9] {
                    let mut i = 9;
                    while i > 0 && top[i - 1] < s {
                        top[i] = top[i - 1];
                        i -= 1;
                    }
                    top[i] = s;
                }
            }
        }
        black_box(top);
        thread_cpu_ns() - start
    }
}

/// This thread's CPU time, ns, from `/proc/thread-self/schedstat` (time
/// stolen by the hypervisor is not counted).
fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .expect("/proc/thread-self/schedstat")
}

/// Scales a time measured while the reference took `ref_us` to the
/// nominal speed.
fn nominal(time: f64, ref_us: f64) -> f64 {
    time * NOMINAL_REF_US / ref_us
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_takes_cpu_time_and_scaling_is_proportional() {
        let c = Calib::new(2);
        c.measure();
        let m = c.mark();
        c.measure();
        c.measure();
        assert_eq!((m, c.runs()), (1, 3));
        let r = c.mean_ref_us();
        assert!(r > 0.0, "reference took {r} us");
        let since = {
            let log = c.log.lock().unwrap();
            (log.runs_us[1] + log.runs_us[2]) / 2.0
        };
        assert!((c.scale_since(m, since * 1e-6) - NOMINAL_REF_US * 1e-6).abs() < 1e-12);
        let (cpu, wall) = c.spent_s();
        assert!(cpu > 0.0 && wall > 0.0);
        assert_eq!(nominal(3.0, NOMINAL_REF_US), 3.0);
        assert_eq!(nominal(3.0, 2.0 * NOMINAL_REF_US), 1.5);
    }

    #[test]
    fn process_cpu_time_counts_exited_threads() {
        let before = crate::daemon::cpu_s("/proc/self/stat").unwrap();
        let (cpu, _) = {
            let c = Calib::new(2);
            for _ in 0..5 {
                c.measure();
            }
            c.spent_s()
        };
        let after = crate::daemon::cpu_s("/proc/self/stat").unwrap();
        // Tick-granular (10 ms), so allow one tick each way.
        assert!(after - before >= cpu - 0.02, "{after} - {before} < {cpu}");
    }
}
