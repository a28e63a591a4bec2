//! Pure measurement helpers: quantiles from raw samples, the seeded
//! Poisson arrival schedule, backlog-growth detection and the capacity
//! ladder decision. Everything here is deterministic and unit-tested.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Nearest-rank quantile of `sorted` (ascending): the smallest sample with
/// at least `q·n` samples at or below it. `None` for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// True when `n` samples leave at least ten samples strictly above the
/// `q` quantile's rank, so that quantile is supported by the data.
pub fn tail_supported(n: usize, q: f64) -> bool {
    let rank = (q * n as f64).ceil() as usize;
    n >= rank + 10
}

/// A timing distribution reported from raw samples: median, the 99th
/// percentile and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p99: f64,
}

impl Summary {
    /// Summarises raw samples. Fails when there are too few samples for
    /// ten of them to lie beyond the p99 rank — a short phase must fail
    /// rather than report an unsupported tail.
    pub fn of(samples: &[f64]) -> Result<Summary, String> {
        if !tail_supported(samples.len(), 0.99) {
            return Err(format!(
                "{} samples cannot support a p99 (need at least 1000)",
                samples.len()
            ));
        }
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        Ok(Summary {
            n: s.len(),
            p50: quantile(&s, 0.5).expect("non-empty"),
            p99: quantile(&s, 0.99).expect("non-empty"),
        })
    }
}

/// Median of raw samples (nearest rank); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    quantile(&s, 0.5)
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Arrival offsets (ns from phase start) of a Poisson process with
/// `rate` arrivals per second over `duration_ns`, drawn from `seed`:
/// exponential gaps by inversion, so one seed always yields one schedule.
pub fn poisson_schedule(rate: f64, duration_ns: u64, seed: u64) -> Vec<u64> {
    assert!(rate > 0.0, "rate must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let mean_gap_ns = 1e9 / rate;
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity((rate * duration_ns as f64 / 1e9 * 1.1) as usize + 16);
    loop {
        // U is uniform in [0, 1) with 53 random bits; 1 - U is in (0, 1],
        // so the log is finite.
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        t += -(1.0 - u).ln() * mean_gap_ns;
        if t >= duration_ns as f64 {
            return out;
        }
        out.push(t as u64);
    }
}

/// Whether the generator's backlog (sent but unanswered requests) kept
/// growing over a phase. `series` is the backlog sampled at equal time
/// intervals; the phase grew when the mean of its last third exceeds the
/// mean of its first third by half again plus a slack of four requests,
/// which tolerates the jitter of a stationary queue but not a linear climb.
pub fn backlog_growing(series: &[f64]) -> bool {
    if series.len() < 3 {
        return false;
    }
    let third = series.len() / 3;
    let first = mean(&series[..third]);
    let last = mean(&series[series.len() - third..]);
    last > first * 1.5 + 4.0
}

/// What one capacity-ladder rung measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RungResult {
    pub p99_us: f64,
    pub failed_frac: f64,
    pub backlog_growing: bool,
    /// False when the generator itself ran late (or the phase was cut
    /// short), so the rung says nothing about the daemon.
    pub valid: bool,
}

impl RungResult {
    /// A rung passes when every capacity condition holds.
    pub fn passes(&self, p99_limit_us: f64, max_failed_frac: f64) -> bool {
        self.valid
            && self.p99_us <= p99_limit_us
            && self.failed_frac <= max_failed_frac
            && !self.backlog_growing
    }
}

/// The highest rung of `ladder` (ascending rates) that passes, found by
/// bisection under the assumption that passing is monotone in the rate.
/// Returns the rate (0 when even the lowest rung fails) and the rungs
/// probed, in probe order.
pub fn capacity(ladder: &[f64], mut passes: impl FnMut(f64) -> bool) -> (f64, Vec<(f64, bool)>) {
    let mut probed = Vec::new();
    // Invariant: every rung below `lo` passed, every rung at or above `hi`
    // failed.
    let (mut lo, mut hi) = (0usize, ladder.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let ok = passes(ladder[mid]);
        probed.push((ladder[mid], ok));
        if ok {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    let rate = if lo == 0 { 0.0 } else { ladder[lo - 1] };
    (rate, probed)
}

/// A geometric ladder from `lo` to at least `hi` whose rungs are `step`
/// apart (as a ratio, e.g. 1.05), rounded to whole requests per second.
pub fn geometric_ladder(lo: f64, hi: f64, step: f64) -> Vec<f64> {
    assert!(lo > 0.0 && hi >= lo && step > 1.0, "bad ladder");
    let mut out = vec![lo.round()];
    let mut r = lo;
    while r < hi {
        r *= step;
        out.push(r.round());
    }
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_on_known_data() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5), Some(50.0));
        assert_eq!(quantile(&s, 0.99), Some(99.0));
        assert_eq!(quantile(&s, 1.0), Some(100.0));
        assert_eq!(quantile(&s, 0.0), Some(1.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[7.0], 0.99), Some(7.0));
        // Unsorted input through `Summary` and `median`.
        let mut v: Vec<f64> = (0..2000).map(|i| f64::from((i * 7919) % 2000)).collect();
        let sum = Summary::of(&v).expect("2000 samples support a p99");
        assert_eq!(sum.n, 2000);
        assert_eq!(sum.p50, 999.0);
        assert_eq!(sum.p99, 1979.0);
        v.truncate(3);
        assert_eq!(
            median(&v),
            median(&[0.0, 7919.0 % 2000.0, 15838.0 % 2000.0])
        );
    }

    #[test]
    fn short_phase_fails_instead_of_reporting_p99() {
        assert!(!tail_supported(999, 0.99));
        assert!(tail_supported(1000, 0.99));
        assert!(tail_supported(20, 0.5));
        assert!(Summary::of(&vec![1.0; 999]).is_err());
        assert!(Summary::of(&vec![1.0; 1000]).is_ok());
    }

    #[test]
    fn poisson_schedule_is_seeded_and_has_the_right_rate() {
        let a = poisson_schedule(1000.0, 20_000_000_000, 42);
        let b = poisson_schedule(1000.0, 20_000_000_000, 42);
        let c = poisson_schedule(1000.0, 20_000_000_000, 43);
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, c, "different seeds differ");
        // 20 s at 1000/s: 20 000 arrivals, Poisson sd ≈ 141.
        assert!((a.len() as f64 - 20_000.0).abs() < 600.0, "{}", a.len());
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "offsets ascend");
        assert!(*a.last().expect("non-empty") < 20_000_000_000);
        // Exponential gaps: the coefficient of variation is ~1 (a fixed
        // period would give 0).
        let gaps: Vec<f64> = a.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
        let m = mean(&gaps);
        let sd = (gaps.iter().map(|g| (g - m).powi(2)).sum::<f64>() / gaps.len() as f64).sqrt();
        assert!((m - 1e6).abs() < 3e4, "mean gap {m}");
        assert!((sd / m - 1.0).abs() < 0.05, "cv {}", sd / m);
    }

    #[test]
    fn backlog_growth_detection() {
        let flat: Vec<f64> = (0..30).map(|i| 3.0 + f64::from(i % 3)).collect();
        assert!(!backlog_growing(&flat));
        let climb: Vec<f64> = (0..30).map(|i| f64::from(i) * 5.0).collect();
        assert!(backlog_growing(&climb));
        assert!(!backlog_growing(&[100.0, 0.0]));
    }

    /// An M/M/1-like latency model: p99 ≈ service·ln(100)/(1-ρ) below
    /// saturation, unbounded above it. The ladder must settle on the
    /// highest rung whose modeled p99 meets the limit.
    #[test]
    fn ladder_finds_capacity_on_a_synthetic_latency_model() {
        let service_us = 1000.0; // 1000 req/s saturation
        let model = |rate: f64| {
            let rho = rate * service_us / 1e6;
            let p99 = if rho < 1.0 {
                service_us * 100f64.ln() / (1.0 - rho)
            } else {
                f64::INFINITY
            };
            RungResult {
                p99_us: p99,
                failed_frac: 0.0,
                backlog_growing: rho >= 1.0,
                valid: true,
            }
        };
        let ladder = geometric_ladder(200.0, 1600.0, 1.05);
        // Whole-request rounding may stretch a 5% step slightly.
        assert!(ladder.windows(2).all(|w| w[1] / w[0] <= 1.06));
        let limit = 20_000.0;
        let (cap, probed) = capacity(&ladder, |r| model(r).passes(limit, 0.001));
        // Brute force: highest passing rung.
        let want = ladder
            .iter()
            .copied()
            .filter(|&r| model(r).passes(limit, 0.001))
            .fold(0.0, f64::max);
        assert_eq!(cap, want);
        // ρ = 1 - 4605/20000 ≈ 0.77 → 770 req/s; the rung is within 5%.
        assert!(cap > 730.0 && cap <= 770.0, "{cap}");
        assert!(probed.len() <= 7, "bisection probes {}", probed.len());
        // Failures and an invalid generator both fail a rung.
        let mut r = model(300.0);
        r.failed_frac = 0.01;
        assert!(!r.passes(limit, 0.001));
        let mut r = model(300.0);
        r.valid = false;
        assert!(!r.passes(limit, 0.001));
        // Everything fails → capacity 0; everything passes → top rung.
        assert_eq!(capacity(&ladder, |_| false).0, 0.0);
        assert_eq!(
            capacity(&ladder, |_| true).0,
            *ladder.last().expect("rungs")
        );
    }
}
