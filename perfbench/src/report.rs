//! The run's result: metrics with their sample counts, the request
//! account, failures, and the host fingerprint every result is stamped
//! with.

use crate::gen::Outcome;
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

#[derive(Debug, Default, Clone)]
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub git_rev: String,
    pub daemon_workers: Option<u64>,
    pub daemon_shards: Option<u64>,
    pub daemon_precision: Option<String>,
    pub daemon_batch_cap: Option<u64>,
}

fn command_line(prog: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(prog).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let s = String::from_utf8_lossy(&out.stdout).trim().to_string();
    (!s.is_empty()).then_some(s)
}

impl Fingerprint {
    pub fn of_host() -> Fingerprint {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            git_rev: command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "none".into()),
            ..Fingerprint::default()
        }
    }

    fn json(&self) -> String {
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |x| x.to_string());
        format!(
            "{{\"nproc\":{},\"cpu_model\":{},\"rustc\":{},\"git_rev\":{},\"daemon_workers\":{},\
             \"daemon_shards\":{},\"daemon_precision\":{},\"daemon_batch_cap\":{}}}",
            self.nproc,
            quote(&self.cpu_model),
            quote(&self.rustc),
            quote(&self.git_rev),
            opt(self.daemon_workers),
            opt(self.daemon_shards),
            self.daemon_precision
                .as_deref()
                .map_or("null".to_string(), quote),
            opt(self.daemon_batch_cap),
        )
    }
}

fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A number as JSON: finite values with all their digits, anything else
/// as null (which the output check rejects).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[derive(Debug, Clone)]
struct Metric {
    name: String,
    value: f64,
    unit: String,
    n: usize,
}

#[derive(Debug, Default)]
pub struct Report {
    pub fingerprint: Fingerprint,
    metrics: Vec<Metric>,
    /// Reported on stderr and in the results file, not in the JSON line.
    notes: Vec<Metric>,
    errors: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    mismatches: u64,
}

impl Report {
    pub fn new() -> Report {
        Report {
            fingerprint: Fingerprint::of_host(),
            ..Report::default()
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &str, n: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            n,
        });
    }

    /// A layer this workload never reaches: zero work, zero time.
    pub fn metric_absent(&mut self, name: &str, unit: &str) {
        self.metric(name, 0.0, unit, 0);
    }

    pub fn note(&mut self, name: &str, value: f64, unit: &str, n: usize) {
        self.notes.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            n,
        });
    }

    pub fn fail(&mut self, why: String) {
        eprintln!("perfbench: FAIL: {why}");
        self.errors.push(why);
    }

    /// Folds a phase's requests into the run's account.
    pub fn account(&mut self, o: &Outcome) {
        self.attempted += o.sent;
        self.failed += o.failed() + o.mismatches;
        self.mismatches += o.mismatches;
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.mismatches == 0
    }

    /// Prints the human-readable table to stderr, writes the full result
    /// (fingerprint, sample counts, notes) to `results`, and returns the
    /// one-line JSON result for stdout.
    pub fn finish(&self, workload: &str, seed: u64, trace: bool, results: &Path) -> String {
        eprintln!(
            "perfbench: {workload} seed {seed} trace {}",
            u8::from(trace)
        );
        eprintln!("perfbench: host {}", self.fingerprint.json());
        for m in self.metrics.iter().chain(&self.notes) {
            eprintln!(
                "perfbench:   {:<28} {:>16.4} {:<6} (n={})",
                m.name, m.value, m.unit, m.n
            );
        }
        eprintln!(
            "perfbench:   attempted {} failed {} (failed_frac {:.6}) mismatches {}",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64,
            self.mismatches
        );
        let attempted = self.attempted.max(1);
        let metrics = |list: &[Metric], with_n: bool| {
            let mut s = String::from("{");
            for (i, m) in list.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(
                    s,
                    "{}:{{\"value\":{},\"unit\":{}",
                    quote(&m.name),
                    num(m.value),
                    quote(&m.unit)
                );
                if with_n {
                    let _ = write!(s, ",\"n\":{}", m.n);
                }
                s.push('}');
            }
            s.push('}');
            s
        };
        let line = format!(
            "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{},\"metrics\":{}}}",
            self.correct(),
            self.failed,
            metrics(&self.metrics, false)
        );
        let full = format!(
            "{{\"workload\":{},\"seed\":{seed},\"trace\":{trace},\"fingerprint\":{},\
             \"correct\":{},\"attempted\":{attempted},\"failed\":{},\"metrics\":{},\"notes\":{},\
             \"errors\":[{}]}}\n",
            quote(workload),
            self.fingerprint.json(),
            self.correct(),
            self.failed,
            metrics(&self.metrics, true),
            metrics(&self.notes, true),
            self.errors
                .iter()
                .map(|e| quote(e))
                .collect::<Vec<_>>()
                .join(","),
        );
        if let Err(e) = std::fs::write(results, full) {
            eprintln!("perfbench: cannot write {}: {e}", results.display());
        }
        line
    }
}
