//! The benchmark's fixed settings, read from `perfbench/config.json`:
//! offered rates, the capacity ladder, latency limits and problem sizes.

use halk_serve::protocol::AskEngine;
use serde_json::Value;
use std::path::Path;

#[derive(Debug, Clone)]
pub struct ServeSpec {
    pub lane: AskEngine,
    pub n_entities: usize,
    pub n_triples: usize,
    /// Fixed-seed training steps baked into the snapshot's model.
    pub model_steps: usize,
    pub per_structure: usize,
    pub low_rps: f64,
    pub high_rps: f64,
    pub ladder_lo: f64,
    pub ladder_hi: f64,
    pub ladder_step: f64,
    pub p99_limit_us: f64,
    pub abort_us: f64,
    /// A phase whose generator ran later than this at p99 is invalid.
    pub lag_p99_bound_us: f64,
}

#[derive(Debug, Clone)]
pub struct TrainSpec {
    pub n_entities: usize,
    pub dim: usize,
    pub batch_size: usize,
    pub steps: usize,
    pub eval_queries: usize,
}

#[derive(Debug, Clone)]
pub struct Config {
    serve: Vec<(String, ServeSpec)>,
    train: Vec<(String, TrainSpec)>,
}

fn num(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("config: missing number {key:?}"))
}

fn int(v: &Value, key: &str) -> Result<usize, String> {
    let x = num(v, key)?;
    if x < 0.0 || x.fract() != 0.0 {
        return Err(format!("config: {key:?} must be a whole number"));
    }
    Ok(x as usize)
}

fn serve_spec(v: &Value) -> Result<ServeSpec, String> {
    Ok(ServeSpec {
        lane: match v.get("lane").and_then(Value::as_str) {
            Some("halk") => AskEngine::Halk,
            Some("exact") => AskEngine::Exact,
            other => return Err(format!("config: lane must be halk or exact, not {other:?}")),
        },
        n_entities: int(v, "n_entities")?,
        n_triples: int(v, "n_triples")?,
        model_steps: int(v, "model_steps")?,
        per_structure: int(v, "per_structure")?,
        low_rps: num(v, "low_rps")?,
        high_rps: num(v, "high_rps")?,
        ladder_lo: num(v, "ladder_lo")?,
        ladder_hi: num(v, "ladder_hi")?,
        ladder_step: num(v, "ladder_step")?,
        p99_limit_us: num(v, "p99_limit_us")?,
        abort_us: num(v, "abort_us")?,
        lag_p99_bound_us: num(v, "lag_p99_bound_us")?,
    })
}

fn train_spec(v: &Value) -> Result<TrainSpec, String> {
    Ok(TrainSpec {
        n_entities: int(v, "n_entities")?,
        dim: int(v, "dim")?,
        batch_size: int(v, "batch_size")?,
        steps: int(v, "steps")?,
        eval_queries: int(v, "eval_queries")?,
    })
}

/// A workload's settings.
pub enum Spec<'a> {
    Serve(&'a ServeSpec),
    Train(&'a TrainSpec),
}

impl Config {
    pub fn load(path: &Path) -> Result<Config, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let v: Value = serde_json::from_str(&text).map_err(|e| format!("config: {e:?}"))?;
        let mut serve = Vec::new();
        let mut train = Vec::new();
        let Some(Value::Object(workloads)) = v.get("workloads") else {
            return Err("config: missing workloads".to_string());
        };
        for (name, w) in workloads {
            match w.get("kind").and_then(Value::as_str) {
                Some("serve") => serve.push((name.clone(), serve_spec(w)?)),
                Some("train") => train.push((name.clone(), train_spec(w)?)),
                _ => return Err(format!("config: workload {name} has no valid kind")),
            }
        }
        Ok(Config { serve, train })
    }

    pub fn spec(&self, workload: &str) -> Option<Spec<'_>> {
        if let Some((_, s)) = self.serve.iter().find(|(n, _)| n == workload) {
            return Some(Spec::Serve(s));
        }
        self.train
            .iter()
            .find(|(n, _)| n == workload)
            .map(|(_, t)| Spec::Train(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_config_parses_and_names_every_workload() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("config.json");
        let cfg = Config::load(&path).expect("config.json parses");
        for w in ["serve-halk", "serve-exact", "train"] {
            assert!(cfg.spec(w).is_some(), "{w} configured");
            assert!(
                cfg.spec(&format!("{w}.smoke")).is_some(),
                "{w}.smoke configured"
            );
        }
        match cfg.spec("serve-halk") {
            Some(Spec::Serve(s)) => {
                assert_eq!(s.lane, AskEngine::Halk);
                assert!(s.low_rps < s.high_rps && s.ladder_lo < s.ladder_hi);
                assert!(
                    s.ladder_step > 1.0 && s.ladder_step <= 1.10,
                    "rungs at most 10% apart"
                );
            }
            _ => panic!("serve-halk is a serving workload"),
        }
    }

    #[test]
    fn unknown_lane_is_rejected() {
        let spec = |lane: &str| -> Value {
            serde_json::from_str(&format!(
                r#"{{"lane":"{lane}","n_entities":800,"n_triples":5000,"model_steps":5,
                   "per_structure":2,"low_rps":1500,"high_rps":2000,"ladder_lo":1000,
                   "ladder_hi":4000,"ladder_step":1.1,"p99_limit_us":50000,
                   "abort_us":200000,"lag_p99_bound_us":10000}}"#
            ))
            .expect("json")
        };
        assert_eq!(
            serve_spec(&spec("exact")).map(|s| s.lane),
            Ok(AskEngine::Exact)
        );
        assert!(
            serve_spec(&spec("Exact")).is_err(),
            "lanes are matched exactly"
        );
    }
}
