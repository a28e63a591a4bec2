//! The `train` workload: the whole of `train_model` on an 800-entity
//! fb237-like split, followed by `evaluate_table` for `mrr` (the paper's
//! offline time, Fig. 6b). Step timings come from a thin wrapper that
//! times each `QueryModel::train_batch` call from outside.

use crate::calib::Calib;
use crate::config::TrainSpec;
use crate::report::Report;
use crate::stats::{self, Summary};
use crate::tracefile;
use halk_core::eval::row_average;
use halk_core::{
    evaluate_table, train_model, HalkConfig, HalkModel, QueryModel, ScoreCache, TrainConfig,
    TrainExample,
};
use halk_kg::{generate, DatasetSplit, SynthConfig};
use halk_logic::plan::{execute_set, PlanBindings, PlanShape};
use halk_logic::{Query, Sampler, Structure};
use halk_nn::ParamStore;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::time::Instant;

/// Every input is fixed — graph, split, initialisation, training sampler
/// and evaluation set — so `mrr` and the final-parameter checksum are the
/// same on every run of one build; `--seed` changes nothing here (a
/// sampler seed would move `mrr` by more than any bound worth gating).
const GRAPH_SEED: u64 = 3;
const SPLIT_SEED: u64 = 7;
const TRAIN_SEED: u64 = 13;
const EVAL_SEED: u64 = 11;
/// Identical trainings per run, pooled.
const REPS: usize = 3;
/// Timed set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 300;
/// Set-ups between two reference runs.
const SETUP_GROUP: usize = 25;

/// Training steps between two reference runs (about a second).
const STEPS_PER_REF: usize = 50;

/// `HalkModel` with every `train_batch` call timed: entry/exit instants,
/// so the gap before a call is the loop's own sampling and bookkeeping.
/// With a `calib`, a reference run follows every `STEPS_PER_REF` steps.
struct Timed<'c> {
    inner: HalkModel,
    calls: Vec<(Instant, Instant)>,
    nonfinite: usize,
    calib: Option<&'c Calib>,
}

impl QueryModel for Timed<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn supports(&self, s: Structure) -> bool {
        self.inner.supports(s)
    }
    fn train_batch(&mut self, batch: &[TrainExample]) -> f32 {
        let t0 = Instant::now();
        let loss = self.inner.train_batch(batch);
        self.calls.push((t0, Instant::now()));
        if !loss.is_finite() {
            self.nonfinite += 1;
        }
        if let Some(c) = self
            .calib
            .filter(|_| self.calls.len().is_multiple_of(STEPS_PER_REF))
        {
            c.measure();
        }
        loss
    }
    fn score_all(&self, query: &Query) -> Vec<f32> {
        self.inner.score_all(query)
    }
    fn n_entities(&self) -> usize {
        self.inner.n_entities()
    }
    fn set_threads(&mut self, threads: usize) {
        self.inner.set_threads(threads)
    }
    fn score_cache(&self) -> Option<ScoreCache> {
        self.inner.score_cache()
    }
    fn score_all_cached(&self, query: &Query, cache: &ScoreCache) -> Vec<f32> {
        self.inner.score_all_cached(query, cache)
    }
    fn param_store(&self) -> Option<&ParamStore> {
        QueryModel::param_store(&self.inner)
    }
    fn param_store_mut(&mut self) -> Option<&mut ParamStore> {
        QueryModel::param_store_mut(&mut self.inner)
    }
}

fn halk_config(spec: &TrainSpec) -> HalkConfig {
    HalkConfig {
        dim: spec.dim,
        batch_size: spec.batch_size,
        ..HalkConfig::default()
    }
}

/// Builds the split and the model: the timed set-up.
fn set_up(spec: &TrainSpec) -> (DatasetSplit, HalkModel) {
    let g = generate(
        &SynthConfig {
            n_entities: spec.n_entities,
            ..SynthConfig::fb237_like()
        },
        &mut StdRng::seed_from_u64(GRAPH_SEED),
    );
    let split = DatasetSplit::nested(&g, 0.8, 0.1, &mut StdRng::seed_from_u64(SPLIT_SEED));
    let model = HalkModel::new(&split.train, halk_config(spec));
    (split, model)
}

/// FNV-1a over every parameter's value bits, in store order.
fn checksum(store: &ParamStore) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for i in 0..store.len() {
        for v in &store.value(store.param_id(i)).data {
            for b in v.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

struct Trained {
    model: HalkModel,
    split: DatasetSplit,
    steps_us: Vec<f64>,
    gaps_us: Vec<f64>,
    wall_s: f64,
    /// CPU time of `train_model` less its reference runs, scaled by them
    /// (0 without a calibration).
    nominal_cpu_s: f64,
    raw_cpu_s: f64,
    examples: usize,
    rollbacks: usize,
}

/// One `train_model` run; with `calib`, reference runs are spread
/// through it.
fn train(spec: &TrainSpec, calib: Option<&Calib>, report: &mut Report) -> Result<Trained, String> {
    let (split, model) = set_up(spec);
    let mut timed = Timed {
        inner: model,
        calls: Vec::with_capacity(spec.steps),
        nonfinite: 0,
        calib,
    };
    let tc = TrainConfig {
        steps: spec.steps,
        batch_size: spec.batch_size,
        seed: TRAIN_SEED,
        threads: 0,
        ..TrainConfig::default()
    };
    let mark = calib.map(|c| {
        let m = c.mark();
        c.measure();
        m
    });
    let spent0 = calib.map_or((0.0, 0.0), Calib::spent_s);
    let cpu0 = crate::daemon::cpu_s(SELF_STAT)?;
    let stats = train_model(&mut timed, &split.train, &Structure::training(), &tc)
        .map_err(|e| format!("train_model: {e}"))?;
    let cpu1 = crate::daemon::cpu_s(SELF_STAT)?;
    let spent1 = calib.map_or((0.0, 0.0), Calib::spent_s);
    let (ref_cpu_s, ref_wall_s) = (spent1.0 - spent0.0, spent1.1 - spent0.1);
    let raw_cpu_s = cpu1 - cpu0 - ref_cpu_s;
    if timed.nonfinite > 0 || stats.losses.iter().any(|l| !l.is_finite()) {
        report.fail(format!("{} non-finite training losses", timed.nonfinite));
    }
    if stats.rollbacks > 0 {
        report.fail(format!("{} training rollbacks", stats.rollbacks));
    }
    let us = |a: Instant, b: Instant| b.duration_since(a).as_nanos() as f64 / 1e3;
    let steps_us = timed.calls.iter().map(|&(a, b)| us(a, b)).collect();
    let gaps_us = timed.calls.windows(2).map(|w| us(w[0].1, w[1].0)).collect();
    Ok(Trained {
        examples: timed.calls.len() * spec.batch_size,
        model: timed.inner,
        split,
        steps_us,
        gaps_us,
        wall_s: stats.wall.as_secs_f64() - ref_wall_s,
        nominal_cpu_s: calib
            .zip(mark)
            .map_or(0.0, |(c, m)| c.scale_since(m, raw_cpu_s)),
        raw_cpu_s,
        rollbacks: stats.rollbacks,
    })
}

/// A hash of this benchmark binary, which links the training code: runs
/// of one build share it, and a build that changes the arithmetic gets a
/// checksum record of its own.
fn build_id() -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("{}: {e}", exe.display()))?;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    bytes.hash(&mut h);
    Ok(format!("{:016x}", h.finish()))
}

/// Compares this run's final parameters with the checksum an earlier run
/// of the same build recorded in `state_dir`, and records it when none
/// exists yet.
fn check_checksum(spec: &TrainSpec, store: &ParamStore, state_dir: &Path, report: &mut Report) {
    let sum = format!("{:016x}", checksum(store));
    let build = match build_id() {
        Ok(b) => b,
        Err(e) => return report.fail(format!("cannot identify the build: {e}")),
    };
    let path = state_dir.join(format!(
        "train-checksum-{build}-e{}-d{}-b{}-s{}",
        spec.n_entities, spec.dim, spec.batch_size, spec.steps
    ));
    match std::fs::read_to_string(&path) {
        Ok(prev) if prev.trim() != sum => report.fail(format!(
            "final-parameter checksum {sum} differs from an earlier run's {} on this build",
            prev.trim()
        )),
        Ok(_) => {}
        Err(_) => {
            if let Err(e) = std::fs::write(&path, &sum) {
                report.fail(format!("cannot record checksum: {e}"));
            }
        }
    }
    eprintln!("perfbench: final-parameter checksum {sum}");
}

fn mrr(model: &HalkModel, split: &DatasetSplit, spec: &TrainSpec) -> (f64, usize) {
    let row = evaluate_table(
        model,
        split,
        &Structure::training(),
        spec.eval_queries,
        EVAL_SEED,
    );
    let n = row.iter().filter_map(|(_, c)| c.map(|c| c.n_queries)).sum();
    (row_average(&row, |m| m.mrr), n)
}

fn peak_rss_self() -> Result<f64, String> {
    crate::daemon::peak_rss_mb("/proc/self/status")
}

const SELF_STAT: &str = "/proc/self/stat";

/// The untraced run: every end-to-end metric. Set-up times and
/// training CPU time are calibrated (see `calib`).
pub fn run(spec: &TrainSpec, state_dir: &Path, report: &mut Report) -> Result<(), String> {
    let calib = Calib::new(halk_par::auto_threads());
    // The set-ups are timed in parts, one before each training and one
    // after the last, so their median pools the host's faster and slower
    // moments over the whole run; reference runs fall between groups of
    // them.
    let groups = SETUP_REPS.div_ceil((REPS + 1) * SETUP_GROUP);
    let (mut setups, mut raw_setups) = (Vec::new(), Vec::new());
    let mut time_setups = || {
        let mark = calib.mark();
        let mut part = Vec::new();
        for _ in 0..groups {
            calib.measure();
            for _ in 0..SETUP_GROUP {
                let t = Instant::now();
                std::hint::black_box(set_up(spec));
                part.push(t.elapsed().as_secs_f64());
            }
        }
        calib.measure();
        setups.extend(part.iter().map(|&t| calib.scale_since(mark, t)));
        raw_setups.extend(part);
    };
    // `REPS` identical trainings: their step samples pool (a p99 over
    // more samples and more of the host's time), and their parameters
    // must agree bit for bit.
    let (mut steps_us, mut examples, mut wall_s) = (Vec::new(), 0usize, 0.0f64);
    let (mut nominal_cpu_s, mut raw_cpu_s) = (0.0f64, 0.0f64);
    let mut first: Option<(u64, f64, usize)> = None;
    for _ in 0..REPS {
        time_setups();
        let t = train(spec, Some(&calib), report)?;
        report.attempted += t.steps_us.len() as u64;
        report.failed += t.rollbacks as u64;
        steps_us.extend(&t.steps_us);
        examples += t.examples;
        wall_s += t.wall_s;
        nominal_cpu_s += t.nominal_cpu_s;
        raw_cpu_s += t.raw_cpu_s;
        let sum = checksum(t.model.param_store());
        match first {
            None => {
                check_checksum(spec, t.model.param_store(), state_dir, report);
                let (mrr, n_eval) = mrr(&t.model, &t.split, spec);
                first = Some((sum, mrr, n_eval));
            }
            Some((want, _, _)) if want != sum => {
                report.fail("the trainings of one run ended with different parameters".into())
            }
            Some(_) => {}
        }
    }
    time_setups();
    let (_, mrr, n_eval) = first.expect("at least one training");
    report.metric(
        "setup_s",
        stats::median(&setups).expect("reps"),
        "s",
        setups.len(),
    );
    report.note(
        "setup_s.raw",
        stats::median(&raw_setups).expect("reps"),
        "s",
        raw_setups.len(),
    );
    report.metric("rss_mb", peak_rss_self()?, "MB", 1);
    match Summary::of(&steps_us) {
        Ok(s) => {
            report.note("p50_us", s.p50, "us", s.n);
            report.note("p99_us", s.p99, "us", s.n);
        }
        Err(e) => report.fail(format!("train steps: {e}")),
    }
    let per_op = |cpu_s: f64| cpu_s * 1e6 / examples as f64;
    report.metric("cpu_us_per_op", per_op(nominal_cpu_s), "us", examples);
    report.note("cpu_us_per_op.raw", per_op(raw_cpu_s), "us", examples);
    report.note("calib.ref_us", calib.mean_ref_us(), "us", calib.runs());
    report.note(
        "throughput_per_s",
        examples as f64 / wall_s,
        "1/s",
        steps_us.len(),
    );
    report.metric("mrr", mrr, "1", n_eval);
    Ok(())
}

/// The traced run: the training-layer metrics, measured around
/// `train_model` (which runs with `HALK_TRACE` on in this process) and by
/// timing `ParamStore::adam_step`, `execute_set` and `score_all` directly.
pub fn run_traced(spec: &TrainSpec, workdir: &Path, report: &mut Report) -> Result<(), String> {
    // Untraced first, for the tracing overhead.
    let plain = train(spec, None, report)?;
    let trace_path = workdir.join("train-trace.jsonl");
    halk_obs::trace::init_trace(&trace_path).map_err(|e| format!("trace file: {e}"))?;
    // Two traced trainings, pooled, so the step p99 has enough samples.
    let mut traced = train(spec, None, report)?;
    let again = train(spec, None, report)?;
    halk_obs::trace::flush();
    if checksum(again.model.param_store()) != checksum(traced.model.param_store()) {
        report.fail("the traced trainings ended with different parameters".into());
    }
    traced.steps_us.extend(again.steps_us);
    traced.gaps_us.extend(again.gaps_us);
    traced.wall_s += again.wall_s;
    traced.rollbacks += again.rollbacks;
    report.attempted += (plain.steps_us.len() + traced.steps_us.len()) as u64;
    report.failed += (plain.rollbacks + traced.rollbacks) as u64;
    if checksum(plain.model.param_store()) != checksum(traced.model.param_store()) {
        report.fail("traced and untraced runs trained different parameters".into());
    }
    let (spans, _) = tracefile::parse(&trace_path)?;
    let setup_us = tracefile::span_durations(&spans, "train_pool_setup");
    let steps = Summary::of(&traced.steps_us).map_err(|e| format!("train steps: {e}"))?;
    let plain_p50 = stats::median(&plain.steps_us).unwrap_or(0.0);

    // Adam on a copy of the trained store (its gradients are from the last
    // step), so the update itself is timed without a forward pass.
    let mut store = traced.model.param_store().clone();
    let mut adam = Vec::new();
    for _ in 0..50 {
        let t = Instant::now();
        store.adam_step(traced.model.config().lr);
        adam.push(t.elapsed().as_nanos() as f64 / 1e6);
    }
    let adam_ms = stats::median(&adam).expect("samples");

    // Exact plan execution on training-pool-like queries, and scoring on
    // evaluation-like queries.
    let sampler = Sampler::new(&traced.split.train);
    let mut rng = StdRng::seed_from_u64(EVAL_SEED);
    let (mut exec, mut score) = (Vec::new(), Vec::new());
    for s in Structure::training() {
        for gq in sampler.sample_many(s, 20, &mut rng) {
            let shape = PlanShape::compile(&gq.query);
            let b = PlanBindings::of(&gq.query);
            let t = Instant::now();
            std::hint::black_box(execute_set(&shape, &b, &traced.split.train));
            exec.push(t.elapsed().as_nanos() as f64 / 1e3);
            let t = Instant::now();
            std::hint::black_box(traced.model.score_all(&gq.query));
            score.push(t.elapsed().as_nanos() as f64 / 1e3);
        }
    }

    let r = report;
    for (name, unit) in [
        ("model.embed_us", "us"),
        ("shard.topk_us", "us"),
        ("shard.rows_per_req", "count"),
        ("exec.overhead_us", "us"),
        ("server.queue_wait_p50_us", "us"),
        ("server.queue_wait_p99_us", "us"),
        ("server.batch_size_mean", "count"),
        ("pool.busy_frac", "1"),
        ("protocol.codec_us", "us"),
        ("sparql.parse_us", "us"),
        ("engine.prepare_us", "us"),
        ("plan.cache_hit_ratio", "1"),
        ("wire.session_us", "us"),
        ("snap.read_ms", "ms"),
        ("engine.boot_ms", "ms"),
        ("trig.resident_bytes", "bytes"),
    ] {
        r.metric_absent(name, unit);
    }
    r.metric(
        "plan.exec_us",
        stats::median(&exec).unwrap_or(0.0),
        "us",
        exec.len(),
    );
    r.metric(
        "train.pool_setup_s",
        stats::median(&setup_us).unwrap_or(0.0) / 1e6,
        "s",
        setup_us.len(),
    );
    r.metric(
        "sampler.sample_us",
        stats::median(&traced.gaps_us).unwrap_or(0.0),
        "us",
        traced.gaps_us.len(),
    );
    r.metric("train.step_p50_ms", steps.p50 / 1e3, "ms", steps.n);
    r.metric("train.step_p99_ms", steps.p99 / 1e3, "ms", steps.n);
    r.metric("nn.adam_ms", adam_ms, "ms", adam.len());
    r.metric("train.fwd_bwd_ms", steps.p50 / 1e3 - adam_ms, "ms", steps.n);
    r.metric(
        "train.rollbacks",
        (plain.rollbacks + traced.rollbacks) as f64,
        "count",
        2,
    );
    r.metric(
        "eval.score_us",
        stats::median(&score).unwrap_or(0.0),
        "us",
        score.len(),
    );
    r.metric_absent("loadgen.lag_p99_us", "us");
    r.metric(
        "trace.overhead_frac",
        steps.p50 / plain_p50 - 1.0,
        "1",
        steps.n,
    );
    // A step is the sampling gap plus the train_batch call; the named
    // layers are the sampler, the forward/backward pass and Adam.
    let named = stats::median(&traced.gaps_us).unwrap_or(0.0) + steps.p50;
    let wall_per_step = traced.wall_s * 1e6 / traced.steps_us.len().max(1) as f64;
    r.metric("coverage", named / wall_per_step, "1", steps.n);
    Ok(())
}
