//! Hot-path regression harness (ISSUE PR 2, extended in PRs 3–4): times the
//! kernels the whole reproduction sits on — `score_all` (vectorized vs the
//! retained scalar reference), one optimizer step, sampler throughput, dense
//! `matmul`, the parallel-runtime eval/train paths at the ambient thread
//! count vs one worker, and the query-plan compiler (compile-from-scratch
//! vs a warm-cache embed) — at fixed seeds, and writes `BENCH_hotpath.json`
//! at the repo root so future changes can be diffed with `--compare`
//! (schema `halk-bench-hotpath/v8`; `--compare` still reads v1-v7
//! baselines, comparing the shared keys). The v4 schema added a
//! `tracing_overhead_disabled` entry (one `span!` open+close with no trace
//! file configured — must stay at a few ns) and a `metrics_snapshot` field
//! recording where the metrics-registry snapshot (pool busy/wall
//! histograms, plan-cache and eval counters accumulated while benching)
//! was written: `results/bench_hotpath_metrics.json` by default,
//! `--metrics-out` to override. The v5 schema adds a serving-scale pair
//! at 8000 entities, both normalized to ns per query over a group of 8
//! same-skeleton requests: `score_all_8000` (the pre-sharding serve path
//! — per request, one plan embedding, a fresh full score vector, an
//! argsort top-k) against `topk_sharded_8000` (what the serving worker
//! now runs: one batched embedding for the group, then arc-sharded
//! streaming heaps + merge-k), so `--compare` gates the sharded kernel
//! too. The v6 schema adds the serving-ready cold-start pair at 8000
//! entities / 50k triples — `tsv_boot_8000` (triple TSV parse +
//! `HalkModel::new` seeded init + checkpoint load + the sin/cos trig
//! shard build, the pre-snapshot serve boot) against `snapshot_boot_8000`
//! (`halk_snap::read_file`: one CRC-framed binary decode into the
//! `from_parts` constructors, then re-slicing the shipped TRIG table into
//! shards) — plus `score_all_8000_f32` (the same queries over a hoisted
//! trig table and output buffer). The v7 schema adds `executor_group_8000`:
//! the same 8-query group submitted through the skeleton-keyed batch
//! executor (`halk_core::exec`, ISSUE 9) with a serve-style backend, so
//! `--compare` gates the executor's envelope (keying, grouping, obs,
//! scatter) on top of the raw batched kernel it wraps. The v8 schema adds
//! the windowed-histogram record pair (ISSUE 10): `windowed_record_disarmed`
//! (the default for batch binaries — one relaxed load + branch, same
//! contract as `tracing_overhead_disabled`) and `windowed_record_armed`
//! (what a live daemon pays per latency sample).
//!
//! Usage:
//!   bench_hotpath [--smoke] [--out <path>] [--compare <old.json>]
//!                 [--metrics-out <path>]
//!
//! `--smoke` runs a seconds-scale configuration (CI sanity; does not write
//! the JSON unless `--out` is given). `--compare` exits non-zero if any
//! shared benchmark regressed by more than 15%, naming each regressed
//! entry with its slowdown percentage.

use halk_core::{
    evaluate_structure_pool, top_k_indices, ArcShards, ExecBackend, ExecConfig, Executor,
    HalkConfig, HalkModel, Pool, QueryModel, ShapeKey, ShardedTrig, TrainExample,
};
use halk_kg::{generate, DatasetSplit, Graph, SynthConfig};
use halk_logic::plan::{PlanBindings, PlanShape};
use halk_logic::{answers, Sampler, Structure};
use halk_obs::Deadline;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::{json, Value};
use std::hint::black_box;
use std::time::Instant;

/// Regression threshold for `--compare`: new median may exceed the old one
/// by at most this factor.
const REGRESSION_FACTOR: f64 = 1.15;

struct Args {
    smoke: bool,
    out: Option<String>,
    compare: Option<String>,
    metrics_out: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        out: None,
        compare: None,
        metrics_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--out" => args.out = it.next(),
            "--compare" => args.compare = it.next(),
            "--metrics-out" => args.metrics_out = it.next(),
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!(
                    "usage: bench_hotpath [--smoke] [--out <path>] [--compare <old.json>] \
                     [--metrics-out <path>]"
                );
                std::process::exit(2);
            }
        }
    }
    args
}

/// Times `f` over `samples` batches of `iters` calls each; returns the
/// median per-call nanoseconds (median over batches is robust to one-off
/// scheduler noise without needing many iterations).
fn median_ns(samples: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm-up (page in code, fill buffer pools)
    let mut per_call: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    per_call.sort_by(f64::total_cmp);
    per_call[per_call.len() / 2]
}

fn batch_for(g: &Graph, s: Structure, n: usize, seed: u64) -> Vec<TrainExample> {
    let sampler = Sampler::new(g);
    let mut rng = StdRng::seed_from_u64(seed);
    sampler
        .sample_many(s, n, &mut rng)
        .into_iter()
        .map(|gq| {
            let ans = answers(&gq.query, g);
            let positive = ans.iter().next().expect("non-empty");
            let negatives = sampler.negatives(&ans, 16, &mut rng);
            TrainExample {
                positive,
                negatives,
                query: gq.query,
            }
        })
        .collect()
}

fn main() {
    let args = parse_args();
    // Pool/plan/eval metrics accumulate while benching; the snapshot at the
    // end captures them. HALK_TRACE works here like everywhere else.
    halk_core::obs::install();
    halk_obs::trace::init_from_env();
    // (samples, iters) per benchmark family: enough for a stable median at
    // full scale, seconds total under --smoke.
    let (samples, iters) = if args.smoke { (3, 3) } else { (9, 20) };
    let cfg = if args.smoke {
        HalkConfig::tiny()
    } else {
        HalkConfig::default()
    };
    let matmul_n = if args.smoke { 32 } else { 128 };

    let g = generate(&SynthConfig::fb237_like(), &mut StdRng::seed_from_u64(1));
    let mut model = HalkModel::new(&g, cfg.clone());
    let sampler = Sampler::new(&g);

    // A multi-branch (union) query plus a plain projection: the two shapes
    // online answering spends its time in.
    let up = sampler
        .sample(Structure::Up, &mut StdRng::seed_from_u64(3))
        .expect("groundable up query");
    let p2 = sampler
        .sample(Structure::P2, &mut StdRng::seed_from_u64(4))
        .expect("groundable p2 query");

    let mut results: Vec<(String, Value)> = Vec::new();
    let mut record = |name: &str, ns: f64, iters: usize| {
        println!("{name:24} {ns:>12.0} ns/op   ({iters} iters/sample)");
        results.push((name.to_string(), json!({ "median_ns": ns, "iters": iters })));
    };

    // --- score_all: vectorized kernel (public path) vs scalar reference.
    let ns_vec = median_ns(samples, iters, || {
        black_box(model.score_all(&up.query));
    });
    record("score_all_up", ns_vec, iters);
    let ns_scalar = median_ns(samples, iters, || {
        black_box(model.score_all_scalar(&up.query));
    });
    record("score_all_up_scalar", ns_scalar, iters);
    let ns_vec_p2 = median_ns(samples, iters, || {
        black_box(model.score_all(&p2.query));
    });
    record("score_all_p2", ns_vec_p2, iters);
    let ns_scalar_p2 = median_ns(samples, iters, || {
        black_box(model.score_all_scalar(&p2.query));
    });
    record("score_all_p2_scalar", ns_scalar_p2, iters);
    // Amortized shape (what prune::candidate_set does): entity trig and the
    // output buffer hoisted out of the loop.
    let trig = model.entity_trig();
    let mut scores = Vec::new();
    let ns_amort = median_ns(samples, iters, || {
        model.score_all_with(&trig, &up.query, &mut scores);
        black_box(&scores);
    });
    record("score_all_up_cached_trig", ns_amort, iters);

    // --- query-plan compiler (PR 4): one cold compile (DNF rewrite + slot
    // dedup + binding extraction) vs a full embed through the warm
    // per-structure cache — the amortization the plan IR buys.
    let ns_compile = median_ns(samples, iters, || {
        let shape = PlanShape::compile(&up.query);
        let bindings = PlanBindings::of(&up.query);
        black_box((shape, bindings));
    });
    record("plan_compile_up", ns_compile, iters);
    let ns_embed_cached = median_ns(samples, iters, || {
        black_box(model.embed_query(&up.query));
    });
    record("embed_up_cached_plan", ns_embed_cached, iters);

    // --- disabled-tracing overhead: one span open+close with no trace file
    // configured must cost a few ns (one relaxed atomic load and an inert
    // guard drop). This is the zero-cost-when-disabled contract of
    // halk-obs; regressions here slow every instrumented hot path.
    let span_iters = 10_000;
    let ns_span = median_ns(samples, span_iters, || {
        let guard = halk_obs::span!("bench_disabled_span");
        black_box(&guard);
    });
    record("tracing_overhead_disabled", ns_span, span_iters);

    // --- windowed-histogram record path (PR 10). Disarmed (the default
    // for every batch binary) must cost one relaxed load + branch, the
    // same contract as disabled tracing; the unconditional path is what a
    // live daemon pays per latency sample — an Acquire slot-index load
    // plus two relaxed fetch_adds.
    let wh = halk_obs::window::histogram("bench_windowed_record_us");
    let ns_disarmed = median_ns(samples, span_iters, || {
        wh.record(black_box(137));
    });
    record("windowed_record_disarmed", ns_disarmed, span_iters);
    let ns_armed = median_ns(samples, span_iters, || {
        wh.record_unconditional(black_box(137));
    });
    record("windowed_record_armed", ns_armed, span_iters);

    // --- one optimizer step (embed + loss + backward + Adam), pooled tape.
    let batch = batch_for(&g, Structure::Pi, cfg.batch_size, 2);
    let train_iters = if args.smoke { 2 } else { 5 };
    let ns_train = median_ns(samples, train_iters, || {
        black_box(model.train_batch(&batch));
    });
    record("train_step_pi", ns_train, train_iters);

    // --- sampler throughput (queries/s feeds the training loop).
    let n_q = if args.smoke { 8 } else { 64 };
    let mut srng = StdRng::seed_from_u64(5);
    let ns_sample = median_ns(samples, iters, || {
        black_box(sampler.sample_many(Structure::Pi, n_q, &mut srng));
    });
    record("sampler_pi_batch", ns_sample, iters);

    // --- dense matmul (the MLP workhorse), branch-free inner loop.
    let mut mrng = StdRng::seed_from_u64(6);
    let a = halk_nn::init::uniform(matmul_n, matmul_n, -1.0, 1.0, &mut mrng);
    let b = halk_nn::init::uniform(matmul_n, matmul_n, -1.0, 1.0, &mut mrng);
    let ns_matmul = median_ns(samples, iters, || {
        black_box(a.matmul(&b));
    });
    record(&format!("matmul_{matmul_n}"), ns_matmul, iters);

    // --- parallel runtime (PR 3): an evaluation sweep and a training step
    // at the ambient thread count vs one worker. Thread counts and the
    // host's hardware parallelism are recorded so speedups are read in
    // context (on a single-core host both pools collapse to one worker and
    // the ratio is ~1.0 by construction).
    let threads = halk_par::auto_threads();
    let hardware_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let split = DatasetSplit::nested(&g, 0.8, 0.1, &mut StdRng::seed_from_u64(7));
    let eval_q = if args.smoke { 4 } else { 16 };
    let ns_eval_1 = median_ns(samples, 1, || {
        black_box(evaluate_structure_pool(
            &model,
            &split,
            Structure::P2,
            eval_q,
            11,
            Pool::new(1),
        ));
    });
    let ns_eval_n = median_ns(samples, 1, || {
        black_box(evaluate_structure_pool(
            &model,
            &split,
            Structure::P2,
            eval_q,
            11,
            Pool::new(threads),
        ));
    });
    let eval_speedup = ns_eval_1 / ns_eval_n;
    println!("eval_parallel            {ns_eval_n:>12.0} ns/op   ({threads} threads, {eval_speedup:.2}x vs 1 thread)");
    results.push((
        "eval_parallel".to_string(),
        json!({
            "median_ns": ns_eval_n,
            "iters": 1,
            "threads": threads,
            "baseline_1thread_ns": ns_eval_1,
            "speedup_vs_1thread": eval_speedup,
        }),
    ));

    model.set_threads(1);
    let ns_train_1 = median_ns(samples, train_iters, || {
        black_box(model.train_batch(&batch));
    });
    model.set_threads(threads);
    let ns_train_n = median_ns(samples, train_iters, || {
        black_box(model.train_batch(&batch));
    });
    model.set_threads(0);
    let train_speedup = ns_train_1 / ns_train_n;
    println!("train_step_parallel      {ns_train_n:>12.0} ns/op   ({threads} threads, {train_speedup:.2}x vs 1 thread)");
    results.push((
        "train_step_parallel".to_string(),
        json!({
            "median_ns": ns_train_n,
            "iters": train_iters,
            "threads": threads,
            "baseline_1thread_ns": ns_train_1,
            "speedup_vs_1thread": train_speedup,
        }),
    ));

    // --- sharded streaming top-k (PR 7) at serving scale: 8000 entities,
    // same config otherwise. `score_all_8000` is the pre-sharding serve
    // path — a fresh full score vector plus `top_k_indices` argsort per
    // request, repeated for each request in a group of 8; `topk_sharded_8000`
    // is what `halk serve`'s worker now runs for that same group: one batched
    // plan embedding (`scorers_for_shape`, B = 8) plus one sharded sweep — 8
    // arc shards streamed through bounded heaps, each trig slice visited once
    // for the whole group, merged by rank, never materializing the O(n)
    // vector. Both report ns *per query*. One worker on purpose: the win
    // measured here is embed amortization plus the avoided per-request
    // allocations and the 4 KB slice working set, not parallelism.
    let g8 = generate(
        &SynthConfig {
            n_entities: 8000,
            ..SynthConfig::fb237_like()
        },
        &mut StdRng::seed_from_u64(8),
    );
    let model8 = HalkModel::new(&g8, cfg.clone());
    let sampler8 = Sampler::new(&g8);
    let mut rng8 = StdRng::seed_from_u64(9);
    let group8: Vec<_> = (0..64)
        .filter_map(|_| sampler8.sample(Structure::P2, &mut rng8))
        .map(|gq| gq.query)
        .take(8)
        .collect();
    assert_eq!(group8.len(), 8, "8 groundable p2 queries");
    let trig8 = model8.entity_trig();
    let sharded8 = model8.entity_shards(8);
    let pool1 = Pool::new(1);
    let never = Deadline::never();
    let ns_full8 = median_ns(samples, iters, || {
        for q in &group8 {
            let mut scores = Vec::new();
            model8.score_all_with(&trig8, q, &mut scores);
            black_box(top_k_indices(&scores, 10));
        }
    }) / group8.len() as f64;
    println!("score_all_8000           {ns_full8:>12.0} ns/op   ({iters} iters/sample)");
    results.push((
        "score_all_8000".to_string(),
        json!({
            "median_ns": ns_full8,
            "iters": iters,
            "n_entities": 8000,
            "k": 10,
            "group": group8.len(),
        }),
    ));
    let shape8 = PlanShape::compile(&group8[0]);
    let ks8 = [10usize; 8];
    let deadlines8 = [&never; 8];
    let ns_sharded8 = median_ns(samples, iters, || {
        let refs: Vec<&halk_logic::Query> = group8.iter().collect();
        let scorers = model8.scorers_for_shape(&shape8, &refs);
        black_box(halk_core::sharded_top_k(
            &pool1,
            &sharded8,
            &scorers,
            &ks8,
            &deadlines8,
        ));
    }) / group8.len() as f64;
    println!("topk_sharded_8000        {ns_sharded8:>12.0} ns/op   ({iters} iters/sample)");
    results.push((
        "topk_sharded_8000".to_string(),
        json!({
            "median_ns": ns_sharded8,
            "iters": iters,
            "n_entities": 8000,
            "k": 10,
            "group": group8.len(),
            "shards": 8,
            "pool_threads": 1,
        }),
    ));
    let sharded_speedup = ns_full8 / ns_sharded8;

    // --- the skeleton-keyed batch executor (ISSUE 9): the same 8-query
    // group pushed through `Executor::submit` with a serve-style backend.
    // Keying, group formation, obs accounting, and the scatter back to
    // submission order all ride on top of the batched embed + sharded
    // sweep `topk_sharded_8000` times in isolation, so the pair prices the
    // executor's envelope — the derived overhead ratio must stay ~1.0.
    struct BenchServe<'a> {
        model: &'a HalkModel,
    }
    impl ExecBackend for BenchServe<'_> {
        type Job = halk_logic::Query;
        type Out = Vec<u32>;
        fn key_of(&self, exec: &Executor, job: &Self::Job) -> Option<ShapeKey> {
            Some(ShapeKey::new(exec.shape_for(job)))
        }
        fn exec_group(
            &self,
            exec: &Executor,
            key: Option<&ShapeKey>,
            jobs: &[&Self::Job],
        ) -> Vec<Vec<u32>> {
            let shape = key.expect("bench jobs carry shapes").shape();
            let sharded = exec.sharded_trig(self.model);
            let refs: Vec<&halk_logic::Query> = jobs.to_vec();
            let scorers = exec.scorers_for_group(self.model, shape, &refs);
            let never = Deadline::never();
            let ks = vec![10usize; jobs.len()];
            let deadlines: Vec<&Deadline> = jobs.iter().map(|_| &never).collect();
            halk_core::sharded_top_k(&exec.pool(), &sharded, &scorers, &ks, &deadlines)
                .into_iter()
                .map(|(hits, _)| hits.into_iter().map(|(e, _)| e).collect())
                .collect()
        }
    }
    let exec8 = Executor::new(ExecConfig {
        threads: 1,
        shards: 8,
        label: "model_batch",
        ..ExecConfig::default()
    });
    let _ = exec8.sharded_trig(&model8); // warm the resident tables, like a serve boot
    let backend8 = BenchServe { model: &model8 };
    let ns_exec8 = median_ns(samples, iters, || {
        black_box(exec8.submit(&backend8, &group8));
    }) / group8.len() as f64;
    println!("executor_group_8000      {ns_exec8:>12.0} ns/op   ({iters} iters/sample)");
    results.push((
        "executor_group_8000".to_string(),
        json!({
            "median_ns": ns_exec8,
            "iters": iters,
            "n_entities": 8000,
            "k": 10,
            "group": group8.len(),
            "shards": 8,
            "pool_threads": 1,
        }),
    ));
    let executor_overhead = ns_exec8 / ns_sharded8;

    // --- full-vector scoring: the same 8-query group swept over the
    // hoisted f32 trig table with a reusable output buffer, so the number
    // isolates the kernel, not allocation.
    let mut qscores = Vec::new();
    let ns_q_f32 = median_ns(samples, iters, || {
        for q in &group8 {
            model8.score_all_with(&trig8, q, &mut qscores);
            black_box(&qscores);
        }
    }) / group8.len() as f64;
    println!("score_all_8000_f32       {ns_q_f32:>12.0} ns/op   ({iters} iters/sample)");
    results.push((
        "score_all_8000_f32".to_string(),
        json!({
            "median_ns": ns_q_f32,
            "iters": iters,
            "n_entities": 8000,
            "group": group8.len(),
            "trig_resident_bytes": trig8.resident_bytes(),
        }),
    ));

    // --- cold start (ISSUE 8): the two ways `halk serve` can reach a
    // *serving-ready* engine — graph loaded, model restored, shard-local
    // trig tables built — at the 10x Table VI scale (8000 entities and a
    // realistically dense 50k triples; the full-vector scoring graph
    // above keeps the sparser seed for schema continuity). The TSV path is what
    // boot cost before snapshots: parse the triple TSV, pay
    // `HalkModel::new`'s O(n_entities * dim) seeded init plus the grouping
    // sweep, load the checkpoint (values + Adam moments), then compute the
    // sin/cos trig sweep. The snapshot path is one CRC-verified binary
    // decode whose TRIG section is re-sliced into shards without any
    // recompute. Medians over single boots (a boot is a one-shot event;
    // batching would hide allocator effects).
    let boot_cfg = SynthConfig {
        n_entities: 8000,
        n_triples: 50_000,
        ..SynthConfig::fb237_like()
    };
    let boot_g = generate(&boot_cfg, &mut StdRng::seed_from_u64(9));
    let boot_model = HalkModel::new(&boot_g, cfg.clone());
    let boot_shards = 4usize;
    let boot_dir = std::env::temp_dir().join(format!("halk_bench_boot_{}", std::process::id()));
    std::fs::create_dir_all(&boot_dir).expect("create boot scratch dir");
    let tsv_path = boot_dir.join("g8.tsv");
    let model_dir = boot_dir.join("model8");
    let snap_path = boot_dir.join("g8.snap");
    halk_kg::tsv::save(&boot_g, &tsv_path).expect("write tsv");
    boot_model.save(&model_dir).expect("write model dir");
    halk_snap::write_file(&snap_path, &boot_g, &boot_model).expect("write snapshot");
    let boot_samples = if args.smoke { 3 } else { 7 };
    let ns_tsv_boot = median_ns(boot_samples, 1, || {
        let g = halk_kg::tsv::load(&tsv_path).expect("tsv boot: graph");
        let m = HalkModel::load(&g, &model_dir).expect("tsv boot: model");
        let sharded = m.entity_shards(boot_shards);
        black_box((g, m, sharded));
    });
    println!("tsv_boot_8000            {ns_tsv_boot:>12.0} ns/op   (1 iters/sample)");
    results.push((
        "tsv_boot_8000".to_string(),
        json!({
            "median_ns": ns_tsv_boot,
            "iters": 1,
            "n_entities": 8000,
            "n_triples": boot_g.n_triples(),
            "shards": boot_shards,
        }),
    ));
    let ns_snap_boot = median_ns(boot_samples, 1, || {
        let (g, m, trig) = halk_snap::read_file(&snap_path).expect("snapshot boot");
        let parts = ArcShards::new(trig.n_entities(), boot_shards);
        let sharded = ShardedTrig::from_table(&trig, &parts);
        drop(trig); // the engine keeps only the shard slices resident
        black_box((g, m, sharded));
    });
    println!("snapshot_boot_8000       {ns_snap_boot:>12.0} ns/op   (1 iters/sample)");
    results.push((
        "snapshot_boot_8000".to_string(),
        json!({
            "median_ns": ns_snap_boot,
            "iters": 1,
            "n_entities": 8000,
            "n_triples": boot_g.n_triples(),
            "shards": boot_shards,
            "snapshot_bytes": std::fs::metadata(&snap_path).map_or(0, |m| m.len()),
        }),
    ));
    let boot_speedup = ns_tsv_boot / ns_snap_boot;
    // Both boots must land on the same deployment: snapshot answers are
    // bit-identical to the TSV path's by construction — spot-check it here
    // so the speedup number can never be quoted for a divergent decode.
    {
        let (gs, ms, trig_s) = halk_snap::read_file(&snap_path).expect("snapshot boot");
        let gt = halk_kg::tsv::load(&tsv_path).expect("tsv boot: graph");
        let mt = HalkModel::load(&gt, &model_dir).expect("tsv boot: model");
        assert_eq!(gs.triples(), gt.triples(), "snapshot graph drifted");
        let probe = {
            let t = boot_g.triples()[0];
            halk_logic::Query::atom(t.h, t.r)
        };
        assert_eq!(
            ms.score_all(&probe),
            mt.score_all(&probe),
            "snapshot model scores drifted"
        );
        // The shipped trig scores the same bits as a fresh TSV-side build.
        let mut via_snap = Vec::new();
        ms.score_all_with(&trig_s, &probe, &mut via_snap);
        assert_eq!(via_snap, mt.score_all(&probe), "snapshot trig drifted");
    }
    let _ = std::fs::remove_dir_all(&boot_dir);

    let speedup = ns_scalar / ns_vec;
    let speedup_p2 = ns_scalar_p2 / ns_vec_p2;
    println!("score_all speedup vs scalar: up {speedup:.2}x, p2 {speedup_p2:.2}x");
    println!("topk_sharded_8000 vs score_all_8000: {sharded_speedup:.2}x");
    println!("executor_group_8000 vs topk_sharded_8000: {executor_overhead:.2}x envelope");
    println!("snapshot_boot_8000 vs tsv_boot_8000: {boot_speedup:.2}x");

    // Snapshot the metrics the instrumented paths accumulated while
    // benching (pool regions, plan-cache hits/misses, eval counters).
    let metrics_path = args
        .metrics_out
        .clone()
        .unwrap_or_else(|| "results/bench_hotpath_metrics.json".to_string());
    match halk_obs::metrics::write_snapshot(&metrics_path) {
        Ok(()) => println!("metrics snapshot written to {metrics_path}"),
        Err(e) => halk_obs::log!(Error, "cannot write metrics snapshot {metrics_path}: {e}"),
    }

    let report = json!({
        "schema": "halk-bench-hotpath/v8",
        "metrics_snapshot": metrics_path,
        "config": json!({
            "smoke": args.smoke,
            "dim": cfg.dim,
            "n_entities": g.n_entities(),
            "n_relations": g.n_relations(),
            "batch_size": cfg.batch_size,
            "matmul_n": matmul_n,
            "samples": samples,
            "seed": 1,
            "threads": threads,
            "hardware_threads": hardware_threads,
            "tracing_enabled": halk_obs::trace::enabled(),
        }),
        "results": Value::Object(results),
        "derived": json!({
            "score_all_up_speedup": speedup,
            "score_all_p2_speedup": speedup_p2,
            "eval_parallel_speedup": eval_speedup,
            "train_parallel_speedup": train_speedup,
            "topk_sharded_8000_speedup": sharded_speedup,
            "executor_group_8000_overhead": executor_overhead,
            "snapshot_boot_8000_speedup": boot_speedup,
        }),
    });

    // Full runs refresh the committed baseline by default; --smoke only
    // writes when asked (CI must not clobber the release-mode numbers).
    let out_path = match (&args.out, args.smoke) {
        (Some(p), _) => Some(p.clone()),
        (None, false) => Some("BENCH_hotpath.json".to_string()),
        (None, true) => None,
    };
    if let Some(path) = out_path {
        let text = serde_json::to_string_pretty(&report).expect("serialize");
        std::fs::write(&path, text + "\n").expect("write benchmark json");
        println!("wrote {path}");
    }

    if let Some(old_path) = args.compare {
        let old_text = std::fs::read_to_string(&old_path)
            .unwrap_or_else(|e| panic!("cannot read {old_path}: {e}"));
        let old: Value = serde_json::from_str(&old_text).expect("parse old json");
        std::process::exit(compare(&old, &report));
    }
}

/// Compares shared benchmark keys; returns the process exit code (0 = ok,
/// 1 = at least one regression beyond [`REGRESSION_FACTOR`]).
fn compare(old: &Value, new: &Value) -> i32 {
    let old_results = match old.get("results") {
        Some(Value::Object(fields)) => fields,
        _ => {
            eprintln!("old json has no `results` object");
            return 2;
        }
    };
    let new_results = match new.get("results") {
        Some(Value::Object(fields)) => fields,
        _ => unreachable!("report always has results"),
    };
    let mut regressed: Vec<(String, f64)> = Vec::new();
    for (name, old_entry) in old_results {
        let Some(old_ns) = old_entry.get("median_ns").and_then(Value::as_f64) else {
            continue;
        };
        let Some(new_ns) = new_results
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, e)| e.get("median_ns"))
            .and_then(Value::as_f64)
        else {
            println!("compare {name:24} (absent in new run, skipped)");
            continue;
        };
        let ratio = new_ns / old_ns;
        let verdict = if ratio > REGRESSION_FACTOR {
            regressed.push((name.clone(), (ratio - 1.0) * 100.0));
            "REGRESSION"
        } else {
            "ok"
        };
        println!("compare {name:24} {old_ns:>12.0} -> {new_ns:>12.0} ns  ({ratio:.2}x)  {verdict}");
    }
    if regressed.is_empty() {
        println!("no regressions beyond {REGRESSION_FACTOR}x");
        0
    } else {
        let list = regressed
            .iter()
            .map(|(name, pct)| format!("{name} +{pct:.1}%"))
            .collect::<Vec<_>>()
            .join(", ");
        eprintln!(
            "regression: {} entr{} slowed beyond {REGRESSION_FACTOR}x: {list}",
            regressed.len(),
            if regressed.len() == 1 { "y" } else { "ies" },
        );
        1
    }
}
