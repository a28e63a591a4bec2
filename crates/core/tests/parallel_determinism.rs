//! Determinism suite for the parallel runtime (PR 3): thread count is a
//! scheduling knob, never a semantic one. Training losses and parameters
//! and evaluation metrics must be *bit-identical* at every thread count —
//! guaranteed by fixed shard plans (batch-size-derived, not
//! thread-derived), per-shard gradient staging reduced in shard order, and
//! in-order acceptance of speculatively scored eval candidates
//! (DESIGN.md §9). Sharded top-k scoring is pinned across shard counts in
//! `sharded_topk.rs`.

use halk_core::{
    evaluate_structure_pool, evaluate_table_pool, HalkConfig, HalkModel, Pool, QueryModel,
    TrainExample,
};
use halk_kg::{generate, DatasetSplit, Graph, SynthConfig};
use halk_logic::{answers, Sampler, Structure};
use halk_nn::checkpoint;
use rand::rngs::StdRng;
use rand::SeedableRng;

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn graph() -> Graph {
    generate(&SynthConfig::fb237_like(), &mut StdRng::seed_from_u64(21))
}

/// Fixed training batches: mixed structures, batch sizes straddling the
/// shard size (under, exact, over, multi-shard-with-ragged-tail).
fn fixed_batches(g: &Graph) -> Vec<Vec<TrainExample>> {
    let sampler = Sampler::new(g);
    let mut rng = StdRng::seed_from_u64(31);
    [
        (Structure::P1, 5),
        (Structure::P2, 8),
        (Structure::Pi, 13),
        (Structure::In2, 19),
    ]
    .into_iter()
    .map(|(s, n)| {
        sampler
            .sample_many(s, n, &mut rng)
            .into_iter()
            .map(|gq| {
                let ans = answers(&gq.query, g);
                let positive = ans.iter().next().expect("non-empty");
                let negatives = sampler.negatives(&ans, 4, &mut rng);
                TrainExample {
                    query: gq.query,
                    positive,
                    negatives,
                }
            })
            .collect()
    })
    .collect()
}

/// Runs a few epochs over the fixed batches at one thread count; returns
/// the loss trajectory (as bits) and the final parameter bytes.
fn train_run(g: &Graph, threads: usize) -> (Vec<u32>, Vec<u8>) {
    let mut model = HalkModel::new(g, HalkConfig::tiny());
    model.set_threads(threads);
    let batches = fixed_batches(g);
    let mut losses = Vec::new();
    for _ in 0..3 {
        for batch in &batches {
            losses.push(model.train_batch(batch).to_bits());
        }
    }
    (losses, checkpoint::to_bytes(&model.store))
}

#[test]
fn training_is_bit_identical_at_any_thread_count() {
    let g = graph();
    let (ref_losses, ref_params) = train_run(&g, 1);
    assert!(ref_losses.iter().all(|&b| f32::from_bits(b).is_finite()));
    for threads in &THREADS[1..] {
        let (losses, params) = train_run(&g, *threads);
        assert_eq!(
            losses, ref_losses,
            "loss trajectory diverged at {threads} threads"
        );
        assert_eq!(
            params, ref_params,
            "final parameters diverged at {threads} threads"
        );
    }
}

#[test]
fn evaluation_is_bit_identical_at_any_thread_count() {
    let mut rng = StdRng::seed_from_u64(41);
    let full = graph();
    let split = DatasetSplit::nested(&full, 0.8, 0.1, &mut rng);
    let model = HalkModel::new(&split.train, HalkConfig::tiny());

    for s in [Structure::P1, Structure::P2, Structure::Up] {
        let reference = evaluate_structure_pool(&model, &split, s, 6, 5, Pool::new(1));
        assert!(reference.n_queries > 0, "{s}: nothing evaluated");
        for threads in &THREADS[1..] {
            let cell = evaluate_structure_pool(&model, &split, s, 6, 5, Pool::new(*threads));
            assert_eq!(cell.n_queries, reference.n_queries, "{s}@{threads}");
            assert_eq!(cell.truncated, reference.truncated, "{s}@{threads}");
            for (name, got, want) in [
                ("mrr", cell.metrics.mrr, reference.metrics.mrr),
                ("hits1", cell.metrics.hits1, reference.metrics.hits1),
                ("hits3", cell.metrics.hits3, reference.metrics.hits3),
                ("hits10", cell.metrics.hits10, reference.metrics.hits10),
            ] {
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{s}@{threads} threads: {name} drifted"
                );
            }
        }
    }
}

#[test]
fn table_rows_match_per_structure_cells() {
    let mut rng = StdRng::seed_from_u64(43);
    let full = graph();
    let split = DatasetSplit::nested(&full, 0.8, 0.1, &mut rng);
    let model = HalkModel::new(&split.train, HalkConfig::tiny());
    let structures = [Structure::P1, Structure::P2];

    let row = evaluate_table_pool(&model, &split, &structures, 4, 9, Pool::new(4));
    for (s, cell) in &row {
        let cell = cell.expect("HaLk supports everything");
        let solo = evaluate_structure_pool(&model, &split, *s, 4, 9, Pool::new(1));
        assert_eq!(cell.n_queries, solo.n_queries, "{s}");
        assert_eq!(
            cell.metrics.mrr.to_bits(),
            solo.metrics.mrr.to_bits(),
            "{s}"
        );
    }
}

#[test]
fn truncation_is_reported_when_the_attempt_budget_exhausts() {
    // A structure that cannot yield hard answers on this split: evaluate
    // against a model over a graph where sampling always produces queries
    // fully answered on the validation graph is hard to force directly, so
    // instead exhaust the budget with n_queries larger than the pool of
    // valid test queries of a rare structure.
    let mut rng = StdRng::seed_from_u64(61);
    // Tiny graph -> few groundable difference queries with hard answers.
    let full = generate(&SynthConfig::fb237_like(), &mut rng);
    let split = DatasetSplit::nested(&full, 0.98, 0.01, &mut rng);
    let model = HalkModel::new(&split.train, HalkConfig::tiny());
    let cell = evaluate_structure_pool(&model, &split, Structure::D3, 500, 3, Pool::new(2));
    // Either the budget ran out (truncated set, flag raised) or the split
    // really had 500 valid queries (flag clear) — the invariant is that the
    // flag agrees with the count.
    assert_eq!(cell.truncated, cell.n_queries < 500);
    let seq = evaluate_structure_pool(&model, &split, Structure::D3, 500, 3, Pool::new(1));
    assert_eq!(cell.n_queries, seq.n_queries);
    assert_eq!(cell.truncated, seq.truncated);
    assert_eq!(cell.metrics.mrr.to_bits(), seq.metrics.mrr.to_bits());
}
