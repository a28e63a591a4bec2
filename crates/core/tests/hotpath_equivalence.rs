//! Hot-path equivalence suite (PR 2): the vectorized `ArcScorer` kernel and
//! the pooled training tape are *optimizations*, not semantic changes. This
//! file pins that down three ways:
//!
//! 1. proptest: `score_all` (vectorized) agrees with `score_all_scalar`
//!    (the retained per-entity reference) to 1e-4 across all three
//!    `DistanceMode`s and multi-branch union/negation/difference queries;
//! 2. bit-for-bit: pooled-tape training reproduces the loss trajectory and
//!    final parameters of fresh-tape training exactly at a fixed seed;
//! 3. metrics: filtered-ranking MRR/Hit@K per structure are identical under
//!    either scoring path at a fixed seed;
//! 4. bit-for-bit: scoring through a prebuilt `EntityTrig` table
//!    (`score_all_with`) equals `score_all` on a trained model.

use halk_core::{DistanceMode, HalkConfig, HalkModel, QueryModel, TrainConfig, TrainExample};
use halk_kg::{generate, Graph, SynthConfig};
use halk_logic::{answers, filtered_ranks, MetricsAccumulator, Query, Sampler, Structure};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

/// Structures covering every operator family and the multi-branch DNF path
/// (union expands to two branches; difference/negation rewrite internally).
const STRUCTURES: [Structure; 6] = [
    Structure::P1,
    Structure::P2,
    Structure::Pi,
    Structure::Up,
    Structure::In2,
    Structure::D2,
];

struct Setup {
    graph: Graph,
    /// One untrained model per distance mode (untrained embeddings are the
    /// adversarial case for equivalence: arcs land anywhere).
    models: Vec<(DistanceMode, HalkModel)>,
}

fn setup() -> &'static Setup {
    static SETUP: OnceLock<Setup> = OnceLock::new();
    SETUP.get_or_init(|| {
        let graph = generate(&SynthConfig::fb237_like(), &mut StdRng::seed_from_u64(11));
        let models = [
            DistanceMode::LiteralEq16,
            DistanceMode::CenterAnchored,
            DistanceMode::ZeroedInside,
        ]
        .into_iter()
        .map(|mode| {
            let cfg = HalkConfig::tiny().with_distance(mode);
            (mode, HalkModel::new(&graph, cfg))
        })
        .collect();
        Setup { graph, models }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn vectorized_scoring_matches_scalar_reference(
        mode_idx in 0usize..3,
        s_idx in 0usize..STRUCTURES.len(),
        seed in 0u64..500,
    ) {
        let setup = setup();
        let (mode, model) = &setup.models[mode_idx];
        let structure = STRUCTURES[s_idx];
        let mut rng = StdRng::seed_from_u64(seed);
        let Some(gq) = Sampler::new(&setup.graph).sample(structure, &mut rng) else {
            // Not every structure grounds at every seed; skip, don't fail.
            return Ok(());
        };
        let fast = model.score_all(&gq.query);
        let slow = model.score_all_scalar(&gq.query);
        prop_assert_eq!(fast.len(), slow.len());
        for (i, (&f, &s)) in fast.iter().zip(&slow).enumerate() {
            if f.is_finite() || s.is_finite() {
                prop_assert!(
                    (f - s).abs() < 1e-4,
                    "mode {:?} {} entity {}: vectorized {} vs scalar {}",
                    mode, structure.name(), i, f, s
                );
            }
        }
    }
}

/// Builds one training batch per step, shared by both models under test.
fn fixed_batches(graph: &Graph, steps: usize) -> Vec<Vec<TrainExample>> {
    let sampler = Sampler::new(graph);
    let mut rng = StdRng::seed_from_u64(77);
    (0..steps)
        .map(|_| {
            sampler
                .sample_many(Structure::Pi, 8, &mut rng)
                .into_iter()
                .map(|gq| {
                    let ans = answers(&gq.query, graph);
                    let positive = ans.iter().next().expect("non-empty");
                    let negatives = sampler.negatives(&ans, 4, &mut rng);
                    TrainExample {
                        positive,
                        negatives,
                        query: gq.query,
                    }
                })
                .collect()
        })
        .collect()
}

#[test]
fn pooled_training_is_bit_identical_to_fresh_tapes() {
    let graph = generate(&SynthConfig::fb237_like(), &mut StdRng::seed_from_u64(11));
    let cfg = HalkConfig::tiny();
    let mut pooled = HalkModel::new(&graph, cfg.clone());
    let mut fresh = HalkModel::new(&graph, cfg);
    let batches = fixed_batches(&graph, 6);
    for (step, batch) in batches.iter().enumerate() {
        let loss_pooled = pooled.train_batch(batch);
        // Dropping the tape before every step forces fresh allocations —
        // the pre-pooling behavior.
        fresh.reset_train_tape();
        let loss_fresh = fresh.train_batch(batch);
        assert_eq!(
            loss_pooled.to_bits(),
            loss_fresh.to_bits(),
            "loss diverged at step {step}: {loss_pooled} vs {loss_fresh}"
        );
    }
    // Parameters, not just losses: the entity table must match exactly.
    assert_eq!(pooled.entity_table().data, fresh.entity_table().data);
}

#[test]
fn filtered_ranking_metrics_identical_under_either_scorer() {
    let setup = setup();
    let sampler = Sampler::new(&setup.graph);
    for (mode, model) in &setup.models {
        for structure in [Structure::P1, Structure::Pi, Structure::Up] {
            let mut rng = StdRng::seed_from_u64(99);
            let mut acc_fast = MetricsAccumulator::new();
            let mut acc_slow = MetricsAccumulator::new();
            let mut evaluated = 0;
            while evaluated < 5 {
                let Some(gq) = sampler.sample(structure, &mut rng) else {
                    continue;
                };
                let ans = answers(&gq.query, &setup.graph);
                let hard: Vec<_> = ans.iter().collect();
                acc_fast.push_ranks(&filtered_ranks(&model.score_all(&gq.query), &hard, &[]));
                acc_slow.push_ranks(&filtered_ranks(
                    &model.score_all_scalar(&gq.query),
                    &hard,
                    &[],
                ));
                evaluated += 1;
            }
            let (fast, slow) = (acc_fast.finish(), acc_slow.finish());
            assert_eq!(
                (fast.mrr, fast.hits1, fast.hits3, fast.hits10),
                (slow.mrr, slow.hits1, slow.hits3, slow.hits10),
                "metrics diverged for mode {mode:?} structure {}",
                structure.name()
            );
        }
    }
}

fn trained_deployment() -> (Graph, HalkModel) {
    let cfg = SynthConfig {
        n_entities: 400,
        ..SynthConfig::fb237_like()
    };
    let graph = generate(&cfg, &mut StdRng::seed_from_u64(11));
    let mut model = HalkModel::new(&graph, HalkConfig::tiny());
    let tc = TrainConfig {
        steps: 40,
        threads: 1,
        ..TrainConfig::tiny()
    };
    halk_core::train_model(&mut model, &graph, &[Structure::P1], &tc).unwrap();
    (graph, model)
}

#[test]
fn f32_trig_path_is_bit_identical_to_score_all() {
    let (graph, model) = trained_deployment();
    let trig = model.entity_trig();
    let mut via_trig = Vec::new();
    for t in &graph.triples()[..16] {
        let query = Query::atom(t.h, t.r);
        model.score_all_with(&trig, &query, &mut via_trig);
        assert_eq!(
            via_trig,
            model.score_all(&query),
            "exact path must not drift"
        );
    }
}
