//! Plan-vs-AST bit-identity for HaLk (PR 4): the compiled query plan is an
//! execution strategy, not a semantic change. Arc embeddings, entity
//! scores, group masks and the training loss must be *bitwise* identical
//! to the retained recursive reference (`model::reference`) on every named
//! structure.

use halk_core::loss::margin_loss;
use halk_core::{ArcScorer, HalkConfig, HalkModel, QueryModel, TrainExample};
use halk_kg::{generate, EntityId, Graph, Grouping, SynthConfig};
use halk_logic::{answers, Query, Sampler, Structure};
use halk_nn::{Tape, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn setup() -> (Graph, HalkModel) {
    let g = generate(&SynthConfig::fb237_like(), &mut StdRng::seed_from_u64(19));
    let model = HalkModel::new(&g, HalkConfig::tiny());
    (g, model)
}

fn examples(g: &Graph, s: Structure, n: usize, seed: u64) -> Vec<TrainExample> {
    let sampler = Sampler::new(g);
    let mut rng = StdRng::seed_from_u64(seed);
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
}

/// Untrained embeddings are the adversarial case (arcs land anywhere), so
/// a fresh model plus every one of the 24 structures covers the full
/// operator surface, union branching included.
#[test]
fn embed_query_matches_ast_on_every_structure() {
    let (g, model) = setup();
    let sampler = Sampler::new(&g);
    let mut rng = StdRng::seed_from_u64(3);
    for s in Structure::all() {
        for gq in sampler.sample_many(s, 3, &mut rng) {
            assert_eq!(
                model.embed_query(&gq.query),
                model.embed_query_ast(&gq.query),
                "{s}: {}",
                gq.query.render()
            );
        }
    }
}

/// The online scoring path (compiled plan → `ArcScorer`) produces the same
/// bits as a scorer built from the AST-walked branches, hence identical
/// filtered ranks.
#[test]
fn scores_match_ast_on_every_structure() {
    let (g, model) = setup();
    let sampler = Sampler::new(&g);
    let mut rng = StdRng::seed_from_u64(5);
    let trig = model.entity_trig();
    for s in Structure::all() {
        for gq in sampler.sample_many(s, 2, &mut rng) {
            let got = model.score_all(&gq.query);
            let branches = model.embed_query_ast(&gq.query);
            let mut want = Vec::new();
            ArcScorer::from_arcs(&branches, model.cfg.rho, model.cfg.eta, model.cfg.distance)
                .score_into(&trig, &mut want);
            assert_eq!(got.len(), want.len());
            for (e, (a, b)) in got.iter().zip(&want).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{s}: entity {e}");
            }
        }
    }
}

/// The plan's precomputed root mask is the recursive group mask h_{U_q}
/// (§II-A) of the original query.
#[test]
fn plan_root_mask_matches_ast_group_mask() {
    let (g, model) = setup();
    let sampler = Sampler::new(&g);
    let mut rng = StdRng::seed_from_u64(7);
    for s in Structure::all() {
        for gq in sampler.sample_many(s, 3, &mut rng) {
            let shape = model.plan_cache().shape_for(&gq.query);
            let (_, masks) = model.bind(&shape, &gq.query);
            assert_eq!(masks.root, model.group_mask_ast(&gq.query), "{s}");
        }
    }
}

/// The one-shard training forward rebuilt on the recursive embedder: same
/// batched AST walk, same distance columns, same Eq. 17 group penalties,
/// same margin loss — the pre-plan `train_batch` in miniature.
fn reference_loss(model: &HalkModel, batch: &[TrainExample]) -> f32 {
    let cfg = &model.cfg;
    let m = batch
        .iter()
        .map(|ex| ex.negatives.len())
        .min()
        .expect("nonempty batch");
    let mut tape = Tape::new();
    let queries: Vec<&Query> = batch.iter().map(|ex| &ex.query).collect();
    let arc = model.embed_batch_ast(&mut tape, &queries);
    let pen = |ids: &[u32]| -> Tensor {
        let data = ids
            .iter()
            .zip(batch)
            .map(|(&e, ex)| {
                cfg.xi
                    * Grouping::relu_l1(
                        model.grouping().mask_of(EntityId(e)),
                        model.group_mask_ast(&ex.query),
                    ) as f32
            })
            .collect();
        Tensor::from_vec(ids.len(), 1, data)
    };
    let pos_ids: Vec<u32> = batch.iter().map(|ex| ex.positive.0).collect();
    let pos_pen = pen(&pos_ids);
    let pos_points = model.entity_points(&mut tape, &pos_ids);
    let d_pos = model.distance_batch(&mut tape, arc, pos_points);
    let pos_pen_var = tape.input(pos_pen);
    let mut d_negs = Vec::with_capacity(m);
    let mut neg_pens = Vec::with_capacity(m);
    for j in 0..m {
        let ids: Vec<u32> = batch.iter().map(|ex| ex.negatives[j].0).collect();
        let neg_pen = pen(&ids);
        let points = model.entity_points(&mut tape, &ids);
        d_negs.push(model.distance_batch(&mut tape, arc, points));
        neg_pens.push(tape.input(neg_pen));
    }
    let loss = margin_loss(
        &mut tape,
        d_pos,
        Some(pos_pen_var),
        &d_negs,
        Some(&neg_pens),
        cfg.gamma,
    );
    // train_batch scales each shard's mean by its batch share — exactly 1.0
    // for a single-shard batch — before reading it back.
    let scaled = tape.scale(loss, 1.0);
    tape.value(scaled).item()
}

/// For every training structure: the loss `train_batch` reports on the
/// compiled plan equals the recursive reference bit for bit. The batch fits
/// one training shard so the reference needs no shard reduction.
#[test]
fn first_train_loss_matches_ast_reference() {
    let (g, mut model) = setup();
    for (i, s) in Structure::training().into_iter().enumerate() {
        let batch = examples(&g, s, 8, 40 + i as u64);
        let want = reference_loss(&model, &batch);
        let got = model.train_batch(&batch);
        assert_eq!(got.to_bits(), want.to_bits(), "{s}: {got} vs {want}");
    }
}
