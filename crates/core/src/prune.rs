//! Embedding-based pruning for subgraph matching (§IV-D).
//!
//! "For each query, we use HaLk to obtain top-20 candidates for each
//! variable node and add these candidates into a node set S. After that, an
//! induced data graph based on S could be generated" — the matcher then runs
//! on the (much smaller) induced graph, trading a little accuracy for a
//! large online-time reduction (Fig. 6a).

use crate::model::HalkModel;
use crate::shard::{sharded_top_k, ShardedTopK};
use halk_kg::{EntityId, Graph};
use halk_logic::Query;
use halk_obs::Deadline;

/// The top-`k` entities of every query in one group call of the sharded
/// top-k sweep, over the model executor's resident trig table (built once
/// per parameter state, not per call).
fn top_k_group(model: &HalkModel, queries: &[&Query], k: usize) -> Vec<ShardedTopK> {
    let scorers: Vec<_> = queries.iter().map(|q| model.scorer_for(q)).collect();
    let never = Deadline::never();
    sharded_top_k(
        &model.pool(),
        &model.executor().sharded_trig(model),
        &scorers,
        &vec![k; queries.len()],
        &vec![&never; queries.len()],
    )
}

/// Top-`k` entity candidates for *one* query node, by embedding distance.
/// The selection is bit-identical to the full-vector `score_all` +
/// `top_k_indices` path.
pub fn top_k_candidates(model: &HalkModel, query: &Query, k: usize) -> Vec<EntityId> {
    let (hits, _) = top_k_group(model, &[query], k)
        .pop()
        .expect("one query in, one result out");
    hits.iter().map(|&(i, _)| EntityId(i)).collect()
}

/// The candidate node set `S`: top-`k` candidates of every variable node of
/// the computation tree (every sub-query root), plus all anchors. All
/// sub-queries are scored in one sweep over the entity table.
pub fn candidate_set(model: &HalkModel, query: &Query, k: usize) -> Vec<EntityId> {
    let mut keep = vec![false; model.n_entities()];
    // Anchors are always part of the induced graph.
    for a in query.anchors() {
        keep[a.index()] = true;
    }
    // Every operator node of the tree is a variable node of the query graph.
    let mut subqueries: Vec<Query> = Vec::new();
    query.visit(&mut |q| {
        if !matches!(q, Query::Anchor(_)) {
            subqueries.push(q.clone());
        }
    });
    let refs: Vec<&Query> = subqueries.iter().collect();
    for (hits, _) in top_k_group(model, &refs, k) {
        for (e, _) in hits {
            keep[e as usize] = true;
        }
    }
    keep.iter()
        .enumerate()
        .filter(|&(_, &k)| k)
        .map(|(i, _)| EntityId(i as u32))
        .collect()
}

/// Builds the induced data graph over the candidate set `S` (§IV-D).
pub fn induced_graph(graph: &Graph, candidates: &[EntityId]) -> Graph {
    let mut keep = vec![false; graph.n_entities()];
    for e in candidates {
        keep[e.index()] = true;
    }
    graph.induced_subgraph(&keep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HalkConfig;
    use halk_kg::{generate, RelationId, SynthConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (Graph, HalkModel) {
        let g = generate(&SynthConfig::fb237_like(), &mut StdRng::seed_from_u64(50));
        let model = HalkModel::new(&g, HalkConfig::tiny());
        (g, model)
    }

    #[test]
    fn top_k_returns_k_distinct_best() {
        let (g, model) = setup();
        let t = g.triples()[0];
        let q = Query::atom(t.h, t.r);
        let cands = top_k_candidates(&model, &q, 20);
        assert_eq!(cands.len(), 20);
        let mut sorted = cands.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 20, "duplicates in top-k");
        // They are the globally best-scoring entities.
        let scores = model.score_all(&q);
        let worst_kept = cands
            .iter()
            .map(|e| scores[e.index()])
            .fold(f32::MIN, f32::max);
        let better_outside = scores
            .iter()
            .enumerate()
            .filter(|(i, &s)| s < worst_kept && !cands.contains(&EntityId(*i as u32)))
            .count();
        assert_eq!(better_outside, 0);
    }

    #[test]
    fn candidate_set_includes_anchors_and_scales_with_nodes() {
        let (g, model) = setup();
        let t = g.triples()[0];
        let q1 = Query::atom(t.h, t.r);
        let q2 = Query::atom(t.h, t.r).project(RelationId(0));
        let s1 = candidate_set(&model, &q1, 10);
        let s2 = candidate_set(&model, &q2, 10);
        assert!(s1.contains(&t.h));
        assert!(s2.contains(&t.h));
        // Deeper query has more variable nodes → at least as many candidates.
        assert!(s2.len() >= s1.len());
        assert!(s1.len() <= 11); // 10 candidates + anchor
    }

    #[test]
    fn candidates_equal_the_full_vector_reference_at_1_and_4_threads() {
        // Three score slices, so 4 threads (4 shards) split the table.
        let cfg = SynthConfig {
            n_entities: 3000,
            ..SynthConfig::fb237_like()
        };
        let g = generate(&cfg, &mut StdRng::seed_from_u64(50));
        let t = g.triples()[0];
        let q = Query::Intersection(vec![
            Query::atom(t.h, t.r).project(RelationId(0)),
            Query::atom(t.h, RelationId(1)),
        ]);
        let reference = |model: &HalkModel, q: &Query| -> Vec<EntityId> {
            crate::top_k_indices(&model.score_all(q), 20)
                .into_iter()
                .map(EntityId)
                .collect()
        };
        let mut nodes: Vec<Query> = Vec::new();
        q.visit(&mut |n| {
            if !matches!(n, Query::Anchor(_)) {
                nodes.push(n.clone());
            }
        });
        assert_eq!(nodes.len(), 4);
        for threads in [1, 4] {
            let mut model = HalkModel::new(&g, HalkConfig::tiny());
            model.set_threads(threads);
            let mut want = q.anchors();
            for node in &nodes {
                want.extend(reference(&model, node));
            }
            want.sort_unstable();
            want.dedup();
            assert_eq!(candidate_set(&model, &q, 20), want, "{threads} threads");
            assert_eq!(
                top_k_candidates(&model, &nodes[1], 20),
                reference(&model, &nodes[1]),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn induced_graph_is_subgraph_and_smaller() {
        let (g, model) = setup();
        let t = g.triples()[0];
        let q = Query::atom(t.h, t.r);
        let cands = candidate_set(&model, &q, 20);
        let sub = induced_graph(&g, &cands);
        assert!(sub.is_subgraph_of(&g));
        assert!(sub.n_triples() < g.n_triples());
        // Entity id space is preserved for comparability.
        assert_eq!(sub.n_entities(), g.n_entities());
    }
}
