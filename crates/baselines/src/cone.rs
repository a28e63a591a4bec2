//! ConE (Zhang et al., NeurIPS 2021) — cone/sector embeddings.
//!
//! ConE is the closest relative of HaLk: both live on the rotation paradigm.
//! Per dimension a query is a sector `(axis, aperture)`. Faithful to the
//! original: projection is relation rotation plus a learned correction,
//! intersection is SemanticAverage attention over axes plus CardMin
//! apertures, and **negation is the closed-form linear complement** — the
//! assumption the HaLk paper identifies as ConE's weakness (§III-E).
//! Differences HaLk claims over ConE and that this implementation keeps:
//! no start/end coordinated pair (attention sees `axis ‖ aperture`), no
//! group information, and no difference operator (§IV-A: "-" cells).

use crate::embedder::{embed_plan, forward_loss, GeomOps};
use halk_core::{ArcScorer, DistanceMode, EntityTrig, HalkConfig, QueryModel, TrainExample};
use halk_kg::Graph;
use halk_logic::plan::{PlanBindings, PlanCache};
use halk_logic::{Query, Structure};
use halk_nn::{Act, Mlp, ParamId, ParamStore, Tape, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A batch of cones on the tape: axis angles and apertures (`B×d` each,
/// aperture in `[0, π]` by construction).
#[derive(Debug, Clone, Copy)]
pub struct ConeVar {
    /// Sector axis angles.
    pub axis: Var,
    /// Sector half-apertures.
    pub ap: Var,
}

/// The ConE baseline model.
pub struct ConeModel {
    /// Hyper-parameters (shared shape with HaLk for fair timing).
    pub cfg: HalkConfig,
    /// All trainable parameters.
    pub store: ParamStore,
    n_entities: usize,
    ent_axis: ParamId,
    rel_axis: ParamId,
    rel_ap: ParamId,
    proj_axis: Mlp,
    proj_ap: Mlp,
    inter_att: Mlp,
    inter_ds_inner: Mlp,
    inter_ds_outer: Mlp,
    plans: PlanCache,
}

impl ConeModel {
    /// Builds a freshly initialized ConE model.
    pub fn new(train_graph: &Graph, cfg: HalkConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xC0DE);
        let mut store = ParamStore::new();
        let (d, h, layers) = (cfg.dim, cfg.hidden, cfg.mlp_layers);
        let n_entities = train_graph.n_entities();
        let ent_axis = store.add(halk_nn::init::uniform_angles(n_entities, d, &mut rng));
        let rel_axis = store.add(halk_nn::init::uniform(
            train_graph.n_relations(),
            d,
            -0.5,
            0.5,
            &mut rng,
        ));
        let rel_ap = store.add(halk_nn::init::uniform(
            train_graph.n_relations(),
            d,
            0.0,
            0.3,
            &mut rng,
        ));
        let proj_axis = Mlp::new(&mut store, 2 * d, h, d, layers, Act::Relu, &mut rng);
        let proj_ap = Mlp::new(&mut store, 2 * d, h, d, layers, Act::Relu, &mut rng);
        let inter_att = Mlp::new(&mut store, 2 * d, h, d, layers, Act::Relu, &mut rng);
        let inter_ds_inner = Mlp::new(&mut store, 2 * d, h, d, layers, Act::Relu, &mut rng);
        let inter_ds_outer = Mlp::new(&mut store, d, h, d, layers, Act::Relu, &mut rng);
        proj_axis.scale_last_layer(&mut store, 0.0);
        proj_ap.scale_last_layer(&mut store, 0.0);
        Self {
            cfg,
            store,
            n_entities,
            ent_axis,
            rel_axis,
            rel_ap,
            proj_axis,
            proj_ap,
            inter_att,
            inter_ds_inner,
            inter_ds_outer,
            plans: PlanCache::new(),
        }
    }

    fn axis_ap_concat(&self, tape: &mut Tape, c: ConeVar) -> Var {
        tape.concat_cols(&[c.axis, c.ap])
    }

    /// Inference: per-dimension `(axis, aperture)` of each DNF branch,
    /// read off the cached compiled plan.
    fn embed_query_values(&self, query: &Query) -> Option<Vec<Vec<(f32, f32)>>> {
        let shape = self.plans.shape_for(query);
        let bindings = PlanBindings::of(query);
        let mut tape = Tape::new();
        let roots = embed_plan(self, &mut tape, &shape, std::slice::from_ref(&bindings))?;
        Some(
            roots
                .iter()
                .map(|rep| {
                    let a = tape.value(rep.axis);
                    let p = tape.value(rep.ap);
                    (0..self.cfg.dim)
                        .map(|j| (a.data[j], p.data[j].clamp(0.0, std::f32::consts::PI)))
                        .collect()
                })
                .collect(),
        )
    }

    /// Half-angle trig of the axis table.
    fn axis_trig(&self) -> EntityTrig {
        let table = self.store.value(self.ent_axis);
        EntityTrig::new(table, 0..table.rows)
    }

    /// Scores every entity against `query` through the shared arc kernel.
    fn score_with(&self, query: &Query, trig: &EntityTrig) -> Vec<f32> {
        let Some(branches) = self.embed_query_values(query) else {
            return vec![f32::INFINITY; self.n_entities];
        };
        // A cone (axis, aperture) is exactly an arc with center = axis and
        // half-angle = aperture on the unit circle, and ConE's distance is
        // Eq. 15/16 taken literally — so the shared kernel applies as-is.
        let scorer =
            ArcScorer::from_params(&branches, 1.0, self.cfg.eta, DistanceMode::LiteralEq16);
        let mut out = Vec::new();
        scorer.score_into(trig, &mut out);
        out
    }
}

impl GeomOps for ConeModel {
    type Rep = ConeVar;

    fn anchor(&self, tape: &mut Tape, ids: &[u32]) -> ConeVar {
        let axis = tape.gather(&self.store, self.ent_axis, ids);
        let ap = tape.constant(ids.len(), self.cfg.dim, 0.0);
        ConeVar { axis, ap }
    }

    fn projection(&self, tape: &mut Tape, input: ConeVar, rels: &[u32]) -> ConeVar {
        let r_axis = tape.gather(&self.store, self.rel_axis, rels);
        let r_ap = tape.gather(&self.store, self.rel_ap, rels);
        let tilde_axis = tape.add(input.axis, r_axis);
        let tilde_ap = tape.add(input.ap, r_ap);
        let tilde = ConeVar {
            axis: tilde_axis,
            ap: tilde_ap,
        };
        let cat = self.axis_ap_concat(tape, tilde);
        // Bounded residual corrections (same adaptation as HaLk, so the
        // comparison isolates the operator design, not the training trick).
        let raw_a = self.proj_axis.forward(tape, &self.store, cat);
        let t_a = tape.tanh(raw_a);
        let corr_a = tape.scale(t_a, std::f32::consts::PI);
        let axis = tape.add(tilde_axis, corr_a);
        let raw_p = self.proj_ap.forward(tape, &self.store, cat);
        let t_p = tape.tanh(raw_p);
        let corr_p = tape.scale(t_p, std::f32::consts::FRAC_PI_2);
        let ap_raw = tape.add(tilde_ap, corr_p);
        let ap = crate::clamp(tape, ap_raw, 0.0, std::f32::consts::PI);
        ConeVar { axis, ap }
    }

    fn intersection(&self, tape: &mut Tape, inputs: &[ConeVar]) -> ConeVar {
        // SemanticAverage: softmax attention over MLP(axis ‖ ap), axes
        // averaged on the unit circle.
        let logits: Vec<Var> = inputs
            .iter()
            .map(|c| {
                let cat = self.axis_ap_concat(tape, *c);
                self.inter_att.forward(tape, &self.store, cat)
            })
            .collect();
        let mut max_logit = logits[0];
        for &l in &logits[1..] {
            max_logit = tape.max(max_logit, l);
        }
        let exps: Vec<Var> = logits
            .iter()
            .map(|&l| {
                let s = tape.sub(l, max_logit);
                tape.exp(s)
            })
            .collect();
        let mut denom = exps[0];
        for &e in &exps[1..] {
            denom = tape.add(denom, e);
        }
        let mut x_sa: Option<Var> = None;
        let mut y_sa: Option<Var> = None;
        for (c, &e) in inputs.iter().zip(&exps) {
            let w = tape.div(e, denom);
            let cos = tape.cos(c.axis);
            let sin = tape.sin(c.axis);
            let wx = tape.mul(w, cos);
            let wy = tape.mul(w, sin);
            x_sa = Some(match x_sa {
                Some(a) => tape.add(a, wx),
                None => wx,
            });
            y_sa = Some(match y_sa {
                Some(a) => tape.add(a, wy),
                None => wy,
            });
        }
        let axis = tape.atan2(y_sa.expect("nonempty"), x_sa.expect("nonempty"));
        // CardMin apertures.
        let mut min_ap = inputs[0].ap;
        for c in &inputs[1..] {
            min_ap = tape.min(min_ap, c.ap);
        }
        let inner: Vec<Var> = inputs
            .iter()
            .map(|c| {
                let cat = self.axis_ap_concat(tape, *c);
                self.inter_ds_inner.forward(tape, &self.store, cat)
            })
            .collect();
        let mut acc = inner[0];
        for &v in &inner[1..] {
            acc = tape.add(acc, v);
        }
        let mean = tape.scale(acc, 1.0 / inner.len() as f32);
        let outer = self.inter_ds_outer.forward(tape, &self.store, mean);
        let factor = tape.sigmoid(outer);
        let ap = tape.mul(min_ap, factor);
        ConeVar { axis, ap }
    }

    fn difference(&self, _tape: &mut Tape, _inputs: &[ConeVar]) -> Option<ConeVar> {
        None // ConE does not support the difference operator (§IV-A).
    }

    fn negation(&self, tape: &mut Tape, input: ConeVar) -> Option<ConeVar> {
        // The linear complement: axis + π, aperture π − ap (Eq. 13's seed is
        // exactly this; ConE stops here).
        let axis = tape.add_scalar(input.axis, std::f32::consts::PI);
        let neg_ap = tape.neg(input.ap);
        let ap = tape.add_scalar(neg_ap, std::f32::consts::PI);
        Some(ConeVar { axis, ap })
    }

    fn distance(&self, tape: &mut Tape, rep: ConeVar, entity_ids: &[u32]) -> Var {
        // d = d_o + λ·d_i with the same literal endpoint-chord reading used
        // for every model in this harness (see halk-core::model): boundary
        // angles are axis ± ap.
        let v = tape.gather(&self.store, self.ent_axis, entity_ids);
        let lo = tape.sub(rep.axis, rep.ap);
        let hi = tape.add(rep.axis, rep.ap);
        let chord = |tape: &mut Tape, a: Var, b: Var| {
            let d = tape.sub(a, b);
            let h = tape.scale(d, 0.5);
            let s = tape.sin(h);
            let ab = tape.abs(s);
            tape.scale(ab, 2.0)
        };
        let c_lo = chord(tape, v, lo);
        let c_hi = chord(tape, v, hi);
        let d_o = tape.min(c_lo, c_hi);
        let to_axis = chord(tape, v, rep.axis);
        let half = tape.scale(rep.ap, 0.5);
        let s = tape.sin(half);
        let abs = tape.abs(s);
        let cap = tape.scale(abs, 2.0);
        let d_i = tape.min(to_axis, cap);
        let so = tape.sum_cols(d_o);
        let si = tape.sum_cols(d_i);
        let wi = tape.scale(si, self.cfg.eta);
        tape.add(so, wi)
    }
}

impl QueryModel for ConeModel {
    fn name(&self) -> &'static str {
        "ConE"
    }

    fn supports(&self, s: Structure) -> bool {
        !s.has_difference()
    }

    fn train_batch(&mut self, batch: &[TrainExample]) -> f32 {
        let (tape, loss) = forward_loss(self, &self.plans, batch, self.cfg.gamma);
        let loss_val = tape.value(loss).item();
        self.store.zero_grads();
        tape.backward(loss, &mut self.store);
        self.store.clip_grad_norm(5.0);
        self.store.adam_step(self.cfg.lr);
        loss_val
    }

    fn score_all(&self, query: &Query) -> Vec<f32> {
        self.score_with(query, &self.axis_trig())
    }

    fn n_entities(&self) -> usize {
        self.n_entities
    }

    fn score_cache(&self) -> Option<halk_core::ScoreCache> {
        // The per-entity half-angle trig of the axis table is query-
        // independent; precompute it once per parameter state so evaluation
        // sweeps don't rebuild it for every query.
        Some(Box::new(self.axis_trig()))
    }

    fn score_all_cached(&self, query: &Query, cache: &halk_core::ScoreCache) -> Vec<f32> {
        let trig = cache
            .downcast_ref::<halk_core::EntityTrig>()
            .expect("cache built by a different model");
        self.score_with(query, trig)
    }

    fn param_store(&self) -> Option<&halk_nn::ParamStore> {
        Some(&self.store)
    }

    fn param_store_mut(&mut self) -> Option<&mut halk_nn::ParamStore> {
        Some(&mut self.store)
    }
}
