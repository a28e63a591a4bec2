//! Vectorized online scoring kernels (the product hot path).
//!
//! Every table and figure funnels through "rank all entities against a query
//! region", and the naive entity-major loop re-derives per-branch trig for
//! every entity. This module splits that work by who it belongs to:
//!
//! * **Per entity** (changes only when parameters change): the half-angle
//!   trig `sin(θ/2), cos(θ/2)` of every entity coordinate, precomputed once
//!   into an [`EntityTrig`] structure-of-arrays.
//! * **Per query** (changes every query): per-branch, per-dim sin/cos of the
//!   arc's half start/end/center angles plus the inside-distance cap, packed
//!   into an [`ArcScorer`].
//!
//! The chord of Eq. 16, `2ρ|sin((θ−a)/2)|`, then factors through the angle
//! subtraction identity `sin((θ−a)/2) = sin(θ/2)cos(a/2) − cos(θ/2)sin(a/2)`,
//! so the per-entity inner loop is pure multiply/abs/min work — branch-free,
//! trig-free, and contiguous over the SoA slices, which the autovectorizer
//! turns into SIMD. The scalar reference path
//! ([`HalkModel::score_all_scalar`]) is kept for equivalence tests and the
//! regression bench; proptests pin agreement to 1e-4 across all
//! [`DistanceMode`]s (see `tests/hotpath_equivalence.rs`).
//!
//! [`HalkModel::score_all_scalar`]: crate::model::HalkModel::score_all_scalar
//!
//! There are exactly two ways to score an [`ArcScorer`] against a table:
//! [`ArcScorer::score_into`] fills the full score vector (evaluation, the
//! scalar-reference tests), and [`crate::shard::sharded_top_k`] streams
//! [`SCORE_SLICE`]-row slices into bounded [`TopK`] heaps (serving,
//! pruning). Both run the same per-slice kernel, so their scores agree
//! bit for bit.
//!
//! [`BoxScorer`] and [`L1Scorer`] give the interval/point baselines the same
//! SoA treatment (their geometry needs no trig at all), and
//! [`top_k_indices`] replaces full sorts with partial selection everywhere a
//! caller only needs the best `k`.

use crate::config::DistanceMode;
use halk_geometry::Arc;
use halk_nn::Tensor;

/// The fixed scoring-slice size of the sharded top-k sweep
/// ([`crate::shard::sharded_top_k`]): shards are aligned to it, deadlines
/// are checked once per slice, and each slice is scored into a stack
/// scratch of this many rows. Slice boundaries depend only on the entity
/// count, never on thread or shard counts, so every partition of the table
/// scores bit-identically.
pub const SCORE_SLICE: usize = 1024;

/// Storage format of the entity-trig tables. `F32` is the only one: the
/// Eq. 16 ranking is computed from the stored `f32` half-angle trig, and
/// every bit-identity contract of the scoring paths rests on it. The
/// one-variant type stays because `halk_serve::Engine::with_boot_table`
/// still takes it, and the end-to-end benchmark under `perfbench/` passes
/// it there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    /// Full `f32` storage.
    F32,
}

/// Precomputed half-angle trig of an entity table: `sin(θ/2)` and
/// `cos(θ/2)` for every entity coordinate, laid out row-major to match the
/// table. Build once, reuse across every query scored against the same
/// parameters (rebuild after a training step moves the table).
pub struct EntityTrig {
    half_sin: Vec<f32>,
    half_cos: Vec<f32>,
    n_entities: usize,
    dim: usize,
}

impl EntityTrig {
    /// Bytes one stored trig coordinate pair (`sin`, `cos`) occupies.
    pub const BYTES_PER_PAIR: usize = 2 * std::mem::size_of::<f32>();

    /// Precomputes trig for the contiguous row range `rows` of an `n×d`
    /// table of entity angles (`0..table.rows` for the whole table). A
    /// sub-range is the shard-local build: each arc shard owns the trig of
    /// its own entity range and nothing else, so per-shard memory is
    /// bounded by the shard size. Sin/cos are per element, so entry `i` of
    /// the result is bit-identical to row `rows.start + i` of a whole-table
    /// build.
    pub fn new(table: &Tensor, rows: std::ops::Range<usize>) -> Self {
        assert!(rows.end <= table.rows, "trig row range out of bounds");
        let d = table.cols;
        let data = &table.data[rows.start * d..rows.end * d];
        Self {
            half_sin: data.iter().map(|&t| (t * 0.5).sin()).collect(),
            half_cos: data.iter().map(|&t| (t * 0.5).cos()).collect(),
            n_entities: rows.len(),
            dim: d,
        }
    }

    /// Number of entities covered.
    pub fn n_entities(&self) -> usize {
        self.n_entities
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Bytes resident in the trig arrays (the memory-diet number STATS
    /// reports; excludes the fixed-size struct header).
    pub fn resident_bytes(&self) -> usize {
        self.n_entities * self.dim * Self::BYTES_PER_PAIR
    }

    /// The raw `(half_sin, half_cos)` arrays. This is the snapshot
    /// serialization surface: they roundtrip bit-exactly through
    /// [`EntityTrig::from_f32_parts`].
    pub fn f32_parts(&self) -> (&[f32], &[f32]) {
        (&self.half_sin, &self.half_cos)
    }

    /// Rebuilds a table from arrays previously obtained via
    /// [`EntityTrig::f32_parts`] — the snapshot fast-boot constructor that
    /// skips the `O(n_entities · dim)` sin/cos sweep. Shape mismatches are
    /// a typed error (snapshot decode must never panic).
    pub fn from_f32_parts(
        half_sin: Vec<f32>,
        half_cos: Vec<f32>,
        n_entities: usize,
        dim: usize,
    ) -> Result<Self, String> {
        if half_sin.len() != n_entities * dim || half_cos.len() != n_entities * dim {
            return Err(format!(
                "trig arrays hold {}/{} values, {n_entities}x{dim} table needs {}",
                half_sin.len(),
                half_cos.len(),
                n_entities * dim
            ));
        }
        Ok(Self {
            half_sin,
            half_cos,
            n_entities,
            dim,
        })
    }

    /// Copies rows of this table into a shard table. The result is
    /// element-for-element bit-identical to building the shard from the
    /// angle table directly — that equality is what lets a snapshot-booted
    /// server serve the same bits as a TSV-booted one.
    ///
    /// # Panics
    /// If `rows` is out of bounds (a caller bug).
    pub fn slice_rows(&self, rows: std::ops::Range<usize>) -> Self {
        assert!(rows.end <= self.n_entities, "trig row range out of bounds");
        let d = self.dim;
        let elems = rows.start * d..rows.end * d;
        Self {
            half_sin: self.half_sin[elems.clone()].to_vec(),
            half_cos: self.half_cos[elems].to_vec(),
            n_entities: rows.len(),
            dim: d,
        }
    }
}

/// A bounded top-k accumulator: a max-heap of the `k` best (lowest)
/// `(score, index)` entries seen so far, with the *worst* kept entry at the
/// root so a streaming producer can reject most rows with one comparison.
///
/// Ordering is ascending score with ties broken by index — via
/// `f32::total_cmp`, which on the scorer's output domain (finite,
/// non-negative: every kernel score is a `min`-fold of sums of absolute
/// values times `2ρ`) coincides exactly with the `partial_cmp`-plus-index
/// order of [`top_k_indices`]. Offering every row of a score vector
/// therefore yields *bit-identically* the same selection as
/// `top_k_indices`, in any offer order and under any partition of the rows
/// (distinct indices make the total order strict, so the k-smallest set is
/// unique).
#[derive(Debug, Clone)]
pub struct TopK {
    k: usize,
    /// Max-heap by `(score, index)`; `heap[0]` is the worst kept entry.
    heap: Vec<(f32, u32)>,
}

/// The selection order: ascending score, ties broken by ascending index.
#[inline]
fn rank_cmp(a: (f32, u32), b: (f32, u32)) -> std::cmp::Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

impl TopK {
    /// An empty accumulator keeping the best `k` entries.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            heap: Vec::with_capacity(k.min(4096)),
        }
    }

    /// The configured bound.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Entries currently held (≤ `k`).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no entry has been kept yet.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Offers one `(index, score)` row. Kept iff it ranks among the best
    /// `k` seen so far; once the heap is full the common case is a single
    /// comparison against the root.
    #[inline]
    pub fn offer(&mut self, idx: u32, score: f32) {
        if self.heap.len() < self.k {
            self.heap.push((score, idx));
            self.sift_up(self.heap.len() - 1);
            return;
        }
        if self.k == 0 || rank_cmp((score, idx), self.heap[0]).is_ge() {
            return;
        }
        self.heap[0] = (score, idx);
        self.sift_down(0);
    }

    /// The kept entries in unspecified (heap) order, as `(index, score)`.
    pub fn entries(&self) -> impl Iterator<Item = (u32, f32)> + '_ {
        self.heap.iter().map(|&(s, i)| (i, s))
    }

    /// Merges another accumulator's entries into this one (the coordinator
    /// side of merge-k). Order-independent: the union's k-smallest set is
    /// unique under the strict total order.
    pub fn absorb(&mut self, other: &TopK) {
        for (i, s) in other.entries() {
            self.offer(i, s);
        }
    }

    /// The kept entries in ascending rank order — the order
    /// [`top_k_indices`] returns — consuming the accumulator.
    pub fn into_sorted(mut self) -> Vec<(u32, f32)> {
        self.heap.sort_unstable_by(|&a, &b| rank_cmp(a, b));
        self.heap.into_iter().map(|(s, i)| (i, s)).collect()
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if rank_cmp(self.heap[i], self.heap[parent]).is_le() {
                break;
            }
            self.heap.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut largest = i;
            if l < n && rank_cmp(self.heap[l], self.heap[largest]).is_gt() {
                largest = l;
            }
            if r < n && rank_cmp(self.heap[r], self.heap[largest]).is_gt() {
                largest = r;
            }
            if largest == i {
                return;
            }
            self.heap.swap(i, largest);
            i = largest;
        }
    }
}

/// One DNF branch's arc parameters as structure-of-arrays over dims: sin/cos
/// of the half start/end/center angles, the inside-distance cap and the
/// ZeroedInside containment threshold, all in "|sin|" units (the shared
/// `2ρ` chord factor is applied once per score).
struct BranchSoa {
    sin_s: Vec<f32>,
    cos_s: Vec<f32>,
    sin_e: Vec<f32>,
    cos_e: Vec<f32>,
    sin_c: Vec<f32>,
    cos_c: Vec<f32>,
    /// `|sin(half_angle/2)|` — the Eq. 16 inside-distance cap.
    cap: Vec<f32>,
    /// `sin(min(half_angle + 1e-6, π)/2)` — `|sin((θ−c)/2)| ≤ thr` iff
    /// `Arc::contains_angle(θ)` (both sides are monotone images of the
    /// angular offset on `[0, π]`).
    thr: Vec<f32>,
}

const MODE_LITERAL: u8 = 0;
const MODE_CENTER: u8 = 1;
const MODE_ZEROED: u8 = 2;

/// A query region compiled for scoring: per-branch SoA arc trig plus the
/// distance-mode/η/ρ configuration. Scores are identical (within fp
/// tolerance) to the scalar per-arc formulas in `halk_geometry::Arc`.
pub struct ArcScorer {
    branches: Vec<BranchSoa>,
    dim: usize,
    rho: f32,
    eta: f32,
    mode: DistanceMode,
}

impl ArcScorer {
    /// Compiles DNF branches of [`Arc`]s (all sharing radius `rho`).
    pub fn from_arcs(branches: &[Vec<Arc>], rho: f32, eta: f32, mode: DistanceMode) -> Self {
        let params: Vec<Vec<(f32, f32)>> = branches
            .iter()
            .map(|arcs| arcs.iter().map(|a| (a.center, a.half_angle())).collect())
            .collect();
        Self::from_params(&params, rho, eta, mode)
    }

    /// Compiles DNF branches of raw `(center, half_angle)` pairs per dim.
    /// Angles need not be normalized: the kernel only uses them through
    /// `|sin(·/2)|`, which is invariant under full turns.
    pub fn from_params(
        branches: &[Vec<(f32, f32)>],
        rho: f32,
        eta: f32,
        mode: DistanceMode,
    ) -> Self {
        let dim = branches.first().map_or(0, Vec::len);
        let compiled = branches
            .iter()
            .map(|arcs| {
                assert_eq!(arcs.len(), dim, "ragged branch dimensionality");
                let mut b = BranchSoa {
                    sin_s: Vec::with_capacity(dim),
                    cos_s: Vec::with_capacity(dim),
                    sin_e: Vec::with_capacity(dim),
                    cos_e: Vec::with_capacity(dim),
                    sin_c: Vec::with_capacity(dim),
                    cos_c: Vec::with_capacity(dim),
                    cap: Vec::with_capacity(dim),
                    thr: Vec::with_capacity(dim),
                };
                for &(center, half) in arcs {
                    let start = center - half;
                    let end = center + half;
                    b.sin_s.push((start * 0.5).sin());
                    b.cos_s.push((start * 0.5).cos());
                    b.sin_e.push((end * 0.5).sin());
                    b.cos_e.push((end * 0.5).cos());
                    b.sin_c.push((center * 0.5).sin());
                    b.cos_c.push((center * 0.5).cos());
                    b.cap.push((half * 0.5).sin().abs());
                    b.thr
                        .push(((half + 1e-6).min(std::f32::consts::PI) * 0.5).sin());
                }
                b
            })
            .collect();
        Self {
            branches: compiled,
            dim,
            rho,
            eta,
            mode,
        }
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Scores every entity of `trig` into `out` (cleared and refilled; lower
    /// is better; unions take the min across branches). Entities with no
    /// branch score `f32::INFINITY`, matching the scalar fold.
    pub fn score_into(&self, trig: &EntityTrig, out: &mut Vec<f32>) {
        out.clear();
        out.resize(trig.n_entities, f32::INFINITY);
        self.score_slice(trig, 0, out);
    }

    /// Scores the contiguous entity rows `[row0, row0 + out.len())`, folding
    /// each score into `out` with `min` (pre-fill with `f32::INFINITY` for a
    /// plain score). Rows are scored independently, so any partition of the
    /// entity range — including the sharded parallel sweep — produces
    /// bit-identical results to one full-table pass.
    pub(crate) fn score_slice(&self, trig: &EntityTrig, row0: usize, out: &mut [f32]) {
        assert_eq!(trig.dim, self.dim, "entity/query dimensionality mismatch");
        assert!(
            row0 + out.len() <= trig.n_entities,
            "entity slice out of range"
        );
        match self.mode {
            DistanceMode::LiteralEq16 => self.score_table::<MODE_LITERAL>(trig, row0, out),
            DistanceMode::CenterAnchored => self.score_table::<MODE_CENTER>(trig, row0, out),
            DistanceMode::ZeroedInside => self.score_table::<MODE_ZEROED>(trig, row0, out),
        }
    }

    /// Scores only the rows `ids` of an angle table (the LSH candidate
    /// path), computing the per-row trig on the fly: `out[i]` is the score
    /// of entity `ids[i]`.
    pub fn score_rows_into(&self, table: &Tensor, ids: &[u32], out: &mut Vec<f32>) {
        assert_eq!(table.cols, self.dim, "entity/query dimensionality mismatch");
        out.clear();
        out.reserve(ids.len());
        let mut sh = vec![0.0f32; self.dim];
        let mut ch = vec![0.0f32; self.dim];
        for &e in ids {
            let row = table.row(e as usize);
            for ((s, c), &t) in sh.iter_mut().zip(ch.iter_mut()).zip(row) {
                *s = (t * 0.5).sin();
                *c = (t * 0.5).cos();
            }
            let score = match self.mode {
                DistanceMode::LiteralEq16 => self.score_row::<MODE_LITERAL>(&sh, &ch),
                DistanceMode::CenterAnchored => self.score_row::<MODE_CENTER>(&sh, &ch),
                DistanceMode::ZeroedInside => self.score_row::<MODE_ZEROED>(&sh, &ch),
            };
            out.push(score);
        }
    }

    fn score_table<const MODE: u8>(&self, trig: &EntityTrig, row0: usize, out: &mut [f32]) {
        let d = self.dim;
        if d == 0 {
            return;
        }
        let rows_s = trig.half_sin[row0 * d..].chunks_exact(d);
        let rows_c = trig.half_cos[row0 * d..].chunks_exact(d);
        for ((sh, ch), slot) in rows_s.zip(rows_c).zip(out.iter_mut()) {
            *slot = slot.min(self.score_row::<MODE>(sh, ch));
        }
    }

    /// Min-over-branches score of one entity from its half-angle trig row.
    #[inline]
    fn score_row<const MODE: u8>(&self, sh: &[f32], ch: &[f32]) -> f32 {
        let d = self.dim;
        let mut best = f32::INFINITY;
        for br in &self.branches {
            let (cos_s, sin_s) = (&br.cos_s[..d], &br.sin_s[..d]);
            let (cos_e, sin_e) = (&br.cos_e[..d], &br.sin_e[..d]);
            let (cos_c, sin_c) = (&br.cos_c[..d], &br.sin_c[..d]);
            let (cap, thr) = (&br.cap[..d], &br.thr[..d]);
            let mut acc_o = 0.0f32;
            let mut acc_i = 0.0f32;
            for j in 0..d {
                // sin((θ−a)/2) = sin(θ/2)cos(a/2) − cos(θ/2)sin(a/2).
                let s_s = sh[j] * cos_s[j] - ch[j] * sin_s[j];
                let s_e = sh[j] * cos_e[j] - ch[j] * sin_e[j];
                let s_c = sh[j] * cos_c[j] - ch[j] * sin_c[j];
                let endpoints = s_s.abs().min(s_e.abs());
                let d_o = if MODE == MODE_CENTER {
                    endpoints.min(s_c.abs())
                } else if MODE == MODE_ZEROED {
                    // Branch-free containment mask: 1.0 outside the arc.
                    endpoints * f32::from(s_c.abs() > thr[j])
                } else {
                    endpoints
                };
                acc_o += d_o;
                acc_i += s_c.abs().min(cap[j]);
            }
            best = best.min(acc_o + self.eta * acc_i);
        }
        2.0 * self.rho * best
    }
}

/// NewLook-style interval scoring compiled to SoA: per branch and dim a
/// `(center, offset)` box, scored as
/// `Σ max(|x−c|−o, 0) + η·min(|x−c|, o)` with the min over branches.
pub struct BoxScorer {
    centers: Vec<Vec<f32>>,
    offsets: Vec<Vec<f32>>,
    dim: usize,
    eta: f32,
}

impl BoxScorer {
    /// Compiles DNF branches of `(center, offset)` pairs per dim.
    pub fn new(branches: &[Vec<(f32, f32)>], eta: f32) -> Self {
        let dim = branches.first().map_or(0, Vec::len);
        let centers = branches
            .iter()
            .map(|b| b.iter().map(|&(c, _)| c).collect())
            .collect();
        let offsets = branches
            .iter()
            .map(|b| b.iter().map(|&(_, o)| o).collect())
            .collect();
        Self {
            centers,
            offsets,
            dim,
            eta,
        }
    }

    /// Scores every row of a raw-value table into `out` (cleared and
    /// refilled).
    pub fn score_into(&self, table: &Tensor, out: &mut Vec<f32>) {
        assert_eq!(table.cols, self.dim, "entity/query dimensionality mismatch");
        out.clear();
        out.resize(table.rows, f32::INFINITY);
        let d = self.dim;
        if d == 0 {
            return;
        }
        for (c, o) in self.centers.iter().zip(&self.offsets) {
            let (c, o) = (&c[..d], &o[..d]);
            for (row, slot) in table.data.chunks_exact(d).zip(out.iter_mut()) {
                let mut acc = 0.0f32;
                for j in 0..d {
                    let a = (row[j] - c[j]).abs();
                    acc += (a - o[j]).max(0.0) + self.eta * a.min(o[j]);
                }
                *slot = slot.min(acc);
            }
        }
    }
}

/// Plain L1 point scoring (the MLPMix baseline): per branch a center vector,
/// scored as `Σ|x−c|` with the min over branches.
pub struct L1Scorer {
    centers: Vec<Vec<f32>>,
    dim: usize,
}

impl L1Scorer {
    /// Compiles DNF branches of center vectors.
    pub fn new(branches: &[Vec<f32>]) -> Self {
        let dim = branches.first().map_or(0, Vec::len);
        Self {
            centers: branches.to_vec(),
            dim,
        }
    }

    /// Scores every row of a raw-value table into `out` (cleared and
    /// refilled).
    pub fn score_into(&self, table: &Tensor, out: &mut Vec<f32>) {
        assert_eq!(table.cols, self.dim, "entity/query dimensionality mismatch");
        out.clear();
        out.resize(table.rows, f32::INFINITY);
        let d = self.dim;
        if d == 0 {
            return;
        }
        for c in &self.centers {
            let c = &c[..d];
            for (row, slot) in table.data.chunks_exact(d).zip(out.iter_mut()) {
                let mut acc = 0.0f32;
                for j in 0..d {
                    acc += (row[j] - c[j]).abs();
                }
                *slot = slot.min(acc);
            }
        }
    }
}

/// Indices of the `k` lowest scores, ascending by score with ties broken by
/// index — the same order a stable full sort produces, but via `O(n)`
/// partial selection plus an `O(k log k)` sort of the winners.
pub fn top_k_indices(scores: &[f32], k: usize) -> Vec<u32> {
    let k = k.min(scores.len());
    if k == 0 {
        return Vec::new();
    }
    let cmp = |a: &u32, b: &u32| {
        scores[*a as usize]
            .partial_cmp(&scores[*b as usize])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.cmp(b))
    };
    let mut idx: Vec<u32> = (0..scores.len() as u32).collect();
    if k < idx.len() {
        idx.select_nth_unstable_by(k - 1, cmp);
        idx.truncate(k);
    }
    idx.sort_unstable_by(cmp);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{sharded_top_k, ArcShards, ShardedTopK, ShardedTrig};
    use halk_geometry::TAU;
    use halk_obs::Deadline;
    use halk_par::Pool;

    fn trig(table: &Tensor) -> EntityTrig {
        EntityTrig::new(table, 0..table.rows)
    }

    fn score_all(scorer: &ArcScorer, trig: &EntityTrig) -> Vec<f32> {
        let mut out = Vec::new();
        scorer.score_into(trig, &mut out);
        out
    }

    /// One sweep of the single-shard sharded top-k over `table`.
    fn top_k(scorer: &ArcScorer, table: &Tensor, k: usize, deadline: &Deadline) -> ShardedTopK {
        let sharded = ShardedTrig::new(table, &ArcShards::new(table.rows, 1));
        sharded_top_k(
            &Pool::new(1),
            &sharded,
            std::slice::from_ref(scorer),
            &[k],
            &[deadline],
        )
        .pop()
        .expect("one query in, one result out")
    }

    fn scalar_score(arcs: &[Vec<Arc>], theta: &[f32], eta: f32, mode: DistanceMode) -> f32 {
        arcs.iter()
            .map(|branch| {
                branch
                    .iter()
                    .zip(theta)
                    .map(|(a, &t)| match mode {
                        DistanceMode::LiteralEq16 => a.dist(t, eta),
                        DistanceMode::ZeroedInside => {
                            a.outside_dist_zeroed(t) + eta * a.inside_dist(t)
                        }
                        DistanceMode::CenterAnchored => {
                            let d_o = a
                                .outside_dist(t)
                                .min(halk_geometry::chord(t, a.center, a.rho));
                            d_o + eta * a.inside_dist(t)
                        }
                    })
                    .sum::<f32>()
            })
            .fold(f32::INFINITY, f32::min)
    }

    fn grid_arcs(rho: f32) -> Vec<Vec<Arc>> {
        vec![
            vec![Arc::new(0.3, 0.8 * rho, rho), Arc::new(5.9, 2.0 * rho, rho)],
            vec![Arc::new(2.0, 0.0, rho), Arc::new(4.0, TAU * rho, rho)],
        ]
    }

    #[test]
    fn matches_scalar_on_grid_all_modes() {
        let rho = 1.0;
        let eta = 0.05;
        let arcs = grid_arcs(rho);
        let n = 64;
        let mut data = Vec::with_capacity(n * 2);
        for i in 0..n {
            data.push(i as f32 * TAU / n as f32);
            data.push((i as f32 * 0.77 + 1.3) % TAU);
        }
        let table = Tensor::from_vec(n, 2, data);
        let trig = trig(&table);
        for mode in [
            DistanceMode::LiteralEq16,
            DistanceMode::CenterAnchored,
            DistanceMode::ZeroedInside,
        ] {
            let scorer = ArcScorer::from_arcs(&arcs, rho, eta, mode);
            let fast = score_all(&scorer, &trig);
            for (e, &got) in fast.iter().enumerate() {
                let want = scalar_score(&arcs, table.row(e), eta, mode);
                assert!(
                    (got - want).abs() < 1e-4,
                    "{mode:?} entity {e}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn score_rows_matches_full_table() {
        let rho = 1.0;
        let arcs = grid_arcs(rho);
        let table = Tensor::from_vec(4, 2, vec![0.1, 0.2, 3.0, 4.0, 5.5, 0.9, 2.2, 2.3]);
        let scorer = ArcScorer::from_arcs(&arcs, rho, 0.1, DistanceMode::CenterAnchored);
        let full = score_all(&scorer, &trig(&table));
        let mut subset = Vec::new();
        scorer.score_rows_into(&table, &[3, 0, 2], &mut subset);
        assert_eq!(subset, vec![full[3], full[0], full[2]]);
    }

    #[test]
    fn empty_branches_score_infinity() {
        let scorer = ArcScorer::from_arcs(&[], 1.0, 0.1, DistanceMode::LiteralEq16);
        let table = Tensor::from_vec(2, 0, vec![]);
        let out = score_all(&scorer, &trig(&table));
        assert_eq!(out, vec![f32::INFINITY; 2]);
    }

    #[test]
    fn box_scorer_matches_scalar() {
        let branches = vec![
            vec![(0.5f32, 0.2f32), (-1.0, 0.8)],
            vec![(2.0, 0.0), (0.0, 3.0)],
        ];
        let eta = 0.3;
        let table = Tensor::from_vec(3, 2, vec![0.4, -0.9, 2.5, 0.1, -4.0, 7.0]);
        let scorer = BoxScorer::new(&branches, eta);
        let mut out = Vec::new();
        scorer.score_into(&table, &mut out);
        for (e, &got) in out.iter().enumerate() {
            let want = branches
                .iter()
                .map(|b| {
                    b.iter()
                        .zip(table.row(e))
                        .map(|(&(c, o), &x)| {
                            let a = (x - c).abs();
                            (a - o).max(0.0) + eta * a.min(o)
                        })
                        .sum::<f32>()
                })
                .fold(f32::INFINITY, f32::min);
            assert!((got - want).abs() < 1e-5);
        }
    }

    #[test]
    fn l1_scorer_matches_scalar() {
        let branches = vec![vec![1.0f32, -2.0], vec![0.0, 0.0]];
        let table = Tensor::from_vec(2, 2, vec![0.5, 0.5, -3.0, 2.0]);
        let scorer = L1Scorer::new(&branches);
        let mut out = Vec::new();
        scorer.score_into(&table, &mut out);
        assert!((out[0] - 1.0f32.min(3.0)).abs() < 1e-6);
        assert!((out[1] - 5.0f32.min(8.0)).abs() < 1e-6);
    }

    #[test]
    fn slice_prefix_is_bit_identical_and_sweep_stops_on_expiry() {
        use halk_obs::Clock;
        let rho = 1.0;
        let arcs = grid_arcs(rho);
        let n = 64;
        let mut data = Vec::with_capacity(n * 2);
        for i in 0..n {
            data.push(i as f32 * TAU / n as f32);
            data.push((i as f32 * 0.77 + 1.3) % TAU);
        }
        let table = Tensor::from_vec(n, 2, data);
        let trig = trig(&table);
        let scorer = ArcScorer::from_arcs(&arcs, rho, 0.05, DistanceMode::LiteralEq16);
        let full = score_all(&scorer, &trig);

        // Unarmed deadline: everything scored, bit-identical to score_into.
        let (hits, done) = top_k(&scorer, &table, n, &Deadline::never());
        assert_eq!(done, n);
        let mut out = vec![f32::INFINITY; n];
        for (i, s) in hits {
            out[i as usize] = s;
        }
        assert!(full
            .iter()
            .zip(&out)
            .all(|(a, b)| a.to_bits() == b.to_bits()));

        // An expired mock deadline stops at the first slice boundary:
        // zero rows scored, nothing kept.
        let (clock, now) = Clock::mock();
        let d = Deadline::at_ns(&clock, 1);
        now.store(5, std::sync::atomic::Ordering::SeqCst);
        let (partial, done) = top_k(&scorer, &table, n, &d);
        assert_eq!(done, 0);
        assert!(partial.is_empty());

        // Two half-table slices equal the full pass.
        let mut halves = vec![f32::INFINITY; n];
        scorer.score_slice(&trig, 0, &mut halves[..n / 2]);
        scorer.score_slice(&trig, n / 2, &mut halves[n / 2..]);
        assert!(full
            .iter()
            .zip(&halves)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn top_k_matches_stable_sort() {
        let scores = vec![3.0, 1.0, 2.0, 1.0, 0.5, 2.0, 9.0];
        let got = top_k_indices(&scores, 4);
        // Stable order: 0.5@4, 1.0@1, 1.0@3, 2.0@2.
        assert_eq!(got, vec![4, 1, 3, 2]);
        assert_eq!(top_k_indices(&scores, 0), Vec::<u32>::new());
        assert_eq!(top_k_indices(&scores, 100).len(), scores.len());
    }

    #[test]
    fn topk_heap_matches_reference_with_ties() {
        let scores = vec![3.0, 1.0, 2.0, 1.0, 0.5, 2.0, 9.0, 1.0];
        for k in [0, 1, 4, scores.len(), scores.len() + 5] {
            let mut heap = TopK::new(k);
            for (i, &s) in scores.iter().enumerate() {
                heap.offer(i as u32, s);
            }
            let got: Vec<u32> = heap.into_sorted().iter().map(|&(i, _)| i).collect();
            assert_eq!(got, top_k_indices(&scores, k), "k={k}");
        }
    }

    #[test]
    fn topk_absorb_is_order_independent() {
        let scores: Vec<f32> = (0..200).map(|i| ((i * 37) % 50) as f32 * 0.25).collect();
        let want = top_k_indices(&scores, 7);
        // Split the offers across three heaps in a scrambled order, then merge.
        let mut parts = [TopK::new(7), TopK::new(7), TopK::new(7)];
        for (i, &s) in scores.iter().enumerate().rev() {
            parts[i % 3].offer(i as u32, s);
        }
        let mut merged = TopK::new(7);
        for p in &parts {
            merged.absorb(p);
        }
        let got: Vec<u32> = merged.into_sorted().iter().map(|&(i, _)| i).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn trig_from_rows_matches_full_table() {
        let table = Tensor::from_vec(4, 2, vec![0.1, 0.2, 3.0, 4.0, 5.5, 0.9, 2.2, 2.3]);
        let full = trig(&table);
        let part = EntityTrig::new(&table, 1..3);
        assert_eq!(part.n_entities(), 2);
        let ((ps, pc), (fs, fc)) = (part.f32_parts(), full.f32_parts());
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(ps), bits(&fs[2..6]), "sin");
        assert_eq!(bits(pc), bits(&fc[2..6]), "cos");
    }

    #[test]
    fn resident_bytes_count_eight_per_pair() {
        let table = Tensor::from_vec(4, 2, vec![0.0; 8]);
        assert_eq!(trig(&table).resident_bytes(), 4 * 2 * 8);
    }

    #[test]
    fn streaming_top_k_matches_full_vector_reference() {
        let rho = 1.0;
        let arcs = grid_arcs(rho);
        // More rows than one SCORE_SLICE so the streaming loop takes
        // multiple slices.
        let n = SCORE_SLICE + 300;
        let mut data = Vec::with_capacity(n * 2);
        for i in 0..n {
            data.push(i as f32 * TAU / n as f32);
            data.push((i as f32 * 0.77 + 1.3) % TAU);
        }
        let table = Tensor::from_vec(n, 2, data);
        let scorer = ArcScorer::from_arcs(&arcs, rho, 0.05, DistanceMode::LiteralEq16);
        let full = score_all(&scorer, &trig(&table));
        let want = top_k_indices(&full, 10);

        let (got, rows) = top_k(&scorer, &table, 10, &Deadline::never());
        assert_eq!(rows, n);
        assert_eq!(got.len(), want.len());
        for (&w, &(i, s)) in want.iter().zip(&got) {
            assert_eq!(i, w);
            assert_eq!(s.to_bits(), full[w as usize].to_bits());
        }

        // An already-expired deadline scores zero rows.
        use halk_obs::Clock;
        let (clock, now) = Clock::mock();
        let d = Deadline::at_ns(&clock, 1);
        now.store(5, std::sync::atomic::Ordering::SeqCst);
        let (h2, rows) = top_k(&scorer, &table, 10, &d);
        assert_eq!(rows, 0);
        assert!(h2.is_empty());
    }
}
