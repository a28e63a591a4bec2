//! Versioned binary snapshots of a trained HaLk deployment: the knowledge
//! graph, the node grouping, the model hyper-parameters, the parameter
//! values *and the precomputed SoA entity-trig table*, in one CRC-framed
//! file that a server can boot from without re-parsing TSVs or re-deriving
//! any model state.
//!
//! Cold start without a snapshot pays a TSV text parse, a grouping triple
//! sweep, `HalkModel::new`'s `O(n_entities · d)` seeded init that the
//! checkpoint restore then throws away, and an `n_entities · d` sin/cos
//! sweep to build the scoring trig table. The snapshot skips every
//! recomputable step: grouping and parameter values travel directly, the
//! trig table travels precomputed, and only the graph's adjacency indexes
//! are rebuilt (cheaper than shipping them — the CSR offset arrays alone
//! would add `8 · n_entities · n_relations` bytes). Boot is a sequential
//! read plus validation: [`Grouping::from_parts`] and
//! [`HalkModel::from_parts`] re-check the invariants their `new`
//! constructors establish, so a corrupted file can reject but never load
//! as a silently different deployment.
//!
//! A snapshot is a **serving** artifact: optimizer state (Adam moments,
//! gradients) is deliberately not stored — it restores as zeros. Resume
//! training from a [`halk_nn::checkpoint`], not a snapshot; the diet cuts
//! the parameter section to a third of the checkpoint's size.
//!
//! # Format (version 1)
//!
//! ```text
//! magic "HALKSNAP" | version u32 | n_sections u32
//! per section: tag [u8;4] | payload_len u64 | payload | crc32(payload) u32
//! trailing crc32 u32 over every preceding byte (magic included)
//! ```
//!
//! All integers little-endian. The per-section CRCs let `inspect` report
//! which section a corruption hit; the trailing file CRC is checked first
//! and makes *any* single-byte corruption a deterministic
//! [`SnapError::FileChecksum`] before structural decoding begins — the same
//! discipline as the v2 parameter checkpoint. Decoding dispatches on the
//! version field: unknown versions are a typed [`SnapError::BadVersion`],
//! and future writers can add versions while this reader keeps accepting
//! v1 files.
//!
//! Section tags: `META` (counts for cheap inspection), `CONF` (config
//! JSON), `GRPH` (triples, 12 bytes each, stored sorted so decode
//! rebuilds the adjacency indexes with counting passes instead of a
//! sort), `GROU` (grouping parts), `PARM` (train step + tensor shapes +
//! one raw f32 value blob), `TRIG` (the entity-trig table:
//! `half_sin` then `half_cos`, `n_entities · dim` f32 each).
//!
//! [`write_file`] is crash-safe the same way checkpoint saves are: temp
//! sibling + fsync + atomic rename, so a crash mid-write leaves the old
//! snapshot (or nothing), never a torn file.

use halk_core::{EntityTrig, HalkConfig, HalkModel};
use halk_kg::{Graph, Grouping, Triple};
use halk_nn::checkpoint::crc32;
use halk_nn::{ParamStore, Tensor};
use std::fmt;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"HALKSNAP";
/// Current (written) snapshot format version.
pub const VERSION: u32 = 1;

const TAG_META: [u8; 4] = *b"META";
const TAG_CONF: [u8; 4] = *b"CONF";
const TAG_GRPH: [u8; 4] = *b"GRPH";
const TAG_GROU: [u8; 4] = *b"GROU";
const TAG_PARM: [u8; 4] = *b"PARM";
const TAG_TRIG: [u8; 4] = *b"TRIG";
const KNOWN_TAGS: [[u8; 4]; 6] = [TAG_META, TAG_CONF, TAG_GRPH, TAG_GROU, TAG_PARM, TAG_TRIG];

fn tag_name(tag: [u8; 4]) -> String {
    tag.iter()
        .map(|&b| if b.is_ascii_graphic() { b as char } else { '?' })
        .collect()
}

/// Errors produced while decoding a snapshot. Every defect of a malformed
/// buffer maps here — the decoder never panics and never returns a graph or
/// model that differs from what was written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The buffer does not start with the snapshot magic.
    BadMagic,
    /// Unknown format version.
    BadVersion(u32),
    /// The buffer ended before the declared content.
    Truncated,
    /// Bytes remain after the declared content.
    TrailingBytes,
    /// The trailing whole-file CRC32 does not match.
    FileChecksum { stored: u32, computed: u32 },
    /// A section's payload CRC32 does not match.
    SectionChecksum {
        tag: [u8; 4],
        stored: u32,
        computed: u32,
    },
    /// A section tag outside the v1 vocabulary.
    UnknownSection([u8; 4]),
    /// The same section appears twice.
    DuplicateSection([u8; 4]),
    /// A required section is absent.
    MissingSection([u8; 4]),
    /// A section decoded but its contents violate an invariant (reported by
    /// the validating `from_parts` constructors or cross-section checks).
    Malformed { section: [u8; 4], reason: String },
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::BadMagic => write!(f, "not a HaLk snapshot (bad magic)"),
            SnapError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapError::Truncated => write!(f, "snapshot truncated"),
            SnapError::TrailingBytes => write!(f, "snapshot has trailing bytes"),
            SnapError::FileChecksum { stored, computed } => write!(
                f,
                "snapshot corrupted: stored file crc32 {stored:#010x}, computed {computed:#010x}"
            ),
            SnapError::SectionChecksum {
                tag,
                stored,
                computed,
            } => write!(
                f,
                "section {} corrupted: stored crc32 {stored:#010x}, computed {computed:#010x}",
                tag_name(*tag)
            ),
            SnapError::UnknownSection(tag) => {
                write!(f, "unknown snapshot section {}", tag_name(*tag))
            }
            SnapError::DuplicateSection(tag) => {
                write!(f, "duplicate snapshot section {}", tag_name(*tag))
            }
            SnapError::MissingSection(tag) => {
                write!(f, "missing snapshot section {}", tag_name(*tag))
            }
            SnapError::Malformed { section, reason } => {
                write!(f, "section {} malformed: {reason}", tag_name(*section))
            }
        }
    }
}

impl std::error::Error for SnapError {}

/// Cheap metadata about a snapshot, decodable without reconstructing the
/// graph or model (`halk snapshot inspect`). Produced only after the file
/// and per-section checksums verify.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotMeta {
    pub version: u32,
    pub n_entities: usize,
    pub n_relations: usize,
    pub n_triples: usize,
    pub n_groups: usize,
    pub dim: usize,
    pub n_params: usize,
    pub n_scalars: usize,
    /// Total file size in bytes.
    pub total_bytes: usize,
    /// `(section name, payload bytes)` in file order.
    pub sections: Vec<(String, usize)>,
}

// ------------------------------------------------------------------ encode

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f32s(buf: &mut Vec<u8>, values: &[f32]) {
    buf.reserve(values.len() * 4);
    for &v in values {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

fn put_section(buf: &mut Vec<u8>, tag: [u8; 4], payload: &[u8]) {
    buf.extend_from_slice(&tag);
    put_u64(buf, payload.len() as u64);
    buf.extend_from_slice(payload);
    put_u32(buf, crc32(payload));
}

fn encode_meta(graph: &Graph, model: &HalkModel) -> Vec<u8> {
    let mut p = Vec::with_capacity(44);
    put_u64(&mut p, graph.n_entities() as u64);
    put_u64(&mut p, graph.n_relations() as u64);
    put_u64(&mut p, graph.n_triples() as u64);
    put_u32(&mut p, model.grouping().n_groups() as u32);
    put_u32(&mut p, model.config().dim as u32);
    put_u32(&mut p, model.param_store().len() as u32);
    put_u64(&mut p, model.param_store().num_scalars() as u64);
    p
}

fn encode_graph(graph: &Graph) -> Vec<u8> {
    // Triples only, 12 bytes each, in the graph's strict (h, r, t) order.
    // The adjacency indexes are deliberately *not* serialized: shipping
    // dense CSR offsets would cost `8·|V|·|R|` bytes (gigabytes at
    // million-entity scale — the opposite of a memory diet), and because
    // the list is stored sorted, `Graph::from_sorted_triples` rebuilds
    // both directions at decode with counting passes — no sort — in
    // `O(|T| + |V|·|R|)`.
    let mut p = Vec::with_capacity(graph.n_triples() * 12);
    for t in graph.triples() {
        put_u32(&mut p, t.h.index() as u32);
        put_u32(&mut p, t.r.index() as u32);
        put_u32(&mut p, t.t.index() as u32);
    }
    p
}

fn encode_grouping(grouping: &Grouping) -> Vec<u8> {
    let (n_groups, group_of, adj, adj_inv) = grouping.parts();
    let mut p = Vec::with_capacity(4 + group_of.len() + adj.len() * n_groups * 16);
    put_u32(&mut p, n_groups as u32);
    p.extend_from_slice(group_of);
    for rows in [adj, adj_inv] {
        for row in rows {
            for &mask in row {
                put_u64(&mut p, mask);
            }
        }
    }
    p
}

fn encode_params(store: &ParamStore) -> Vec<u8> {
    // Values only: a snapshot is a serving artifact. Adam moments and
    // gradients exist to *continue training* — checkpoints carry those —
    // and would triple this section; they restore as zeros.
    let mut p = Vec::with_capacity(8 + store.len() * 8 + store.num_scalars() * 4);
    put_u64(&mut p, store.steps_taken());
    for i in 0..store.len() {
        let t = store.value(store.param_id(i));
        put_u32(&mut p, t.rows as u32);
        put_u32(&mut p, t.cols as u32);
    }
    for i in 0..store.len() {
        put_f32s(&mut p, &store.value(store.param_id(i)).data);
    }
    p
}

fn encode_trig(trig: &EntityTrig) -> Vec<u8> {
    let (half_sin, half_cos) = trig.f32_parts();
    let mut p = Vec::with_capacity((half_sin.len() + half_cos.len()) * 4);
    put_f32s(&mut p, half_sin);
    put_f32s(&mut p, half_cos);
    p
}

/// Serializes a deployment (graph + trained model) to snapshot bytes,
/// precomputing the entity-trig table so boot can skip the
/// sin/cos sweep.
///
/// # Panics
/// If the graph and model disagree on entity or relation counts — that is
/// a caller bug, not a recoverable condition.
pub fn to_bytes(graph: &Graph, model: &HalkModel) -> Vec<u8> {
    assert_eq!(
        graph.n_entities(),
        model.n_entities(),
        "graph/model entity count mismatch"
    );
    assert_eq!(
        graph.n_relations(),
        model.n_relations(),
        "graph/model relation count mismatch"
    );
    let conf = serde_json::to_string(model.config())
        .expect("HalkConfig serializes infallibly")
        .into_bytes();
    let trig = model.entity_trig();

    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC);
    put_u32(&mut buf, VERSION);
    put_u32(&mut buf, KNOWN_TAGS.len() as u32);
    put_section(&mut buf, TAG_META, &encode_meta(graph, model));
    put_section(&mut buf, TAG_CONF, &conf);
    put_section(&mut buf, TAG_GRPH, &encode_graph(graph));
    put_section(&mut buf, TAG_GROU, &encode_grouping(model.grouping()));
    put_section(&mut buf, TAG_PARM, &encode_params(model.param_store()));
    put_section(&mut buf, TAG_TRIG, &encode_trig(&trig));
    let crc = crc32(&buf);
    put_u32(&mut buf, crc);
    buf
}

// ------------------------------------------------------------------ decode

/// Bounds-checked little-endian reader over a byte slice.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        let end = self.pos.checked_add(n).ok_or(SnapError::Truncated)?;
        if end > self.buf.len() {
            return Err(SnapError::Truncated);
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u32_le(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64_le(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn u32_vec(&mut self, n: usize) -> Result<Vec<u32>, SnapError> {
        let raw = self.take(n.checked_mul(4).ok_or(SnapError::Truncated)?)?;
        Ok(bulk_le(raw, n, |c| {
            u32::from_le_bytes(c.try_into().unwrap())
        }))
    }

    fn u64_vec(&mut self, n: usize) -> Result<Vec<u64>, SnapError> {
        let raw = self.take(n.checked_mul(8).ok_or(SnapError::Truncated)?)?;
        Ok(bulk_le(raw, n, |c| {
            u64::from_le_bytes(c.try_into().unwrap())
        }))
    }

    fn f32_vec(&mut self, n: usize) -> Result<Vec<f32>, SnapError> {
        let raw = self.take(n.checked_mul(4).ok_or(SnapError::Truncated)?)?;
        Ok(bulk_le(raw, n, |c| {
            f32::from_le_bytes(c.try_into().unwrap())
        }))
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// Decodes `n` little-endian values of size `size_of::<T>()` from `raw`.
///
/// The wire format is little-endian, which on little-endian hosts matches
/// the in-memory layout exactly — the whole blob becomes one memcpy
/// (`copy_nonoverlapping` tolerates the unaligned source) instead of a
/// per-element `from_le_bytes` loop. Big-endian hosts fall back to the
/// per-element path. `T` must be a plain-old-data numeric type with no
/// invalid bit patterns (u32/u64/f32 here).
fn bulk_le<T: Copy>(raw: &[u8], n: usize, per_elem: impl Fn(&[u8]) -> T) -> Vec<T> {
    debug_assert_eq!(raw.len(), n * std::mem::size_of::<T>());
    #[cfg(target_endian = "little")]
    {
        let _ = &per_elem;
        let mut out = Vec::<T>::with_capacity(n);
        // SAFETY: `raw` holds exactly `n * size_of::<T>()` bytes (caller
        // sized the take), the freshly allocated `out` holds `n` `T`s, the
        // regions cannot overlap, and every bit pattern is a valid `T`.
        unsafe {
            std::ptr::copy_nonoverlapping(raw.as_ptr(), out.as_mut_ptr() as *mut u8, raw.len());
            out.set_len(n);
        }
        out
    }
    #[cfg(not(target_endian = "little"))]
    {
        raw.chunks_exact(std::mem::size_of::<T>())
            .map(|c| per_elem(c))
            .collect()
    }
}

/// The six decoded section payloads, borrowed from the input buffer.
struct Sections<'a> {
    meta: &'a [u8],
    conf: &'a [u8],
    graph: &'a [u8],
    grouping: &'a [u8],
    params: &'a [u8],
    trig: &'a [u8],
}

/// A verified section: `(tag, payload)` borrowed from the input buffer.
type TaggedPayload<'a> = ([u8; 4], &'a [u8]);

/// Verifies framing (magic, version, file CRC, per-section CRCs) and
/// returns the section payloads. Checked before any structural decode, so
/// everything downstream operates on bytes proven identical to what the
/// writer produced.
fn decode_sections(buf: &[u8]) -> Result<(u32, Vec<TaggedPayload<'_>>), SnapError> {
    if buf.len() < 8 || &buf[..8] != MAGIC {
        return Err(SnapError::BadMagic);
    }
    if buf.len() < 12 {
        return Err(SnapError::Truncated);
    }
    let version = u32::from_le_bytes(buf[8..12].try_into().unwrap());
    // Version dispatch: v1 is the only layout so far. A future v2 adds an
    // arm here while v1 files keep decoding.
    if version != VERSION {
        return Err(SnapError::BadVersion(version));
    }
    if buf.len() < 16 {
        return Err(SnapError::Truncated);
    }
    let body = &buf[..buf.len() - 4];
    let stored = u32::from_le_bytes(buf[buf.len() - 4..].try_into().unwrap());
    let computed = crc32(body);
    if stored != computed {
        return Err(SnapError::FileChecksum { stored, computed });
    }

    let mut cur = Cursor::new(body);
    cur.pos = 12;
    let n_sections = cur.u32_le()? as usize;
    let mut sections: Vec<([u8; 4], &[u8])> = Vec::new();
    for _ in 0..n_sections {
        let tag: [u8; 4] = cur.take(4)?.try_into().unwrap();
        if !KNOWN_TAGS.contains(&tag) {
            return Err(SnapError::UnknownSection(tag));
        }
        if sections.iter().any(|(t, _)| *t == tag) {
            return Err(SnapError::DuplicateSection(tag));
        }
        let len = cur.u64_le()?;
        let len = usize::try_from(len).map_err(|_| SnapError::Truncated)?;
        let payload = cur.take(len)?;
        let stored = cur.u32_le()?;
        let computed = crc32(payload);
        if stored != computed {
            return Err(SnapError::SectionChecksum {
                tag,
                stored,
                computed,
            });
        }
        sections.push((tag, payload));
    }
    if cur.remaining() != 0 {
        return Err(SnapError::TrailingBytes);
    }
    Ok((version, sections))
}

fn require<'a>(sections: &[([u8; 4], &'a [u8])], tag: [u8; 4]) -> Result<&'a [u8], SnapError> {
    sections
        .iter()
        .find(|(t, _)| *t == tag)
        .map(|(_, p)| *p)
        .ok_or(SnapError::MissingSection(tag))
}

fn split_sections<'a>(buf: &'a [u8]) -> Result<(u32, Sections<'a>), SnapError> {
    let (version, sections) = decode_sections(buf)?;
    Ok((
        version,
        Sections {
            meta: require(&sections, TAG_META)?,
            conf: require(&sections, TAG_CONF)?,
            graph: require(&sections, TAG_GRPH)?,
            grouping: require(&sections, TAG_GROU)?,
            params: require(&sections, TAG_PARM)?,
            trig: require(&sections, TAG_TRIG)?,
        },
    ))
}

struct Meta {
    n_entities: usize,
    n_relations: usize,
    n_triples: usize,
    n_groups: usize,
    dim: usize,
    n_params: usize,
    n_scalars: usize,
}

fn malformed(section: [u8; 4], reason: impl Into<String>) -> SnapError {
    SnapError::Malformed {
        section,
        reason: reason.into(),
    }
}

fn parse_meta(payload: &[u8]) -> Result<Meta, SnapError> {
    let mut cur = Cursor::new(payload);
    let meta = Meta {
        n_entities: cur.u64_le()? as usize,
        n_relations: cur.u64_le()? as usize,
        n_triples: cur.u64_le()? as usize,
        n_groups: cur.u32_le()? as usize,
        dim: cur.u32_le()? as usize,
        n_params: cur.u32_le()? as usize,
        n_scalars: cur.u64_le()? as usize,
    };
    if cur.remaining() != 0 {
        return Err(malformed(TAG_META, "trailing bytes in META"));
    }
    if meta.n_entities > u32::MAX as usize || meta.n_relations > u32::MAX as usize {
        return Err(malformed(TAG_META, "entity/relation count exceeds u32 ids"));
    }
    Ok(meta)
}

fn parse_graph(payload: &[u8], meta: &Meta) -> Result<Graph, SnapError> {
    let mut cur = Cursor::new(payload);
    let words = meta
        .n_triples
        .checked_mul(3)
        .ok_or_else(|| malformed(TAG_GRPH, "triple count overflows"))?;
    let flat = cur.u32_vec(words)?;
    if cur.remaining() != 0 {
        return Err(malformed(TAG_GRPH, "trailing bytes in GRPH"));
    }
    let mut triples = Vec::with_capacity(meta.n_triples);
    for c in flat.chunks_exact(3) {
        triples.push(Triple::new(c[0], c[1], c[2]));
    }
    // The writer stores the list in the graph's strict (h, r, t) order, so
    // `from_sorted_triples` checks order and id ranges (a typed error, not
    // a panic, on anything else) and rebuilds both adjacency directions
    // with counting passes — no sort. Strict order doubles as the
    // duplicate check.
    Graph::from_sorted_triples(meta.n_entities, meta.n_relations, triples)
        .map_err(|e| malformed(TAG_GRPH, e))
}

fn parse_grouping(payload: &[u8], meta: &Meta) -> Result<Grouping, SnapError> {
    let mut cur = Cursor::new(payload);
    let n_groups = cur.u32_le()? as usize;
    if n_groups != meta.n_groups {
        return Err(malformed(
            TAG_GROU,
            format!(
                "group count {n_groups} disagrees with META {}",
                meta.n_groups
            ),
        ));
    }
    let group_of = cur.take(meta.n_entities)?.to_vec();
    let mut adj = Vec::with_capacity(meta.n_relations);
    let mut adj_inv = Vec::with_capacity(meta.n_relations);
    for dir in [&mut adj, &mut adj_inv] {
        for _ in 0..meta.n_relations {
            dir.push(cur.u64_vec(n_groups)?);
        }
    }
    if cur.remaining() != 0 {
        return Err(malformed(TAG_GROU, "trailing bytes in GROU"));
    }
    Grouping::from_parts(n_groups, group_of, adj, adj_inv).map_err(|e| malformed(TAG_GROU, e))
}

fn parse_params(payload: &[u8], meta: &Meta) -> Result<ParamStore, SnapError> {
    let mut cur = Cursor::new(payload);
    let steps = cur.u64_le()?;
    let mut shapes = Vec::with_capacity(meta.n_params);
    let mut total = 0usize;
    for _ in 0..meta.n_params {
        let rows = cur.u32_le()? as usize;
        let cols = cur.u32_le()? as usize;
        let scalars = rows
            .checked_mul(cols)
            .ok_or_else(|| malformed(TAG_PARM, "tensor shape overflows"))?;
        total = total
            .checked_add(scalars)
            .ok_or_else(|| malformed(TAG_PARM, "scalar count overflows"))?;
        shapes.push((rows, cols));
    }
    if total != meta.n_scalars {
        return Err(malformed(
            TAG_PARM,
            format!(
                "shapes sum to {total} scalars, META declares {}",
                meta.n_scalars
            ),
        ));
    }
    let mut store = ParamStore::new();
    for (rows, cols) in shapes {
        let data = cur.f32_vec(rows * cols)?;
        store.add(Tensor { rows, cols, data });
    }
    if cur.remaining() != 0 {
        return Err(malformed(TAG_PARM, "trailing bytes in PARM"));
    }
    store.restore_step(steps);
    Ok(store)
}

fn parse_trig(payload: &[u8], meta: &Meta) -> Result<EntityTrig, SnapError> {
    let n = meta
        .n_entities
        .checked_mul(meta.dim)
        .ok_or_else(|| malformed(TAG_TRIG, "entity * dim overflows"))?;
    let mut cur = Cursor::new(payload);
    let half_sin = cur.f32_vec(n)?;
    let half_cos = cur.f32_vec(n)?;
    if cur.remaining() != 0 {
        return Err(malformed(TAG_TRIG, "trailing bytes in TRIG"));
    }
    EntityTrig::from_f32_parts(half_sin, half_cos, meta.n_entities, meta.dim)
        .map_err(|e| malformed(TAG_TRIG, e))
}

/// Reconstructs the deployment from snapshot bytes. Validation is layered:
/// CRCs (file then per-section), structural decode with bounds-checked
/// reads and id range checks, then the semantic invariants enforced by
/// [`Grouping::from_parts`] and [`HalkModel::from_parts`]. Any failure is
/// a typed [`SnapError`]; on success the triple is exactly what
/// [`to_bytes`] was given (plus the trig table it precomputed).
///
/// The returned [`EntityTrig`] is the whole table; servers shard it with
/// `ShardedTrig::from_table`, which is bit-identical to building from the
/// model directly.
pub fn from_bytes(buf: &[u8]) -> Result<(Graph, HalkModel, EntityTrig), SnapError> {
    let (_version, sections) = split_sections(buf)?;
    let meta = parse_meta(sections.meta)?;

    let conf_str =
        std::str::from_utf8(sections.conf).map_err(|e| malformed(TAG_CONF, e.to_string()))?;
    let cfg: HalkConfig =
        serde_json::from_str(conf_str).map_err(|e| malformed(TAG_CONF, e.to_string()))?;
    if cfg.dim != meta.dim {
        return Err(malformed(
            TAG_CONF,
            format!("config dim {} disagrees with META {}", cfg.dim, meta.dim),
        ));
    }

    // Graph reconstruction and model/trig reconstruction touch disjoint
    // sections and are comparable in cost, so decode them concurrently.
    // Both sides only return typed errors (the decoder is panic-free on
    // arbitrary bytes); if both fail, the graph error wins
    // deterministically.
    let (graph, (model, trig)) = std::thread::scope(|scope| {
        let graph_task = scope.spawn(|| parse_graph(sections.graph, &meta));
        let rest = (|| {
            let grouping = parse_grouping(sections.grouping, &meta)?;
            let store = parse_params(sections.params, &meta)?;
            if store.len() != meta.n_params || store.num_scalars() != meta.n_scalars {
                return Err(malformed(
                    TAG_PARM,
                    format!(
                        "store has {} tensors / {} scalars, META declares {} / {}",
                        store.len(),
                        store.num_scalars(),
                        meta.n_params,
                        meta.n_scalars
                    ),
                ));
            }
            let model =
                HalkModel::from_parts(cfg, meta.n_entities, meta.n_relations, grouping, store)
                    .map_err(|e| malformed(TAG_PARM, e.to_string()))?;
            let trig = parse_trig(sections.trig, &meta)?;
            Ok((model, trig))
        })();
        let graph = graph_task.join().expect("graph decode does not panic");
        graph.and_then(|g| rest.map(|r| (g, r)))
    })?;
    // Probe rows 0 and n-1: the CRCs prove the bytes are the writer's, but
    // not that the writer's trig agreed with its own parameters. This pins
    // the serving contract — snapshot-booted answers are bit-identical to
    // a TSV boot *on the loading host* — at O(dim) cost; a host whose
    // libm sin/cos differs surfaces as a typed error here instead of
    // silently non-identical rankings.
    if meta.n_entities > 0 {
        let (sin, cos) = trig.f32_parts();
        for row in [0, meta.n_entities - 1] {
            let want = EntityTrig::new(model.entity_table(), row..row + 1);
            let (ws, wc) = want.f32_parts();
            let lo = row * meta.dim;
            let hi = lo + meta.dim;
            let same = sin[lo..hi]
                .iter()
                .zip(ws)
                .all(|(a, b)| a.to_bits() == b.to_bits())
                && cos[lo..hi]
                    .iter()
                    .zip(wc)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            if !same {
                return Err(malformed(
                    TAG_TRIG,
                    format!("stored trig row {row} disagrees with the model's parameters"),
                ));
            }
        }
    }

    Ok((graph, model, trig))
}

/// Decodes only the framing and META section — counts, sizes and the
/// section table — after verifying every checksum. Used by
/// `halk snapshot inspect`.
pub fn inspect_bytes(buf: &[u8]) -> Result<SnapshotMeta, SnapError> {
    let (version, sections) = decode_sections(buf)?;
    let meta = parse_meta(require(&sections, TAG_META)?)?;
    Ok(SnapshotMeta {
        version,
        n_entities: meta.n_entities,
        n_relations: meta.n_relations,
        n_triples: meta.n_triples,
        n_groups: meta.n_groups,
        dim: meta.dim,
        n_params: meta.n_params,
        n_scalars: meta.n_scalars,
        total_bytes: buf.len(),
        sections: sections
            .iter()
            .map(|(t, p)| (tag_name(*t), p.len()))
            .collect(),
    })
}

// -------------------------------------------------------------------- files

fn temp_sibling(path: &Path) -> PathBuf {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "snapshot".to_string());
    path.with_file_name(format!(".{name}.tmp"))
}

/// Writes a snapshot crash-safely: temp sibling + fsync + atomic rename,
/// so a crash mid-write leaves either the previous snapshot or none.
pub fn write_file(path: &Path, graph: &Graph, model: &HalkModel) -> io::Result<()> {
    let data = to_bytes(graph, model);
    let tmp = temp_sibling(path);
    let result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&data)?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)?;
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            // Directory fsync is a durability nicety; some platforms refuse
            // to open directories, so a failure here is not fatal.
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Reads a snapshot file; decode defects surface as
/// `io::ErrorKind::InvalidData` wrapping the [`SnapError`].
pub fn read_file(path: &Path) -> io::Result<(Graph, HalkModel, EntityTrig)> {
    let data = std::fs::read(path)?;
    from_bytes(&data).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// [`inspect_bytes`] for a file on disk.
pub fn inspect_file(path: &Path) -> io::Result<SnapshotMeta> {
    let data = std::fs::read(path)?;
    inspect_bytes(&data).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use halk_kg::{generate, SynthConfig};
    use halk_logic::Query;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_deployment() -> (Graph, HalkModel) {
        let cfg = SynthConfig {
            n_entities: 60,
            ..SynthConfig::fb237_like()
        };
        let graph = generate(&cfg, &mut StdRng::seed_from_u64(7));
        let model = HalkModel::new(&graph, HalkConfig::tiny());
        (graph, model)
    }

    fn probe_query(graph: &Graph) -> Query {
        let t = graph.triples()[0];
        Query::atom(t.h, t.r)
    }

    #[test]
    fn roundtrip_is_bit_identical() {
        let (graph, model) = small_deployment();
        let buf = to_bytes(&graph, &model);
        let (g2, m2, trig2) = from_bytes(&buf).expect("clean snapshot decodes");

        assert_eq!(g2.n_entities(), graph.n_entities());
        assert_eq!(g2.n_relations(), graph.n_relations());
        assert_eq!(g2.triples(), graph.triples());
        for r in 0..graph.n_relations() {
            assert_eq!(g2.out_csr(r), graph.out_csr(r));
            assert_eq!(g2.inv_csr(r), graph.inv_csr(r));
        }

        for e in graph.entities() {
            assert_eq!(m2.grouping().mask_of(e), model.grouping().mask_of(e));
        }
        assert_eq!(
            serde_json::to_string(m2.config()).unwrap(),
            serde_json::to_string(model.config()).unwrap()
        );

        // The restored model scores bit-identically.
        let q = probe_query(&graph);
        assert_eq!(model.score_all(&q), m2.score_all(&q));

        // The shipped trig table equals a fresh build from the model, so a
        // snapshot-booted server's fast path is the same bytes too.
        let fresh = model.entity_trig();
        let (fs, fc) = fresh.f32_parts();
        let (ss, sc) = trig2.f32_parts();
        assert!(fs.iter().zip(ss).all(|(a, b)| a.to_bits() == b.to_bits()));
        assert!(fc.iter().zip(sc).all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn reencode_is_deterministic() {
        let (graph, model) = small_deployment();
        let buf = to_bytes(&graph, &model);
        let (g2, m2, _trig) = from_bytes(&buf).unwrap();
        assert_eq!(to_bytes(&g2, &m2), buf);
    }

    #[test]
    fn optimizer_state_is_dropped_but_step_count_survives() {
        let (graph, mut model) = small_deployment();
        let tc = halk_core::TrainConfig {
            steps: 3,
            threads: 1,
            ..halk_core::TrainConfig::tiny()
        };
        halk_core::train_model(&mut model, &graph, &[halk_logic::Structure::P1], &tc).unwrap();
        assert!(model.param_store().steps_taken() > 0);

        let buf = to_bytes(&graph, &model);
        let (g2, m2, _trig) = from_bytes(&buf).unwrap();
        // Step count travels (it feeds status displays and LR schedules);
        // Adam moments do not — they restore as zeros, so re-encoding the
        // decoded deployment reproduces the file even though the trained
        // original carries nonzero moments the snapshot never saw.
        assert_eq!(
            m2.param_store().steps_taken(),
            model.param_store().steps_taken()
        );
        let q = probe_query(&graph);
        assert_eq!(model.score_all(&q), m2.score_all(&q));
        assert_eq!(to_bytes(&g2, &m2), buf);
    }

    #[test]
    fn inspect_reports_shapes_and_sections() {
        let (graph, model) = small_deployment();
        let buf = to_bytes(&graph, &model);
        let meta = inspect_bytes(&buf).unwrap();
        assert_eq!(meta.version, VERSION);
        assert_eq!(meta.n_entities, graph.n_entities());
        assert_eq!(meta.n_relations, graph.n_relations());
        assert_eq!(meta.n_triples, graph.n_triples());
        assert_eq!(meta.n_groups, model.grouping().n_groups());
        assert_eq!(meta.dim, model.config().dim);
        assert_eq!(meta.n_params, model.param_store().len());
        assert_eq!(meta.n_scalars, model.param_store().num_scalars());
        assert_eq!(meta.total_bytes, buf.len());
        let names: Vec<&str> = meta.sections.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["META", "CONF", "GRPH", "GROU", "PARM", "TRIG"]);
        // Section payloads plus framing account for the whole file.
        let payload: usize = meta.sections.iter().map(|(_, b)| b).sum();
        let framing = 8 + 4 + 4 + meta.sections.len() * (4 + 8 + 4) + 4;
        assert_eq!(payload + framing, buf.len());
        // PARM is values-only: step u64 + shapes + 4 bytes per scalar,
        // a third of what the Adam-carrying checkpoint stores.
        let parm = meta.sections.iter().find(|(n, _)| n == "PARM").unwrap().1;
        assert_eq!(parm, 8 + meta.n_params * 8 + meta.n_scalars * 4);
        // TRIG is the two SoA halves of the f32 table.
        let trig = meta.sections.iter().find(|(n, _)| n == "TRIG").unwrap().1;
        assert_eq!(trig, meta.n_entities * meta.dim * 8);
    }

    /// `unwrap_err` needs `Debug` on the success type, which `HalkModel`
    /// does not derive; this extracts the error directly.
    fn decode_err(buf: &[u8]) -> SnapError {
        match from_bytes(buf) {
            Ok(_) => panic!("decode unexpectedly succeeded"),
            Err(e) => e,
        }
    }

    #[test]
    fn typed_errors_for_bad_framing() {
        let (graph, model) = small_deployment();
        let buf = to_bytes(&graph, &model);

        assert_eq!(decode_err(b"junk"), SnapError::BadMagic);

        let mut versioned = buf.clone();
        versioned[8] = 42;
        assert!(matches!(
            decode_err(&versioned),
            // Version byte flips also shift the file CRC; either typed
            // rejection is correct, silence is not.
            SnapError::BadVersion(42) | SnapError::FileChecksum { .. }
        ));

        let mut truncated = buf.clone();
        truncated.truncate(buf.len() - 9);
        assert!(matches!(
            decode_err(&truncated),
            SnapError::FileChecksum { .. }
        ));

        let mut flipped = buf.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        assert!(matches!(
            decode_err(&flipped),
            SnapError::FileChecksum { .. }
        ));

        let mut crc_hit = buf.clone();
        let last = crc_hit.len() - 1;
        crc_hit[last] ^= 0xFF;
        assert!(matches!(
            decode_err(&crc_hit),
            SnapError::FileChecksum { .. }
        ));
    }

    #[test]
    fn file_roundtrip_and_atomicity() {
        let dir = std::env::temp_dir().join("halk_snap_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("deploy.snap");
        let (graph, model) = small_deployment();
        write_file(&path, &graph, &model).unwrap();
        assert!(!temp_sibling(&path).exists());
        let (g2, m2, _trig) = read_file(&path).unwrap();
        let q = probe_query(&graph);
        assert_eq!(model.score_all(&q), m2.score_all(&q));
        assert_eq!(g2.n_triples(), graph.n_triples());
        assert_eq!(
            inspect_file(&path).unwrap(),
            inspect_bytes(&to_bytes(&graph, &model)).unwrap()
        );
    }
}
