//! The serving workloads (`serve-halk`, `serve-exact`): a generated
//! snapshot, a request pool with bit-exact local references, the daemon
//! booted several times for `setup_s`, then open-loop phases at a low
//! rate, a high rate and up a capacity ladder. The traced variant reruns
//! the low rate against a daemon with `HALK_TRACE` and times each layer's
//! public functions in-process on the same requests.

use crate::calib::Calib;
use crate::config::ServeSpec;
use crate::daemon::Daemon;
use crate::gen::{self, Outcome, Phase, Wire};
use crate::render::query_to_sparql;
use crate::report::{Fingerprint, Report};
use crate::stats::{self, RungResult, Summary};
use crate::tracefile;
use halk_core::{top_k_indices, HalkConfig, HalkModel, Pool, Precision, TrainConfig};
use halk_kg::{generate, Graph, SynthConfig};
use halk_logic::plan::{execute_set, execute_set_batch, PlanBindings, PlanShape};
use halk_logic::{Sampler, Structure};
use halk_obs::Deadline;
use halk_serve::protocol::{encode_frame, AskEngine, FrameDecoder, Request, Response};
use halk_serve::{BatchItem, Client, Engine, MAX_FRAME};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The graph, model and request pool are fixed (so `mrr` is comparable
/// across runs); `--seed` drives which requests are sent, and when.
const GRAPH_SEED: u64 = 8;
const POOL_SEED: u64 = 0x5eed;
const TOP: usize = 10;
/// Parts of a latency phase, each on fresh connections.
const LATENCY_CHUNKS: u64 = 16;
/// Reruns of a phase invalidated by a late generator.
const RETRIES: u64 = 2;
/// Ladder bisections per run; capacity is their median.
const BISECTIONS: usize = 1;
/// Daemon boots per run; `setup_s` is their median.
const BOOTS: u64 = 5;
/// The largest share of failed requests a phase or rung may have.
const MAX_FAILED_FRAC: f64 = 0.001;
/// Shares of `--seconds` given to the serial passes and the low- and
/// high-rate phases; each ladder rung gets `RUNG_SHARE` (or longer, so
/// its p99 is supported).
const SERIAL_SHARE: f64 = 0.5;
const LOW_SHARE: f64 = 0.4;
const HIGH_SHARE: f64 = 0.1;
const RUNG_SHARE: f64 = 0.07;
/// In-process calls per layer in the traced run.
const LOCAL_SAMPLES: usize = 2000;

/// One pool entry with its references.
pub struct Item {
    pub structure: &'static str,
    pub sparql: String,
    /// Exact answer ids in set order (full).
    pub exact_ids: Vec<u32>,
    /// HaLk top-k as (entity, score bits), plus rows scored.
    pub halk_top: Vec<(u32, u32)>,
    pub rows: usize,
}

pub struct Setup {
    pub snap: PathBuf,
    pub items: Vec<Item>,
    pub n_entities: usize,
}

/// Builds the snapshot (generated graph + briefly trained model) and the
/// request pool. References come from the snapshot as decoded, exactly
/// what the daemon will serve from.
pub fn build(spec: &ServeSpec, workdir: &Path) -> Result<Setup, String> {
    let graph = generate(
        &SynthConfig {
            n_entities: spec.n_entities,
            n_triples: spec.n_triples,
            ..SynthConfig::fb237_like()
        },
        &mut StdRng::seed_from_u64(GRAPH_SEED),
    );
    let mut model = HalkModel::new(
        &graph,
        HalkConfig {
            dim: 32,
            ..HalkConfig::default()
        },
    );
    let tc = TrainConfig {
        steps: spec.model_steps,
        queries_per_structure: 20,
        seed: GRAPH_SEED,
        ..TrainConfig::default()
    };
    halk_core::train_model(&mut model, &graph, &Structure::training(), &tc)
        .map_err(|e| format!("snapshot model training failed: {e}"))?;
    let snap = workdir.join("bench.halksnap");
    halk_snap::write_file(&snap, &graph, &model).map_err(|e| format!("write snapshot: {e}"))?;
    let (graph, model, _) =
        halk_snap::read_file(&snap).map_err(|e| format!("read snapshot: {e}"))?;
    let items = pool(&graph, &model, spec.per_structure);
    if items.is_empty() {
        return Err("empty request pool".to_string());
    }
    Ok(Setup {
        snap,
        items,
        n_entities: graph.n_entities(),
    })
}

/// Samples `per_structure` queries of each of the 24 structures, renders
/// them to SPARQL and computes both engines' reference answers from the
/// re-adapted text (load_gen's method).
fn pool(graph: &Graph, model: &HalkModel, per_structure: usize) -> Vec<Item> {
    let sampler = Sampler::new(graph);
    let mut rng = StdRng::seed_from_u64(POOL_SEED);
    let mut items = Vec::new();
    for s in Structure::all() {
        let mut got = 0;
        for _ in 0..per_structure * 4 {
            if got == per_structure {
                break;
            }
            let Some(gq) = sampler.sample(s, &mut rng) else {
                continue;
            };
            let Some(sparql) = query_to_sparql(&gq.query) else {
                continue;
            };
            let Ok(query) = halk_sparql::sparql_to_query(&sparql) else {
                continue;
            };
            let shape = PlanShape::compile(&query);
            let exact = execute_set(&shape, &PlanBindings::of(&query), graph);
            if exact.is_empty() {
                continue;
            }
            let scores = model.score_all(&query);
            let halk_top = top_k_indices(&scores, TOP)
                .into_iter()
                .map(|i| (i, scores[i as usize].to_bits()))
                .collect();
            items.push(Item {
                structure: s.name(),
                sparql,
                exact_ids: exact.iter().map(|e| e.0).collect(),
                halk_top,
                rows: scores.len(),
            });
            got += 1;
        }
    }
    items
}

fn reference(item: &Item, lane: AskEngine) -> Response {
    match lane {
        AskEngine::Exact => Response::Answers {
            total: item.exact_ids.len(),
            ids: item.exact_ids.iter().take(TOP).copied().collect(),
        },
        AskEngine::Halk => Response::Scores {
            truncated: false,
            scored_rows: item.rows,
            hits: item
                .halk_top
                .iter()
                .map(|&(id, bits)| (id, f32::from_bits(bits)))
                .collect(),
        },
    }
}

/// Bit-for-bit comparison of a served reply with the reference.
pub fn matches(item: &Item, lane: AskEngine, resp: &Response) -> bool {
    match (lane, resp) {
        (AskEngine::Exact, Response::Answers { total, ids }) => {
            *total == item.exact_ids.len()
                && ids.as_slice() == &item.exact_ids[..TOP.min(item.exact_ids.len())]
        }
        (
            AskEngine::Halk,
            Response::Scores {
                truncated: false,
                scored_rows,
                hits,
            },
        ) => {
            *scored_rows == item.rows
                && hits.len() == item.halk_top.len()
                && hits
                    .iter()
                    .zip(&item.halk_top)
                    .all(|(&(id, s), &(wid, wbits))| id == wid && s.to_bits() == wbits)
        }
        _ => false,
    }
}

/// Mean reciprocal rank of the first true answer in the served top-k,
/// over the pool: the answer quality a client of this lane sees.
fn served_mrr(items: &[Item], lane: AskEngine) -> f64 {
    let rr = |item: &Item| -> f64 {
        let ids: Vec<u32> = match lane {
            AskEngine::Exact => item.exact_ids.iter().take(TOP).copied().collect(),
            AskEngine::Halk => item.halk_top.iter().map(|&(id, _)| id).collect(),
        };
        ids.iter()
            .position(|id| item.exact_ids.binary_search(id).is_ok())
            .map_or(0.0, |r| 1.0 / (r + 1) as f64)
    };
    stats::mean(&items.iter().map(rr).collect::<Vec<_>>())
}

fn wires(items: &[Item], lane: AskEngine) -> Vec<Wire> {
    items
        .iter()
        .enumerate()
        .map(|(i, it)| Wire::ask(i, lane, TOP, &it.sparql))
        .collect()
}

/// Connections (and generator threads): at most `nproc`, at most 2.
pub fn n_conns() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

struct Ctx<'a> {
    spec: &'a ServeSpec,
    lane: AskEngine,
    items: &'a [Item],
    wires: Vec<Wire>,
    conns: usize,
    seed: u64,
    report: &'a mut Report,
}

impl Ctx<'_> {
    fn phase(&mut self, addr: &str, name: &str, rate: f64, secs: f64, salt: u64) -> Outcome {
        let (items, lane) = (self.items, self.lane);
        let check = move |i: usize, r: &Response| matches(&items[i], lane, r);
        let o = gen::run_phase(
            addr,
            self.conns,
            &self.wires,
            Phase {
                rate,
                duration: Duration::from_secs_f64(secs),
                seed: self.seed ^ salt.wrapping_mul(0xa076_1d64_78bd_642f),
                abort_after: Duration::from_micros(self.spec.abort_us as u64),
            },
            &check,
        );
        eprintln!(
            "perfbench: phase {name} @ {rate} req/s for {secs:.2} s: {}",
            o.account()
        );
        {
            let mut l = o.latency_us.clone();
            l.sort_by(f64::total_cmp);
            let mut sv = o.service_us.clone();
            sv.sort_by(f64::total_cmp);
            let q = |v: &[f64], p: f64| stats::quantile(v, p).unwrap_or(0.0);
            eprintln!(
                "perfbench:   latency p50 {:.0} p90 {:.0} p99 {:.0} | service p50 {:.0} p90 {:.0} p99 {:.0} | lag p99 {:.0}",
                q(&l, 0.5), q(&l, 0.9), q(&l, 0.99), q(&sv, 0.5), q(&sv, 0.9), q(&sv, 0.99), o.lag_p99_us()
            );
        }
        self.report.account(&o);
        if let Some(m) = &o.first_mismatch {
            self.report
                .fail(format!("reply mismatch in phase {name}: {m}"));
        }
        o
    }

    /// One part of a latency phase: `chunks` back-to-back sub-phases on
    /// fresh connections, pooled, so per-connection TCP state (delayed-ACK
    /// mode) averages out. A part in which the generator itself ran late
    /// says nothing about the daemon, so it is run again, up to `RETRIES`
    /// times; `None` when every attempt was invalid.
    fn latency_part(
        &mut self,
        addr: &str,
        name: &str,
        rate: f64,
        secs: f64,
        chunks: u64,
        salt: u64,
    ) -> Option<Outcome> {
        for attempt in 0..=RETRIES {
            let mut o = Outcome::default();
            for c in 0..chunks {
                let part = self.phase(
                    addr,
                    &format!("{name}.{c}"),
                    rate,
                    secs / chunks as f64,
                    salt * 256 + attempt * 16 + c,
                );
                o.absorb(part);
            }
            let lag = o.lag_p99_us();
            if lag <= self.spec.lag_p99_bound_us {
                return Some(o);
            }
            eprintln!(
                "perfbench: phase {name} invalid: generator lag p99 {lag:.0} us exceeds {} us",
                self.spec.lag_p99_bound_us
            );
        }
        None
    }

    /// Whole passes over the pool, every item once per pass in a seeded
    /// order, one request at a time on one connection, for at least
    /// `secs`, with a reference run before and after each pass. Returns
    /// the requests sent and the daemon's CPU time over them, as measured
    /// and scaled by those reference runs (see `calib`). With one request in
    /// flight the daemon never queues or batches, so its CPU time per
    /// request is the work one request costs, however busy the host is.
    fn serial(
        &mut self,
        daemon: &Daemon,
        secs: f64,
        salt: u64,
        calib: &Calib,
    ) -> Result<(u64, f64, f64), String> {
        let mut client = Client::connect(&daemon.addr).map_err(|e| format!("connect: {e}"))?;
        let mut rng = StdRng::seed_from_u64(self.seed ^ salt.wrapping_mul(0xe703_7ed1_a0b4_28db));
        let mut order: Vec<usize> = (0..self.items.len()).collect();
        let mark = calib.mark();
        calib.measure();
        let (t0, cpu0) = (Instant::now(), daemon.cpu_s()?);
        let mut sent = 0u64;
        while sent == 0 || t0.elapsed().as_secs_f64() < secs {
            order.shuffle(&mut rng);
            for &i in &order {
                let item = &self.items[i];
                let resp = client
                    .ask(self.lane, TOP, 0, &item.sparql)
                    .map_err(|e| format!("serial request: {e}"))?;
                sent += 1;
                self.report.attempted += 1;
                if !matches(item, self.lane, &resp) {
                    self.report.failed += 1;
                    return Err(format!(
                        "serial reply for {} item {i} differs from the reference: {resp:?}",
                        item.structure
                    ));
                }
            }
            calib.measure();
        }
        let cpu = daemon.cpu_s()? - cpu0;
        let scaled = calib.scale_since(mark, cpu);
        eprintln!(
            "perfbench: serial {sent} requests in {:.2} s, daemon CPU {cpu:.2} s, {scaled:.2} s at nominal speed",
            t0.elapsed().as_secs_f64()
        );
        Ok((sent, cpu, scaled))
    }

    /// A latency phase, pooled from valid parts, must keep failures within
    /// the allowed share and have enough samples for a p99.
    fn summarize(&mut self, name: &str, o: Outcome) -> Option<(Summary, Outcome)> {
        if o.aborted || o.failed_frac() > MAX_FAILED_FRAC {
            self.report.fail(format!("phase {name}: {}", o.account()));
            return None;
        }
        match Summary::of(&o.latency_us) {
            Ok(s) => Some((s, o)),
            Err(e) => {
                self.report.fail(format!("phase {name}: {e}"));
                None
            }
        }
    }

    /// A whole latency phase against one daemon.
    fn latency_phase(
        &mut self,
        addr: &str,
        name: &str,
        rate: f64,
        secs: f64,
        salt: u64,
    ) -> Option<(Summary, Outcome)> {
        match self.latency_part(addr, name, rate, secs, LATENCY_CHUNKS, salt) {
            Some(o) => self.summarize(name, o),
            None => {
                self.report.fail(format!(
                    "phase {name}: the generator ran late on every attempt"
                ));
                None
            }
        }
    }

    /// One ladder rung: does the daemon meet every capacity condition at
    /// `rate`? Rerun (up to `RETRIES` times) while the generator was late;
    /// a rung that stays invalid fails the run, so a late generator never
    /// reads as a slower daemon.
    fn rung(&mut self, addr: &str, rate: f64, secs: f64, salt: u64) -> bool {
        for attempt in 0..=RETRIES {
            if let Some(ok) = self.rung_once(addr, rate, secs, salt * 16 + attempt) {
                return ok;
            }
        }
        self.report.fail(format!(
            "rung {rate}: the generator ran late on every attempt"
        ));
        false
    }

    /// `None` when the generator ran late (an invalid rung).
    fn rung_once(&mut self, addr: &str, rate: f64, secs: f64, salt: u64) -> Option<bool> {
        // Long enough for a supported p99 at this rate.
        let secs = secs.max(1300.0 / rate);
        let o = self.phase(addr, &format!("rung-{rate}"), rate, secs, salt);
        let mut lat = o.latency_us.clone();
        lat.sort_by(f64::total_cmp);
        let r = RungResult {
            p99_us: if stats::tail_supported(lat.len(), 0.99) {
                stats::quantile(&lat, 0.99).unwrap_or(f64::INFINITY)
            } else {
                f64::INFINITY
            },
            failed_frac: o.failed_frac(),
            backlog_growing: stats::backlog_growing(&o.backlog),
            valid: o.lag_p99_us() <= self.spec.lag_p99_bound_us,
        };
        let ok = r.passes(self.spec.p99_limit_us, MAX_FAILED_FRAC);
        eprintln!(
            "perfbench:   rung {rate}: p99 {:.0} us, backlog {:?}, lag p99 {:.0} us -> {}",
            r.p99_us,
            o.backlog
                .iter()
                .map(|b| b.round() as i64)
                .collect::<Vec<_>>(),
            o.lag_p99_us(),
            if !r.valid {
                "invalid"
            } else if ok {
                "pass"
            } else {
                "fail"
            }
        );
        r.valid.then_some(ok)
    }
}

fn stamp_daemon(fp: &mut Fingerprint, d: &Daemon) -> Result<(), String> {
    let stats = d.stats()?;
    let get = |k: &str| stats.iter().find(|(n, _)| n == k).map(|&(_, v)| v);
    fp.daemon_workers = Some(halk_serve::ServeConfig::default().workers as u64);
    fp.daemon_shards = Some(
        stats
            .iter()
            .filter(|(n, _)| n.starts_with("trig_shard"))
            .count() as u64,
    );
    fp.daemon_batch_cap = get("batch_cap");
    fp.daemon_precision = get("trig_bytes_per_pair").map(|b| match b {
        8 => "f32".to_string(),
        4 => "i16".to_string(),
        2 => "i8".to_string(),
        other => format!("{other}B"),
    });
    Ok(())
}

/// The untraced run: every end-to-end metric.
pub fn run(
    spec: &ServeSpec,
    halk: &Path,
    workdir: &Path,
    seed: u64,
    seconds: f64,
    report: &mut Report,
) -> Result<(), String> {
    let setup = build(spec, workdir)?;
    let lane = spec.lane;
    eprintln!(
        "perfbench: {} requests in the pool over {} entities",
        setup.items.len(),
        setup.n_entities
    );
    let mut ctx = Ctx {
        spec,
        lane,
        items: &setup.items,
        wires: wires(&setup.items, lane),
        conns: n_conns(),
        seed,
        report,
    };
    // setup_s: spawn → first PONG, median over several boots. The serial
    // passes and the low-rate phase run on every boot, so they pool over
    // several daemon processes and over the host's slower and faster
    // moments; the low-rate phase also gets a part after each capacity
    // bisection. The last boot stays up for the rest.
    let calib = Calib::new(n_conns());
    let (mut boots, mut raw_boots) = (Vec::new(), Vec::new());
    let (mut serial_n, mut serial_raw, mut serial_cpu) = (0u64, 0.0f64, 0.0f64);
    let mut low_o = Outcome::default();
    let mut daemon = None;
    let low_parts = BOOTS + BISECTIONS as u64;
    let low_part_secs = LOW_SHARE * seconds / low_parts as f64;
    let chunks = (LATENCY_CHUNKS / low_parts).max(1);
    for b in 0..BOOTS {
        // A boot is scaled by the reference runs just before it and over
        // its serial passes.
        let mark = calib.mark();
        calib.measure();
        let d = Daemon::spawn(halk, &setup.snap, workdir, None, false)?;
        let addr = d.addr.clone();
        ctx.phase(&addr, "warmup", spec.low_rps, 0.0125 * seconds, 1 + b);
        let secs = SERIAL_SHARE * seconds / BOOTS as f64;
        let (n, raw, cpu) = ctx.serial(&d, secs, 10 + b, &calib)?;
        boots.push(calib.scale_since(mark, d.boot_s));
        raw_boots.push(d.boot_s);
        serial_n += n;
        serial_raw += raw;
        serial_cpu += cpu;
        if let Some(o) = ctx.latency_part(&addr, "low", spec.low_rps, low_part_secs, chunks, 2 + b)
        {
            low_o.absorb(o);
        }
        if b + 1 == BOOTS {
            daemon = Some(d);
        } else {
            d.shutdown()?;
        }
    }
    let daemon = daemon.expect("at least one boot");
    stamp_daemon(&mut ctx.report.fingerprint, &daemon)?;
    let addr = daemon.addr.clone();
    // Reported beside the gated metrics, so an invalid high phase only
    // leaves its notes out.
    let high = ctx
        .latency_part(
            &addr,
            "high",
            spec.high_rps,
            HIGH_SHARE * seconds,
            LATENCY_CHUNKS,
            20,
        )
        .and_then(|o| Summary::of(&o.latency_us).ok().map(|s| (s, o)));
    let ladder = stats::geometric_ladder(spec.ladder_lo, spec.ladder_hi, spec.ladder_step);
    let rung_secs = RUNG_SHARE * seconds;
    let mut salt = 100;
    // The median of independent bisections, so one noisy rung decision
    // cannot move the result by half the ladder.
    let mut capacities = Vec::new();
    let mut probes = 0;
    for i in 0..BISECTIONS as u64 {
        let (capacity, probed) = stats::capacity(&ladder, |rate| {
            salt += 1;
            ctx.rung(&addr, rate, rung_secs, salt)
        });
        eprintln!("perfbench: bisection -> {capacity} req/s (probed {probed:?})");
        capacities.push(capacity);
        probes += probed.len();
        if let Some(o) = ctx.latency_part(&addr, "low", spec.low_rps, low_part_secs, chunks, 40 + i)
        {
            low_o.absorb(o);
        }
    }
    let capacity = stats::median(&capacities).expect("bisections");
    let low = ctx.summarize("low", low_o);
    let rss = daemon.peak_rss_mb()?;
    daemon.shutdown()?;

    let r = &mut *ctx.report;
    r.metric(
        "setup_s",
        stats::median(&boots).expect("boots"),
        "s",
        boots.len(),
    );
    r.note(
        "setup_s.raw",
        stats::median(&raw_boots).expect("boots"),
        "s",
        boots.len(),
    );
    r.metric("rss_mb", rss, "MB", 1);
    r.metric(
        "cpu_us_per_op",
        serial_cpu * 1e6 / serial_n as f64,
        "us",
        serial_n as usize,
    );
    r.note(
        "cpu_us_per_op.raw",
        serial_raw * 1e6 / serial_n as f64,
        "us",
        serial_n as usize,
    );
    r.note("calib.ref_us", calib.mean_ref_us(), "us", calib.runs());
    if let Some((s, o)) = &low {
        r.note("p50_us", s.p50, "us", s.n);
        r.note("p99_us", s.p99, "us", s.n);
        r.note(
            "loadgen.lag_p99_us.low",
            o.lag_p99_us(),
            "us",
            o.lag_us.len(),
        );
    }
    if let Some((s, o)) = &high {
        r.note("p50_us.high", s.p50, "us", s.n);
        r.note("p99_us.high", s.p99, "us", s.n);
        r.note(
            "loadgen.lag_p99_us.high",
            o.lag_p99_us(),
            "us",
            o.lag_us.len(),
        );
    }
    if capacity == 0.0 {
        r.fail("no ladder rung met the limits".to_string());
    }
    r.note("capacity_rps", capacity, "1/s", probes);
    r.metric(
        "mrr",
        served_mrr(&setup.items, lane),
        "1",
        setup.items.len(),
    );
    Ok(())
}

/// The traced run: every per-layer metric, plus the tracing overhead and
/// how much of the daemon's own time the named layers account for.
pub fn run_traced(
    spec: &ServeSpec,
    halk: &Path,
    workdir: &Path,
    seed: u64,
    seconds: f64,
    report: &mut Report,
) -> Result<(), String> {
    let setup = build(spec, workdir)?;
    let lane = spec.lane;
    let conns = n_conns();
    let phase_secs = LOW_SHARE * seconds;
    let local = LocalLayers::measure(&setup, lane, LOCAL_SAMPLES)?;
    eprintln!(
        "perfbench: in-process medians (us): codec {:.1} parse {:.1} prepare {:.1} embed {:.1} topk {:.1} plan {:.1} execute_batch {:.1}",
        local.codec.p50, local.parse.p50, local.prepare.p50, local.embed.p50,
        local.topk.p50, local.plan_exec.p50, local.execute_batch.p50
    );

    // Untraced reference for the overhead, same seed and schedule.
    let plain = Daemon::spawn(halk, &setup.snap, workdir, None, false)?;
    stamp_daemon(&mut report.fingerprint, &plain)?;
    let mut ctx = Ctx {
        spec,
        lane,
        items: &setup.items,
        wires: wires(&setup.items, lane),
        conns,
        seed,
        report,
    };
    ctx.phase(
        &plain.addr.clone(),
        "warmup",
        spec.low_rps,
        0.05 * seconds,
        1,
    );
    let untraced = ctx.latency_phase(
        &plain.addr.clone(),
        "low-untraced",
        spec.low_rps,
        phase_secs,
        2,
    );
    plain.shutdown()?;

    let trace_path = workdir.join("daemon-trace.jsonl");
    let traced_d = Daemon::spawn(halk, &setup.snap, workdir, Some(&trace_path), true)?;
    ctx.phase(
        &traced_d.addr.clone(),
        "warmup",
        spec.low_rps,
        0.05 * seconds,
        1,
    );
    let traced = ctx.latency_phase(
        &traced_d.addr.clone(),
        "low-traced",
        spec.low_rps,
        phase_secs,
        2,
    );
    let metrics_json = traced_d.http_get("/metrics.json")?;
    let stats_pairs = traced_d.stats()?;
    traced_d.shutdown()?;
    let (Some((plain_sum, _)), Some((traced_sum, traced_o))) = (untraced, traced) else {
        return Ok(()); // failures already recorded
    };
    let daemon = tracefile::serve_layers(&trace_path)?;

    let r = &mut *ctx.report;
    let trig = stats_pairs
        .iter()
        .find(|(k, _)| k == "trig_resident_bytes")
        .map_or(0, |&(_, v)| v);
    let counters = tracefile::metrics_json_counters(&metrics_json)?;
    let get = |k: &str| {
        counters
            .iter()
            .find(|(n, _)| n == k)
            .map_or(0.0, |&(_, v)| v)
    };
    let hits = get("counter:halk_plan_cache_hits_total");
    let misses = get("counter:halk_plan_cache_misses_total");
    let busy = get("hist_sum:halk_pool_busy_us_model_batch");
    let wall = get("hist_sum:halk_pool_wall_us_model_batch");
    let threads = Pool::auto().threads() as f64;

    let client_service_p50 = stats::median(&traced_o.service_us).unwrap_or(0.0);
    let wire = client_service_p50 - daemon.accept_to_exec_end.p50;
    let exec_children = local.embed.p50 + local.topk.p50 + local.plan_exec.p50;
    let overhead = local.execute_batch.p50 - exec_children;

    r.metric("model.embed_us", local.embed.p50, "us", local.embed.n);
    r.metric("shard.topk_us", local.topk.p50, "us", local.topk.n);
    r.metric(
        "shard.rows_per_req",
        local.rows_per_req,
        "count",
        local.execute_batch.n,
    );
    r.metric("exec.overhead_us", overhead, "us", local.execute_batch.n);
    r.metric(
        "server.queue_wait_p50_us",
        daemon.queue_wait.p50,
        "us",
        daemon.queue_wait.n,
    );
    r.metric(
        "server.queue_wait_p99_us",
        daemon.queue_wait.p99,
        "us",
        daemon.queue_wait.n,
    );
    r.metric(
        "server.batch_size_mean",
        daemon.batch_mean,
        "count",
        daemon.groups,
    );
    r.metric(
        "pool.busy_frac",
        if wall > 0.0 {
            busy / (wall * threads)
        } else {
            0.0
        },
        "1",
        1,
    );
    r.metric("protocol.codec_us", local.codec.p50, "us", local.codec.n);
    r.metric("sparql.parse_us", local.parse.p50, "us", local.parse.n);
    r.metric(
        "engine.prepare_us",
        local.prepare.p50,
        "us",
        local.prepare.n,
    );
    r.metric(
        "plan.cache_hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
        "1",
        (hits + misses) as usize,
    );
    r.metric("wire.session_us", wire, "us", traced_o.service_us.len());
    r.metric("plan.exec_us", local.plan_exec.p50, "us", local.plan_exec.n);
    r.metric("snap.read_ms", local.snap_read_ms, "ms", local.boot_reps);
    r.metric(
        "engine.boot_ms",
        local.engine_boot_ms,
        "ms",
        local.boot_reps,
    );
    r.metric("trig.resident_bytes", trig as f64, "bytes", 1);
    for (name, unit) in [
        ("train.pool_setup_s", "s"),
        ("sampler.sample_us", "us"),
        ("train.step_p50_ms", "ms"),
        ("train.step_p99_ms", "ms"),
        ("nn.adam_ms", "ms"),
        ("train.fwd_bwd_ms", "ms"),
        ("train.rollbacks", "count"),
        ("eval.score_us", "us"),
    ] {
        r.metric_absent(name, unit);
    }
    r.metric(
        "loadgen.lag_p99_us",
        traced_o.lag_p99_us(),
        "us",
        traced_o.lag_us.len(),
    );
    r.metric(
        "trace.overhead_frac",
        traced_sum.p50 / plain_sum.p50 - 1.0,
        "1",
        traced_sum.n,
    );
    // Over the daemon's own accept → end-of-execution time, not the client
    // p50: `wire.session_us` is that p50's residual, so adding it would
    // make coverage about 1 whatever the named layers missed.
    let named = local.prepare.p50 + daemon.queue_wait.p50 + local.execute_batch.p50;
    r.metric(
        "coverage",
        if daemon.accept_to_exec_end.p50 > 0.0 {
            named / daemon.accept_to_exec_end.p50
        } else {
            0.0
        },
        "1",
        daemon.accept_to_exec_end.n,
    );
    eprintln!(
        "perfbench: traced p50 {:.1} us (n={}), untraced p50 {:.1} us (n={}), daemon accept→exec-end p50 {:.1} us (n={})",
        traced_sum.p50, traced_sum.n, plain_sum.p50, plain_sum.n,
        daemon.accept_to_exec_end.p50, daemon.accept_to_exec_end.n
    );
    Ok(())
}

/// A median with its sample count.
#[derive(Debug, Default, Clone, Copy)]
pub struct Med {
    pub p50: f64,
    pub n: usize,
}

impl Med {
    fn of(samples: &[f64]) -> Med {
        Med {
            p50: stats::median(samples).unwrap_or(0.0),
            n: samples.len(),
        }
    }
}

/// Layer timings taken in-process by calling each layer's public
/// functions on the pool's requests, against an engine booted from the
/// same snapshot the daemon serves.
struct LocalLayers {
    codec: Med,
    parse: Med,
    prepare: Med,
    embed: Med,
    topk: Med,
    plan_exec: Med,
    execute_batch: Med,
    rows_per_req: f64,
    snap_read_ms: f64,
    engine_boot_ms: f64,
    boot_reps: usize,
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64 / 1e3
}

impl LocalLayers {
    fn measure(setup: &Setup, lane: AskEngine, samples: usize) -> Result<LocalLayers, String> {
        let boot_reps = 3;
        let (mut reads, mut boots) = (Vec::new(), Vec::new());
        let mut engine = None;
        for _ in 0..boot_reps {
            let t = Instant::now();
            let (g, m, trig) =
                halk_snap::read_file(&setup.snap).map_err(|e| format!("read snapshot: {e}"))?;
            reads.push(us(t) / 1e3);
            let t = Instant::now();
            let e = Engine::with_boot_table(g, m, &trig, None, Precision::F32);
            boots.push(us(t) / 1e3);
            engine = Some(e);
        }
        let engine = engine.expect("booted");
        // The model and graph the engine serves, for the per-layer calls.
        let (graph, model, _) =
            halk_snap::read_file(&setup.snap).map_err(|e| format!("read snapshot: {e}"))?;
        let n_shards = engine.n_shards();
        let sharded = model.entity_shards(n_shards);
        let pool = Pool::new(n_shards);
        let never = Deadline::never();

        let mut l = LocalLayers {
            codec: Med::default(),
            parse: Med::default(),
            prepare: Med::default(),
            embed: Med::default(),
            topk: Med::default(),
            plan_exec: Med::default(),
            execute_batch: Med::default(),
            rows_per_req: 0.0,
            snap_read_ms: stats::median(&reads).expect("reads"),
            engine_boot_ms: stats::median(&boots).expect("boots"),
            boot_reps,
        };
        let (mut codec, mut parse, mut prepare) = (Vec::new(), Vec::new(), Vec::new());
        let (mut embed, mut topk, mut plan_exec, mut exec) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut rows = 0usize;
        let mut frames = Vec::new();
        for k in 0..samples {
            let item = &setup.items[k % setup.items.len()];
            let want = reference(item, lane);
            // Protocol codec: decode the request frame, encode the reply.
            let frame = encode_frame(
                Request::Ask {
                    engine: lane,
                    top: TOP,
                    deadline_ms: 0,
                    sparql: item.sparql.clone(),
                }
                .encode()
                .as_bytes(),
            );
            let t = Instant::now();
            let mut dec = FrameDecoder::new(MAX_FRAME);
            dec.push(&frame, &mut frames).map_err(|e| e.to_string())?;
            let payload = frames.pop().ok_or("no frame decoded")?;
            let req = Request::parse(std::str::from_utf8(&payload).map_err(|e| e.to_string())?)?;
            let out = encode_frame(want.encode().as_bytes());
            codec.push(us(t));
            std::hint::black_box((&req, &out));

            let t = Instant::now();
            let query = halk_sparql::sparql_to_query(&item.sparql).map_err(|e| e.to_string())?;
            parse.push(us(t));

            let t = Instant::now();
            let prepared = engine
                .prepare(lane, &item.sparql)
                .map_err(|r| format!("prepare rejected: {r:?}"))?;
            prepare.push(us(t));

            let t = Instant::now();
            let resp = engine.execute_batch(&[BatchItem {
                prepared: &prepared,
                top: TOP,
                deadline: &never,
                req: 0,
                queue_wait_us: 0,
            }]);
            exec.push(us(t));
            if resp.len() != 1 || !matches(item, lane, &resp[0]) {
                return Err(format!("in-process reply mismatch on {}", item.structure));
            }

            let shape = PlanShape::compile(&query);
            match lane {
                AskEngine::Halk => {
                    let t = Instant::now();
                    let scorers = model.scorers_for_shape(&shape, &[&query]);
                    embed.push(us(t));
                    let t = Instant::now();
                    let res = halk_core::shard::sharded_top_k(
                        &pool,
                        &sharded,
                        &scorers,
                        &[TOP],
                        &[&never],
                    );
                    topk.push(us(t));
                    rows += res[0].1;
                }
                AskEngine::Exact => {
                    let b = PlanBindings::of(&query);
                    let t = Instant::now();
                    let res = execute_set_batch(&shape, &[&b], &graph, &[&never]);
                    plan_exec.push(us(t));
                    std::hint::black_box(res);
                }
            }
        }
        l.codec = Med::of(&codec);
        l.parse = Med::of(&parse);
        l.prepare = Med::of(&prepare);
        l.embed = Med::of(&embed);
        l.topk = Med::of(&topk);
        l.plan_exec = Med::of(&plan_exec);
        l.execute_batch = Med::of(&exec);
        l.rows_per_req = rows as f64 / samples.max(1) as f64;
        Ok(l)
    }
}
