//! Warm-start contract at reduced precision: an `I16` engine builds its
//! (half-size) shard tables at boot, and the request path never rebuilds
//! them. Split from `warm_start.rs` because both tests watch the
//! process-global `halk_trig_builds_total` counter while building engines:
//! in one binary, one test's boot moved the other's counter. Each file is
//! its own test binary, so each really isolates the counter.

use halk_core::{HalkConfig, HalkModel, Precision};
use halk_kg::{generate, SynthConfig};
use halk_obs::{Clock, Deadline};
use halk_serve::{AskEngine, Engine};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn deployment() -> Engine {
    let cfg = SynthConfig {
        n_entities: 600,
        ..SynthConfig::fb237_like()
    };
    let graph = generate(&cfg, &mut StdRng::seed_from_u64(21));
    let model = HalkModel::new(&graph, HalkConfig::tiny());
    Engine::with_options(graph, Some(model), Some(4), Precision::F32)
}

#[test]
fn quantized_engine_warms_smaller_tables_at_boot() {
    let exact = deployment();
    let builds = halk_obs::metrics::counter("halk_trig_builds_total");

    let cfg = SynthConfig {
        n_entities: 600,
        ..SynthConfig::fb237_like()
    };
    let graph = generate(&cfg, &mut StdRng::seed_from_u64(21));
    let model = HalkModel::new(&graph, HalkConfig::tiny());
    let quant = Engine::with_options(graph, Some(model), Some(4), Precision::I16);

    assert_eq!(quant.scoring_precision(), Precision::I16);
    assert_eq!(quant.trig_resident_bytes() * 2, exact.trig_resident_bytes());
    assert_eq!(quant.trig_shard_bytes().len(), 4);

    // Same warm-start contract at reduced precision.
    let after_boot = builds.get();
    let (clock, _now) = Clock::mock();
    let sparql = "SELECT ?x WHERE { e:3 r:1 ?x . }";
    let first = quant.execute(
        AskEngine::Halk,
        10,
        sparql,
        &Deadline::after(&clock, std::time::Duration::from_secs(1)),
    );
    for _ in 2..=100 {
        let resp = quant.execute(
            AskEngine::Halk,
            10,
            sparql,
            &Deadline::after(&clock, std::time::Duration::from_secs(1)),
        );
        assert_eq!(resp, first);
    }
    assert_eq!(builds.get(), after_boot);
}
