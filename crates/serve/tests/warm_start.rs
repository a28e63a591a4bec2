//! Warm-start contract: every expensive table the scoring path needs is
//! built at engine construction, so request 1 runs exactly the same warmed
//! path as request 100 — no lazy initialization hides in the request loop.
//!
//! Pinned two ways: the `halk_trig_builds_total` counter (incremented by
//! every shard-table build in `halk_core`) must not move across requests,
//! and responses must be identical from the first request to the last.
//! This file is its own test binary holding a single test, so the
//! process-global counter is not shared with any other engine
//! construction.

use halk_core::{HalkConfig, HalkModel};
use halk_kg::{generate, SynthConfig};
use halk_obs::{Clock, Deadline};
use halk_serve::{AskEngine, Engine, Response};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn deployment() -> Engine {
    let cfg = SynthConfig {
        n_entities: 600,
        ..SynthConfig::fb237_like()
    };
    let graph = generate(&cfg, &mut StdRng::seed_from_u64(21));
    let model = HalkModel::new(&graph, HalkConfig::tiny());
    Engine::with_options(graph, Some(model), Some(4))
}

#[test]
fn request_1_equals_request_100_with_no_table_builds_between() {
    let builds = halk_obs::metrics::counter("halk_trig_builds_total");

    let before_boot = builds.get();
    let engine = deployment();
    assert!(
        builds.get() > before_boot,
        "boot must build the trig tables eagerly"
    );
    assert!(engine.trig_resident_bytes() > 0);

    // A mock clock keeps deadlines deterministic: time never advances, so
    // no request can be truncated and any response difference would come
    // from the execution path itself.
    let (clock, _now) = Clock::mock();
    let after_boot = builds.get();

    let sparql = "SELECT ?x WHERE { e:3 r:1 ?x . }";
    let first = engine.execute(
        AskEngine::Halk,
        10,
        sparql,
        &Deadline::after(&clock, std::time::Duration::from_secs(1)),
    );
    assert!(
        matches!(
            first,
            Response::Scores {
                truncated: false,
                ..
            }
        ),
        "warm engine answers untruncated: {first:?}"
    );
    for i in 2..=100 {
        let resp = engine.execute(
            AskEngine::Halk,
            10,
            sparql,
            &Deadline::after(&clock, std::time::Duration::from_secs(1)),
        );
        assert_eq!(resp, first, "request {i} diverged from request 1");
    }
    assert_eq!(
        builds.get(),
        after_boot,
        "the request path must never rebuild a trig table"
    );
}
