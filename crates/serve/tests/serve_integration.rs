//! End-to-end daemon tests over real sockets: correctness (answers
//! bit-identical to the one-shot path), fault isolation (panics, garbage,
//! disconnects), backpressure (typed Overloaded), and graceful shutdown.

use halk_core::{top_k_indices, HalkConfig, HalkModel};
use halk_kg::{generate, Graph, SynthConfig};
use halk_serve::protocol::{encode_frame, AskEngine, ErrorKind, Response};
use halk_serve::{Client, Engine, ServeConfig, Server};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;
use std::time::Duration;

fn small_graph(seed: u64) -> Graph {
    generate(&SynthConfig::fb237_like(), &mut StdRng::seed_from_u64(seed))
}

fn trained_model(g: &Graph) -> HalkModel {
    let mut model = HalkModel::new(g, HalkConfig::tiny());
    let tc = halk_core::TrainConfig {
        steps: 15,
        threads: 1,
        ..halk_core::TrainConfig::tiny()
    };
    halk_core::train_model(&mut model, g, &[halk_logic::Structure::P1], &tc).unwrap();
    model
}

fn start(engine: Engine, cfg: ServeConfig) -> (Server, String) {
    let server = Server::start(engine, cfg).unwrap();
    let addr = server.local_addr().to_string();
    (server, addr)
}

fn fast_cfg() -> ServeConfig {
    ServeConfig {
        read_timeout: Duration::from_millis(20),
        stall: Duration::from_millis(200),
        drain: Duration::from_millis(500),
        ..ServeConfig::default()
    }
}

#[test]
fn served_answers_match_one_shot_bit_for_bit() {
    let g = small_graph(50);
    let model = trained_model(&g);
    let t = g.triples()[0];
    let sparql = format!("SELECT ?x WHERE {{ e:{} r:{} ?x . }}", t.h.0, t.r.0);

    // One-shot reference: the same paths `halk ask` runs.
    let query = halk_sparql::sparql_to_query(&sparql).unwrap();
    let shape = halk_logic::plan::PlanShape::compile(&query);
    let exact_ref =
        halk_logic::plan::execute_set(&shape, &halk_logic::plan::PlanBindings::of(&query), &g);
    let scores_ref = model.score_all(&query);
    let top_ref = top_k_indices(&scores_ref, 10);

    let (server, addr) = start(Engine::new(g, Some(model)), fast_cfg());
    let mut c = Client::connect(&addr).unwrap();

    match c.ask(AskEngine::Exact, 10, 0, &sparql).unwrap() {
        Response::Answers { total, ids } => {
            assert_eq!(total, exact_ref.len());
            let want: Vec<u32> = exact_ref.iter().take(10).map(|e| e.0).collect();
            assert_eq!(ids, want);
        }
        other => panic!("unexpected {other:?}"),
    }
    match c.ask(AskEngine::Halk, 10, 0, &sparql).unwrap() {
        Response::Scores {
            truncated,
            scored_rows,
            hits,
        } => {
            assert!(!truncated);
            assert_eq!(scored_rows, scores_ref.len());
            assert_eq!(hits.len(), top_ref.len());
            for (&want_id, &(got_id, got_score)) in top_ref.iter().zip(&hits) {
                assert_eq!(got_id, want_id);
                // Bit-identical across scoring, formatting and the wire.
                assert_eq!(got_score.to_bits(), scores_ref[want_id as usize].to_bits());
            }
        }
        other => panic!("unexpected {other:?}"),
    }
    server.join();
}

#[test]
fn sharded_engine_serves_bit_identical_answers() {
    let g = small_graph(56);
    let model = trained_model(&g);
    let t = g.triples()[1];
    let sparql = format!("SELECT ?x WHERE {{ e:{} r:{} ?x . }}", t.h.0, t.r.0);
    let query = halk_sparql::sparql_to_query(&sparql).unwrap();
    let scores_ref = model.score_all(&query);
    let top_ref = top_k_indices(&scores_ref, 10);

    // Four shards on a single worker: the merge-k path with several real
    // partitions, no parallelism needed for correctness.
    let engine = Engine::with_options(g, Some(model), Some(4));
    assert_eq!(engine.n_shards(), 4);
    let cfg = ServeConfig {
        workers: 1,
        ..fast_cfg()
    };
    let (server, addr) = start(engine, cfg);
    let mut c = Client::connect(&addr).unwrap();
    match c.ask(AskEngine::Halk, 10, 0, &sparql).unwrap() {
        Response::Scores {
            truncated,
            scored_rows,
            hits,
        } => {
            assert!(!truncated);
            assert_eq!(scored_rows, scores_ref.len());
            assert_eq!(hits.len(), top_ref.len());
            for (&want_id, &(got_id, got_score)) in top_ref.iter().zip(&hits) {
                assert_eq!(got_id, want_id);
                assert_eq!(got_score.to_bits(), scores_ref[want_id as usize].to_bits());
            }
        }
        other => panic!("unexpected {other:?}"),
    }
    server.join();
}

#[test]
fn stacked_same_skeleton_asks_batch_and_stay_bit_identical() {
    let g = small_graph(57);
    let model = trained_model(&g);

    // Five same-skeleton questions with different groundings — the shape
    // cache hands every session the same Arc<PlanShape>, so once they are
    // all queued behind the sleeper, the single worker drains them as one
    // batched group (one kernel pass per shard for the whole group).
    let mut asks = Vec::new();
    for t in g.triples().iter().take(64) {
        let sparql = format!("SELECT ?x WHERE {{ e:{} r:{} ?x . }}", t.h.0, t.r.0);
        if asks.iter().any(|(s, _)| s == &sparql) {
            continue;
        }
        let query = halk_sparql::sparql_to_query(&sparql).unwrap();
        asks.push((sparql, model.score_all(&query)));
        if asks.len() == 5 {
            break;
        }
    }
    assert_eq!(asks.len(), 5);

    let engine = Engine::with_options(g, Some(model), Some(4)).test_faults(true);
    let cfg = ServeConfig {
        workers: 1,
        queue_cap: 16,
        ..fast_cfg()
    };
    let (server, addr) = start(engine, cfg);

    // Occupy the single worker so the five asks stack up in the queue.
    let addr_busy = addr.clone();
    let busy = std::thread::spawn(move || {
        let mut c = Client::connect(&addr_busy).unwrap();
        c.ask(AskEngine::Exact, 1, 5_000, "__sleep__:500").unwrap()
    });
    std::thread::sleep(Duration::from_millis(150));

    let handles: Vec<_> = asks
        .iter()
        .map(|(sparql, _)| {
            let addr = addr.clone();
            let sparql = sparql.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr).unwrap();
                c.ask(AskEngine::Halk, 10, 0, &sparql).unwrap()
            })
        })
        .collect();

    for (h, (sparql, scores_ref)) in handles.into_iter().zip(&asks) {
        let top_ref = top_k_indices(scores_ref, 10);
        match h.join().unwrap() {
            Response::Scores {
                truncated,
                scored_rows,
                hits,
            } => {
                assert!(!truncated, "{sparql}");
                assert_eq!(scored_rows, scores_ref.len(), "{sparql}");
                assert_eq!(hits.len(), top_ref.len(), "{sparql}");
                for (&want_id, &(got_id, got_score)) in top_ref.iter().zip(&hits) {
                    assert_eq!(got_id, want_id, "{sparql}");
                    assert_eq!(
                        got_score.to_bits(),
                        scores_ref[want_id as usize].to_bits(),
                        "{sparql}: batched answers must be bit-identical"
                    );
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(busy.join().unwrap(), Response::Pong);

    // The daemon's own counters saw at least one multi-request group.
    let mut c = Client::connect(&addr).unwrap();
    match c.stats().unwrap() {
        Response::Stats { pairs } => {
            let get = |k: &str| {
                pairs
                    .iter()
                    .find(|(n, _)| n == k)
                    .map(|&(_, v)| v)
                    .unwrap_or_else(|| panic!("missing stat {k}"))
            };
            assert!(get("requests_total") >= 6);
            assert!(
                get("batched_groups") >= 1,
                "queued same-skeleton asks must have batched: {pairs:?}"
            );
            // p99 shares the process-global registry with the other tests
            // in this binary, so only sanity-check it.
            assert!(get("batch_size_p99") >= 1);
        }
        other => panic!("unexpected {other:?}"),
    }
    server.join();
}

#[test]
fn daemon_survives_panics_garbage_and_disconnects() {
    let g = small_graph(51);
    let (server, addr) = start(Engine::new(g, None).test_faults(true), fast_cfg());

    // 1. A panicking request gets a typed error; the daemon keeps serving.
    let mut c = Client::connect(&addr).unwrap();
    match c.ask(AskEngine::Exact, 5, 0, "__panic__").unwrap() {
        Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::Panic),
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(c.ping().unwrap(), Response::Pong);

    // 2. Garbage inside a valid frame: typed protocol error, then close.
    let mut c2 = Client::connect(&addr).unwrap();
    c2.stream_mut()
        .write_all(&encode_frame(b"EXPLODE NOW"))
        .unwrap();
    match c2.ping() {
        Ok(Response::Error { kind, .. }) => assert_eq!(kind, ErrorKind::Protocol),
        Ok(other) => panic!("unexpected {other:?}"),
        // The server may close before our second request lands.
        Err(_) => {}
    }

    // 3. An oversized frame header: rejected without allocation.
    let mut c3 = Client::connect(&addr).unwrap();
    c3.stream_mut().write_all(&u32::MAX.to_le_bytes()).unwrap();
    match c3.ping() {
        Ok(Response::Error { kind, .. }) => assert_eq!(kind, ErrorKind::Protocol),
        Ok(other) => panic!("unexpected {other:?}"),
        Err(_) => {}
    }

    // 4. Mid-frame disconnect: write half a frame and vanish.
    {
        let mut c4 = Client::connect(&addr).unwrap();
        c4.stream_mut().write_all(&[8, 0, 0, 0, b'P']).unwrap();
        // c4 drops here — mid-request disconnect.
    }

    // 5. A slowloris writer (half a frame, then silence) is cut off after
    // the stall budget rather than pinning a session forever.
    let mut c5 = Client::connect(&addr).unwrap();
    c5.stream_mut().write_all(&[8, 0, 0, 0, b'P']).unwrap();
    std::thread::sleep(Duration::from_millis(400));

    // After all of that, a fresh client still gets served.
    let mut c6 = Client::connect(&addr).unwrap();
    assert_eq!(c6.ping().unwrap(), Response::Pong);
    server.join();
}

#[test]
fn overload_sheds_with_typed_rejection() {
    let g = small_graph(52);
    let cfg = ServeConfig {
        workers: 1,
        queue_cap: 1,
        ..fast_cfg()
    };
    let (server, addr) = start(Engine::new(g, None).test_faults(true), cfg);

    // Occupy the single worker with a long sleep, fill the queue of 1,
    // then watch the next request bounce.
    let addr2 = addr.clone();
    let busy = std::thread::spawn(move || {
        let mut c = Client::connect(&addr2).unwrap();
        c.ask(AskEngine::Exact, 1, 5_000, "__sleep__:600").unwrap()
    });
    std::thread::sleep(Duration::from_millis(150)); // busy request is running
    let addr3 = addr.clone();
    let queued = std::thread::spawn(move || {
        let mut c = Client::connect(&addr3).unwrap();
        c.ask(AskEngine::Exact, 1, 5_000, "__sleep__:10").unwrap()
    });
    std::thread::sleep(Duration::from_millis(150)); // it is now queued

    let mut c = Client::connect(&addr).unwrap();
    match c.ask(AskEngine::Exact, 1, 5_000, "__sleep__:10").unwrap() {
        Response::Error { kind, detail } => {
            assert_eq!(kind, ErrorKind::Overloaded, "{detail}");
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }

    // The well-formed in-budget requests still complete correctly.
    assert_eq!(busy.join().unwrap(), Response::Pong);
    assert_eq!(queued.join().unwrap(), Response::Pong);
    server.join();
}

#[test]
fn deadline_sheds_queued_work_and_truncates_scoring() {
    let g = small_graph(53);
    let cfg = ServeConfig {
        workers: 1,
        queue_cap: 8,
        ..fast_cfg()
    };
    let (server, addr) = start(Engine::new(g, None).test_faults(true), cfg);

    // Tie up the worker long enough that a short-deadline queued request
    // expires before execution — it must be shed with ERR deadline.
    let addr2 = addr.clone();
    let busy = std::thread::spawn(move || {
        let mut c = Client::connect(&addr2).unwrap();
        c.ask(AskEngine::Exact, 1, 5_000, "__sleep__:400").unwrap()
    });
    std::thread::sleep(Duration::from_millis(100));
    let mut c = Client::connect(&addr).unwrap();
    match c.ask(AskEngine::Exact, 1, 100, "__sleep__:10").unwrap() {
        Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::Deadline),
        other => panic!("expected Deadline, got {other:?}"),
    }
    assert_eq!(busy.join().unwrap(), Response::Pong);
    server.join();
}

#[test]
fn shutdown_frame_drains_and_join_returns() {
    let g = small_graph(54);
    let (server, addr) = start(Engine::new(g, None), fast_cfg());
    let mut c = Client::connect(&addr).unwrap();
    assert_eq!(c.shutdown().unwrap(), Response::Bye);
    assert!(server.shutdown_requested());
    // Join must return promptly (drain is 500ms in fast_cfg).
    let t0 = std::time::Instant::now();
    server.join();
    assert!(t0.elapsed() < Duration::from_secs(10));

    // New connections are refused (or immediately closed) after drain.
    if let Ok(mut c2) = Client::connect(&addr) {
        assert!(c2.ping().is_err());
    }
}

#[test]
fn requests_during_drain_get_typed_shutdown() {
    let g = small_graph(55);
    let (server, addr) = start(Engine::new(g, None), fast_cfg());
    let mut c = Client::connect(&addr).unwrap();
    // Open a session first, then trigger shutdown from another client.
    let mut c2 = Client::connect(&addr).unwrap();
    assert_eq!(c2.shutdown().unwrap(), Response::Bye);
    // The already-open session's next request is refused as Shutdown —
    // or the server already closed it; both are graceful.
    match c.ask(AskEngine::Exact, 1, 0, "SELECT ?x WHERE { e:0 r:0 ?x . }") {
        Ok(Response::Error { kind, .. }) => assert_eq!(kind, ErrorKind::Shutdown),
        Ok(other) => panic!("unexpected {other:?}"),
        Err(_) => {}
    }
    server.join();
}

#[test]
fn batch_cap_is_configurable_and_surfaced_in_stats() {
    let g = small_graph(58);
    let model = trained_model(&g);

    // Five same-skeleton asks, as in the batching test above, but with the
    // drain cap squeezed to 2: the worker (and the executor beneath it)
    // may group at most two jobs per kernel pass, and every answer must
    // still be bit-identical to the one-shot reference.
    let mut asks = Vec::new();
    for t in g.triples().iter().take(64) {
        let sparql = format!("SELECT ?x WHERE {{ e:{} r:{} ?x . }}", t.h.0, t.r.0);
        if asks.iter().any(|(s, _)| s == &sparql) {
            continue;
        }
        let query = halk_sparql::sparql_to_query(&sparql).unwrap();
        asks.push((sparql, model.score_all(&query)));
        if asks.len() == 5 {
            break;
        }
    }
    let engine = Engine::new(g, Some(model)).batch_cap(2).test_faults(true);
    assert_eq!(engine.max_batch(), 2);
    let cfg = ServeConfig {
        workers: 1,
        queue_cap: 16,
        ..fast_cfg()
    };
    let (server, addr) = start(engine, cfg);

    // Stack the asks behind a sleeper so the drain actually has a queue.
    let addr_busy = addr.clone();
    let busy = std::thread::spawn(move || {
        let mut c = Client::connect(&addr_busy).unwrap();
        c.ask(AskEngine::Exact, 1, 5_000, "__sleep__:300").unwrap()
    });
    std::thread::sleep(Duration::from_millis(100));

    let handles: Vec<_> = asks
        .iter()
        .map(|(sparql, _)| {
            let addr = addr.clone();
            let sparql = sparql.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr).unwrap();
                c.ask(AskEngine::Halk, 10, 0, &sparql).unwrap()
            })
        })
        .collect();
    for (h, (sparql, scores_ref)) in handles.into_iter().zip(&asks) {
        let top_ref = top_k_indices(scores_ref, 10);
        match h.join().unwrap() {
            Response::Scores { hits, .. } => {
                let got: Vec<u32> = hits.iter().map(|&(id, _)| id).collect();
                assert_eq!(
                    got, top_ref,
                    "{sparql}: capped batches must stay bit-identical"
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(busy.join().unwrap(), Response::Pong);

    let mut c = Client::connect(&addr).unwrap();
    match c.stats().unwrap() {
        Response::Stats { pairs } => {
            let cap = pairs
                .iter()
                .find(|(n, _)| n == "batch_cap")
                .map(|&(_, v)| v)
                .expect("STATS must surface the batch cap");
            assert_eq!(cap, 2);
        }
        other => panic!("unexpected {other:?}"),
    }
    server.join();
}

#[test]
fn obs_endpoint_serves_metrics_and_healthz() {
    fn http_get(addr: &std::net::SocketAddr, path: &str) -> String {
        use std::io::Read;
        let mut s = std::net::TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
            .unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    let g = small_graph(59);
    let t = g.triples()[0];
    let sparql = format!("SELECT ?x WHERE {{ e:{} r:{} ?x . }}", t.h.0, t.r.0);
    let engine = Engine::new(g, None);
    let cfg = ServeConfig {
        obs_addr: Some("127.0.0.1:0".to_string()),
        ..fast_cfg()
    };
    let (server, addr) = start(engine, cfg);
    let obs = server.obs_addr().expect("obs endpoint must be bound");

    // Traffic first, so the windowed series have something to show.
    let mut c = Client::connect(&addr).unwrap();
    for _ in 0..3 {
        match c.ask(AskEngine::Exact, 5, 0, &sparql).unwrap() {
            Response::Answers { .. } => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    let metrics = http_get(&obs, "/metrics");
    assert!(metrics.starts_with("HTTP/1.0 200 OK\r\n"));
    assert!(
        metrics.contains("halk_serve_requests_total"),
        "cumulative series must be exposed"
    );
    assert!(
        metrics.contains("halk_serve_latency_us_window_p99"),
        "windowed quantile series must be exposed:\n{metrics}"
    );

    let json = http_get(&obs, "/metrics.json");
    assert!(json.contains("\"cumulative\":{"));
    assert!(json.contains("\"window_us\":"));
    assert!(json.contains("\"health\":{"));

    let health = http_get(&obs, "/healthz");
    assert!(health.contains("\"ok\":true"));
    assert!(health.contains("\"draining\":false"));
    assert!(health.contains("\"queue_cap\":64"));

    let missing = http_get(&obs, "/nope");
    assert!(missing.starts_with("HTTP/1.0 404"));

    // STATS carries the rolling quantiles and queue depth for load_gen.
    match c.stats().unwrap() {
        Response::Stats { pairs } => {
            for key in ["latency_p50_us", "latency_p99_us", "queue_depth"] {
                assert!(
                    pairs.iter().any(|(n, _)| n == key),
                    "STATS must carry {key}: {pairs:?}"
                );
            }
            let p99 = pairs
                .iter()
                .find(|(n, _)| n == "latency_p99_us")
                .map(|&(_, v)| v)
                .unwrap();
            assert!(p99 > 0, "three answered requests must leave a rolling p99");
        }
        other => panic!("unexpected {other:?}"),
    }
    server.join();
}
