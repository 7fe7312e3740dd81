//! Inference-engine benchmarks: posterior queries on the regulator network
//! and on synthetic chains, comparing variable elimination and junction-tree
//! propagation (the Netica-replacement cost).
//!
//! Every group names its benches to [`Criterion::selects_any`] before its
//! setup, so a filtered run (say `-- repeated_evidence/`) skips the
//! regulator fits and compiles of the groups it does not time. Keep each
//! list in step with the group's `bench_function` calls.

use abbd_bbn::{Evidence, JunctionTree, Network, NetworkBuilder, VariableElimination};
use abbd_core::{
    Action, CompiledModel, CostModel, DiagnosisSession, HierarchicalSession, SessionRequest,
    StoppingPolicy, Strategy,
};
use abbd_designs::board::{self, BoardConfig};
use abbd_designs::regulator;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;

/// The fitted regulator network plus the d1 evidence set.
fn regulator_setup() -> (Network, Evidence) {
    let fitted = regulator::fit(30, 2010, regulator::default_algorithm()).expect("pipeline runs");
    let net = fitted.engine.model().network().clone();
    let case = &regulator::cases::case_studies()[0];
    let evidence = fitted
        .engine
        .evidence_from(&case.observation())
        .expect("evidence maps");
    (net, evidence)
}

/// A binary chain x0 -> x1 -> ... -> x{n-1}.
fn chain(n: usize) -> Network {
    let mut b = NetworkBuilder::new();
    let mut prev = b.variable("x0", ["0", "1"]).unwrap();
    b.prior(prev, [0.6, 0.4]).unwrap();
    for i in 1..n {
        let v = b.variable(format!("x{i}"), ["0", "1"]).unwrap();
        b.cpt(v, [prev], [[0.9, 0.1], [0.2, 0.8]]).unwrap();
        prev = v;
    }
    b.build().unwrap()
}

fn bench_regulator_inference(c: &mut Criterion) {
    if !c.selects_any(
        "regulator_posteriors",
        &[
            "variable_elimination_all",
            "junction_tree_compile",
            "junction_tree_propagate",
        ],
    ) {
        return;
    }
    let (net, evidence) = regulator_setup();
    let mut group = c.benchmark_group("regulator_posteriors");

    group.bench_function("variable_elimination_all", |b| {
        let ve = VariableElimination::new(&net);
        b.iter(|| ve.all_posteriors(black_box(&evidence)).unwrap())
    });
    group.bench_function("junction_tree_compile", |b| {
        b.iter(|| JunctionTree::compile(black_box(&net)).unwrap())
    });
    group.bench_function("junction_tree_propagate", |b| {
        let jt = JunctionTree::compile(&net).unwrap();
        b.iter(|| jt.posteriors(black_box(&evidence)).unwrap())
    });
    group.finish();
}

/// The repeated-evidence serving loop: one compiled tree, many queries.
/// `clone_and_rebuild_baseline` is the seed's allocating propagation
/// (potentials rebuilt from CPTs with factor products on every call);
/// `compiled_reused_workspace` reuses one workspace across queries and is
/// the zero-allocation configuration batch serving uses.
/// `compiled_log_likelihood_only` reads `ln P(e)` off a full propagation;
/// `collect_only_log_likelihood` gets the same bits from the collect pass
/// alone, the kernel of deduction's exoneration queries.
fn bench_repeated_evidence(c: &mut Criterion) {
    if !c.selects_any(
        "repeated_evidence",
        &[
            "clone_and_rebuild_baseline",
            "compiled_reused_workspace",
            "compiled_log_likelihood_only",
            "collect_only_log_likelihood",
        ],
    ) {
        return;
    }
    let (net, evidence) = regulator_setup();
    let jt = JunctionTree::compile(&net).unwrap();
    let mut group = c.benchmark_group("repeated_evidence");

    group.bench_function("clone_and_rebuild_baseline", |b| {
        b.iter(|| {
            jt.propagate_baseline(black_box(&evidence))
                .unwrap()
                .all_posteriors()
                .unwrap()
        })
    });
    group.bench_function("compiled_reused_workspace", |b| {
        let mut ws = jt.make_workspace();
        b.iter(|| {
            jt.propagate_in(&mut ws, black_box(&evidence))
                .unwrap()
                .all_posteriors()
                .unwrap()
        })
    });
    group.bench_function("compiled_log_likelihood_only", |b| {
        let mut ws = jt.make_workspace();
        b.iter(|| {
            jt.propagate_in(&mut ws, black_box(&evidence))
                .unwrap()
                .log_likelihood()
        })
    });
    group.bench_function("collect_only_log_likelihood", |b| {
        let mut ws = jt.make_workspace();
        b.iter(|| {
            jt.log_likelihood_in(&mut ws, black_box(&evidence), &[])
                .unwrap()
        })
    });
    group.finish();
}

/// The value-of-information decision loop of sequential adaptive
/// diagnosis, over tests and over every latent as a probe: dozens of
/// hypothetical propagations per decision, all through the compiled tree and reused
/// workspaces. `per_decision_scoring` is the steady-state number the
/// serving loop pays between measurements; `closed_loop_d1_adaptive` is a
/// whole case-study run (diagnose + score + apply until isolation).
fn bench_sequential_voi(c: &mut Criterion) {
    if !c.selects_any(
        "sequential_voi",
        &[
            "rank_probes_all_latents",
            "per_decision_scoring",
            "closed_loop_d1_adaptive",
        ],
    ) {
        return;
    }
    let fitted = regulator::fit(30, 2010, regulator::default_algorithm()).expect("pipeline runs");
    let compiled = fitted.engine;
    let cases = regulator::cases::case_studies();
    let d1 = &cases[0];
    let observation = d1.observation();
    let mut group = c.benchmark_group("sequential_voi");

    group.bench_function("rank_probes_all_latents", |b| {
        let mut session =
            DiagnosisSession::new(Arc::clone(&compiled), StoppingPolicy::default()).unwrap();
        session.observe_all(&observation).unwrap();
        let menu: Vec<Action> = session
            .compiled()
            .latent_names()
            .map(Action::probe)
            .collect();
        session.set_actions(menu).unwrap();
        b.iter(|| {
            let ranked = session.rank_actions().unwrap();
            black_box(ranked[0].expected_information_gain())
        })
    });
    group.bench_function("per_decision_scoring", |b| {
        let mut diagnoser =
            DiagnosisSession::new(Arc::clone(&compiled), StoppingPolicy::default()).unwrap();
        for (name, state) in d1.controls {
            diagnoser.observe(name, state).unwrap();
        }
        b.iter(|| {
            let scored = diagnoser.rank_actions().unwrap();
            black_box(scored[0].expected_information_gain())
        })
    });
    group.bench_function("closed_loop_d1_adaptive", |b| {
        b.iter(|| {
            regulator::adaptive::adaptive_case_study(
                black_box(&compiled),
                d1,
                StoppingPolicy::default(),
            )
            .unwrap()
            .tests_used()
        })
    });
    group.finish();
}

/// Cost-aware lookahead planning (PR 3): the per-decision price of the
/// depth-2 expectimax versus the myopic kernel it generalises, plus the
/// cost-weighted arbitration path. `lookahead2_per_decision` expands
/// roughly `candidates² × states²` hypothetical propagations through the
/// compiled tree and per-level reused workspaces; `closed_loop_d1_lookahead2`
/// is the whole case study planned at depth 2.
fn bench_lookahead_voi(c: &mut Criterion) {
    if !c.selects_any(
        "lookahead_voi",
        &[
            "cost_weighted_per_decision",
            "lookahead2_per_decision",
            "closed_loop_d1_lookahead2",
        ],
    ) {
        return;
    }
    let fitted = regulator::fit(30, 2010, regulator::default_algorithm()).expect("pipeline runs");
    let compiled = fitted.engine;
    let cases = regulator::cases::case_studies();
    let d1 = &cases[0];
    let mut group = c.benchmark_group("lookahead_voi");

    group.bench_function("cost_weighted_per_decision", |b| {
        let mut diagnoser =
            DiagnosisSession::new(Arc::clone(&compiled), StoppingPolicy::default()).unwrap();
        diagnoser.set_strategy(Strategy::CostWeighted).unwrap();
        diagnoser
            .set_cost_model(regulator::adaptive::reference_cost_model())
            .unwrap();
        for (name, state) in d1.controls {
            diagnoser.observe(name, state).unwrap();
        }
        b.iter(|| {
            let scored = diagnoser.rank_actions().unwrap();
            black_box(scored[0].score())
        })
    });
    group.bench_function("lookahead2_per_decision", |b| {
        let mut diagnoser =
            DiagnosisSession::new(Arc::clone(&compiled), StoppingPolicy::default()).unwrap();
        diagnoser
            .set_strategy(Strategy::Lookahead { depth: 2 })
            .unwrap();
        for (name, state) in d1.controls {
            diagnoser.observe(name, state).unwrap();
        }
        b.iter(|| {
            let scored = diagnoser.rank_actions().unwrap();
            black_box(scored[0].score())
        })
    });
    group.bench_function("closed_loop_d1_lookahead2", |b| {
        b.iter(|| {
            regulator::adaptive::traced_case_study(
                black_box(&compiled),
                d1,
                StoppingPolicy::default(),
                Strategy::Lookahead { depth: 2 },
                CostModel::unit(),
            )
            .unwrap()
            .0
            .tests_used()
        })
    });
    group.finish();
}

/// The unified session API, layer by layer. `session_rank_actions` is
/// one myopic decision over five test candidates through
/// `DiagnosisSession::rank_actions`, absorbing every hypothetical into
/// the calibration the session keeps (as a served round does after its
/// diagnosis); `serve_request_round` is the stateless serde boundary — open a
/// session, seed it, diagnose, rank, assemble the report — i.e. what one
/// service round costs on top of the kernels. `diagnose_fleet_rows16` is
/// the diagnosis kernel alone (propagation plus §IV-B deduction) over 16
/// fixed, distinct fleet rows: the per-row work of a batch request.
fn bench_session_api(c: &mut Criterion) {
    if !c.selects_any(
        "session_api",
        &[
            "session_rank_actions",
            "serve_request_round",
            "diagnose_fleet_rows16",
        ],
    ) {
        return;
    }
    let fitted = regulator::fit(30, 2010, regulator::default_algorithm()).expect("pipeline runs");
    let compiled = Arc::clone(&fitted.engine);
    let cases = regulator::cases::case_studies();
    let d1 = &cases[0];
    let mut controls = abbd_core::Observation::new();
    for (name, state) in d1.controls {
        controls.set(name, state);
    }
    let mut group = c.benchmark_group("session_api");

    group.bench_function("session_rank_actions", |b| {
        let mut session =
            DiagnosisSession::new(Arc::clone(&compiled), StoppingPolicy::default()).unwrap();
        session.observe_all(&controls).unwrap();
        b.iter(|| {
            let ranked = session.rank_actions().unwrap();
            black_box(ranked[0].expected_information_gain())
        })
    });
    group.bench_function("serve_request_round", |b| {
        let request = SessionRequest::new(controls.clone());
        b.iter(|| black_box(compiled.serve(black_box(&request)).unwrap().ranked.len()))
    });
    group.bench_function("diagnose_fleet_rows16", |b| {
        let rows = fleet_rows16(&compiled);
        let policy = *compiled.policy();
        let mut ws = compiled.make_workspace();
        b.iter(|| {
            let mut candidates = 0;
            for (observation, evidence) in &rows {
                candidates += compiled
                    .diagnose_with_policy_in(&mut ws, observation, black_box(evidence), &policy)
                    .unwrap()
                    .candidates()
                    .len();
            }
            black_box(candidates)
        })
    });
    group.finish();
}

/// Sixteen distinct regulator fleet rows (seed 1, the d1 stimulus, the
/// regulator fault library) that `compiled` can diagnose, with their
/// evidence: the rows a 16-row batch request diagnoses.
fn fleet_rows16(compiled: &CompiledModel) -> Vec<(abbd_core::Observation, Evidence)> {
    let rig = regulator::rig();
    let model = abbd_core::ModelBuilder::new(rig.model)
        .with_expert(rig.expert)
        .build_expert_only()
        .expect("expert-only model builds");
    let controls: Vec<(String, usize)> = regulator::cases::case_studies()[0]
        .controls
        .iter()
        .map(|&(name, state)| (name.to_string(), state))
        .collect();
    let fleet = abbd_scenarios::sample_model_population(
        &model,
        &regulator::faults::fault_library(),
        &controls,
        256,
        1,
    )
    .expect("fleet samples");
    let mut rows: Vec<(abbd_core::Observation, Evidence)> = Vec::new();
    for scenario in &fleet {
        let observation = scenario.observation(model.circuit_model());
        if rows.iter().any(|(o, _)| *o == observation) {
            continue;
        }
        let evidence = compiled.evidence_from(&observation).expect("evidence maps");
        if compiled
            .diagnose_with_policy_in(
                &mut compiled.make_workspace(),
                &observation,
                &evidence,
                compiled.policy(),
            )
            .is_ok()
        {
            rows.push((observation, evidence));
        }
        if rows.len() == 16 {
            break;
        }
    }
    assert_eq!(rows.len(), 16, "the fleet has 16 distinct diagnosable rows");
    rows
}

/// The service layer's price list, measured over real TCP on loopback:
/// `stateless_round_wire` posts one `SessionRequest` per round to
/// `/v1/models/{m}/serve` (a fresh session server-side every time — the
/// wire twin of `serve_request_round`); `session_round_wire` posts the
/// same round to a *stored* session, which amortises the fresh-session
/// setup away and must come in under the `serve_request_round` baseline
/// per decision; `store_round_inprocess` is the same stored round minus
/// HTTP and JSON-string framing (checkout → absorb → report → check-in),
/// isolating the wire overhead; `batch_diagnose_16_wire` fans 16
/// evidence sets across the worker pool per request (diagnosis only —
/// divide by 16 for the per-device cost).
fn bench_server_throughput(c: &mut Criterion) {
    if !c.selects_any(
        "server_throughput",
        &[
            "stateless_round_wire",
            "session_round_wire",
            "session_round_wire_binary_delta",
            "store_round_inprocess",
            "batch_diagnose_16_wire",
            "batch_diagnose_16_wire_binary",
        ],
    ) {
        return;
    }
    use abbd_core::Observation;
    use abbd_server::{Client, ModelRegistry, OpenSessionReply, Server, ServerConfig};

    let fitted = regulator::fit(30, 2010, regulator::default_algorithm()).expect("pipeline runs");
    let compiled = Arc::clone(&fitted.engine);
    let registry = ModelRegistry::new()
        .insert("regulator", Arc::clone(&compiled))
        .freeze();
    let server = Server::start(registry, ServerConfig::default()).expect("server binds");

    let cases = regulator::cases::case_studies();
    let mut controls = Observation::new();
    for (name, state) in cases[0].controls {
        controls.set(name, state);
    }
    let request = abbd_core::SessionRequest::new(controls.clone());
    let round_json = serde_json::to_string(&request).expect("request encodes");
    let mut group = c.benchmark_group("server_throughput");

    group.bench_function("stateless_round_wire", |b| {
        let mut client = Client::connect(server.addr()).expect("client connects");
        b.iter(|| {
            let (status, body) = client
                .post("/v1/models/regulator/serve", &round_json)
                .expect("serve round");
            assert_eq!(status, 200);
            black_box(body.len())
        })
    });
    group.bench_function("session_round_wire", |b| {
        let mut client = Client::connect(server.addr()).expect("client connects");
        let (status, body) = client
            .post("/v1/models/regulator/sessions", "{}")
            .expect("open session");
        assert_eq!(status, 201);
        let open: OpenSessionReply = serde_json::from_str(&body).expect("open reply");
        let path = format!("/v1/sessions/{}/round", open.session_id);
        b.iter(|| {
            let (status, body) = client.post(&path, &round_json).expect("stored round");
            assert_eq!(status, 200);
            black_box(body.len())
        })
    });
    group.bench_function("session_round_wire_binary_delta", |b| {
        // The PR-6 wire diet measured together: after one full round
        // pins the control evidence server-side, every timed round is
        // an *empty delta* (nothing new to say — the steady-state
        // polling shape) encoded as one compact binary frame, with the
        // report returned as a binary frame too.
        let mut client = Client::connect(server.addr()).expect("client connects");
        let (status, body) = client
            .post("/v1/models/regulator/sessions", "{}")
            .expect("open session");
        assert_eq!(status, 201);
        let open: OpenSessionReply = serde_json::from_str(&body).expect("open reply");
        let path = format!("/v1/sessions/{}/round", open.session_id);
        let (status, _) = client.post(&path, &round_json).expect("warmup round");
        assert_eq!(status, 200);
        let delta = abbd_core::SessionRequest::new(Observation::new()).into_delta();
        let frame = abbd_server::codec::to_frame(&delta);
        b.iter(|| {
            let (status, body) = client.post_binary(&path, &frame).expect("delta round");
            assert_eq!(status, 200);
            black_box(body.len())
        })
    });
    group.bench_function("store_round_inprocess", |b| {
        let store = abbd_server::SessionStore::new(std::time::Duration::from_secs(600), 16);
        let session =
            abbd_core::DiagnosisSession::new(Arc::clone(&compiled), StoppingPolicy::default())
                .expect("session opens");
        let id = store.open("regulator", session).expect("store admits");
        b.iter(|| {
            let mut stored = store.checkout(&id).expect("checkout");
            let report = stored.session.serve_round(&request).expect("round");
            store.checkin(&id, stored);
            black_box(report.ranked.len())
        })
    });
    group.bench_function("batch_diagnose_16_wire", |b| {
        let batch = abbd_server::BatchRequest {
            observations: (0..16).map(|_| controls.clone()).collect(),
            deduction: None,
        };
        let batch_json = serde_json::to_string(&batch).expect("batch encodes");
        let mut client = Client::connect(server.addr()).expect("client connects");
        b.iter(|| {
            let (status, body) = client
                .post("/v1/models/regulator/diagnose_batch", &batch_json)
                .expect("batch round");
            assert_eq!(status, 200);
            black_box(body.len())
        })
    });
    group.bench_function("batch_diagnose_16_wire_binary", |b| {
        // Streaming row-oriented binary batch: one header frame (the
        // shared deduction policy) followed by 16 observation frames;
        // the reply streams 16 entry frames back. Same fan-out as the
        // JSON row above, minus the JSON-string framing both ways.
        let mut wire = Vec::new();
        let header = serde::Value::Obj(vec![("deduction".to_string(), serde::Value::Null)]);
        abbd_server::codec::frame_into(&header, &mut wire);
        for _ in 0..16 {
            abbd_server::codec::frame_into(&controls, &mut wire);
        }
        let mut client = Client::connect(server.addr()).expect("client connects");
        b.iter(|| {
            let (status, body) = client
                .post_binary("/v1/models/regulator/diagnose_batch", &wire)
                .expect("binary batch");
            assert_eq!(status, 200);
            black_box(body.len())
        })
    });
    group.finish();
    server.shutdown();
}

/// The serializer price list on a real `SessionReport` (the largest DTO
/// that crosses the wire every round): for each codec, encode with
/// `write_json`/`write_binary` straight into a byte buffer and decode
/// with `read_from` straight off it.
fn bench_wire_serialization(c: &mut Criterion) {
    if !c.selects_any(
        "wire_serialization",
        &[
            "report_encode_json_streaming",
            "report_encode_binary_streaming",
            "report_decode_json_streaming",
            "report_decode_binary_streaming",
        ],
    ) {
        return;
    }
    use abbd_server::{codec, SessionReport};
    use serde::Serialize;

    let fitted = regulator::fit(30, 2010, regulator::default_algorithm()).expect("pipeline runs");
    let compiled = Arc::clone(&fitted.engine);
    let case = &regulator::cases::case_studies()[0];
    let request = SessionRequest::new(case.observation());
    let report = compiled.serve(&request).expect("round serves");
    let report_json = serde_json::to_string(&report).expect("report encodes");
    let report_frame = codec::to_frame(&report);
    let mut group = c.benchmark_group("wire_serialization");

    group.bench_function("report_encode_json_streaming", |b| {
        let mut buf = Vec::with_capacity(report_json.len());
        b.iter(|| {
            buf.clear();
            black_box(&report).write_json(&mut buf);
            black_box(buf.len())
        })
    });
    group.bench_function("report_encode_binary_streaming", |b| {
        let mut buf = Vec::with_capacity(report_frame.len());
        b.iter(|| {
            buf.clear();
            codec::frame_into(black_box(&report), &mut buf);
            black_box(buf.len())
        })
    });
    group.bench_function("report_decode_json_streaming", |b| {
        b.iter(|| {
            let report: SessionReport =
                serde_json::from_str(black_box(&report_json)).expect("decodes");
            black_box(report.ranked.len())
        })
    });
    group.bench_function("report_decode_binary_streaming", |b| {
        b.iter(|| {
            let report: SessionReport =
                codec::from_frame(black_box(&report_frame)).expect("decodes");
            black_box(report.ranked.len())
        })
    });
    group.finish();
}

/// The compiled abstraction hierarchy (PR 7) on the 100-variable
/// synthetic board: `flat100_per_decision` is the monolithic baseline —
/// one VOI ranking over the full 42-observable candidate menu through
/// the 100-variable junction tree; `root_per_decision` is the same
/// decision at the abstract board level (30-variable root, 14 summary
/// candidates) and `descended_block_per_decision` inside the extracted
/// 9-variable block sub-model — the two prices the two-phase loop
/// actually pays at steady state. The acceptance claim rides here: each
/// hierarchical decision must be ≥2× cheaper than the flat one.
/// `descend_first_visit` is the one-time toll at the boundary — compile
/// the block sub-model lazily, lift the board evidence down and open the
/// block session (later descents into the same block are pure cache, as
/// the zero-alloc harness pins).
fn bench_hierarchical(c: &mut Criterion) {
    if !c.selects_any(
        "hierarchical",
        &[
            "flat100_per_decision",
            "root_per_decision",
            "descended_block_per_decision",
            "descend_first_visit",
        ],
    ) {
        return;
    }
    let config = BoardConfig::default();
    let flat = CompiledModel::compile(board::flat_model(&config).expect("flat board builds"))
        .expect("flat board compiles")
        .shared();
    let hierarchy = board::hierarchy(&config)
        .expect("board hierarchy builds")
        .shared();
    let mut group = c.benchmark_group("hierarchical");

    group.bench_function("flat100_per_decision", |b| {
        let mut session =
            DiagnosisSession::new(Arc::clone(&flat), StoppingPolicy::default()).unwrap();
        session.observe("vin", 1).unwrap();
        session.observe("vload", 0).unwrap();
        b.iter(|| {
            let scored = session.rank_actions().unwrap();
            black_box(scored[0].expected_information_gain())
        })
    });
    group.bench_function("root_per_decision", |b| {
        let mut session =
            HierarchicalSession::new(Arc::clone(&hierarchy), StoppingPolicy::default()).unwrap();
        session.observe("vin", 1).unwrap();
        session.observe("vload", 0).unwrap();
        b.iter(|| {
            let scored = session.rank_actions().unwrap();
            black_box(scored[0].expected_information_gain())
        })
    });
    group.bench_function("descended_block_per_decision", |b| {
        let mut session =
            HierarchicalSession::new(Arc::clone(&hierarchy), StoppingPolicy::default()).unwrap();
        session.observe("vin", 1).unwrap();
        session.observe("vload", 0).unwrap();
        session.observe("out02", 0).unwrap();
        session.mark_failing("out02");
        session.descend(2).unwrap();
        b.iter(|| {
            let scored = session.rank_actions().unwrap();
            black_box(scored[0].expected_information_gain())
        })
    });
    group.bench_function("descend_first_visit", |b| {
        // A fresh hierarchy per iteration so every descent pays the lazy
        // sub-model compile (the cached path would be a no-op).
        b.iter(|| {
            let hierarchy = board::hierarchy(&config).unwrap().shared();
            let mut session =
                HierarchicalSession::new(hierarchy, StoppingPolicy::default()).unwrap();
            session.observe("vin", 1).unwrap();
            session.observe("vload", 0).unwrap();
            session.descend(black_box(2)).unwrap();
            black_box(session.descended_block().is_some())
        })
    });
    group.finish();
}

/// The fleet-learning loop's price list (PR 9): `aggregate_record_per_trace`
/// is the per-completed-session append into a model's sufficient
/// statistics — the only fleet cost a serving thread ever pays, and only
/// on a session's terminal round; `session_round_wire_lifecycle`
/// re-measures the stored wire round of `server_throughput` against a
/// *lifecycle-managed* registry, so the aggregation plumbing's hot-path
/// tax is the delta against `session_round_wire` (acceptance: ≤2%);
/// `refit_to_promotion` is one whole background learning cycle —
/// snapshot, incumbent-seeded EM, junction-tree compile, conformance
/// gate, promotion; `serve_round_during_refit` prices a serving round
/// while a background thread runs that cycle in a loop, the hot-swap
/// design's claim that learning never blocks serving.
fn bench_fleet_learning(c: &mut Criterion) {
    if !c.selects_any(
        "fleet_learning",
        &[
            "aggregate_record_per_trace",
            "session_round_wire_lifecycle",
            "refit_to_promotion",
            "serve_round_during_refit",
        ],
    ) {
        return;
    }
    use abbd_core::conformance::self_references;
    use abbd_core::{ModelLifecycle, Observation, RefitPolicy, TraceAggregator};
    use abbd_server::{Client, ModelRegistry, OpenSessionReply, Server, ServerConfig};
    use std::sync::atomic::{AtomicBool, Ordering};

    let fitted = regulator::fit(30, 2010, regulator::default_algorithm()).expect("pipeline runs");
    let compiled = Arc::clone(&fitted.engine);
    let observations: Vec<abbd_core::Observation> =
        fitted.cases.iter().map(Observation::from).collect();
    let d1 = &regulator::cases::case_studies()[0];
    let references = self_references(&compiled, [("d1".to_string(), d1.observation())])
        .expect("reference corpus");
    // The fitted population is 30 devices; lower the floor so every
    // refit in the timing loop actually fits rather than early-outs.
    let policy = RefitPolicy {
        min_rows: 8,
        ..RefitPolicy::default()
    };
    let lifecycle = |name: &str| {
        let lc = ModelLifecycle::new(
            name,
            Arc::clone(&compiled),
            references.clone(),
            policy.clone(),
        )
        .shared();
        for observation in &observations {
            lc.aggregator()
                .record(observation, &[("sw".to_string(), 0.25)]);
        }
        lc
    };
    let mut group = c.benchmark_group("fleet_learning");

    group.bench_function("aggregate_record_per_trace", |b| {
        let aggregator = TraceAggregator::new(&compiled, 64);
        let timings = [("sw".to_string(), 0.25)];
        let mut i = 0usize;
        b.iter(|| {
            let recorded =
                aggregator.record(black_box(&observations[i % observations.len()]), &timings);
            i += 1;
            black_box(recorded)
        })
    });
    group.bench_function("session_round_wire_lifecycle", |b| {
        let registry = ModelRegistry::new()
            .insert_lifecycle("regulator", lifecycle("regulator"))
            .freeze();
        let server = Server::start(registry, ServerConfig::default()).expect("server binds");
        let mut controls = Observation::new();
        for (name, state) in d1.controls {
            controls.set(name, state);
        }
        let round_json = serde_json::to_string(&abbd_core::SessionRequest::new(controls))
            .expect("request encodes");
        let mut client = Client::connect(server.addr()).expect("client connects");
        let (status, body) = client
            .post("/v1/models/regulator/sessions", "{}")
            .expect("open session");
        assert_eq!(status, 201);
        let open: OpenSessionReply = serde_json::from_str(&body).expect("open reply");
        let path = format!("/v1/sessions/{}/round", open.session_id);
        b.iter(|| {
            let (status, body) = client.post(&path, &round_json).expect("stored round");
            assert_eq!(status, 200);
            black_box(body.len())
        });
        drop(client);
        server.shutdown();
    });
    group
        .sample_size(10)
        .bench_function("refit_to_promotion", |b| {
            let lc = lifecycle("regulator");
            b.iter(|| {
                let report = lc.refit();
                assert!(report.promoted, "the bench fit must pass its own gate");
                black_box(report.version)
            })
        });
    group.bench_function("serve_round_during_refit", |b| {
        let lc = lifecycle("regulator");
        let request = SessionRequest::new(d1.observation());
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    black_box(lc.refit().promoted);
                }
            });
            let serving = lc.active();
            b.iter(|| black_box(serving.serve(black_box(&request)).unwrap().ranked.len()));
            stop.store(true, Ordering::Relaxed);
        });
    });
    group.finish();
}

/// The scenario engine (PR 10): fleet sampling cost, the per-decision
/// price of ranking the regulator grid's full 60-candidate stimulus
/// family (cost-weighted, suite-switch priced — the decision geometry
/// the paper's 5-test menus never reach), and the whole grid closed loop
/// against a seeded catalogue fault. The Monte-Carlo hypothesis fit runs
/// once per group at a reduced sample count; per-decision numbers only
/// depend on the model's shape (22 hypothesis states × 60 observables).
fn bench_scenario_engine(c: &mut Criterion) {
    if !c.selects_any(
        "scenario_engine",
        &[
            "sample_fleet_16",
            "grid60_per_decision",
            "grid60_closed_loop",
        ],
    ) {
        return;
    }
    use abbd_designs::regulator::grid;
    use abbd_scenarios::{sample_model_population, McFitConfig};

    let rig = grid::grid_rig_with(&McFitConfig {
        samples: 8,
        ..McFitConfig::default()
    })
    .expect("grid rig builds");
    let reg = regulator::rig();
    let model = abbd_core::ModelBuilder::new(reg.model)
        .with_expert(reg.expert)
        .build_expert_only()
        .expect("expert-only model builds");
    let library = regulator::faults::fault_library();
    let controls: Vec<(String, usize)> = regulator::cases::case_studies()[0]
        .controls
        .iter()
        .map(|&(name, state)| (name.to_string(), state))
        .collect();
    let mut group = c.benchmark_group("scenario_engine");

    group.bench_function("sample_fleet_16", |b| {
        b.iter(|| {
            sample_model_population(&model, &library, black_box(&controls), 16, 2010)
                .unwrap()
                .len()
        })
    });
    group.bench_function("grid60_per_decision", |b| {
        let mut session =
            DiagnosisSession::new(Arc::clone(&rig.compiled), grid::grid_policy()).unwrap();
        session.set_strategy(Strategy::CostWeighted).unwrap();
        session
            .set_cost_model(rig.program.cost_model(grid::GRID_PROBE_SECONDS).unwrap())
            .unwrap();
        session.set_actions(rig.program.actions()).unwrap();
        b.iter(|| {
            let scored = session.rank_actions().unwrap();
            black_box(scored[0].expected_information_gain())
        })
    });
    group.bench_function("grid60_closed_loop", |b| {
        let entry = grid::grid_library()
            .entries()
            .iter()
            .find(|e| e.tag() == "reg1:dead")
            .expect("catalogue has reg1:dead")
            .clone();
        let device = grid::device_for_entry(&rig.circuit, &entry, 9001).unwrap();
        let noise = grid::noise_for_entry(&entry);
        b.iter(|| {
            let (outcome, _, _) = grid::diagnose_device(&rig, &device, &noise, 77).unwrap();
            black_box(outcome.tests_used())
        })
    });
    group.finish();
}

fn bench_chain_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("chain_posteriors");
    for n in [10usize, 40, 160] {
        let net = chain(n);
        let mut evidence = Evidence::new();
        evidence.observe(net.var(&format!("x{}", n - 1)).unwrap(), 1);
        group.bench_with_input(BenchmarkId::new("junction_tree", n), &n, |b, _| {
            let jt = JunctionTree::compile(&net).unwrap();
            b.iter(|| jt.posteriors(black_box(&evidence)).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("ve_single_query", n), &n, |b, _| {
            let ve = VariableElimination::new(&net);
            let x0 = net.var("x0").unwrap();
            b.iter(|| ve.posterior(black_box(&evidence), x0).unwrap())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_regulator_inference,
    bench_repeated_evidence,
    bench_sequential_voi,
    bench_lookahead_voi,
    bench_session_api,
    bench_server_throughput,
    bench_wire_serialization,
    bench_hierarchical,
    bench_fleet_learning,
    bench_scenario_engine,
    bench_chain_scaling
);
criterion_main!(benches);
