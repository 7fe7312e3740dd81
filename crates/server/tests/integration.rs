//! The end-to-end serving claim: 8 concurrent clients each drive a full
//! d1 adaptive diagnosis loop **over the wire** — open a stored session,
//! post decision rounds, follow the server's ranked recommendation,
//! answer from the paper's Table VI — and
//!
//! 1. every round's response body is **byte-identical** to the
//!    in-process `CompiledModel::serve` of the same cumulative request;
//! 2. the decision sequence (chosen measurement, observed state, failing
//!    flag, posterior fault mass per step, stop reason, final verdict)
//!    replays the stored golden trace `tests/golden/d1_myopic.json` —
//!    the same corpus that pins the in-process `DiagnosisSession`;
//! 3. no serving thread ever compiles a junction tree (`/v1/stats`
//!    `worker_compiles == 0`, client-thread compile deltas == 0); the
//!    one compilation happened at registry build time.

use abbd_bbn::jointree_compile_count;
use abbd_core::{
    CompiledModel, DecisionTrace, DeductionPolicy, Observation, SessionReport, SessionRequest,
};
use abbd_designs::regulator::cases::{case_studies, CaseStudy};
use abbd_designs::regulator::program::{suite_plans, SuitePlan, OBSERVED_VARS};
use abbd_designs::regulator::{self};
use abbd_server::{
    codec, ApiError, BatchDiagnosis, BatchEntry, BatchReply, BatchRequest, Client, ModelRegistry,
    OpenSessionReply, Server, ServerConfig, StatsReport,
};
use std::sync::{Arc, OnceLock};

const CLIENTS: usize = 8;

struct Fixture {
    server: Server,
    compiled: Arc<CompiledModel>,
}

/// The same quick EM fit the golden-trace corpus pins (deterministic
/// for the fixed seed), compiled once for the whole file.
fn compiled_regulator() -> &'static Arc<CompiledModel> {
    static COMPILED: OnceLock<Arc<CompiledModel>> = OnceLock::new();
    COMPILED.get_or_init(|| {
        regulator::fit(
            24,
            42,
            abbd_core::LearnAlgorithm::Em(abbd_bbn::learn::EmConfig {
                max_iterations: 8,
                tolerance: 1e-4,
            }),
        )
        .expect("regulator pipeline runs")
        .engine
    })
}

/// A fresh server per test on the shared compilation — each test owns
/// its `/v1/stats` counters, so the harness can run tests in parallel
/// without the global assertions racing each other.
fn fixture() -> Fixture {
    let compiled = Arc::clone(compiled_regulator());
    let registry = ModelRegistry::new()
        .insert("regulator", Arc::clone(&compiled))
        .freeze();
    let server = Server::start(
        registry,
        ServerConfig {
            workers: CLIENTS,
            ..ServerConfig::default()
        },
    )
    .expect("server binds");
    Fixture { server, compiled }
}

fn d1() -> (CaseStudy, SuitePlan) {
    let case = case_studies()
        .into_iter()
        .next()
        .expect("case studies exist");
    assert_eq!(case.id, "d1");
    let plan = suite_plans()
        .into_iter()
        .find(|p| p.name == case.suite)
        .expect("d1's suite has a plan");
    (case, plan)
}

/// Answers one recommended measurement from paper Table VI, with the
/// failing mark the virtual ATE would attach.
fn answer(case: &CaseStudy, plan: &SuitePlan, variable: &str) -> (usize, bool) {
    let index = OBSERVED_VARS
        .iter()
        .position(|v| *v == variable)
        .unwrap_or_else(|| panic!("server recommended a non-output `{variable}`"));
    let (_, state) = case.observables[index];
    (state, state != plan.healthy_states[index])
}

/// One client's complete wire transcript of a d1 adaptive loop.
struct Transcript {
    /// Raw response body per round, in order.
    round_bodies: Vec<String>,
    /// Parsed mirror of each round.
    reports: Vec<SessionReport>,
    /// `(chosen, state, failing)` per applied measurement.
    applied: Vec<(String, usize, bool)>,
}

/// Drives one full adaptive loop over the wire, asserting byte-identity
/// with the in-process `serve` of every cumulative request as it goes.
fn drive_one_client(fx: &Fixture) -> Transcript {
    let (case, plan) = d1();
    let mut client = Client::connect(fx.server.addr()).expect("client connects");
    let (status, body) = client
        .post("/v1/models/regulator/sessions", "{}")
        .expect("open session");
    assert_eq!(status, 201, "open failed: {body}");
    let open: OpenSessionReply = serde_json::from_str(&body).expect("open reply parses");

    let mut observation = Observation::new();
    for (name, state) in case.controls {
        observation.set(name, state);
    }
    let mut transcript = Transcript {
        round_bodies: Vec::new(),
        reports: Vec::new(),
        applied: Vec::new(),
    };
    loop {
        let request = SessionRequest::new(observation.clone());
        let request_json = serde_json::to_string(&request).expect("request encodes");
        let (status, wire_body) = client
            .post(
                &format!("/v1/sessions/{}/round", open.session_id),
                &request_json,
            )
            .expect("round posts");
        assert_eq!(status, 200, "round failed: {wire_body}");

        // Byte-identity: the stored-session round answers exactly what
        // the stateless in-process boundary answers for the same
        // cumulative request.
        let reference = fx.compiled.serve(&request).expect("in-process serve");
        let reference_json = serde_json::to_string(&reference).expect("reference encodes");
        assert_eq!(
            wire_body, reference_json,
            "wire round diverged from in-process serve"
        );

        let report: SessionReport = serde_json::from_str(&wire_body).expect("report parses");
        transcript.round_bodies.push(wire_body);
        transcript.reports.push(report);
        let report = transcript.reports.last().expect("just pushed");
        if report.stop.is_some() {
            break;
        }
        let next = &report.ranked[0].action;
        let (state, failing) = answer(&case, &plan, next.target());
        observation.set(next.target(), state);
        if failing {
            observation.mark_failing(next.target());
        }
        transcript
            .applied
            .push((next.target().to_string(), state, failing));
    }
    let (status, body) = client
        .delete(&format!("/v1/sessions/{}", open.session_id))
        .expect("close session");
    assert_eq!(status, 200, "close failed: {body}");
    transcript
}

#[test]
fn concurrent_wire_loops_replay_the_golden_trace_without_compiling() {
    let fx = fixture();
    let compiles_before = jointree_compile_count();

    // 8 concurrent clients, one thread each, all on the same stored
    // model; every thread also computes its own in-process references
    // and must never trigger a compilation doing so.
    let transcripts: Vec<Transcript> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let before = jointree_compile_count();
                    let transcript = drive_one_client(&fx);
                    assert_eq!(
                        jointree_compile_count() - before,
                        0,
                        "client thread must not compile"
                    );
                    transcript
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    assert_eq!(
        jointree_compile_count() - compiles_before,
        0,
        "serving must not compile on the driving thread either"
    );

    // Every client saw the identical transcript, byte for byte.
    for transcript in &transcripts[1..] {
        assert_eq!(transcript.round_bodies, transcripts[0].round_bodies);
    }

    // The decision sequence replays the stored d1 golden trace (the
    // corpus that pins the in-process DiagnosisSession).
    let golden_path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/d1_myopic.json");
    let golden: DecisionTrace = serde_json::from_str(
        &std::fs::read_to_string(&golden_path).expect("golden d1 trace is readable"),
    )
    .expect("golden trace parses");
    let transcript = &transcripts[0];
    assert_eq!(
        transcript.applied.len(),
        golden.steps.len(),
        "same number of measurements to isolation"
    );
    for (applied, step) in transcript.applied.iter().zip(&golden.steps) {
        assert_eq!(applied.0, step.chosen, "same measurement chosen");
        assert_eq!(applied.1, step.state, "same observed state");
        assert_eq!(applied.2, step.failing, "same limit verdict");
    }
    // Post-absorb fault mass per step: the wire round after measurement
    // k reports what the golden trace recorded at step k.
    for (k, step) in golden.steps.iter().enumerate() {
        assert_eq!(
            transcript.reports[k + 1].fault_mass,
            step.fault_mass,
            "fault mass diverged after measurement {k}"
        );
    }
    let last = transcript.reports.last().expect("at least one round");
    assert_eq!(last.stop, Some(golden.stop), "same stop reason");
    assert_eq!(last.top_candidate, golden.top_candidate, "same verdict");
    assert_eq!(last.fault_mass, golden.final_fault_mass);

    // The serving side agrees it never compiled, and the bookkeeping
    // adds up: one session and one full loop per client.
    let mut client = Client::connect(fx.server.addr()).expect("stats client");
    let (status, body) = client.get("/v1/stats").expect("stats");
    assert_eq!(status, 200);
    let stats: StatsReport = serde_json::from_str(&body).expect("stats parse");
    assert_eq!(
        stats.worker_compiles, 0,
        "a worker compiled a junction tree"
    );
    assert_eq!(stats.sessions_opened as usize, CLIENTS);
    assert_eq!(
        stats.rounds as usize,
        transcripts
            .iter()
            .map(|t| t.round_bodies.len())
            .sum::<usize>()
    );
    assert_eq!(stats.sessions_live, 0, "every session was closed");
}

/// The same loop through the *stateless* endpoint must land on the same
/// bytes as the stored-session loop — statefulness is a performance
/// feature, never a behavioural one.
#[test]
fn stateless_endpoint_agrees_with_stored_sessions() {
    let fx = fixture();
    let (case, plan) = d1();
    let mut client = Client::connect(fx.server.addr()).expect("client connects");

    let mut observation = Observation::new();
    for (name, state) in case.controls {
        observation.set(name, state);
    }
    let mut stateless_bodies = Vec::new();
    loop {
        let request = SessionRequest::new(observation.clone());
        let request_json = serde_json::to_string(&request).expect("request encodes");
        let (status, body) = client
            .post("/v1/models/regulator/serve", &request_json)
            .expect("serve posts");
        assert_eq!(status, 200, "serve failed: {body}");
        let report: SessionReport = serde_json::from_str(&body).expect("report parses");
        stateless_bodies.push(body);
        if report.stop.is_some() {
            break;
        }
        let next = report.ranked[0].action.clone();
        let (state, failing) = answer(&case, &plan, next.target());
        observation.set(next.target(), state);
        if failing {
            observation.mark_failing(next.target());
        }
    }
    let stored = drive_one_client(&fx);
    assert_eq!(stateless_bodies, stored.round_bodies);

    // A deduction override from an older client, still carrying the
    // since-removed joint-size cap, is served exactly as without it.
    let mut request = SessionRequest::new(observation);
    request.deduction = Some(DeductionPolicy::default());
    let current = serde_json::to_string(&request).expect("request encodes");
    let legacy = current.replace(
        "\"seed_with_best_ambiguous\":true}",
        "\"seed_with_best_ambiguous\":true,\"max_joint_cells\":65536}",
    );
    assert_ne!(legacy, current, "the override carries the legacy key");
    let mut bodies = Vec::new();
    for body in [&current, &legacy] {
        let (status, reply) = client
            .post("/v1/models/regulator/serve", body)
            .expect("serve posts");
        assert_eq!(status, 200, "serve failed: {reply}");
        bodies.push(reply);
    }
    assert_eq!(bodies[0], bodies[1]);
}

/// The header frame of a binary batch request.
#[derive(serde::Serialize)]
struct BatchHead {
    deduction: Option<DeductionPolicy>,
}

/// `fan_out` is the only parallel batch path, so its row dedupe and
/// chunking must be exact: every reply entry, at any worker count and in
/// either codec, is byte-equal to diagnosing that row on its own.
#[test]
fn batch_fan_out_matches_row_by_row_diagnosis() {
    let compiled = compiled_regulator();
    let cases: Vec<Observation> = case_studies().iter().map(CaseStudy::observation).collect();
    // d1's pairs in reverse order: the same evidence, another encoding,
    // so it must stay its own group.
    let mut reordered = Observation::new();
    let mut pairs: Vec<(&str, usize)> = cases[0].iter().collect();
    pairs.reverse();
    for (name, state) in pairs {
        reordered.set(name, state);
    }
    for name in cases[0].failing() {
        reordered.mark_failing(name.as_str());
    }
    assert_ne!(reordered, cases[0]);
    let mut ghost = Observation::new();
    ghost.set("ghost", 0);
    let mut rows: Vec<Observation> = Vec::new();
    rows.extend(cases.iter().cloned());
    rows.push(reordered);
    rows.extend(cases.iter().rev().cloned());
    rows.push(ghost);
    rows.extend(cases[..2].iter().cloned());
    let ghost_row = cases.len() * 2 + 1;

    // The in-process reference: one diagnosis per row, in input order.
    let policy = *compiled.policy();
    let mut ws = compiled.make_workspace();
    let expected: Vec<BatchEntry> = rows
        .iter()
        .map(|obs| {
            let diagnosed = compiled
                .evidence_from(obs)
                .and_then(|e| compiled.diagnose_with_policy_in(&mut ws, obs, &e, &policy));
            match diagnosed {
                Ok(d) => BatchEntry {
                    ok: Some(BatchDiagnosis {
                        posteriors: d.posteriors().to_vec(),
                        fault_mass: d
                            .fault_mass()
                            .iter()
                            .map(|(n, &m)| (n.clone(), m))
                            .collect(),
                        candidates: d.candidates().to_vec(),
                        top_candidate: d.top_candidate().map(str::to_string),
                        log_likelihood: d.log_likelihood(),
                    }),
                    error: None,
                },
                Err(e) => BatchEntry {
                    ok: None,
                    error: Some(ApiError::from_core(&e)),
                },
            }
        })
        .collect();
    for (i, entry) in expected.iter().enumerate() {
        assert_eq!(entry.ok.is_none(), i == ghost_row, "row {i}");
    }
    assert_eq!(expected[ghost_row].error.as_ref().unwrap().status, 422);
    let expected_json = serde_json::to_string(&BatchReply {
        reports: expected.clone(),
    })
    .unwrap();
    let mut expected_binary = Vec::new();
    for entry in &expected {
        codec::frame_into(entry, &mut expected_binary);
    }

    let json_body = serde_json::to_string(&BatchRequest {
        observations: rows.clone(),
        deduction: None,
    })
    .unwrap();
    let mut binary_body = Vec::new();
    codec::frame_into(&BatchHead { deduction: None }, &mut binary_body);
    for row in &rows {
        codec::frame_into(row, &mut binary_body);
    }
    for workers in [1, 4] {
        let registry = ModelRegistry::new()
            .insert("regulator", Arc::clone(compiled))
            .freeze();
        let server = Server::start(
            registry,
            ServerConfig {
                workers,
                ..ServerConfig::default()
            },
        )
        .expect("server binds");
        let mut client = Client::connect(server.addr()).expect("client connects");
        let path = "/v1/models/regulator/diagnose_batch";
        let (status, body) = client.post(path, &json_body).expect("batch posts");
        assert_eq!(status, 200, "JSON batch failed: {body}");
        assert_eq!(body, expected_json, "JSON reply, {workers} worker(s)");
        let (status, bytes) = client.post_binary(path, &binary_body).expect("batch posts");
        assert_eq!(status, 200, "binary batch failed");
        assert_eq!(bytes, expected_binary, "binary reply, {workers} worker(s)");
        let (_, stats) = client.get("/v1/stats").expect("stats");
        let stats: StatsReport = serde_json::from_str(&stats).expect("stats parse");
        assert_eq!(stats.worker_compiles, 0, "the fan-out never compiles");
        server.shutdown();
    }
}
