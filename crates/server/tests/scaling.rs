//! The connection-scaling claim: **hundreds** of concurrent keep-alive
//! clients — far more connections than worker threads — each drive a
//! full d1 adaptive diagnosis loop over one persistent connection
//! against a server with a **4-thread** worker pool, and
//!
//! 1. every round's response body is byte-identical to the in-process
//!    `CompiledModel::serve` reference for the same cumulative
//!    evidence — including the clients that send **delta rounds**
//!    (only the newly applied measurement after the first request);
//! 2. the reference decision sequence replays the stored golden trace
//!    `tests/golden/d1_myopic.json`, so every wire transcript does too;
//! 3. while the whole herd is connected the server reports all of them
//!    open at once (`/v1/stats` `connections_open`), and afterwards the
//!    accepted-connection count shows keep-alive actually held — one
//!    accept per client, not one per request;
//! 4. no serving thread ever compiles a junction tree
//!    (`worker_compiles == 0`).

use abbd_bbn::jointree_compile_count;
use abbd_core::{CompiledModel, DecisionTrace, Observation, SessionReport, SessionRequest};
use abbd_designs::regulator::cases::{case_studies, CaseStudy};
use abbd_designs::regulator::program::{suite_plans, SuitePlan, OBSERVED_VARS};
use abbd_designs::regulator::{self};
use abbd_server::{Client, ModelRegistry, OpenSessionReply, Server, ServerConfig, StatsReport};
use std::sync::{Arc, Barrier, OnceLock};

/// Hundreds of simultaneous keep-alive connections...
const CLIENTS: usize = 200;
/// ...multiplexed onto this many diagnosis workers.
const WORKERS: usize = 4;

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

/// The in-process transcript every wire client must reproduce byte for
/// byte: one full d1 adaptive loop through `CompiledModel::serve`.
struct Reference {
    /// Expected response body per round, in order.
    bodies: Vec<String>,
    /// `(chosen, state, failing)` applied after each non-final round.
    applied: Vec<(String, usize, bool)>,
    /// Parsed mirror of each round, for the golden-trace conformance.
    reports: Vec<SessionReport>,
}

/// Drives the d1 loop in-process once, before any client thread exists.
/// Clients then only compare bytes — the 200-thread herd never computes
/// its own references, keeping the test's work proportional to the wire
/// traffic under test.
fn reference_loop(compiled: &Arc<CompiledModel>) -> Reference {
    let (case, plan) = d1();
    let mut observation = Observation::new();
    for (name, state) in case.controls {
        observation.set(name, state);
    }
    let mut reference = Reference {
        bodies: Vec::new(),
        applied: Vec::new(),
        reports: Vec::new(),
    };
    loop {
        let request = SessionRequest::new(observation.clone());
        let report = compiled.serve(&request).expect("in-process serve");
        reference
            .bodies
            .push(serde_json::to_string(&report).expect("report encodes"));
        let stop = report.stop.is_some();
        if !stop {
            let next = report.ranked[0].action.clone();
            let (state, failing) = answer(&case, &plan, next.target());
            observation.set(next.target(), state);
            if failing {
                observation.mark_failing(next.target());
            }
            reference
                .applied
                .push((next.target().to_string(), state, failing));
        }
        reference.reports.push(report);
        if stop {
            return reference;
        }
    }
}

/// The reference transcript replays the stored d1 golden trace — the
/// corpus that pins the in-process `DiagnosisSession`. Once this holds,
/// byte-identity makes every wire transcript golden too.
fn assert_matches_golden(reference: &Reference) {
    let golden_path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/d1_myopic.json");
    let golden: DecisionTrace = serde_json::from_str(
        &std::fs::read_to_string(&golden_path).expect("golden d1 trace is readable"),
    )
    .expect("golden trace parses");
    assert_eq!(
        reference.applied.len(),
        golden.steps.len(),
        "same number of measurements to isolation"
    );
    for (applied, step) in reference.applied.iter().zip(&golden.steps) {
        assert_eq!(applied.0, step.chosen, "same measurement chosen");
        assert_eq!(applied.1, step.state, "same observed state");
        assert_eq!(applied.2, step.failing, "same limit verdict");
    }
    for (k, step) in golden.steps.iter().enumerate() {
        assert_eq!(
            reference.reports[k + 1].fault_mass,
            step.fault_mass,
            "fault mass diverged after measurement {k}"
        );
    }
    let last = reference.reports.last().expect("at least one round");
    assert_eq!(last.stop, Some(golden.stop), "same stop reason");
    assert_eq!(last.top_candidate, golden.top_candidate, "same verdict");
    assert_eq!(last.fault_mass, golden.final_fault_mass);
}

/// One client's whole life on a single keep-alive connection: open a
/// stored session, hold the connection through both barriers so the
/// entire herd is provably connected at once, then post every round and
/// require the exact reference bytes back. Odd-numbered clients switch
/// to delta rounds after the first request — the response contract is
/// identical either way.
fn drive_scaled_client(
    addr: &str,
    reference: &Reference,
    use_delta: bool,
    connected: &Barrier,
    released: &Barrier,
) {
    let (case, _) = d1();
    let mut client = Client::connect(addr).expect("client connects");
    let (status, body) = client
        .post("/v1/models/regulator/sessions", "{}")
        .expect("open session");
    assert_eq!(status, 201, "open failed: {body}");
    let open: OpenSessionReply = serde_json::from_str(&body).expect("open reply parses");

    // Everybody is connected with a live session before anyone rounds —
    // the main thread reads the connection gauge between these barriers.
    connected.wait();
    released.wait();

    let mut observation = Observation::new();
    for (name, state) in case.controls {
        observation.set(name, state);
    }
    for (k, expected) in reference.bodies.iter().enumerate() {
        let request = if use_delta && k > 0 {
            // Only the measurement applied after the previous round —
            // the server already holds everything else.
            let (name, state, failing) = &reference.applied[k - 1];
            let mut fresh = Observation::new();
            fresh.set(name, *state);
            if *failing {
                fresh.mark_failing(name);
            }
            SessionRequest::new(fresh).into_delta()
        } else {
            SessionRequest::new(observation.clone())
        };
        let request_json = serde_json::to_string(&request).expect("request encodes");
        let (status, wire_body) = client
            .post(
                &format!("/v1/sessions/{}/round", open.session_id),
                &request_json,
            )
            .expect("round posts");
        assert_eq!(status, 200, "round {k} failed: {wire_body}");
        assert_eq!(
            &wire_body, expected,
            "round {k} diverged from the in-process reference (delta={use_delta})"
        );
        if k < reference.applied.len() {
            let (name, state, failing) = &reference.applied[k];
            observation.set(name, *state);
            if *failing {
                observation.mark_failing(name);
            }
        }
    }
    let (status, body) = client
        .delete(&format!("/v1/sessions/{}", open.session_id))
        .expect("close session");
    assert_eq!(status, 200, "close failed: {body}");
}

#[test]
fn hundreds_of_keepalive_clients_share_four_workers_byte_identically() {
    let compiled = Arc::clone(compiled_regulator());
    let registry = ModelRegistry::new()
        .insert("regulator", Arc::clone(&compiled))
        .freeze();
    let server = Server::start(
        registry,
        ServerConfig {
            workers: WORKERS,
            // Each client keeps at most one request in flight, so the
            // herd fits the queue and no round ever sees a 503 — which
            // the byte-identity assertions would catch.
            queue_depth: CLIENTS + 32,
            session_capacity: CLIENTS + 8,
            ..ServerConfig::default()
        },
    )
    .expect("server binds");
    let addr = server.addr().to_string();

    let reference = reference_loop(&compiled);
    assert_matches_golden(&reference);
    let compiles_before = jointree_compile_count();

    let connected = Barrier::new(CLIENTS + 1);
    let released = Barrier::new(CLIENTS + 1);
    std::thread::scope(|scope| {
        for index in 0..CLIENTS {
            let addr = &addr;
            let reference = &reference;
            let connected = &connected;
            let released = &released;
            scope.spawn(move || {
                drive_scaled_client(addr, reference, index % 2 == 1, connected, released);
            });
        }
        // The whole herd holds open sessions on open connections right
        // now — the gauge must see every one of them at once.
        connected.wait();
        let mut probe = Client::connect(&addr).expect("stats client");
        let (status, body) = probe.get("/v1/stats").expect("stats");
        assert_eq!(status, 200);
        let stats: StatsReport = serde_json::from_str(&body).expect("stats parse");
        assert!(
            stats.connections_open as usize >= CLIENTS,
            "only {} connections open with {CLIENTS} clients connected",
            stats.connections_open
        );
        assert_eq!(stats.sessions_live as usize, CLIENTS);
        released.wait();
        // Scope join: every client finishes its loop before we audit.
    });
    assert_eq!(
        jointree_compile_count() - compiles_before,
        0,
        "no thread may compile while the herd runs"
    );

    let mut client = Client::connect(&addr).expect("final stats client");
    let (status, body) = client.get("/v1/stats").expect("stats");
    assert_eq!(status, 200);
    let stats: StatsReport = serde_json::from_str(&body).expect("stats parse");
    assert_eq!(
        stats.worker_compiles, 0,
        "a worker compiled a junction tree"
    );
    assert_eq!(stats.sessions_opened as usize, CLIENTS);
    assert_eq!(stats.sessions_live, 0, "every session was closed");
    assert_eq!(
        stats.rounds as usize,
        CLIENTS * reference.bodies.len(),
        "every client completed every round"
    );
    // Keep-alive held: each client made 2 + rounds requests over ONE
    // accepted connection (plus the two stats probes and slack for any
    // client whose connection the OS recycled).
    assert!(
        stats.connections_accepted as usize <= CLIENTS + 8,
        "{} accepts for {CLIENTS} keep-alive clients — connections are not being reused",
        stats.connections_accepted
    );
    assert_eq!(
        stats.queue_full_rejections, 0,
        "the sized queue must never have overflowed"
    );
}
