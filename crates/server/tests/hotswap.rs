//! Versioned hot-swap under live traffic: stored sessions opened against
//! v1 keep producing byte-identical v1 replies while a wire-triggered
//! refit promotes v2 mid-flight, new work lands on v2, pinned
//! `name@vN` references address both, rollback is a metadata flip, and
//! the whole dance never compiles a junction tree on a worker thread.
//!
//! The scenario, end to end over the wire:
//!
//! 1. a refit request before any traces exist is rejected with the
//!    structured `insufficient_data` reason (and counted);
//! 2. a drifted fleet population arrives through the batch endpoint and
//!    lands in the model's trace aggregate;
//! 3. client threads drive full d1 adaptive loops on stored sessions
//!    while the main thread triggers the refit — every round of every
//!    session answers 200 with bytes identical to the v1 in-process
//!    reference, before, during and after the promotion (in-flight
//!    sessions pin their compile);
//! 4. after the swap, stateless serving resolves to v2, `regulator@1`
//!    and `regulator@2` pin their exact versions, `/versions` lists
//!    both entries, activate(1)/activate(2) roll back and forward, and
//!    `/v1/stats` reconciles with the lifecycle's own counters.

use abbd_core::conformance::self_references;
use abbd_core::{CompiledModel, Observation, SessionRequest};
use abbd_designs::regulator::cases::{case_studies, CaseStudy};
use abbd_designs::regulator::program::{suite_plans, SuitePlan, OBSERVED_VARS};
use abbd_designs::regulator::{self, drift};
use abbd_server::{
    ActivateReply, BatchReply, BatchRequest, Client, ModelLifecycle, ModelRegistry,
    OpenSessionReply, RefitPolicy, RefitReport, Server, ServerConfig, StatsReport, VersionsReport,
};
use std::sync::{Arc, Barrier, OnceLock};

/// Stored sessions driving rounds across the swap.
const SESSIONS: usize = 6;

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

/// The evidence-determined Table VI case studies (d1–d4) as the
/// conformance corpus. d5 is a prior tie the drifted refit legitimately
/// moves, so it is monitored by the holdout, not pinned.
fn lifecycle() -> Arc<ModelLifecycle> {
    let compiled = Arc::clone(compiled_regulator());
    let scenarios = case_studies()
        .into_iter()
        .filter(|case| case.id != "d5")
        .map(|case| {
            let mut observation = Observation::new();
            for &(name, state) in case.controls.iter().chain(case.observables.iter()) {
                observation.set(name, state);
            }
            (case.id.to_string(), observation)
        });
    let references = self_references(&compiled, scenarios).expect("reference corpus");
    ModelLifecycle::new("regulator", compiled, references, RefitPolicy::default()).shared()
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

fn answer(case: &CaseStudy, plan: &SuitePlan, variable: &str) -> (usize, bool) {
    let index = OBSERVED_VARS
        .iter()
        .position(|v| *v == variable)
        .unwrap_or_else(|| panic!("server recommended a non-output `{variable}`"));
    let (_, state) = case.observables[index];
    (state, state != plan.healthy_states[index])
}

/// The v1 in-process d1 transcript every pinned session must reproduce
/// byte for byte, no matter when the promotion lands.
struct Reference {
    bodies: Vec<String>,
    applied: Vec<(String, usize, bool)>,
}

fn reference_loop(compiled: &Arc<CompiledModel>) -> Reference {
    let (case, plan) = d1();
    let mut observation = Observation::new();
    for (name, state) in case.controls {
        observation.set(name, state);
    }
    let mut reference = Reference {
        bodies: Vec::new(),
        applied: Vec::new(),
    };
    loop {
        let report = compiled
            .serve(&SessionRequest::new(observation.clone()))
            .expect("in-process serve");
        reference
            .bodies
            .push(serde_json::to_string(&report).expect("report encodes"));
        if report.stop.is_some() {
            return reference;
        }
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
}

/// One pinned session's whole life: opened against v1 before the swap,
/// every round byte-compared against the v1 reference while the refit
/// promotes v2 underneath it.
fn drive_pinned_session(
    addr: &str,
    reference: &Reference,
    opened: &Barrier,
    racing: &Barrier,
) -> String {
    let (case, _) = d1();
    let mut client = Client::connect(addr).expect("client connects");
    let (status, body) = client
        .post("/v1/models/regulator/sessions", "{}")
        .expect("open session");
    assert_eq!(status, 201, "open failed: {body}");
    let open: OpenSessionReply = serde_json::from_str(&body).expect("open reply parses");

    // First round lands strictly pre-swap: the session's pin is proven
    // v1 before the refit may promote.
    let mut observation = Observation::new();
    for (name, state) in case.controls {
        observation.set(name, state);
    }
    let round_path = format!("/v1/sessions/{}/round", open.session_id);
    let request = serde_json::to_string(&SessionRequest::new(observation.clone())).unwrap();
    let (status, wire_body) = client.post(&round_path, &request).expect("round posts");
    assert_eq!(status, 200, "pre-swap round failed: {wire_body}");
    assert_eq!(&wire_body, &reference.bodies[0], "pre-swap round diverged");

    opened.wait();
    racing.wait(); // the main thread fires the refit now

    for (k, expected) in reference.bodies.iter().enumerate().skip(1) {
        let (name, state, failing) = &reference.applied[k - 1];
        observation.set(name, *state);
        if *failing {
            observation.mark_failing(name);
        }
        let request = serde_json::to_string(&SessionRequest::new(observation.clone())).unwrap();
        let (status, wire_body) = client.post(&round_path, &request).expect("round posts");
        assert_eq!(status, 200, "round {k} failed during swap: {wire_body}");
        assert_eq!(
            &wire_body, expected,
            "round {k} diverged from the v1 reference across the swap"
        );
    }
    let (status, body) = client
        .delete(&format!("/v1/sessions/{}", open.session_id))
        .expect("close session");
    assert_eq!(status, 200, "close failed: {body}");
    open.session_id
}

/// Serves one stateless d1 opening round against `name` and returns the
/// response body.
fn stateless_round(client: &mut Client, name: &str) -> String {
    let (case, _) = d1();
    let mut observation = Observation::new();
    for (name, state) in case.controls {
        observation.set(name, state);
    }
    let request = serde_json::to_string(&SessionRequest::new(observation)).unwrap();
    let (status, body) = client
        .post(&format!("/v1/models/{name}/serve"), &request)
        .expect("stateless serve");
    assert_eq!(status, 200, "stateless serve on `{name}` failed: {body}");
    body
}

#[test]
fn refit_promotion_hot_swaps_under_live_sessions() {
    let lc = lifecycle();
    let v1 = lc.active();
    let registry = ModelRegistry::new()
        .insert_lifecycle("regulator", Arc::clone(&lc))
        .freeze();
    let server = Server::start(
        registry,
        ServerConfig {
            workers: 4,
            queue_depth: 256,
            ..ServerConfig::default()
        },
    )
    .expect("server binds");
    let addr = server.addr().to_string();
    let reference = reference_loop(&v1);

    let mut client = Client::connect(&addr).expect("main client");

    // 1. No traces yet: the gate rejects with a structured reason.
    let (status, body) = client
        .post("/v1/models/regulator/refit", "{}")
        .expect("premature refit");
    assert_eq!(status, 200, "refit endpoint failed: {body}");
    let report: RefitReport = serde_json::from_str(&body).expect("refit report parses");
    assert!(!report.promoted, "no data, no promotion");
    let reason = report.rejection.expect("structured rejection");
    assert!(
        reason.to_string().contains("only 0 aggregated rows"),
        "unexpected reason: {reason}"
    );
    assert_eq!(lc.active_version(), 1);

    // 2. The drifted fleet arrives through the batch endpoint.
    let rig = regulator::rig();
    let train = drift::synthesize_drifted(&rig, 64, 777, 10_000).expect("drifted population");
    let batch = BatchRequest {
        observations: train.cases.iter().map(Observation::from).collect(),
        deduction: None,
    };
    let (status, body) = client
        .post(
            "/v1/models/regulator/diagnose_batch",
            &serde_json::to_string(&batch).unwrap(),
        )
        .expect("batch posts");
    assert_eq!(status, 200, "batch failed: {body}");
    let reply: BatchReply = serde_json::from_str(&body).expect("batch reply parses");
    let batch_traces = reply.reports.iter().filter(|e| e.ok.is_some()).count() as u64;
    assert!(
        batch_traces >= RefitPolicy::default().min_rows,
        "the population must exceed the refit floor, got {batch_traces}"
    );
    assert_eq!(lc.traces_aggregated(), batch_traces);

    // 3. Pinned sessions round across the promotion.
    let opened = Barrier::new(SESSIONS + 1);
    let racing = Barrier::new(SESSIONS + 1);
    std::thread::scope(|scope| {
        for _ in 0..SESSIONS {
            let addr = &addr;
            let reference = &reference;
            let opened = &opened;
            let racing = &racing;
            scope.spawn(move || drive_pinned_session(addr, reference, opened, racing));
        }
        opened.wait();
        racing.wait();
        // Every session is open with its v1 pin proven, and the herd is
        // posting rounds right now.
        let (status, body) = client
            .post("/v1/models/regulator/refit", "{}")
            .expect("refit posts");
        assert_eq!(status, 200, "refit failed: {body}");
        let report: RefitReport = serde_json::from_str(&body).expect("refit report parses");
        assert!(
            report.promoted,
            "gate must pass the drift refit: {:?}",
            report.rejection.map(|r| r.to_string())
        );
        assert_eq!(report.version, Some(2));
        // Scope join: every pinned session finishes byte-identically.
    });
    assert_eq!(lc.active_version(), 2);
    let v2 = lc.active();

    // 4. New traffic lands on v2; pinned names address both versions.
    let unversioned = stateless_round(&mut client, "regulator");
    let pinned_v1 = stateless_round(&mut client, "regulator@v1");
    let pinned_v2 = stateless_round(&mut client, "regulator@v2");
    let (case, _) = d1();
    let mut observation = Observation::new();
    for (name, state) in case.controls {
        observation.set(name, state);
    }
    let round = SessionRequest::new(observation);
    let v1_body = serde_json::to_string(&v1.serve(&round).expect("v1 serves")).unwrap();
    let v2_body = serde_json::to_string(&v2.serve(&round).expect("v2 serves")).unwrap();
    assert_eq!(pinned_v1, v1_body, "regulator@v1 must serve the v1 bytes");
    assert_eq!(pinned_v2, v2_body, "regulator@v2 must serve the v2 bytes");
    assert_eq!(unversioned, v2_body, "the bare name follows the promotion");
    assert_ne!(v1_body, v2_body, "the refit changed the model");

    // Sessions opened after the swap serve v2.
    let (status, body) = client
        .post("/v1/models/regulator/sessions", "{}")
        .expect("post-swap session opens");
    assert_eq!(status, 201);
    let open: OpenSessionReply = serde_json::from_str(&body).expect("open reply parses");
    let request = serde_json::to_string(&round).unwrap();
    let (status, body) = client
        .post(&format!("/v1/sessions/{}/round", open.session_id), &request)
        .expect("post-swap round");
    assert_eq!(status, 200);
    assert_eq!(body, v2_body, "a fresh session must open against v2");
    client
        .delete(&format!("/v1/sessions/{}", open.session_id))
        .expect("close");

    // 5. The versions report lists both entries with the right default.
    let (status, body) = client
        .get("/v1/models/regulator/versions")
        .expect("versions");
    assert_eq!(status, 200);
    let versions: VersionsReport = serde_json::from_str(&body).expect("versions parse");
    assert_eq!(versions.model, "regulator");
    assert_eq!(versions.active_version, 2);
    assert_eq!(versions.versions.len(), 2);
    assert!(!versions.versions[0].active && versions.versions[1].active);
    assert_eq!(versions.versions[1].source, "refit");
    // Sessions that stopped before the refit snapshotted may have added
    // their trace on top of the batch rows — the floor is the batch.
    assert!(versions.versions[1].rows_fitted >= batch_traces);

    // 6. Rollback is a metadata flip, observable on the very next round.
    let (status, body) = client
        .post("/v1/models/regulator/activate", r#"{"version":1}"#)
        .expect("activate v1");
    assert_eq!(status, 200, "activate failed: {body}");
    let rolled: ActivateReply = serde_json::from_str(&body).expect("activate reply parses");
    assert_eq!(rolled.active_version, 1);
    assert_eq!(stateless_round(&mut client, "regulator"), v1_body);
    let (status, body) = client
        .post("/v1/models/regulator/activate", r#"{"version":2}"#)
        .expect("activate v2");
    assert_eq!(status, 200, "roll forward failed: {body}");
    assert_eq!(stateless_round(&mut client, "regulator"), v2_body);
    // Unknown version and unknown model answer structured errors.
    let (status, _) = client
        .post("/v1/models/regulator/activate", r#"{"version":9}"#)
        .expect("bad activate");
    assert_eq!(status, 422);
    let (status, _) = client.post("/v1/models/nope/refit", "{}").expect("404s");
    assert_eq!(status, 404);

    // 7. Stats reconcile with the lifecycle's own counters, and no
    //    worker thread ever compiled — refits included.
    let (status, body) = client.get("/v1/stats").expect("stats");
    assert_eq!(status, 200);
    let stats: StatsReport = serde_json::from_str(&body).expect("stats parse");
    assert_eq!(stats.worker_compiles, 0, "a worker compiled during refit");
    assert_eq!(stats.refits_run, lc.refits_run());
    assert_eq!(stats.refits_rejected, lc.refits_rejected());
    assert_eq!(stats.refits_run, 2, "one premature, one promoting");
    assert_eq!(stats.refits_rejected, 1, "only the premature one");
    assert_eq!(stats.traces_aggregated, lc.traces_aggregated());
    // The batch rows plus exactly one trace per pinned session, folded
    // on its terminal round. The post-swap session and the stateless
    // probes never reached a stop, so they contribute nothing.
    assert_eq!(
        stats.traces_aggregated,
        batch_traces + SESSIONS as u64,
        "every stored session records its trace exactly once"
    );
    let model = stats
        .models
        .iter()
        .find(|m| m.name == "regulator")
        .expect("regulator stats row");
    assert_eq!(model.active_version, Some(2));
    assert_eq!(model.traces_aggregated, stats.traces_aggregated);
    assert_eq!(model.refits_run, 2);
    assert_eq!(
        model.rounds,
        stats.rounds + stats.stateless_rounds,
        "every stored and stateless round lands on the one model"
    );
    assert_eq!(
        stats.rounds as usize,
        SESSIONS * reference.bodies.len() + 1,
        "the pinned herd's rounds plus the post-swap probe"
    );

    server.shutdown();
}
