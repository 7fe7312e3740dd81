//! A short smoke run of every workload against an in-process server
//! registered the way `abbd-serve` registers its models: the wire phase
//! must fail nothing, every reply must match the in-process oracle byte
//! for byte, and the traced replay (stacks and replicas) must agree too.

use abbd_core::fleet::{ModelLifecycle, RefitPolicy};
use abbd_server::{ModelBundle, ModelRegistry, Server, ServerConfig};
use diagbench::phase::{drive, oracle, traced_replay};
use diagbench::report;
use diagbench::workload::{
    board_bundle_json, fit_regulator, fleet, Models, Workload, BOARD, REGULATOR,
};
use std::time::Duration;

fn server() -> Server {
    let regulator = fit_regulator().expect("regulator fits");
    let lifecycle =
        ModelLifecycle::new(REGULATOR, regulator, Vec::new(), RefitPolicy::default()).shared();
    let bundle = ModelBundle::from_json(&board_bundle_json()).expect("bundle parses");
    let registry = ModelRegistry::new()
        .insert_lifecycle(REGULATOR, lifecycle)
        .insert_bundle(BOARD, &bundle)
        .expect("bundle compiles")
        .freeze();
    Server::start(
        registry,
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("server binds")
}

fn smoke(workload: Workload) {
    let server = server();
    let addr = server.addr().to_string();
    let fleet = fleet(workload, 64, 7).expect("fleet samples");
    let wire = drive(&addr, workload, &fleet, 0, Duration::from_millis(1500), 1);
    assert!(wire.attempted() > 0, "no request sent");
    assert_eq!(
        wire.status_failures() + wire.protocol_failures() + wire.transport_failures,
        0,
        "requests failed on the wire"
    );
    let models = Models::for_workload(workload, &board_bundle_json()).expect("models build");
    let check = oracle(workload, &models, &fleet, &wire, 2);
    assert!(check.replayed > 0);
    assert_eq!(check.mismatched, 0, "wire replies differ from the oracle");

    let (traced, replay) = traced_replay(
        workload,
        &models,
        &fleet,
        &wire,
        Duration::from_millis(1500),
    );
    assert!(replay.replayed > 0);
    assert_eq!(replay.mismatched, 0, "traced replay differs from the wire");
    assert_eq!(traced.mismatches, 0, "stacks or replica B disagree");
    let layers = report::per_layer(
        &traced,
        report::LayerInputs {
            wire_p50_us: 1.0,
            queue_full_rejections: 0,
            worker_compiles: 0,
            first_visit_ms: 0.0,
        },
    );
    assert!(layers.iter().all(|m| m.value.is_finite()));
    let exercised = if workload.adaptive() {
        "voi.rank_us"
    } else {
        "batch.row_diagnose_us"
    };
    assert!(layers.iter().any(|m| m.name == exercised && m.value > 0.0));

    let metrics = report::end_to_end(workload, &fleet, &wire, 0.1, 1.0);
    assert!(metrics.iter().all(|m| m.value.is_finite()), "{metrics:?}");
    assert!(
        metrics
            .iter()
            .any(|m| m.name == "devices_per_s" && m.value > 0.0),
        "no device finished: {metrics:?}"
    );
    server.shutdown();
}

#[test]
fn regulator_adaptive_smoke() {
    smoke(Workload::RegulatorAdaptive);
}

#[test]
fn regulator_batch_smoke() {
    smoke(Workload::RegulatorBatch);
}

#[test]
fn board_hier_adaptive_smoke() {
    smoke(Workload::BoardHierAdaptive);
}
