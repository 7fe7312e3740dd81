//! End-to-end fleet drift scenario: a model fitted on the bring-up
//! defect mix degrades when the fleet's defect mix shifts, the trace
//! aggregator collects the drifted returns, a gated refit promotes a
//! corrected model, and isolation accuracy on fleet traffic recovers to
//! (here: beyond) the level of a model fitted fresh on the drifted
//! data. A corrupted candidate pushed through the same gate is rejected
//! with a structured reason and never serves.
//!
//! The conformance corpus pins the four Table VI case studies whose
//! verdict is *evidence*-determined (d1–d4). The fifth, d5, is a prior
//! tie — `enbsw` dead and `sw` dead are observationally identical in
//! the enabled suites, and bring-up priors broke the tie toward the
//! enable gate — so its verdict is exactly what fleet learning is
//! supposed to move; pinning it would freeze the bring-up prior
//! forever. The test asserts its flip instead.

use abbd::bbn::learn::EmConfig;
use abbd::core::conformance::{self, self_references, ReplayCase};
use abbd::core::{
    compile_candidate, CompiledModel, GateRejection, LearnAlgorithm, ModelBuilder, ModelLifecycle,
    Observation, RefitPolicy,
};
use abbd::designs::regulator::{self, drift};
use std::sync::Arc;

fn quick_em() -> LearnAlgorithm {
    LearnAlgorithm::Em(EmConfig {
        max_iterations: 8,
        tolerance: 1e-4,
    })
}

fn case_study_observation(id: &str) -> Observation {
    let case = regulator::cases::case_studies()
        .into_iter()
        .find(|c| c.id == id)
        .expect("case study exists");
    let mut observation = Observation::new();
    for &(name, state) in case.controls.iter().chain(case.observables.iter()) {
        observation.set(name, state);
    }
    observation
}

/// Observations for the evidence-determined Table VI case studies — the
/// conformance corpus a refit candidate must still isolate correctly.
fn reference_scenarios() -> Vec<(String, Observation)> {
    ["d1", "d2", "d3", "d4"]
        .iter()
        .map(|id| (id.to_string(), case_study_observation(id)))
        .collect()
}

/// Mean log-likelihood of the drifted cases under `compiled` — the same
/// quantity the refit gate scores on its holdout ring.
fn mean_log_likelihood(
    compiled: &Arc<abbd::core::CompiledModel>,
    cases: &[abbd::dlog2bbn::NamedCase],
) -> f64 {
    let mut sum = 0.0;
    let mut scored = 0usize;
    for case in cases {
        let reference = ReplayCase {
            name: String::new(),
            observation: Observation::from(case),
            expected_top: None,
        };
        if let Ok(outcome) = conformance::replay(compiled, &reference) {
            if outcome.log_likelihood.is_finite() {
                sum += outcome.log_likelihood;
                scored += 1;
            }
        }
    }
    assert!(scored > 0, "some drifted cases must be scoreable");
    sum / scored as f64
}

#[test]
fn drifted_fleet_refit_recovers_isolation_accuracy() {
    let rig = regulator::rig();

    // The bring-up snapshot: fitted on the nominal defect mix.
    let stale = regulator::fit(24, 42, quick_em()).expect("stale fit");
    let stale_compiled = Arc::clone(&stale.engine);

    // The fleet drifts: a process excursion floods the returns with
    // `sw` driver defects. One population feeds the aggregator, a
    // disjoint one scores accuracy, and a nominal-mix population shows
    // what the stale model was good at.
    let train = drift::synthesize_drifted(&rig, 64, 777, 10_000).expect("drifted train");
    let eval = drift::synthesize_drifted(&rig, 32, 888, 50_000).expect("drifted eval");
    let nominal = regulator::synthesize(16, 999, 90_000).expect("nominal eval");

    let stale_nominal_acc = drift::isolation_accuracy(&stale_compiled, &nominal.cases);
    let stale_drift_acc = drift::isolation_accuracy(&stale_compiled, &eval.cases);
    assert!(
        stale_drift_acc < stale_nominal_acc - 0.15,
        "drift must hurt the stale model on fleet traffic: \
         {stale_drift_acc:.3} drifted vs {stale_nominal_acc:.3} nominal"
    );

    // Baseline: re-running the bring-up pipeline on the drifted traces.
    let fresh_model = ModelBuilder::new(rig.model.clone())
        .with_expert(rig.expert.clone())
        .learn(&train.cases, quick_em())
        .expect("fresh fit");
    let fresh = CompiledModel::compile(fresh_model).expect("fresh model compiles");
    let fresh_acc = drift::isolation_accuracy(&fresh, &eval.cases);

    // The lifecycle: stale model active, evidence-determined case
    // studies as conformance references, drifted traces aggregated with
    // observed tester time.
    let references =
        self_references(&stale_compiled, reference_scenarios()).expect("reference corpus");
    let lc = ModelLifecycle::new(
        "regulator",
        Arc::clone(&stale_compiled),
        references,
        RefitPolicy::default(),
    )
    .shared();
    for case in &train.cases {
        lc.aggregator()
            .record(&Observation::from(case), &[("sw".to_string(), 0.25)]);
    }
    assert_eq!(lc.aggregator().rows(), train.cases.len() as u64);
    assert!(lc.due(), "a full drifted population is worth a refit");

    // Refit, gate, hot-swap.
    let report = lc.refit();
    assert!(
        report.promoted,
        "gate must pass a legitimate drift refit: {:?}",
        report.rejection.map(|r| r.to_string())
    );
    assert_eq!(report.version, Some(2));
    assert_eq!(lc.active_version(), 2);
    assert_eq!(report.references_checked, 4);
    assert!(report.holdout_cases > 0, "holdout ring was fed");
    let cost_model = lc.learned_cost_model().expect("observed tester seconds");
    assert!((cost_model.cost_of("sw", false) - 0.25).abs() < 1e-9);

    // Isolation accuracy on fleet traffic recovers — at least to the
    // fresh-fit baseline, and materially above the stale model.
    let refit = lc.active();
    let refit_drift_acc = drift::isolation_accuracy(&refit, &eval.cases);
    assert!(
        refit_drift_acc >= fresh_acc - 0.05,
        "refit must reach the fresh-fit baseline: refit {refit_drift_acc:.3} \
         vs fresh {fresh_acc:.3}"
    );
    assert!(
        refit_drift_acc > stale_drift_acc + 0.10,
        "refit must recover materially: refit {refit_drift_acc:.3} \
         vs stale {stale_drift_acc:.3}"
    );
    // ...without giving back the nominal-mix competence.
    let refit_nominal_acc = drift::isolation_accuracy(&refit, &nominal.cases);
    assert!(
        refit_nominal_acc >= stale_nominal_acc - 0.05,
        "refit must not regress on the old mix: {refit_nominal_acc:.3} \
         vs {stale_nominal_acc:.3}"
    );
    // The distribution fit improves the way the holdout gate scores it.
    let stale_ll = mean_log_likelihood(&stale_compiled, &eval.cases);
    let refit_ll = mean_log_likelihood(&refit, &eval.cases);
    assert!(
        refit_ll > stale_ll + 1.0,
        "refit must explain the drifted fleet better: {refit_ll:.3} \
         vs {stale_ll:.3} nats"
    );

    // The unpinned prior tie moved: d5's lone `sw_out` failure no
    // longer convicts the enable gate.
    let d5 = ReplayCase {
        name: "d5".into(),
        observation: case_study_observation("d5"),
        expected_top: None,
    };
    let d5_stale = conformance::replay(&stale_compiled, &d5).expect("stale replay");
    let d5_refit = conformance::replay(&refit, &d5).expect("refit replay");
    assert_eq!(d5_stale.top_candidate.as_deref(), Some("enbsw"));
    assert_ne!(
        d5_refit.top_candidate.as_deref(),
        Some("enbsw"),
        "fleet learning must move the d5 prior tie"
    );

    // Rollback re-activates the stale compile without recompiling...
    assert_eq!(lc.activate(1).expect("rollback"), 1);
    assert!(Arc::ptr_eq(&lc.active(), &stale_compiled));
    // ...and roll-forward restores the refit verbatim.
    assert_eq!(lc.activate(2).expect("roll forward"), 2);
    assert_eq!(
        drift::isolation_accuracy(&lc.active(), &eval.cases),
        refit_drift_acc
    );
}

#[test]
fn corrupted_candidate_never_serves() {
    let rig = regulator::rig();
    let stale = regulator::fit(24, 42, quick_em()).expect("stale fit");
    let stale_compiled = Arc::clone(&stale.engine);
    let references =
        self_references(&stale_compiled, reference_scenarios()).expect("reference corpus");
    let lc = ModelLifecycle::new(
        "regulator",
        Arc::clone(&stale_compiled),
        references,
        RefitPolicy::default(),
    );
    let train = drift::synthesize_drifted(&rig, 8, 777, 10_000).expect("drifted train");
    for case in &train.cases {
        lc.aggregator().record(&Observation::from(case), &[]);
    }

    // Reverse every CPT row: structurally valid, maximally wrong.
    let mut net = stale_compiled.model().network().clone();
    for v in stale_compiled.model().network().variables() {
        let card = stale_compiled.model().network().card(v);
        let scrambled: Vec<f64> = stale_compiled
            .model()
            .network()
            .cpt(v)
            .chunks(card)
            .flat_map(|row| row.iter().rev().copied().collect::<Vec<_>>())
            .collect();
        net.set_cpt_values(v, scrambled).unwrap();
    }
    let candidate = compile_candidate(&stale_compiled, net).expect("compiles");

    let report = lc.submit(candidate, "nightly-batch");
    assert!(!report.promoted, "gate must reject the corrupted candidate");
    let rejection = report.rejection.expect("structured reason");
    assert!(
        matches!(
            rejection,
            GateRejection::ReferenceMismatch { .. } | GateRejection::HoldoutRegression { .. }
        ),
        "unexpected rejection: {rejection}"
    );
    assert_eq!(lc.active_version(), 1, "incumbent keeps serving");
    assert!(Arc::ptr_eq(&lc.active(), &stale_compiled));
    assert_eq!(lc.refits_rejected(), 1);
}
