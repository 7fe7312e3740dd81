//! One-shot diagnosis on [`CompiledModel`]: an observation in, posteriors
//! and ranked fail candidates out.

use crate::builder::{ExpertKnowledge, ModelBuilder};
use crate::deduce::DeductionPolicy;
use crate::diagnosis::Observation;
use crate::error::Error;
use crate::model::CircuitModel;
use crate::session::CompiledModel;
use abbd_dlog2bbn::{FunctionalType, ModelSpec, NamedCase, StateBand, VariableSpec};

/// pin (control) -> bias (latent) -> {out1, out2} (observed);
/// second latent `load` -> out2 only.
fn compiled_model() -> CompiledModel {
    let var = |name: &str, ftype| VariableSpec {
        name: name.into(),
        ftype,
        bands: vec![
            StateBand::new("0", 0.0, 1.0, "bad"),
            StateBand::new("1", 1.0, 2.0, "good"),
        ],
        ckt_ref: None,
    };
    let spec = ModelSpec::new([
        var("pin", FunctionalType::Control),
        var("bias", FunctionalType::Latent),
        var("load", FunctionalType::Latent),
        var("out1", FunctionalType::Observe),
        var("out2", FunctionalType::Observe),
    ])
    .unwrap();
    let mut m = CircuitModel::new(spec);
    m.depends("pin", "bias").unwrap();
    m.depends("bias", "out1").unwrap();
    m.depends("bias", "out2").unwrap();
    m.depends("load", "out2").unwrap();

    let mut e = ExpertKnowledge::new(10.0);
    e.cpt("pin", [[0.5, 0.5]]);
    e.cpt("bias", [[0.9, 0.1], [0.05, 0.95]]);
    e.cpt("load", [[0.1, 0.9]]);
    e.cpt("out1", [[0.95, 0.05], [0.05, 0.95]]);
    // parents: bias, load (last fastest)
    e.cpt(
        "out2",
        [[0.97, 0.03], [0.9, 0.1], [0.85, 0.15], [0.02, 0.98]],
    );
    let dm = ModelBuilder::new(m)
        .with_expert(e)
        .build_expert_only()
        .unwrap();
    CompiledModel::compile(dm).unwrap()
}

#[test]
fn observation_builders() {
    let mut o = Observation::new();
    assert!(o.is_empty());
    o.set("a", 1).set("b", 0).set("a", 2);
    assert_eq!(o.len(), 2);
    assert_eq!(o.state_of("a"), Some(2));
    assert_eq!(o.state_of("c"), None);
    let o2: Observation = [("x", 1)].into_iter().collect();
    assert_eq!(o2.iter().count(), 1);

    let case = NamedCase {
        device_id: 1,
        suite: "s".into(),
        assignment: vec![("v".into(), 1)],
        failing: vec![],
        truth: vec![],
    };
    let from_case = Observation::from(&case);
    assert_eq!(from_case.state_of("v"), Some(1));
}

#[test]
fn baseline_matches_prior() {
    let compiled = compiled_model();
    let baseline = compiled.baseline().unwrap();
    let (name, dist) = &baseline[0];
    assert_eq!(name, "pin");
    assert!((dist[0] - 0.5).abs() < 1e-9);
    assert_eq!(baseline.len(), 5);
}

#[test]
fn failing_outputs_implicate_bias() {
    let compiled = compiled_model();
    let mut obs = Observation::new();
    obs.set("pin", 1).set("out1", 0).set("out2", 0);
    let d = compiled.diagnose(&obs).unwrap();
    assert_eq!(d.top_candidate(), Some("bias"));
    assert!(d.fault_mass()["bias"] > 0.5);
    assert!(d.log_likelihood() < 0.0);
    // Observed variables collapse to point masses.
    assert!((d.posterior_of("out1").unwrap()[0] - 1.0).abs() < 1e-9);
    assert_eq!(d.posterior_of("ghost"), None);
    assert_eq!(d.observation().len(), 3);
    assert!(!d.candidates().is_empty());
    assert!(d.classes().contains_key("bias"));
}

#[test]
fn out2_only_failure_implicates_load() {
    let compiled = compiled_model();
    let mut obs = Observation::new();
    obs.set("pin", 1).set("out1", 1).set("out2", 0);
    let d = compiled.diagnose(&obs).unwrap();
    assert_eq!(d.top_candidate(), Some("load"));
    assert!(d.fault_mass()["load"] > d.fault_mass()["bias"]);
}

#[test]
fn healthy_device_yields_no_candidates() {
    let compiled = compiled_model();
    let mut obs = Observation::new();
    obs.set("pin", 1).set("out1", 1).set("out2", 1);
    let d = compiled.diagnose(&obs).unwrap();
    assert!(d.candidates().is_empty(), "got {:?}", d.candidates());
}

#[test]
fn rejects_bad_observations() {
    let compiled = compiled_model();
    let mut ghost = Observation::new();
    ghost.set("ghost", 0);
    assert!(matches!(
        compiled.diagnose(&ghost),
        Err(Error::InvalidObservation { .. })
    ));
    let mut oob = Observation::new();
    oob.set("pin", 9);
    assert!(matches!(
        compiled.diagnose(&oob),
        Err(Error::InvalidObservation { .. })
    ));
}

#[test]
fn policy_is_replaceable() {
    let compiled = compiled_model();
    let strict = DeductionPolicy {
        faulty_threshold: 0.95,
        healthy_threshold: 0.95 - 1e-9,
        seed_with_best_ambiguous: false,
    };
    let compiled = compiled.with_policy(strict).unwrap();
    assert!((compiled.policy().faulty_threshold - 0.95).abs() < 1e-12);
    let bad = DeductionPolicy {
        faulty_threshold: 0.2,
        healthy_threshold: 0.8,
        ..Default::default()
    };
    assert!(compiled_model().with_policy(bad).is_err());
}
