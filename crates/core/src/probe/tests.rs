//! Step-two probe ranking on [`DiagnosisSession`]: which latent block is
//! worth probing after the specification tests have run.

use crate::builder::{ExpertKnowledge, ModelBuilder};
use crate::model::CircuitModel;
use crate::session::{Action, CompiledModel, DiagnosisSession, StoppingPolicy};
use abbd_dlog2bbn::{FunctionalType, ModelSpec, StateBand, VariableSpec};
use std::sync::Arc;

/// Two latent hypotheses drive one shared symptom; a third latent is
/// independent noise. Probing either hypothesis block should carry
/// more information than probing the bystander.
fn compiled() -> Arc<CompiledModel> {
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
        var("ha", FunctionalType::Latent),
        var("hb", FunctionalType::Latent),
        var("bystander", FunctionalType::Latent),
        var("symptom", FunctionalType::Observe),
        var("other", FunctionalType::Observe),
    ])
    .unwrap();
    let mut m = CircuitModel::new(spec);
    m.depends("ha", "symptom").unwrap();
    m.depends("hb", "symptom").unwrap();
    m.depends("bystander", "other").unwrap();

    let mut e = ExpertKnowledge::new(10.0);
    e.cpt("ha", [[0.1, 0.9]]);
    e.cpt("hb", [[0.1, 0.9]]);
    e.cpt("bystander", [[0.1, 0.9]]);
    // symptom bad iff ha bad OR hb bad (tight OR of failures).
    e.cpt(
        "symptom",
        [[0.98, 0.02], [0.95, 0.05], [0.95, 0.05], [0.03, 0.97]],
    );
    e.cpt("other", [[0.9, 0.1], [0.1, 0.9]]);
    let dm = ModelBuilder::new(m)
        .with_expert(e)
        .build_expert_only()
        .unwrap();
    CompiledModel::compile(dm).unwrap().shared()
}

/// Ranks every unobserved latent as a probe after `seen`, returning
/// `(name, expected information gain)` best first.
fn rank_probes(seen: &[(&str, usize)]) -> Vec<(String, f64)> {
    let mut s = DiagnosisSession::new(compiled(), StoppingPolicy::default()).unwrap();
    for &(name, state) in seen {
        s.observe(name, state).unwrap();
    }
    s.set_actions(["ha", "hb", "bystander"].map(Action::probe))
        .unwrap();
    s.rank_actions()
        .unwrap()
        .iter()
        .map(|c| (c.name().to_string(), c.expected_information_gain()))
        .collect()
}

#[test]
fn ambiguous_hypotheses_rank_above_bystanders() {
    let probes = rank_probes(&[("symptom", 0), ("other", 1)]);
    assert_eq!(probes.len(), 3);
    let gain = |name: &str| probes.iter().find(|(n, _)| n == name).unwrap().1;
    assert!(gain("ha") > gain("bystander") * 3.0, "{probes:?}");
    assert!(gain("hb") > gain("bystander") * 3.0, "{probes:?}");
    // Top suggestion is one of the two competing hypotheses.
    assert!(probes[0].0 == "ha" || probes[0].0 == "hb");
}

#[test]
fn resolved_cases_carry_little_information() {
    // Nothing failing: posteriors near-certain, all gains tiny.
    let probes = rank_probes(&[("symptom", 1), ("other", 1)]);
    for p in &probes {
        assert!(p.1 < 0.2, "unexpectedly informative probe: {p:?}");
    }
}

#[test]
fn gains_are_nonnegative_and_sorted() {
    let probes = rank_probes(&[("symptom", 0)]);
    for w in probes.windows(2) {
        assert!(w[0].1 >= w[1].1);
    }
    for p in &probes {
        assert!(p.1 >= 0.0);
    }
}
