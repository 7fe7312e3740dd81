//! Property tests for the sequential adaptive diagnoser: over random
//! models, random device responses and random fixed orders, a sequential
//! run that never stops early must land exactly where the one-shot
//! diagnosis of the full observation lands.

use abbd_core::{
    Action, CircuitModel, CompiledModel, DiagnosisSession, Error, ModelBuilder, Observation,
    Outcome, StoppingPolicy,
};
use abbd_dlog2bbn::{FunctionalType, ModelSpec, StateBand, VariableSpec};
use proptest::prelude::*;
use std::sync::Arc;

const OUTS: [&str; 3] = ["out1", "out2", "out3"];

/// pin (control) -> bias (latent) -> {out1, out2}; load (latent) -> out2;
/// aux (latent) -> out3 — with every CPT row parameterised by `raw`.
fn compiled_from(raw: &[f64]) -> Arc<CompiledModel> {
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
        var("aux", FunctionalType::Latent),
        var("out1", FunctionalType::Observe),
        var("out2", FunctionalType::Observe),
        var("out3", FunctionalType::Observe),
    ])
    .unwrap();
    let mut m = CircuitModel::new(spec);
    m.depends("pin", "bias").unwrap();
    m.depends("bias", "out1").unwrap();
    m.depends("bias", "out2").unwrap();
    m.depends("load", "out2").unwrap();
    m.depends("aux", "out3").unwrap();

    let p = |i: usize| raw[i % raw.len()];
    let row = |i: usize| [p(i), 1.0 - p(i)];
    let mut e = abbd_core::ExpertKnowledge::new(10.0);
    e.cpt("pin", [[0.5, 0.5]]);
    e.cpt("bias", [row(0), row(1)]);
    e.cpt("load", [row(2)]);
    e.cpt("aux", [row(3)]);
    e.cpt("out1", [row(4), row(5)]);
    e.cpt("out2", [row(6), row(7), row(8), row(9)]);
    e.cpt("out3", [row(10), row(11)]);
    let dm = ModelBuilder::new(m)
        .with_expert(e)
        .build_expert_only()
        .unwrap();
    CompiledModel::compile(dm).unwrap().shared()
}

/// The full observation a device with outputs `outs` under `pin` yields
/// (state 0 marked failing, the usual "band 0 is non-operational" rule).
fn full_observation(pin: usize, outs: &[usize]) -> Observation {
    let mut obs = Observation::new();
    obs.set("pin", pin);
    for (name, &state) in OUTS.iter().zip(outs) {
        obs.set(*name, state);
        if state == 0 {
            obs.mark_failing(*name);
        }
    }
    obs
}

fn device_oracle(outs: Vec<usize>) -> impl FnMut(&Action) -> Result<Outcome, Error> {
    move |action| {
        let i = OUTS.iter().position(|v| *v == action.target()).unwrap();
        Ok(Outcome {
            state: outs[i],
            failing: outs[i] == 0,
        })
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..Default::default() })]

    /// Threshold 1.0, no gain floor, full measurement budget: the
    /// adaptive loop applies every test (in whatever order it likes) and
    /// must reproduce the one-shot diagnosis of the full program exactly.
    #[test]
    fn exhaustive_adaptive_run_equals_one_shot_diagnosis(
        raw in proptest::collection::vec(0.05f64..0.95, 12),
        outs in proptest::collection::vec(0usize..2, 3),
        pin in 0usize..2,
    ) {
        let compiled = compiled_from(&raw);
        let mut d = DiagnosisSession::new(Arc::clone(&compiled), StoppingPolicy::exhaustive()).unwrap();
        d.observe("pin", pin).unwrap();
        let outcome = d.run(device_oracle(outs.clone())).unwrap();
        prop_assert_eq!(outcome.tests_used(), 3);

        let one_shot = compiled.diagnose(&full_observation(pin, &outs)).unwrap();
        prop_assert_eq!(outcome.diagnosis.posteriors(), one_shot.posteriors());
        prop_assert_eq!(outcome.diagnosis.fault_mass(), one_shot.fault_mass());
        prop_assert!(
            (outcome.diagnosis.log_likelihood() - one_shot.log_likelihood()).abs() < 1e-12
        );
        // Candidate *sets* agree (order can differ with tied fault mass).
        let mut a: Vec<&str> = outcome
            .diagnosis
            .candidates()
            .iter()
            .map(|c| c.variable.as_str())
            .collect();
        let mut b: Vec<&str> = one_shot
            .candidates()
            .iter()
            .map(|c| c.variable.as_str())
            .collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    /// The scripted (fixed-order) runner under the same never-stop policy
    /// agrees too, for any permutation of the program.
    #[test]
    fn exhaustive_scripted_run_equals_one_shot_diagnosis(
        raw in proptest::collection::vec(0.05f64..0.95, 12),
        outs in proptest::collection::vec(0usize..2, 3),
        first in 0usize..3,
    ) {
        let compiled = compiled_from(&raw);
        let mut order: Vec<&str> = OUTS.to_vec();
        order.rotate_left(first);
        let mut d = DiagnosisSession::new(Arc::clone(&compiled), StoppingPolicy::exhaustive()).unwrap();
        d.observe("pin", 1).unwrap();
        let outcome = d.run_scripted(&order, device_oracle(outs.clone())).unwrap();
        prop_assert_eq!(outcome.tests_used(), 3);
        let one_shot = compiled.diagnose(&full_observation(1, &outs)).unwrap();
        prop_assert_eq!(outcome.diagnosis.posteriors(), one_shot.posteriors());
    }

    /// Stopping early never *invents* evidence: an isolation stop's top
    /// candidate keeps its fault mass above threshold, and gains reported
    /// along the way are non-negative and finite.
    #[test]
    fn early_stops_are_sound(
        raw in proptest::collection::vec(0.05f64..0.95, 12),
        outs in proptest::collection::vec(0usize..2, 3),
        threshold in 0.5f64..0.99,
    ) {
        let compiled = compiled_from(&raw);
        let policy = StoppingPolicy {
            fault_mass_threshold: threshold,
            max_steps: 32,
            min_gain: 0.0,
        };
        let mut d = DiagnosisSession::new(Arc::clone(&compiled), policy).unwrap();
        d.observe("pin", 1).unwrap();
        let outcome = d.run(device_oracle(outs)).unwrap();
        for step in &outcome.applied {
            let gain = step.expected_information_gain.unwrap();
            prop_assert!(gain.is_finite() && gain >= 0.0);
        }
        if outcome.stop == abbd_core::StopReason::Isolated {
            let top = outcome.diagnosis.candidates().first().unwrap();
            prop_assert!(top.fault_mass >= threshold);
        }
    }
}
