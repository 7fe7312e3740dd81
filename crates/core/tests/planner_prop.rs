//! Property tests for the cost-aware lookahead planner: over random
//! fitted networks, random device responses and random cost assignments,
//!
//! * depth-1 lookahead under a unit cost model reproduces the myopic
//!   loop's decisions exactly (same measurements, same order, same
//!   outcome);
//! * cost-weighted rankings are invariant under uniform cost scaling
//!   (tester-seconds vs tester-minutes cannot change the plan);
//! * the expectimax value is monotone non-decreasing in lookahead depth
//!   (an extra level of planning can only add discounted non-negative
//!   follow-up value).

use abbd_core::{
    Action, CircuitModel, CompiledModel, CostModel, DiagnosisSession, Error, LookaheadPlanner,
    ModelBuilder, Observation, Outcome, StoppingPolicy, Strategy,
};
use abbd_dlog2bbn::{FunctionalType, ModelSpec, StateBand, VariableSpec};
use proptest::prelude::*;
use std::sync::Arc;

const OUTS: [&str; 3] = ["out1", "out2", "out3"];

/// pin (control) -> bias (latent) -> {out1, out2}; load (latent) -> out2;
/// aux (latent) -> out3 — with every CPT row parameterised by `raw` (the
/// same randomised family as the sequential equivalence suite).
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
    #![proptest_config(ProptestConfig { cases: 16, ..Default::default() })]

    /// `Lookahead { depth: 1 }` with a unit cost model is the myopic loop:
    /// identical measurement choices in identical order, identical stop
    /// reason, identical final posterior, and values equal to 1e-12.
    #[test]
    fn depth1_unit_cost_lookahead_reproduces_myopic_decisions(
        raw in proptest::collection::vec(0.05f64..0.95, 12),
        outs in proptest::collection::vec(0usize..2, 3),
        pin in 0usize..2,
        threshold in 0.5f64..1.0,
    ) {
        let compiled = compiled_from(&raw);
        let policy = StoppingPolicy {
            fault_mass_threshold: threshold,
            max_steps: 32,
            min_gain: 0.0,
        };
        let mut myopic = DiagnosisSession::new(Arc::clone(&compiled), policy).unwrap();
        myopic.observe("pin", pin).unwrap();
        let m = myopic.run(device_oracle(outs.clone())).unwrap();

        let mut lookahead = DiagnosisSession::new(Arc::clone(&compiled), policy).unwrap();
        lookahead.set_strategy(Strategy::Lookahead { depth: 1 }).unwrap();
        lookahead.set_cost_model(CostModel::unit()).unwrap();
        lookahead.observe("pin", pin).unwrap();
        let l = lookahead.run(device_oracle(outs)).unwrap();

        prop_assert_eq!(l.stop, m.stop);
        let order = |o: &abbd_core::SequentialOutcome| -> Vec<(String, usize)> {
            o.applied.iter().map(|a| (a.variable.clone(), a.state)).collect()
        };
        prop_assert_eq!(order(&l), order(&m));
        prop_assert_eq!(l.diagnosis.posteriors(), m.diagnosis.posteriors());
        for (a, b) in l.applied.iter().zip(&m.applied) {
            // Depth-1 values are the myopic gains to 1e-12: lookahead
            // propagates each hypothetical in full, the myopic kernel
            // absorbs it into the calibrated tree.
            let (a, b) = (a.expected_information_gain.unwrap(), b.expected_information_gain.unwrap());
            prop_assert!((a - b).abs() <= 1e-12, "depth-1 value {} vs myopic gain {}", a, b);
        }
    }

    /// Scaling every cost by the same positive factor cannot change a
    /// cost-weighted ranking: tester-seconds and tester-minutes describe
    /// the same economics.
    #[test]
    fn cost_weighted_ranking_is_invariant_under_uniform_scaling(
        raw in proptest::collection::vec(0.05f64..0.95, 12),
        costs in proptest::collection::vec(0.5f64..8.0, 3),
        factor in 0.001f64..1000.0,
        pin in 0usize..2,
    ) {
        let compiled = compiled_from(&raw);
        let mut base = CostModel::new(1.0, 2.0, 10.0).unwrap();
        for (name, secs) in OUTS.iter().zip(&costs) {
            base.set_cost(*name, *secs).unwrap();
        }
        let ranking = |cost: CostModel| -> Vec<String> {
            let mut d = DiagnosisSession::new(Arc::clone(&compiled), StoppingPolicy::default()).unwrap();
            d.set_strategy(Strategy::CostWeighted).unwrap();
            d.set_cost_model(cost).unwrap();
            d.observe("pin", pin).unwrap();
            d.rank_actions()
                .unwrap()
                .iter()
                .map(|c| c.name().to_string())
                .collect()
        };
        let original = ranking(base.clone());
        let scaled = ranking(base.scaled(factor).unwrap());
        prop_assert_eq!(original, scaled);
    }

    /// The expectimax value never decreases with depth: each extra level
    /// adds the discounted value of the best follow-up plan, which is
    /// non-negative by construction.
    #[test]
    fn expectimax_value_is_monotone_in_depth(
        raw in proptest::collection::vec(0.05f64..0.95, 12),
        pin in 0usize..2,
    ) {
        let compiled = compiled_from(&raw);
        let mut obs = Observation::new();
        obs.set("pin", pin);
        let evidence = compiled.evidence_from(&obs).unwrap();
        let vars: Vec<_> = OUTS
            .iter()
            .map(|n| compiled.model().var(n).unwrap())
            .collect();
        let mut previous: Option<Vec<f64>> = None;
        for depth in 1..=3 {
            let mut planner = LookaheadPlanner::new(&compiled, depth).unwrap();
            let values = planner.values(&compiled, &evidence, &vars).unwrap().to_vec();
            for v in &values {
                prop_assert!(v.is_finite() && *v >= 0.0, "value {v} at depth {depth}");
            }
            if let Some(previous) = &previous {
                for (i, (lo, hi)) in previous.iter().zip(&values).enumerate() {
                    prop_assert!(
                        hi >= lo,
                        "candidate {i}: depth {depth} value {hi} < depth {} value {lo}",
                        depth - 1
                    );
                }
            }
            previous = Some(values);
        }
    }
}
