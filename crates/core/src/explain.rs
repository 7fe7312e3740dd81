//! Diagnosis explanation: which finding drove the verdict?
//!
//! A diagnostic report that names a block without saying *why* is hard for
//! a failure analyst to trust. This module quantifies the contribution of
//! every observed finding to a target block's posterior by leave-one-out
//! retraction: drop the finding, re-propagate through the model's compiled
//! junction tree, and measure how far the target's posterior moves back.

use crate::diagnosis::Observation;
use crate::error::{Error, Result};
use crate::session::CompiledModel;
use serde::{Deserialize, Serialize};

/// The influence of one observed finding on a target variable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FindingImpact {
    /// The observed variable whose finding is being assessed.
    pub variable: String,
    /// The state that was observed.
    pub state: usize,
    /// Total-variation distance between the target's posterior with and
    /// without this finding: `0` means the finding is irrelevant to the
    /// target, `1` means it flips the verdict entirely.
    pub impact: f64,
    /// The target's posterior when this finding is retracted.
    pub posterior_without: Vec<f64>,
}

fn total_variation(a: &[f64], b: &[f64]) -> f64 {
    0.5 * a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f64>()
}

impl CompiledModel {
    /// Ranks the observation's findings by their leave-one-out influence on
    /// `target`'s posterior (most influential first).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownVariable`] for an unknown target and
    /// propagates observation-validation and propagation errors.
    pub fn explain(&self, observation: &Observation, target: &str) -> Result<Vec<FindingImpact>> {
        let target_id = self.model().var(target)?;
        let jt = self.jt();
        let mut ws = self.make_workspace();
        let full_evidence = self.evidence_from(observation)?;
        let full = jt
            .propagate_in(&mut ws, &full_evidence)
            .map_err(Error::Bbn)?
            .posterior(target_id)
            .map_err(Error::Bbn)?;

        let mut impacts = Vec::with_capacity(observation.len());
        for (name, state) in observation.iter() {
            if name == target {
                continue;
            }
            let mut retracted = full_evidence.clone();
            let id = self.model().var(name)?;
            retracted.retract(id);
            let without = jt
                .propagate_in(&mut ws, &retracted)
                .map_err(Error::Bbn)?
                .posterior(target_id)
                .map_err(Error::Bbn)?;
            impacts.push(FindingImpact {
                variable: name.to_string(),
                state,
                impact: total_variation(&full, &without),
                posterior_without: without,
            });
        }
        impacts.sort_by(|a, b| b.impact.partial_cmp(&a.impact).expect("finite impacts"));
        Ok(impacts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{ExpertKnowledge, ModelBuilder};
    use crate::model::CircuitModel;
    use abbd_bbn::VariableElimination;
    use abbd_dlog2bbn::{FunctionalType, ModelSpec, StateBand, VariableSpec};

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
            var("bias", FunctionalType::Latent),
            var("load", FunctionalType::Latent),
            var("out_main", FunctionalType::Observe),
            var("out_aux", FunctionalType::Observe),
        ])
        .unwrap();
        let mut m = CircuitModel::new(spec);
        m.depends("bias", "out_main").unwrap();
        m.depends("load", "out_aux").unwrap();
        let mut e = ExpertKnowledge::new(10.0);
        e.cpt("bias", [[0.15, 0.85]]);
        e.cpt("load", [[0.15, 0.85]]);
        e.cpt("out_main", [[0.95, 0.05], [0.05, 0.95]]);
        e.cpt("out_aux", [[0.95, 0.05], [0.05, 0.95]]);
        let dm = ModelBuilder::new(m)
            .with_expert(e)
            .build_expert_only()
            .unwrap();
        CompiledModel::compile(dm).unwrap()
    }

    #[test]
    fn relevant_finding_dominates_irrelevant_one() {
        let compiled = compiled_model();
        let mut obs = Observation::new();
        obs.set("out_main", 0).set("out_aux", 1);
        let impacts = compiled.explain(&obs, "bias").unwrap();
        assert_eq!(impacts.len(), 2);
        assert_eq!(impacts[0].variable, "out_main", "{impacts:?}");
        assert!(impacts[0].impact > 0.4, "{impacts:?}");
        // out_aux is d-separated from bias: zero influence.
        let aux = impacts.iter().find(|i| i.variable == "out_aux").unwrap();
        assert!(aux.impact < 1e-9, "{impacts:?}");
        assert_eq!(aux.state, 1);
        // The retracted posterior is the prior again.
        assert!((impacts[0].posterior_without[0] - 0.15).abs() < 1e-6);
    }

    #[test]
    fn target_itself_is_excluded() {
        let compiled = compiled_model();
        let mut obs = Observation::new();
        obs.set("out_main", 0).set("out_aux", 0);
        let impacts = compiled.explain(&obs, "out_main").unwrap();
        assert!(impacts.iter().all(|i| i.variable != "out_main"));
    }

    #[test]
    fn unknown_target_is_rejected() {
        let compiled = compiled_model();
        let obs = Observation::new();
        assert!(matches!(
            compiled.explain(&obs, "ghost"),
            Err(Error::UnknownVariable(_))
        ));
    }

    #[test]
    fn impacts_are_sorted_descending() {
        let compiled = compiled_model();
        let mut obs = Observation::new();
        obs.set("out_main", 0).set("out_aux", 0);
        let impacts = compiled.explain(&obs, "bias").unwrap();
        for w in impacts.windows(2) {
            assert!(w[0].impact >= w[1].impact);
        }
    }

    #[test]
    fn explain_reuses_the_compiled_tree() {
        let compiled = compiled_model();
        let mut obs = Observation::new();
        obs.set("out_main", 0).set("out_aux", 1);
        let before = abbd_bbn::jointree_compile_count();
        compiled.explain(&obs, "bias").unwrap();
        assert_eq!(
            abbd_bbn::jointree_compile_count(),
            before,
            "explain compiled"
        );
    }

    #[test]
    fn retracted_posteriors_match_the_variable_elimination_oracle() {
        let compiled = compiled_model();
        let mut obs = Observation::new();
        obs.set("out_main", 0).set("out_aux", 1);
        let ve = VariableElimination::new(compiled.model().network());
        let full = compiled.evidence_from(&obs).unwrap();
        for target in ["bias", "load", "out_main"] {
            let target_id = compiled.model().var(target).unwrap();
            for impact in compiled.explain(&obs, target).unwrap() {
                let mut retracted = full.clone();
                retracted.retract(compiled.model().var(&impact.variable).unwrap());
                let expect = ve.posterior(&retracted, target_id).unwrap();
                for (got, want) in impact.posterior_without.iter().zip(&expect) {
                    assert!(
                        (got - want).abs() <= 1e-12,
                        "{target} without {}: {got} vs {want}",
                        impact.variable
                    );
                }
            }
        }
    }
}
