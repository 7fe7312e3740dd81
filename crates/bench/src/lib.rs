//! # abbd-bench — evaluation harness helpers
//!
//! Shared infrastructure for the experiment binaries (one per paper table
//! and figure, see `src/bin/`) and the Criterion performance benches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use abbd_baselines::{DeviceSignature, Diagnoser, Ranking};
use abbd_core::{CompiledModel, Observation};
use abbd_designs::regulator::program::{suite_plans, SuitePlan, OBSERVED_VARS};
use std::collections::BTreeMap;

/// Adapts the block-level Bayesian diagnosis to the device-level
/// [`Diagnoser`] interface used by the baselines: each suite of the
/// signature with deviating outputs is diagnosed separately, and candidate
/// scores are accumulated per block.
#[derive(Debug)]
pub struct BbnDeviceDiagnoser<'a> {
    compiled: &'a CompiledModel,
    plans: Vec<SuitePlan>,
}

impl<'a> BbnDeviceDiagnoser<'a> {
    /// Wraps a compiled regulator model.
    pub fn new(compiled: &'a CompiledModel) -> Self {
        BbnDeviceDiagnoser {
            compiled,
            plans: suite_plans(),
        }
    }

    /// Rebuilds the per-suite observation from a device signature,
    /// marking outputs that deviate from the suite's healthy states.
    fn observation_for(
        &self,
        signature: &DeviceSignature,
        plan: &SuitePlan,
    ) -> Option<Observation> {
        let mut obs = Observation::new();
        let mut any = false;
        let mut failing = false;
        for ((suite, var), &state) in &signature.features {
            if suite == plan.name {
                obs.set(var.clone(), state);
                any = true;
                if let Some(oi) = OBSERVED_VARS.iter().position(|o| o == var) {
                    if state != plan.healthy_states[oi] {
                        obs.mark_failing(var.clone());
                        failing = true;
                    }
                }
            }
        }
        (any && failing).then_some(obs)
    }
}

impl Diagnoser for BbnDeviceDiagnoser<'_> {
    fn name(&self) -> &str {
        "bbn"
    }

    fn diagnose(&self, signature: &DeviceSignature) -> Ranking {
        let mut scores: BTreeMap<String, f64> = BTreeMap::new();
        for plan in &self.plans {
            let Some(obs) = self.observation_for(signature, plan) else {
                continue;
            };
            let Ok(diagnosis) = self.compiled.diagnose(&obs) else {
                continue;
            };
            for candidate in diagnosis.candidates() {
                let slot = scores.entry(candidate.variable.clone()).or_default();
                *slot = slot.max(candidate.fault_mass);
            }
        }
        let mut ranking: Ranking = scores.into_iter().collect();
        ranking.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite scores"));
        ranking
    }
}

/// Formats a probability as a Table VII percentage cell.
pub fn pct(p: f64) -> String {
    format!("{:.1}", p * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use abbd_baselines::group_by_device;
    use abbd_core::LearnAlgorithm;
    use abbd_designs::regulator;

    #[test]
    fn bbn_adapter_ranks_injected_fault_first_for_clear_cases() {
        let fitted = regulator::fit(24, 5, regulator::default_algorithm()).unwrap();
        let signatures = group_by_device(&fitted.cases);
        let adapter = BbnDeviceDiagnoser::new(&fitted.engine);
        assert_eq!(adapter.name(), "bbn");
        // Find a device whose truth is enb13 (an unambiguous signature).
        let clear = signatures
            .iter()
            .find(|s| s.truth_blocks == vec!["enb13".to_string()]);
        if let Some(sig) = clear {
            let ranking = adapter.diagnose(sig);
            assert!(!ranking.is_empty());
            assert_eq!(ranking[0].0, "enb13", "{ranking:?}");
        }
        let _ = LearnAlgorithm::default();
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.1234), "12.3");
        assert_eq!(pct(1.0), "100.0");
    }
}
