//! What diagnostic mode takes in and gives back: the observed block
//! states of one failing device, and the posteriors and ranked fail
//! candidates [`CompiledModel::diagnose`] derives from them.
//!
//! [`CompiledModel::diagnose`]: crate::CompiledModel::diagnose

use crate::deduce::{Candidate, HealthClass};
use abbd_dlog2bbn::NamedCase;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The observed states of controllable and observable blocks for one
/// failing device under one test configuration (a row of paper Table VI).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Observation {
    pairs: Vec<(String, usize)>,
    failing: Vec<String>,
}

impl Observation {
    /// An empty observation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `variable = state`, replacing any previous entry.
    pub fn set<N: Into<String>>(&mut self, variable: N, state: usize) -> &mut Self {
        let name = variable.into();
        if let Some(slot) = self.pairs.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = state;
        } else {
            self.pairs.push((name, state));
        }
        self
    }

    /// Marks `variable` as having failed its ATE limits. Failing
    /// observables become self-candidates when nothing upstream explains
    /// them.
    pub fn mark_failing<N: Into<String>>(&mut self, variable: N) -> &mut Self {
        let name = variable.into();
        if !self.failing.contains(&name) {
            self.failing.push(name);
        }
        self
    }

    /// The observed state of `variable`, if present.
    pub fn state_of(&self, variable: &str) -> Option<usize> {
        self.pairs
            .iter()
            .find(|(n, _)| n == variable)
            .map(|(_, s)| *s)
    }

    /// Iterates `(variable, state)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, usize)> + '_ {
        self.pairs.iter().map(|(n, s)| (n.as_str(), *s))
    }

    /// The variables marked as failing their measurements.
    pub fn failing(&self) -> &[String] {
        &self.failing
    }

    /// Number of observed variables.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// `true` when nothing is observed.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

impl From<&NamedCase> for Observation {
    fn from(case: &NamedCase) -> Self {
        Observation {
            pairs: case.assignment.clone(),
            failing: case.failing.clone(),
        }
    }
}

impl<N: Into<String>> FromIterator<(N, usize)> for Observation {
    fn from_iter<I: IntoIterator<Item = (N, usize)>>(iter: I) -> Self {
        let mut o = Observation::new();
        for (n, s) in iter {
            o.set(n, s);
        }
        o
    }
}

/// The outcome of diagnosing one observation.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnosis {
    observation: Observation,
    posteriors: Vec<(String, Vec<f64>)>,
    fault_mass: BTreeMap<String, f64>,
    classes: BTreeMap<String, HealthClass>,
    candidates: Vec<Candidate>,
    log_likelihood: f64,
}

impl Diagnosis {
    /// Assembles a diagnosis from the kernel's parts (crate-internal:
    /// only the `CompiledModel` diagnosis kernel builds these).
    pub(crate) fn from_parts(
        observation: Observation,
        posteriors: Vec<(String, Vec<f64>)>,
        fault_mass: BTreeMap<String, f64>,
        classes: BTreeMap<String, HealthClass>,
        candidates: Vec<Candidate>,
        log_likelihood: f64,
    ) -> Self {
        Diagnosis {
            observation,
            posteriors,
            fault_mass,
            classes,
            candidates,
            log_likelihood,
        }
    }

    /// The observation this diagnosis explains.
    pub fn observation(&self) -> &Observation {
        &self.observation
    }

    /// Posterior state distributions for every model variable, in spec
    /// order.
    pub fn posteriors(&self) -> &[(String, Vec<f64>)] {
        &self.posteriors
    }

    /// The posterior distribution of one variable.
    pub fn posterior_of(&self, variable: &str) -> Option<&[f64]> {
        self.posteriors
            .iter()
            .find(|(n, _)| n == variable)
            .map(|(_, d)| d.as_slice())
    }

    /// Posterior fault-state mass per latent variable.
    pub fn fault_mass(&self) -> &BTreeMap<String, f64> {
        &self.fault_mass
    }

    /// Health classification per latent variable.
    pub fn classes(&self) -> &BTreeMap<String, HealthClass> {
        &self.classes
    }

    /// Ranked fail candidates (most suspicious first).
    pub fn candidates(&self) -> &[Candidate] {
        &self.candidates
    }

    /// The top candidate's variable name, if any.
    pub fn top_candidate(&self) -> Option<&str> {
        self.candidates.first().map(|c| c.variable.as_str())
    }

    /// `ln P(observation)` under the fitted model.
    pub fn log_likelihood(&self) -> f64 {
        self.log_likelihood
    }
}
