//! The diagnostic engine: evidence in, posteriors and ranked fail
//! candidates out (the paper's "diagnostic mode", with the deduction of
//! §IV-B automated).

use crate::builder::DiagnosticModel;
use crate::deduce::{Candidate, DeductionPolicy, HealthClass};
use crate::error::Result;
use crate::session::CompiledModel;
use abbd_bbn::{Evidence, PropagationWorkspace};
use abbd_dlog2bbn::NamedCase;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

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
    /// only [`CompiledModel::diagnose_in`] builds these).
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

/// A compiled diagnostic engine over a fitted model.
///
/// Compilation happens once; each [`DiagnosticEngine::diagnose`] call is a
/// junction-tree propagation plus the deduction walk.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), abbd_core::Error> {
/// use abbd_core::{CircuitModel, DiagnosticEngine, ModelBuilder, Observation};
/// use abbd_dlog2bbn::{FunctionalType, ModelSpec, StateBand, VariableSpec};
///
/// let spec = ModelSpec::new([
///     VariableSpec {
///         name: "bias".into(),
///         ftype: FunctionalType::Latent,
///         bands: vec![
///             StateBand::new("0", 0.0, 1.0, "non-operational"),
///             StateBand::new("1", 1.0, 1.4, "operational"),
///         ],
///         ckt_ref: None,
///     },
///     VariableSpec {
///         name: "out".into(),
///         ftype: FunctionalType::Observe,
///         bands: vec![
///             StateBand::new("0", 0.0, 4.5, "fail"),
///             StateBand::new("1", 4.5, 5.5, "pass"),
///         ],
///         ckt_ref: None,
///     },
/// ])?;
/// let mut model = CircuitModel::new(spec);
/// model.depends("bias", "out")?;
/// let mut expert = abbd_core::ExpertKnowledge::new(10.0);
/// expert.cpt("bias", [[0.1, 0.9]]);
/// expert.cpt("out", [[0.95, 0.05], [0.1, 0.9]]);
/// let fitted = ModelBuilder::new(model).with_expert(expert).build_expert_only()?;
///
/// let engine = DiagnosticEngine::new(fitted)?;
/// let mut seen = Observation::new();
/// seen.set("out", 0); // the output failed
/// let diagnosis = engine.diagnose(&seen)?;
/// assert_eq!(diagnosis.top_candidate(), Some("bias"));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DiagnosticEngine {
    compiled: Arc<CompiledModel>,
}

impl DiagnosticEngine {
    /// Compiles an engine with the default deduction policy.
    ///
    /// This is now a thin handle over the shareable
    /// [`CompiledModel`] — compile once here, then open any number of
    /// concurrent [`crate::DiagnosisSession`]s on
    /// [`DiagnosticEngine::compiled`]. Cloning the engine shares the
    /// compilation (two reference-count bumps, no recompilation).
    ///
    /// # Errors
    ///
    /// Propagates junction-tree compilation errors.
    pub fn new(model: DiagnosticModel) -> Result<Self> {
        Ok(DiagnosticEngine {
            compiled: CompiledModel::compile(model)?.shared(),
        })
    }

    /// The shareable compilation artifact behind the engine: hand clones
    /// of this [`Arc`] to concurrent [`crate::DiagnosisSession`]s.
    pub fn compiled(&self) -> &Arc<CompiledModel> {
        &self.compiled
    }

    /// Replaces the deduction policy.
    ///
    /// When the compilation is already shared with live sessions, they
    /// keep serving off the old policy; this engine re-shares a copy with
    /// the new one (the junction tree itself is never recompiled).
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::InvalidPolicy`] for malformed thresholds.
    pub fn with_policy(mut self, policy: DeductionPolicy) -> Result<Self> {
        policy.validate()?;
        Arc::make_mut(&mut self.compiled).set_policy(policy);
        Ok(self)
    }

    /// The fitted model behind the engine.
    pub fn model(&self) -> &DiagnosticModel {
        self.compiled.model()
    }

    /// The active deduction policy.
    pub fn policy(&self) -> &DeductionPolicy {
        self.compiled.policy()
    }

    /// The model's baseline ("Init. prob.%" in paper Table VII): state
    /// distributions with no evidence entered.
    ///
    /// # Errors
    ///
    /// Propagates propagation errors.
    pub fn baseline(&self) -> Result<Vec<(String, Vec<f64>)>> {
        self.compiled.baseline()
    }

    /// Converts an observation into network evidence.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::InvalidObservation`] for unknown variables or
    /// out-of-range states.
    pub fn evidence_from(&self, observation: &Observation) -> Result<Evidence> {
        self.compiled.evidence_from(observation)
    }

    /// Allocates a propagation workspace sized for this engine's compiled
    /// tree; feed it to [`DiagnosticEngine::diagnose_with`] to diagnose a
    /// stream of boards without per-board inference allocations.
    pub fn make_workspace(&self) -> PropagationWorkspace {
        self.compiled.make_workspace()
    }

    /// Diagnoses one observation: posterior update (Bayes theorem over the
    /// whole network) followed by the §IV-B candidate deduction.
    ///
    /// # Errors
    ///
    /// Returns observation-validation errors and
    /// [`abbd_bbn::Error::ImpossibleEvidence`] (wrapped) when the
    /// observation has zero probability under the model.
    pub fn diagnose(&self, observation: &Observation) -> Result<Diagnosis> {
        self.diagnose_with(&mut self.make_workspace(), observation)
    }

    /// [`DiagnosticEngine::diagnose`] with a caller-provided reusable
    /// workspace: the junction-tree propagation runs entirely inside
    /// preallocated buffers, which is what long-lived query loops over many
    /// boards use.
    ///
    /// # Errors
    ///
    /// Same as [`DiagnosticEngine::diagnose`].
    pub fn diagnose_with(
        &self,
        ws: &mut PropagationWorkspace,
        observation: &Observation,
    ) -> Result<Diagnosis> {
        let evidence = self.evidence_from(observation)?;
        self.compiled.diagnose_in(ws, observation, &evidence)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{ExpertKnowledge, ModelBuilder};
    use crate::error::Error;
    use crate::model::CircuitModel;
    use abbd_dlog2bbn::{FunctionalType, ModelSpec, StateBand, VariableSpec};

    /// pin (control) -> bias (latent) -> {out1, out2} (observed);
    /// second latent `load` -> out2 only.
    fn engine() -> DiagnosticEngine {
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
        DiagnosticEngine::new(dm).unwrap()
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
        let eng = engine();
        let baseline = eng.baseline().unwrap();
        let (name, dist) = &baseline[0];
        assert_eq!(name, "pin");
        assert!((dist[0] - 0.5).abs() < 1e-9);
        assert_eq!(baseline.len(), 5);
    }

    #[test]
    fn failing_outputs_implicate_bias() {
        let eng = engine();
        let mut obs = Observation::new();
        obs.set("pin", 1).set("out1", 0).set("out2", 0);
        let d = eng.diagnose(&obs).unwrap();
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
        let eng = engine();
        let mut obs = Observation::new();
        obs.set("pin", 1).set("out1", 1).set("out2", 0);
        let d = eng.diagnose(&obs).unwrap();
        assert_eq!(d.top_candidate(), Some("load"));
        assert!(d.fault_mass()["load"] > d.fault_mass()["bias"]);
    }

    #[test]
    fn healthy_device_yields_no_candidates() {
        let eng = engine();
        let mut obs = Observation::new();
        obs.set("pin", 1).set("out1", 1).set("out2", 1);
        let d = eng.diagnose(&obs).unwrap();
        assert!(d.candidates().is_empty(), "got {:?}", d.candidates());
    }

    #[test]
    fn rejects_bad_observations() {
        let eng = engine();
        let mut ghost = Observation::new();
        ghost.set("ghost", 0);
        assert!(matches!(
            eng.diagnose(&ghost),
            Err(Error::InvalidObservation { .. })
        ));
        let mut oob = Observation::new();
        oob.set("pin", 9);
        assert!(matches!(
            eng.diagnose(&oob),
            Err(Error::InvalidObservation { .. })
        ));
    }

    #[test]
    fn policy_is_replaceable() {
        let eng = engine();
        let strict = DeductionPolicy {
            faulty_threshold: 0.95,
            healthy_threshold: 0.95 - 1e-9,
            seed_with_best_ambiguous: false,
        };
        let eng = eng.with_policy(strict).unwrap();
        assert!((eng.policy().faulty_threshold - 0.95).abs() < 1e-12);
        let bad = DeductionPolicy {
            faulty_threshold: 0.2,
            healthy_threshold: 0.8,
            ..Default::default()
        };
        assert!(engine().with_policy(bad).is_err());
    }
}
