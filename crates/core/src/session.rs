//! The unified diagnosis session API: one shared compiled model, one
//! `Action` vocabulary for specification tests and physical probes.
//!
//! The paper's workflow is a single loop — observe ATE results, update
//! the block posteriors, pick the next measurement — and this module
//! serves it through two types:
//!
//! * [`CompiledModel`] — the immutable compilation artifact (fitted
//!   network, junction-tree schedule, deduction policy, latent/observable
//!   classification). Compiled **once**, wrapped in an [`Arc`], and served
//!   to any number of concurrent sessions; it is `Send + Sync` and
//!   cloning the handle never recompiles (pinned by the concurrency
//!   tests via [`abbd_bbn::jointree_compile_count`]).
//! * [`DiagnosisSession`] — one device under diagnosis. It owns only its
//!   evidence, reusable propagation workspaces and the cost ledger, and
//!   speaks a single vocabulary: [`Action`] (test *or* probe),
//!   [`Outcome`], [`Ranked`]. The candidate set may freely mix
//!   specification tests and step-two physical probes, so "measure
//!   `reg4` or probe `hcbg` next?" is *one* decision, not two phases.
//!
//! # Service boundary
//!
//! [`SessionRequest`] / [`SessionReport`] are serde mirrors of one
//! decision round — everything a stateless diagnosis service needs to
//! accept a device's observations and answer with posteriors, fail
//! candidates and the ranked next actions. [`CompiledModel::serve`] is
//! the one-call binding.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), abbd_core::Error> {
//! use abbd_core::{Action, DiagnosisSession, Outcome, StoppingPolicy};
//!
//! let compiled = abbd_core::fixtures::toy_compiled_model();
//! let mut session = DiagnosisSession::new(compiled, StoppingPolicy::default())?;
//! session.observe("pin", 1)?;
//! // Mixed candidates: two electrical tests and one physical probe.
//! session.set_actions([
//!     Action::test("out1"),
//!     Action::test("out2"),
//!     Action::probe("aux"),
//! ])?;
//! while let Some(next) = session.next_action()? {
//!     let outcome = match next.action.target() {
//!         "out1" | "out2" => Outcome::failing(0),
//!         _ => Outcome::passing(1),
//!     };
//!     session.apply(&next.action, outcome)?;
//! }
//! assert_eq!(session.diagnose()?.top_candidate(), Some("bias"));
//! # Ok(())
//! # }
//! ```

use crate::builder::DiagnosticModel;
use crate::deduce::{
    deduce_candidates, AncestryTable, Candidate, DeductionPolicy, HealthClass, Round,
};
use crate::diagnosis::{Diagnosis, Observation};
use crate::error::{Error, Result};
use crate::planner::{CostModel, LookaheadPlanner, Strategy};
use crate::voi::{self, VoiPlans, VoiScratch};
use abbd_bbn::{Evidence, JunctionTree, PropagationWorkspace, VarId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One measurement the diagnosis loop can take next: an electrical
/// specification test on an observable variable, or a step-two physical
/// probe (FIB/SEM) of an internal latent block.
///
/// The two kinds share one ranking and one execution path — the unified
/// candidate set is what lets the planner interleave a decisive probe
/// between two cheap tests when that is the better plan.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Action {
    /// Execute the specification test that measures this observable
    /// model variable.
    Test(String),
    /// Physically probe this internal (latent) block.
    Probe(String),
}

impl Action {
    /// A test action on an observable variable.
    pub fn test(target: impl Into<String>) -> Self {
        Action::Test(target.into())
    }

    /// A probe action on a latent block.
    pub fn probe(target: impl Into<String>) -> Self {
        Action::Probe(target.into())
    }

    /// The model variable the action measures.
    pub fn target(&self) -> &str {
        match self {
            Action::Test(name) | Action::Probe(name) => name,
        }
    }

    /// `true` for [`Action::Probe`].
    pub fn is_probe(&self) -> bool {
        matches!(self, Action::Probe(_))
    }
}

impl std::fmt::Display for Action {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Action::Test(name) => write!(f, "test {name}"),
            Action::Probe(name) => write!(f, "probe {name}"),
        }
    }
}

/// The answer a measurement returns for one executed action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Outcome {
    /// The observed (binned) state of the measured variable.
    pub state: usize,
    /// Whether the raw measurement failed its ATE limits — failing
    /// observables become self-candidates when nothing upstream explains
    /// them, exactly as in [`Observation::mark_failing`].
    pub failing: bool,
}

impl Outcome {
    /// A passing measurement that binned into `state`.
    pub fn passing(state: usize) -> Self {
        Outcome {
            state,
            failing: false,
        }
    }

    /// A limit-violating measurement that binned into `state`.
    pub fn failing(state: usize) -> Self {
        Outcome {
            state,
            failing: true,
        }
    }
}

/// An item of a ranked recommendation: the action plus the scores that
/// ranked it. This is the serde-friendly projection of a scoring pass —
/// [`ScoredAction`] is the in-place zero-allocation storage behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Ranked<A> {
    /// The recommended action.
    pub action: A,
    /// Its information value (nats): one-step expected gain under
    /// [`Strategy::Myopic`] / [`Strategy::CostWeighted`], the expectimax
    /// value under [`Strategy::Lookahead`].
    pub gain: f64,
    /// Its [`CostModel`] cost at decision time (tester-seconds).
    pub cost: f64,
    /// The strategy-adjusted selection score it was ranked by.
    pub score: f64,
}

// The serde shim's derive rejects generics, so `Ranked<A>` carries
// hand-written impls (the data model is four fields, nothing subtle).
impl<A: Serialize> Serialize for Ranked<A> {
    fn write_json(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(b"{\"action\":");
        self.action.write_json(out);
        out.extend_from_slice(b",\"gain\":");
        self.gain.write_json(out);
        out.extend_from_slice(b",\"cost\":");
        self.cost.write_json(out);
        out.extend_from_slice(b",\"score\":");
        self.score.write_json(out);
        out.push(b'}');
    }

    fn write_binary(&self, out: &mut Vec<u8>) {
        serde::binary::write_obj(4, out);
        serde::binary::write_key("action", out);
        self.action.write_binary(out);
        serde::binary::write_key("gain", out);
        self.gain.write_binary(out);
        serde::binary::write_key("cost", out);
        self.cost.write_binary(out);
        serde::binary::write_key("score", out);
        self.score.write_binary(out);
    }
}

impl<A: Deserialize> Deserialize for Ranked<A> {
    fn read_from<'de, R: serde::Reader<'de>>(
        reader: &mut R,
    ) -> std::result::Result<Self, serde::DeError> {
        reader.begin_object()?;
        let mut action = None;
        let mut gain = None;
        let mut cost = None;
        let mut score = None;
        while let Some(key) = reader.object_key()? {
            match &*key {
                "action" if action.is_none() => action = Some(A::read_from(reader)?),
                "gain" if gain.is_none() => gain = Some(f64::read_from(reader)?),
                "cost" if cost.is_none() => cost = Some(f64::read_from(reader)?),
                "score" if score.is_none() => score = Some(f64::read_from(reader)?),
                _ => reader.skip_value()?,
            }
        }
        let missing = |name| serde::DeError::missing(name, "Ranked");
        Ok(Ranked {
            action: action.ok_or_else(|| missing("action"))?,
            gain: gain.ok_or_else(|| missing("gain"))?,
            cost: cost.ok_or_else(|| missing("cost"))?,
            score: score.ok_or_else(|| missing("score"))?,
        })
    }
}

/// One unapplied candidate action with its latest scores — the
/// persistent, allocation-free storage [`DiagnosisSession::rank_actions`]
/// sorts in place. Project into the serde vocabulary with
/// [`ScoredAction::to_ranked`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredAction {
    action: Action,
    var: VarId,
    probe: bool,
    gain: f64,
    cost: f64,
    score: f64,
}

impl ScoredAction {
    /// The candidate action.
    pub fn action(&self) -> &Action {
        &self.action
    }

    /// The candidate variable's name (the action's target).
    pub fn name(&self) -> &str {
        self.action.target()
    }

    /// `true` when the candidate is a step-two physical probe of a
    /// latent block, priced at [`CostModel`]'s probe cost rather than an
    /// ordinary specification test.
    pub fn is_probe(&self) -> bool {
        self.probe
    }

    /// The candidate's information value (nats) from the latest scoring
    /// pass: the one-step expected information gain under
    /// [`Strategy::Myopic`] / [`Strategy::CostWeighted`], the expectimax
    /// value `V_depth` under [`Strategy::Lookahead`].
    pub fn expected_information_gain(&self) -> f64 {
        self.gain
    }

    /// The [`CostModel`] cost of taking this measurement now
    /// (tester-seconds).
    pub fn cost(&self) -> f64 {
        self.cost
    }

    /// The strategy-adjusted selection score the candidates are ranked
    /// by: the raw value for [`Strategy::Myopic`], value-per-cost
    /// otherwise.
    pub fn score(&self) -> f64 {
        self.score
    }

    /// Projects into the serde-friendly [`Ranked`] vocabulary (clones the
    /// action name — use outside the zero-allocation scoring loop).
    pub fn to_ranked(&self) -> Ranked<Action> {
        Ranked {
            action: self.action.clone(),
            gain: self.gain,
            cost: self.cost,
            score: self.score,
        }
    }
}

/// Executes chosen actions against a real or simulated bench: the
/// adapter a [`DiagnosisSession`] closed loop drives. On an ATE this runs
/// one `abbd_ate::TestDef` out of program order for [`Action::Test`] and
/// reads an internal net for [`Action::Probe`]; in tests it is usually a
/// closure answering from a table.
///
/// Any `FnMut(&Action) -> Result<Outcome>` closure is an executor.
pub trait ActionExecutor {
    /// Executes one action, returning the binned state and limit verdict.
    ///
    /// # Errors
    ///
    /// Conventionally [`Error::Oracle`] when the bench cannot perform
    /// the measurement.
    fn execute(&mut self, action: &Action) -> Result<Outcome>;
}

impl<F> ActionExecutor for F
where
    F: FnMut(&Action) -> Result<Outcome>,
{
    fn execute(&mut self, action: &Action) -> Result<Outcome> {
        self(action)
    }
}

/// When the closed loop stops.
///
/// Thresholds compose: the loop keeps measuring while *none* of the stop
/// conditions hold, so a tight `fault_mass_threshold` with a loose
/// `min_gain` behaves like pure isolation-driven testing, while
/// `max_steps` bounds worst-case tester time regardless.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StoppingPolicy {
    /// Stop once the top fail candidate's fault mass reaches this level
    /// (the block is considered isolated). Must lie in `(0, 1]`; `1.0`
    /// effectively disables isolation stopping (posterior mass on a
    /// discrete fault never quite reaches certainty), which is how the
    /// equivalence tests force the loop to exhaust every measurement.
    pub fault_mass_threshold: f64,
    /// Hard ceiling on applied measurements (tester-time budget),
    /// counted over the session's whole ledger.
    pub max_steps: usize,
    /// Stop when the best candidate's expected information gain (nats)
    /// drops below this value — measuring further would cost tester time
    /// without telling us anything. `0.0` disables the check (gains are
    /// clamped non-negative).
    pub min_gain: f64,
}

impl StoppingPolicy {
    /// Checks the thresholds are mutually sane.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidStoppingPolicy`] when the fault-mass
    /// threshold leaves `(0, 1]` or `min_gain` is negative/non-finite.
    pub fn validate(&self) -> Result<()> {
        if !(self.fault_mass_threshold > 0.0 && self.fault_mass_threshold <= 1.0) {
            return Err(Error::InvalidStoppingPolicy(format!(
                "fault_mass_threshold {} outside (0, 1]",
                self.fault_mass_threshold
            )));
        }
        if !self.min_gain.is_finite() || self.min_gain < 0.0 {
            return Err(Error::InvalidStoppingPolicy(format!(
                "min_gain {} must be finite and non-negative",
                self.min_gain
            )));
        }
        Ok(())
    }

    /// A policy that never stops early: threshold `1.0`, no gain floor, a
    /// practically unbounded step budget. [`DiagnosisSession::run`] under
    /// this policy applies every candidate measurement, which makes the
    /// final diagnosis equal the one-shot [`CompiledModel::diagnose`]
    /// over the full observation (the equivalence the property tests pin).
    pub fn exhaustive() -> Self {
        StoppingPolicy {
            fault_mass_threshold: 1.0,
            max_steps: usize::MAX,
            min_gain: 0.0,
        }
    }
}

impl Default for StoppingPolicy {
    /// Isolation at 90% fault mass, at most 32 measurements, and a 1 mnat
    /// gain floor (below that the remaining tests are spec filler, not
    /// diagnosis).
    fn default() -> Self {
        StoppingPolicy {
            fault_mass_threshold: 0.9,
            max_steps: 32,
            min_gain: 1e-3,
        }
    }
}

/// Why a closed loop ([`DiagnosisSession::run`] or the stepping
/// [`DiagnosisSession::next_action`]) ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StopReason {
    /// The top fail candidate crossed the fault-mass threshold.
    Isolated,
    /// The measurement budget ran out.
    MaxSteps,
    /// The best remaining measurement's expected gain fell below
    /// [`StoppingPolicy::min_gain`].
    GainBelowThreshold,
    /// Every candidate measurement has been applied.
    Exhausted,
}

/// One applied measurement in a session's ledger, in execution order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppliedMeasurement {
    /// The measured model variable.
    pub variable: String,
    /// The expected information gain that made the loop choose it (the
    /// strategy's value for lookahead runs — see
    /// [`ScoredAction::expected_information_gain`]). `None` for scripted
    /// (fixed-order) or manually applied measurements, which never score.
    pub expected_information_gain: Option<f64>,
    /// The [`CostModel`] cost charged for the measurement at selection
    /// time. `None` for scripted or manually applied measurements.
    pub cost: Option<f64>,
    /// The state the measurement reported.
    pub state: usize,
    /// Whether the measurement was flagged as limit-failing.
    pub failing: bool,
}

/// The result of a closed-loop run: the final diagnosis, the measurements
/// taken (in order) and why the loop stopped.
#[derive(Debug, Clone, PartialEq)]
pub struct SequentialOutcome {
    /// The diagnosis over everything observed when the loop stopped.
    pub diagnosis: Diagnosis,
    /// Applied measurements, in execution order.
    pub applied: Vec<AppliedMeasurement>,
    /// Why the loop stopped.
    pub stop: StopReason,
}

impl SequentialOutcome {
    /// Number of measurements the loop spent.
    pub fn tests_used(&self) -> usize {
        self.applied.len()
    }

    /// Total [`CostModel`] tester-seconds the loop's measurements cost
    /// (scripted measurements, which carry no cost, contribute zero).
    pub fn tester_seconds(&self) -> f64 {
        self.applied.iter().filter_map(|a| a.cost).sum()
    }
}

/// One candidate's entry in a traced decision's ranking.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TracedScore {
    /// The candidate variable.
    pub variable: String,
    /// Its information value (see
    /// [`ScoredAction::expected_information_gain`]).
    pub gain: f64,
    /// Its [`CostModel`] cost at decision time.
    pub cost: f64,
    /// Its strategy-adjusted selection score.
    pub score: f64,
}

/// One decision of a traced closed-loop run: the full candidate ranking,
/// what was chosen, what the measurement answered, and the posterior
/// fault mass per latent block after absorbing the answer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TracedDecision {
    /// Every unapplied candidate with its scores, best first.
    pub scores: Vec<TracedScore>,
    /// The chosen (best-scoring) candidate.
    pub chosen: String,
    /// The state the measurement reported.
    pub state: usize,
    /// Whether the measurement was flagged as limit-failing.
    pub failing: bool,
    /// `(latent, posterior fault mass)` after absorbing the answer, in
    /// model order.
    pub fault_mass: Vec<(String, f64)>,
}

/// The complete decision record of one traced closed loop — the
/// executable evidence the golden-trace conformance corpus replays. See
/// [`DiagnosisSession::run_traced`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionTrace {
    /// The strategy the run selected candidates with.
    pub strategy: Strategy,
    /// Every decision, in execution order.
    pub steps: Vec<TracedDecision>,
    /// Why the loop stopped.
    pub stop: StopReason,
    /// `(latent, posterior fault mass)` at the final diagnosis.
    pub final_fault_mass: Vec<(String, f64)>,
    /// The final diagnosis's top fail candidate, if any.
    pub top_candidate: Option<String>,
}

/// Difference below which two selection scores are a tie: absolute for
/// scores up to 1, relative above. A gain is a difference of entropy
/// sums of order 1, so its rounding is about `1e-15` in absolute terms
/// however small the gain; real differences between candidates are many
/// orders of magnitude above the tie width.
const SCORE_TIE: f64 = 1e-12;

/// Sorts candidates best-first by score, then orders each run of tied
/// scores (within [`SCORE_TIE`] of the run's best) by model position, so
/// the ranking depends on the scores alone: not on rounding, and not on
/// the order earlier observations left the candidate list in.
fn rank_by_score(candidates: &mut [ScoredAction]) {
    candidates.sort_unstable_by(|a, b| b.score.total_cmp(&a.score));
    let tied = |best: f64, score: f64| {
        (best - score).abs() <= SCORE_TIE * best.abs().max(score.abs()).max(1.0)
    };
    let mut start = 0;
    while start < candidates.len() {
        let best = candidates[start].score;
        let end = start
            + 1
            + candidates[start + 1..]
                .iter()
                .take_while(|c| tied(best, c.score))
                .count();
        candidates[start..end].sort_unstable_by_key(|c| c.var.index());
        start = end;
    }
}

/// The diagnosis's per-latent fault mass as ordered entries (the
/// `BTreeMap` iterates in name order, which keeps traces deterministic).
pub(crate) fn fault_mass_entries(diagnosis: &Diagnosis) -> Vec<(String, f64)> {
    diagnosis
        .fault_mass()
        .iter()
        .map(|(name, &mass)| (name.clone(), mass))
        .collect()
}

/// The immutable compilation artifact behind every diagnosis: the fitted
/// model, its compiled junction tree, the deduction policy, and the
/// latent/observable classification — everything that is *per model*
/// rather than *per device*.
///
/// Compile once with [`CompiledModel::compile`], share with
/// [`CompiledModel::shared`], and open any number of concurrent
/// [`DiagnosisSession`]s on the [`Arc`]. The type is `Send + Sync` and
/// every session propagates through the same compiled schedule, so the
/// junction-tree compile count stays at one no matter how many threads
/// serve from it (the concurrency tests pin exactly that).
#[derive(Debug, Clone)]
pub struct CompiledModel {
    model: DiagnosticModel,
    jt: JunctionTree,
    policy: DeductionPolicy,
    /// Latent blocks, in spec order: the probe targets and the entropy
    /// scoring set.
    latents: Vec<(String, VarId)>,
    /// Observable variables, in spec order: the default test candidates.
    observables: Vec<(String, VarId)>,
    /// Every spec variable's network id, in spec order: the order a
    /// diagnosis lists posteriors in.
    spec_vars: Vec<VarId>,
    /// The spec position of every network variable, indexed by
    /// [`VarId::index`]: the inverse of `spec_vars`.
    spec_index: Vec<usize>,
    /// Deduction's per-variable fault states, healthy masks and interned
    /// latent-ancestor sets.
    ancestry: AncestryTable,
    /// Every variable's absorption plan towards the latents: what VOI
    /// updates when it scores a hypothetical on that variable.
    voi_plans: VoiPlans,
}

impl CompiledModel {
    /// Compiles a fitted model into the shareable serving artifact with
    /// the default deduction policy. This is the one expensive structural
    /// step (junction-tree triangulation and schedule compilation);
    /// everything downstream reuses it.
    ///
    /// # Errors
    ///
    /// Propagates junction-tree compilation and variable-lookup errors.
    pub fn compile(model: DiagnosticModel) -> Result<Self> {
        let jt = JunctionTree::compile(model.network()).map_err(Error::Bbn)?;
        let latents: Vec<(String, VarId)> = model
            .circuit_model()
            .latents()
            .iter()
            .map(|name| Ok((name.to_string(), model.var(name)?)))
            .collect::<Result<_>>()?;
        let observables: Vec<(String, VarId)> = model
            .circuit_model()
            .observables()
            .iter()
            .map(|name| Ok((name.to_string(), model.var(name)?)))
            .collect::<Result<_>>()?;
        let spec_vars: Vec<VarId> = model
            .circuit_model()
            .spec()
            .variables()
            .iter()
            .map(|v| model.var(&v.name))
            .collect::<Result<_>>()?;
        let mut spec_index = vec![0; model.network().var_count()];
        for (i, id) in spec_vars.iter().enumerate() {
            spec_index[id.index()] = i;
        }
        let ancestry = AncestryTable::new(&model)?;
        let latent_ids: Vec<VarId> = latents.iter().map(|&(_, id)| id).collect();
        let voi_plans = VoiPlans::new(&jt, &latent_ids)?;
        Ok(CompiledModel {
            model,
            jt,
            policy: DeductionPolicy::default(),
            latents,
            observables,
            spec_vars,
            spec_index,
            ancestry,
            voi_plans,
        })
    }

    /// Replaces the deduction policy (builder style, before sharing).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidPolicy`] for malformed thresholds.
    pub fn with_policy(mut self, policy: DeductionPolicy) -> Result<Self> {
        policy.validate()?;
        self.policy = policy;
        Ok(self)
    }

    /// Wraps the artifact for concurrent sharing.
    pub fn shared(self) -> Arc<Self> {
        Arc::new(self)
    }

    /// The fitted model behind the compilation.
    pub fn model(&self) -> &DiagnosticModel {
        &self.model
    }

    /// The active deduction policy.
    pub fn policy(&self) -> &DeductionPolicy {
        &self.policy
    }

    /// The compiled junction tree every session propagates through.
    pub(crate) fn jt(&self) -> &JunctionTree {
        &self.jt
    }

    /// The latent blocks `(name, id)`, in spec order.
    pub(crate) fn latent_vars(&self) -> &[(String, VarId)] {
        &self.latents
    }

    /// The observable variables `(name, id)`, in spec order.
    pub(crate) fn observable_vars(&self) -> &[(String, VarId)] {
        &self.observables
    }

    /// The spec position of `var`: the index of its entry in
    /// [`Diagnosis::posteriors`].
    pub(crate) fn spec_index(&self, var: VarId) -> usize {
        self.spec_index[var.index()]
    }

    /// Deduction's precomputed per-variable table.
    pub(crate) fn ancestry(&self) -> &AncestryTable {
        &self.ancestry
    }

    /// The absorption plan VOI scores a hypothetical on `var` along.
    pub(crate) fn voi_plan(&self, var: VarId) -> &[[u32; 3]] {
        self.voi_plans.plan(var)
    }

    /// The latent block names, in spec order (the valid probe targets).
    pub fn latent_names(&self) -> impl Iterator<Item = &str> + '_ {
        self.latents.iter().map(|(n, _)| n.as_str())
    }

    /// The observable variable names, in spec order (the valid test
    /// targets and the default candidate set of a fresh session).
    pub fn observable_names(&self) -> impl Iterator<Item = &str> + '_ {
        self.observables.iter().map(|(n, _)| n.as_str())
    }

    /// Allocates a propagation workspace sized for the compiled tree.
    pub fn make_workspace(&self) -> PropagationWorkspace {
        self.jt.make_workspace()
    }

    /// Converts an observation into network evidence.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidObservation`] for unknown variables or
    /// out-of-range states.
    pub fn evidence_from(&self, observation: &Observation) -> Result<Evidence> {
        let mut evidence = Evidence::new();
        for (name, state) in observation.iter() {
            let var = self
                .model
                .var(name)
                .map_err(|_| Error::InvalidObservation {
                    variable: name.into(),
                    reason: "not a model variable".into(),
                })?;
            let card = self.model.network().card(var);
            if state >= card {
                return Err(Error::InvalidObservation {
                    variable: name.into(),
                    reason: format!("state {state} out of range {card}"),
                });
            }
            evidence.observe(var, state);
        }
        Ok(evidence)
    }

    /// The model's baseline ("Init. prob.%" in paper Table VII): state
    /// distributions with no evidence entered.
    ///
    /// # Errors
    ///
    /// Propagates propagation errors.
    pub fn baseline(&self) -> Result<Vec<(String, Vec<f64>)>> {
        let mut ws = self.make_workspace();
        let cal = self
            .jt
            .propagate_in(&mut ws, &Evidence::new())
            .map_err(Error::Bbn)?;
        let variables = self.model.circuit_model().spec().variables();
        let mut out = Vec::with_capacity(self.spec_vars.len());
        for (v, &id) in variables.iter().zip(&self.spec_vars) {
            out.push((v.name.clone(), cal.posterior(id).map_err(Error::Bbn)?));
        }
        Ok(out)
    }

    /// The diagnosis kernel: posterior update (Bayes theorem over the
    /// whole network) followed by the §IV-B candidate deduction under
    /// `policy`, entirely inside the caller's reusable workspace.
    /// `evidence` must be the caller's derivation of `observation` (kept
    /// in lockstep), so the per-decision loop never pays for rebuilding
    /// the evidence map. Pass [`CompiledModel::policy`] for the compiled
    /// default; the policy only affects the *deduction* layer
    /// (classification thresholds and the candidate walk), so a
    /// per-session override never recompiles or re-propagates anything
    /// extra.
    ///
    /// Deduction's collect-only ancestor queries reuse `ws`, which is
    /// left uncalibrated: re-propagate before reading it.
    ///
    /// # Errors
    ///
    /// Propagates propagation errors, including
    /// [`abbd_bbn::Error::ImpossibleEvidence`] (wrapped) when the
    /// observation has zero probability under the model.
    pub fn diagnose_with_policy_in(
        &self,
        ws: &mut PropagationWorkspace,
        observation: &Observation,
        evidence: &Evidence,
        policy: &DeductionPolicy,
    ) -> Result<Diagnosis> {
        self.diagnose_kernel(ws, None, observation, evidence, policy)
    }

    /// The diagnosis kernel behind [`CompiledModel::diagnose_with_policy_in`]:
    /// calibrates `ws` on `evidence`, then runs deduction's queries in
    /// `query_ws` when given (leaving `ws` calibrated for the caller to
    /// read) or in `ws` itself.
    pub(crate) fn diagnose_kernel(
        &self,
        ws: &mut PropagationWorkspace,
        query_ws: Option<&mut PropagationWorkspace>,
        observation: &Observation,
        evidence: &Evidence,
        policy: &DeductionPolicy,
    ) -> Result<Diagnosis> {
        let cal = self.jt.propagate_in(ws, evidence).map_err(Error::Bbn)?;
        let log_evidence = cal.log_likelihood();

        let circuit_model = self.model.circuit_model();
        let mut posteriors = Vec::with_capacity(self.spec_vars.len());
        for (v, &id) in circuit_model.spec().variables().iter().zip(&self.spec_vars) {
            posteriors.push((v.name.clone(), cal.posterior(id).map_err(Error::Bbn)?));
        }

        let mut fault_mass: BTreeMap<String, f64> = BTreeMap::new();
        for (name, id) in &self.latents {
            let dist = &posteriors[self.spec_index(*id)].1;
            let faults = circuit_model.fault_states(name);
            fault_mass.insert(
                name.clone(),
                faults.iter().filter_map(|&s| dist.get(s)).sum(),
            );
        }
        let classes: BTreeMap<String, HealthClass> = fault_mass
            .iter()
            .map(|(n, &m)| (n.clone(), policy.classify(m)))
            .collect();
        let failing: Vec<VarId> = observation
            .failing()
            .iter()
            .filter_map(|name| {
                self.observables
                    .iter()
                    .find(|(observable, _)| observable == name)
                    .map(|&(_, id)| id)
            })
            .collect();
        let round = Round {
            compiled: self,
            evidence,
            posteriors: &posteriors,
            log_evidence,
        };
        let query_ws = query_ws.unwrap_or(ws);
        let candidates =
            deduce_candidates(&round, query_ws, &fault_mass, &classes, &failing, policy)?;

        Ok(Diagnosis::from_parts(
            observation.clone(),
            posteriors,
            fault_mass,
            classes,
            candidates,
            log_evidence,
        ))
    }

    /// Diagnoses one observation under the compiled policy: the paper's
    /// diagnostic mode in one call. Builds the evidence and a fresh
    /// workspace per call; long-lived loops should hold a
    /// [`DiagnosisSession`] or reuse a workspace through
    /// [`CompiledModel::diagnose_with_policy_in`] instead.
    ///
    /// # Examples
    ///
    /// ```
    /// # fn main() -> Result<(), abbd_core::Error> {
    /// use abbd_core::{CircuitModel, CompiledModel, ModelBuilder, Observation};
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
    /// let compiled = CompiledModel::compile(fitted)?;
    /// let mut seen = Observation::new();
    /// seen.set("out", 0); // the output failed
    /// let diagnosis = compiled.diagnose(&seen)?;
    /// assert_eq!(diagnosis.top_candidate(), Some("bias"));
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Same as [`CompiledModel::diagnose_with_policy_in`], plus
    /// observation validation errors.
    pub fn diagnose(&self, observation: &Observation) -> Result<Diagnosis> {
        let evidence = self.evidence_from(observation)?;
        self.diagnose_with_policy_in(
            &mut self.make_workspace(),
            observation,
            &evidence,
            &self.policy,
        )
    }

    /// Serves one stateless decision round: seed a fresh session from the
    /// request, diagnose, rank the candidate actions, and assemble the
    /// serde report — the service boundary a diagnosis server exposes
    /// per device per round.
    ///
    /// # Errors
    ///
    /// Propagates observation/action validation and propagation errors.
    pub fn serve(self: &Arc<Self>, request: &SessionRequest) -> Result<SessionReport> {
        let mut session = DiagnosisSession::new(Arc::clone(self), request.policy)?;
        session.serve_round(request)
    }

    /// The shared handle itself. Exists only so the diagnosis-floor
    /// benchmark's `Arc::clone(fitted.engine.compiled())` keeps compiling
    /// now that `engine` is an `Arc<CompiledModel>`; it goes away once the
    /// benchmark rebuilds its fit from public calls (ROADMAP item 2).
    /// Nothing else should call it.
    #[doc(hidden)]
    pub fn compiled(self: &Arc<Self>) -> &Arc<Self> {
        self
    }
}

/// One decision round's input at the service boundary: the device's
/// observations so far plus how to rank what to measure next. The serde
/// mirror of seeding a [`DiagnosisSession`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionRequest {
    /// Everything observed on the device so far (controls and
    /// measurements, with failing marks).
    pub observation: Observation,
    /// The candidate actions to rank. Empty = every observable as a
    /// test candidate (the fresh-session default).
    pub actions: Vec<Action>,
    /// How candidates are ranked.
    pub strategy: Strategy,
    /// The stopping thresholds to evaluate against.
    pub policy: StoppingPolicy,
    /// The measurement prices.
    pub cost: CostModel,
    /// Per-request [`DeductionPolicy`] override; `None` (the wire
    /// default — absent fields deserialize as `None`) diagnoses under the
    /// compiled model's policy. Overriding it never recompiles: the
    /// policy only enters at the deduction layer.
    #[serde(default)]
    pub deduction: Option<DeductionPolicy>,
    /// Marks the request as an **incremental** (delta) round: its
    /// observation carries only the measurements *new since the last
    /// round*, not the device's cumulative evidence. A delta asserts
    /// consistency with the session's history — re-sending an
    /// already-stored variable with the *same* state is an idempotent
    /// no-op, but a contradicting state is refused whole with
    /// [`Error::InconsistentDelta`] (a full round would silently
    /// overwrite instead). On a fresh session there is no history, so a
    /// delta behaves exactly like a full round. Wire default: `false`.
    #[serde(default)]
    pub delta: bool,
    /// Observed wall cost of the measurements taken since the last round,
    /// as `(variable, tester_seconds)` pairs. Purely telemetry: the values
    /// never influence this round's answer, they feed the fleet-learning
    /// aggregate ([`crate::fleet`]) so a background refit can re-price the
    /// [`CostModel`] from production testers. Wire default: empty.
    #[serde(default)]
    pub timings: Vec<(String, f64)>,
}

impl SessionRequest {
    /// A request over `observation` with default candidates, strategy,
    /// policy and unit costs.
    pub fn new(observation: Observation) -> Self {
        SessionRequest {
            observation,
            actions: Vec::new(),
            strategy: Strategy::default(),
            policy: StoppingPolicy::default(),
            cost: CostModel::unit(),
            deduction: None,
            delta: false,
            timings: Vec::new(),
        }
    }

    /// The same request flagged as an incremental (delta) round: the
    /// observation is interpreted as *new since the last round* and must
    /// not contradict the session's stored evidence.
    #[must_use]
    pub fn into_delta(mut self) -> Self {
        self.delta = true;
        self
    }
}

/// One decision round's output at the service boundary: the posterior
/// picture plus the ranked next actions. The serde mirror of
/// [`DiagnosisSession::diagnose`] + [`DiagnosisSession::rank_actions`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionReport {
    /// Posterior state distributions for every model variable, in spec
    /// order.
    pub posteriors: Vec<(String, Vec<f64>)>,
    /// `(latent, posterior fault mass)`, in name order.
    pub fault_mass: Vec<(String, f64)>,
    /// Ranked fail candidates (most suspicious first).
    pub candidates: Vec<Candidate>,
    /// The top fail candidate, if any.
    pub top_candidate: Option<String>,
    /// `ln P(observation)` under the fitted model.
    pub log_likelihood: f64,
    /// The candidate actions ranked best-first under the request's
    /// strategy and cost model.
    pub ranked: Vec<Ranked<Action>>,
    /// Why the loop should stop, if any stopping condition already
    /// holds; `None` means the top ranked action is worth taking.
    pub stop: Option<StopReason>,
}

/// One device under diagnosis: the per-query state served off a shared
/// [`CompiledModel`].
///
/// A session owns its accumulated evidence, two reusable
/// [`PropagationWorkspace`]s (current beliefs, hypothetical queries),
/// fixed scoring buffers and the cost ledger — nothing else. Opening a
/// session never compiles anything; after the first scoring pass a
/// decision performs **zero junction-tree compilations and zero heap
/// allocations** in the scoring loop (asserted by `tests/zero_alloc.rs`),
/// so thousands of concurrent sessions can serve off one compilation.
///
/// Drive it three ways:
///
/// * **closed loop** — [`DiagnosisSession::run`] with an
///   [`ActionExecutor`] (see [`DiagnosisSession::run_traced`] for the
///   golden-trace capture, [`DiagnosisSession::run_scripted`] for the
///   fixed-order baseline);
/// * **stepping** — alternate [`DiagnosisSession::next_action`] /
///   [`DiagnosisSession::apply`] and stop when `next_action` returns
///   `None` ([`DiagnosisSession::stop_reason`] says why);
/// * **one-shot** — seed with [`DiagnosisSession::observe_all`], read
///   [`DiagnosisSession::diagnose`] / [`DiagnosisSession::rank_actions`].
#[derive(Debug)]
pub struct DiagnosisSession {
    compiled: Arc<CompiledModel>,
    policy: StoppingPolicy,
    /// Workspace for current-belief propagations (base pass + diagnosis).
    base_ws: PropagationWorkspace,
    /// `true` while `base_ws` still holds the calibration on `evidence`
    /// that the last [`DiagnosisSession::diagnose`] left, so ranking can
    /// read it instead of propagating again. Every evidence change clears
    /// it.
    base_calibrated: bool,
    /// Workspace + distribution buffer for hypothetical VOI queries and
    /// deduction's exoneration queries.
    scratch: VoiScratch,
    /// Accumulated evidence, kept in lockstep with `observation`.
    evidence: Evidence,
    /// Accumulated observation (drives the kernel and failing marks).
    observation: Observation,
    /// The latent blocks whose entropy the VOI kernel scores.
    latents: Vec<VarId>,
    /// Reused per-latent entropy buffer for the base pass.
    latent_entropy: Vec<f64>,
    /// Unapplied candidate actions with their latest scores.
    candidates: Vec<ScoredAction>,
    /// How candidates are ranked (myopic / cost-weighted / lookahead).
    strategy: Strategy,
    /// Prices for tests, suite switches and probes.
    cost_model: CostModel,
    /// The expectimax evaluator, present iff `strategy` is lookahead.
    planner: Option<LookaheadPlanner>,
    /// Reused candidate-id buffer for planner calls.
    var_buf: Vec<VarId>,
    /// Per-session deduction-policy override; `None` = the compiled
    /// model's policy.
    deduction: Option<DeductionPolicy>,
    /// The cost ledger: every measurement applied to this session.
    applied: Vec<AppliedMeasurement>,
    /// Why the stepping loop last declined to recommend, if it did.
    stop: Option<StopReason>,
    /// The recommendation [`DiagnosisSession::next_action`] last made:
    /// `(target, gain, cost)`, consumed by the matching `apply`.
    pending: Option<(String, f64, f64)>,
    /// The decision trace under capture, if tracing is enabled.
    trace: Option<DecisionTrace>,
    /// The diagnosis computed by the last `next_action` stop evaluation.
    last_diagnosis: Option<Diagnosis>,
}

impl DiagnosisSession {
    /// Opens a session on a shared compiled model with every observable
    /// variable as a test candidate.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidStoppingPolicy`] for malformed policies.
    pub fn new(compiled: Arc<CompiledModel>, policy: StoppingPolicy) -> Result<Self> {
        policy.validate()?;
        let latents: Vec<VarId> = compiled.latent_vars().iter().map(|&(_, id)| id).collect();
        let candidates: Vec<ScoredAction> = compiled
            .observable_vars()
            .iter()
            .map(|(name, var)| ScoredAction {
                action: Action::Test(name.clone()),
                var: *var,
                probe: false,
                gain: 0.0,
                cost: 0.0,
                score: 0.0,
            })
            .collect();
        let latent_capacity = latents.len();
        Ok(DiagnosisSession {
            base_ws: compiled.make_workspace(),
            base_calibrated: false,
            scratch: VoiScratch::new(&compiled),
            evidence: Evidence::new(),
            observation: Observation::new(),
            latents,
            latent_entropy: Vec::with_capacity(latent_capacity),
            candidates,
            strategy: Strategy::Myopic,
            cost_model: CostModel::unit(),
            planner: None,
            var_buf: Vec::new(),
            deduction: None,
            applied: Vec::new(),
            stop: None,
            pending: None,
            trace: None,
            last_diagnosis: None,
            compiled,
            policy,
        })
    }

    /// The shared compilation this session serves off.
    pub fn compiled(&self) -> &Arc<CompiledModel> {
        &self.compiled
    }

    /// Replaces the candidate-selection strategy. Switching to
    /// [`Strategy::Lookahead`] (re)builds the expectimax planner with all
    /// buffers sized for the requested depth, so the decision loop stays
    /// allocation-free afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidStrategy`] for malformed strategies.
    pub fn set_strategy(&mut self, strategy: Strategy) -> Result<()> {
        strategy.validate()?;
        match strategy {
            Strategy::Lookahead { depth } => {
                if self.planner.as_ref().map(LookaheadPlanner::depth) != Some(depth) {
                    self.planner = Some(LookaheadPlanner::new(&self.compiled, depth)?);
                }
            }
            _ => self.planner = None,
        }
        self.strategy = strategy;
        Ok(())
    }

    /// The active candidate-selection strategy.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Replaces the measurement cost model. The loop calls
    /// [`CostModel::note_measured`] on it after every applied
    /// measurement, keeping the current-suite tracking in lockstep with
    /// the bench.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidCostModel`] for malformed models.
    pub fn set_cost_model(&mut self, cost_model: CostModel) -> Result<()> {
        cost_model.validate()?;
        self.cost_model = cost_model;
        Ok(())
    }

    /// The active measurement cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost_model
    }

    /// Overrides the deduction policy for *this session only* (`None`
    /// restores the compiled model's policy). Two sessions on one shared
    /// [`CompiledModel`] can classify and deduce under different
    /// thresholds without recompiling anything — the policy only enters
    /// at the deduction layer, downstream of the shared junction tree.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidPolicy`] for malformed thresholds.
    pub fn set_deduction_policy(&mut self, policy: Option<DeductionPolicy>) -> Result<()> {
        if let Some(policy) = &policy {
            policy.validate()?;
        }
        self.deduction = policy;
        Ok(())
    }

    /// The deduction policy this session diagnoses under: the per-session
    /// override if one is set, otherwise the compiled model's policy.
    pub fn deduction_policy(&self) -> &DeductionPolicy {
        self.deduction.as_ref().unwrap_or(self.compiled.policy())
    }

    /// Replaces the candidate action set — the session's *mixed* menu of
    /// specification tests and physical probes, ranked together.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidAction`] for unknown targets, a
    /// [`Action::Test`] on a latent block, a [`Action::Probe`] on a
    /// non-latent, duplicate targets, or targets the observation already
    /// pins.
    pub fn set_actions<I>(&mut self, actions: I) -> Result<()>
    where
        I: IntoIterator<Item = Action>,
    {
        self.candidates = self.validate_actions(actions, &Observation::new())?;
        Ok(())
    }

    /// Builds a validated candidate list without mutating the session —
    /// the pure core of [`DiagnosisSession::set_actions`].
    /// `pending_observation` names measurements that *will* be absorbed
    /// alongside the actions (a [`SessionRequest`]'s observation), so a
    /// transactional absorb can reject a candidate the same request
    /// already pins.
    fn validate_actions<I>(
        &self,
        actions: I,
        pending_observation: &Observation,
    ) -> Result<Vec<ScoredAction>>
    where
        I: IntoIterator<Item = Action>,
    {
        let mut next = Vec::new();
        for action in actions {
            let name = action.target();
            let var = self
                .compiled
                .model()
                .var(name)
                .map_err(|_| Error::InvalidAction {
                    action: action.to_string(),
                    reason: "not a model variable".into(),
                })?;
            let latent = self.latents.contains(&var);
            if action.is_probe() && !latent {
                return Err(Error::InvalidAction {
                    action: action.to_string(),
                    reason: "probes target latent blocks; use Action::Test".into(),
                });
            }
            if !action.is_probe() && latent {
                return Err(Error::InvalidAction {
                    action: action.to_string(),
                    reason: "latent blocks cannot be tested electrically; use Action::Probe".into(),
                });
            }
            if self.observation.state_of(name).is_some()
                || pending_observation.state_of(name).is_some()
            {
                return Err(Error::InvalidAction {
                    action: action.to_string(),
                    reason: "already observed; cannot be a measurement candidate".into(),
                });
            }
            // A duplicate would leave a dangling twin after the first
            // copy is measured: `observe` removes one entry, and the
            // survivor's variable is then pinned by evidence, poisoning
            // every later scoring pass with an invalid hypothetical.
            if next.iter().any(|c: &ScoredAction| c.var == var) {
                return Err(Error::InvalidAction {
                    action: action.to_string(),
                    reason: "duplicate measurement candidate".into(),
                });
            }
            next.push(ScoredAction {
                probe: action.is_probe(),
                action,
                var,
                gain: 0.0,
                cost: 0.0,
                score: 0.0,
            });
        }
        Ok(next)
    }

    /// [`DiagnosisSession::set_actions`] from bare variable names,
    /// classifying each as a test or probe by whether it is a latent
    /// block.
    ///
    /// # Errors
    ///
    /// Same as [`DiagnosisSession::set_actions`].
    pub fn set_candidates<I, N>(&mut self, names: I) -> Result<()>
    where
        I: IntoIterator<Item = N>,
        N: AsRef<str>,
    {
        let actions: Vec<Action> = names
            .into_iter()
            .map(|name| {
                let name = name.as_ref();
                let latent = self
                    .compiled
                    .model()
                    .var(name)
                    .is_ok_and(|var| self.latents.contains(&var));
                // Unknown names fall through as tests, which
                // `set_actions` rejects as "not a model variable".
                if latent {
                    Action::probe(name)
                } else {
                    Action::test(name)
                }
            })
            .collect();
        self.set_actions(actions)
    }

    /// The unapplied candidates with their scores from the latest
    /// [`DiagnosisSession::rank_actions`] pass (unsorted between passes).
    pub fn actions(&self) -> &[ScoredAction] {
        &self.candidates
    }

    /// Everything observed so far.
    pub fn observation(&self) -> &Observation {
        &self.observation
    }

    /// The active stopping policy.
    pub fn policy(&self) -> &StoppingPolicy {
        &self.policy
    }

    /// The per-session deduction-policy override, if any (the hierarchy
    /// layer copies it onto a freshly descended child session).
    pub(crate) fn deduction_override(&self) -> Option<DeductionPolicy> {
        self.deduction
    }

    /// The session's cost ledger: every measurement applied, in
    /// execution order.
    pub fn applied(&self) -> &[AppliedMeasurement] {
        &self.applied
    }

    /// Why the last [`DiagnosisSession::next_action`] declined to
    /// recommend (cleared by the next successful apply).
    pub fn stop_reason(&self) -> Option<StopReason> {
        self.stop
    }

    /// Records a measurement: `variable = state`. If the variable was a
    /// pending candidate it stops being one.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidObservation`] for unknown variables or
    /// out-of-range states.
    pub fn observe(&mut self, variable: &str, state: usize) -> Result<()> {
        let var = self
            .compiled
            .model()
            .var(variable)
            .map_err(|_| Error::InvalidObservation {
                variable: variable.into(),
                reason: "not a model variable".into(),
            })?;
        let card = self.compiled.model().network().card(var);
        if state >= card {
            return Err(Error::InvalidObservation {
                variable: variable.into(),
                reason: format!("state {state} out of range {card}"),
            });
        }
        self.evidence.observe(var, state);
        self.base_calibrated = false;
        self.observation.set(variable, state);
        if let Some(pos) = self.candidates.iter().position(|c| c.var == var) {
            self.candidates.swap_remove(pos);
        }
        Ok(())
    }

    /// Marks an already-recorded variable as having failed its ATE limits.
    pub fn mark_failing(&mut self, variable: &str) {
        self.observation.mark_failing(variable);
    }

    /// Seeds the session with a whole observation (controls plus any
    /// already-taken measurements), preserving its failing marks.
    ///
    /// # Errors
    ///
    /// Propagates [`DiagnosisSession::observe`] errors.
    pub fn observe_all(&mut self, observation: &Observation) -> Result<()> {
        for (name, state) in observation.iter() {
            self.observe(name, state)?;
        }
        for name in observation.failing() {
            self.mark_failing(name);
        }
        Ok(())
    }

    /// The diagnosis over everything observed so far (posterior update
    /// plus the §IV-B candidate deduction), through the reused workspaces
    /// and the evidence set this session keeps in lockstep with its
    /// observation (no per-call evidence rebuild). Deduction's queries
    /// run in the VOI scratch workspace, so the base calibration survives
    /// for the next [`DiagnosisSession::rank_actions`].
    ///
    /// # Errors
    ///
    /// Same as [`CompiledModel::diagnose`].
    pub fn diagnose(&mut self) -> Result<Diagnosis> {
        let policy = self.deduction.unwrap_or(*self.compiled.policy());
        self.base_calibrated = false;
        let diagnosis = self.compiled.diagnose_kernel(
            &mut self.base_ws,
            Some(&mut self.scratch.ws),
            &self.observation,
            &self.evidence,
            &policy,
        )?;
        self.base_calibrated = true;
        Ok(diagnosis)
    }

    /// Scores every unapplied candidate action under the active
    /// [`Strategy`] and [`CostModel`] and returns them sorted by
    /// selection score, best first. Scores that agree to `1e-12`
    /// (relative to the larger above 1) are ties, ordered by model
    /// position: symmetric measurements have equal values that differ
    /// only in rounding, and which of them is measured first must not
    /// hang on the last bit. NaNs sort by `f64::total_cmp`.
    ///
    /// The information value is the one-step expected gain over the
    /// latent blocks for [`Strategy::Myopic`] and
    /// [`Strategy::CostWeighted`], and the depth-bounded expectimax value
    /// for [`Strategy::Lookahead`]; the selection score is the raw value
    /// (myopic) or value-per-tester-second (the other two). Probes and
    /// tests rank in the *same* list — the probe's higher [`CostModel`]
    /// price is what keeps it behind cheap tests until the tests stop
    /// carrying information.
    ///
    /// This is the per-decision hot path: one base propagation plus up to
    /// `card` absorptions per candidate, each updating only the cliques
    /// between the candidate and the latents (lookahead instead runs a
    /// full propagation per node of its outcome tree), all through the
    /// compiled tree and the reused workspaces — **zero junction-tree
    /// compilations, zero heap allocations** once the session is warm.
    /// The base propagation is skipped while the evidence is unchanged
    /// since the last [`DiagnosisSession::diagnose`] or ranking: the
    /// calibration they left is reused.
    ///
    /// # Errors
    ///
    /// Propagates propagation errors (e.g. impossible evidence).
    pub fn rank_actions(&mut self) -> Result<&[ScoredAction]> {
        let Self {
            compiled,
            base_ws,
            base_calibrated,
            scratch,
            evidence,
            latents,
            latent_entropy,
            candidates,
            strategy,
            cost_model,
            planner,
            var_buf,
            ..
        } = self;
        if candidates.is_empty() {
            return Ok(&[]);
        }
        let jt = compiled.jt();
        let net = compiled.model().network();
        match *strategy {
            Strategy::Myopic | Strategy::CostWeighted => {
                if !*base_calibrated {
                    jt.propagate_in(base_ws, evidence).map_err(Error::Bbn)?;
                    *base_calibrated = true;
                }
                let view = jt.view_in(base_ws).map_err(Error::Bbn)?;
                latent_entropy.clear();
                for &v in latents.iter() {
                    latent_entropy.push(view.posterior_entropy(v).map_err(Error::Bbn)?);
                }
                let total_entropy: f64 = latent_entropy.iter().sum();
                let VoiScratch { ws: hyp_ws, dist } = scratch;
                for slot in candidates.iter_mut() {
                    let own = latents
                        .iter()
                        .position(|&l| l == slot.var)
                        .map_or(0.0, |i| latent_entropy[i]);
                    let card = net.card(slot.var);
                    view.posterior_into(slot.var, &mut dist[..card])
                        .map_err(Error::Bbn)?;
                    slot.gain = voi::expected_gain(
                        compiled,
                        base_ws,
                        hyp_ws,
                        slot.var,
                        &dist[..card],
                        latents,
                        total_entropy - own,
                    )?;
                }
            }
            Strategy::Lookahead { .. } => {
                let planner = planner.as_mut().expect("set_strategy built the planner");
                var_buf.clear();
                var_buf.extend(candidates.iter().map(|c| c.var));
                let values = planner.values(compiled, evidence, var_buf)?;
                for (slot, &value) in candidates.iter_mut().zip(values) {
                    slot.gain = value;
                }
            }
        }
        for slot in candidates.iter_mut() {
            slot.cost = cost_model.cost_of(slot.action.target(), slot.probe);
            slot.score = match *strategy {
                Strategy::Myopic => slot.gain,
                Strategy::CostWeighted | Strategy::Lookahead { .. } => slot.gain / slot.cost,
            };
        }
        rank_by_score(candidates);
        Ok(candidates)
    }

    /// Absorbs one [`SessionRequest`] into the session: ranking strategy,
    /// cost model, deduction-policy override, stopping policy, the
    /// request's observations, and (when non-empty) its candidate action
    /// set. [`CompiledModel::serve`] is exactly this on a fresh session;
    /// a *stateful* service round is this on a stored session — new
    /// observations accumulate onto what earlier rounds absorbed
    /// (re-observing a variable overwrites its state).
    ///
    /// The absorb is **transactional**: every part of the request is
    /// validated before anything is applied, so a failed absorb leaves
    /// the session exactly as it was (a service can check the session
    /// back into its store and let the client retry with a corrected
    /// request).
    ///
    /// A **delta** request ([`SessionRequest::delta`]) additionally
    /// asserts consistency with history: every variable it re-observes
    /// must carry the state the session already stores, or the whole
    /// round is refused with [`Error::InconsistentDelta`] before any
    /// state changes.
    ///
    /// # Errors
    ///
    /// Propagates observation/action/strategy/cost/policy validation
    /// errors.
    pub fn absorb_request(&mut self, request: &SessionRequest) -> Result<()> {
        // Validation phase — no session state is touched yet.
        request.policy.validate()?;
        request.strategy.validate()?;
        request.cost.validate()?;
        if let Some(deduction) = &request.deduction {
            deduction.validate()?;
        }
        if request.delta {
            for (name, state) in request.observation.iter() {
                if let Some(stored) = self.observation.state_of(name) {
                    if stored != state {
                        return Err(Error::InconsistentDelta {
                            variable: name.to_string(),
                            stored,
                            requested: state,
                        });
                    }
                }
            }
        }
        self.compiled.evidence_from(&request.observation)?;
        let staged_actions = if request.actions.is_empty() {
            None
        } else {
            Some(self.validate_actions(request.actions.iter().cloned(), &request.observation)?)
        };
        // Mutation phase. `set_strategy` goes first because the planner
        // (re)build is its own atomic failure point; the remaining
        // setters re-validate inputs that already passed above.
        self.set_strategy(request.strategy)?;
        self.set_cost_model(request.cost.clone())?;
        self.set_deduction_policy(request.deduction)?;
        self.policy = request.policy;
        self.observe_all(&request.observation)?;
        if let Some(actions) = staged_actions {
            self.candidates = actions;
        }
        Ok(())
    }

    /// One decision round's report: diagnose, rank the candidate set, and
    /// evaluate the stop verdict — the serde mirror a service answers
    /// with ([`CompiledModel::serve`] = open + [`DiagnosisSession::absorb_request`] +
    /// this; a session-store round skips the open).
    ///
    /// # Errors
    ///
    /// Propagates diagnosis and scoring errors.
    pub fn report(&mut self) -> Result<SessionReport> {
        let diagnosis = self.diagnose()?;
        // One scoring pass serves both the ranking and the stop verdict
        // (the scoring loop is the expensive part of a service round).
        let ranked: Vec<Ranked<Action>> = self
            .rank_actions()?
            .iter()
            .map(ScoredAction::to_ranked)
            .collect();
        let stop = self
            .pre_scoring_stop(&diagnosis)
            .or_else(|| self.post_scoring_stop());
        Ok(SessionReport {
            posteriors: diagnosis.posteriors().to_vec(),
            fault_mass: fault_mass_entries(&diagnosis),
            candidates: diagnosis.candidates().to_vec(),
            top_candidate: diagnosis.top_candidate().map(str::to_string),
            log_likelihood: diagnosis.log_likelihood(),
            ranked,
            stop,
        })
    }

    /// One whole service round with rollback:
    /// [`DiagnosisSession::absorb_request`] followed by
    /// [`DiagnosisSession::report`], restoring the session's full
    /// pre-round state if **either** phase fails. The absorb alone is
    /// already transactional for validation errors; what this adds is
    /// recovery from report-phase failures — above all
    /// [`abbd_bbn::Error::ImpossibleEvidence`], where the new
    /// observation only reveals its inconsistency during propagation,
    /// *after* the evidence was committed. Without the rollback a
    /// stored session would be permanently wedged: every later round
    /// re-propagates the impossible evidence and fails again.
    ///
    /// [`CompiledModel::serve`] is exactly this on a fresh session, so
    /// a service's stored-session rounds stay byte-identical to its
    /// stateless ones — including after a failed round.
    ///
    /// # Errors
    ///
    /// Same as [`DiagnosisSession::absorb_request`] and
    /// [`DiagnosisSession::report`]; on error the session is unchanged.
    pub fn serve_round(&mut self, request: &SessionRequest) -> Result<SessionReport> {
        let evidence = self.evidence.clone();
        let observation = self.observation.clone();
        let candidates = self.candidates.clone();
        let policy = self.policy;
        let strategy = self.strategy;
        let cost_model = self.cost_model.clone();
        let deduction = self.deduction;
        let result = self.absorb_request(request).and_then(|()| self.report());
        if result.is_err() {
            self.evidence = evidence;
            self.base_calibrated = false;
            self.observation = observation;
            self.candidates = candidates;
            self.policy = policy;
            self.cost_model = cost_model;
            self.deduction = deduction;
            // The old strategy was valid when it was set, so restoring
            // it cannot fail; `let _` keeps the rollback path panic-free
            // regardless.
            let _ = self.set_strategy(strategy);
        }
        result
    }

    /// Whether `diagnosis` isolates a fault under the active policy.
    fn isolated(&self, diagnosis: &Diagnosis) -> bool {
        diagnosis
            .candidates()
            .first()
            .is_some_and(|c| c.fault_mass >= self.policy.fault_mass_threshold)
    }

    /// Evaluates the pre-scoring stop conditions against `diagnosis`:
    /// isolation and the step budget. (The gain-dependent conditions need
    /// a scoring pass: see [`DiagnosisSession::post_scoring_stop`].)
    fn pre_scoring_stop(&self, diagnosis: &Diagnosis) -> Option<StopReason> {
        if self.isolated(diagnosis) {
            Some(StopReason::Isolated)
        } else if self.applied.len() >= self.policy.max_steps {
            Some(StopReason::MaxSteps)
        } else {
            None
        }
    }

    /// Evaluates the post-scoring stop conditions against the candidate
    /// set the last [`DiagnosisSession::rank_actions`] scored: exhaustion
    /// and the gain floor. [`DiagnosisSession::report`] and
    /// [`DiagnosisSession::next_action`] both stop through this, so the
    /// wire verdict and the stepping verdict cannot drift apart.
    fn post_scoring_stop(&self) -> Option<StopReason> {
        if self.candidates.is_empty() {
            return Some(StopReason::Exhausted);
        }
        let best_value = self
            .candidates
            .iter()
            .map(ScoredAction::expected_information_gain)
            .fold(f64::NEG_INFINITY, f64::max);
        (best_value < self.policy.min_gain).then_some(StopReason::GainBelowThreshold)
    }

    /// Enables or disables decision tracing. Enabling starts a fresh
    /// [`DecisionTrace`]; every recommendation-and-apply round appends
    /// one [`TracedDecision`]. A recommendation made *before* the trace
    /// boundary is discarded (its ranking belongs to no trace), so the
    /// next applied measurement is ledgered without selection scores.
    pub fn set_tracing(&mut self, tracing: bool) {
        self.pending = None;
        self.trace = if tracing {
            Some(DecisionTrace {
                strategy: self.strategy,
                steps: Vec::new(),
                stop: StopReason::Exhausted,
                final_fault_mass: Vec::new(),
                top_candidate: None,
            })
        } else {
            None
        };
    }

    /// The decision trace under capture, if tracing is enabled.
    pub fn trace(&self) -> Option<&DecisionTrace> {
        self.trace.as_ref()
    }

    /// The next recommended action under the active strategy, or `None`
    /// when a stopping condition holds ([`DiagnosisSession::stop_reason`]
    /// says which). Re-diagnoses, re-scores the candidate set, and — when
    /// tracing — records the full ranking. Feed the recommendation (or
    /// any other action) to [`DiagnosisSession::apply`]; calling
    /// `next_action` again before applying supersedes the previous
    /// recommendation.
    ///
    /// # Errors
    ///
    /// Propagates diagnosis/propagation errors.
    pub fn next_action(&mut self) -> Result<Option<Ranked<Action>>> {
        // A recommendation that was never applied is superseded by this
        // evaluation (and its traced step with it).
        if self.pending.take().is_some() {
            if let Some(trace) = self.trace.as_mut() {
                trace.steps.pop();
            }
        }
        let diagnosis = self.diagnose()?;
        if let Some(trace) = self.trace.as_mut() {
            if let Some(step) = trace.steps.last_mut() {
                if step.fault_mass.is_empty() {
                    step.fault_mass = fault_mass_entries(&diagnosis);
                }
            }
        }
        if let Some(reason) = self.pre_scoring_stop(&diagnosis) {
            self.stop = Some(reason);
            self.last_diagnosis = Some(diagnosis);
            return Ok(None);
        }
        self.rank_actions()?;
        if let Some(reason) = self.post_scoring_stop() {
            self.stop = Some(reason);
            self.last_diagnosis = Some(diagnosis);
            return Ok(None);
        }
        let best = &self.candidates[0];
        let ranked = best.to_ranked();
        if let Some(trace) = self.trace.as_mut() {
            trace.steps.push(TracedDecision {
                scores: self
                    .candidates
                    .iter()
                    .map(|c| TracedScore {
                        variable: c.action.target().to_string(),
                        gain: c.gain,
                        cost: c.cost,
                        score: c.score,
                    })
                    .collect(),
                chosen: ranked.action.target().to_string(),
                state: 0,
                failing: false,
                fault_mass: Vec::new(),
            });
        }
        self.pending = Some((ranked.action.target().to_string(), ranked.gain, ranked.cost));
        self.stop = None;
        self.last_diagnosis = Some(diagnosis);
        Ok(Some(ranked))
    }

    /// Applies a measurement outcome: records it as evidence, charges the
    /// cost model, and appends to the ledger (and the trace, when the
    /// action matches the pending recommendation — measurements taken
    /// off-recommendation are ledgered without selection scores, like
    /// scripted runs).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidObservation`] for unknown targets or
    /// out-of-range states.
    pub fn apply(&mut self, action: &Action, outcome: Outcome) -> Result<()> {
        let name = action.target();
        self.observe(name, outcome.state)?;
        if outcome.failing {
            self.mark_failing(name);
        }
        self.cost_model.note_measured(name);
        let (gain, cost) = match self.pending.take() {
            Some((pending, gain, cost)) if pending == name => {
                if let Some(trace) = self.trace.as_mut() {
                    // `set_tracing` discards pre-trace recommendations,
                    // so a live trace here always has the pending step —
                    // but stay panic-free regardless.
                    if let Some(step) = trace.steps.last_mut() {
                        step.state = outcome.state;
                        step.failing = outcome.failing;
                    }
                }
                (Some(gain), Some(cost))
            }
            pending => {
                // The recommendation (if any) was not followed; its
                // traced step never happened.
                if pending.is_some() {
                    if let Some(trace) = self.trace.as_mut() {
                        trace.steps.pop();
                    }
                }
                (None, None)
            }
        };
        self.stop = None;
        self.applied.push(AppliedMeasurement {
            variable: name.to_string(),
            expected_information_gain: gain,
            cost,
            state: outcome.state,
            failing: outcome.failing,
        });
        Ok(())
    }

    /// Runs the closed loop: diagnose, stop or pick the best-scoring
    /// action under the active strategy, ask the executor to perform it,
    /// absorb the answer, repeat. On the ATE the executor runs one
    /// `abbd_ate::TestDef` out of program order for a test and reads an
    /// internal net for a probe.
    ///
    /// The gain floor compares [`StoppingPolicy::min_gain`] against the
    /// best *information value* among the candidates (not the best
    /// cost-normalised score): an expensive measurement that would still
    /// teach us something keeps the loop alive, it just gets deferred
    /// behind cheaper ones.
    ///
    /// # Errors
    ///
    /// Propagates diagnosis/propagation errors and whatever the executor
    /// returns (conventionally [`Error::Oracle`]).
    pub fn run<E>(&mut self, mut executor: E) -> Result<SequentialOutcome>
    where
        E: ActionExecutor,
    {
        let start = self.applied.len();
        while let Some(next) = self.next_action()? {
            let outcome = executor.execute(&next.action)?;
            self.apply(&next.action, outcome)?;
        }
        Ok(SequentialOutcome {
            diagnosis: self
                .last_diagnosis
                .take()
                .expect("next_action always diagnoses before stopping"),
            applied: self.applied[start..].to_vec(),
            stop: self.stop.expect("next_action set the stop reason"),
        })
    }

    /// [`DiagnosisSession::run`] capturing a full [`DecisionTrace`]
    /// alongside the outcome: every decision's complete candidate ranking
    /// (value, cost, selection score), the chosen action with the
    /// executor's answer, and the posterior fault mass per latent block
    /// after absorbing it. The golden-trace conformance corpus serialises
    /// these traces to pin the whole adaptive stack down.
    ///
    /// # Errors
    ///
    /// Same as [`DiagnosisSession::run`].
    pub fn run_traced<E>(&mut self, executor: E) -> Result<(SequentialOutcome, DecisionTrace)>
    where
        E: ActionExecutor,
    {
        self.set_tracing(true);
        let outcome = self.run(executor)?;
        let mut trace = self.trace.take().expect("tracing was just enabled");
        trace.strategy = self.strategy;
        trace.stop = outcome.stop;
        trace.final_fault_mass = fault_mass_entries(&outcome.diagnosis);
        trace.top_candidate = outcome.diagnosis.top_candidate().map(str::to_string);
        Ok((outcome, trace))
    }

    /// [`DiagnosisSession::run`] with the measurement order fixed in
    /// advance (the ATE's program order) instead of chosen by information
    /// gain — the baseline the adaptive loop is compared against. The same
    /// stopping policy applies between measurements (minus the gain floor,
    /// which only exists for scored runs); names already observed or
    /// absent from the candidate set are skipped.
    ///
    /// # Errors
    ///
    /// Same as [`DiagnosisSession::run`].
    pub fn run_scripted<E>(&mut self, order: &[&str], mut executor: E) -> Result<SequentialOutcome>
    where
        E: ActionExecutor,
    {
        let start = self.applied.len();
        let mut next = order.iter();
        loop {
            let diagnosis = self.diagnose()?;
            if let Some(reason) = self.pre_scoring_stop(&diagnosis) {
                self.stop = Some(reason);
                return Ok(SequentialOutcome {
                    diagnosis,
                    applied: self.applied[start..].to_vec(),
                    stop: reason,
                });
            }
            let Some(action) = next
                .find(|n| self.candidates.iter().any(|c| c.action.target() == **n))
                .map(|n| {
                    self.candidates
                        .iter()
                        .find(|c| c.action.target() == *n)
                        .expect("just located")
                        .action
                        .clone()
                })
            else {
                self.stop = Some(StopReason::Exhausted);
                return Ok(SequentialOutcome {
                    diagnosis,
                    applied: self.applied[start..].to_vec(),
                    stop: StopReason::Exhausted,
                });
            };
            let outcome = executor.execute(&action)?;
            self.apply(&action, outcome)?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::toy_compiled_model;

    /// Scores equal up to rounding rank by model position, whatever order
    /// the candidate list arrives in; real differences still decide.
    #[test]
    fn tied_scores_rank_by_model_position() {
        let scored = |index: usize, score: f64| ScoredAction {
            action: Action::test(format!("v{index}")),
            var: VarId::from_index(index),
            probe: false,
            gain: score,
            cost: 1.0,
            score,
        };
        let mut candidates = vec![
            scored(4, 0.5 - 2e-16),
            scored(7, 0.3),
            scored(2, 0.5),
            scored(9, 0.5 + 1e-16),
            scored(5, 4.6e-17),
            scored(3, 0.0),
            scored(8, 0.5 - 1e-9),
        ];
        let want = ["v2", "v4", "v9", "v8", "v7", "v3", "v5"];
        for rotation in 0..candidates.len() {
            candidates.rotate_left(rotation);
            rank_by_score(&mut candidates);
            let got: Vec<&str> = candidates.iter().map(ScoredAction::name).collect();
            assert_eq!(got, want, "rotation {rotation}");
        }
        // Above 1 the tie width is relative.
        let mut wide = vec![scored(6, 1000.0), scored(1, 1000.0 - 1e-10)];
        rank_by_score(&mut wide);
        assert_eq!(wide[0].name(), "v1");
    }

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn compiled_model_and_sessions_are_shareable() {
        assert_send_sync::<CompiledModel>();
        assert_send_sync::<DiagnosisSession>();
        assert_send_sync::<Arc<CompiledModel>>();
    }

    #[test]
    fn action_vocabulary_roundtrips() {
        let test = Action::test("out1");
        let probe = Action::probe("bias");
        assert_eq!(test.target(), "out1");
        assert!(!test.is_probe());
        assert!(probe.is_probe());
        assert_eq!(test.to_string(), "test out1");
        assert_eq!(probe.to_string(), "probe bias");
        for action in [test, probe] {
            let json = serde_json::to_string(&action).unwrap();
            let back: Action = serde_json::from_str(&json).unwrap();
            assert_eq!(back, action);
        }
        let ranked = Ranked {
            action: Action::test("out1"),
            gain: 0.5,
            cost: 2.0,
            score: 0.25,
        };
        let json = serde_json::to_string(&ranked).unwrap();
        let back: Ranked<Action> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ranked);
        assert_eq!(
            Outcome::passing(1),
            Outcome {
                state: 1,
                failing: false
            }
        );
        assert_eq!(
            Outcome::failing(0),
            Outcome {
                state: 0,
                failing: true
            }
        );
    }

    #[test]
    fn session_validates_action_kinds() {
        let compiled = toy_compiled_model();
        let mut s = DiagnosisSession::new(compiled, StoppingPolicy::default()).unwrap();
        assert!(matches!(
            s.set_actions([Action::probe("out1")]),
            Err(Error::InvalidAction { .. })
        ));
        assert!(matches!(
            s.set_actions([Action::test("bias")]),
            Err(Error::InvalidAction { .. })
        ));
        assert!(matches!(
            s.set_actions([Action::test("ghost")]),
            Err(Error::InvalidAction { .. })
        ));
        assert!(matches!(
            s.set_actions([Action::test("out1"), Action::test("out1")]),
            Err(Error::InvalidAction { .. })
        ));
        s.observe("out3", 1).unwrap();
        assert!(matches!(
            s.set_actions([Action::test("out3")]),
            Err(Error::InvalidAction { .. })
        ));
        s.set_actions([Action::test("out1"), Action::probe("aux")])
            .unwrap();
        assert_eq!(s.actions().len(), 2);
        assert!(s.actions()[1].is_probe());
    }

    #[test]
    fn stepping_api_matches_closed_loop() {
        let compiled = toy_compiled_model();
        let dead_bias = |action: &Action| {
            Ok(match action.target() {
                "out1" | "out2" => Outcome::failing(0),
                _ => Outcome::passing(1),
            })
        };
        let mut looped =
            DiagnosisSession::new(Arc::clone(&compiled), StoppingPolicy::default()).unwrap();
        looped.observe("pin", 1).unwrap();
        let outcome = looped.run(dead_bias).unwrap();

        let mut stepped =
            DiagnosisSession::new(Arc::clone(&compiled), StoppingPolicy::default()).unwrap();
        stepped.observe("pin", 1).unwrap();
        let mut applied = Vec::new();
        while let Some(next) = stepped.next_action().unwrap() {
            let answer = dead_bias(&next.action).unwrap();
            stepped.apply(&next.action, answer).unwrap();
            applied.push(next.action.target().to_string());
        }
        assert_eq!(stepped.stop_reason(), Some(outcome.stop));
        assert_eq!(applied.len(), outcome.tests_used());
        for (a, b) in applied.iter().zip(&outcome.applied) {
            assert_eq!(*a, b.variable);
        }
        assert_eq!(
            stepped.diagnose().unwrap().top_candidate(),
            outcome.diagnosis.top_candidate()
        );
        assert_eq!(stepped.applied().len(), applied.len());
    }

    /// The wire verdict ([`DiagnosisSession::report`]) and the stepping
    /// verdict ([`DiagnosisSession::next_action`]) must agree on every
    /// stop reason for the same evidence and policy.
    #[test]
    fn report_stop_matches_the_stepping_stop() {
        let compiled = toy_compiled_model();
        let check = |expected, evidence: &[(&str, usize)], policy| {
            let open = || {
                let mut s = DiagnosisSession::new(Arc::clone(&compiled), policy).unwrap();
                for &(variable, state) in evidence {
                    s.observe(variable, state).unwrap();
                }
                s
            };
            let report = open().report().unwrap();
            let mut stepped = open();
            assert_eq!(stepped.next_action().unwrap(), None, "{expected:?}");
            assert_eq!(report.stop, stepped.stop_reason(), "{expected:?}");
            assert_eq!(report.stop, Some(expected));
        };
        let default = StoppingPolicy::default();
        check(
            StopReason::Isolated,
            &[("pin", 1), ("out1", 0), ("out2", 0)],
            StoppingPolicy {
                fault_mass_threshold: 0.5,
                ..default
            },
        );
        check(
            StopReason::MaxSteps,
            &[("pin", 1)],
            StoppingPolicy {
                max_steps: 0,
                ..default
            },
        );
        check(
            StopReason::Exhausted,
            &[("pin", 1), ("out1", 1), ("out2", 1), ("out3", 1)],
            default,
        );
        check(
            StopReason::GainBelowThreshold,
            &[("pin", 1)],
            StoppingPolicy {
                min_gain: 1e6,
                ..default
            },
        );
    }

    #[test]
    fn repeated_next_action_supersedes_the_recommendation() {
        let compiled = toy_compiled_model();
        let mut s = DiagnosisSession::new(compiled, StoppingPolicy::default()).unwrap();
        s.observe("pin", 1).unwrap();
        s.set_tracing(true);
        let first = s.next_action().unwrap().unwrap();
        let second = s.next_action().unwrap().unwrap();
        assert_eq!(first, second, "no evidence changed between evaluations");
        assert_eq!(
            s.trace().unwrap().steps.len(),
            1,
            "superseded recommendations must not pile up traced steps"
        );
        s.apply(&second.action, Outcome::failing(0)).unwrap();
        assert_eq!(s.trace().unwrap().steps.len(), 1);
        assert_eq!(s.applied().len(), 1);
    }

    /// Regression: enabling tracing between a recommendation and its
    /// apply must not panic — the pre-trace recommendation is discarded
    /// and the measurement is ledgered without scores.
    #[test]
    fn tracing_enabled_mid_recommendation_does_not_panic() {
        let compiled = toy_compiled_model();
        let mut s = DiagnosisSession::new(compiled, StoppingPolicy::default()).unwrap();
        s.observe("pin", 1).unwrap();
        let next = s.next_action().unwrap().unwrap();
        s.set_tracing(true);
        s.apply(&next.action, Outcome::failing(0)).unwrap();
        assert!(s.trace().unwrap().steps.is_empty());
        assert_eq!(s.applied().len(), 1);
        assert_eq!(
            s.applied()[0].expected_information_gain,
            None,
            "a pre-trace recommendation is ledgered unscored"
        );
    }

    #[test]
    fn off_recommendation_applies_are_ledgered_without_scores() {
        let compiled = toy_compiled_model();
        let mut s = DiagnosisSession::new(compiled, StoppingPolicy::default()).unwrap();
        s.observe("pin", 1).unwrap();
        s.set_tracing(true);
        let next = s.next_action().unwrap().unwrap();
        let other = s
            .actions()
            .iter()
            .find(|c| c.name() != next.action.target())
            .unwrap()
            .action()
            .clone();
        s.apply(&other, Outcome::passing(1)).unwrap();
        assert_eq!(s.applied().len(), 1);
        assert_eq!(s.applied()[0].expected_information_gain, None);
        assert!(
            s.trace().unwrap().steps.is_empty(),
            "unfollowed step dropped"
        );
    }

    #[test]
    fn mixed_candidates_rank_probes_and_tests_together() {
        let compiled = toy_compiled_model();
        let mut s = DiagnosisSession::new(compiled, StoppingPolicy::default()).unwrap();
        s.observe("pin", 1).unwrap();
        s.set_actions([
            Action::test("out1"),
            Action::test("out2"),
            Action::probe("bias"),
        ])
        .unwrap();
        let ranked = s.rank_actions().unwrap();
        assert_eq!(ranked.len(), 3);
        assert!(ranked.iter().any(|c| c.is_probe()));
        assert!(ranked.iter().all(|c| c.expected_information_gain() >= 0.0));
        for pair in ranked.windows(2) {
            assert!(pair[0].score() >= pair[1].score());
        }
    }

    /// Two sessions on one shared compilation diagnosing under
    /// *different* deduction policies: the override changes the
    /// classification (and therefore the candidate verdict) without a
    /// single extra junction-tree compilation.
    #[test]
    fn per_session_policy_overrides_share_one_compilation() {
        use crate::deduce::DeductionPolicy;
        let compiles_before = abbd_bbn::jointree_compile_count();
        let compiled = toy_compiled_model();
        assert_eq!(abbd_bbn::jointree_compile_count() - compiles_before, 1);

        let seed = |s: &mut DiagnosisSession| {
            s.observe("pin", 1).unwrap();
            s.observe("out1", 0).unwrap();
            s.mark_failing("out1");
        };
        let mut default_session =
            DiagnosisSession::new(Arc::clone(&compiled), StoppingPolicy::default()).unwrap();
        seed(&mut default_session);
        let baseline = default_session.diagnose().unwrap();
        let top_mass = baseline.candidates()[0].fault_mass;

        // A policy whose faulty threshold sits just above the top
        // candidate's mass: the same posteriors now classify as
        // ambiguous, not faulty.
        let strict = DeductionPolicy {
            faulty_threshold: (top_mass + 0.01).min(0.99),
            healthy_threshold: 0.01,
            seed_with_best_ambiguous: false,
        };
        let mut strict_session =
            DiagnosisSession::new(Arc::clone(&compiled), StoppingPolicy::default()).unwrap();
        strict_session
            .set_deduction_policy(Some(strict))
            .expect("strict policy is well-formed");
        assert_eq!(strict_session.deduction_policy(), &strict);
        seed(&mut strict_session);
        let overridden = strict_session.diagnose().unwrap();

        assert_eq!(
            baseline.posteriors(),
            overridden.posteriors(),
            "the override must not touch the posterior update"
        );
        assert_ne!(
            baseline.classes(),
            overridden.classes(),
            "different thresholds must classify differently"
        );
        assert_eq!(
            baseline.top_candidate(),
            Some("bias"),
            "default policy indicts the dead bias block"
        );
        assert!(
            !overridden.candidates().iter().any(|c| c.variable == "bias"),
            "no ambiguity seeding + unreachable threshold = no latent indicted"
        );

        // The default session is untouched by its sibling's override, and
        // clearing the override restores the compiled policy.
        assert_eq!(
            default_session.diagnose().unwrap().classes(),
            baseline.classes()
        );
        strict_session.set_deduction_policy(None).unwrap();
        assert_eq!(strict_session.deduction_policy(), compiled.policy());
        assert_eq!(
            strict_session.diagnose().unwrap().classes(),
            baseline.classes()
        );

        // An inverted policy is rejected and leaves the override alone.
        assert!(matches!(
            strict_session.set_deduction_policy(Some(DeductionPolicy {
                faulty_threshold: 0.2,
                healthy_threshold: 0.8,
                ..DeductionPolicy::default()
            })),
            Err(Error::InvalidPolicy(_))
        ));

        // The serde boundary threads the override through `serve`.
        let mut observation = Observation::new();
        observation.set("pin", 1).set("out1", 0);
        observation.mark_failing("out1");
        let mut request = SessionRequest::new(observation);
        request.deduction = Some(strict);
        let report = compiled.serve(&request).unwrap();
        assert!(!report.candidates.iter().any(|c| c.variable == "bias"));
        let json = serde_json::to_string(&request).unwrap();
        let back: SessionRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, request);

        assert_eq!(
            abbd_bbn::jointree_compile_count() - compiles_before,
            1,
            "policy overrides must never recompile the junction tree"
        );
    }

    /// A model where impossible evidence is reachable: `src` is pinned
    /// to state 0 by its prior and `out` mirrors it deterministically,
    /// so observing `out = 1` has probability zero.
    fn deterministic_compiled_model() -> Arc<CompiledModel> {
        use crate::builder::{ExpertKnowledge, ModelBuilder};
        use crate::model::CircuitModel;
        use abbd_dlog2bbn::{FunctionalType, ModelSpec, StateBand, VariableSpec};
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
            var("src", FunctionalType::Latent),
            var("out", FunctionalType::Observe),
        ])
        .expect("static spec");
        let mut model = CircuitModel::new(spec);
        model.depends("src", "out").expect("static edge");
        let mut expert = ExpertKnowledge::new(10.0);
        expert.cpt("src", [[1.0, 0.0]]);
        expert.cpt("out", [[1.0, 0.0], [0.0, 1.0]]);
        let fitted = ModelBuilder::new(model)
            .with_expert(expert)
            .build_expert_only()
            .expect("deterministic CPTs build");
        CompiledModel::compile(fitted).expect("compiles").shared()
    }

    /// Regression for the stored-session poisoning bug: an observation
    /// that only reveals its inconsistency at propagation time (after
    /// the absorb committed it) must be rolled back, leaving the
    /// session answering exactly as before the failed round.
    #[test]
    fn a_failed_report_phase_rolls_the_session_back() {
        let compiled = deterministic_compiled_model();
        let mut session =
            DiagnosisSession::new(Arc::clone(&compiled), StoppingPolicy::default()).unwrap();

        let mut consistent = Observation::new();
        consistent.set("out", 0);
        let baseline = session
            .serve_round(&SessionRequest::new(consistent.clone()))
            .expect("consistent evidence serves");

        // `out = 1` validates (known variable, in-range state) but has
        // zero probability — the failure happens in the report phase.
        let mut impossible = Observation::new();
        impossible.set("out", 1);
        let err = session
            .serve_round(&SessionRequest::new(impossible))
            .expect_err("impossible evidence must fail the round");
        assert!(
            matches!(err, Error::Bbn(abbd_bbn::Error::ImpossibleEvidence)),
            "unexpected error: {err:?}"
        );

        // The poisoned observation must not linger: the session still
        // answers the consistent round identically, and on a fresh
        // session too (full state equivalence, not just recovery).
        assert_eq!(session.observation().state_of("out"), Some(0));
        let replay = session
            .serve_round(&SessionRequest::new(consistent.clone()))
            .expect("session recovered");
        assert_eq!(replay, baseline);
        let fresh = compiled
            .serve(&SessionRequest::new(consistent))
            .expect("fresh serve");
        assert_eq!(fresh, baseline);
    }

    /// Delta rounds absorb only what is new, answer identically to the
    /// equivalent cumulative full round, and refuse contradictions whole
    /// — the absorb stays transactional, so a failed delta leaves the
    /// session exactly as it was.
    #[test]
    fn delta_rounds_accumulate_and_refuse_contradictions() {
        let compiled = toy_compiled_model();
        let mut session =
            DiagnosisSession::new(Arc::clone(&compiled), StoppingPolicy::default()).unwrap();

        // Round 1: a full round with the controls.
        let mut controls = Observation::new();
        controls.set("pin", 1);
        session
            .serve_round(&SessionRequest::new(controls))
            .expect("controls round serves");

        // Round 2: the delta carries only the new measurement, yet the
        // report matches the cumulative full round on a fresh session.
        let mut new_only = Observation::new();
        new_only.set("out1", 0);
        new_only.mark_failing("out1");
        let delta_report = session
            .serve_round(&SessionRequest::new(new_only).into_delta())
            .expect("delta round serves");
        let mut cumulative = Observation::new();
        cumulative.set("pin", 1).set("out1", 0);
        cumulative.mark_failing("out1");
        let reference = compiled
            .serve(&SessionRequest::new(cumulative.clone()))
            .expect("cumulative serve");
        assert_eq!(delta_report, reference);

        // On a fresh session there is no history to contradict, so a
        // delta behaves exactly like a full round.
        assert_eq!(
            compiled
                .serve(&SessionRequest::new(cumulative).into_delta())
                .expect("fresh delta serve"),
            reference
        );

        // Re-sending an already-stored state is an idempotent no-op...
        let mut same = Observation::new();
        same.set("out1", 0);
        assert_eq!(
            session
                .serve_round(&SessionRequest::new(same).into_delta())
                .expect("idempotent delta"),
            delta_report
        );

        // ...but a contradicting state is refused whole, naming the
        // conflict, and nothing from the rejected delta leaks in.
        let mut conflict = Observation::new();
        conflict.set("out2", 1);
        conflict.set("out1", 1);
        let err = session
            .serve_round(&SessionRequest::new(conflict).into_delta())
            .expect_err("contradicting delta must fail");
        assert_eq!(
            err,
            Error::InconsistentDelta {
                variable: "out1".into(),
                stored: 0,
                requested: 1,
            }
        );
        assert_eq!(session.observation().state_of("out2"), None);
        let replay = session
            .serve_round(&SessionRequest::new(Observation::new()).into_delta())
            .expect("session recovered");
        assert_eq!(replay, delta_report);
    }

    #[test]
    fn serve_round_trips_the_service_boundary() {
        let compiled = toy_compiled_model();
        let mut observation = Observation::new();
        observation.set("pin", 1).set("out1", 0);
        observation.mark_failing("out1");
        let request = SessionRequest::new(observation);
        let report = compiled.serve(&request).unwrap();
        assert_eq!(report.posteriors.len(), 7);
        assert_eq!(report.fault_mass.len(), 3);
        assert_eq!(report.ranked.len(), 2, "out1 is observed, two tests left");
        assert!(report.log_likelihood < 0.0);
        assert_eq!(report.top_candidate.as_deref(), Some("bias"));
        // The boundary is serde-stable in both directions.
        let request_json = serde_json::to_string(&request).unwrap();
        let request_back: SessionRequest = serde_json::from_str(&request_json).unwrap();
        assert_eq!(request_back, request);
        let report_json = serde_json::to_string(&report).unwrap();
        let report_back: SessionReport = serde_json::from_str(&report_json).unwrap();
        assert_eq!(report_back, report);
        // A fully measured, isolated device reports a stop.
        let mut done = Observation::new();
        done.set("pin", 1)
            .set("out1", 0)
            .set("out2", 0)
            .set("out3", 1);
        done.mark_failing("out1");
        done.mark_failing("out2");
        let verdict = compiled.serve(&SessionRequest::new(done)).unwrap();
        assert_eq!(verdict.stop, Some(StopReason::Isolated));
    }

    /// Every candidate's gain by name, as bits.
    fn gain_bits(ranked: &[ScoredAction]) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = ranked
            .iter()
            .map(|c| {
                (
                    c.name().to_string(),
                    c.expected_information_gain().to_bits(),
                )
            })
            .collect();
        out.sort();
        out
    }

    /// Ranking straight after a diagnosis reads the base calibration the
    /// diagnosis left; every evidence change (observe, apply, an absorbed
    /// round, a rolled-back round) must force a fresh one. Each ranking
    /// must match a fresh session on the same evidence bit for bit.
    #[test]
    fn ranking_reuses_the_diagnosis_calibration_only_on_unchanged_evidence() {
        let compiled = toy_compiled_model();
        let fresh = |observation: &Observation| {
            let mut f =
                DiagnosisSession::new(Arc::clone(&compiled), StoppingPolicy::exhaustive()).unwrap();
            f.observe_all(observation).unwrap();
            gain_bits(f.rank_actions().unwrap())
        };
        let mut s =
            DiagnosisSession::new(Arc::clone(&compiled), StoppingPolicy::exhaustive()).unwrap();
        let mut checked = 0;
        let mut check = |s: &mut DiagnosisSession| {
            let got = gain_bits(s.rank_actions().unwrap());
            assert!(!got.is_empty());
            assert_eq!(got, fresh(s.observation()), "after {checked} checks");
            checked += 1;
        };

        s.observe("pin", 1).unwrap();
        s.diagnose().unwrap();
        check(&mut s);
        // A second ranking on the same evidence reuses it again.
        check(&mut s);

        // The stepping loop: next_action diagnoses and ranks, apply
        // changes the evidence.
        let next = s.next_action().unwrap().expect("a recommendation");
        check(&mut s);
        s.apply(&next.action, Outcome::failing(0)).unwrap();
        check(&mut s);

        // Diagnose, then observe behind its back.
        s.diagnose().unwrap();
        let left: Vec<String> = s.actions().iter().map(|c| c.name().to_string()).collect();
        s.observe(&left[0], 1).unwrap();
        check(&mut s);

        // A failed round rolls back after the report phase ran its
        // diagnosis on the round's evidence.
        s.diagnose().unwrap();
        let mut contradiction = Observation::new();
        contradiction.set("pin", 0);
        let mut delta = SessionRequest::new(contradiction);
        delta.delta = true;
        assert!(s.serve_round(&delta).is_err());
        check(&mut s);
        let mut unknown = Observation::new();
        unknown.set("no_such_block", 0);
        s.diagnose().unwrap();
        assert!(s.serve_round(&SessionRequest::new(unknown)).is_err());
        check(&mut s);

        // A whole served round on the same session.
        let mut more = Observation::new();
        more.set("pin", 1);
        let report = s.serve_round(&SessionRequest::new(more)).unwrap();
        let mut reported: Vec<(String, u64)> = report
            .ranked
            .iter()
            .map(|r| (r.action.target().to_string(), r.gain.to_bits()))
            .collect();
        reported.sort();
        assert_eq!(reported, fresh(s.observation()));
        check(&mut s);
        assert_eq!(checked, 8);
    }
}
