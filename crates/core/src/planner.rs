//! Cost-aware lookahead test planning: the economics layer on top of the
//! [`crate::voi`] kernel.
//!
//! The paper's step-one/step-two measurements are economically
//! asymmetric: an ATE test costs tester-seconds, switching to a different
//! stimulus suite costs a whole reconfiguration (the suite's operating
//! point must be re-applied and settled), and physically probing an
//! internal block in step two costs FIB/SEM time — orders of magnitude
//! more than any electrical test. Ranking candidates by raw expected
//! entropy gain (PR 2's myopic loop) ignores all of that, and one-step
//! greedy selection can prefer a test whose information the *next* test
//! would have delivered more cheaply.
//!
//! This module adds both missing pieces:
//!
//! * [`CostModel`] prices each candidate measurement in tester-seconds —
//!   a default per-test cost, per-variable overrides, a per-probe cost
//!   for latent candidates, and a suite-switch penalty charged whenever
//!   the candidate's stimulus suite differs from the currently applied
//!   one (the quantity [`abbd_ate::DeviceSession::suites_touched`] and
//!   `stimulus_switches` count on the bench). Gain divided by this cost
//!   is the gain-per-tester-second ranking of Zheng & Rish's cost-aware
//!   test selection.
//! * [`LookaheadPlanner`] evaluates candidates by bounded-depth
//!   expectimax instead of one-step gain: the value of measuring `c` is
//!   its immediate expected entropy reduction *plus* the expected value
//!   of the best follow-up measurement under each of `c`'s outcomes,
//!   recursively to a configurable depth (Siddiqi & Huang's sequential
//!   lookahead). Hypothetical outcome stacks ride through
//!   [`abbd_bbn::JunctionTree::propagate_hypotheticals_in`] with one
//!   preallocated workspace per depth level, so steady-state planning is
//!   compile-free and allocation-free like the myopic path.
//!
//! [`crate::DiagnosisSession::set_strategy`] selects among the three
//! behaviours via [`Strategy`].

use crate::error::{Error, Result};
use crate::session::CompiledModel;
use crate::voi::PROB_FLOOR;
use abbd_bbn::{Evidence, JunctionTree, Network, PropagationWorkspace, VarId};
use serde::{Deserialize, Serialize};

/// How [`crate::DiagnosisSession::rank_actions`] ranks candidate measurements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Strategy {
    /// Raw expected information gain, one step ahead (the PR 2
    /// behaviour). Costs are recorded on the scored candidates but do not
    /// influence the ranking.
    #[default]
    Myopic,
    /// Expected information gain divided by the [`CostModel`] cost of the
    /// measurement: gain per tester-second.
    CostWeighted,
    /// Bounded-depth expectimax ([`LookaheadPlanner`]): the candidate's
    /// value is its immediate gain plus the expected value of the best
    /// follow-up plan under each outcome, `depth` measurements deep,
    /// divided by the measurement's cost. `Lookahead { depth: 1 }` with a
    /// unit cost model reproduces [`Strategy::Myopic`] decisions exactly.
    Lookahead {
        /// How many measurements deep the expectimax expands (≥ 1). Each
        /// extra level multiplies the number of hypothetical propagations
        /// per decision by roughly `candidates × states`, so depths
        /// beyond [`MAX_LOOKAHEAD_DEPTH`] are rejected.
        depth: usize,
    },
}

/// The default follow-up discount `γ` of [`LookaheadPlanner`]: one
/// level of follow-up is worth at most half an immediate nat, which
/// keeps depth-`d` values discriminating between first picks (see the
/// planner docs for the degeneracy at `γ = 1`).
pub const DEFAULT_LOOKAHEAD_DISCOUNT: f64 = 0.5;

/// The largest accepted [`Strategy::Lookahead`] depth. Depth `d` expands
/// `O((candidates · states)^d)` hypothetical propagations per decision;
/// beyond 4 the planner would be slower than simply running the tests.
pub const MAX_LOOKAHEAD_DEPTH: usize = 4;

impl Strategy {
    /// Checks the strategy is well-formed.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidStrategy`] for a lookahead depth of zero
    /// or one beyond [`MAX_LOOKAHEAD_DEPTH`].
    pub fn validate(&self) -> Result<()> {
        if let Strategy::Lookahead { depth } = *self {
            if depth == 0 || depth > MAX_LOOKAHEAD_DEPTH {
                return Err(Error::InvalidStrategy(format!(
                    "lookahead depth {depth} outside 1..={MAX_LOOKAHEAD_DEPTH}"
                )));
            }
        }
        Ok(())
    }
}

/// Prices one candidate measurement in tester-seconds.
///
/// Three cost classes compose per candidate:
///
/// * a base cost — the per-variable override if one was set, otherwise
///   the probe cost for latent candidates (step-two FIB/SEM time) or the
///   default test cost for observables;
/// * a suite-switch penalty, charged when the candidate is assigned to a
///   stimulus suite different from the currently applied one (tracked by
///   [`CostModel::note_measured`] as the loop executes measurements).
///
/// All costs are strictly positive tester-seconds except the switch
/// penalty, which may be zero. [`CostModel::unit`] (cost 1 for
/// everything, no switch penalty) makes cost-normalised rankings
/// coincide with raw-gain rankings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Default cost of one specification test, tester-seconds.
    test_seconds: f64,
    /// Penalty for measuring under a not-currently-applied stimulus
    /// suite (reconfiguration + settling).
    suite_switch_seconds: f64,
    /// Default cost of physically probing a latent block (FIB/SEM).
    probe_seconds: f64,
    /// Per-variable base-cost overrides.
    overrides: Vec<(String, f64)>,
    /// Variable → stimulus-suite assignment for switch accounting.
    suite_of: Vec<(String, usize)>,
    /// The currently applied suite, if any.
    current_suite: Option<usize>,
}

impl CostModel {
    /// A cost model with explicit test / suite-switch / probe prices.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidCostModel`] unless `test_seconds` and
    /// `probe_seconds` are positive and finite and
    /// `suite_switch_seconds` is non-negative and finite.
    pub fn new(test_seconds: f64, suite_switch_seconds: f64, probe_seconds: f64) -> Result<Self> {
        let model = CostModel {
            test_seconds,
            suite_switch_seconds,
            probe_seconds,
            overrides: Vec::new(),
            suite_of: Vec::new(),
            current_suite: None,
        };
        model.validate()?;
        Ok(model)
    }

    /// The unit model: every measurement costs exactly 1, switching
    /// suites is free. Under it, gain-per-cost equals raw gain.
    pub fn unit() -> Self {
        CostModel {
            test_seconds: 1.0,
            suite_switch_seconds: 0.0,
            probe_seconds: 1.0,
            overrides: Vec::new(),
            suite_of: Vec::new(),
            current_suite: None,
        }
    }

    /// Checks every price is usable as a divisor.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidCostModel`] for non-positive or non-finite
    /// test/probe/override costs, or a negative/non-finite switch
    /// penalty.
    pub fn validate(&self) -> Result<()> {
        let positive = |what: &str, v: f64| {
            if v > 0.0 && v.is_finite() {
                Ok(())
            } else {
                Err(Error::InvalidCostModel(format!(
                    "{what} {v} must be positive and finite"
                )))
            }
        };
        positive("test_seconds", self.test_seconds)?;
        positive("probe_seconds", self.probe_seconds)?;
        if !(self.suite_switch_seconds >= 0.0 && self.suite_switch_seconds.is_finite()) {
            return Err(Error::InvalidCostModel(format!(
                "suite_switch_seconds {} must be non-negative and finite",
                self.suite_switch_seconds
            )));
        }
        for (name, secs) in &self.overrides {
            positive(&format!("override for `{name}`"), *secs)?;
        }
        Ok(())
    }

    /// Overrides the base cost of one variable (replacing any previous
    /// override).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidCostModel`] for a non-positive or
    /// non-finite cost.
    pub fn set_cost(&mut self, variable: impl Into<String>, seconds: f64) -> Result<&mut Self> {
        if !(seconds > 0.0 && seconds.is_finite()) {
            return Err(Error::InvalidCostModel(format!(
                "cost {seconds} must be positive and finite"
            )));
        }
        let name = variable.into();
        if let Some(slot) = self.overrides.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = seconds;
        } else {
            self.overrides.push((name, seconds));
        }
        Ok(self)
    }

    /// Assigns a variable to a stimulus suite for switch accounting
    /// (replacing any previous assignment). Unassigned variables never
    /// pay the switch penalty.
    pub fn assign_suite(&mut self, variable: impl Into<String>, suite: usize) -> &mut Self {
        let name = variable.into();
        if let Some(slot) = self.suite_of.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = suite;
        } else {
            self.suite_of.push((name, suite));
        }
        self
    }

    /// The suite a variable was assigned to, if any.
    pub fn suite_of(&self, variable: &str) -> Option<usize> {
        self.suite_of
            .iter()
            .find(|(n, _)| n == variable)
            .map(|(_, s)| *s)
    }

    /// The currently applied stimulus suite.
    pub fn current_suite(&self) -> Option<usize> {
        self.current_suite
    }

    /// Declares which suite is currently applied on the bench (e.g. the
    /// suite whose controls seeded the diagnosis).
    pub fn set_current_suite(&mut self, suite: Option<usize>) -> &mut Self {
        self.current_suite = suite;
        self
    }

    /// The cost of measuring `variable` right now, given that it lives in
    /// `suite` (`None` = no suite, never a switch): the base cost plus
    /// the switch penalty when `suite` differs from the current one.
    pub fn cost_in_suite(&self, variable: &str, is_probe: bool, suite: Option<usize>) -> f64 {
        let base = self
            .overrides
            .iter()
            .find(|(n, _)| n == variable)
            .map(|(_, s)| *s)
            .unwrap_or(if is_probe {
                self.probe_seconds
            } else {
                self.test_seconds
            });
        let switch = match (suite, self.current_suite) {
            (Some(s), Some(cur)) if s != cur => self.suite_switch_seconds,
            _ => 0.0,
        };
        base + switch
    }

    /// The cost of measuring `variable` right now, using its own suite
    /// assignment for the switch decision.
    pub fn cost_of(&self, variable: &str, is_probe: bool) -> f64 {
        self.cost_in_suite(variable, is_probe, self.suite_of(variable))
    }

    /// Records that `variable` was measured: if it carries a suite
    /// assignment, that suite becomes the current one.
    pub fn note_measured(&mut self, variable: &str) {
        if let Some(suite) = self.suite_of(variable) {
            self.current_suite = Some(suite);
        }
    }

    /// Every price multiplied by `factor` — tester-seconds to
    /// tester-minutes, say. Cost-weighted rankings are invariant under
    /// this (the property suite pins it): scaling every divisor scales
    /// every score by the same constant.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidCostModel`] for a non-positive or
    /// non-finite factor.
    pub fn scaled(&self, factor: f64) -> Result<Self> {
        if !(factor > 0.0 && factor.is_finite()) {
            return Err(Error::InvalidCostModel(format!(
                "scale factor {factor} must be positive and finite"
            )));
        }
        let mut scaled = self.clone();
        scaled.test_seconds *= factor;
        scaled.suite_switch_seconds *= factor;
        scaled.probe_seconds *= factor;
        for (_, secs) in &mut scaled.overrides {
            *secs *= factor;
        }
        scaled.validate()?;
        Ok(scaled)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::unit()
    }
}

/// Per-level reusable buffers of the expectimax recursion: one
/// propagation workspace, one outcome-distribution buffer sized for the
/// widest variable, and one per-latent entropy buffer.
#[derive(Debug, Clone)]
struct Level {
    ws: PropagationWorkspace,
    dist: Vec<f64>,
    lat_h: Vec<f64>,
}

/// Bounded-depth expectimax over candidate measurements.
///
/// The value of measuring candidate `c` under context `e` with `d`
/// levels of lookahead is
///
/// ```text
/// V_d(c | e) = gain(c | e) + γ · Σ_s P(c = s | e) · max_{c' ≠ c} V_{d-1}(c' | e, c = s)
/// V_0(· | e) = 0
/// ```
///
/// where `gain` is the VOI kernel's expected entropy reduction (clamped
/// at zero before any cost normalisation, so float noise can never turn
/// a useless candidate into a negative-cost bargain) and
/// `γ =` [`LookaheadPlanner::discount`] weights the follow-up plan.
/// `V_1` is exactly the myopic gain; every additional level adds the
/// (discounted, non-negative) expected value of the best follow-up plan,
/// which makes `V_d` monotone non-decreasing in `d` (pinned by the
/// planner property suite).
///
/// The discount matters: entropy reduction over a *plan* is nearly
/// submodular, so with `γ = 1` every depth-2 plan promises almost the
/// same total and the first pick degenerates to noise — the planner
/// would happily open with an uninformative test because the follow-up
/// "recovers" the difference. `γ < 1` keeps the front-loaded candidate
/// ahead unless the follow-up genuinely changes the picture (the classic
/// discounted-horizon treatment of sequential test selection); the
/// default [`DEFAULT_LOOKAHEAD_DISCOUNT`] keeps one follow-up level
/// worth at most half an immediate nat.
///
/// All propagations run through the model's compiled junction tree with
/// one preallocated workspace per recursion level
/// ([`abbd_bbn::JunctionTree::propagate_hypotheticals_in`] stacks the
/// outcome path as hypothetical findings without touching the evidence
/// set), so steady-state planning performs **zero junction-tree
/// compilations and zero heap allocations** — the same contract as the
/// myopic kernel, extended to depth `d` and asserted by
/// `tests/zero_alloc.rs`.
#[derive(Debug, Clone)]
pub struct LookaheadPlanner {
    depth: usize,
    discount: f64,
    latents: Vec<VarId>,
    /// `depth + 1` levels: the base context plus one per outcome stacked.
    levels: Vec<Level>,
    /// The hypothetical-outcome path of the current recursion branch.
    path: Vec<(VarId, usize)>,
    /// Used-flags aligned with the candidate slice under evaluation.
    used: Vec<bool>,
    /// Per-candidate values from the latest [`LookaheadPlanner::values`].
    values: Vec<f64>,
}

impl LookaheadPlanner {
    /// Builds a planner over a shared compiled model with all buffers
    /// sized for `depth` levels of lookahead.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidStrategy`] for a depth outside
    /// `1..=`[`MAX_LOOKAHEAD_DEPTH`] and propagates variable-lookup
    /// errors.
    pub fn new(compiled: &CompiledModel, depth: usize) -> Result<Self> {
        Strategy::Lookahead { depth }.validate()?;
        let model = compiled.model();
        let net = model.network();
        let latents: Vec<VarId> = model
            .circuit_model()
            .latents()
            .iter()
            .map(|name| model.var(name))
            .collect::<Result<_>>()?;
        let max_card = net.variables().map(|v| net.card(v)).max().unwrap_or(1);
        let levels = (0..=depth)
            .map(|_| Level {
                ws: compiled.make_workspace(),
                dist: vec![0.0; max_card],
                lat_h: Vec::with_capacity(latents.len()),
            })
            .collect();
        Ok(LookaheadPlanner {
            depth,
            discount: DEFAULT_LOOKAHEAD_DISCOUNT,
            latents,
            levels,
            path: Vec::with_capacity(depth),
            used: Vec::new(),
            values: Vec::new(),
        })
    }

    /// The configured lookahead depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The follow-up discount factor `γ`.
    pub fn discount(&self) -> f64 {
        self.discount
    }

    /// Replaces the follow-up discount factor `γ`. `1.0` scores plans by
    /// undiscounted total entropy reduction (see the type docs for why
    /// that degenerates), `0.0` collapses every depth to myopic.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidStrategy`] for a factor outside `[0, 1]`.
    pub fn set_discount(&mut self, discount: f64) -> Result<()> {
        if !(0.0..=1.0).contains(&discount) {
            return Err(Error::InvalidStrategy(format!(
                "lookahead discount {discount} outside [0, 1]"
            )));
        }
        self.discount = discount;
        Ok(())
    }

    /// Evaluates every candidate's expectimax value `V_depth(c | e)` and
    /// returns them aligned with `candidates`. None of the candidates may
    /// be pinned by `evidence` (measured variables stop being
    /// candidates), and `compiled` must be the model the planner was
    /// built for.
    ///
    /// After the first call (which may grow the candidate-tracking
    /// buffers to capacity), evaluation is allocation-free.
    ///
    /// # Errors
    ///
    /// Propagates propagation errors (e.g. impossible evidence).
    pub fn values(
        &mut self,
        compiled: &CompiledModel,
        evidence: &Evidence,
        candidates: &[VarId],
    ) -> Result<&[f64]> {
        self.used.clear();
        self.used.resize(candidates.len(), false);
        self.values.clear();
        self.values.resize(candidates.len(), 0.0);
        self.path.clear();
        eval_level(
            compiled.jt(),
            compiled.model().network(),
            evidence,
            &self.latents,
            candidates,
            &mut self.used,
            &mut self.path,
            &mut self.levels,
            self.depth,
            self.discount,
            Some(&mut self.values),
        )?;
        Ok(&self.values)
    }
}

/// One expectimax node: propagates `evidence` plus the stacked outcome
/// `path`, reads the per-latent entropies, and — when `depth > 0` —
/// evaluates every unused candidate, returning the node's total latent
/// entropy and the best candidate value. At the root, `out` additionally
/// receives every candidate's value.
#[allow(clippy::too_many_arguments)]
fn eval_level(
    jt: &JunctionTree,
    net: &Network,
    evidence: &Evidence,
    latents: &[VarId],
    candidates: &[VarId],
    used: &mut [bool],
    path: &mut Vec<(VarId, usize)>,
    levels: &mut [Level],
    depth: usize,
    discount: f64,
    mut out: Option<&mut [f64]>,
) -> Result<(f64, f64)> {
    let (level, rest) = levels.split_first_mut().expect("planner sized for depth");
    let view = jt
        .propagate_hypotheticals_in(&mut level.ws, evidence, path)
        .map_err(Error::Bbn)?;
    level.lat_h.clear();
    for &v in latents {
        level
            .lat_h
            .push(view.posterior_entropy(v).map_err(Error::Bbn)?);
    }
    let total: f64 = level.lat_h.iter().sum();
    if depth == 0 {
        return Ok((total, 0.0));
    }
    let mut best = 0.0f64;
    for i in 0..candidates.len() {
        if used[i] {
            continue;
        }
        let c = candidates[i];
        // A candidate the outcome path already pins would stack a second
        // hypothetical on the same variable; `used` prevents re-picking a
        // candidate, and path entries always come from the candidate set,
        // so this cannot happen — but latent candidates can coincide with
        // scored latents, which the own-entropy exclusion handles.
        let own = latents
            .iter()
            .position(|&l| l == c)
            .map_or(0.0, |j| level.lat_h[j]);
        let card = net.card(c);
        view.posterior_into(c, &mut level.dist[..card])
            .map_err(Error::Bbn)?;
        let mut expected_after = 0.0;
        let mut expected_follow = 0.0;
        used[i] = true;
        for state in 0..card {
            let p_state = level.dist[state];
            if p_state <= PROB_FLOOR {
                continue;
            }
            path.push((c, state));
            // The child context pins `c = state`, so the child's total
            // latent entropy already excludes `c` (a point-mass posterior
            // has zero entropy).
            let (after, follow) = eval_level(
                jt,
                net,
                evidence,
                latents,
                candidates,
                used,
                path,
                rest,
                depth - 1,
                discount,
                None,
            )?;
            path.pop();
            expected_after += p_state * after;
            expected_follow += p_state * follow;
        }
        used[i] = false;
        // Clamp the immediate gain at zero *before* any cost
        // normalisation: marginal-entropy rounding can leave a useless
        // candidate at ≈ −1e-16, which would flip sign when divided by a
        // cost and outrank genuinely neutral candidates.
        let gain = (total - own - expected_after).max(0.0);
        let value = gain + discount * expected_follow;
        if let Some(buf) = out.as_deref_mut() {
            buf[i] = value;
        }
        if value > best {
            best = value;
        }
    }
    Ok((total, best))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnosis::Observation;
    use crate::fixtures::toy_compiled_model;
    use crate::session::{DiagnosisSession, StoppingPolicy};
    use std::sync::Arc;

    #[test]
    fn strategy_validation() {
        assert!(Strategy::Myopic.validate().is_ok());
        assert!(Strategy::CostWeighted.validate().is_ok());
        assert!(Strategy::Lookahead { depth: 1 }.validate().is_ok());
        assert!(Strategy::Lookahead {
            depth: MAX_LOOKAHEAD_DEPTH
        }
        .validate()
        .is_ok());
        assert!(matches!(
            Strategy::Lookahead { depth: 0 }.validate(),
            Err(Error::InvalidStrategy(_))
        ));
        assert!(matches!(
            Strategy::Lookahead {
                depth: MAX_LOOKAHEAD_DEPTH + 1
            }
            .validate(),
            Err(Error::InvalidStrategy(_))
        ));
        assert_eq!(Strategy::default(), Strategy::Myopic);
    }

    #[test]
    fn cost_model_validation_and_pricing() {
        assert!(CostModel::new(0.0, 0.0, 1.0).is_err());
        assert!(CostModel::new(1.0, -1.0, 1.0).is_err());
        assert!(CostModel::new(1.0, 0.0, f64::NAN).is_err());
        let mut m = CostModel::new(2.0, 10.0, 120.0).unwrap();
        assert!(m.set_cost("sw", 0.0).is_err());
        m.set_cost("sw", 5.0).unwrap();
        m.assign_suite("reg1", 0).assign_suite("sw", 1);
        assert_eq!(m.suite_of("reg1"), Some(0));
        assert_eq!(m.suite_of("ghost"), None);

        // No current suite: never a switch.
        assert_eq!(m.cost_of("reg1", false), 2.0);
        assert_eq!(m.cost_of("sw", false), 5.0, "override wins");
        assert_eq!(m.cost_of("hcbg", true), 120.0, "probe price");

        m.set_current_suite(Some(0));
        assert_eq!(m.cost_of("reg1", false), 2.0, "same suite");
        assert_eq!(m.cost_of("sw", false), 15.0, "cross-suite penalty");
        assert_eq!(m.cost_of("unassigned", false), 2.0, "no suite, no switch");

        m.note_measured("sw");
        assert_eq!(m.current_suite(), Some(1));
        assert_eq!(m.cost_of("reg1", false), 12.0);
        m.note_measured("unassigned");
        assert_eq!(m.current_suite(), Some(1), "unassigned keeps the suite");
    }

    #[test]
    fn scaling_multiplies_every_price() {
        let mut m = CostModel::new(2.0, 4.0, 8.0).unwrap();
        m.set_cost("a", 3.0).unwrap();
        m.assign_suite("a", 1);
        m.set_current_suite(Some(0));
        let s = m.scaled(10.0).unwrap();
        assert_eq!(s.cost_of("a", false), 70.0, "(3 + 4) * 10");
        assert_eq!(s.cost_of("b", false), 20.0);
        assert_eq!(s.cost_of("b", true), 80.0);
        assert!(m.scaled(0.0).is_err());
        assert!(m.scaled(f64::INFINITY).is_err());
    }

    #[test]
    fn depth_one_values_equal_myopic_gains() {
        let compiled = toy_compiled_model();
        let mut obs = Observation::new();
        obs.set("pin", 1);
        let evidence = compiled.evidence_from(&obs).unwrap();
        let vars: Vec<VarId> = ["out1", "out2", "out3"]
            .iter()
            .map(|n| compiled.model().var(n).unwrap())
            .collect();
        let mut planner = LookaheadPlanner::new(&compiled, 1).unwrap();
        let values = planner
            .values(&compiled, &evidence, &vars)
            .unwrap()
            .to_vec();
        let mut session =
            DiagnosisSession::new(Arc::clone(&compiled), StoppingPolicy::default()).unwrap();
        session.observe_all(&obs).unwrap();
        let myopic = session.rank_actions().unwrap();
        for (name, value) in ["out1", "out2", "out3"].iter().zip(&values) {
            let gain = myopic
                .iter()
                .find(|c| c.name() == *name)
                .unwrap()
                .expected_information_gain();
            assert_eq!(
                *value, gain,
                "depth-1 value for {name} must equal the myopic gain"
            );
        }
        // The informative output dominates, as in the myopic tests.
        assert!(values[0] > values[1] && values[0] > values[2]);
    }

    #[test]
    fn deeper_lookahead_never_loses_value() {
        let compiled = toy_compiled_model();
        let mut obs = Observation::new();
        obs.set("pin", 1);
        let evidence = compiled.evidence_from(&obs).unwrap();
        let vars: Vec<VarId> = ["out1", "out2", "out3"]
            .iter()
            .map(|n| compiled.model().var(n).unwrap())
            .collect();
        let mut prev: Option<Vec<f64>> = None;
        for depth in 1..=3 {
            let mut planner = LookaheadPlanner::new(&compiled, depth).unwrap();
            let values = planner
                .values(&compiled, &evidence, &vars)
                .unwrap()
                .to_vec();
            assert!(values.iter().all(|v| v.is_finite() && *v >= 0.0));
            if let Some(prev) = &prev {
                for (d, (lo, hi)) in prev.iter().zip(&values).enumerate() {
                    assert!(
                        hi >= lo,
                        "candidate {d}: depth {depth} value {hi} < depth {} value {lo}",
                        depth - 1
                    );
                }
            }
            prev = Some(values);
        }
    }

    #[test]
    fn planner_rejects_bad_depths() {
        let compiled = toy_compiled_model();
        assert!(matches!(
            LookaheadPlanner::new(&compiled, 0),
            Err(Error::InvalidStrategy(_))
        ));
        assert!(matches!(
            LookaheadPlanner::new(&compiled, MAX_LOOKAHEAD_DEPTH + 1),
            Err(Error::InvalidStrategy(_))
        ));
        assert_eq!(LookaheadPlanner::new(&compiled, 2).unwrap().depth(), 2);
    }

    #[test]
    fn discount_bounds_and_extremes() {
        let compiled = toy_compiled_model();
        let mut planner = LookaheadPlanner::new(&compiled, 2).unwrap();
        assert_eq!(planner.discount(), DEFAULT_LOOKAHEAD_DISCOUNT);
        assert!(planner.set_discount(-0.1).is_err());
        assert!(planner.set_discount(1.1).is_err());
        assert!(planner.set_discount(f64::NAN).is_err());

        let mut obs = Observation::new();
        obs.set("pin", 1);
        let evidence = compiled.evidence_from(&obs).unwrap();
        let vars: Vec<VarId> = ["out1", "out2", "out3"]
            .iter()
            .map(|n| compiled.model().var(n).unwrap())
            .collect();
        // γ = 0 collapses any depth to the myopic gain.
        planner.set_discount(0.0).unwrap();
        let zeroed = planner
            .values(&compiled, &evidence, &vars)
            .unwrap()
            .to_vec();
        let mut myopic = LookaheadPlanner::new(&compiled, 1).unwrap();
        let base = myopic.values(&compiled, &evidence, &vars).unwrap().to_vec();
        assert_eq!(zeroed, base);
        // γ = 1 never scores below the default discount.
        planner.set_discount(1.0).unwrap();
        let undiscounted = planner
            .values(&compiled, &evidence, &vars)
            .unwrap()
            .to_vec();
        for (u, z) in undiscounted.iter().zip(&zeroed) {
            assert!(u >= z);
        }
    }
}
