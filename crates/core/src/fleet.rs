//! # Model lifecycle: fleet learning with versioned hot-swap serving
//!
//! The paper fits CPTs from ATE datalogs once, offline. A production
//! diagnosis server sees a steady stream of *new* datalogs — every
//! completed session is one more row of evidence about how the fleet
//! actually fails and how long its measurements actually take. This
//! module closes that loop:
//!
//! 1. **Trace aggregation** — a [`TraceAggregator`] folds completed
//!    session observations into per-model sufficient statistics
//!    (deduplicated outcome counts per variable assignment, wall-cost
//!    samples per measurement) behind one short mutex append that stays
//!    off the inference hot path.
//! 2. **Background refit** — a [`Refitter`] thread watches every
//!    [`ModelLifecycle`] and, once enough new rows accumulated
//!    ([`RefitPolicy::min_rows`]), snapshots the aggregate and re-fits
//!    the CPTs with the same [`fit_em`] kernel the offline pipeline
//!    uses, seeded by the incumbent's own parameters as a Dirichlet
//!    prior ([`RefitPolicy::ess`]). Observed tester-seconds become
//!    per-measurement [`CostModel`] prices.
//! 3. **Conformance gate + staged rollout** — a candidate is promoted
//!    only after it (a) reproduces the pinned top candidate on every
//!    reference scenario ([`crate::conformance::verify`]) and (b) scores
//!    the recent-trace holdout no worse than the incumbent by more than
//!    [`RefitPolicy::holdout_tolerance`] nats of mean log-likelihood.
//!    Promotion appends a new immutable version and atomically redirects
//!    the *default* `Arc<CompiledModel>`; sessions opened before the
//!    swap keep serving off the `Arc` they captured until they close
//!    (nothing is ever mutated in place), and [`ModelLifecycle::activate`]
//!    rolls the default back to any retained version. A rejected
//!    candidate is reported with a structured [`GateRejection`], never
//!    silently dropped.
//!
//! The server exposes this machinery as `POST /v1/models/{name}/refit`,
//! `GET /v1/models/{name}/versions`, `POST /v1/models/{name}/activate`
//! and `name@vN` model references; see the `abbd-server` crate docs.

use crate::builder::DiagnosticModel;
use crate::conformance::{self, ReplayCase};
use crate::diagnosis::Observation;
use crate::error::{Error, Result};
use crate::planner::CostModel;
use crate::session::CompiledModel;
use abbd_bbn::learn::{fit_em, Case, DirichletPrior, EmConfig};
use abbd_bbn::VarId;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread;
use std::time::Duration;

/// When and how a background refit runs.
#[derive(Debug, Clone, PartialEq)]
pub struct RefitPolicy {
    /// Aggregated rows (completed traces) required since the last refit
    /// attempt before a new fit is worth running.
    pub min_rows: u64,
    /// EM knobs for the background fit.
    pub em: EmConfig,
    /// Equivalent sample size anchoring the fit to the incumbent's CPTs.
    /// Deliberately below the offline pipeline's expert ESS: production
    /// traces must be able to move drifted priors.
    pub ess: f64,
    /// Capacity of the recent-trace holdout ring the gate scores
    /// candidates on.
    pub holdout: usize,
    /// How many nats of *mean* holdout log-likelihood a candidate may
    /// lose against the incumbent before the gate rejects it.
    pub holdout_tolerance: f64,
}

impl Default for RefitPolicy {
    fn default() -> Self {
        RefitPolicy {
            min_rows: 32,
            em: EmConfig {
                max_iterations: 20,
                tolerance: 1e-5,
            },
            ess: 30.0,
            holdout: 64,
            holdout_tolerance: 0.5,
        }
    }
}

/// Deduplicated per-model sufficient statistics accumulated from
/// completed sessions.
///
/// The append path is one short mutex hold over three `BTreeMap`
/// insertions — no inference, no allocation proportional to the model —
/// so it never competes with the propagation workspaces on the request
/// hot path. The refitter drains it via [`TraceAggregator::snapshot`]
/// without blocking appends for longer than a clone.
#[derive(Debug)]
pub struct TraceAggregator {
    /// `name -> (id, cardinality)` captured at construction; variable
    /// identity is stable across refits because every candidate reuses
    /// the incumbent's structure.
    vars: BTreeMap<String, (VarId, usize)>,
    rows: AtomicU64,
    holdout_cap: usize,
    inner: Mutex<AggregateInner>,
}

#[derive(Debug, Default)]
struct AggregateInner {
    /// Deduplicated outcome counts: sorted `(var, state)` assignment ->
    /// accumulated case weight.
    dedup: BTreeMap<Vec<(VarId, usize)>, f64>,
    /// Ring of the most recent completed observations (the gate's
    /// holdout). Holdout rows also count toward the training aggregate:
    /// the gate is a corruption detector, not model selection.
    holdout: VecDeque<Observation>,
    /// `variable -> (total observed seconds, sample count)`.
    costs: BTreeMap<String, (f64, u64)>,
}

/// A point-in-time copy of the aggregate, consumed by one refit.
#[derive(Debug, Clone)]
pub struct AggregateSnapshot {
    /// Completed traces folded in so far.
    pub rows: u64,
    /// Weighted, deduplicated learning cases.
    pub cases: Vec<Case>,
    /// The most recent completed observations, oldest first.
    pub holdout: Vec<Observation>,
    /// `(variable, mean observed seconds, sample count)` per measured
    /// variable.
    pub costs: Vec<(String, f64, u64)>,
}

impl TraceAggregator {
    /// An empty aggregate bound to `compiled`'s variable universe, with a
    /// holdout ring of `holdout_cap` recent observations.
    pub fn new(compiled: &CompiledModel, holdout_cap: usize) -> Self {
        let model = compiled.model();
        let net = model.network();
        let vars = model
            .circuit_model()
            .spec()
            .variables()
            .iter()
            .filter_map(|v| {
                let id = model.var(&v.name).ok()?;
                Some((v.name.clone(), (id, net.card(id))))
            })
            .collect();
        TraceAggregator {
            vars,
            rows: AtomicU64::new(0),
            holdout_cap,
            inner: Mutex::new(AggregateInner::default()),
        }
    }

    /// Folds one *completed* trace into the aggregate: the device's
    /// cumulative observation becomes a weighted learning case and joins
    /// the holdout ring; `timings` (observed `(variable, seconds)`) feed
    /// the cost statistics. Unknown variables and out-of-range states
    /// are skipped — the serving layer already validated the round, so a
    /// residue here means the observation came from another model and
    /// must not poison this one's statistics. Returns `false` when
    /// nothing in the observation mapped onto this model.
    pub fn record(&self, observation: &Observation, timings: &[(String, f64)]) -> bool {
        let mut key: Vec<(VarId, usize)> = observation
            .iter()
            .filter_map(|(name, state)| {
                let &(id, card) = self.vars.get(name)?;
                (state < card).then_some((id, state))
            })
            .collect();
        if key.is_empty() {
            return false;
        }
        key.sort_unstable();
        let mut inner = self.inner.lock().expect("aggregate mutex");
        *inner.dedup.entry(key).or_insert(0.0) += 1.0;
        inner.holdout.push_back(observation.clone());
        while inner.holdout.len() > self.holdout_cap {
            inner.holdout.pop_front();
        }
        Self::fold_timings(&mut inner, &self.vars, timings);
        drop(inner);
        self.rows.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Folds measurement timings from a non-terminal round (cost samples
    /// are useful even when the device walks away before isolation). A
    /// no-op for the empty slice — the common case on the hot path.
    pub fn record_timings(&self, timings: &[(String, f64)]) {
        if timings.is_empty() {
            return;
        }
        let mut inner = self.inner.lock().expect("aggregate mutex");
        Self::fold_timings(&mut inner, &self.vars, timings);
    }

    fn fold_timings(
        inner: &mut AggregateInner,
        vars: &BTreeMap<String, (VarId, usize)>,
        timings: &[(String, f64)],
    ) {
        for (name, seconds) in timings {
            if !seconds.is_finite() || *seconds <= 0.0 || !vars.contains_key(name) {
                continue;
            }
            let slot = inner.costs.entry(name.clone()).or_insert((0.0, 0));
            slot.0 += seconds;
            slot.1 += 1;
        }
    }

    /// Completed traces folded in so far (lock-free read).
    pub fn rows(&self) -> u64 {
        self.rows.load(Ordering::Relaxed)
    }

    /// Copies the current aggregate out for a refit.
    pub fn snapshot(&self) -> AggregateSnapshot {
        let inner = self.inner.lock().expect("aggregate mutex");
        let cases = inner
            .dedup
            .iter()
            .map(|(key, weight)| {
                let mut case = Case::from_pairs(key.iter().copied());
                case.set_weight(*weight);
                case
            })
            .collect();
        AggregateSnapshot {
            rows: self.rows.load(Ordering::Relaxed),
            cases,
            holdout: inner.holdout.iter().cloned().collect(),
            costs: inner
                .costs
                .iter()
                .map(|(name, (total, n))| (name.clone(), total / *n as f64, *n))
                .collect(),
        }
    }
}

/// Why the conformance gate refused to promote a candidate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum GateRejection {
    /// Too few aggregated rows to fit from.
    InsufficientData {
        /// Rows available.
        rows: u64,
        /// Rows the policy requires.
        min: u64,
    },
    /// The EM fit itself failed (empty/unusable datalog, shape errors).
    FitFailed {
        /// The underlying learning error, rendered.
        reason: String,
    },
    /// The fitted network would not compile into a serving artifact.
    CompileFailed {
        /// The underlying compile error, rendered.
        reason: String,
    },
    /// A reference scenario no longer isolates its pinned top candidate.
    ReferenceMismatch {
        /// The reference scenario's label.
        scenario: String,
        /// The pinned expectation.
        expected: Option<String>,
        /// What the candidate concluded instead.
        got: Option<String>,
    },
    /// A reference scenario failed to replay at all under the candidate.
    ReplayFailed {
        /// The reference scenario's label.
        scenario: String,
        /// The underlying replay error, rendered.
        reason: String,
    },
    /// The candidate scores the recent-trace holdout materially worse
    /// than the incumbent.
    HoldoutRegression {
        /// Candidate mean log-likelihood over the holdout.
        candidate: f64,
        /// Incumbent mean log-likelihood over the holdout.
        incumbent: f64,
        /// The tolerance the regression exceeded.
        tolerance: f64,
    },
}

impl fmt::Display for GateRejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateRejection::InsufficientData { rows, min } => {
                write!(f, "only {rows} aggregated rows, {min} required")
            }
            GateRejection::FitFailed { reason } => write!(f, "refit failed: {reason}"),
            GateRejection::CompileFailed { reason } => {
                write!(f, "candidate failed to compile: {reason}")
            }
            GateRejection::ReferenceMismatch {
                scenario,
                expected,
                got,
            } => write!(
                f,
                "reference `{scenario}` expected top candidate {expected:?}, candidate \
                 concluded {got:?}"
            ),
            GateRejection::ReplayFailed { scenario, reason } => {
                write!(f, "reference `{scenario}` failed to replay: {reason}")
            }
            GateRejection::HoldoutRegression {
                candidate,
                incumbent,
                tolerance,
            } => write!(
                f,
                "holdout mean log-likelihood regressed {candidate:.4} vs incumbent \
                 {incumbent:.4} (tolerance {tolerance})"
            ),
        }
    }
}

/// The outcome of one refit (or externally submitted candidate) run
/// through the conformance gate — returned whether or not the candidate
/// was promoted, so a caller always sees *why*.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RefitReport {
    /// The lifecycle's model name.
    pub model: String,
    /// `true` when the candidate passed the gate and became the default.
    pub promoted: bool,
    /// The version the candidate was installed as, when promoted.
    pub version: Option<u32>,
    /// The default version after this run (unchanged on rejection).
    pub active_version: u32,
    /// Aggregated rows at snapshot time.
    pub rows: u64,
    /// Holdout observations the gate scored.
    pub holdout_cases: usize,
    /// Reference scenarios the gate replayed.
    pub references_checked: usize,
    /// Why the candidate was rejected, when it was.
    pub rejection: Option<GateRejection>,
}

/// One registered version of a lifecycle-managed model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VersionInfo {
    /// 1-based version number (`v1` is the seed compile).
    pub version: u32,
    /// `true` for the version new sessions currently open against.
    pub active: bool,
    /// Where the version came from (`"seed"`, `"refit"`, `"submitted"`).
    pub source: String,
    /// Aggregated rows the version was fitted from (0 for the seed).
    pub rows_fitted: u64,
    /// Mean observed tester-seconds per measurement at fit time.
    pub learned_costs: Vec<(String, f64)>,
}

#[derive(Debug)]
struct VersionEntry {
    compiled: Arc<CompiledModel>,
    source: String,
    rows_fitted: u64,
    learned_costs: Vec<(String, f64)>,
}

#[derive(Debug)]
struct Versions {
    entries: Vec<VersionEntry>,
    active: usize,
}

/// The versioned serving state of one model: every compiled version ever
/// promoted, the index of the current default, the trace aggregate
/// feeding the next refit, and the reference corpus the gate replays.
///
/// `active()` hands out `Arc<CompiledModel>` clones; a hot-swap only
/// repoints the default index under a write lock held for a few stores,
/// so in-flight sessions — which own the `Arc` they started with — are
/// never interrupted and finish on their pinned compile.
#[derive(Debug)]
pub struct ModelLifecycle {
    name: String,
    versions: RwLock<Versions>,
    aggregator: TraceAggregator,
    references: Vec<ReplayCase>,
    policy: RefitPolicy,
    /// Serialises refits: concurrent triggers queue rather than racing
    /// two fits over the same snapshot.
    refit_gate: Mutex<()>,
    refits_run: AtomicU64,
    refits_rejected: AtomicU64,
    last_attempt_rows: AtomicU64,
    rounds: AtomicU64,
}

impl ModelLifecycle {
    /// Wraps a seed compile (version 1, immediately active) with a
    /// reference corpus and a refit policy.
    pub fn new(
        name: impl Into<String>,
        compiled: Arc<CompiledModel>,
        references: Vec<ReplayCase>,
        policy: RefitPolicy,
    ) -> Self {
        let aggregator = TraceAggregator::new(&compiled, policy.holdout);
        ModelLifecycle {
            name: name.into(),
            versions: RwLock::new(Versions {
                entries: vec![VersionEntry {
                    compiled,
                    source: "seed".into(),
                    rows_fitted: 0,
                    learned_costs: Vec::new(),
                }],
                active: 0,
            }),
            aggregator,
            references,
            policy,
            refit_gate: Mutex::new(()),
            refits_run: AtomicU64::new(0),
            refits_rejected: AtomicU64::new(0),
            last_attempt_rows: AtomicU64::new(0),
            rounds: AtomicU64::new(0),
        }
    }

    /// Wraps the lifecycle for concurrent sharing.
    pub fn shared(self) -> Arc<Self> {
        Arc::new(self)
    }

    /// The model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The refit policy.
    pub fn policy(&self) -> &RefitPolicy {
        &self.policy
    }

    /// The trace aggregate feeding the next refit.
    pub fn aggregator(&self) -> &TraceAggregator {
        &self.aggregator
    }

    /// The compiled model new sessions should open against (the atomic
    /// hot-swap point: one read lock, one `Arc` clone).
    pub fn active(&self) -> Arc<CompiledModel> {
        let v = self.versions.read().expect("version lock");
        Arc::clone(&v.entries[v.active].compiled)
    }

    /// The 1-based version number of the current default.
    pub fn active_version(&self) -> u32 {
        self.versions.read().expect("version lock").active as u32 + 1
    }

    /// A specific retained version, if it exists.
    pub fn version(&self, version: u32) -> Option<Arc<CompiledModel>> {
        let v = self.versions.read().expect("version lock");
        v.entries
            .get(version.checked_sub(1)? as usize)
            .map(|e| Arc::clone(&e.compiled))
    }

    /// Metadata for every retained version, oldest first.
    pub fn versions(&self) -> Vec<VersionInfo> {
        let v = self.versions.read().expect("version lock");
        v.entries
            .iter()
            .enumerate()
            .map(|(i, e)| VersionInfo {
                version: i as u32 + 1,
                active: i == v.active,
                source: e.source.clone(),
                rows_fitted: e.rows_fitted,
                learned_costs: e.learned_costs.clone(),
            })
            .collect()
    }

    /// Repoints the default at a retained version (rollback or
    /// roll-forward). Sessions already open keep their pinned compile.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Fleet`] for an unknown version.
    pub fn activate(&self, version: u32) -> Result<u32> {
        let mut v = self.versions.write().expect("version lock");
        let idx = version
            .checked_sub(1)
            .map(|i| i as usize)
            .filter(|&i| i < v.entries.len())
            .ok_or_else(|| {
                Error::Fleet(format!(
                    "unknown version {version} for model `{}` ({} retained)",
                    self.name,
                    v.entries.len()
                ))
            })?;
        v.active = idx;
        Ok(version)
    }

    /// The active version's learned measurement prices as a cost model
    /// (unit costs overridden by the observed per-test means), when any
    /// timings were aggregated at fit time.
    pub fn learned_cost_model(&self) -> Option<CostModel> {
        let v = self.versions.read().expect("version lock");
        let entry = &v.entries[v.active];
        if entry.learned_costs.is_empty() {
            return None;
        }
        let mut cm = CostModel::unit();
        for (name, seconds) in &entry.learned_costs {
            // Aggregated means are finite and positive by construction.
            cm.set_cost(name, *seconds).ok()?;
        }
        Some(cm)
    }

    /// Completed traces aggregated so far.
    pub fn traces_aggregated(&self) -> u64 {
        self.aggregator.rows()
    }

    /// Refit attempts (background or endpoint-triggered, including
    /// submitted candidates).
    pub fn refits_run(&self) -> u64 {
        self.refits_run.load(Ordering::Relaxed)
    }

    /// Refit attempts the gate rejected.
    pub fn refits_rejected(&self) -> u64 {
        self.refits_rejected.load(Ordering::Relaxed)
    }

    /// Counts one served decision round against this model.
    pub fn note_round(&self) {
        self.rounds.fetch_add(1, Ordering::Relaxed);
    }

    /// Decision rounds served against this model (all versions).
    pub fn rounds(&self) -> u64 {
        self.rounds.load(Ordering::Relaxed)
    }

    /// `true` when enough rows accumulated since the last refit attempt
    /// for the background refitter to bother.
    pub fn due(&self) -> bool {
        self.aggregator.rows() - self.last_attempt_rows.load(Ordering::Relaxed)
            >= self.policy.min_rows
    }

    /// Runs one full refit: snapshot, EM fit seeded by the incumbent,
    /// compile, gate, and — on a pass — promotion to the new default.
    /// Never returns an error: every failure mode is a structured
    /// [`GateRejection`] in the report.
    pub fn refit(&self) -> RefitReport {
        let _serialised = self.refit_gate.lock().expect("refit gate");
        self.refits_run.fetch_add(1, Ordering::Relaxed);
        let rows = self.aggregator.rows();
        self.last_attempt_rows.store(rows, Ordering::Relaxed);
        if rows < self.policy.min_rows {
            return self.rejected(
                rows,
                0,
                GateRejection::InsufficientData {
                    rows,
                    min: self.policy.min_rows,
                },
            );
        }
        let snapshot = self.aggregator.snapshot();
        let incumbent = self.active();
        let net = incumbent.model().network();
        let prior = DirichletPrior::from_network(net, self.policy.ess);
        let outcome = match fit_em(net, &snapshot.cases, &prior, &self.policy.em) {
            Ok(o) => o,
            Err(e) => {
                return self.rejected(
                    rows,
                    snapshot.holdout.len(),
                    GateRejection::FitFailed {
                        reason: e.to_string(),
                    },
                )
            }
        };
        let candidate = match compile_candidate(&incumbent, outcome.network) {
            Ok(c) => c,
            Err(e) => {
                return self.rejected(
                    rows,
                    snapshot.holdout.len(),
                    GateRejection::CompileFailed {
                        reason: e.to_string(),
                    },
                )
            }
        };
        self.gate_and_promote(candidate, &incumbent, &snapshot, "refit")
    }

    /// Runs an externally built candidate through the same gate (the
    /// staged-rollout entry: a candidate fitted elsewhere must clear the
    /// identical conformance bar before serving).
    pub fn submit(&self, candidate: Arc<CompiledModel>, source: &str) -> RefitReport {
        let _serialised = self.refit_gate.lock().expect("refit gate");
        self.refits_run.fetch_add(1, Ordering::Relaxed);
        let snapshot = self.aggregator.snapshot();
        let incumbent = self.active();
        self.gate_and_promote(candidate, &incumbent, &snapshot, source)
    }

    fn gate_and_promote(
        &self,
        candidate: Arc<CompiledModel>,
        incumbent: &Arc<CompiledModel>,
        snapshot: &AggregateSnapshot,
        source: &str,
    ) -> RefitReport {
        if let Some(rejection) = self.gate(&candidate, incumbent, snapshot) {
            return self.rejected(snapshot.rows, snapshot.holdout.len(), rejection);
        }
        let learned_costs: Vec<(String, f64)> = snapshot
            .costs
            .iter()
            .map(|(name, mean, _)| (name.clone(), *mean))
            .collect();
        let version = {
            let mut v = self.versions.write().expect("version lock");
            v.entries.push(VersionEntry {
                compiled: candidate,
                source: source.into(),
                rows_fitted: snapshot.rows,
                learned_costs,
            });
            v.active = v.entries.len() - 1;
            v.entries.len() as u32
        };
        RefitReport {
            model: self.name.clone(),
            promoted: true,
            version: Some(version),
            active_version: version,
            rows: snapshot.rows,
            holdout_cases: snapshot.holdout.len(),
            references_checked: self.references.len(),
            rejection: None,
        }
    }

    /// The conformance gate: reference replay, then holdout scoring.
    fn gate(
        &self,
        candidate: &Arc<CompiledModel>,
        incumbent: &Arc<CompiledModel>,
        snapshot: &AggregateSnapshot,
    ) -> Option<GateRejection> {
        match conformance::verify(candidate, &self.references) {
            Err(e) => {
                return Some(GateRejection::ReplayFailed {
                    scenario: "<corpus>".into(),
                    reason: e.to_string(),
                })
            }
            Ok(mismatches) => {
                if let Some(m) = mismatches.into_iter().next() {
                    return Some(GateRejection::ReferenceMismatch {
                        scenario: m.name,
                        expected: m.expected,
                        got: m.got,
                    });
                }
            }
        }
        if snapshot.holdout.is_empty() {
            return None;
        }
        let mut cand_sum = 0.0;
        let mut inc_sum = 0.0;
        let mut scored = 0usize;
        let mut cand_ws = candidate.make_workspace();
        let mut inc_ws = incumbent.make_workspace();
        for obs in &snapshot.holdout {
            // A holdout row the *incumbent* cannot explain carries no
            // comparative signal; skip it for both models.
            let Some(inc_ll) = log_likelihood_of(incumbent, &mut inc_ws, obs) else {
                continue;
            };
            // The same row impossible under the *candidate* is the
            // sharpest regression there is.
            let Some(cand_ll) = log_likelihood_of(candidate, &mut cand_ws, obs) else {
                return Some(GateRejection::HoldoutRegression {
                    candidate: f64::NEG_INFINITY,
                    incumbent: inc_ll,
                    tolerance: self.policy.holdout_tolerance,
                });
            };
            cand_sum += cand_ll;
            inc_sum += inc_ll;
            scored += 1;
        }
        if scored > 0 {
            let cand_mean = cand_sum / scored as f64;
            let inc_mean = inc_sum / scored as f64;
            if cand_mean < inc_mean - self.policy.holdout_tolerance {
                return Some(GateRejection::HoldoutRegression {
                    candidate: cand_mean,
                    incumbent: inc_mean,
                    tolerance: self.policy.holdout_tolerance,
                });
            }
        }
        None
    }

    fn rejected(&self, rows: u64, holdout_cases: usize, rejection: GateRejection) -> RefitReport {
        self.refits_rejected.fetch_add(1, Ordering::Relaxed);
        RefitReport {
            model: self.name.clone(),
            promoted: false,
            version: None,
            active_version: self.active_version(),
            rows,
            holdout_cases,
            references_checked: self.references.len(),
            rejection: Some(rejection),
        }
    }
}

/// Compiles a refit network into a serving artifact, reusing the
/// incumbent's structure and deduction policy. This is the companion to
/// [`ModelLifecycle::submit`]: candidates fitted outside the lifecycle
/// (a batch job, another site) are compiled here and then pushed through
/// the same conformance gate as an in-process refit.
///
/// # Errors
///
/// Propagates junction-tree compilation errors.
pub fn compile_candidate(
    incumbent: &Arc<CompiledModel>,
    network: abbd_bbn::Network,
) -> Result<Arc<CompiledModel>> {
    let model = DiagnosticModel::from_parts(incumbent.model().circuit_model().clone(), network);
    Ok(CompiledModel::compile(model)?
        .with_policy(*incumbent.policy())?
        .shared())
}

/// `ln P(observation)` under `compiled`, or `None` when the observation
/// is impossible (or malformed) under it.
fn log_likelihood_of(
    compiled: &Arc<CompiledModel>,
    ws: &mut abbd_bbn::PropagationWorkspace,
    observation: &Observation,
) -> Option<f64> {
    let evidence = compiled.evidence_from(observation).ok()?;
    compiled
        .jt()
        .propagate_in(ws, &evidence)
        .ok()
        .map(|cal| cal.log_likelihood())
}

/// The background refit thread: polls a set of lifecycles on a fixed
/// interval and runs [`ModelLifecycle::refit`] on whichever are
/// [`ModelLifecycle::due`]. Compilation happens entirely on this thread,
/// so the serving workers' compile counters stay untouched (the
/// zero-compile steady-state invariant survives a refit). Dropping the
/// refitter stops and joins it promptly.
#[derive(Debug)]
pub struct Refitter {
    shared: Arc<RefitterShared>,
    handle: Option<thread::JoinHandle<()>>,
}

#[derive(Debug)]
struct RefitterShared {
    stop: Mutex<bool>,
    wake: Condvar,
    ticks: AtomicU64,
}

impl Refitter {
    /// Spawns the background thread over `lifecycles`, checking every
    /// `interval`.
    pub fn spawn(lifecycles: Vec<Arc<ModelLifecycle>>, interval: Duration) -> Self {
        let shared = Arc::new(RefitterShared {
            stop: Mutex::new(false),
            wake: Condvar::new(),
            ticks: AtomicU64::new(0),
        });
        let thread_shared = Arc::clone(&shared);
        let handle = thread::Builder::new()
            .name("abbd-refitter".into())
            .spawn(move || loop {
                {
                    let mut stopped = thread_shared.stop.lock().expect("refitter stop lock");
                    while !*stopped {
                        let (guard, timeout) = thread_shared
                            .wake
                            .wait_timeout(stopped, interval)
                            .expect("refitter stop lock");
                        stopped = guard;
                        if timeout.timed_out() {
                            break;
                        }
                    }
                    if *stopped {
                        return;
                    }
                }
                for lifecycle in &lifecycles {
                    if lifecycle.due() {
                        let _report = lifecycle.refit();
                    }
                }
                thread_shared.ticks.fetch_add(1, Ordering::Relaxed);
            })
            .expect("refitter thread spawns");
        Refitter {
            shared,
            handle: Some(handle),
        }
    }

    /// Poll cycles completed (each cycle checks every lifecycle once).
    pub fn ticks(&self) -> u64 {
        self.shared.ticks.load(Ordering::Relaxed)
    }

    /// Stops and joins the thread (idempotent; also runs on drop).
    pub fn stop(&mut self) {
        *self.shared.stop.lock().expect("refitter stop lock") = true;
        self.shared.wake.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Refitter {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use crate::session::SessionRequest;

    fn toy() -> Arc<CompiledModel> {
        fixtures::toy_compiled_model()
    }

    /// A terminal-ish observation over the toy model's observables.
    fn obs(out1: usize, out2: usize, out3: usize) -> Observation {
        let mut o = Observation::new();
        o.set("pin", 1)
            .set("out1", out1)
            .set("out2", out2)
            .set("out3", out3);
        o
    }

    fn quick_policy() -> RefitPolicy {
        RefitPolicy {
            min_rows: 8,
            em: EmConfig {
                max_iterations: 10,
                tolerance: 1e-6,
            },
            ess: 10.0,
            holdout: 16,
            holdout_tolerance: 1.0,
        }
    }

    fn seeded_lifecycle() -> ModelLifecycle {
        let compiled = toy();
        let references =
            conformance::self_references(&compiled, [("bad-out1".to_string(), obs(0, 0, 1))])
                .unwrap();
        ModelLifecycle::new("toy", compiled, references, quick_policy())
    }

    fn feed(lc: &ModelLifecycle, n: usize) {
        for i in 0..n {
            let o = obs(i % 2, (i / 2) % 2, 1);
            assert!(lc.aggregator().record(&o, &[("out1".into(), 2.5)]));
        }
    }

    #[test]
    fn aggregator_dedups_and_prices() {
        let compiled = toy();
        let agg = TraceAggregator::new(&compiled, 4);
        for _ in 0..6 {
            agg.record(&obs(0, 1, 1), &[("out2".into(), 4.0)]);
        }
        agg.record(&obs(1, 1, 1), &[("out2".into(), 2.0)]);
        // Unknown variables and out-of-range states are skipped whole.
        let mut foreign = Observation::new();
        foreign.set("not-a-var", 0);
        assert!(!agg.record(&foreign, &[]));
        agg.record_timings(&[("out3".into(), 1.0), ("bogus".into(), f64::NAN)]);

        let snap = agg.snapshot();
        assert_eq!(snap.rows, 7);
        assert_eq!(snap.cases.len(), 2, "dedup collapses repeated outcomes");
        let total_weight: f64 = snap.cases.iter().map(|c| c.weight()).sum();
        assert_eq!(total_weight, 7.0);
        assert_eq!(snap.holdout.len(), 4, "holdout ring is bounded");
        let out2 = snap.costs.iter().find(|(n, _, _)| n == "out2").unwrap();
        assert!((out2.1 - (6.0 * 4.0 + 2.0) / 7.0).abs() < 1e-12);
        assert_eq!(out2.2, 7);
        assert!(snap.costs.iter().any(|(n, _, _)| n == "out3"));
        assert!(!snap.costs.iter().any(|(n, _, _)| n == "bogus"));
    }

    #[test]
    fn refit_below_min_rows_is_rejected_structurally() {
        let lc = seeded_lifecycle();
        let report = lc.refit();
        assert!(!report.promoted);
        assert!(matches!(
            report.rejection,
            Some(GateRejection::InsufficientData { rows: 0, min: 8 })
        ));
        assert_eq!(lc.refits_run(), 1);
        assert_eq!(lc.refits_rejected(), 1);
        assert_eq!(lc.active_version(), 1);
    }

    #[test]
    fn refit_promotes_and_rollback_restores() {
        let lc = seeded_lifecycle();
        feed(&lc, 24);
        assert!(lc.due());
        let seed = lc.active();
        let report = lc.refit();
        assert!(report.promoted, "rejection: {:?}", report.rejection);
        assert_eq!(report.version, Some(2));
        assert_eq!(lc.active_version(), 2);
        assert!(!Arc::ptr_eq(&seed, &lc.active()), "default was swapped");
        assert!(lc.version(1).is_some(), "old version stays retained");
        let infos = lc.versions();
        assert_eq!(infos.len(), 2);
        assert!(!infos[0].active && infos[1].active);
        assert_eq!(infos[1].source, "refit");
        assert_eq!(infos[1].rows_fitted, 24);
        assert!(infos[1].learned_costs.iter().any(|(n, _)| n == "out1"));
        let cm = lc.learned_cost_model().expect("timings were aggregated");
        assert!((cm.cost_of("out1", false) - 2.5).abs() < 1e-12);

        // Rollback repoints the default without dropping v2.
        assert_eq!(lc.activate(1).unwrap(), 1);
        assert!(Arc::ptr_eq(&seed, &lc.active()));
        assert!(lc.version(2).is_some());
        assert!(matches!(lc.activate(9), Err(Error::Fleet(_))));
        assert!(matches!(lc.activate(0), Err(Error::Fleet(_))));
    }

    #[test]
    fn sessions_pin_their_compile_across_a_swap() {
        let lc = seeded_lifecycle();
        feed(&lc, 24);
        let pinned = lc.active();
        let mut session =
            crate::session::DiagnosisSession::new(Arc::clone(&pinned), Default::default()).unwrap();
        let before = session
            .serve_round(&SessionRequest::new(obs(0, 0, 1)))
            .unwrap();
        assert!(lc.refit().promoted);
        // The open session still serves — off the same Arc it captured.
        let after = session
            .serve_round(&SessionRequest::new(obs(0, 0, 1)))
            .unwrap();
        assert_eq!(before.posteriors, after.posteriors);
        assert!(Arc::ptr_eq(session.compiled(), &pinned));
    }

    #[test]
    fn corrupted_candidate_is_rejected_with_a_structured_reason() {
        let lc = seeded_lifecycle();
        feed(&lc, 24);
        // Build a candidate whose CPT rows are reversed — a maximally
        // wrong but structurally valid model.
        let incumbent = lc.active();
        let mut net = incumbent.model().network().clone();
        for v in incumbent.model().network().variables() {
            let card = incumbent.model().network().card(v);
            let scrambled: Vec<f64> = incumbent
                .model()
                .network()
                .cpt(v)
                .chunks(card)
                .flat_map(|row| row.iter().rev().copied().collect::<Vec<_>>())
                .collect();
            net.set_cpt_values(v, scrambled).unwrap();
        }
        let candidate = compile_candidate(&incumbent, net).unwrap();
        let report = lc.submit(candidate, "submitted");
        assert!(!report.promoted);
        let rejection = report.rejection.expect("structured reason");
        assert!(
            matches!(
                rejection,
                GateRejection::ReferenceMismatch { .. } | GateRejection::HoldoutRegression { .. }
            ),
            "got: {rejection}"
        );
        assert!(!rejection.to_string().is_empty());
        assert_eq!(lc.active_version(), 1, "default untouched");
    }

    #[test]
    fn background_refitter_promotes_when_due() {
        let lc = seeded_lifecycle().shared();
        feed(&lc, 24);
        let refitter = Refitter::spawn(vec![Arc::clone(&lc)], Duration::from_millis(5));
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while lc.active_version() == 1 && std::time::Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
        drop(refitter);
        assert_eq!(lc.active_version(), 2, "background refit promoted");
        assert_eq!(lc.refits_run(), 1, "refitter only fits when due");
    }
}
