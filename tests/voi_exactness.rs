//! VOI exactness: the absorption kernel behind
//! `DiagnosisSession::rank_actions` against the full-propagation scorer it
//! replaced, and against its own history.
//!
//! The oracle here is the old kernel, written on the public junction-tree
//! API: one full `propagate_hypotheticals_in` per candidate outcome, the
//! latents' entropies read from the fully calibrated tree. Every gain the
//! session reports must lie within 1e-12 of it, and the session must
//! choose what the oracle's scores choose under the same ranking rule and
//! stop where they stop. The work counters pin how much cheaper a myopic
//! decision became, message for message.
//!
//! Run in release (CI step "VOI exactness"):
//!
//! ```text
//! cargo test --release --test voi_exactness
//! ```

use abbd::bbn::{jointree_work_counts, Evidence, JunctionTree, VarId, WorkCounts};
use abbd::core::{
    Action, CompiledModel, CostModel, DiagnosisSession, HierarchicalSession, LearnAlgorithm,
    ModelBuilder, Observation, Outcome, SessionRequest, StopReason, StoppingPolicy, Strategy,
};
use abbd::designs::board::{self, BoardConfig};
use abbd::designs::regulator::{self, adaptive::reference_cost_model, cases::case_studies, grid};
use abbd::scenarios::{sample_model_population, scenario_executor, FaultKind, FaultLibrary};
use std::collections::HashMap;
use std::sync::Arc;

/// The regulator exactly as `abbd-serve` fits it (EM, 24 devices, seed 42).
fn serving_regulator() -> Arc<CompiledModel> {
    let algorithm = LearnAlgorithm::Em(abbd::bbn::learn::EmConfig {
        max_iterations: 8,
        tolerance: 1e-4,
    });
    let fitted = regulator::fit(24, 42, algorithm).expect("regulator pipeline runs");
    Arc::clone(&fitted.engine)
}

/// Skipped-outcome floor of the scorer (the same 1e-12 the kernel uses).
const PROB_FLOOR: f64 = 1e-12;
/// The exactness bound every gain must meet.
const GAIN_TOLERANCE: f64 = 1e-12;
/// The tie width of `rank_actions` (absolute up to 1, relative above).
const SCORE_TIE: f64 = 1e-12;

/// The full-propagation scorer, over trees compiled from each model's
/// network (cached per compiled model).
#[derive(Default)]
struct Oracle {
    trees: HashMap<*const CompiledModel, JunctionTree>,
    /// Largest |session gain − oracle gain| seen.
    max_delta: f64,
    gains: usize,
    decisions: usize,
    stops: usize,
}

impl Oracle {
    /// The oracle's one-step gain of each candidate of `session`, on the
    /// session's current observation.
    fn gains(&mut self, session: &DiagnosisSession) -> Vec<f64> {
        let compiled = session.compiled();
        let model = compiled.model();
        let jt = self
            .trees
            .entry(Arc::as_ptr(compiled))
            .or_insert_with(|| JunctionTree::compile(model.network()).expect("tree compiles"));
        let evidence = compiled
            .evidence_from(session.observation())
            .expect("evidence maps");
        let latents: Vec<VarId> = compiled
            .latent_names()
            .map(|n| model.var(n).unwrap())
            .collect();
        let mut base_ws = jt.make_workspace();
        let mut hyp_ws = jt.make_workspace();
        let base = jt.propagate_in(&mut base_ws, &evidence).expect("base");
        let total: f64 = latents
            .iter()
            .map(|&v| base.posterior_entropy(v).unwrap())
            .sum();
        session
            .actions()
            .iter()
            .map(|c| {
                let m = model.var(c.name()).unwrap();
                let own = if latents.contains(&m) {
                    base.posterior_entropy(m).unwrap()
                } else {
                    0.0
                };
                let dist = base.posterior(m).unwrap();
                let mut after = 0.0;
                for (state, &p) in dist.iter().enumerate() {
                    if p <= PROB_FLOOR {
                        continue;
                    }
                    let view = jt
                        .propagate_hypotheticals_in(&mut hyp_ws, &evidence, &[(m, state)])
                        .expect("hypothetical");
                    let h: f64 = latents
                        .iter()
                        .filter(|&&v| v != m)
                        .map(|&v| view.posterior_entropy(v).unwrap())
                        .sum();
                    after += p * h;
                }
                (total - own - after).max(0.0)
            })
            .collect()
    }

    /// Checks a scored candidate set: every gain within tolerance, and
    /// the oracle's scores rank the same candidate first. Returns the
    /// oracle's best gain.
    fn check_scores(&mut self, session: &DiagnosisSession, context: &str) -> f64 {
        let oracle = self.gains(session);
        let actions = session.actions();
        for (c, &want) in actions.iter().zip(&oracle) {
            let delta = (c.expected_information_gain() - want).abs();
            assert!(
                delta <= GAIN_TOLERANCE,
                "{context}: {} gain {} vs oracle {want} (|Δ| = {delta:e})",
                c.name(),
                c.expected_information_gain()
            );
            self.max_delta = self.max_delta.max(delta);
            self.gains += 1;
        }
        // The oracle's choice under rank_actions' rule: best score, ties
        // within SCORE_TIE to the earliest model position.
        let score = |i: usize| match session.strategy() {
            Strategy::Myopic => oracle[i],
            _ => oracle[i] / actions[i].cost(),
        };
        let best = (0..actions.len())
            .map(score)
            .fold(f64::NEG_INFINITY, f64::max);
        let position = |i: usize| session.compiled().model().var(actions[i].name()).unwrap();
        let chosen = (0..actions.len())
            .filter(|&i| {
                (best - score(i)).abs() <= SCORE_TIE * best.abs().max(score(i).abs()).max(1.0)
            })
            .min_by_key(|&i| position(i).index());
        if let Some(i) = chosen {
            assert_eq!(
                actions[0].name(),
                actions[i].name(),
                "{context}: the oracle's scores choose {}",
                actions[i].name()
            );
        }
        oracle.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Checks one stepping decision of the active level: a
    /// recommendation must be the oracle's choice and worth taking; a
    /// gain-driven stop must be one the oracle makes too.
    fn check_step(&mut self, session: &DiagnosisSession, recommended: bool, context: &str) {
        let stop = session.stop_reason();
        match (recommended, stop) {
            (true, _) => {
                let best = self.check_scores(session, context);
                assert!(best >= session.policy().min_gain, "{context}: oracle stops");
                self.decisions += 1;
            }
            (false, Some(StopReason::GainBelowThreshold)) => {
                let best = self.check_scores(session, context);
                assert!(
                    best < session.policy().min_gain,
                    "{context}: oracle goes on"
                );
                self.stops += 1;
            }
            (false, Some(StopReason::Exhausted)) => {
                assert!(session.actions().is_empty(), "{context}");
                self.stops += 1;
            }
            // Isolation and the step budget are decided before scoring.
            (false, _) => {}
        }
    }
}

/// Every unobserved observable as a test plus every latent as a probe.
fn mixed_actions(session: &DiagnosisSession) -> Vec<Action> {
    let compiled = session.compiled();
    let observed = session.observation();
    let mut actions: Vec<Action> = compiled
        .observable_names()
        .filter(|n| observed.state_of(n).is_none())
        .map(Action::test)
        .collect();
    actions.extend(compiled.latent_names().map(Action::probe));
    actions
}

/// Drives a flat session closed-loop against a scenario, checking every
/// decision against the oracle.
fn run_checked<E>(oracle: &mut Oracle, session: &mut DiagnosisSession, mut executor: E, ctx: &str)
where
    E: FnMut(&Action) -> abbd::core::Result<Outcome>,
{
    for step in 0.. {
        let next = session.next_action().expect("next action");
        oracle.check_step(session, next.is_some(), &format!("{ctx} step {step}"));
        let Some(next) = next else { break };
        let outcome = executor(&next.action).expect("executor answers");
        session.apply(&next.action, outcome).expect("apply");
    }
}

#[test]
fn gains_match_the_full_propagation_oracle() {
    let mut oracle = Oracle::default();

    // The paper's d1–d5 from the controls through each case's five
    // measurements, with the default test menu and with every latent
    // added as a probe candidate.
    let regulator = serving_regulator();
    for case in case_studies() {
        for probes in [false, true] {
            let mut s =
                DiagnosisSession::new(Arc::clone(&regulator), StoppingPolicy::default()).unwrap();
            for &(name, state) in &case.controls {
                s.observe(name, state).unwrap();
            }
            if probes {
                let actions = mixed_actions(&s);
                s.set_actions(actions).unwrap();
                s.set_strategy(Strategy::CostWeighted).unwrap();
                s.set_cost_model(reference_cost_model()).unwrap();
            }
            for (k, &(name, state)) in case.observables.iter().enumerate() {
                s.diagnose().unwrap();
                s.rank_actions().unwrap();
                oracle.check_scores(&s, &format!("{} probes={probes} decision {k}", case.id));
                s.observe(name, state).unwrap();
            }
        }
    }

    // A seeded regulator fleet, closed loop, myopic over tests and
    // cost-weighted over tests plus probes.
    let rig = regulator::rig();
    let expert = ModelBuilder::new(rig.model)
        .with_expert(rig.expert)
        .build_expert_only()
        .expect("expert-only regulator builds");
    let controls: Vec<(String, usize)> = case_studies()[0]
        .controls
        .iter()
        .map(|&(name, state)| (name.to_string(), state))
        .collect();
    let fleet = sample_model_population(
        &expert,
        &regulator::faults::fault_library(),
        &controls,
        8,
        11,
    )
    .expect("regulator fleet samples");
    for scenario in &fleet {
        for probes in [false, true] {
            let mut s =
                DiagnosisSession::new(Arc::clone(&regulator), StoppingPolicy::default()).unwrap();
            for (name, state) in &controls {
                s.observe(name, *state).unwrap();
            }
            if probes {
                let actions = mixed_actions(&s);
                s.set_actions(actions).unwrap();
                s.set_strategy(Strategy::CostWeighted).unwrap();
                s.set_cost_model(reference_cost_model()).unwrap();
            }
            let executor = scenario_executor(regulator.model().circuit_model(), scenario);
            let ctx = format!("regulator {} probes={probes}", scenario.name);
            run_checked(&mut oracle, &mut s, executor, &ctx);
        }
    }

    // The 60-candidate stimulus grid's hypothesis model: faults forced on
    // the hypothesis latent, or on one observable (the latent then draws
    // from its prior), run under the grid's own cost-weighted loop.
    let grid = grid::grid_rig().expect("grid rig builds");
    let compiled = Arc::clone(&grid.compiled);
    let observables: Vec<&str> = compiled.observable_names().collect();
    let library: FaultLibrary = [
        (grid.fit.fault_var.as_str(), FaultKind::Dead, 2.0),
        (observables[0], FaultKind::Dead, 1.0),
        (observables[7], FaultKind::Dead, 1.0),
    ]
    .into_iter()
    .collect();
    let fleet =
        sample_model_population(&grid.fit.model, &library, &[], 4, 5).expect("grid fleet samples");
    for scenario in &fleet {
        let mut s = DiagnosisSession::new(Arc::clone(&compiled), grid::grid_policy()).unwrap();
        s.set_strategy(Strategy::CostWeighted).unwrap();
        s.set_cost_model(grid.program.cost_model(grid::GRID_PROBE_SECONDS).unwrap())
            .unwrap();
        s.set_actions(grid.program.actions()).unwrap();
        let executor = scenario_executor(compiled.model().circuit_model(), scenario);
        run_checked(
            &mut oracle,
            &mut s,
            executor,
            &format!("grid {}", scenario.name),
        );
    }

    // The board hierarchy: root rounds over block pseudo-latents, then
    // the descended block's tests and probes.
    let config = BoardConfig {
        blocks: 4,
        seed: 2010,
    };
    let hierarchy = board::hierarchy(&config).expect("board builds").shared();
    let flat = board::flat_model(&config).expect("flat board builds");
    let library: FaultLibrary = [
        ("drv00", FaultKind::Dead, 2.0),
        ("bg03", FaultKind::Dead, 1.0),
        ("drv02", FaultKind::Dead, 1.5),
        ("bias01", FaultKind::Dead, 0.5),
    ]
    .into_iter()
    .collect();
    let board_controls = vec![("vin".to_string(), 1), ("vload".to_string(), 0)];
    let fleet = sample_model_population(&flat, &library, &board_controls, 6, 3)
        .expect("board fleet samples");
    for scenario in &fleet {
        let mut s =
            HierarchicalSession::new(Arc::clone(&hierarchy), StoppingPolicy::default()).unwrap();
        for (name, state) in &board_controls {
            s.observe(name, *state).unwrap();
        }
        let mut executor = scenario_executor(flat.circuit_model(), scenario);
        for step in 0.. {
            let next = s.next_action().expect("next action");
            let active = s.child_session().unwrap_or_else(|| s.root_session());
            let ctx = format!("board {} step {step}", scenario.name);
            oracle.check_step(active, next.is_some(), &ctx);
            let Some(next) = next else { break };
            let outcome = executor(&next.action).expect("executor answers");
            s.apply(&next.action, outcome).expect("apply");
        }
    }

    println!(
        "VOI exactness: {} gains over {} decisions and {} stops, max |Δ| = {:e}",
        oracle.gains, oracle.decisions, oracle.stops, oracle.max_delta
    );
    assert!(oracle.decisions >= 60, "{} decisions", oracle.decisions);
    assert!(oracle.stops >= 5, "{} gain-driven stops", oracle.stops);
}

/// Soft evidence never reaches a session, so the kernel's primitive is
/// pinned on the serving regulator directly: a base calibrated on
/// controls plus soft likelihoods, every candidate outcome absorbed along
/// its plan to the latents, against the full propagation.
#[test]
fn absorption_matches_full_propagation_under_soft_evidence() {
    let compiled = serving_regulator();
    let model = compiled.model();
    let net = model.network();
    let jt = JunctionTree::compile(net).expect("tree compiles");
    let latents: Vec<VarId> = compiled
        .latent_names()
        .map(|n| model.var(n).unwrap())
        .collect();
    let mut evidence = Evidence::new();
    for &(name, state) in &case_studies()[1].controls {
        evidence.observe(model.var(name).unwrap(), state);
    }
    let observables: Vec<VarId> = compiled
        .observable_names()
        .map(|n| model.var(n).unwrap())
        .collect();
    for (i, &v) in observables.iter().take(2).enumerate() {
        let weights = (0..net.card(v))
            .map(|s| 0.3 + (s + i) as f64 * 0.45)
            .collect();
        evidence.observe_likelihood(v, weights);
    }
    let mut base = jt.make_workspace();
    let mut full_ws = jt.make_workspace();
    let mut ws = jt.make_workspace();
    jt.propagate_in(&mut base, &evidence).expect("base");
    let mut worst: f64 = 0.0;
    let mut compared = 0;
    for m in net.variables().filter(|&m| !evidence.mentions(m)) {
        let plan = jt.outward_plan(m, &latents).unwrap();
        for state in 0..net.card(m) {
            let Ok(full) = jt.propagate_hypotheticals_in(&mut full_ws, &evidence, &[(m, state)])
            else {
                continue;
            };
            let absorbed = jt.absorb_in(&base, &mut ws, &plan, (m, state)).unwrap();
            for &v in &latents {
                let delta = (absorbed.posterior_entropy(v).unwrap()
                    - full.posterior_entropy(v).unwrap())
                .abs();
                worst = worst.max(delta);
                compared += 1;
            }
        }
    }
    assert!(compared > 100, "{compared} entropies compared");
    assert!(worst <= GAIN_TOLERANCE, "worst |Δ| {worst:e}");
}

/// Every candidate's gain by name, as bits.
fn gain_bits(session: &mut DiagnosisSession) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = session
        .rank_actions()
        .unwrap()
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

/// A long-lived session whose scratch workspace has served deduction's
/// queries, absorbed other plans and refused a round must score exactly
/// as a fresh session on the same evidence and menu.
#[test]
fn ranking_is_history_independent() {
    let compiled = serving_regulator();
    let case = &case_studies()[0];
    let fresh = |long: &DiagnosisSession, strategy: Strategy| {
        let mut f =
            DiagnosisSession::new(Arc::clone(&compiled), StoppingPolicy::default()).unwrap();
        f.observe_all(long.observation()).unwrap();
        let actions: Vec<Action> = long.actions().iter().map(|c| c.action().clone()).collect();
        f.set_actions(actions).unwrap();
        f.set_strategy(strategy).unwrap();
        f.set_cost_model(long.cost_model().clone()).unwrap();
        gain_bits(&mut f)
    };
    let mut s = DiagnosisSession::new(Arc::clone(&compiled), StoppingPolicy::default()).unwrap();
    let mut checks = 0;
    let mut check = |s: &mut DiagnosisSession| {
        let strategy = s.strategy();
        let got = gain_bits(s);
        assert!(!got.is_empty());
        assert_eq!(got, fresh(s, strategy), "check {checks}");
        checks += 1;
    };

    // Served rounds: each diagnosis runs deduction's exoneration queries
    // in the scratch workspace the kernel absorbs into.
    let mut controls = Observation::new();
    for &(name, state) in &case.controls {
        controls.set(name, state);
    }
    let mut first = SessionRequest::new(controls);
    first.strategy = Strategy::Myopic;
    s.serve_round(&first).unwrap();
    check(&mut s);
    for &(name, state) in &case.observables[..2] {
        let mut o = Observation::new();
        o.set(name, state);
        o.mark_failing(name);
        s.serve_round(&SessionRequest::new(o).into_delta()).unwrap();
        check(&mut s);
    }

    // A refused round (a delta contradicting a stored measurement) leaves
    // the session as it was; a round failing in its report phase is
    // covered by `voi::tests` on a model with impossible evidence.
    let (name, state) = case.observables[0];
    let mut contradiction = Observation::new();
    contradiction.set(name, 1 - state.min(1));
    contradiction.set(case.observables[2].0, case.observables[2].1);
    assert!(s
        .serve_round(&SessionRequest::new(contradiction).into_delta())
        .is_err());
    check(&mut s);

    // A candidate-set change to tests plus probes, cost-weighted: other
    // plans run through the same scratch workspace.
    let actions = mixed_actions(&s);
    s.set_actions(actions).unwrap();
    s.set_strategy(Strategy::CostWeighted).unwrap();
    s.set_cost_model(reference_cost_model()).unwrap();
    s.diagnose().unwrap();
    check(&mut s);
    // ... and back to a narrower menu.
    let narrow: Vec<Action> = s
        .actions()
        .iter()
        .take(3)
        .map(|c| c.action().clone())
        .collect();
    s.set_actions(narrow).unwrap();
    s.set_strategy(Strategy::Myopic).unwrap();
    s.set_cost_model(CostModel::unit()).unwrap();
    s.diagnose().unwrap();
    check(&mut s);
    assert_eq!(checks, 6);
}

/// Junction-tree work one ranking performs, right after a diagnosis.
fn ranking_work(session: &mut DiagnosisSession) -> WorkCounts {
    session.diagnose().unwrap();
    let before = jointree_work_counts();
    session.rank_actions().unwrap();
    jointree_work_counts().since(before)
}

/// The message count of every myopic decision on the d1–d5 walk, pinned
/// exactly: one absorption per scored outcome, each passing its plan's
/// edges and nothing else. The full-propagation scorer passed two
/// messages per tree edge per outcome; the walk must need at most half.
/// The clique cells those messages read and write are pinned as a walk
/// total: they depend on the plans and clique shapes, not on the kernel.
#[test]
fn myopic_decisions_pass_at_most_half_the_messages() {
    let compiled = serving_regulator();
    let model = compiled.model();
    let net = model.network();
    let jt = JunctionTree::compile(net).expect("tree compiles");
    let latents: Vec<VarId> = compiled
        .latent_names()
        .map(|n| model.var(n).unwrap())
        .collect();
    // Messages of one full propagation: two per tree edge.
    let mut ws = jt.make_workspace();
    let before = jointree_work_counts();
    jt.propagate_in(&mut ws, &Evidence::new()).unwrap();
    let full = jointree_work_counts().since(before);

    let (mut decisions, mut outcomes, mut absorbed, mut propagated) = (0, 0u64, 0u64, 0u64);
    let (mut cells, mut propagated_cells) = (0u64, 0u64);
    for case in case_studies() {
        let mut s =
            DiagnosisSession::new(Arc::clone(&compiled), StoppingPolicy::default()).unwrap();
        for &(name, state) in &case.controls {
            s.observe(name, state).unwrap();
        }
        for &(name, state) in &case.observables {
            let work = ranking_work(&mut s);
            // What the decision must cost: one absorption per outcome
            // above the floor, along that candidate's plan.
            let evidence = compiled.evidence_from(s.observation()).unwrap();
            let base = jt.propagate_in(&mut ws, &evidence).unwrap();
            let (mut hyps, mut messages) = (0u64, 0u64);
            for c in s.actions() {
                let m = model.var(c.name()).unwrap();
                let plan = jt.outward_plan(m, &latents).unwrap().len() as u64;
                let live = base
                    .posterior(m)
                    .unwrap()
                    .iter()
                    .filter(|&&p| p > PROB_FLOOR)
                    .count() as u64;
                hyps += live;
                messages += live * plan;
            }
            assert_eq!(
                work,
                WorkCounts {
                    propagations: 0,
                    collect_queries: 0,
                    absorptions: hyps,
                    messages,
                    cells: work.cells,
                },
                "{} before {name}",
                case.id
            );
            decisions += 1;
            outcomes += hyps;
            absorbed += messages;
            propagated += hyps * full.messages;
            cells += work.cells;
            propagated_cells += hyps * full.cells;
            s.observe(name, state).unwrap();
        }
    }
    println!(
        "d1–d5 walk: {decisions} decisions, {outcomes} hypotheticals, \
         {absorbed} messages absorbed vs {propagated} by full propagation, \
         {cells} clique cells vs {propagated_cells}"
    );
    assert_eq!(decisions, 25);
    assert_eq!(absorbed, 3_060);
    assert_eq!(cells, 868_320);
    assert!(
        2 * absorbed <= propagated,
        "{absorbed} messages is not half of {propagated}"
    );
}
