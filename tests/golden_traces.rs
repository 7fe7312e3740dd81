//! The golden-trace conformance corpus: full adaptive decision traces —
//! every candidate's score at every step, the chosen measurement, the
//! oracle's answer and the posterior fault mass after absorbing it — for
//! the paper's d1–d3 case studies and a seeded 16-device cross-suite
//! population, under all three selection strategies.
//!
//! The corpus lives in `tests/golden/*.json`. This test regenerates every
//! trace in-memory and diffs it byte-for-byte against the stored file, so
//! *any* behavioural change in the VOI kernel, the lookahead planner, the
//! cost model, the stopping logic or the deduction layer shows up as an
//! exact, reviewable JSON diff instead of a silently drifting plan.
//!
//! To bless an intentional change:
//!
//! ```text
//! ABBD_REGEN_GOLDEN=1 cargo test --test golden_traces
//! ```
//!
//! then review the diff like any other code change.

use abbd::core::{
    CompiledModel, CostModel, DecisionTrace, DiagnosisSession, GoldenCorpus, HierarchicalSession,
    HierarchicalTrace, StoppingPolicy, Strategy,
};
use abbd::designs::board::{self, BoardConfig};
use abbd::designs::regulator::adaptive::{
    cross_suite_population, reference_cost_model, summarize_cross_suite, traced_case_study,
    CrossSuiteReport,
};
use abbd::designs::regulator::{self, cases::case_studies, grid};
use abbd::scenarios::{sample_model_population, scenario_executor, FaultKind, FaultLibrary};
use std::path::Path;
use std::sync::Arc;

/// The corpus strategies: file-name tag, strategy, and the cost model the
/// scenario prices measurements with. Lookahead runs under unit costs —
/// it is the *pure planning* reference (the population scenario exercises
/// its cost-aware form), and under unit costs its depth-2 decisions are
/// directly comparable to the myopic baseline.
fn strategies() -> [(&'static str, Strategy, CostModel); 3] {
    [
        ("myopic", Strategy::Myopic, reference_cost_model()),
        (
            "cost_weighted",
            Strategy::CostWeighted,
            reference_cost_model(),
        ),
        (
            "lookahead2",
            Strategy::Lookahead { depth: 2 },
            CostModel::unit(),
        ),
    ]
}

fn regulator_model() -> Arc<CompiledModel> {
    // The same quick EM fit the adaptive scenario tests pin their
    // assertions on: deterministic for the fixed seed.
    regulator::fit(
        24,
        42,
        abbd::core::LearnAlgorithm::Em(abbd::bbn::learn::EmConfig {
            max_iterations: 8,
            tolerance: 1e-4,
        }),
    )
    .expect("regulator pipeline runs")
    .engine
}

/// The corpus handle: byte-for-byte conformance (or `ABBD_REGEN_GOLDEN=1`
/// regeneration) via the shared [`abbd::core::conformance`]
/// implementation — the same code the server-side refit gate reports
/// mismatches through.
fn corpus() -> GoldenCorpus {
    GoldenCorpus::new(Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden"))
}

#[test]
fn golden_traces_replay_exactly() {
    let corpus = corpus();
    let model = regulator_model();
    let policy = StoppingPolicy::default();
    let mut mismatches: Vec<String> = Vec::new();

    // d1–d3 case-study traces under every strategy.
    let cases = case_studies();
    let mut tests_used: Vec<Vec<usize>> = Vec::new();
    for case in &cases[..3] {
        let mut per_case = Vec::new();
        for (tag, strategy, cost) in strategies() {
            let (outcome, trace) =
                traced_case_study(&model, case, policy, strategy, cost).expect("case study runs");
            per_case.push(outcome.tests_used());
            let mut rendered = serde_json::to_string_pretty(&trace).expect("traces serialise");
            rendered.push('\n');
            let name = format!("{}_{}.json", case.id, tag);
            if let Some(m) = corpus.conform(&name, &rendered) {
                mismatches.push(m);
            } else if !corpus.regenerating() {
                // The stored corpus must also round-trip through the
                // typed representation (pins the serde layer itself).
                let stored = std::fs::read_to_string(corpus.path(&name)).unwrap();
                let parsed: DecisionTrace =
                    serde_json::from_str(&stored).expect("golden trace parses");
                assert_eq!(parsed, trace, "{name}: parsed trace differs from replay");
            }
        }
        tests_used.push(per_case);
    }
    // The acceptance facts ride in the corpus: depth-2 lookahead needs no
    // more measurements than myopic on d1 and d3.
    for (case_idx, case_id) in [(0usize, "d1"), (2, "d3")] {
        let myopic = tests_used[case_idx][0];
        let lookahead = tests_used[case_idx][2];
        assert!(
            lookahead <= myopic,
            "{case_id}: lookahead {lookahead} > myopic {myopic}"
        );
    }

    // The seeded 16-device cross-suite population under every strategy.
    let mut switches = Vec::new();
    for (tag, strategy, _) in strategies() {
        let run =
            cross_suite_population(&model, 16, 2024, policy, strategy, &reference_cost_model())
                .expect("population scenario runs");
        assert!(
            run.skipped.is_empty(),
            "the golden population diagnoses every device"
        );
        let reports: Vec<CrossSuiteReport> = run.reports;
        let summary = summarize_cross_suite(strategy, &reports);
        switches.push(summary.stimulus_switches);
        let mut rendered = serde_json::to_string_pretty(&reports).expect("reports serialise");
        rendered.push('\n');
        if let Some(m) = corpus.conform(&format!("population16_{tag}.json"), &rendered) {
            mismatches.push(m);
        }
        let mut summary_rendered =
            serde_json::to_string_pretty(&summary).expect("summary serialises");
        summary_rendered.push('\n');
        if let Some(m) = corpus.conform(
            &format!("population16_{tag}_summary.json"),
            &summary_rendered,
        ) {
            mismatches.push(m);
        }
    }
    // ... and cost-weighted arbitration strictly reduces suite switches.
    assert!(
        switches[1] < switches[0],
        "cost-weighted switches {} must be strictly below myopic {}",
        switches[1],
        switches[0]
    );

    assert!(
        mismatches.is_empty(),
        "golden traces diverged:\n  {}\nIf the change is intentional, regenerate with \
         `ABBD_REGEN_GOLDEN=1 cargo test --test golden_traces` and review the JSON diff.",
        mismatches.join("\n  ")
    );
}

/// The scenario-engine corpus entries (PR 10): library-generated
/// labelled fleets for both reference designs (mixed fault modes —
/// dead, drift, stuck-at, short — drawn from one weighted catalogue),
/// the closed-loop decision trace a sampled regulator scenario produces,
/// and the 60-candidate stimulus-grid trace. Byte-for-byte conformance
/// pins the samplers (seed → fleet), the generic scenario oracle, and
/// the grid loop's suite-switch-priced decisions in one reviewable
/// artefact set.
#[test]
fn scenario_goldens_replay_exactly() {
    let corpus = corpus();
    let mut mismatches: Vec<String> = Vec::new();

    // The regulator fleet: the full 19-entry catalogue (dead, gain
    // drift, stuck-at, short modes) under the d1 stimulus.
    let rig = regulator::rig();
    let reg_model = abbd::core::ModelBuilder::new(rig.model)
        .with_expert(rig.expert)
        .build_expert_only()
        .expect("expert-only regulator model builds");
    let controls: Vec<(String, usize)> = case_studies()[0]
        .controls
        .iter()
        .map(|&(name, state)| (name.to_string(), state))
        .collect();
    let reg_fleet = sample_model_population(
        &reg_model,
        &regulator::faults::fault_library(),
        &controls,
        12,
        2010,
    )
    .expect("regulator fleet samples");
    let modes: std::collections::BTreeSet<&str> = reg_fleet
        .iter()
        .filter_map(|s| s.fault.as_ref())
        .filter_map(|f| f.tag.split(':').nth(1))
        .collect();
    assert!(modes.len() >= 2, "the fleet mixes fault modes: {modes:?}");
    let mut rendered = serde_json::to_string_pretty(&reg_fleet).expect("fleets serialise");
    rendered.push('\n');
    if let Some(m) = corpus.conform("scenario_population_regulator.json", &rendered) {
        mismatches.push(m);
    }

    // The 100-variable board fleet: same API, different model and
    // library.
    let config = BoardConfig::default();
    let board_model = board::flat_model(&config).expect("board model builds");
    let board_library: FaultLibrary = [
        ("drv00", FaultKind::Dead, 2.0),
        ("bg03", FaultKind::Dead, 1.0),
        ("drv07", FaultKind::Dead, 1.5),
        ("bias11", FaultKind::Dead, 0.5),
        ("reg_s05", FaultKind::Dead, 1.0),
    ]
    .into_iter()
    .collect();
    let board_controls = vec![("vin".to_string(), 1), ("vload".to_string(), 0)];
    let board_fleet =
        sample_model_population(&board_model, &board_library, &board_controls, 6, 2010)
            .expect("board fleet samples");
    let mut rendered = serde_json::to_string_pretty(&board_fleet).expect("fleets serialise");
    rendered.push('\n');
    if let Some(m) = corpus.conform("scenario_population_board.json", &rendered) {
        mismatches.push(m);
    }

    // The generic oracle closing the loop on a sampled regulator
    // scenario: the decision stream is corpus-pinned like the hand-built
    // case studies.
    let compiled = abbd::core::CompiledModel::compile(reg_model)
        .expect("regulator model compiles")
        .shared();
    let scenario = &reg_fleet[0];
    let mut session = DiagnosisSession::new(Arc::clone(&compiled), StoppingPolicy::default())
        .expect("session opens");
    for (name, state) in &controls {
        session.observe(name, *state).expect("controls observe");
    }
    let (_, trace) = session
        .run_traced(scenario_executor(
            compiled.model().circuit_model(),
            scenario,
        ))
        .expect("scenario loop runs");
    let mut rendered = serde_json::to_string_pretty(&trace).expect("traces serialise");
    rendered.push('\n');
    let name = "scenario_regulator_trace.json";
    if let Some(m) = corpus.conform(name, &rendered) {
        mismatches.push(m);
    } else if !corpus.regenerating() {
        let stored = std::fs::read_to_string(corpus.path(name)).unwrap();
        let parsed: DecisionTrace = serde_json::from_str(&stored).expect("golden trace parses");
        assert_eq!(parsed, trace, "{name}: parsed trace differs from replay");
    }

    // The stimulus-grid loop: a catalogue fault diagnosed against the
    // noise-calibrated hypothesis model over the full 60-candidate menu.
    let rig = grid::grid_rig().expect("grid rig builds");
    let entry = grid::grid_library()
        .entries()
        .iter()
        .find(|e| e.tag() == "reg1:dead")
        .expect("catalogue has reg1:dead")
        .clone();
    let device = grid::device_for_entry(&rig.circuit, &entry, 9001).expect("device fabricates");
    let noise = grid::noise_for_entry(&entry);
    let (_, trace, top) = grid::diagnose_device(&rig, &device, &noise, 77).expect("grid loop runs");
    assert_eq!(top, "reg1:dead", "the grid loop isolates the seeded fault");
    assert!(
        trace.steps.first().is_some_and(|s| s.scores.len() >= 50),
        "the first decision ranks the whole grid menu"
    );
    let mut rendered = serde_json::to_string_pretty(&trace).expect("traces serialise");
    rendered.push('\n');
    let name = "scenario_grid_trace.json";
    if let Some(m) = corpus.conform(name, &rendered) {
        mismatches.push(m);
    } else if !corpus.regenerating() {
        let stored = std::fs::read_to_string(corpus.path(name)).unwrap();
        let parsed: DecisionTrace = serde_json::from_str(&stored).expect("golden trace parses");
        assert_eq!(parsed, trace, "{name}: parsed trace differs from replay");
    }

    assert!(
        mismatches.is_empty(),
        "scenario goldens diverged:\n  {}\nIf the change is intentional, regenerate with \
         `ABBD_REGEN_GOLDEN=1 cargo test --test golden_traces` and review the JSON diff.",
        mismatches.join("\n  ")
    );
}

/// The hierarchical corpus entry (PR 7): a 4-block synthetic board run
/// through the two-phase loop — board-level rounds on the abstract root,
/// the descent decision, and the block-level rounds inside the extracted
/// sub-model — captured as one `HierarchicalTrace` and replayed
/// byte-for-byte. Pins the descent *policy* (when the session drops a
/// level and into which block) alongside the per-level decision streams.
#[test]
fn hierarchical_board_trace_replays_exactly() {
    let config = BoardConfig {
        blocks: 4,
        seed: 2010,
    };
    let hierarchy = board::hierarchy(&config)
        .expect("board hierarchy builds")
        .shared();
    let scenario = board::d1_scenario(&config, 2);
    let mut session = HierarchicalSession::new(Arc::clone(&hierarchy), StoppingPolicy::default())
        .expect("session opens");
    session.observe("vin", 1).expect("vin");
    session.observe("vload", 0).expect("vload");
    let (outcome, trace) = session
        .run_traced(board::scenario_executor(&scenario))
        .expect("two-phase loop runs");
    assert_eq!(trace.descended.as_deref(), Some("reg02"));
    assert_eq!(outcome.diagnosis.top_candidate(), Some("drv02"));

    let corpus = corpus();
    let mut rendered = serde_json::to_string_pretty(&trace).expect("trace serialises");
    rendered.push('\n');
    let name = "board4_hierarchical.json";
    if let Some(mismatch) = corpus.conform(name, &rendered) {
        panic!(
            "{mismatch}\nIf the change is intentional, regenerate with \
             `ABBD_REGEN_GOLDEN=1 cargo test --test golden_traces` and review the JSON diff."
        );
    }
    if !corpus.regenerating() {
        // The stored corpus must round-trip through the typed
        // representation (pins the hierarchy serde layer itself).
        let stored = std::fs::read_to_string(corpus.path(name)).unwrap();
        let parsed: HierarchicalTrace =
            serde_json::from_str(&stored).expect("golden hierarchical trace parses");
        assert_eq!(parsed, trace, "{name}: parsed trace differs from replay");
    }
}
