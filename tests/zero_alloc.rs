//! The PR 2 acceptance harness, extended by PR 3 to lookahead planning
//! and re-pointed by PR 4 at the unified session facade: steady-state
//! decisions through `DiagnosisSession::rank_actions` must perform
//! **zero junction-tree compilations and zero heap allocations** — both
//! the myopic kernel and the depth-2 expectimax planner, including a
//! *mixed* test-plus-probe candidate set — and so must deduction's
//! collect-only exoneration query. The work counters confirm the myopic
//! windows run the absorption kernel, not full propagations.
//!
//! A counting global allocator wraps the system allocator and tallies
//! `alloc`/`realloc` calls per thread; the compile counter lives in
//! `abbd_bbn` (also per thread). This file deliberately contains a single
//! `#[test]` so no sibling test can allocate on this thread inside the
//! measurement window.

use abbd::bbn::{jointree_compile_count, jointree_work_counts};
use abbd::core::fixtures::toy_compiled_model;
use abbd::core::{
    Action, CostModel, DiagnosisSession, HierarchicalSession, Outcome, StoppingPolicy, Strategy,
};
use abbd::designs::board::{self, BoardConfig};
use abbd::designs::regulator::grid;
use abbd::scenarios::McFitConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Counts this thread's allocation events around the system allocator.
struct CountingAllocator;

thread_local! {
    static ALLOC_EVENTS: Cell<u64> = const { Cell::new(0) };
}

fn alloc_events() -> u64 {
    ALLOC_EVENTS.try_with(Cell::get).unwrap_or(0)
}

fn bump() {
    // `try_with` so a late allocation during TLS teardown cannot panic.
    let _ = ALLOC_EVENTS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_scoring_compiles_nothing_and_allocates_nothing() {
    // The shared pin/bias/load/aux fixture (abbd_core::fixtures): the
    // same model the sequential unit tests assert ordering on, compiled
    // once and shared by every session below.
    let compiled = toy_compiled_model();
    let mut d = DiagnosisSession::new(Arc::clone(&compiled), StoppingPolicy::exhaustive()).unwrap();
    d.observe("pin", 1).unwrap();
    // The steady-state contract covers the *mixed* candidate set: two
    // electrical tests and one physical probe ranked in one list.
    d.set_actions([
        Action::test("out1"),
        Action::test("out2"),
        Action::probe("aux"),
    ])
    .unwrap();

    // Warm-up: the first pass may grow internal buffers to capacity.
    d.rank_actions().unwrap();
    d.rank_actions().unwrap();

    let compiles_before = jointree_compile_count();
    let work_before = jointree_work_counts();
    let allocs_before = alloc_events();
    let mut checksum = 0.0;
    for _ in 0..16 {
        let scored = d.rank_actions().unwrap();
        checksum += scored[0].expected_information_gain();
    }
    let allocs = alloc_events() - allocs_before;
    let compiles = jointree_compile_count() - compiles_before;
    let work = jointree_work_counts().since(work_before);

    assert!(checksum.is_finite() && checksum > 0.0);
    // The window ran the absorption kernel: every hypothetical absorbed
    // into the kept calibration, no full propagation.
    assert_eq!(work.propagations, 0, "{work:?}");
    assert!(work.absorptions >= 16 * 3, "{work:?}");
    assert_eq!(
        compiles, 0,
        "steady-state VOI scoring must reuse the compiled junction tree"
    );
    assert_eq!(
        allocs, 0,
        "steady-state VOI scoring must not touch the heap ({allocs} allocation events in 16 decisions)"
    );

    // Deduction's exoneration query: one collect-only likelihood with a
    // 0/1 healthy mask on each latent ancestor, built before the window
    // from the model's fault states exactly as `CompiledModel::compile`
    // precomputes them.
    let model = compiled.model();
    let circuit = model.circuit_model();
    let exoneration_tree = abbd::bbn::JunctionTree::compile(model.network()).unwrap();
    let mut exoneration_ws = exoneration_tree.make_workspace();
    let evidence = compiled.evidence_from(d.observation()).unwrap();
    let healthy: Vec<(abbd::bbn::VarId, Vec<f64>)> = circuit
        .latent_ancestors("out2")
        .iter()
        .map(|name| {
            let var = model.var(name).unwrap();
            let faults = circuit.fault_states(name);
            let mask = (0..model.network().card(var))
                .map(|s| if faults.contains(&s) { 0.0 } else { 1.0 })
                .collect();
            (var, mask)
        })
        .collect();
    assert!(healthy.len() >= 2, "out2 has two latent ancestors");
    let masks: Vec<(abbd::bbn::VarId, &[f64])> =
        healthy.iter().map(|(v, m)| (*v, m.as_slice())).collect();
    let warm = exoneration_tree
        .log_likelihood_in(&mut exoneration_ws, &evidence, &masks)
        .unwrap();

    let compiles_before = jointree_compile_count();
    let allocs_before = alloc_events();
    let mut repeatable = true;
    for _ in 0..16 {
        let log_healthy = exoneration_tree
            .log_likelihood_in(&mut exoneration_ws, &evidence, &masks)
            .unwrap();
        repeatable &= log_healthy.to_bits() == warm.to_bits();
    }
    let allocs = alloc_events() - allocs_before;
    let compiles = jointree_compile_count() - compiles_before;

    assert!(repeatable, "a repeated query answers the same bits");
    assert!(warm.is_finite() && warm < 0.0);
    assert_eq!(
        compiles, 0,
        "exoneration queries must reuse the compiled junction tree"
    );
    assert_eq!(
        allocs, 0,
        "exoneration queries must not touch the heap ({allocs} allocation events in 16 queries)"
    );

    // Depth-2 lookahead planning: the expectimax recursion stacks
    // hypothetical outcomes through per-level preallocated workspaces, so
    // its steady state must match the myopic contract — zero junction-tree
    // compilations, zero heap allocations. Construction and strategy
    // switching (which builds the planner) happen before the window.
    let mut d2 =
        DiagnosisSession::new(Arc::clone(&compiled), StoppingPolicy::exhaustive()).unwrap();
    d2.set_strategy(Strategy::Lookahead { depth: 2 }).unwrap();
    d2.set_cost_model(CostModel::unit()).unwrap();
    d2.observe("pin", 1).unwrap();
    d2.rank_actions().unwrap();
    d2.rank_actions().unwrap();

    let compiles_before = jointree_compile_count();
    let allocs_before = alloc_events();
    let mut checksum = 0.0;
    for _ in 0..8 {
        let scored = d2.rank_actions().unwrap();
        checksum += scored[0].expected_information_gain();
    }
    let allocs = alloc_events() - allocs_before;
    let compiles = jointree_compile_count() - compiles_before;

    assert!(checksum.is_finite() && checksum > 0.0);
    assert_eq!(
        compiles, 0,
        "steady-state depth-2 lookahead scoring must reuse the compiled junction tree"
    );
    assert_eq!(
        allocs, 0,
        "steady-state depth-2 lookahead scoring must not touch the heap ({allocs} allocation events in 8 decisions)"
    );

    // The closed loop itself stays compile-free end to end (decision
    // bookkeeping may allocate, so only the compile counter is pinned).
    let compiles_before = jointree_compile_count();
    let dead_bias = |action: &Action| {
        Ok(match action.target() {
            "out1" | "out2" => Outcome::failing(0),
            _ => Outcome::passing(1),
        })
    };
    let outcome = d.run(dead_bias).unwrap();
    assert_eq!(outcome.diagnosis.top_candidate(), Some("bias"));
    assert_eq!(
        jointree_compile_count() - compiles_before,
        0,
        "the closed loop must never recompile"
    );

    // ... and so does the lookahead closed loop.
    let compiles_before = jointree_compile_count();
    let outcome = d2.run(dead_bias).unwrap();
    assert_eq!(outcome.diagnosis.top_candidate(), Some("bias"));
    assert_eq!(
        jointree_compile_count() - compiles_before,
        0,
        "the lookahead closed loop must never recompile"
    );

    // The hierarchy's steady state (PR 7): descending into a block of a
    // synthetic board pays exactly one junction-tree compile — the lazy
    // sub-model extraction — and after that the descended session's
    // decision loop inherits the full contract: zero compilations, zero
    // heap allocations per ranking.
    let config = BoardConfig {
        blocks: 3,
        seed: 2010,
    };
    let hierarchy = board::hierarchy(&config).unwrap().shared();
    let mut h = HierarchicalSession::new(hierarchy, StoppingPolicy::exhaustive()).unwrap();
    h.observe("vin", 1).unwrap();
    h.observe("vload", 0).unwrap();
    h.observe("out00", 1).unwrap();
    h.observe("out01", 0).unwrap();
    h.mark_failing("out01");
    h.observe("out02", 1).unwrap();

    let compiles_before = jointree_compile_count();
    h.descend(1).unwrap();
    assert_eq!(
        jointree_compile_count() - compiles_before,
        1,
        "descent compiles the block sub-model exactly once"
    );

    // Warm-up, then the pinned window.
    h.rank_actions().unwrap();
    h.rank_actions().unwrap();
    let compiles_before = jointree_compile_count();
    let allocs_before = alloc_events();
    let mut checksum = 0.0;
    for _ in 0..16 {
        let scored = h.rank_actions().unwrap();
        checksum += scored[0].expected_information_gain();
    }
    let allocs = alloc_events() - allocs_before;
    let compiles = jointree_compile_count() - compiles_before;

    assert!(checksum.is_finite() && checksum > 0.0);
    assert_eq!(
        compiles, 0,
        "descended steady-state scoring must reuse the cached block sub-model"
    );
    assert_eq!(
        allocs, 0,
        "descended steady-state scoring must not touch the heap ({allocs} allocation events in 16 decisions)"
    );

    // The stimulus-grid menu (PR 10): cost-weighted ranking over the
    // regulator grid's full 60-candidate family — suite-switch pricing
    // and all — inherits the same contract. The Monte-Carlo fit runs at
    // a reduced sample count here (the model's *shape* — 22 hypothesis
    // states × 60 observables — is what the pin exercises, not the CPT
    // values).
    let rig = grid::grid_rig_with(&McFitConfig {
        samples: 4,
        ..McFitConfig::default()
    })
    .unwrap();
    let mut g = DiagnosisSession::new(Arc::clone(&rig.compiled), grid::grid_policy()).unwrap();
    g.set_strategy(Strategy::CostWeighted).unwrap();
    g.set_cost_model(rig.program.cost_model(grid::GRID_PROBE_SECONDS).unwrap())
        .unwrap();
    let actions = rig.program.actions();
    assert!(actions.len() >= 50, "the grid menu is ≥50 candidates");
    g.set_actions(actions).unwrap();

    g.rank_actions().unwrap();
    g.rank_actions().unwrap();
    let compiles_before = jointree_compile_count();
    let work_before = jointree_work_counts();
    let allocs_before = alloc_events();
    let mut checksum = 0.0;
    for _ in 0..8 {
        let scored = g.rank_actions().unwrap();
        checksum += scored[0].expected_information_gain();
    }
    let allocs = alloc_events() - allocs_before;
    let compiles = jointree_compile_count() - compiles_before;
    let work = jointree_work_counts().since(work_before);

    assert!(checksum.is_finite() && checksum > 0.0);
    assert_eq!(work.propagations, 0, "{work:?}");
    assert!(work.absorptions >= 8 * 60, "{work:?}");
    assert_eq!(
        compiles, 0,
        "60-candidate grid scoring must reuse the compiled junction tree"
    );
    assert_eq!(
        allocs, 0,
        "60-candidate grid scoring must not touch the heap ({allocs} allocation events in 8 decisions)"
    );
}
