//! Fleet drift: a shifted defect mix for the regulator, plus the scoring
//! helper the fleet-learning tests use to measure recovery.
//!
//! The paper fits the expert model once against ~70 customer returns and
//! then serves it. A real product line keeps failing after that snapshot,
//! and the defect mix moves. Here the moving part is the switchable
//! output driver `sw`: during bring-up it almost never failed, so any
//! `sw_out`-only failure was correctly blamed on its far more common
//! enable gate `enbsw` — `sw` dead and `enbsw` dead are observationally
//! identical in the enabled suites, and the prior breaks the tie. After
//! drift a marginal process step kills (and sticks) the driver itself, so
//! that same tie must break the other way. The shift *is* learnable from
//! datalogs alone: `sw` stuck-at failures also violate the `all_off` and
//! `low_supply` suites, which no enable defect can, and those decisive
//! traces teach the refit that `sw_out` failures are the driver's own —
//! the enable's posterior blame drains away until diagnosis falls
//! through to the observable itself (the paper's candidate of last
//! resort). A model fitted on the old mix keeps blaming `enbsw` forever;
//! the fleet-learning loop ([`abbd_core::fleet`]) exists to notice the
//! new traces and refit.
//!
//! This module provides the drifted side of that experiment:
//!
//! * [`drifted_catalog`] / [`drifted_universe`] — the post-drift defect
//!   weights: `sw` dead/stuck dominates, `enbsw` drops to background,
//!   everything else shrinks proportionally;
//! * [`synthesize_drifted`] — a failing population drawn from that mix
//!   (same circuit, same test program — only the defects moved);
//! * [`isolation_accuracy`] — fraction of failing cases whose top
//!   candidate names a truly faulted block, scored against the datalog
//!   ground truth. This is the number that degrades under drift and must
//!   recover after a gated refit.

use crate::error::Result;
use crate::regulator::{synthesize_with, Population, RegulatorRig};
use abbd_blocks::{FaultMode, FaultUniverse};
use abbd_core::{CompiledModel, Observation};
use abbd_dlog2bbn::NamedCase;
use abbd_scenarios::{FaultKind, FaultLibrary};

/// Relative occurrence weights per `(block, mode)` after the drift: a
/// process excursion in the switchable output driver. Roughly 93% of
/// returns are now `sw` defects — half stuck high (the decisive
/// signature that also fails the disabled suites), half plain dead
/// (ambiguous against `enbsw`) — while everything else, including the
/// bring-up era's top suspects, trickles in at background rates. The
/// concentration is the realistic shape of a single marginal lot: one
/// step fails one block, and the return stream is suddenly monotone.
pub fn drifted_catalog() -> Vec<(&'static str, FaultMode, f64)> {
    vec![
        ("sw", FaultMode::Dead, 4.0),
        ("sw", FaultMode::StuckAt(17.0), 4.0),
        ("warnvpst", FaultMode::Dead, 0.15),
        ("enb13", FaultMode::Dead, 0.1),
        ("lcbg", FaultMode::Dead, 0.08),
        ("hcbg", FaultMode::Dead, 0.08),
        ("enb4", FaultMode::Dead, 0.05),
        ("reg1", FaultMode::Dead, 0.05),
        ("reg3", FaultMode::Dead, 0.04),
        ("enbsw", FaultMode::Dead, 0.03),
        ("reg2", FaultMode::Dead, 0.03),
        ("reg4", FaultMode::Dead, 0.03),
    ]
}

/// The drifted catalogue as a scenario-engine fault library.
pub fn drifted_library() -> FaultLibrary {
    drifted_catalog()
        .into_iter()
        .map(|(block, mode, weight)| (block, FaultKind::from(mode), weight))
        .collect()
}

/// Builds the drifted fault universe over the rig's circuit.
pub fn drifted_universe(rig: &RegulatorRig) -> FaultUniverse {
    drifted_library()
        .universe(&rig.circuit)
        .expect("catalog names exist")
}

/// Fabricates `n_failing` defective regulators from the *drifted* defect
/// mix. Deterministic for a fixed `seed`; `first_id` offsets serial
/// numbers so drifted devices never collide with a nominal population.
///
/// # Errors
///
/// Propagates simulation and case-generation errors.
pub fn synthesize_drifted(
    rig: &RegulatorRig,
    n_failing: usize,
    seed: u64,
    first_id: u64,
) -> Result<Population> {
    let universe = drifted_universe(rig);
    synthesize_with(rig, &universe, n_failing, seed, first_id)
}

/// Fraction of failing cases (cases with at least one failing observable)
/// whose diagnosis puts a truly faulted block on top. Cases that pass
/// everything carry no isolation signal and are skipped; a case whose
/// evidence is impossible under the model counts as a miss rather than an
/// error, so a badly drifted model scores low instead of aborting the
/// experiment.
///
/// Returns `0.0` when no case in `cases` is failing.
pub fn isolation_accuracy(compiled: &CompiledModel, cases: &[NamedCase]) -> f64 {
    let mut ws = compiled.make_workspace();
    let mut scored = 0usize;
    let mut hits = 0usize;
    for case in cases {
        if case.failing.is_empty() {
            continue;
        }
        scored += 1;
        let observation = Observation::from(case);
        let Ok(evidence) = compiled.evidence_from(&observation) else {
            continue;
        };
        let Ok(diagnosis) =
            compiled.diagnose_with_policy_in(&mut ws, &observation, &evidence, compiled.policy())
        else {
            continue;
        };
        let hit = diagnosis.top_candidate().is_some_and(|top| {
            case.truth
                .iter()
                .any(|tag| tag.split(':').next() == Some(top))
        });
        if hit {
            hits += 1;
        }
    }
    if scored == 0 {
        0.0
    } else {
        hits as f64 / scored as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regulator::{self, rig};
    use abbd_bbn::learn::EmConfig;
    use abbd_core::LearnAlgorithm;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn drifted_universe_flips_the_skew() {
        let rig = rig();
        let u = drifted_universe(&rig);
        let sw = rig.circuit.require_block("sw").unwrap();
        let enbsw = rig.circuit.require_block("enbsw").unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let n = 20_000;
        let (mut sw_hits, mut enbsw_hits) = (0usize, 0usize);
        for _ in 0..n {
            let f = u.sample(&mut rng).unwrap();
            if f.block == sw {
                sw_hits += 1;
            } else if f.block == enbsw {
                enbsw_hits += 1;
            }
        }
        assert!(
            sw_hits > 5 * enbsw_hits,
            "after drift sw ({sw_hits}) must dominate enbsw ({enbsw_hits})"
        );
    }

    #[test]
    fn drifted_population_is_deterministic_and_failing() {
        let rig = rig();
        let a = synthesize_drifted(&rig, 8, 99, 1000).unwrap();
        let b = synthesize_drifted(&rig, 8, 99, 1000).unwrap();
        assert_eq!(a.cases, b.cases);
        assert_eq!(a.devices.len(), 8);
        assert!(a.cases.iter().any(|c| !c.failing.is_empty()));
        assert!(a.devices.iter().all(|d| d.id >= 1000));
    }

    #[test]
    fn accuracy_scores_a_fitted_model_above_zero() {
        let fitted = regulator::fit(
            24,
            42,
            LearnAlgorithm::Em(EmConfig {
                max_iterations: 8,
                tolerance: 1e-4,
            }),
        )
        .unwrap();
        let acc = isolation_accuracy(&fitted.engine, &fitted.cases);
        assert!(
            (0.0..=1.0).contains(&acc) && acc > 0.0,
            "in-sample accuracy should be positive, got {acc}"
        );
        assert_eq!(isolation_accuracy(&fitted.engine, &[]), 0.0);
    }
}
