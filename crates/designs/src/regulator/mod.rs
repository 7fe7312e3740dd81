//! The DATE 2010 multiple-output voltage regulator: behavioural circuit,
//! model variables and structure, expert estimate, test program, fault
//! universe, the five diagnostic case studies, and the end-to-end fitting
//! pipeline.

pub mod adaptive;
pub mod cases;
pub mod circuit;
pub mod drift;
pub mod expert;
pub mod faults;
pub mod grid;
pub mod model;
pub mod paper;
pub mod program;

use crate::error::Result;
use abbd_ate::{DeviceLog, NoiseModel, TestProgram};
use abbd_blocks::{Circuit, Device, FaultUniverse};
use abbd_core::{CircuitModel, CompiledModel, ExpertKnowledge, LearnAlgorithm, ModelBuilder};
use abbd_dlog2bbn::{CaseMapping, GenerationStats, NamedCase};
use std::sync::Arc;

/// Default equivalent sample size of the expert estimate. Each CPT row
/// carries this many pseudo-observations, so the designer's tables anchor
/// the rows that only a handful of the ~70 real devices inform — exactly
/// the paper's "fine-tuning" regime (data adjusts, expert structure
/// persists).
pub const DEFAULT_ESS: f64 = 150.0;

/// Default EM iteration budget for fine-tuning. Deliberately small:
/// early-stopped EM keeps the fitted tables close to the expert estimate
/// and prevents the rich-get-richer blame drift that full EM convergence
/// exhibits on ambiguous latent chains (competing explanations along
/// vx→enblSen→hcbg→warnvpst are not identifiable from observables alone).
pub const DEFAULT_EM_ITERATIONS: usize = 5;

/// The learning configuration used throughout the regulator experiments:
/// EM, early-stopped at [`DEFAULT_EM_ITERATIONS`].
pub fn default_algorithm() -> LearnAlgorithm {
    LearnAlgorithm::Em(abbd_bbn::learn::EmConfig {
        max_iterations: DEFAULT_EM_ITERATIONS,
        tolerance: 1e-6,
    })
}

/// Everything needed to run the regulator flow, bundled.
#[derive(Debug, Clone)]
pub struct RegulatorRig {
    /// The behavioural circuit (Fig. 2).
    pub circuit: Circuit,
    /// The specification test program.
    pub program: TestProgram,
    /// The Dlog2BBN mapping for case generation.
    pub mapping: CaseMapping,
    /// The structural circuit model (Table V + Fig. 3).
    pub model: CircuitModel,
    /// The product expert's CPT estimate.
    pub expert: ExpertKnowledge,
    /// The defect catalogue the population is drawn from.
    pub universe: FaultUniverse,
}

/// Builds the complete rig with the default expert strength.
pub fn rig() -> RegulatorRig {
    let circuit = circuit::circuit();
    let (program, mapping) = program::test_program(&circuit);
    RegulatorRig {
        model: model::circuit_model(),
        expert: expert::expert_knowledge(DEFAULT_ESS),
        universe: faults::fault_universe(&circuit),
        circuit,
        program,
        mapping,
    }
}

/// The outcome of the end-to-end fitting pipeline.
#[derive(Debug)]
pub struct FittedRegulator {
    /// The fine-tuned model, compiled and shared: diagnose on it directly
    /// or hand clones of the [`Arc`] to concurrent sessions.
    pub engine: Arc<CompiledModel>,
    /// The defective devices that were fabricated.
    pub devices: Vec<Device>,
    /// Their no-stop-on-fail datalogs.
    pub logs: Vec<DeviceLog>,
    /// The generated learning cases.
    pub cases: Vec<NamedCase>,
    /// Case-generation statistics.
    pub stats: GenerationStats,
}

/// A synthetic failing population: devices, datalogs and cases.
#[derive(Debug, Clone)]
pub struct Population {
    /// The defective devices.
    pub devices: Vec<Device>,
    /// Their no-stop-on-fail datalogs.
    pub logs: Vec<DeviceLog>,
    /// The Dlog2BBN cases, one per `(device, suite)`.
    pub cases: Vec<NamedCase>,
    /// Case-generation statistics.
    pub stats: GenerationStats,
}

/// Fabricates `n_failing` defective regulators (the "customer returns"),
/// tests them and converts the datalogs to cases. Deterministic for a
/// fixed `seed`; `first_id` offsets the device serial numbers so separate
/// populations do not collide.
///
/// # Errors
///
/// Propagates simulation and case-generation errors.
pub fn synthesize(n_failing: usize, seed: u64, first_id: u64) -> Result<Population> {
    let rig = rig();
    let universe = rig.universe.clone();
    synthesize_with(&rig, &universe, n_failing, seed, first_id)
}

/// [`synthesize`] drawing defects from a caller-supplied fault universe
/// instead of the rig's default — the lever for fleet-drift scenarios
/// ([`drift`]): same circuit, same test program, different defect mix.
///
/// Delegates to the scenario engine's device-level sampler
/// ([`abbd_scenarios::synthesize_failing`]) under the production noise
/// model; the draw sequence is identical to the historical in-crate
/// loop, so seeded populations (and the golden-trace corpus built on
/// them) are unchanged.
///
/// # Errors
///
/// Propagates simulation and case-generation errors.
pub fn synthesize_with(
    rig: &RegulatorRig,
    universe: &FaultUniverse,
    n_failing: usize,
    seed: u64,
    first_id: u64,
) -> Result<Population> {
    let population = abbd_scenarios::synthesize_failing(
        &rig.circuit,
        &rig.program,
        &rig.mapping,
        rig.model.spec(),
        universe,
        n_failing,
        seed,
        first_id,
        &NoiseModel::production(),
    )?;
    Ok(Population {
        devices: population.devices,
        logs: population.logs,
        cases: population.cases,
        stats: population.stats,
    })
}

/// Runs the paper's §IV flow end to end: fabricate `n_failing` defective
/// devices, test them, convert the datalogs to cases with Dlog2BBN,
/// fine-tune the expert model, and compile it for diagnosis.
///
/// Deterministic for a fixed `seed`.
///
/// # Errors
///
/// Propagates simulation, case-generation and learning errors.
pub fn fit(n_failing: usize, seed: u64, algorithm: LearnAlgorithm) -> Result<FittedRegulator> {
    let rig = rig();
    let population = synthesize(n_failing, seed, 0)?;
    let fitted = ModelBuilder::new(rig.model)
        .with_expert(rig.expert)
        .learn(&population.cases, algorithm)?;
    Ok(FittedRegulator {
        engine: CompiledModel::compile(fitted)?.shared(),
        devices: population.devices,
        logs: population.logs,
        cases: population.cases,
        stats: population.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use abbd_bbn::learn::EmConfig;

    fn quick_fit() -> FittedRegulator {
        fit(
            24,
            42,
            LearnAlgorithm::Em(EmConfig {
                max_iterations: 8,
                tolerance: 1e-4,
            }),
        )
        .unwrap()
    }

    #[test]
    fn pipeline_produces_cases_and_engine() {
        let fitted = quick_fit();
        assert_eq!(fitted.devices.len(), 24);
        assert_eq!(fitted.logs.len(), 24);
        // One case per (device, suite).
        assert_eq!(fitted.stats.cases, 24 * 6);
        assert_eq!(fitted.cases.len(), 24 * 6);
        let summary = fitted.engine.model().summary().expect("learning ran");
        assert!(summary.iterations >= 1);
        assert_eq!(summary.case_count, 24 * 6);
    }

    #[test]
    fn fit_is_deterministic() {
        let a = quick_fit();
        let b = quick_fit();
        assert_eq!(a.engine.model().network(), b.engine.model().network());
        assert_eq!(a.cases, b.cases);
    }

    #[test]
    fn cases_hide_latents_and_observe_everything_else() {
        let fitted = quick_fit();
        for case in &fitted.cases {
            for latent in model::LATENTS {
                assert_eq!(case.state_of(latent), None, "{latent} must stay hidden");
            }
            // 6 controls + up to 5 observables.
            assert!(case.assignment.len() >= 6);
            assert!(case.assignment.len() <= 11);
        }
    }
}
