//! The three workloads, the models they run on, and their seeded fleets.
//!
//! Every workload draws its devices from a labelled fleet that
//! [`abbd_scenarios::sample_model_population`] generates from the run's
//! seed; the server only ever receives the requests built from it.

use abbd_bbn::learn::EmConfig;
use abbd_core::{CompiledModel, HierarchicalModel, LearnAlgorithm, ModelBuilder, Observation};
use abbd_designs::board::{self, BoardConfig};
use abbd_designs::regulator;
use abbd_scenarios::{sample_model_population, FaultKind, FaultLibrary};
use abbd_server::{BundleBlock, BundlePartition, ModelBundle};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Registry name of the built-in regulator model.
pub const REGULATOR: &str = "regulator";
/// Registry name the board bundle is registered under.
pub const BOARD: &str = "board";
/// Rows per `diagnose_batch` request.
pub const BATCH_ROWS: usize = 16;
/// Fleet size; devices are reused round-robin past it.
pub const FLEET: usize = 4096;
/// `abbd-serve`'s default regulator fit: `--devices 24 --seed 42`, quick EM.
const FIT_DEVICES: usize = 24;
const FIT_SEED: u64 = 42;
/// Mixed into the seed for the held-out seed set, so held-out fleets
/// never coincide with development fleets of the same `--seed`.
pub const HELDOUT_SALT: u64 = 0x05EE_D0F4_E1D0_u64;

/// One traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Regulator devices diagnosed one at a time over JSON delta rounds.
    RegulatorAdaptive,
    /// Binary `diagnose_batch` requests of [`BATCH_ROWS`] fleet rows.
    RegulatorBatch,
    /// The 100-variable board as a hierarchy, binary delta rounds.
    BoardHierAdaptive,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [
        Workload::RegulatorAdaptive,
        Workload::RegulatorBatch,
        Workload::BoardHierAdaptive,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RegulatorAdaptive => "regulator_adaptive",
            Workload::RegulatorBatch => "regulator_batch",
            Workload::BoardHierAdaptive => "board_hier_adaptive",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The registry model the workload drives.
    pub fn model(self) -> &'static str {
        match self {
            Workload::BoardHierAdaptive => BOARD,
            _ => REGULATOR,
        }
    }

    /// Whether bodies and replies use the compact binary codec.
    pub fn binary(self) -> bool {
        self != Workload::RegulatorAdaptive
    }

    /// Whether devices run the closed measurement loop (else: batch).
    pub fn adaptive(self) -> bool {
        self != Workload::RegulatorBatch
    }
}

/// One labelled device.
#[derive(Debug, Clone)]
pub struct Device {
    /// The full no-stop-on-fail datalog: every control and observable.
    pub datalog: Observation,
    /// Ground-truth state of every model variable.
    pub truth: BTreeMap<String, usize>,
    /// The seeded faulty latent.
    pub fault: String,
}

/// A seeded fleet plus what the measurement oracle needs to answer from
/// ground truth.
#[derive(Debug, Clone)]
pub struct Fleet {
    /// The stimulus (control) states every device is tested under,
    /// posted in each device's first round.
    pub controls: Observation,
    /// The devices, in sampling order.
    pub devices: Vec<Device>,
    /// Fault states per variable: a measured state in this set reads as
    /// a limit failure.
    fault_states: BTreeMap<String, Vec<usize>>,
    /// Card of every variable (hypotheticals per ranked candidate).
    cards: BTreeMap<String, usize>,
    /// Hierarchy block names: a report whose fault mass lists one of
    /// them was answered from the abstract root.
    pub blocks: BTreeSet<String>,
}

impl Fleet {
    /// The bench answer for measuring `variable` on device `index`:
    /// its ground-truth state and whether that state fails limits.
    pub fn answer(&self, index: usize, variable: &str) -> Option<(usize, bool)> {
        let state = *self.devices[index].truth.get(variable)?;
        let failing = self
            .fault_states
            .get(variable)
            .is_some_and(|states| states.contains(&state));
        Some((state, failing))
    }

    /// Cardinality of a model variable (0 when unknown).
    pub fn card(&self, variable: &str) -> usize {
        self.cards.get(variable).copied().unwrap_or(0)
    }

    /// The device a round-robin position maps to.
    pub fn device(&self, position: usize) -> usize {
        position % self.devices.len()
    }

    /// The datalog rows of batch request `request`.
    pub fn batch_rows(&self, request: usize) -> Vec<Observation> {
        (0..BATCH_ROWS)
            .map(|r| {
                self.devices[self.device(request * BATCH_ROWS + r)]
                    .datalog
                    .clone()
            })
            .collect()
    }

    /// Distinct batch requests before the row sequence repeats.
    pub fn batch_period(&self) -> usize {
        self.devices.len().div_ceil(BATCH_ROWS)
    }

    /// Measurements in a datalog row (entries other than controls).
    pub fn measured(&self, observation: &Observation) -> usize {
        observation
            .iter()
            .filter(|(name, _)| self.controls.state_of(name).is_none())
            .count()
    }
}

/// The d1 case study's control states (the regulator fleet's stimulus).
fn regulator_controls() -> Vec<(String, usize)> {
    regulator::cases::case_studies()[0]
        .controls
        .iter()
        .map(|&(name, state)| (name.to_string(), state))
        .collect()
}

/// Board rails: nominal supply, light load.
fn board_controls() -> Vec<(String, usize)> {
    vec![("vin".to_string(), 1), ("vload".to_string(), 0)]
}

/// Dead latents across every board block, weighted toward drivers.
fn board_library(config: &BoardConfig) -> FaultLibrary {
    let mut library = FaultLibrary::new();
    for k in 0..config.blocks {
        for (prefix, weight) in [("drv", 2.0), ("bg", 1.5), ("reg_s", 1.0), ("bias", 0.5)] {
            library.add(format!("{prefix}{k:02}"), FaultKind::Dead, weight);
        }
    }
    library
}

/// Samples the workload's labelled fleet of `size` devices from `seed`.
///
/// # Errors
///
/// Propagates model-build and sampling failures as text.
pub fn fleet(workload: Workload, size: usize, seed: u64) -> Result<Fleet, String> {
    let config = BoardConfig::default();
    let (model, library, controls, blocks) = match workload.model() {
        BOARD => (
            board::flat_model(&config).map_err(|e| format!("board model: {e}"))?,
            board_library(&config),
            board_controls(),
            (0..config.blocks).map(|k| config.block_name(k)).collect(),
        ),
        _ => {
            let rig = regulator::rig();
            let model = ModelBuilder::new(rig.model)
                .with_expert(rig.expert)
                .build_expert_only()
                .map_err(|e| format!("regulator model: {e}"))?;
            (
                model,
                regulator::faults::fault_library(),
                regulator_controls(),
                BTreeSet::new(),
            )
        }
    };
    let scenarios = sample_model_population(&model, &library, &controls, size.max(1), seed)
        .map_err(|e| format!("fleet sampling: {e}"))?;
    let circuit = model.circuit_model();
    let mut control_states = Observation::new();
    for (name, state) in controls {
        control_states.set(name, state);
    }
    let devices = scenarios
        .iter()
        .map(|s| Device {
            datalog: s.observation(circuit),
            truth: s.truth.clone(),
            fault: s
                .fault
                .as_ref()
                .map(|f| f.block.clone())
                .unwrap_or_default(),
        })
        .collect();
    let spec = circuit.spec();
    Ok(Fleet {
        controls: control_states,
        devices,
        fault_states: spec
            .variables()
            .iter()
            .map(|v| (v.name.clone(), circuit.fault_states(&v.name)))
            .collect(),
        cards: spec
            .variables()
            .iter()
            .map(|v| (v.name.clone(), v.card()))
            .chain(blocks.iter().map(|b: &String| (b.clone(), 2)))
            .collect(),
        blocks,
    })
}

/// The 100-variable board as a partitioned [`ModelBundle`]: rails as the
/// interface, one block per regulator, `outNN` as each block's summary.
pub fn board_bundle_json() -> String {
    let config = BoardConfig::default();
    let circuit = board::circuit_model(&config).expect("the board spec is static");
    let bundle = ModelBundle {
        spec: circuit.spec().clone(),
        edges: circuit.edges().to_vec(),
        expert: board::expert(&config),
        fault_states: Vec::new(),
        partition: Some(BundlePartition {
            interface: vec!["vin".to_string(), "vload".to_string()],
            blocks: board::partition(&config)
                .into_iter()
                .map(|b| BundleBlock {
                    name: b.name,
                    members: b.members,
                    summary: b.summary,
                })
                .collect(),
        }),
    };
    serde_json::to_string(&bundle).expect("bundles encode")
}

/// Block names of the board bundle, in board order (the warm-up visits
/// each once).
pub fn board_blocks() -> Vec<String> {
    let config = BoardConfig::default();
    (0..config.blocks).map(|k| config.block_name(k)).collect()
}

/// The regulator exactly as `abbd-serve` fits it at startup.
///
/// # Errors
///
/// Propagates fit failures as text.
pub fn fit_regulator() -> Result<Arc<CompiledModel>, String> {
    let algorithm = LearnAlgorithm::Em(EmConfig {
        max_iterations: 8,
        tolerance: 1e-4,
    });
    let fitted = regulator::fit(FIT_DEVICES, FIT_SEED, algorithm)
        .map_err(|e| format!("regulator fit: {e}"))?;
    Ok(Arc::clone(fitted.engine.compiled()))
}

/// The board hierarchy exactly as `abbd-serve` registers the bundle.
///
/// # Errors
///
/// Propagates bundle parse/compile failures as text.
pub fn compile_board(bundle_json: &str) -> Result<Arc<HierarchicalModel>, String> {
    ModelBundle::from_json(bundle_json)
        .and_then(|bundle| bundle.compile_hierarchy())
        .map_err(|e| format!("board bundle: {}", e.message))?
        .ok_or_else(|| "board bundle has no partition".to_string())
}

/// The models the in-process replay serves from (only the one the
/// workload drives is built).
#[derive(Debug, Clone)]
pub struct Models {
    /// The fitted regulator.
    pub regulator: Option<Arc<CompiledModel>>,
    /// The board hierarchy.
    pub board: Option<Arc<HierarchicalModel>>,
}

impl Models {
    /// Builds what `workload` needs, warmed up like the server: every
    /// board block's lazy sub-model is compiled before any replay.
    ///
    /// # Errors
    ///
    /// Propagates fit/compile failures as text.
    pub fn for_workload(workload: Workload, bundle_json: &str) -> Result<Self, String> {
        Ok(match workload.model() {
            BOARD => {
                let board = compile_board(bundle_json)?;
                for block in 0..board.block_count() {
                    board
                        .child(block)
                        .map_err(|e| format!("block compile: {e}"))?;
                }
                Models {
                    regulator: None,
                    board: Some(board),
                }
            }
            _ => Models {
                regulator: Some(fit_regulator()?),
                board: None,
            },
        })
    }
}
