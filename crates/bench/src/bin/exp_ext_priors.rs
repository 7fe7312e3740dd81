//! Extension experiment (ablation of the paper's central claim): combining
//! design/test knowledge with fail data beats either source alone.
//!
//! The designer's input here is the *rough* estimate the paper describes
//! (every CPT row blended halfway to uniform), so fine-tuning has real
//! calibration work to do. Three models are compared on held-out devices:
//!
//! * rough-expert-only — the rough estimate, no fine-tuning;
//! * data-only         — uniform starting CPTs, EM on the cases;
//! * combined          — the paper's flow: rough estimate fine-tuned by EM.
//!
//! Run: `cargo run --release -p abbd-bench --bin exp_ext_priors`

use abbd_baselines::{accuracy_at_k, group_by_device};
use abbd_bbn::learn::EmConfig;
use abbd_bench::BbnDeviceDiagnoser;
use abbd_core::{CompiledModel, ExpertKnowledge, LearnAlgorithm, ModelBuilder};
use abbd_designs::regulator::{self, expert::rough_expert_knowledge};

fn main() {
    let train = regulator::synthesize(70, 2010, 0).expect("training population");
    let test = regulator::synthesize(150, 777, 1_000_000).expect("test population");
    let test_sigs = group_by_device(&test.cases);
    let rig = regulator::rig();

    // A rough prior should bend to the data: modest strength, more
    // iterations than the headline pipeline.
    let ess = 30.0;
    let em = LearnAlgorithm::Em(EmConfig {
        max_iterations: 10,
        tolerance: 1e-6,
    });

    let rough_only = ModelBuilder::new(rig.model.clone())
        .with_expert(rough_expert_knowledge(ess))
        .build_expert_only()
        .expect("rough model");
    let data_only = ModelBuilder::new(rig.model.clone())
        .with_expert(ExpertKnowledge::new(1.0))
        .learn(&train.cases, em.clone())
        .expect("data-only model");
    let combined = ModelBuilder::new(rig.model.clone())
        .with_expert(rough_expert_knowledge(ess))
        .learn(&train.cases, em)
        .expect("combined model");

    println!(
        "EXT-PRIORS — knowledge-source ablation (70 training devices, {} held-out)",
        test_sigs.len()
    );
    println!(
        "\n{:>18} {:>6} {:>6}  (k = 1 / 2)",
        "model", "acc@1", "acc@2"
    );
    for (name, model) in [
        ("rough-expert-only", rough_only),
        ("data-only", data_only),
        ("combined", combined),
    ] {
        let compiled = CompiledModel::compile(model).expect("model compiles");
        let adapter = BbnDeviceDiagnoser::new(&compiled);
        let a1 = accuracy_at_k(&adapter, &test_sigs, 1);
        let a2 = accuracy_at_k(&adapter, &test_sigs, 2);
        println!("{name:>18} {a1:>6.3} {a2:>6.3}");
    }
}
