//! The file-based tool flow the paper describes: simulate devices on the
//! virtual ATE, write an ASCII datalog, convert it to cases with the
//! Dlog2BBN logic, and learn from those files — every artefact inspectable
//! on disk.
//!
//! Run: `cargo run --release --example ate_flow [work_dir]`

use abbd::ate::{test_population, write_datalog, NoiseModel};
use abbd::blocks::sample_defective_devices;
use abbd::core::{CompiledModel, ModelBuilder};
use abbd::designs::regulator::{self, cases::case_studies};
use abbd::dlog2bbn::{cases_from_json, cases_to_json, generate_cases};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let work_dir = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "target/ate_flow".into());
    std::fs::create_dir_all(&work_dir)?;
    let rig = regulator::rig();

    // --- tester floor: 40 defective devices through the test program ----
    let mut rng = StdRng::seed_from_u64(7);
    let devices = sample_defective_devices(&rig.circuit, &rig.universe, 40, 0, &mut rng);
    let logs = test_population(
        &rig.circuit,
        &rig.program,
        &devices,
        &NoiseModel::production(),
        &mut rng,
    )?;
    let failing: Vec<_> = logs.iter().filter(|l| !l.all_passed()).cloned().collect();
    println!(
        "tested {} devices; {} failed at least one limit",
        logs.len(),
        failing.len()
    );

    // --- datalog file ----------------------------------------------------
    let datalog_path = format!("{work_dir}/regulator.dlog");
    std::fs::write(&datalog_path, write_datalog(&failing))?;
    println!("wrote ATE datalog        -> {datalog_path}");

    // --- spec + mapping files (what the dlog2bbn CLI consumes) -----------
    let spec_path = format!("{work_dir}/spec.json");
    std::fs::write(&spec_path, rig.model.spec().to_json()?)?;
    let mapping_path = format!("{work_dir}/mapping.json");
    std::fs::write(&mapping_path, rig.mapping.to_json()?)?;
    println!("wrote model spec         -> {spec_path}");
    println!("wrote case mapping       -> {mapping_path}");

    // --- case generation (library path; the `dlog2bbn` binary wraps the
    //     same call for shell pipelines) ----------------------------------
    let parsed = abbd::ate::parse_datalog(&std::fs::read_to_string(&datalog_path)?)?;
    let (cases, stats) = generate_cases(rig.model.spec(), &rig.mapping, &parsed)?;
    let cases_path = format!("{work_dir}/cases.json");
    std::fs::write(&cases_path, cases_to_json(&cases)?)?;
    println!(
        "wrote {} cases           -> {cases_path} ({} unbinnable readings)",
        stats.cases, stats.unbinnable
    );

    // --- learn from the file, diagnose -----------------------------------
    let cases = cases_from_json(&std::fs::read_to_string(&cases_path)?)?;
    let fitted = ModelBuilder::new(rig.model)
        .with_expert(rig.expert)
        .learn(&cases, regulator::default_algorithm())?;
    let compiled = CompiledModel::compile(fitted)?;

    let d5 = &case_studies()[4];
    let diagnosis = compiled.diagnose(&d5.observation())?;
    println!(
        "\ndiagnosing case d5 (only the power switch output is dead): {}",
        diagnosis.top_candidate().unwrap_or("<none>")
    );
    Ok(())
}
