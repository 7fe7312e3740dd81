//! Quickstart: model a two-stage analogue circuit, learn from a handful of
//! failing devices, and diagnose a new failure — the whole method on a
//! napkin.
//!
//! Run: `cargo run --release --example quickstart`

use abbd::bbn::learn::EmConfig;
use abbd::core::{
    CircuitModel, CompiledModel, ExpertKnowledge, LearnAlgorithm, ModelBuilder, Observation,
};
use abbd::dlog2bbn::{FunctionalType, ModelSpec, NamedCase, StateBand, VariableSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- 1. Structure modelling ------------------------------------------
    // Three model variables: a controllable supply pin, a latent bias
    // block, an observable output. Bias depends on the supply; the output
    // depends on the bias.
    let spec = ModelSpec::new([
        VariableSpec {
            name: "supply".into(),
            ftype: FunctionalType::Control,
            bands: vec![
                StateBand::new("0", 0.0, 3.0, "low"),
                StateBand::new("1", 3.0, 6.0, "nominal"),
            ],
            ckt_ref: None,
        },
        VariableSpec {
            name: "bias".into(),
            ftype: FunctionalType::Latent,
            bands: vec![
                StateBand::new("0", 0.0, 1.0, "non-operational"),
                StateBand::new("1", 1.0, 1.4, "operational"),
            ],
            ckt_ref: None,
        },
        VariableSpec {
            name: "out".into(),
            ftype: FunctionalType::Observe,
            bands: vec![
                StateBand::new("0", -0.05, 4.5, "fail"),
                StateBand::new("1", 4.5, 5.5, "pass"),
            ],
            ckt_ref: None,
        },
    ])?;
    let mut model = CircuitModel::new(spec);
    model.depends("supply", "bias")?;
    model.depends("bias", "out")?;

    // ---- 2. Parameter modelling ------------------------------------------
    // The designer's rough estimate...
    let mut expert = ExpertKnowledge::new(20.0);
    expert.cpt("supply", [[0.3, 0.7]]);
    // The bias block is the known weak spot; the output stage rarely
    // fails on its own.
    expert.cpt("bias", [[0.9, 0.1], [0.12, 0.88]]);
    expert.cpt("out", [[0.95, 0.05], [0.04, 0.96]]);

    // ...fine-tuned on cases from failing devices (in the real flow these
    // come from ATE datalogs through Dlog2BBN; see the `ate_flow` example).
    let cases: Vec<NamedCase> = (0..30)
        .map(|i| NamedCase {
            device_id: i,
            suite: "dc".into(),
            assignment: vec![
                ("supply".into(), 1),
                ("out".into(), usize::from(i % 5 == 0)),
            ],
            failing: if i % 5 == 0 {
                vec![]
            } else {
                vec!["out".into()]
            },
            truth: vec![],
        })
        .collect();
    let fitted = ModelBuilder::new(model).with_expert(expert).learn(
        &cases,
        LearnAlgorithm::Em(EmConfig {
            max_iterations: 20,
            tolerance: 1e-6,
        }),
    )?;
    let summary = fitted.summary().expect("learning ran");
    println!(
        "fine-tuned on {} cases in {} EM iteration(s)",
        summary.case_count, summary.iterations
    );

    // ---- 3. Diagnostic mode -----------------------------------------------
    let compiled = CompiledModel::compile(fitted)?;
    let mut seen = Observation::new();
    seen.set("supply", 1).set("out", 0);
    seen.mark_failing("out");
    let diagnosis = compiled.diagnose(&seen)?;

    println!("\nposterior state probabilities:");
    for (name, dist) in diagnosis.posteriors() {
        let cells: Vec<String> = dist.iter().map(|p| format!("{:5.1}%", p * 100.0)).collect();
        println!("  {name:<8} [{}]", cells.join(" "));
    }
    println!("\nranked failing-block candidates:");
    for (i, c) in diagnosis.candidates().iter().enumerate() {
        println!(
            "  {}. {} (fault mass {:.2})",
            i + 1,
            c.variable,
            c.fault_mass
        );
    }
    assert_eq!(diagnosis.top_candidate(), Some("bias"));
    println!("\nthe latent bias block is the culprit — diagnosis complete");
    Ok(())
}
