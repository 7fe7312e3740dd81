//! Report rendering: the paper's Table VII layout (model variables, usable
//! states, voltage limits, remarks, and probability columns) plus candidate
//! summaries.

use crate::builder::DiagnosticModel;
use crate::diagnosis::Diagnosis;
use std::fmt::Write as _;

/// Renders a Table VII-style state-probability table: one row per
/// `(variable, state)`, the baseline column, and one column per diagnosis.
///
/// `columns` pairs a short label (e.g. `"d1"`) with a diagnosis.
pub fn render_state_table(
    model: &DiagnosticModel,
    baseline: &[(String, Vec<f64>)],
    columns: &[(&str, &Diagnosis)],
) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{:<12} {:>5} {:>9} {:>9} {:<22} {:>8}",
        "MVar.", "State", "LL(V)", "UL(V)", "Remarks", "Init(%)"
    );
    for (label, _) in columns {
        let _ = write!(out, " {:>7}", format!("{label}(%)"));
    }
    out.push('\n');
    let width = 12 + 1 + 5 + 1 + 9 + 1 + 9 + 1 + 22 + 1 + 8 + columns.len() * 8;
    out.push_str(&"-".repeat(width));
    out.push('\n');

    for v in model.circuit_model().spec().variables() {
        let base = baseline
            .iter()
            .find(|(n, _)| n == &v.name)
            .map(|(_, d)| d.as_slice())
            .unwrap_or(&[]);
        for (s, band) in v.bands.iter().enumerate() {
            let name_cell = if s == 0 { v.name.as_str() } else { "" };
            let init = base.get(s).copied().unwrap_or(f64::NAN) * 100.0;
            let _ = write!(
                out,
                "{:<12} {:>5} {:>9.3} {:>9.3} {:<22} {:>8.1}",
                name_cell,
                band.label,
                band.lo,
                band.hi,
                truncate(&band.remark, 22),
                init
            );
            for (_, diagnosis) in columns {
                let p = diagnosis
                    .posterior_of(&v.name)
                    .and_then(|d| d.get(s))
                    .copied()
                    .unwrap_or(f64::NAN)
                    * 100.0;
                let _ = write!(out, " {p:>7.1}");
            }
            out.push('\n');
        }
    }
    out
}

/// Renders the ranked candidate list of one diagnosis.
pub fn render_candidates(diagnosis: &Diagnosis) -> String {
    if diagnosis.candidates().is_empty() {
        return "no failing block candidates (observation consistent with a healthy device)\n"
            .to_string();
    }
    let mut out = String::from("rank  candidate     fault-mass  class\n");
    for (i, c) in diagnosis.candidates().iter().enumerate() {
        let _ = writeln!(
            out,
            "{:>4}  {:<12} {:>10.3}  {:?}",
            i + 1,
            c.variable,
            c.fault_mass,
            c.class
        );
    }
    out
}

fn truncate(text: &str, max: usize) -> String {
    if text.len() <= max {
        text.to_string()
    } else {
        format!(
            "{}…",
            &text[..text
                .char_indices()
                .take(max - 1)
                .last()
                .map(|(i, c)| i + c.len_utf8())
                .unwrap_or(0)]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{ExpertKnowledge, ModelBuilder};
    use crate::diagnosis::Observation;
    use crate::model::CircuitModel;
    use crate::session::CompiledModel;
    use abbd_dlog2bbn::{FunctionalType, ModelSpec, StateBand, VariableSpec};

    fn compiled_model() -> CompiledModel {
        let spec = ModelSpec::new([
            VariableSpec {
                name: "bias".into(),
                ftype: FunctionalType::Latent,
                bands: vec![
                    StateBand::new("0", 0.0, 1.0, "non operational"),
                    StateBand::new("1", 1.0, 1.4, "nominal operating"),
                ],
                ckt_ref: None,
            },
            VariableSpec {
                name: "out".into(),
                ftype: FunctionalType::Observe,
                bands: vec![
                    StateBand::new("0", 0.0, 4.5, "out of regulation with long remark"),
                    StateBand::new("1", 4.5, 5.5, "in regulation"),
                ],
                ckt_ref: None,
            },
        ])
        .unwrap();
        let mut m = CircuitModel::new(spec);
        m.depends("bias", "out").unwrap();
        let mut e = ExpertKnowledge::new(5.0);
        e.cpt("bias", [[0.2, 0.8]]);
        e.cpt("out", [[0.9, 0.1], [0.1, 0.9]]);
        let dm = ModelBuilder::new(m)
            .with_expert(e)
            .build_expert_only()
            .unwrap();
        CompiledModel::compile(dm).unwrap()
    }

    #[test]
    fn table_contains_all_rows_and_columns() {
        let compiled = compiled_model();
        let baseline = compiled.baseline().unwrap();
        let mut obs = Observation::new();
        obs.set("out", 0);
        let d = compiled.diagnose(&obs).unwrap();
        let table = render_state_table(compiled.model(), &baseline, &[("d1", &d)]);
        assert!(table.contains("bias"));
        assert!(table.contains("out"));
        assert!(table.contains("d1(%)"));
        assert!(table.contains("Init(%)"));
        // 4 state rows + header + separator
        assert_eq!(table.lines().count(), 6);
        // The observed state shows 100%.
        let out0_row = table
            .lines()
            .find(|l| l.contains("out of regulation"))
            .unwrap();
        assert!(out0_row.contains("100.0"), "row: {out0_row}");
    }

    #[test]
    fn candidates_rendering() {
        let compiled = compiled_model();
        let mut obs = Observation::new();
        obs.set("out", 0);
        let d = compiled.diagnose(&obs).unwrap();
        let text = render_candidates(&d);
        assert!(text.contains("bias"));
        assert!(text.contains("rank"));

        let mut ok = Observation::new();
        ok.set("out", 1);
        let healthy = compiled.diagnose(&ok).unwrap();
        let text = render_candidates(&healthy);
        assert!(text.contains("healthy"));
    }

    #[test]
    fn truncate_helper() {
        assert_eq!(truncate("short", 10), "short");
        let long = truncate("a very long remark indeed", 10);
        assert!(long.chars().count() <= 11);
        assert!(long.ends_with('…'));
    }
}
