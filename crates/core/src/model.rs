//! The circuit model: model variables (from a [`ModelSpec`]) plus the
//! cause–effect dependency graph — the output of the paper's *BBN structure
//! modelling* step (§III-A.1).

use crate::error::{Error, Result};
use abbd_dlog2bbn::{FunctionalType, ModelSpec};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A structurally modelled analogue circuit: variables, states, functional
/// types (all carried by the [`ModelSpec`]) plus dependency edges and the
/// designer's annotation of which states mean "failing".
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), abbd_core::Error> {
/// use abbd_core::CircuitModel;
/// use abbd_dlog2bbn::{FunctionalType, ModelSpec, StateBand, VariableSpec};
///
/// let spec = ModelSpec::new([
///     VariableSpec {
///         name: "bias".into(),
///         ftype: FunctionalType::Latent,
///         bands: vec![
///             StateBand::new("0", 0.0, 1.0, "non-operational"),
///             StateBand::new("1", 1.0, 1.4, "operational"),
///         ],
///         ckt_ref: None,
///     },
///     VariableSpec {
///         name: "out".into(),
///         ftype: FunctionalType::Observe,
///         bands: vec![
///             StateBand::new("0", 0.0, 4.5, "fail"),
///             StateBand::new("1", 4.5, 5.5, "pass"),
///         ],
///         ckt_ref: None,
///     },
/// ])?;
/// let mut model = CircuitModel::new(spec);
/// model.depends("bias", "out")?;
/// assert_eq!(model.parents_of("out"), vec!["bias"]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CircuitModel {
    spec: ModelSpec,
    edges: Vec<(String, String)>,
    /// Per-variable state indices that mean "the block is failing".
    /// Defaults to `{0}` (the paper's Table II convention: state 0 is
    /// "Non-Operational") for any variable without an explicit entry.
    fault_states: BTreeMap<String, Vec<usize>>,
}

impl CircuitModel {
    /// Wraps a spec with an empty dependency graph.
    pub fn new(spec: ModelSpec) -> Self {
        CircuitModel {
            spec,
            edges: Vec::new(),
            fault_states: BTreeMap::new(),
        }
    }

    /// The underlying model-variable specification.
    pub fn spec(&self) -> &ModelSpec {
        &self.spec
    }

    /// Declares a cause→effect dependency: `parent` influences `child`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownVariable`] or [`Error::DuplicateEdge`].
    /// Cycles are detected when the Bayesian network is built.
    pub fn depends<P: AsRef<str>, C: AsRef<str>>(&mut self, parent: P, child: C) -> Result<()> {
        let parent = parent.as_ref();
        let child = child.as_ref();
        for name in [parent, child] {
            if self.spec.find(name).is_none() {
                return Err(Error::UnknownVariable(name.into()));
            }
        }
        if self.edges.iter().any(|(p, c)| p == parent && c == child) {
            return Err(Error::DuplicateEdge {
                parent: parent.into(),
                child: child.into(),
            });
        }
        self.edges.push((parent.into(), child.into()));
        Ok(())
    }

    /// All dependency edges as `(parent, child)` name pairs.
    pub fn edges(&self) -> &[(String, String)] {
        &self.edges
    }

    /// The declared parents of `child`, in declaration order.
    pub fn parents_of(&self, child: &str) -> Vec<&str> {
        self.edges
            .iter()
            .filter(|(_, c)| c == child)
            .map(|(p, _)| p.as_str())
            .collect()
    }

    /// Overrides which states of `variable` count as failing (default `{0}`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownVariable`] or
    /// [`Error::FaultStateOutOfRange`].
    pub fn set_fault_states<N: AsRef<str>>(&mut self, variable: N, states: &[usize]) -> Result<()> {
        let name = variable.as_ref();
        let var = self
            .spec
            .find(name)
            .ok_or_else(|| Error::UnknownVariable(name.into()))?;
        for &s in states {
            if s >= var.card() {
                return Err(Error::FaultStateOutOfRange {
                    variable: name.into(),
                    state: s,
                });
            }
        }
        self.fault_states.insert(name.into(), states.to_vec());
        Ok(())
    }

    /// The failing-state indices of `variable` (default `{0}`).
    pub fn fault_states(&self, variable: &str) -> Vec<usize> {
        self.fault_states
            .get(variable)
            .cloned()
            .unwrap_or_else(|| vec![0])
    }

    /// Names of all latent variables, in spec order.
    pub fn latents(&self) -> Vec<&str> {
        self.spec
            .variables()
            .iter()
            .filter(|v| v.ftype == FunctionalType::Latent)
            .map(|v| v.name.as_str())
            .collect()
    }

    /// Names of all controllable variables, in spec order.
    pub fn controls(&self) -> Vec<&str> {
        self.spec
            .variables()
            .iter()
            .filter(|v| v.ftype.is_control())
            .map(|v| v.name.as_str())
            .collect()
    }

    /// Names of all observable variables, in spec order.
    pub fn observables(&self) -> Vec<&str> {
        self.spec
            .variables()
            .iter()
            .filter(|v| v.ftype.is_observable())
            .map(|v| v.name.as_str())
            .collect()
    }

    /// Latent-to-latent transitive ancestors of `variable`: the walk stops
    /// at controllable/observable variables, because evidence on those
    /// d-separates the chain (used by the candidate deduction).
    pub fn latent_ancestors(&self, variable: &str) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        let mut stack: Vec<String> = vec![variable.to_string()];
        while let Some(v) = stack.pop() {
            for p in self.parents_of(&v) {
                let Some(pv) = self.spec.find(p) else {
                    continue;
                };
                if pv.ftype == FunctionalType::Latent && !out.iter().any(|o| o == p) {
                    out.push(p.to_string());
                    stack.push(p.to_string());
                }
            }
        }
        out
    }

    /// Renders the dependency graph in Graphviz DOT syntax, with functional
    /// types as node shapes (control = invtriangle, observe = doublecircle,
    /// latent = box).
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph circuit_model {\n  rankdir=TB;\n");
        for v in self.spec.variables() {
            let shape = match v.ftype {
                FunctionalType::Control => "invtriangle",
                FunctionalType::Observe => "doublecircle",
                FunctionalType::ControlObserve => "Mcircle",
                FunctionalType::Latent => "box",
            };
            out.push_str(&format!("  \"{}\" [shape={shape}];\n", v.name));
        }
        for (p, c) in &self.edges {
            out.push_str(&format!("  \"{p}\" -> \"{c}\";\n"));
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abbd_dlog2bbn::{StateBand, VariableSpec};

    fn spec() -> ModelSpec {
        let var = |name: &str, ftype| VariableSpec {
            name: name.into(),
            ftype,
            bands: vec![
                StateBand::new("0", 0.0, 1.0, "non-operational"),
                StateBand::new("1", 1.0, 2.0, "operational"),
                StateBand::new("2", 2.0, 3.0, "overdrive"),
            ],
            ckt_ref: None,
        };
        ModelSpec::new([
            var("pin", FunctionalType::Control),
            var("a", FunctionalType::Latent),
            var("b", FunctionalType::Latent),
            var("c", FunctionalType::Latent),
            var("out", FunctionalType::Observe),
        ])
        .unwrap()
    }

    fn model() -> CircuitModel {
        // pin -> a -> b -> out, a -> c -> out
        let mut m = CircuitModel::new(spec());
        m.depends("pin", "a").unwrap();
        m.depends("a", "b").unwrap();
        m.depends("b", "out").unwrap();
        m.depends("a", "c").unwrap();
        m.depends("c", "out").unwrap();
        m
    }

    #[test]
    fn edges_and_lookups() {
        let m = model();
        assert_eq!(m.edges().len(), 5);
        assert_eq!(m.parents_of("out"), vec!["b", "c"]);
        assert_eq!(m.parents_of("pin"), Vec::<&str>::new());
        assert_eq!(m.latents(), vec!["a", "b", "c"]);
        assert_eq!(m.controls(), vec!["pin"]);
        assert_eq!(m.observables(), vec!["out"]);
    }

    #[test]
    fn rejects_bad_edges() {
        let mut m = model();
        assert!(matches!(
            m.depends("ghost", "a"),
            Err(Error::UnknownVariable(_))
        ));
        assert!(matches!(
            m.depends("a", "ghost"),
            Err(Error::UnknownVariable(_))
        ));
        assert!(matches!(
            m.depends("a", "b"),
            Err(Error::DuplicateEdge { .. })
        ));
    }

    #[test]
    fn fault_states_default_and_override() {
        let mut m = model();
        assert_eq!(m.fault_states("a"), vec![0]);
        m.set_fault_states("a", &[0, 2]).unwrap();
        assert_eq!(m.fault_states("a"), vec![0, 2]);
        assert!(matches!(
            m.set_fault_states("a", &[7]),
            Err(Error::FaultStateOutOfRange { .. })
        ));
        assert!(matches!(
            m.set_fault_states("ghost", &[0]),
            Err(Error::UnknownVariable(_))
        ));
    }

    #[test]
    fn latent_ancestors_stop_at_non_latents() {
        let m = model();
        // b's latent ancestors: a (pin is control, excluded).
        assert_eq!(m.latent_ancestors("b"), vec!["a".to_string()]);
        // out's latent ancestors: b, c, a (order: discovery).
        let anc = m.latent_ancestors("out");
        assert_eq!(anc.len(), 3);
        assert!(anc.contains(&"a".to_string()));
        assert!(anc.contains(&"b".to_string()));
        assert!(anc.contains(&"c".to_string()));
        assert!(m.latent_ancestors("pin").is_empty());
    }

    #[test]
    fn dot_contains_shapes_and_edges() {
        let m = model();
        let dot = m.to_dot();
        assert!(dot.contains("invtriangle"));
        assert!(dot.contains("doublecircle"));
        assert!(dot.contains("\"a\" -> \"b\""));
    }
}
