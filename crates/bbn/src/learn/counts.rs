//! Cases, Dirichlet priors and sufficient statistics for CPT estimation.

use crate::error::{Error, Result};
use crate::evidence::Evidence;
use crate::factor::Factor;
use crate::network::{Network, VarId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One learning case: a (possibly partial) assignment of states to network
/// variables, with an importance weight.
///
/// In the paper's flow a case is the state-binned outcome of one device
/// under one ATE test configuration: controllable and observable blocks are
/// assigned, the internal blocks stay hidden.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Case {
    assignment: BTreeMap<VarId, usize>,
    weight: f64,
}

impl Default for Case {
    fn default() -> Self {
        Case {
            assignment: BTreeMap::new(),
            weight: 1.0,
        }
    }
}

impl Case {
    /// An empty case with unit weight.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a case from `(variable, state)` pairs with unit weight.
    pub fn from_pairs<I: IntoIterator<Item = (VarId, usize)>>(pairs: I) -> Self {
        Case {
            assignment: pairs.into_iter().collect(),
            weight: 1.0,
        }
    }

    /// Builds a complete case from a full assignment vector.
    pub fn from_complete(states: &[usize]) -> Self {
        Case {
            assignment: states
                .iter()
                .enumerate()
                .map(|(i, &s)| (VarId::from_index(i), s))
                .collect(),
            weight: 1.0,
        }
    }

    /// Records an observation, replacing any previous state for `var`.
    pub fn observe(&mut self, var: VarId, state: usize) -> &mut Self {
        self.assignment.insert(var, state);
        self
    }

    /// Sets the case weight (e.g. for deduplicated repeated cases).
    pub fn set_weight(&mut self, weight: f64) -> &mut Self {
        self.weight = weight;
        self
    }

    /// The case weight.
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// The observed state of `var`, if recorded.
    pub fn state_of(&self, var: VarId) -> Option<usize> {
        self.assignment.get(&var).copied()
    }

    /// Number of observed variables.
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// `true` when nothing was observed.
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// Iterates `(variable, state)` observations.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, usize)> + '_ {
        self.assignment.iter().map(|(v, s)| (*v, *s))
    }

    /// Converts to hard [`Evidence`] for inference-based learning.
    pub fn to_evidence(&self) -> Evidence {
        self.iter().collect()
    }

    /// `true` when every network variable is observed.
    pub fn is_complete(&self, net: &Network) -> bool {
        net.variables().all(|v| self.assignment.contains_key(&v))
    }
}

impl FromIterator<(VarId, usize)> for Case {
    fn from_iter<I: IntoIterator<Item = (VarId, usize)>>(iter: I) -> Self {
        Case::from_pairs(iter)
    }
}

/// Dirichlet pseudo-counts, one table per variable with the CPT's shape.
///
/// The paper seeds CPTs from a product designer's estimate and fine-tunes
/// them on ATE cases; [`DirichletPrior::from_network`] encodes exactly that:
/// the expert's table scaled by an *equivalent sample size*.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DirichletPrior {
    pseudo: Vec<Vec<f64>>,
}

impl DirichletPrior {
    /// No prior at all (maximum-likelihood estimation).
    pub fn zero(net: &Network) -> Self {
        DirichletPrior {
            pseudo: net
                .variables()
                .map(|v| vec![0.0; net.cpt(v).len()])
                .collect(),
        }
    }

    /// Symmetric prior: `alpha` pseudo-counts in every cell (Laplace for
    /// `alpha = 1`).
    pub fn uniform(net: &Network, alpha: f64) -> Self {
        DirichletPrior {
            pseudo: net
                .variables()
                .map(|v| vec![alpha; net.cpt(v).len()])
                .collect(),
        }
    }

    /// Expert-knowledge prior: every CPT row of `net` scaled by
    /// `equivalent_sample_size` (each row then carries that many
    /// pseudo-observations distributed as the expert believes).
    pub fn from_network(net: &Network, equivalent_sample_size: f64) -> Self {
        DirichletPrior {
            pseudo: net
                .variables()
                .map(|v| {
                    net.cpt(v)
                        .iter()
                        .map(|p| p * equivalent_sample_size)
                        .collect()
                })
                .collect(),
        }
    }

    /// The pseudo-count table for `var` (same layout as the CPT).
    pub fn pseudo(&self, var: VarId) -> &[f64] {
        &self.pseudo[var.index()]
    }

    /// Checks the prior's shape against a network.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] on any size difference.
    pub fn validate(&self, net: &Network) -> Result<()> {
        if self.pseudo.len() != net.var_count() {
            return Err(Error::ShapeMismatch {
                expected: net.var_count(),
                actual: self.pseudo.len(),
            });
        }
        for v in net.variables() {
            if self.pseudo[v.index()].len() != net.cpt(v).len() {
                return Err(Error::ShapeMismatch {
                    expected: net.cpt(v).len(),
                    actual: self.pseudo[v.index()].len(),
                });
            }
        }
        Ok(())
    }

    /// Log prior density term `Σ pseudo · ln θ` (up to the normalising
    /// constant), used as the MAP objective's penalty.
    pub fn log_density(&self, net: &Network) -> f64 {
        let mut acc = 0.0;
        for v in net.variables() {
            for (a, t) in self.pseudo[v.index()].iter().zip(net.cpt(v)) {
                if *a > 0.0 {
                    acc += a * t.max(1e-300).ln();
                }
            }
        }
        acc
    }
}

/// Accumulated (possibly fractional) co-occurrence counts, one table per
/// variable with the CPT's shape.
#[derive(Debug, Clone, PartialEq)]
pub struct SuffStats {
    counts: Vec<Vec<f64>>,
    cards: Vec<usize>,
}

impl SuffStats {
    /// Zeroed statistics shaped like `net`'s CPTs.
    pub fn new(net: &Network) -> Self {
        SuffStats {
            counts: net
                .variables()
                .map(|v| vec![0.0; net.cpt(v).len()])
                .collect(),
            cards: net.variables().map(|v| net.card(v)).collect(),
        }
    }

    /// Adds one complete assignment with the given weight.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] on a wrong-length assignment and
    /// [`Error::InvalidEvidence`] on an out-of-range state or a non-finite
    /// or negative weight (either would corrupt the count tables and
    /// surface later as NaN CPT rows).
    pub fn add_complete(&mut self, net: &Network, assignment: &[usize], weight: f64) -> Result<()> {
        if assignment.len() != net.var_count() {
            return Err(Error::ShapeMismatch {
                expected: net.var_count(),
                actual: assignment.len(),
            });
        }
        if !weight.is_finite() || weight < 0.0 {
            return Err(Error::InvalidEvidence {
                variable: String::new(),
                reason: format!("case weight {weight} must be finite and >= 0"),
            });
        }
        for var in net.variables() {
            if assignment[var.index()] >= net.card(var) {
                return Err(Error::InvalidEvidence {
                    variable: net.name(var).to_string(),
                    reason: format!(
                        "state {} out of range for cardinality {}",
                        assignment[var.index()],
                        net.card(var)
                    ),
                });
            }
        }
        for var in net.variables() {
            let mut config = 0usize;
            for p in net.parents(var) {
                config = config * net.card(*p) + assignment[p.index()];
            }
            let card = self.cards[var.index()];
            self.counts[var.index()][config * card + assignment[var.index()]] += weight;
        }
        Ok(())
    }

    /// Adds an expected-count contribution: a normalised family marginal
    /// `P(parents, var | e)` (scope `parents ++ [var]`, the layout produced
    /// by [`crate::CalibratedView::family_marginal`]) scaled by `weight`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] when the factor does not match the
    /// CPT shape of `var`.
    pub fn add_family_marginal(
        &mut self,
        var: VarId,
        family_marginal: &Factor,
        weight: f64,
    ) -> Result<()> {
        let table = &mut self.counts[var.index()];
        if family_marginal.len() != table.len() {
            return Err(Error::ShapeMismatch {
                expected: table.len(),
                actual: family_marginal.len(),
            });
        }
        for (slot, p) in table.iter_mut().zip(family_marginal.values()) {
            *slot += weight * p;
        }
        Ok(())
    }

    /// Merges another statistics table (e.g. from a parallel worker).
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] on differing shapes.
    pub fn merge(&mut self, other: &SuffStats) -> Result<()> {
        if self.counts.len() != other.counts.len() {
            return Err(Error::ShapeMismatch {
                expected: self.counts.len(),
                actual: other.counts.len(),
            });
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            if a.len() != b.len() {
                return Err(Error::ShapeMismatch {
                    expected: a.len(),
                    actual: b.len(),
                });
            }
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        }
        Ok(())
    }

    /// The raw count table for `var`.
    pub fn counts(&self, var: VarId) -> &[f64] {
        &self.counts[var.index()]
    }

    /// Turns counts + prior into normalised CPTs (posterior-mean estimate).
    /// Rows with zero total mass fall back to the uniform distribution.
    pub fn to_cpts(&self, prior: &DirichletPrior) -> Vec<Vec<f64>> {
        self.counts
            .iter()
            .enumerate()
            .map(|(i, table)| {
                let card = self.cards[i];
                let pseudo = &prior.pseudo[i];
                let mut out = vec![0.0; table.len()];
                for r in 0..table.len() / card {
                    let lo = r * card;
                    let hi = lo + card;
                    let total: f64 = table[lo..hi]
                        .iter()
                        .zip(&pseudo[lo..hi])
                        .map(|(c, a)| c + a)
                        .sum();
                    if total > 0.0 {
                        for (k, slot) in out[lo..hi].iter_mut().enumerate() {
                            *slot = (table[lo + k] + pseudo[lo + k]) / total;
                        }
                    } else {
                        for slot in out[lo..hi].iter_mut() {
                            *slot = 1.0 / card as f64;
                        }
                    }
                }
                out
            })
            .collect()
    }
}

/// Fits CPTs from fully observed assignments (posterior mean under the
/// prior), leaving the structure untouched.
///
/// # Errors
///
/// Returns [`Error::NoCases`] when `assignments` is empty, plus shape and
/// CPT-validation errors.
pub fn fit_complete(
    net: &Network,
    assignments: &[Vec<usize>],
    prior: &DirichletPrior,
) -> Result<Network> {
    if assignments.is_empty() {
        return Err(Error::NoCases);
    }
    prior.validate(net)?;
    let mut stats = SuffStats::new(net);
    for a in assignments {
        stats.add_complete(net, a, 1.0)?;
    }
    let mut fitted = net.clone();
    for (var, cpt) in net.variables().zip(stats.to_cpts(prior)) {
        fitted.set_cpt_values(var, cpt)?;
    }
    Ok(fitted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkBuilder;

    fn two_node() -> Network {
        let mut b = NetworkBuilder::new();
        let a = b.variable("a", ["0", "1"]).unwrap();
        let c = b.variable("c", ["0", "1"]).unwrap();
        b.prior(a, [0.5, 0.5]).unwrap();
        b.cpt(c, [a], [[0.5, 0.5], [0.5, 0.5]]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn case_builders() {
        let mut c = Case::new();
        assert!(c.is_empty());
        c.observe(VarId::from_index(0), 1).set_weight(2.5);
        assert_eq!(c.weight(), 2.5);
        assert_eq!(c.state_of(VarId::from_index(0)), Some(1));
        assert_eq!(c.len(), 1);

        let full = Case::from_complete(&[1, 0]);
        let net = two_node();
        assert!(full.is_complete(&net));
        let partial: Case = [(VarId::from_index(0), 1)].into_iter().collect();
        assert!(!partial.is_complete(&net));
        let ev = partial.to_evidence();
        assert_eq!(ev.state_of(VarId::from_index(0)), Some(1));
    }

    #[test]
    fn priors_shapes_and_values() {
        let net = two_node();
        let a = net.var("a").unwrap();
        let zero = DirichletPrior::zero(&net);
        assert!(zero.pseudo(a).iter().all(|&x| x == 0.0));
        let unif = DirichletPrior::uniform(&net, 2.0);
        assert!(unif.pseudo(a).iter().all(|&x| x == 2.0));
        let expert = DirichletPrior::from_network(&net, 10.0);
        assert_eq!(expert.pseudo(a), &[5.0, 5.0]);
        assert!(expert.validate(&net).is_ok());

        let other = {
            let mut b = NetworkBuilder::new();
            let x = b.variable("x", ["0", "1", "2"]).unwrap();
            b.prior(x, [0.2, 0.3, 0.5]).unwrap();
            b.build().unwrap()
        };
        assert!(expert.validate(&other).is_err());
        assert!(expert.log_density(&net).is_finite());
    }

    #[test]
    fn complete_counting_maximum_likelihood() {
        let net = two_node();
        let a = net.var("a").unwrap();
        let c = net.var("c").unwrap();
        // 3 of 4 cases have a=1; given a=1, c=1 twice of three.
        let cases = vec![vec![1, 1], vec![1, 1], vec![1, 0], vec![0, 0]];
        let fitted = fit_complete(&net, &cases, &DirichletPrior::zero(&net)).unwrap();
        assert!((fitted.cpt(a)[1] - 0.75).abs() < 1e-12);
        let row_a1 = fitted.cpt_row(c, &[1]).unwrap();
        assert!((row_a1[1] - 2.0 / 3.0).abs() < 1e-12);
        // a=0 row observed once with c=0.
        let row_a0 = fitted.cpt_row(c, &[0]).unwrap();
        assert!((row_a0[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn laplace_prior_smooths() {
        let net = two_node();
        let a = net.var("a").unwrap();
        let cases = vec![vec![1, 1]];
        let fitted = fit_complete(&net, &cases, &DirichletPrior::uniform(&net, 1.0)).unwrap();
        // (1 + 1) / (1 + 2) for a=1.
        assert!((fitted.cpt(a)[1] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn unseen_rows_fall_back_to_uniform() {
        let net = two_node();
        let c = net.var("c").unwrap();
        let cases = vec![vec![1, 1]]; // a=0 row of c never observed
        let fitted = fit_complete(&net, &cases, &DirichletPrior::zero(&net)).unwrap();
        let row = fitted.cpt_row(c, &[0]).unwrap();
        assert_eq!(row, &[0.5, 0.5]);
    }

    #[test]
    fn no_cases_is_an_error() {
        let net = two_node();
        assert!(matches!(
            fit_complete(&net, &[], &DirichletPrior::zero(&net)),
            Err(Error::NoCases)
        ));
    }

    #[test]
    fn family_marginal_accumulation() {
        let net = two_node();
        let c = net.var("c").unwrap();
        let mut stats = SuffStats::new(&net);
        let fam = net.family_factor(c); // scope [a, c], values = cpt
        stats.add_family_marginal(c, &fam, 2.0).unwrap();
        assert_eq!(stats.counts(c), &[1.0, 1.0, 1.0, 1.0]);
        // Shape mismatch is rejected.
        let wrong = Factor::unit();
        assert!(stats.add_family_marginal(c, &wrong, 1.0).is_err());
    }

    #[test]
    fn single_outcome_datalog_never_yields_nan() {
        // Every row reports the same outcome; unseen rows must fall back to
        // the uniform distribution (zero prior) or the prior mean, and no
        // cell may be NaN.
        let net = two_node();
        let cases = vec![vec![0, 0]; 8];
        for prior in [
            DirichletPrior::zero(&net),
            DirichletPrior::uniform(&net, 0.5),
            DirichletPrior::from_network(&net, 10.0),
        ] {
            let fitted = fit_complete(&net, &cases, &prior).unwrap();
            for v in fitted.variables() {
                let card = fitted.card(v);
                for row in fitted.cpt(v).chunks(card) {
                    assert!(row.iter().all(|p| p.is_finite()), "NaN row {row:?}");
                    let total: f64 = row.iter().sum();
                    assert!((total - 1.0).abs() < 1e-12, "row sums to {total}");
                }
            }
        }
    }

    #[test]
    fn out_of_range_state_is_rejected_not_corrupted() {
        let net = two_node();
        let mut stats = SuffStats::new(&net);
        let err = stats.add_complete(&net, &[2, 0], 1.0).unwrap_err();
        assert!(matches!(err, Error::InvalidEvidence { .. }), "got {err:?}");
        let err = stats.add_complete(&net, &[0, 0], f64::NAN).unwrap_err();
        assert!(matches!(err, Error::InvalidEvidence { .. }), "got {err:?}");
    }

    #[test]
    fn merge_adds_counts() {
        let net = two_node();
        let a = net.var("a").unwrap();
        let mut s1 = SuffStats::new(&net);
        let mut s2 = SuffStats::new(&net);
        s1.add_complete(&net, &[1, 0], 1.0).unwrap();
        s2.add_complete(&net, &[1, 1], 3.0).unwrap();
        s1.merge(&s2).unwrap();
        assert_eq!(s1.counts(a), &[0.0, 4.0]);
    }
}
