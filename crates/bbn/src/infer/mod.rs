//! Exact inference engines (junction tree, variable elimination, brute-force
//! enumeration) plus forward sampling of complete cases.
//!
//! The exact engines answer the same question the paper's diagnostic mode asks of
//! Netica: *given the observed states of controllable and observable blocks,
//! what are the posterior state distributions of every other block?*

mod elimination;
mod jointree;
mod sampling;

pub use elimination::VariableElimination;
pub use jointree::{
    compile_count as jointree_compile_count, work_counts as jointree_work_counts, AbsorbedView,
    CalibratedTree, CalibratedView, JunctionTree, PropagationWorkspace, WorkCounts,
};
pub use sampling::{forward_sample, forward_sample_cases};

use crate::error::{Error, Result};
use crate::network::{Network, VarId};

/// Posterior marginal distributions for every variable of a network.
#[derive(Debug, Clone, PartialEq)]
pub struct Posteriors {
    marginals: Vec<Vec<f64>>,
}

impl Posteriors {
    pub(crate) fn new(marginals: Vec<Vec<f64>>) -> Self {
        Posteriors { marginals }
    }

    /// The posterior distribution of `var`.
    pub fn of(&self, var: VarId) -> &[f64] {
        &self.marginals[var.index()]
    }

    /// The most probable state of `var` under the posterior.
    pub fn argmax(&self, var: VarId) -> usize {
        let dist = self.of(var);
        dist.iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("posterior has no NaN"))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Probability mass of `var` over a set of state indices.
    pub fn mass(&self, var: VarId, states: &[usize]) -> f64 {
        let dist = self.of(var);
        states.iter().filter_map(|&s| dist.get(s)).sum()
    }

    /// Number of variables covered.
    pub fn len(&self) -> usize {
        self.marginals.len()
    }

    /// `true` when no marginals are held.
    pub fn is_empty(&self) -> bool {
        self.marginals.is_empty()
    }

    /// Iterates `(variable, distribution)` pairs in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, &[f64])> + '_ {
        self.marginals
            .iter()
            .enumerate()
            .map(|(i, d)| (VarId::from_index(i), d.as_slice()))
    }

    /// Largest absolute difference against another posterior set; useful for
    /// comparing engines in tests.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] when the sets cover different
    /// variables or cardinalities.
    pub fn max_abs_diff(&self, other: &Posteriors) -> Result<f64> {
        if self.marginals.len() != other.marginals.len() {
            return Err(Error::ShapeMismatch {
                expected: self.marginals.len(),
                actual: other.marginals.len(),
            });
        }
        let mut worst = 0.0f64;
        for (a, b) in self.marginals.iter().zip(&other.marginals) {
            if a.len() != b.len() {
                return Err(Error::ShapeMismatch {
                    expected: a.len(),
                    actual: b.len(),
                });
            }
            for (x, y) in a.iter().zip(b) {
                worst = worst.max((x - y).abs());
            }
        }
        Ok(worst)
    }
}

/// Exhaustive-enumeration posterior computation. Exponential in the number
/// of variables; used as the ground-truth oracle in tests and property
/// tests, never in production paths.
pub fn enumerate_posteriors(net: &Network, evidence: &crate::Evidence) -> Result<Posteriors> {
    evidence.validate(net)?;
    let n = net.var_count();
    let cards: Vec<usize> = net.variables().map(|v| net.card(v)).collect();
    let total: usize = cards.iter().product();
    let mut marginals: Vec<Vec<f64>> = cards.iter().map(|&c| vec![0.0; c]).collect();
    let mut assignment = vec![0usize; n];
    let mut z = 0.0;
    for _ in 0..total {
        let mut weight = net.joint_probability(&assignment)?;
        for (var, state) in evidence.hard_iter() {
            if assignment[var.index()] != state {
                weight = 0.0;
                break;
            }
        }
        if weight > 0.0 {
            for (var, lik) in evidence.soft_iter() {
                weight *= lik[assignment[var.index()]];
            }
        }
        if weight > 0.0 {
            z += weight;
            for (i, &s) in assignment.iter().enumerate() {
                marginals[i][s] += weight;
            }
        }
        // odometer
        for pos in (0..n).rev() {
            assignment[pos] += 1;
            if assignment[pos] == cards[pos] {
                assignment[pos] = 0;
            } else {
                break;
            }
        }
    }
    if z <= 0.0 {
        return Err(Error::ImpossibleEvidence);
    }
    for dist in &mut marginals {
        for p in dist.iter_mut() {
            *p /= z;
        }
    }
    Ok(Posteriors::new(marginals))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkBuilder;
    use crate::Evidence;

    fn chain() -> Network {
        let mut b = NetworkBuilder::new();
        let a = b.variable("a", ["0", "1"]).unwrap();
        let c = b.variable("c", ["0", "1"]).unwrap();
        b.prior(a, [0.3, 0.7]).unwrap();
        b.cpt(c, [a], [[0.9, 0.1], [0.4, 0.6]]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn enumeration_prior_marginals() {
        let net = chain();
        let post = enumerate_posteriors(&net, &Evidence::new()).unwrap();
        let a = net.var("a").unwrap();
        let c = net.var("c").unwrap();
        assert!((post.of(a)[1] - 0.7).abs() < 1e-12);
        // P(c=1) = .3*.1 + .7*.6 = .45
        assert!((post.of(c)[1] - 0.45).abs() < 1e-12);
        assert_eq!(post.argmax(a), 1);
        assert_eq!(post.len(), 2);
    }

    #[test]
    fn enumeration_with_evidence_bayes_rule() {
        let net = chain();
        let a = net.var("a").unwrap();
        let c = net.var("c").unwrap();
        let mut e = Evidence::new();
        e.observe(c, 1);
        let post = enumerate_posteriors(&net, &e).unwrap();
        // P(a=1 | c=1) = .7*.6 / .45
        assert!((post.of(a)[1] - 0.42 / 0.45).abs() < 1e-12);
        // Observed variable collapses to a point mass.
        assert!((post.of(c)[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn enumeration_soft_evidence() {
        let net = chain();
        let a = net.var("a").unwrap();
        let c = net.var("c").unwrap();
        let mut e = Evidence::new();
        e.observe_likelihood(c, vec![1.0, 3.0]);
        let post = enumerate_posteriors(&net, &e).unwrap();
        // weight(a=1) = .7*(.4*1 + .6*3) = .7*2.2; weight(a=0)=.3*(.9+.3)=.3*1.2
        let w1 = 0.7 * 2.2;
        let w0 = 0.3 * 1.2;
        assert!((post.of(a)[1] - w1 / (w0 + w1)).abs() < 1e-12);
    }

    #[test]
    fn impossible_evidence_is_reported() {
        let mut b = NetworkBuilder::new();
        let a = b.variable("a", ["0", "1"]).unwrap();
        let c = b.variable("c", ["0", "1"]).unwrap();
        b.prior(a, [1.0, 0.0]).unwrap();
        b.cpt(c, [a], [[1.0, 0.0], [0.0, 1.0]]).unwrap();
        let net = b.build().unwrap();
        let mut e = Evidence::new();
        e.observe(c, 1); // requires a=1 which has zero prior
        assert_eq!(
            enumerate_posteriors(&net, &e),
            Err(Error::ImpossibleEvidence)
        );
    }

    #[test]
    fn posterior_helpers() {
        let p = Posteriors::new(vec![vec![0.2, 0.8], vec![0.5, 0.25, 0.25]]);
        let v0 = VarId::from_index(0);
        let v1 = VarId::from_index(1);
        assert_eq!(p.argmax(v0), 1);
        assert!((p.mass(v1, &[1, 2]) - 0.5).abs() < 1e-12);
        assert!(!p.is_empty());
        assert_eq!(p.iter().count(), 2);
        let q = Posteriors::new(vec![vec![0.2, 0.8], vec![0.4, 0.35, 0.25]]);
        assert!((p.max_abs_diff(&q).unwrap() - 0.1).abs() < 1e-12);
        let r = Posteriors::new(vec![vec![0.2, 0.8]]);
        assert!(p.max_abs_diff(&r).is_err());
    }
}
