//! Exact inference by variable elimination (sum-product message passing on
//! the factor list) in min-fill order.

use crate::error::{Error, Result};
use crate::evidence::Evidence;
use crate::factor::Factor;
use crate::graph::{elimination_order, UndirectedGraph};
use crate::infer::Posteriors;
use crate::network::{Network, VarId};

/// Exact single-query inference engine.
///
/// Variable elimination answers one query per pass; for repeated queries on
/// the same evidence prefer [`crate::JunctionTree`]. It is nevertheless the
/// backbone for arbitrary joint marginals that do not fit inside one clique.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), abbd_bbn::Error> {
/// use abbd_bbn::{Evidence, NetworkBuilder, VariableElimination};
///
/// let mut b = NetworkBuilder::new();
/// let burglary = b.variable("burglary", ["no", "yes"])?;
/// let alarm = b.variable("alarm", ["off", "on"])?;
/// b.prior(burglary, [0.99, 0.01])?;
/// b.cpt(alarm, [burglary], [[0.999, 0.001], [0.05, 0.95]])?;
/// let net = b.build()?;
///
/// let mut seen = Evidence::new();
/// seen.observe(alarm, 1);
/// let posterior = VariableElimination::new(&net).posterior(&seen, burglary)?;
/// assert!(posterior[1] > 0.9 * 0.01); // alarm raises the burglary belief
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct VariableElimination<'a> {
    net: &'a Network,
}

impl<'a> VariableElimination<'a> {
    /// Creates an engine that eliminates in min-fill order.
    pub fn new(net: &'a Network) -> Self {
        VariableElimination { net }
    }

    /// The posterior distribution of `var` given `evidence`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ImpossibleEvidence`] when the evidence has zero
    /// probability, plus any evidence-validation error.
    pub fn posterior(&self, evidence: &Evidence, var: VarId) -> Result<Vec<f64>> {
        let joint = self.joint_marginal(evidence, &[var])?;
        Ok(joint.into_values())
    }

    /// Posterior marginals for every variable (one elimination pass per
    /// variable; prefer a junction tree when this is hot).
    ///
    /// # Errors
    ///
    /// Same as [`VariableElimination::posterior`].
    pub fn all_posteriors(&self, evidence: &Evidence) -> Result<Posteriors> {
        let mut marginals = Vec::with_capacity(self.net.var_count());
        for var in self.net.variables() {
            marginals.push(self.posterior(evidence, var)?);
        }
        Ok(Posteriors::new(marginals))
    }

    /// The normalised joint marginal over `targets` given `evidence`, with
    /// the result scope ordered exactly as `targets`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ImpossibleEvidence`] for zero-probability evidence
    /// and validation errors for malformed targets or evidence.
    pub fn joint_marginal(&self, evidence: &Evidence, targets: &[VarId]) -> Result<Factor> {
        let mut f = self.eliminate_to(evidence, targets)?;
        f.normalize()?;
        f.reorder(targets)
    }

    /// The probability of the evidence, `P(e)`.
    ///
    /// # Errors
    ///
    /// Returns evidence-validation errors.
    pub fn evidence_probability(&self, evidence: &Evidence) -> Result<f64> {
        let f = self.eliminate_to(evidence, &[])?;
        Ok(f.total())
    }

    /// Natural log of [`VariableElimination::evidence_probability`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::ImpossibleEvidence`] when `P(e) = 0`.
    pub fn log_likelihood(&self, evidence: &Evidence) -> Result<f64> {
        let p = self.evidence_probability(evidence)?;
        if p <= 0.0 {
            return Err(Error::ImpossibleEvidence);
        }
        Ok(p.ln())
    }

    /// Core routine: multiplies all family factors, absorbs evidence and
    /// sums out everything except `targets`, returning an **unnormalised**
    /// factor whose total is `P(targets-compatible evidence)`.
    fn eliminate_to(&self, evidence: &Evidence, targets: &[VarId]) -> Result<Factor> {
        evidence.validate(self.net)?;
        for t in targets {
            if t.index() >= self.net.var_count() {
                return Err(Error::UnknownVariable(format!("{t}")));
            }
        }

        // Assemble the factor list. Hard evidence on a *target* variable is
        // converted to a one-hot likelihood so that the variable stays in
        // scope and the query still returns a full distribution.
        let mut factors: Vec<Factor> = Vec::with_capacity(self.net.var_count());
        for var in self.net.variables() {
            let mut f = self.net.family_factor(var);
            // Soft evidence is applied exactly once: to the variable's own
            // family factor (applying it to every mentioning factor would
            // square the likelihood).
            if let Some(lik) = evidence.likelihood_of(var) {
                f.scale_axis(var, lik)?;
            }
            if let Some(state) = evidence.state_of(var) {
                if targets.contains(&var) {
                    let mut onehot = vec![0.0; self.net.card(var)];
                    onehot[state] = 1.0;
                    f.scale_axis(var, &onehot)?;
                }
            }
            factors.push(f);
        }
        // Condition every factor on non-target hard evidence.
        for (var, state) in evidence.hard_iter() {
            if targets.contains(&var) {
                continue;
            }
            for f in &mut factors {
                if f.contains(var) {
                    *f = f.condition(var, state)?;
                }
            }
        }

        // Variables still present in scopes that must be eliminated.
        let mut present = vec![false; self.net.var_count()];
        for f in &factors {
            for v in f.scope() {
                present[v.index()] = true;
            }
        }
        let to_eliminate: Vec<usize> = (0..self.net.var_count())
            .filter(|&i| present[i] && !targets.iter().any(|t| t.index() == i))
            .collect();

        // Interaction graph over current scopes.
        let mut graph = UndirectedGraph::empty(self.net.var_count());
        for f in &factors {
            let scope = f.scope();
            for (i, a) in scope.iter().enumerate() {
                for b in &scope[i + 1..] {
                    graph.add_edge(a.index(), b.index());
                }
            }
        }
        let order = elimination_order(&graph, &to_eliminate);

        for idx in order {
            let var = VarId::from_index(idx);
            let (touching, rest): (Vec<Factor>, Vec<Factor>) =
                factors.into_iter().partition(|f| f.contains(var));
            factors = rest;
            if touching.is_empty() {
                continue;
            }
            // Multiply the whole bucket and sum the variable out in one
            // fused pass — no intermediate joint tables.
            let refs: Vec<&Factor> = touching.iter().collect();
            factors.push(Factor::product_all_sum_out(&refs, var)?);
        }

        let mut result = Factor::unit();
        for f in &factors {
            result = result.product(f);
        }
        if result.total() <= 0.0 {
            return Err(Error::ImpossibleEvidence);
        }
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::enumerate_posteriors;
    use crate::network::NetworkBuilder;

    fn sprinkler() -> Network {
        let mut b = NetworkBuilder::new();
        let cloudy = b.variable("cloudy", ["n", "y"]).unwrap();
        let sprinkler = b.variable("sprinkler", ["n", "y"]).unwrap();
        let rain = b.variable("rain", ["n", "y"]).unwrap();
        let wet = b.variable("wet", ["n", "y"]).unwrap();
        b.prior(cloudy, [0.5, 0.5]).unwrap();
        b.cpt(sprinkler, [cloudy], [[0.5, 0.5], [0.9, 0.1]])
            .unwrap();
        b.cpt(rain, [cloudy], [[0.8, 0.2], [0.2, 0.8]]).unwrap();
        b.cpt(
            wet,
            [sprinkler, rain],
            [[1.0, 0.0], [0.1, 0.9], [0.1, 0.9], [0.01, 0.99]],
        )
        .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn matches_enumeration_no_evidence() {
        let net = sprinkler();
        let ve = VariableElimination::new(&net);
        let exact = enumerate_posteriors(&net, &Evidence::new()).unwrap();
        let got = ve.all_posteriors(&Evidence::new()).unwrap();
        assert!(got.max_abs_diff(&exact).unwrap() < 1e-10);
    }

    #[test]
    fn matches_enumeration_with_evidence() {
        let net = sprinkler();
        let ve = VariableElimination::new(&net);
        let wet = net.var("wet").unwrap();
        let cloudy = net.var("cloudy").unwrap();
        let mut e = Evidence::new();
        e.observe(wet, 1).observe(cloudy, 0);
        let exact = enumerate_posteriors(&net, &e).unwrap();
        let got = ve.all_posteriors(&e).unwrap();
        assert!(got.max_abs_diff(&exact).unwrap() < 1e-10);
    }

    #[test]
    fn soft_evidence_matches_enumeration() {
        let net = sprinkler();
        let ve = VariableElimination::new(&net);
        let rain = net.var("rain").unwrap();
        let mut e = Evidence::new();
        e.observe_likelihood(rain, vec![0.25, 1.75]);
        let exact = enumerate_posteriors(&net, &e).unwrap();
        let got = ve.all_posteriors(&e).unwrap();
        assert!(got.max_abs_diff(&exact).unwrap() < 1e-10);
    }

    #[test]
    fn posterior_of_observed_variable_is_point_mass() {
        let net = sprinkler();
        let ve = VariableElimination::new(&net);
        let wet = net.var("wet").unwrap();
        let mut e = Evidence::new();
        e.observe(wet, 0);
        let p = ve.posterior(&e, wet).unwrap();
        assert!((p[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn joint_marginal_scope_order() {
        let net = sprinkler();
        let ve = VariableElimination::new(&net);
        let s = net.var("sprinkler").unwrap();
        let r = net.var("rain").unwrap();
        let j = ve.joint_marginal(&Evidence::new(), &[r, s]).unwrap();
        assert_eq!(j.scope(), &[r, s]);
        assert!((j.total() - 1.0).abs() < 1e-10);
        // P(s=1, r=1) = sum_c P(c) P(s=1|c) P(r=1|c) = .5*.5*.2 + .5*.1*.8;
        // both binary with `s` fastest, so (r=1, s=1) is the last cell.
        let p11 = j.values()[3];
        assert!((p11 - (0.5 * 0.5 * 0.2 + 0.5 * 0.1 * 0.8)).abs() < 1e-10);
    }

    #[test]
    fn evidence_probability_and_log_likelihood() {
        let net = sprinkler();
        let ve = VariableElimination::new(&net);
        let wet = net.var("wet").unwrap();
        let mut e = Evidence::new();
        e.observe(wet, 1);
        let p = ve.evidence_probability(&e).unwrap();
        // P(wet=1) from full enumeration: computed once by hand = 0.5985... let
        // the chain rule verify instead.
        let mut expect = 0.0;
        for idx in 0..16usize {
            let a = [(idx >> 3) & 1, (idx >> 2) & 1, (idx >> 1) & 1, idx & 1];
            if a[3] == 1 {
                expect += net.joint_probability(&a).unwrap();
            }
        }
        assert!((p - expect).abs() < 1e-10);
        assert!((ve.log_likelihood(&e).unwrap() - expect.ln()).abs() < 1e-10);
    }

    #[test]
    fn impossible_evidence_errors() {
        let mut b = NetworkBuilder::new();
        let a = b.variable("a", ["0", "1"]).unwrap();
        let c = b.variable("c", ["0", "1"]).unwrap();
        b.prior(a, [1.0, 0.0]).unwrap();
        b.cpt(c, [a], [[1.0, 0.0], [0.0, 1.0]]).unwrap();
        let net = b.build().unwrap();
        let ve = VariableElimination::new(&net);
        let mut e = Evidence::new();
        e.observe(c, 1);
        assert!(matches!(
            ve.posterior(&e, a),
            Err(Error::ImpossibleEvidence)
        ));
    }

    #[test]
    fn hub_with_many_children_does_not_overflow_bucket() {
        // Eliminating `hub` puts one factor per child in a single bucket;
        // with 70 children the bucket exceeds the 64-axis stack budget of
        // the kernels, which must spill per-source indices to the heap
        // rather than panic (regression test for the fixed assert).
        let mut b = NetworkBuilder::new();
        let hub = b.variable("hub", ["0", "1"]).unwrap();
        b.prior(hub, [0.5, 0.5]).unwrap();
        let kids: Vec<_> = (0..70)
            .map(|i| {
                let k = b.variable(format!("k{i}"), ["0", "1"]).unwrap();
                b.cpt(k, [hub], [[0.9, 0.1], [0.2, 0.8]]).unwrap();
                k
            })
            .collect();
        let net = b.build().unwrap();
        let ve = VariableElimination::new(&net);
        let p = ve.posterior(&Evidence::new(), kids[0]).unwrap();
        // P(k0=1) = 0.5*0.1 + 0.5*0.8
        assert!((p[1] - 0.45).abs() < 1e-9);
    }

    #[test]
    fn rejects_invalid_evidence_and_targets() {
        let net = sprinkler();
        let ve = VariableElimination::new(&net);
        let mut e = Evidence::new();
        e.observe(VarId::from_index(99), 0);
        assert!(ve.evidence_probability(&e).is_err());
        assert!(ve
            .joint_marginal(&Evidence::new(), &[VarId::from_index(99)])
            .is_err());
    }
}
