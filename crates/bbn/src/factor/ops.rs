//! In-place and fused factor operations.
//!
//! # Buffer-reuse contract
//!
//! The `*_into` / `*_assign` methods write into caller-provided [`Factor`]
//! buffers instead of allocating: build the destination once with
//! [`Factor::with_shape`] (typically from [`Factor::union_shape`]), then
//! reuse it across calls. A destination's scope and cardinalities must
//! match what the operation produces — they are validated on every call
//! (cheap, O(scope)) and never silently reshaped. Values are always fully
//! overwritten, so a reused buffer needs no clearing between calls.

use super::strides::{
    div_broadcast_kernel, marginalize_kernel, product_accumulate_kernel,
    product_all_accumulate_kernel, table_len,
};
use super::Factor;
use crate::error::{Error, Result};
use crate::network::VarId;

impl Factor {
    /// A zeroed factor with the given shape, for use as a reusable
    /// destination buffer of the `*_into` operations.
    ///
    /// # Errors
    ///
    /// Same validation as [`Factor::new`] minus the value checks.
    pub fn with_shape(scope: Vec<VarId>, cards: Vec<usize>) -> Result<Self> {
        let total = table_len(&cards);
        Factor::new(scope, cards, vec![0.0; total])
    }

    /// The scope and cardinalities of `self.product(other)`: this factor's
    /// scope followed by the other factor's new variables.
    pub fn union_shape(&self, other: &Factor) -> (Vec<VarId>, Vec<usize>) {
        let mut scope = self.scope.clone();
        let mut cards = self.cards.clone();
        for (pos, &v) in other.scope.iter().enumerate() {
            if !scope.contains(&v) {
                scope.push(v);
                cards.push(other.cards[pos]);
            }
        }
        (scope, cards)
    }

    /// Broadcast strides of this factor aligned to `target_scope`: for each
    /// target axis, this factor's stride of that variable (0 when absent).
    pub(crate) fn strides_aligned_to(&self, target_scope: &[VarId]) -> Vec<usize> {
        super::strides::aligned_strides(self.scope(), self.cards(), target_scope)
    }

    /// Checks that `out` has exactly the given shape.
    fn check_shape(out: &Factor, scope: &[VarId], cards: &[usize]) -> Result<()> {
        if out.scope != scope {
            if out.scope.len() != scope.len() {
                return Err(Error::ShapeMismatch {
                    expected: scope.len(),
                    actual: out.scope.len(),
                });
            }
            // Same arity, different variables: name the first mismatch so
            // the error is actionable (a bare count-vs-count would read
            // "expected 3 values, got 3").
            let (want, got) = scope
                .iter()
                .zip(&out.scope)
                .find(|(w, g)| w != g)
                .expect("scopes differ");
            return Err(Error::NotInScope(format!(
                "destination scope has `{got}` where `{want}` is required"
            )));
        }
        if out.cards != cards {
            return Err(Error::ShapeMismatch {
                expected: table_len(cards),
                actual: table_len(&out.cards),
            });
        }
        Ok(())
    }

    /// Pointwise product written into `out`, which must have been shaped
    /// with [`Factor::union_shape`] — no allocation happens here.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] when `out` has the wrong shape.
    pub fn product_into(&self, other: &Factor, out: &mut Factor) -> Result<()> {
        let (scope, cards) = self.union_shape(other);
        Self::check_shape(out, &scope, &cards)?;
        let a_str = self.strides_aligned_to(&scope);
        let b_str = other.strides_aligned_to(&scope);
        let out_str: Vec<usize> = (0..scope.len())
            .map(|i| cards[i + 1..].iter().product())
            .collect();
        out.values.fill(0.0);
        product_accumulate_kernel(
            &cards,
            &self.values,
            &a_str,
            &other.values,
            &b_str,
            &out_str,
            &mut out.values,
        );
        Ok(())
    }

    /// Divides this factor by `other` in place (`0 / 0 = 0`, the junction
    /// tree convention). `other`'s scope must be a subset of this factor's
    /// scope; nothing is allocated.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotInScope`] if `other` mentions a variable absent
    /// from this factor.
    pub fn div_assign(&mut self, other: &Factor) -> Result<()> {
        for v in &other.scope {
            if !self.contains(*v) {
                return Err(Error::NotInScope(format!("{v:?}")));
            }
        }
        let m_str = other.strides_aligned_to(&self.scope);
        div_broadcast_kernel(&self.cards, &mut self.values, &other.values, &m_str);
        Ok(())
    }

    /// Multiplies a whole bucket of factors and sums `var` out in a single
    /// pass over the joint index space — the variable-elimination inner
    /// step, with no intermediate joint tables.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotInScope`] when `var` is in no factor's scope.
    pub fn product_all_sum_out(factors: &[&Factor], var: VarId) -> Result<Factor> {
        if !factors.iter().any(|f| f.contains(var)) {
            return Err(Error::NotInScope(format!("{var:?}")));
        }
        // Union scope in scan order.
        let mut scope: Vec<VarId> = Vec::new();
        let mut cards: Vec<usize> = Vec::new();
        for f in factors {
            for (pos, &v) in f.scope.iter().enumerate() {
                if !scope.contains(&v) {
                    scope.push(v);
                    cards.push(f.cards[pos]);
                }
            }
        }
        let mut out_scope = Vec::with_capacity(scope.len() - 1);
        let mut out_cards = Vec::with_capacity(scope.len() - 1);
        for (pos, &v) in scope.iter().enumerate() {
            if v != var {
                out_scope.push(v);
                out_cards.push(cards[pos]);
            }
        }
        let mut out = Factor::with_shape(out_scope, out_cards)?;
        let strides: Vec<Vec<usize>> = factors
            .iter()
            .map(|f| f.strides_aligned_to(&scope))
            .collect();
        let sources: Vec<&[f64]> = factors.iter().map(|f| f.values()).collect();
        let out_str = out.strides_aligned_to(&scope);
        product_all_accumulate_kernel(&cards, &sources, &strides, &out_str, &mut out.values);
        Ok(out)
    }

    /// Single-pass marginalization onto `keep` (any subset of the scope, in
    /// any order) written into `out`, which must have scope exactly `keep`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotInScope`] for unknown variables and
    /// [`Error::ShapeMismatch`] for a misshaped `out`.
    pub fn marginalize_into(&self, keep: &[VarId], out: &mut Factor) -> Result<()> {
        for v in keep {
            if !self.contains(*v) {
                return Err(Error::NotInScope(format!("{v:?}")));
            }
        }
        let cards: Vec<usize> = keep
            .iter()
            .map(|&v| self.cards[self.position(v).expect("checked above")])
            .collect();
        Self::check_shape(out, keep, &cards)?;
        let out_str = out.strides_aligned_to(&self.scope);
        out.values.fill(0.0);
        marginalize_kernel(&self.cards, &self.values, &out_str, &mut out.values);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: usize) -> VarId {
        VarId::from_index(i)
    }

    fn fab() -> Factor {
        Factor::new(
            vec![v(0), v(1)],
            vec![2, 3],
            vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6],
        )
        .unwrap()
    }

    fn assert_close(a: &Factor, b: &Factor) {
        assert_eq!(a.scope(), b.scope());
        for (x, y) in a.values().iter().zip(b.values()) {
            assert!((x - y).abs() < 1e-12, "{x} vs {y}");
        }
    }

    #[test]
    fn product_into_matches_product() {
        let f = fab();
        let g = Factor::new(
            vec![v(1), v(2)],
            vec![3, 2],
            vec![0.5, 0.5, 0.1, 0.9, 0.3, 0.7],
        )
        .unwrap();
        let (scope, cards) = f.union_shape(&g);
        let mut out = Factor::with_shape(scope, cards).unwrap();
        f.product_into(&g, &mut out).unwrap();
        assert_close(&out, &f.product(&g));
        // Buffer reuse: a second call fully overwrites.
        f.product_into(&g, &mut out).unwrap();
        assert_close(&out, &f.product(&g));
        // Wrong shape is rejected.
        let mut bad = Factor::with_shape(vec![v(0)], vec![2]).unwrap();
        assert!(f.product_into(&g, &mut bad).is_err());
    }

    #[test]
    fn div_assign_matches_divide() {
        let f = fab();
        let g = Factor::new(vec![v(1)], vec![3], vec![0.5, 0.0, 2.0]).unwrap();
        let expect = f.divide(&g).unwrap();
        let mut h = f.clone();
        h.div_assign(&g).unwrap();
        assert_close(&h, &expect);
    }

    #[test]
    fn product_all_sum_out_matches_sequential() {
        let f0 = Factor::new(vec![v(0)], vec![2], vec![0.25, 0.75]).unwrap();
        let f1 = fab();
        let f2 = Factor::new(
            vec![v(1), v(2)],
            vec![3, 2],
            vec![0.5, 0.5, 0.1, 0.9, 0.3, 0.7],
        )
        .unwrap();
        let fused = Factor::product_all_sum_out(&[&f0, &f1, &f2], v(1)).unwrap();
        let seq = f0.product(&f1).product(&f2).sum_out(v(1)).unwrap();
        assert_close(&fused, &seq.reorder(fused.scope()).unwrap());
        assert!(Factor::product_all_sum_out(&[&f0], v(9)).is_err());
    }

    #[test]
    fn marginalize_into_matches_marginalize_to() {
        let f = fab();
        let mut out = Factor::with_shape(vec![v(1), v(0)], vec![3, 2]).unwrap();
        f.marginalize_into(&[v(1), v(0)], &mut out).unwrap();
        assert_close(&out, &f.marginalize_to(&[v(1), v(0)]).unwrap());
        let mut scalar = Factor::with_shape(vec![], vec![]).unwrap();
        f.marginalize_into(&[], &mut scalar).unwrap();
        assert!((scalar.values()[0] - f.total()).abs() < 1e-12);
        assert!(f.marginalize_into(&[v(9)], &mut out).is_err());
    }
}
