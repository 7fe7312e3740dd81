//! Discrete factors (potentials) over sets of network variables.
//!
//! A [`Factor`] is a non-negative table indexed by the joint states of its
//! *scope*. Factors are the workhorse of every exact-inference routine in
//! this crate: conditional probability tables are factors, variable
//! elimination multiplies and sums them, and junction-tree propagation
//! divides them.
//!
//! # Memory layout
//!
//! Values are stored row-major with the **last** scope variable varying
//! fastest: the cell for assignment `(s_0, .., s_{k-1})` over cardinalities
//! `(c_0, .., c_{k-1})` lives at index `((s_0 * c_1 + s_1) * c_2 + ..) +
//! s_{k-1}`, so axis `i` has stride `c_{i+1} * .. * c_{k-1}`. A CPT flat
//! table over `parents ++ [child]` (last parent fastest, child distribution
//! innermost) is exactly this layout and can be used as factor storage
//! without copying.
//!
//! # Allocation discipline
//!
//! The classic methods ([`Factor::product`], [`Factor::divide`],
//! [`Factor::marginalize_to`], ..) allocate their result; they are thin
//! wrappers over shared stride-map kernels ([`self::strides`]). The in-place
//! layer in [`self::ops`] — [`Factor::product_into`], [`Factor::div_assign`],
//! [`Factor::marginalize_into`] and the fused
//! [`Factor::product_all_sum_out`] — writes into caller-provided buffers
//! instead. See `ops` for the buffer-reuse contract.

mod ops;
pub(crate) mod strides;

use crate::error::{Error, Result};
use crate::network::VarId;
use serde::{Deserialize, Serialize};

/// A non-negative real-valued table over the joint states of a variable set.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), abbd_bbn::Error> {
/// use abbd_bbn::{Factor, VarId};
///
/// let a = VarId::from_index(0);
/// let b = VarId::from_index(1);
/// // P(B | A) for binary A, ternary B, flattened with B fastest.
/// let f = Factor::new(vec![a, b], vec![2, 3], vec![0.2, 0.3, 0.5, 0.6, 0.3, 0.1])?;
/// let marginal = f.sum_out(b)?;
/// assert_eq!(marginal.scope(), &[a]);
/// assert!((marginal.values()[0] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Factor {
    scope: Vec<VarId>,
    cards: Vec<usize>,
    values: Vec<f64>,
}

impl Factor {
    /// Creates a factor over `scope` with per-variable cardinalities `cards`
    /// and a flat `values` table (last scope variable fastest).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidCpt`] naming the offending variable for a
    /// zero cardinality, [`Error::ShapeMismatch`] if `values.len()` is not
    /// the product of the cardinalities, [`Error::DuplicateInScope`] if a
    /// variable repeats, and [`Error::InvalidCpt`] if any value is negative
    /// or not finite.
    pub fn new(scope: Vec<VarId>, cards: Vec<usize>, values: Vec<f64>) -> Result<Self> {
        if scope.len() != cards.len() {
            return Err(Error::ShapeMismatch {
                expected: scope.len(),
                actual: cards.len(),
            });
        }
        for (i, v) in scope.iter().enumerate() {
            if scope[i + 1..].contains(v) {
                return Err(Error::DuplicateInScope(format!("{v:?}")));
            }
        }
        // Cardinalities are validated before the shape: a zero cardinality
        // would make the expected cell count 0, letting an empty `values`
        // pass the shape check vacuously and producing a misleading
        // `ShapeMismatch` afterwards.
        for (pos, &c) in cards.iter().enumerate() {
            if c == 0 {
                return Err(Error::InvalidCpt {
                    variable: format!("{}", scope[pos]),
                    reason: "zero cardinality in factor scope".into(),
                });
            }
        }
        let expected: usize = cards.iter().product::<usize>().max(1);
        if values.len() != expected {
            return Err(Error::ShapeMismatch {
                expected,
                actual: values.len(),
            });
        }
        if let Some(bad) = values.iter().find(|v| !v.is_finite() || **v < 0.0) {
            return Err(Error::InvalidCpt {
                variable: "factor".into(),
                reason: format!("non-finite or negative value {bad}"),
            });
        }
        Ok(Factor {
            scope,
            cards,
            values,
        })
    }

    /// The multiplicative identity: an empty-scope factor holding `1.0`.
    pub fn unit() -> Self {
        Factor {
            scope: Vec::new(),
            cards: Vec::new(),
            values: vec![1.0],
        }
    }

    /// The ordered variable scope.
    pub fn scope(&self) -> &[VarId] {
        &self.scope
    }

    /// Cardinalities aligned with [`Factor::scope`].
    pub fn cards(&self) -> &[usize] {
        &self.cards
    }

    /// The flat value table (last scope variable fastest).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access to the flat value table.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Number of cells in the table.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when the factor is a scalar (empty scope).
    pub fn is_empty(&self) -> bool {
        self.scope.is_empty()
    }

    /// Position of `var` within the scope, if present.
    pub fn position(&self, var: VarId) -> Option<usize> {
        self.scope.iter().position(|&v| v == var)
    }

    /// `true` when `var` participates in this factor.
    pub fn contains(&self, var: VarId) -> bool {
        self.position(var).is_some()
    }

    /// Row-major stride of the scope variable at `pos`.
    fn stride_at(&self, pos: usize) -> usize {
        strides::axis_stride(&self.cards, pos)
    }

    /// Pointwise product; the result scope is this factor's scope followed by
    /// the other factor's new variables. Allocates the result; the in-place
    /// variant is [`Factor::product_into`].
    pub fn product(&self, other: &Factor) -> Factor {
        let (scope, cards) = self.union_shape(other);
        let mut out =
            Factor::with_shape(scope, cards).expect("union of two valid factors is a valid shape");
        self.product_into(other, &mut out)
            .expect("freshly shaped buffer always fits");
        out
    }

    /// Pointwise division by a factor whose scope is a subset of this one.
    /// Division by zero yields zero (the junction-tree convention: `0/0 = 0`).
    /// Allocates the result; the in-place variant is [`Factor::div_assign`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotInScope`] if `other` mentions a variable absent
    /// from this factor.
    pub fn divide(&self, other: &Factor) -> Result<Factor> {
        for v in other.scope() {
            if !self.contains(*v) {
                return Err(Error::NotInScope(format!("{v:?}")));
            }
        }
        let mut out = self.clone();
        out.div_assign(other)?;
        Ok(out)
    }

    /// Sums `var` out of the factor.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotInScope`] if `var` is not in the scope.
    pub fn sum_out(&self, var: VarId) -> Result<Factor> {
        let pos = self
            .position(var)
            .ok_or_else(|| Error::NotInScope(format!("{var:?}")))?;
        let card = self.cards[pos];
        let suffix = self.stride_at(pos);
        let prefix_count = self.values.len() / (card * suffix);

        let mut scope = self.scope.clone();
        let mut cards = self.cards.clone();
        scope.remove(pos);
        cards.remove(pos);
        let mut values = vec![0.0; prefix_count * suffix];
        for p in 0..prefix_count {
            let in_base = p * card * suffix;
            let out_base = p * suffix;
            for s in 0..suffix {
                let mut acc = 0.0;
                for k in 0..card {
                    acc += self.values[in_base + k * suffix + s];
                }
                values[out_base + s] = acc;
            }
        }
        Ok(Factor {
            scope,
            cards,
            values,
        })
    }

    /// Restricts the factor to `var = state` and drops `var` from the scope.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotInScope`] if absent, or [`Error::InvalidEvidence`]
    /// for an out-of-range state.
    pub fn condition(&self, var: VarId, state: usize) -> Result<Factor> {
        let pos = self
            .position(var)
            .ok_or_else(|| Error::NotInScope(format!("{var:?}")))?;
        let card = self.cards[pos];
        if state >= card {
            return Err(Error::InvalidEvidence {
                variable: format!("{var:?}"),
                reason: format!("state {state} out of range {card}"),
            });
        }
        let suffix = self.stride_at(pos);
        let prefix_count = self.values.len() / (card * suffix);
        let mut scope = self.scope.clone();
        let mut cards = self.cards.clone();
        scope.remove(pos);
        cards.remove(pos);
        let mut values = vec![0.0; prefix_count * suffix];
        for p in 0..prefix_count {
            let in_base = p * card * suffix + state * suffix;
            values[p * suffix..(p + 1) * suffix]
                .copy_from_slice(&self.values[in_base..in_base + suffix]);
        }
        Ok(Factor {
            scope,
            cards,
            values,
        })
    }

    /// Multiplies a per-state likelihood vector into the axis of `var`
    /// (soft/virtual evidence in the sense of Pearl).
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotInScope`] or [`Error::ShapeMismatch`] on a
    /// wrong-length likelihood vector.
    pub fn scale_axis(&mut self, var: VarId, weights: &[f64]) -> Result<()> {
        let pos = self
            .position(var)
            .ok_or_else(|| Error::NotInScope(format!("{var:?}")))?;
        let card = self.cards[pos];
        if weights.len() != card {
            return Err(Error::ShapeMismatch {
                expected: card,
                actual: weights.len(),
            });
        }
        let suffix = self.stride_at(pos);
        strides::scale_axis_kernel(&mut self.values, suffix, card, weights);
        Ok(())
    }

    /// Sums out every scope variable not in `keep` in a single pass; the
    /// result scope is ordered exactly as `keep` (any permutation works).
    /// Allocates the result; the in-place variant is
    /// [`Factor::marginalize_into`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotInScope`] if `keep` mentions a variable absent
    /// from the factor, [`Error::DuplicateInScope`] on a repeated variable.
    pub fn marginalize_to(&self, keep: &[VarId]) -> Result<Factor> {
        for (i, v) in keep.iter().enumerate() {
            if !self.contains(*v) {
                return Err(Error::NotInScope(format!("{v:?}")));
            }
            if keep[i + 1..].contains(v) {
                return Err(Error::DuplicateInScope(format!("{v:?}")));
            }
        }
        let cards: Vec<usize> = keep
            .iter()
            .map(|&v| self.cards[self.position(v).expect("checked above")])
            .collect();
        let mut out = Factor::with_shape(keep.to_vec(), cards)?;
        self.marginalize_into(keep, &mut out)?;
        Ok(out)
    }

    /// Returns a copy whose scope is permuted to `new_scope` (which must be a
    /// permutation of the current scope).
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] or [`Error::NotInScope`] when
    /// `new_scope` is not a permutation of the scope.
    pub fn reorder(&self, new_scope: &[VarId]) -> Result<Factor> {
        if new_scope.len() != self.scope.len() {
            return Err(Error::ShapeMismatch {
                expected: self.scope.len(),
                actual: new_scope.len(),
            });
        }
        if new_scope == self.scope {
            return Ok(self.clone());
        }
        let positions: Vec<usize> = new_scope
            .iter()
            .map(|&v| {
                self.position(v)
                    .ok_or_else(|| Error::NotInScope(format!("{v:?}")))
            })
            .collect::<Result<_>>()?;
        let cards: Vec<usize> = positions.iter().map(|&p| self.cards[p]).collect();
        let strides: Vec<usize> = positions.iter().map(|&p| self.stride_at(p)).collect();
        let total = self.values.len();
        let mut values = vec![0.0; total];
        let mut assign = vec![0usize; cards.len()];
        let mut src = 0usize;
        for slot in values.iter_mut() {
            *slot = self.values[src];
            for pos in (0..cards.len()).rev() {
                assign[pos] += 1;
                src += strides[pos];
                if assign[pos] == cards[pos] {
                    assign[pos] = 0;
                    src -= strides[pos] * cards[pos];
                } else {
                    break;
                }
            }
        }
        Ok(Factor {
            scope: new_scope.to_vec(),
            cards,
            values,
        })
    }

    /// Sum of all cells.
    pub fn total(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Normalises in place so the cells sum to one; returns the former total.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ImpossibleEvidence`] when the factor sums to zero.
    pub fn normalize(&mut self) -> Result<f64> {
        let z = self.total();
        if z <= 0.0 || !z.is_finite() {
            return Err(Error::ImpossibleEvidence);
        }
        for v in &mut self.values {
            *v /= z;
        }
        Ok(z)
    }

    /// Normalised copy; see [`Factor::normalize`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::ImpossibleEvidence`] when the factor sums to zero.
    pub fn normalized(&self) -> Result<Factor> {
        let mut f = self.clone();
        f.normalize()?;
        Ok(f)
    }

    /// Consumes the factor, returning its flat value table.
    pub fn into_values(self) -> Vec<f64> {
        self.values
    }
}

impl Default for Factor {
    fn default() -> Self {
        Factor::unit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: usize) -> VarId {
        VarId::from_index(i)
    }

    fn fab() -> Factor {
        // f(A,B), A binary, B ternary, B fastest.
        Factor::new(
            vec![v(0), v(1)],
            vec![2, 3],
            vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6],
        )
        .unwrap()
    }

    #[test]
    fn new_rejects_bad_shapes() {
        assert!(Factor::new(vec![v(0)], vec![2], vec![0.5]).is_err());
        assert!(Factor::new(vec![v(0)], vec![2, 3], vec![0.5, 0.5]).is_err());
        assert!(Factor::new(vec![v(0), v(0)], vec![2, 2], vec![0.0; 4]).is_err());
        assert!(Factor::new(vec![v(0)], vec![2], vec![-0.5, 1.5]).is_err());
        assert!(Factor::new(vec![v(0)], vec![2], vec![f64::NAN, 1.0]).is_err());
        assert!(Factor::new(vec![v(0)], vec![0], vec![]).is_err());
    }

    #[test]
    fn unit_is_multiplicative_identity() {
        let f = fab();
        let g = f.product(&Factor::unit());
        assert_eq!(f, g);
        let h = Factor::unit().product(&f);
        assert_eq!(h.marginalize_to(f.scope()).unwrap(), f);
    }

    #[test]
    fn product_matches_manual() {
        // f(A) * g(B) = outer product.
        let f = Factor::new(vec![v(0)], vec![2], vec![0.3, 0.7]).unwrap();
        let g = Factor::new(vec![v(1)], vec![2], vec![0.9, 0.1]).unwrap();
        let p = f.product(&g);
        assert_eq!(p.scope(), &[v(0), v(1)]);
        let expect = [0.27, 0.03, 0.63, 0.07];
        for (a, b) in p.values().iter().zip(expect.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn product_shared_variable() {
        // f(A,B) * g(B) scales along B.
        let f = fab();
        let g = Factor::new(vec![v(1)], vec![3], vec![2.0, 0.0, 1.0]).unwrap();
        let p = f.product(&g);
        assert_eq!(p.scope(), &[v(0), v(1)]);
        let expect = [0.2, 0.0, 0.3, 0.8, 0.0, 0.6];
        for (a, b) in p.values().iter().zip(expect.iter()) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn product_is_commutative_up_to_reorder() {
        let f = fab();
        let g = Factor::new(
            vec![v(1), v(2)],
            vec![3, 2],
            vec![0.5, 0.5, 0.1, 0.9, 0.3, 0.7],
        )
        .unwrap();
        let fg = f.product(&g);
        let gf = g.product(&f).reorder(fg.scope()).unwrap();
        for (a, b) in fg.values().iter().zip(gf.values().iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn sum_out_first_and_last() {
        let f = fab();
        let no_b = f.sum_out(v(1)).unwrap();
        assert_eq!(no_b.scope(), &[v(0)]);
        assert!((no_b.values()[0] - 0.6).abs() < 1e-12);
        assert!((no_b.values()[1] - 1.5).abs() < 1e-12);

        let no_a = f.sum_out(v(0)).unwrap();
        assert_eq!(no_a.scope(), &[v(1)]);
        let expect = [0.5, 0.7, 0.9];
        for (a, b) in no_a.values().iter().zip(expect.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
        assert!(f.sum_out(v(9)).is_err());
    }

    #[test]
    fn condition_slices() {
        let f = fab();
        let a1 = f.condition(v(0), 1).unwrap();
        assert_eq!(a1.scope(), &[v(1)]);
        assert_eq!(a1.values(), &[0.4, 0.5, 0.6]);
        let b2 = f.condition(v(1), 2).unwrap();
        assert_eq!(b2.scope(), &[v(0)]);
        assert_eq!(b2.values(), &[0.3, 0.6]);
        assert!(f.condition(v(1), 3).is_err());
        assert!(f.condition(v(7), 0).is_err());
    }

    #[test]
    fn divide_handles_zero() {
        let f = Factor::new(vec![v(0)], vec![2], vec![0.4, 0.0]).unwrap();
        let g = Factor::new(vec![v(0)], vec![2], vec![0.8, 0.0]).unwrap();
        let d = f.divide(&g).unwrap();
        assert_eq!(d.values(), &[0.5, 0.0]);
        // subset-scope division
        let fab = fab();
        let gb = Factor::new(vec![v(1)], vec![3], vec![0.5, 1.0, 2.0]).unwrap();
        let d2 = fab.divide(&gb).unwrap();
        let expect = [0.2, 0.2, 0.15, 0.8, 0.5, 0.3];
        for (a, b) in d2.values().iter().zip(expect.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
        assert!(gb.divide(&fab).is_err());
    }

    #[test]
    fn scale_axis_applies_likelihood() {
        let mut f = fab();
        f.scale_axis(v(1), &[1.0, 0.0, 2.0]).unwrap();
        let expect = [0.1, 0.0, 0.6, 0.4, 0.0, 1.2];
        for (a, b) in f.values().iter().zip(expect.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
        assert!(f.scale_axis(v(1), &[1.0]).is_err());
        assert!(f.scale_axis(v(5), &[1.0]).is_err());
    }

    #[test]
    fn marginalize_to_reorders() {
        let f = fab();
        let m = f.marginalize_to(&[v(1)]).unwrap();
        assert_eq!(m.scope(), &[v(1)]);
        let swapped = f.marginalize_to(&[v(1), v(0)]).unwrap();
        assert_eq!(swapped.scope(), &[v(1), v(0)]);
        assert!((swapped.values()[0] - 0.1).abs() < 1e-12); // B=0, A=0
        assert!((swapped.values()[1] - 0.4).abs() < 1e-12); // B=0, A=1
        assert!(f.marginalize_to(&[v(9)]).is_err());
    }

    #[test]
    fn reorder_roundtrip() {
        let f = fab();
        let r = f.reorder(&[v(1), v(0)]).unwrap();
        let back = r.reorder(&[v(0), v(1)]).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn normalize_and_total() {
        let mut f = fab();
        let total = f.total();
        assert!((total - 2.1).abs() < 1e-12);
        let z = f.normalize().unwrap();
        assert!((z - 2.1).abs() < 1e-12);
        assert!((f.total() - 1.0).abs() < 1e-12);
        let mut zero = Factor::new(vec![v(0)], vec![2], vec![0.0, 0.0]).unwrap();
        assert_eq!(zero.normalize(), Err(Error::ImpossibleEvidence));
    }
}
