//! Table kernels: the shared inner loops of every factor operation and of
//! junction-tree message passing.
//!
//! # Memory layout
//!
//! Factor tables are row-major with the **last** scope variable varying
//! fastest: the cell for assignment `(s_0, .., s_{k-1})` over cards
//! `(c_0, .., c_{k-1})` lives at `((s_0 * c_1 + s_1) * c_2 + ..) + s_{k-1}`.
//! The stride of axis `i` is therefore `c_{i+1} * .. * c_{k-1}`.
//!
//! # Broadcast strides (factor algebra and compile-time tables)
//!
//! The stride kernels walk a *target* index space (a product scope, a
//! clique table, a family marginal) linearly while an odometer keeps one
//! or more *secondary* linear indices in step. A secondary table (an
//! operand factor, a CPT, a marginal) is described by its **broadcast
//! strides**: for each target axis, the secondary table's own stride when
//! it contains that variable, `0` when it does not. Absent axes then
//! broadcast (multiply) or accumulate (marginalize) with a handful of adds
//! and one branch per axis per cell. [`Factor`](crate::Factor)
//! operations, variable elimination, the junction tree's compiled base
//! tables and its EM family marginals use these kernels: each runs once
//! per operation, over shapes that are not known in advance.
//!
//! The odometer state lives in a fixed stack array, so kernels never
//! allocate: a factor with more than [`MAX_AXES`] axes would need a table
//! of at least 2^64 cells and cannot exist.
//!
//! # Index maps (junction-tree messages)
//!
//! A junction tree passes messages over the same clique/separator pairs
//! on every query, so it runs the odometer once per pair at compile time:
//! [`index_map`] records, for every clique cell, the separator cell the
//! broadcast strides would reach. The message kernels
//! ([`scatter_add_kernel`], [`gather_mul_kernel`],
//! [`gather_copy_mul_kernel`]) are then straight loops with one indexed
//! load per cell. They visit the cells in the odometer's order, so every
//! output cell sees the same additions in the same order, or the same
//! single product, as [`marginalize_kernel`] and [`mul_broadcast_kernel`]
//! over the same strides: the results are bitwise equal.

/// Upper bound on scope width (tables have at least 2^width cells).
pub(crate) const MAX_AXES: usize = 64;

/// Total number of cells of a card vector (1 for an empty scope).
#[inline]
pub(crate) fn table_len(cards: &[usize]) -> usize {
    cards.iter().product::<usize>().max(1)
}

/// Row-major stride of the axis at `pos` in a table over `cards` (the
/// product of all later cardinalities). The one place the last-variable-
/// fastest layout is spelled out as a formula.
#[inline]
pub(crate) fn axis_stride(cards: &[usize], pos: usize) -> usize {
    cards[pos + 1..].iter().product()
}

/// Broadcast strides of the table over `(sub_scope, sub_cards)` aligned to
/// `target_scope`: for each target axis, the sub-table's own row-major
/// stride of that variable, or 0 when absent. This is the single source of
/// truth for aligning one scope to another — every marginalize/broadcast
/// site (factor ops, separators, evidence slots, family tables) derives
/// its stride maps here so a layout change has exactly one home.
pub fn aligned_strides<V: PartialEq + Copy>(
    sub_scope: &[V],
    sub_cards: &[usize],
    target_scope: &[V],
) -> Vec<usize> {
    debug_assert_eq!(sub_scope.len(), sub_cards.len());
    target_scope
        .iter()
        .map(|&v| {
            sub_scope
                .iter()
                .position(|&s| s == v)
                .map(|p| axis_stride(sub_cards, p))
                .unwrap_or(0)
        })
        .collect()
}

/// Steps a row-major odometer over `cards`, keeping the secondary linear
/// indices in `idx` in sync with their `strides`. `strides[k]` must have
/// one entry per axis. All kernels below share this inner loop.
#[inline(always)]
fn step<const N: usize>(
    cards: &[usize],
    assign: &mut [usize; MAX_AXES],
    strides: [&[usize]; N],
    idx: &mut [usize; N],
) {
    for pos in (0..cards.len()).rev() {
        assign[pos] += 1;
        for k in 0..N {
            idx[k] += strides[k][pos];
        }
        if assign[pos] == cards[pos] {
            assign[pos] = 0;
            for k in 0..N {
                idx[k] -= strides[k][pos] * cards[pos];
            }
        } else {
            break;
        }
    }
}

#[inline]
fn check_axes(cards: &[usize]) {
    assert!(
        cards.len() <= MAX_AXES,
        "factor scope wider than {MAX_AXES} axes"
    );
}

/// `out[i_out] += a[i_a] * b[i_b]` over the full joint space described by
/// `cards`. With `out_str` covering every axis this is a pointwise product;
/// with some axes absent from `out_str` it is a fused product-marginalize
/// that never materialises the joint table. `out` must be pre-zeroed.
pub(crate) fn product_accumulate_kernel(
    cards: &[usize],
    a: &[f64],
    a_str: &[usize],
    b: &[f64],
    b_str: &[usize],
    out_str: &[usize],
    out: &mut [f64],
) {
    check_axes(cards);
    let total = table_len(cards);
    let mut assign = [0usize; MAX_AXES];
    let mut idx = [0usize; 3];
    for _ in 0..total {
        out[idx[2]] += a[idx[0]] * b[idx[1]];
        step(cards, &mut assign, [a_str, b_str, out_str], &mut idx);
    }
}

/// `out[i_out] += prod_k sources[k][i_k]` over the joint space: the N-ary
/// generalisation used by variable elimination to multiply a whole bucket
/// of factors and marginalize in one pass, without intermediate joint
/// tables. `strides[k]` are the broadcast strides of source `k`; `out`
/// must be pre-zeroed.
pub(crate) fn product_all_accumulate_kernel(
    cards: &[usize],
    sources: &[&[f64]],
    strides: &[Vec<usize>],
    out_str: &[usize],
    out: &mut [f64],
) {
    debug_assert_eq!(sources.len(), strides.len());
    check_axes(cards);
    let total = table_len(cards);
    let n = sources.len();
    // Unlike the scope width (bounded by MAX_AXES), the bucket size is
    // unbounded — a hub variable can touch arbitrarily many factors — so
    // the per-source indices live on the heap. This kernel runs once per
    // elimination step; the setup already allocates the stride vectors.
    let mut assign = [0usize; MAX_AXES];
    let mut idx = vec![0usize; n];
    let mut io = 0usize;
    for _ in 0..total {
        let mut acc = 1.0f64;
        for (k, src) in sources.iter().enumerate() {
            acc *= src[idx[k]];
        }
        out[io] += acc;
        for pos in (0..cards.len()).rev() {
            assign[pos] += 1;
            io += out_str[pos];
            for (k, st) in strides.iter().enumerate() {
                idx[k] += st[pos];
            }
            if assign[pos] == cards[pos] {
                assign[pos] = 0;
                io -= out_str[pos] * cards[pos];
                for (k, st) in strides.iter().enumerate() {
                    idx[k] -= st[pos] * cards[pos];
                }
            } else {
                break;
            }
        }
    }
}

/// `buf[i] *= m[i_m]` where `m`'s scope is a subset of the buffer's scope.
pub fn mul_broadcast_kernel(cards: &[usize], buf: &mut [f64], m: &[f64], m_str: &[usize]) {
    check_axes(cards);
    let total = table_len(cards);
    let mut assign = [0usize; MAX_AXES];
    let mut idx = [0usize; 1];
    for slot in buf.iter_mut().take(total) {
        *slot *= m[idx[0]];
        step(cards, &mut assign, [m_str], &mut idx);
    }
}

/// `buf[i] /= m[i_m]` with the junction-tree convention `x / 0 = 0`.
pub(crate) fn div_broadcast_kernel(cards: &[usize], buf: &mut [f64], m: &[f64], m_str: &[usize]) {
    check_axes(cards);
    let total = table_len(cards);
    let mut assign = [0usize; MAX_AXES];
    let mut idx = [0usize; 1];
    for slot in buf.iter_mut().take(total) {
        let denom = m[idx[0]];
        *slot = if denom == 0.0 { 0.0 } else { *slot / denom };
        step(cards, &mut assign, [m_str], &mut idx);
    }
}

/// `out[i_out] += src[i]` — marginalizes a table onto a sub-scope described
/// by `out_str` broadcast strides. `out` must be pre-zeroed.
pub fn marginalize_kernel(cards: &[usize], src: &[f64], out_str: &[usize], out: &mut [f64]) {
    check_axes(cards);
    let total = table_len(cards);
    let mut assign = [0usize; MAX_AXES];
    let mut idx = [0usize; 1];
    for &v in src.iter().take(total) {
        out[idx[0]] += v;
        step(cards, &mut assign, [out_str], &mut idx);
    }
}

/// The index map of a table over `cards` into a sub-table with broadcast
/// strides `sub_str` (from [`aligned_strides`]): entry `i` is the sub-table
/// cell that table cell `i` marginalizes into or is multiplied by, as the
/// odometer would reach it. Built once, so message passing never walks
/// the odometer.
///
/// # Panics
///
/// Panics when a sub-table index does not fit `u32`; the junction tree
/// refuses such cliques when it compiles.
pub fn index_map(cards: &[usize], sub_str: &[usize]) -> Vec<u32> {
    debug_assert_eq!(cards.len(), sub_str.len());
    let mut map = Vec::with_capacity(table_len(cards));
    map.push(0u32);
    // Row-major order: each axis splits every cell of the table over the
    // axes before it into `card` cells. Expanding in place from the back
    // writes cell `j`'s children at `j * card..` only after reading it.
    for (&card, &stride) in cards.iter().zip(sub_str) {
        let prefix = map.len();
        map.resize(prefix * card, 0);
        for j in (0..prefix).rev() {
            let base = map[j] as usize;
            for state in (0..card).rev() {
                map[j * card + state] =
                    u32::try_from(base + state * stride).expect("sub-table cell fits u32");
            }
        }
    }
    map
}

/// `out[map[i]] += src[i]`: [`marginalize_kernel`] through an
/// [`index_map`]. `out` must be pre-zeroed.
pub fn scatter_add_kernel(src: &[f64], map: &[u32], out: &mut [f64]) {
    debug_assert_eq!(src.len(), map.len());
    for (&v, &m) in src.iter().zip(map) {
        out[m as usize] += v;
    }
}

/// `buf[i] *= m[map[i]]`: [`mul_broadcast_kernel`] through an
/// [`index_map`].
pub fn gather_mul_kernel(buf: &mut [f64], map: &[u32], m: &[f64]) {
    debug_assert_eq!(buf.len(), map.len());
    for (slot, &i) in buf.iter_mut().zip(map) {
        *slot *= m[i as usize];
    }
}

/// `out[i] = src[i] * m[map[i]]`: a copy of `src` fused with
/// [`gather_mul_kernel`], so the destination is written once.
pub fn gather_copy_mul_kernel(out: &mut [f64], src: &[f64], map: &[u32], m: &[f64]) {
    debug_assert_eq!(out.len(), map.len());
    debug_assert_eq!(src.len(), map.len());
    for ((slot, &v), &i) in out.iter_mut().zip(src).zip(map) {
        *slot = v * m[i as usize];
    }
}

/// Scales the states of one axis of a table by per-state `weights`
/// (`stride` = the axis stride, `card` = the axis cardinality).
pub(crate) fn scale_axis_kernel(buf: &mut [f64], stride: usize, card: usize, weights: &[f64]) {
    debug_assert_eq!(weights.len(), card);
    let block = stride * card;
    for chunk in buf.chunks_mut(block) {
        for (state, w) in weights.iter().enumerate() {
            if *w == 1.0 {
                continue;
            }
            for slot in chunk[state * stride..(state + 1) * stride].iter_mut() {
                *slot *= w;
            }
        }
    }
}

/// Zeroes every state of one axis except `keep` (hard-evidence entry,
/// equivalent to multiplying by a one-hot likelihood).
pub(crate) fn retain_state_kernel(buf: &mut [f64], stride: usize, card: usize, keep: usize) {
    let block = stride * card;
    for chunk in buf.chunks_mut(block) {
        for state in 0..card {
            if state != keep {
                for slot in chunk[state * stride..(state + 1) * stride].iter_mut() {
                    *slot = 0.0;
                }
            }
        }
    }
}

/// Accumulates the marginal of one axis: `out[state] += sum of cells with
/// that axis state`. `out` must be pre-zeroed and have length `card`.
pub(crate) fn axis_marginal_kernel(buf: &[f64], stride: usize, card: usize, out: &mut [f64]) {
    debug_assert_eq!(out.len(), card);
    let block = stride * card;
    for chunk in buf.chunks(block) {
        for (state, slot) in out.iter_mut().enumerate() {
            let base = state * stride;
            let mut acc = 0.0;
            for &v in &chunk[base..base + stride] {
                acc += v;
            }
            *slot += acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn product_kernel_matches_outer_product() {
        // a over axis0 (card 2), b over axis1 (card 3), out over both.
        let cards = [2usize, 3];
        let a = [10.0, 100.0];
        let b = [1.0, 2.0, 3.0];
        let mut out = vec![0.0; 6];
        product_accumulate_kernel(&cards, &a, &[1, 0], &b, &[0, 1], &[3, 1], &mut out);
        assert_eq!(out, vec![10.0, 20.0, 30.0, 100.0, 200.0, 300.0]);
    }

    #[test]
    fn fused_marginalize_drops_axis() {
        // Same product, but marginalize axis1 away on the fly.
        let cards = [2usize, 3];
        let a = [10.0, 100.0];
        let b = [1.0, 2.0, 3.0];
        let mut out = vec![0.0; 2];
        product_accumulate_kernel(&cards, &a, &[1, 0], &b, &[0, 1], &[1, 0], &mut out);
        assert_eq!(out, vec![60.0, 600.0]);
    }

    #[test]
    fn broadcast_mul_and_div_roundtrip() {
        let cards = [2usize, 2];
        let mut buf = vec![1.0, 2.0, 3.0, 4.0];
        let m = [2.0, 0.0];
        mul_broadcast_kernel(&cards, &mut buf, &m, &[0, 1]);
        assert_eq!(buf, vec![2.0, 0.0, 6.0, 0.0]);
        div_broadcast_kernel(&cards, &mut buf, &m, &[0, 1]);
        assert_eq!(buf, vec![1.0, 0.0, 3.0, 0.0], "0/0 collapses to 0");
    }

    #[test]
    fn marginalize_kernel_sums_dropped_axes() {
        // Table over (2, 3); marginalize onto axis0.
        let src = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let mut out = vec![0.0; 2];
        marginalize_kernel(&[2, 3], &src, &[1, 0], &mut out);
        assert_eq!(out, vec![6.0, 15.0]);
        // Onto axis1.
        let mut out = vec![0.0; 3];
        marginalize_kernel(&[2, 3], &src, &[0, 1], &mut out);
        assert_eq!(out, vec![5.0, 7.0, 9.0]);
        // Scalar marginal = total.
        let mut out = vec![0.0; 1];
        marginalize_kernel(&[2, 3], &src, &[0, 0], &mut out);
        assert_eq!(out, vec![21.0]);
    }

    #[test]
    fn axis_kernels_agree() {
        // Table over (2, 3), axis1 has stride 1, card 3.
        let buf = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let mut marg = vec![0.0; 3];
        axis_marginal_kernel(&buf, 1, 3, &mut marg);
        assert_eq!(marg, vec![5.0, 7.0, 9.0]);

        let mut kept = buf;
        retain_state_kernel(&mut kept, 1, 3, 1);
        assert_eq!(kept, [0.0, 2.0, 0.0, 0.0, 5.0, 0.0]);

        let mut scaled = buf;
        scale_axis_kernel(&mut scaled, 1, 3, &[1.0, 0.5, 2.0]);
        assert_eq!(scaled, [1.0, 1.0, 6.0, 4.0, 2.5, 12.0]);
    }

    #[test]
    fn n_ary_kernel_matches_pairwise() {
        let cards = [2usize, 2, 2];
        let f0 = [0.25, 0.5];
        let f1 = [0.1, 0.9, 0.3, 0.7];
        let f2 = [0.6, 0.4, 0.2, 0.8];
        // scopes: f0 over axis0; f1 over (axis0, axis1); f2 over (axis1, axis2).
        let strides = vec![vec![1, 0, 0], vec![2, 1, 0], vec![0, 2, 1]];
        let mut out = vec![0.0; 4];
        // Marginalize axis1 away: out over (axis0, axis2).
        product_all_accumulate_kernel(&cards, &[&f0, &f1, &f2], &strides, &[2, 0, 1], &mut out);
        for (i0, i2) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            let mut expect = 0.0;
            for i1 in 0..2 {
                expect += f0[i0] * f1[i0 * 2 + i1] * f2[i1 * 2 + i2];
            }
            assert!((out[i0 * 2 + i2] - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn index_map_follows_the_odometer() {
        let cards = [2usize, 1, 3, 2];
        for sub_str in [[0, 0, 0, 0], [6, 0, 2, 1], [1, 0, 0, 2], [0, 0, 1, 3]] {
            let mut assign = [0usize; MAX_AXES];
            let mut idx = [0usize; 1];
            let mut want = Vec::new();
            for _ in 0..table_len(&cards) {
                want.push(idx[0] as u32);
                step(&cards, &mut assign, [&sub_str], &mut idx);
            }
            assert_eq!(index_map(&cards, &sub_str), want, "{sub_str:?}");
        }
        assert_eq!(index_map(&[], &[]), vec![0]);
    }

    #[test]
    fn empty_scope_is_a_scalar() {
        let mut out = vec![0.0];
        product_accumulate_kernel(&[], &[3.0], &[], &[4.0], &[], &[], &mut out);
        assert_eq!(out, vec![12.0]);
    }
}
