//! Property-based tests: random networks, random factors, random evidence.
//! Every inference engine must agree with brute-force enumeration, and the
//! learning algorithms must respect their monotonicity contracts.

use abbd_bbn::kernels::{
    aligned_strides, gather_copy_mul_kernel, gather_mul_kernel, index_map, marginalize_kernel,
    mul_broadcast_kernel, scatter_add_kernel,
};
use abbd_bbn::learn::{fit_complete, fit_em, Case, DirichletPrior, EmConfig};
use abbd_bbn::{
    enumerate_posteriors, forward_sample_cases, Evidence, Factor, JunctionTree, Network,
    NetworkBuilder, VarId, VariableElimination,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Recipe for a random small network: per-variable cardinalities, an edge
/// mask over the upper triangle, and raw CPT material.
#[derive(Debug, Clone)]
struct NetRecipe {
    cards: Vec<usize>,
    edges: Vec<bool>,
    raw: Vec<f64>,
}

fn net_recipe(max_vars: usize) -> impl Strategy<Value = NetRecipe> {
    (2..=max_vars)
        .prop_flat_map(|n| {
            let pairs = n * (n - 1) / 2;
            (
                proptest::collection::vec(2usize..=3, n),
                proptest::collection::vec(proptest::bool::weighted(0.45), pairs),
                proptest::collection::vec(0.05f64..1.0, 4096),
            )
        })
        .prop_map(|(cards, edges, raw)| NetRecipe { cards, edges, raw })
}

/// Materialises a recipe into a validated network. Edges always point from
/// lower to higher index, so the result is a DAG by construction. Parent
/// sets are capped at 3 to bound CPT sizes.
fn build_net(recipe: &NetRecipe) -> Network {
    let n = recipe.cards.len();
    let mut b = NetworkBuilder::new();
    let vars: Vec<VarId> = (0..n)
        .map(|i| {
            let labels: Vec<String> = (0..recipe.cards[i]).map(|s| format!("s{s}")).collect();
            b.variable(format!("x{i}"), labels).unwrap()
        })
        .collect();
    let mut raw_iter = recipe.raw.iter().copied().cycle();
    let mut edge_iter = recipe.edges.iter().copied();
    for j in 0..n {
        let mut parents = Vec::new();
        for &candidate in vars.iter().take(j) {
            if edge_iter.next().unwrap_or(false) && parents.len() < 3 {
                parents.push(candidate);
            }
        }
        let configs: usize = parents.iter().map(|p| recipe.cards[p.index()]).product();
        let card = recipe.cards[j];
        let mut flat = Vec::with_capacity(configs * card);
        for _ in 0..configs {
            let mut row: Vec<f64> = (0..card).map(|_| raw_iter.next().unwrap()).collect();
            let z: f64 = row.iter().sum();
            for v in &mut row {
                *v /= z;
            }
            // Compensate accumulated rounding on the last entry.
            let err: f64 = 1.0 - row.iter().sum::<f64>();
            *row.last_mut().unwrap() += err;
            flat.extend(row);
        }
        b.cpt_flat(vars[j], parents, flat).unwrap();
    }
    b.build().unwrap()
}

/// Random hard evidence over roughly a third of the variables.
fn pick_evidence(net: &Network, seed: u64) -> Evidence {
    let mut rng = StdRng::seed_from_u64(seed);
    use rand::Rng;
    let mut e = Evidence::new();
    for v in net.variables() {
        if rng.gen_bool(0.33) {
            e.observe(v, rng.gen_range(0..net.card(v)));
        }
    }
    e
}

/// A random clique shape for the message-kernel tests: cards of 0–6 axes
/// (1–5 states each), which axes the separator keeps, a sort key per axis
/// that sets the separator's own axis order, and a seed for the tables.
#[derive(Debug, Clone)]
struct KernelShape {
    cards: Vec<usize>,
    keep: Vec<bool>,
    order: Vec<u32>,
    seed: u64,
}

fn kernel_shape() -> impl Strategy<Value = KernelShape> {
    (0usize..=6)
        .prop_flat_map(|axes| {
            (
                proptest::collection::vec(1usize..=5, axes),
                proptest::collection::vec(proptest::bool::weighted(0.5), axes),
                proptest::collection::vec(0u32..1000, axes),
                0u64..1_000_000,
            )
        })
        .prop_map(|(cards, keep, order, seed)| KernelShape {
            cards,
            keep,
            order,
            seed,
        })
}

/// `len` table values in `[0, 1)` with about one in eight exactly zero,
/// from a splitmix64 stream, so sums round in every cell.
fn kernel_values(seed: u64, len: usize) -> Vec<f64> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            if z.is_multiple_of(8) {
                0.0
            } else {
                (z >> 11) as f64 / (1u64 << 53) as f64
            }
        })
        .collect()
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    #[test]
    fn ve_matches_enumeration(recipe in net_recipe(6), seed in 0u64..1000) {
        let net = build_net(&recipe);
        let evidence = pick_evidence(&net, seed);
        let exact = enumerate_posteriors(&net, &evidence);
        let ve = VariableElimination::new(&net).all_posteriors(&evidence);
        match (exact, ve) {
            (Ok(a), Ok(b)) => prop_assert!(a.max_abs_diff(&b).unwrap() < 1e-8),
            (Err(_), Err(_)) => {} // both reject impossible evidence
            (a, b) => prop_assert!(false, "engines disagree: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn jt_matches_enumeration(recipe in net_recipe(6), seed in 0u64..1000) {
        let net = build_net(&recipe);
        let evidence = pick_evidence(&net, seed);
        let exact = enumerate_posteriors(&net, &evidence);
        let jt = JunctionTree::compile(&net).unwrap();
        let got = jt.posteriors(&evidence);
        match (exact, got) {
            (Ok(a), Ok(b)) => prop_assert!(a.max_abs_diff(&b).unwrap() < 1e-8),
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(false, "engines disagree: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn jt_and_ve_log_likelihood_agree(recipe in net_recipe(6), seed in 0u64..1000) {
        let net = build_net(&recipe);
        let evidence = pick_evidence(&net, seed);
        let jt = JunctionTree::compile(&net).unwrap();
        let ve = VariableElimination::new(&net);
        let mut ws = jt.make_workspace();
        match (jt.propagate_in(&mut ws, &evidence), ve.log_likelihood(&evidence)) {
            (Ok(cal), Ok(ll)) => {
                prop_assert!((cal.log_likelihood() - ll).abs() < 1e-8 * (1.0 + ll.abs()));
            }
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(false, "disagree: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn forward_samples_have_positive_probability(
        recipe in net_recipe(6),
        seed in 0u64..1000,
    ) {
        let net = build_net(&recipe);
        let mut rng = StdRng::seed_from_u64(seed);
        for s in forward_sample_cases(&net, 16, &mut rng) {
            prop_assert!(net.joint_probability(&s).unwrap() > 0.0);
        }
    }

    #[test]
    fn complete_fit_reproduces_empirical_root_margins(
        recipe in net_recipe(5),
        seed in 0u64..1000,
    ) {
        let net = build_net(&recipe);
        let mut rng = StdRng::seed_from_u64(seed);
        let samples = forward_sample_cases(&net, 256, &mut rng);
        let fitted = fit_complete(&net, &samples, &DirichletPrior::zero(&net)).unwrap();
        // For every root variable, the fitted prior equals the sample frequency.
        for v in net.variables() {
            if net.parents(v).is_empty() {
                for s in 0..net.card(v) {
                    let freq = samples.iter().filter(|a| a[v.index()] == s).count()
                        as f64 / samples.len() as f64;
                    prop_assert!((fitted.cpt(v)[s] - freq).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn em_ml_loglik_nondecreasing(recipe in net_recipe(4), seed in 0u64..500) {
        let net = build_net(&recipe);
        let mut rng = StdRng::seed_from_u64(seed);
        let samples = forward_sample_cases(&net, 64, &mut rng);
        // Hide variable 0 in every case.
        let hidden = VarId::from_index(0);
        let cases: Vec<Case> = samples
            .iter()
            .map(|s| Case::from_pairs(
                net.variables().filter(|v| *v != hidden).map(|v| (v, s[v.index()])),
            ))
            .collect();
        let out = fit_em(
            &net,
            &cases,
            &DirichletPrior::zero(&net),
            &EmConfig { max_iterations: 12, tolerance: 0.0 },
        )
        .unwrap();
        for w in out.log_likelihood_trace.windows(2) {
            prop_assert!(w[1] >= w[0] - 1e-6, "EM decreased: {} -> {}", w[0], w[1]);
        }
    }

    #[test]
    fn compiled_propagation_matches_baseline(
        recipe in net_recipe(6),
        seed in 0u64..1000,
    ) {
        let net = build_net(&recipe);
        let jt = JunctionTree::compile(&net).unwrap();
        let evidences: Vec<Evidence> =
            (0..6).map(|k| pick_evidence(&net, seed.wrapping_add(k))).collect();
        // Compiled-schedule propagation through one reused workspace is
        // bitwise-tolerant equivalent (<= 1e-12) to the allocating
        // clone-and-rebuild reference on every evidence set.
        let mut ws = jt.make_workspace();
        for e in &evidences {
            match (jt.propagate_baseline(e), jt.propagate_in(&mut ws, e)) {
                (Ok(reference), Ok(compiled)) => {
                    prop_assert!(
                        (reference.log_likelihood() - compiled.log_likelihood()).abs()
                            <= 1e-12
                    );
                    let a = reference.all_posteriors().unwrap();
                    let b = compiled.all_posteriors().unwrap();
                    prop_assert!(a.max_abs_diff(&b).unwrap() <= 1e-12);
                }
                (Err(_), Err(_)) => {}
                (a, b) => prop_assert!(false, "paths disagree: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn in_place_factor_ops_match_allocating(
        vals_a in proptest::collection::vec(0.0f64..1.0, 12),
        vals_b in proptest::collection::vec(0.0f64..1.0, 6),
        vals_c in proptest::collection::vec(0.05f64..1.0, 3),
    ) {
        let a = VarId::from_index(0);
        let b = VarId::from_index(1);
        let c = VarId::from_index(2);
        let f = Factor::new(vec![a, b, c], vec![2, 3, 2], vals_a).unwrap();
        let g = Factor::new(vec![b, c], vec![3, 2], vals_b).unwrap();
        let h = Factor::new(vec![b], vec![3], vals_c).unwrap();

        // product_into == product, through a reused buffer.
        let (scope, cards) = f.union_shape(&g);
        let mut buf = Factor::with_shape(scope, cards).unwrap();
        f.product_into(&g, &mut buf).unwrap();
        let reference = f.product(&g);
        for (x, y) in buf.values().iter().zip(reference.values()) {
            prop_assert!((x - y).abs() <= 1e-12);
        }

        // div_assign == divide (0/0 = 0 convention).
        let mut inplace = f.clone();
        inplace.div_assign(&h).unwrap();
        let reference = f.divide(&h).unwrap();
        for (x, y) in inplace.values().iter().zip(reference.values()) {
            prop_assert!((x - y).abs() <= 1e-12);
        }

        // N-ary fused bucket == sequential products then sum_out.
        let fused = Factor::product_all_sum_out(&[&f, &g, &h], b).unwrap();
        let seq = f.product(&g).product(&h).sum_out(b).unwrap();
        let seq = seq.reorder(fused.scope()).unwrap();
        for (x, y) in fused.values().iter().zip(seq.values()) {
            prop_assert!((x - y).abs() <= 1e-12);
        }

        // marginalize_into == marginalize_to on a permuted keep set.
        let mut out = Factor::with_shape(vec![c, a], vec![2, 2]).unwrap();
        f.marginalize_into(&[c, a], &mut out).unwrap();
        let reference = f.marginalize_to(&[c, a]).unwrap();
        for (x, y) in out.values().iter().zip(reference.values()) {
            prop_assert!((x - y).abs() <= 1e-12);
        }
    }

    #[test]
    fn factor_product_commutes(
        vals_a in proptest::collection::vec(0.0f64..1.0, 6),
        vals_b in proptest::collection::vec(0.0f64..1.0, 6),
    ) {
        let a = VarId::from_index(0);
        let b = VarId::from_index(1);
        let c = VarId::from_index(2);
        let f = Factor::new(vec![a, b], vec![2, 3], vals_a).unwrap();
        let g = Factor::new(vec![b, c], vec![3, 2], vals_b).unwrap();
        let fg = f.product(&g);
        let gf = g.product(&f).reorder(fg.scope()).unwrap();
        for (x, y) in fg.values().iter().zip(gf.values()) {
            prop_assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn factor_sum_out_order_irrelevant(
        vals in proptest::collection::vec(0.0f64..1.0, 12),
    ) {
        let a = VarId::from_index(0);
        let b = VarId::from_index(1);
        let c = VarId::from_index(2);
        let f = Factor::new(vec![a, b, c], vec![2, 3, 2], vals).unwrap();
        let ab_first = f.sum_out(a).unwrap().sum_out(b).unwrap();
        let ba_first = f.sum_out(b).unwrap().sum_out(a).unwrap();
        for (x, y) in ab_first.values().iter().zip(ba_first.values()) {
            prop_assert!((x - y).abs() < 1e-12);
        }
        // Total mass is preserved by summation.
        prop_assert!((ab_first.total() - f.total()).abs() < 1e-9);
    }

    #[test]
    fn factor_product_distributes_over_sum_out(
        vals_a in proptest::collection::vec(0.05f64..1.0, 4),
        vals_b in proptest::collection::vec(0.05f64..1.0, 6),
    ) {
        // (f(a) * g(b,c)) with b summed out == f(a) * (g with b summed out):
        // summing a variable absent from f commutes with the product.
        let a = VarId::from_index(0);
        let b = VarId::from_index(1);
        let c = VarId::from_index(2);
        let f = Factor::new(vec![a], vec![4], vals_a).unwrap();
        let g = Factor::new(vec![b, c], vec![3, 2], vals_b).unwrap();
        let lhs = f.product(&g).sum_out(b).unwrap();
        let rhs = f.product(&g.sum_out(b).unwrap()).reorder(lhs.scope()).unwrap();
        for (x, y) in lhs.values().iter().zip(rhs.values()) {
            prop_assert!((x - y).abs() < 1e-10);
        }
    }

    #[test]
    fn network_json_roundtrip(recipe in net_recipe(6)) {
        let net = build_net(&recipe);
        let text = net.to_json().unwrap();
        let back = Network::from_json(&text).unwrap();
        prop_assert_eq!(net, back);
    }

    /// The junction tree's message kernels are the stride kernels, bit
    /// for bit: marginalizing through an index map, multiplying through
    /// it, and the copy fused with the multiply, on random clique shapes
    /// and separators (the empty one included).
    #[test]
    fn message_kernels_are_bitwise_the_stride_kernels(shape in kernel_shape()) {
        let axes: Vec<usize> = (0..shape.cards.len()).collect();
        let mut sep: Vec<usize> = axes.iter().copied().filter(|&a| shape.keep[a]).collect();
        sep.sort_by_key(|&a| (shape.order[a], a));
        let sep_cards: Vec<usize> = sep.iter().map(|&a| shape.cards[a]).collect();
        let cells: usize = shape.cards.iter().product();
        let sep_len: usize = sep_cards.iter().product();
        let strides = aligned_strides(&sep, &sep_cards, &axes);
        let map = index_map(&shape.cards, &strides);
        prop_assert_eq!(map.len(), cells);
        prop_assert!(map.iter().all(|&m| (m as usize) < sep_len));

        let table = kernel_values(shape.seed, cells);
        let msg = kernel_values(shape.seed ^ 0x5555, sep_len);

        let mut want = vec![0.0; sep_len];
        marginalize_kernel(&shape.cards, &table, &strides, &mut want);
        let mut got = vec![0.0; sep_len];
        scatter_add_kernel(&table, &map, &mut got);
        prop_assert_eq!(bits(&got), bits(&want), "scatter-add vs marginalize");

        let mut want = table.clone();
        mul_broadcast_kernel(&shape.cards, &mut want, &msg, &strides);
        let mut got = table.clone();
        gather_mul_kernel(&mut got, &map, &msg);
        prop_assert_eq!(bits(&got), bits(&want), "gather-mul vs broadcast multiply");

        let mut fused = vec![f64::NAN; cells];
        gather_copy_mul_kernel(&mut fused, &table, &map, &msg);
        prop_assert_eq!(bits(&fused), bits(&want), "fused copy-multiply vs copy then multiply");
    }
}
