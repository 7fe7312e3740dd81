//! Forward (ancestral) sampling of complete cases from a network.
//!
//! Sampling synthesises device populations when a ground-truth network is
//! available: the learning benches and the EM and property tests fit
//! networks to cases drawn here. Inference itself is always exact.

use crate::network::Network;
use rand::Rng;

/// Draws one complete assignment by ancestral sampling (parents first).
pub fn forward_sample<R: Rng + ?Sized>(net: &Network, rng: &mut R) -> Vec<usize> {
    let mut assignment = vec![usize::MAX; net.var_count()];
    for &var in net.topological_order() {
        let parent_states: Vec<usize> = net
            .parents(var)
            .iter()
            .map(|p| assignment[p.index()])
            .collect();
        let row = net
            .cpt_row(var, &parent_states)
            .expect("topological order guarantees sampled parents");
        assignment[var.index()] = sample_categorical(row, rng);
    }
    assignment
}

/// Draws `n` complete assignments.
pub fn forward_sample_cases<R: Rng + ?Sized>(
    net: &Network,
    n: usize,
    rng: &mut R,
) -> Vec<Vec<usize>> {
    (0..n).map(|_| forward_sample(net, rng)).collect()
}

fn sample_categorical<R: Rng + ?Sized>(dist: &[f64], rng: &mut R) -> usize {
    let total: f64 = dist.iter().sum();
    let mut u = rng.gen::<f64>() * total;
    for (i, &p) in dist.iter().enumerate() {
        u -= p;
        if u <= 0.0 {
            return i;
        }
    }
    dist.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evidence::Evidence;
    use crate::infer::enumerate_posteriors;
    use crate::network::NetworkBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
    fn forward_samples_match_prior() {
        let net = sprinkler();
        let mut rng = StdRng::seed_from_u64(42);
        let n = 40_000;
        let samples = forward_sample_cases(&net, n, &mut rng);
        assert_eq!(samples.len(), n);
        let cloudy = net.var("cloudy").unwrap().index();
        let frac = samples.iter().filter(|s| s[cloudy] == 1).count() as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.02, "got {frac}");
        let wet = net.var("wet").unwrap().index();
        let exact = enumerate_posteriors(&net, &Evidence::new()).unwrap();
        let frac_wet = samples.iter().filter(|s| s[wet] == 1).count() as f64 / n as f64;
        assert!((frac_wet - exact.of(net.var("wet").unwrap())[1]).abs() < 0.02);
    }

    #[test]
    fn categorical_sampler_bounds() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..1000 {
            let s = sample_categorical(&[0.0, 0.0, 1.0], &mut rng);
            assert_eq!(s, 2);
        }
        let s = sample_categorical(&[1.0], &mut rng);
        assert_eq!(s, 0);
    }
}
