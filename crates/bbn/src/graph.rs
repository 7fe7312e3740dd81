//! Graph algorithms over network structure: moralisation and min-fill
//! elimination orderings.

use crate::network::Network;
use std::collections::BTreeSet;

/// An undirected graph over the network's variables, as adjacency sets.
#[derive(Debug, Clone)]
pub(crate) struct UndirectedGraph {
    adj: Vec<BTreeSet<usize>>,
}

impl UndirectedGraph {
    /// An edgeless graph over `n` vertices.
    pub(crate) fn empty(n: usize) -> Self {
        UndirectedGraph {
            adj: vec![BTreeSet::new(); n],
        }
    }

    /// Adds an undirected edge (self-loops are ignored).
    pub(crate) fn add_edge(&mut self, a: usize, b: usize) {
        if a != b {
            self.adj[a].insert(b);
            self.adj[b].insert(a);
        }
    }

    /// `true` when `a` and `b` are adjacent.
    pub(crate) fn has_edge(&self, a: usize, b: usize) -> bool {
        self.adj[a].contains(&b)
    }

    /// The neighbour set of `a`.
    pub(crate) fn neighbors(&self, a: usize) -> &BTreeSet<usize> {
        &self.adj[a]
    }

    /// Eliminates vertex `v`: marries all of its neighbours pairwise
    /// (fill-in), then removes `v` and its incident edges. This is the core
    /// step of triangulation; the fill-in edges make the final graph chordal.
    pub(crate) fn eliminate(&mut self, v: usize) {
        let nbrs: Vec<usize> = self.adj[v].iter().copied().collect();
        for (i, a) in nbrs.iter().enumerate() {
            for b in &nbrs[i + 1..] {
                self.add_edge(*a, *b);
            }
        }
        for n in nbrs {
            self.adj[n].remove(&v);
        }
        self.adj[v].clear();
    }
}

/// The moral graph: parents of a common child are married, directions
/// dropped. This is the first step of junction-tree compilation.
pub(crate) fn moral_graph(net: &Network) -> UndirectedGraph {
    let n = net.var_count();
    let mut g = UndirectedGraph::empty(n);
    for v in net.variables() {
        let parents = net.parents(v);
        for p in parents {
            g.add_edge(p.index(), v.index());
        }
        for (i, a) in parents.iter().enumerate() {
            for b in &parents[i + 1..] {
                g.add_edge(a.index(), b.index());
            }
        }
    }
    g
}

/// Computes a min-fill elimination ordering of `targets` (vertex indices)
/// on an undirected graph: each step eliminates the vertex introducing the
/// fewest fill-in edges, ties broken by smaller degree, then by index. The
/// graph is not modified; fill-in is simulated internally.
pub(crate) fn elimination_order(graph: &UndirectedGraph, targets: &[usize]) -> Vec<usize> {
    let mut work = graph.clone();
    let mut remaining: BTreeSet<usize> = targets.iter().copied().collect();
    let mut order = Vec::with_capacity(remaining.len());
    while !remaining.is_empty() {
        let best = *remaining
            .iter()
            .min_by_key(|&&v| (fill_in_count(&work, v), work.neighbors(v).len(), v))
            .expect("remaining is non-empty");
        work.eliminate(best);
        remaining.remove(&best);
        order.push(best);
    }
    order
}

/// Number of fill-in edges that eliminating `v` would introduce.
fn fill_in_count(g: &UndirectedGraph, v: usize) -> usize {
    let nbrs: Vec<usize> = g.neighbors(v).iter().copied().collect();
    let mut count = 0;
    for (i, a) in nbrs.iter().enumerate() {
        for b in &nbrs[i + 1..] {
            if !g.has_edge(*a, *b) {
                count += 1;
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkBuilder;

    /// cloudy -> sprinkler, cloudy -> rain, {sprinkler, rain} -> wet
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
    fn moral_graph_marries_parents() {
        let net = sprinkler();
        let g = moral_graph(&net);
        let s = net.var("sprinkler").unwrap().index();
        let r = net.var("rain").unwrap().index();
        let w = net.var("wet").unwrap().index();
        let c = net.var("cloudy").unwrap().index();
        assert!(g.has_edge(s, r), "co-parents must be married");
        assert!(g.has_edge(s, w));
        assert!(g.has_edge(r, w));
        assert!(g.has_edge(c, s));
        assert!(g.has_edge(c, r));
        assert!(!g.has_edge(c, w));
        let degrees: usize = (0..net.var_count()).map(|v| g.neighbors(v).len()).sum();
        assert_eq!(degrees, 2 * 5, "five undirected edges");
    }

    #[test]
    fn elimination_orders_cover_targets() {
        let net = sprinkler();
        let g = moral_graph(&net);
        let targets: Vec<usize> = (0..net.var_count()).collect();
        let mut sorted = elimination_order(&g, &targets);
        sorted.sort_unstable();
        assert_eq!(sorted, targets, "order must be a permutation of targets");
    }

    #[test]
    fn min_fill_prefers_simplicial_vertices() {
        // A path a - b - c: endpoints have zero fill-in, the middle has one.
        let mut g = UndirectedGraph::empty(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        let order = elimination_order(&g, &[0, 1, 2]);
        assert_ne!(order[0], 1, "middle vertex has fill-in, must not go first");
    }

    #[test]
    fn undirected_graph_basics() {
        let mut g = UndirectedGraph::empty(3);
        g.add_edge(0, 0); // ignored
        assert!(g.neighbors(0).is_empty());
        g.add_edge(0, 2);
        g.add_edge(0, 2); // idempotent
        assert_eq!(g.neighbors(0).len(), 1);
        assert!(g.has_edge(2, 0));
    }
}
