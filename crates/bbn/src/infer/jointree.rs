//! Junction-tree (clique-tree) compilation and Hugin belief propagation.
//!
//! This is the crate's replacement for the commercial Netica engine used in
//! the paper: compile once, then answer *all* block-state posteriors for a
//! failing device with two sweeps over the tree.
//!
//! # Compiled schedules and buffer reuse
//!
//! Compilation does all structural work up front: triangulation, clique
//! extraction, the spanning tree, **and** a flat message-passing schedule —
//! per-edge separator shapes and index maps, per-variable evidence-entry
//! slots, and the evidence-free clique potentials (the product of every
//! assigned CPT, stored once).
//!
//! # Edge index maps
//!
//! Every tree edge stores, for each endpoint clique, the separator cell
//! of every clique cell as a flat `Vec<u32>` (built once by
//! [`index_map`] from the separator's broadcast strides). A message is
//! then two straight loops: `msg[map[i]] += belief[i]` out of the sending
//! clique and `belief[i] *= msg[map[i]]` into the receiving one;
//! [`JunctionTree::absorb_in`] fuses the second with its copy of the base
//! belief (`ws[i] = base[i] * update[map[i]]`). The loops visit cells in
//! the row-major order the stride kernels walk, so each cell sees the same
//! additions in the same order and the same single product: message
//! passing is bitwise what the stride kernels compute. The maps cost one
//! `u32` per clique cell per incident edge, and compilation refuses a
//! clique of more than 2^32 cells ([`Error::CliqueTooLarge`]) rather than
//! index it.
//!
//! [`JunctionTree::propagate_in`] is then a flat loop over that schedule
//! through a reusable [`PropagationWorkspace`], and a query performs **zero
//! heap allocations**: clique beliefs are `memcpy`-restored from the compiled
//! base tables, evidence is entered by scaling axes in place, and every
//! message lands in a preallocated separator buffer. Evidence changes
//! therefore re-propagate incrementally — nothing structural is rebuilt,
//! only the affected table contents are recomputed. Many independent
//! evidence sets (one per board under test) loop `propagate_in` over one
//! reused workspace.
//!
//! A propagation is three steps over the workspace: load (restore the
//! base tables, absorb the evidence), collect, and distribute plus
//! normalise. [`JunctionTree::log_likelihood_in`] is the collect-only
//! entry point: it loads, multiplies extra 0/1 masks into their home
//! cliques, runs the same collect loop and returns `ln P(e, masks)`,
//! skipping the distribute that a likelihood never reads. Candidate
//! deduction asks its exoneration queries through it.
//!
//! # Absorbing one finding into a calibrated tree
//!
//! [`JunctionTree::absorb_in`] answers "what would these posteriors be if
//! `m` read state `s`?" without propagating again. It starts from a
//! workspace already calibrated on the evidence `e`, copies only the
//! cliques an [`JunctionTree::outward_plan`] names, retains `m = s` in
//! `m`'s home clique and passes Hugin updates outward along the plan
//! (`new / old` per separator, `0/0 = 0`). The cliques it reaches then
//! hold `P(C | e, m = s)` up to one common scale, which posterior reads
//! normalise away; a clique off the plan is never read.
//!
//! # Work counters
//!
//! Two per-thread counters let tests and benches prove what a hot loop
//! does: [`compile_count`] (structural compilations) and [`work_counts`]
//! (full propagations, collect-only queries, absorptions, the separator
//! messages they pass and the clique cells those messages read and
//! write).

use crate::error::{Error, Result};
use crate::evidence::Evidence;
use crate::factor::strides::{
    aligned_strides, axis_marginal_kernel, axis_stride, gather_copy_mul_kernel, gather_mul_kernel,
    index_map, marginalize_kernel, mul_broadcast_kernel, retain_state_kernel, scale_axis_kernel,
    scatter_add_kernel, table_len,
};
use crate::factor::Factor;
use crate::graph::{elimination_order, moral_graph};
use crate::infer::Posteriors;
use crate::network::{Network, VarId};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// Per-thread count of [`JunctionTree::compile`] invocations.
    ///
    /// Compilation is the expensive structural step (triangulation, clique
    /// extraction, schedule building) that serving paths must do exactly
    /// once per model. Tests and benchmarks read this counter around a hot
    /// loop to *prove* no stray recompilation hides inside it — see
    /// [`compile_count`].
    static COMPILE_CALLS: Cell<u64> = const { Cell::new(0) };
    /// Per-thread tallies of query work — see [`work_counts`].
    static WORK: Cell<WorkCounts> = const { Cell::new(WorkCounts::ZERO) };
}

/// The number of junction-tree compilations performed *by the calling
/// thread* so far. Take a snapshot before a steady-state loop and assert
/// the counter is unchanged after it; a delta means some path is
/// recompiling per query instead of reusing a compiled tree.
///
/// The counter is thread-local on purpose: regression assertions stay
/// exact even when unrelated tests compile trees concurrently in the same
/// process.
pub fn compile_count() -> u64 {
    COMPILE_CALLS.with(Cell::get)
}

/// Junction-tree query work done by one thread, as read by
/// [`work_counts`]. Every field counts calls that passed validation and
/// started table arithmetic, whether or not they then found the evidence
/// impossible.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounts {
    /// Full propagations (collect plus distribute):
    /// [`JunctionTree::propagate_in`] and
    /// [`JunctionTree::propagate_hypotheticals_in`].
    pub propagations: u64,
    /// Collect-only likelihood queries
    /// ([`JunctionTree::log_likelihood_in`]).
    pub collect_queries: u64,
    /// Outward absorptions ([`JunctionTree::absorb_in`]).
    pub absorptions: u64,
    /// Separator messages those calls passed: two per tree edge for a
    /// full propagation, one per edge for a collect, one per plan step
    /// for an absorption.
    pub messages: u64,
    /// Clique cells those messages read and wrote: each message reads
    /// every cell of its sending clique and writes every cell of its
    /// receiving clique. Loading, evidence entry and normalisation are
    /// not message passing and are not counted.
    pub cells: u64,
}

impl WorkCounts {
    const ZERO: WorkCounts = WorkCounts {
        propagations: 0,
        collect_queries: 0,
        absorptions: 0,
        messages: 0,
        cells: 0,
    };

    /// The work done between the snapshot `earlier` and `self` (both
    /// read on the same thread).
    #[must_use]
    pub fn since(self, earlier: WorkCounts) -> WorkCounts {
        WorkCounts {
            propagations: self.propagations - earlier.propagations,
            collect_queries: self.collect_queries - earlier.collect_queries,
            absorptions: self.absorptions - earlier.absorptions,
            messages: self.messages - earlier.messages,
            cells: self.cells - earlier.cells,
        }
    }
}

/// The junction-tree query work performed *by the calling thread* so
/// far. Like [`compile_count`], take a snapshot around a loop and
/// compare with [`WorkCounts::since`]; the counters are thread-local so
/// concurrent tests cannot disturb each other's tallies. Each query
/// updates them once, with one thread-local read and write.
pub fn work_counts() -> WorkCounts {
    WORK.with(Cell::get)
}

/// Adds one query's work to the calling thread's [`work_counts`]. Called
/// after the query's table arithmetic and kept out of line, so the
/// counters stay out of the propagation loops' code.
#[cold]
#[inline(never)]
fn tally(propagations: u64, collect_queries: u64, absorptions: u64, messages: usize, cells: u64) {
    WORK.with(|cell| {
        let w = cell.get();
        cell.set(WorkCounts {
            propagations: w.propagations + propagations,
            collect_queries: w.collect_queries + collect_queries,
            absorptions: w.absorptions + absorptions,
            messages: w.messages + messages as u64,
            cells: w.cells + cells,
        });
    });
}

#[derive(Debug, Clone)]
struct Clique {
    scope: Vec<VarId>,
    cards: Vec<usize>,
    len: usize,
}

/// One tree edge with its compiled message geometry: the separator (its
/// variables for the reference propagation, its table length for the
/// workspace) and, for each endpoint clique, the separator cell of every
/// clique cell (used for marginalizing out of one clique and multiplying
/// into the other, in both directions).
#[derive(Debug, Clone)]
struct TreeEdge {
    a: usize,
    b: usize,
    sepset: Vec<VarId>,
    sep_len: usize,
    /// The separator cell of each cell of clique `a`.
    a_map: Vec<u32>,
    /// The separator cell of each cell of clique `b`.
    b_map: Vec<u32>,
}

impl TreeEdge {
    /// The index map of the given endpoint clique into the separator.
    fn map_for(&self, clique: usize) -> &[u32] {
        if clique == self.a {
            &self.a_map
        } else {
            debug_assert_eq!(clique, self.b);
            &self.b_map
        }
    }

    /// Clique cells one message over this edge reads and writes (see
    /// [`WorkCounts::cells`]): both endpoint tables, in either direction.
    fn message_cells(&self) -> u64 {
        (self.a_map.len() + self.b_map.len()) as u64
    }
}

/// Where and how a variable's evidence enters: its home clique plus the
/// axis geometry of the variable inside that clique's table.
#[derive(Debug, Clone, Copy)]
struct EvidenceSlot {
    clique: usize,
    stride: usize,
    card: usize,
}

/// A compiled junction tree over a network.
///
/// Compilation moralises and triangulates the structure, extracts maximal
/// cliques, connects them by a maximum-spanning tree over sepset sizes, and
/// compiles the flat propagation schedule (see the module docs). The tree
/// owns a clone of the network plus the evidence-free clique potentials;
/// [`JunctionTree::propagate_in`] only touches preallocated tables.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), abbd_bbn::Error> {
/// use abbd_bbn::{Evidence, JunctionTree, NetworkBuilder};
///
/// let mut b = NetworkBuilder::new();
/// let x = b.variable("x", ["0", "1"])?;
/// let y = b.variable("y", ["0", "1"])?;
/// b.prior(x, [0.6, 0.4])?;
/// b.cpt(y, [x], [[0.9, 0.1], [0.2, 0.8]])?;
/// let jt = JunctionTree::compile(&b.build()?)?;
///
/// let mut e = Evidence::new();
/// e.observe(y, 1);
/// let mut ws = jt.make_workspace();
/// let px = jt.propagate_in(&mut ws, &e)?.posterior(x)?;
/// assert!(px[1] > 0.8); // y=1 strongly suggests x=1
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct JunctionTree {
    net: Arc<Network>,
    sched: Arc<Schedule>,
}

/// The immutable compiled state of a junction tree: everything
/// [`JunctionTree::compile`] produces that queries only ever *read*.
///
/// Factoring this out of [`JunctionTree`] behind an [`Arc`] is what makes
/// the tree a shareable artifact: cloning a compiled tree is two
/// reference-count bumps (no clique table is copied), every clone
/// propagates through the *same* schedule and base tables, and the whole
/// structure is `Send + Sync`, so one compiled model can serve any number
/// of concurrent query loops (each owning only its
/// [`PropagationWorkspace`]). `abbd_core`'s `CompiledModel` builds its
/// share-once/serve-many session story directly on this property.
#[derive(Debug, Clone)]
struct Schedule {
    cliques: Vec<Clique>,
    edges: Vec<TreeEdge>,
    /// For each variable, the clique containing its whole family.
    family_clique: Vec<usize>,
    /// For each variable, the smallest clique containing it.
    home_clique: Vec<usize>,
    /// For each variable, its evidence-entry / posterior-readout geometry.
    slots: Vec<EvidenceSlot>,
    /// Collect order: edges as `(child clique, parent clique, edge index)`
    /// from the leaves towards clique 0.
    collect_schedule: Vec<(usize, usize, usize)>,
    /// Clique cells one sweep over every edge reads and writes: what a
    /// collect tallies, and a distribute again.
    sweep_cells: u64,
    /// Evidence-free clique potentials: the product of every CPT assigned
    /// to the clique, compiled once and `memcpy`-restored per query.
    base: Vec<Vec<f64>>,
}

impl JunctionTree {
    /// Compiles a junction tree for `net` using min-fill triangulation.
    ///
    /// # Errors
    ///
    /// Returns [`Error::CliqueTooLarge`] when triangulation yields a
    /// clique of more than 2^32 cells, which the message index maps cannot
    /// address; otherwise propagates factor-shape errors.
    pub fn compile(net: &Network) -> Result<Self> {
        COMPILE_CALLS.with(|c| c.set(c.get() + 1));
        let n = net.var_count();
        let moral = moral_graph(net);
        let all: Vec<usize> = (0..n).collect();
        let order = elimination_order(&moral, &all);

        // Elimination cliques: {v} ∪ current neighbours at elimination time.
        let mut work = moral.clone();
        let mut raw_cliques: Vec<Vec<usize>> = Vec::new();
        for &v in &order {
            let mut clique: Vec<usize> = work.neighbors(v).iter().copied().collect();
            clique.push(v);
            clique.sort_unstable();
            raw_cliques.push(clique);
            work.eliminate(v);
        }
        // Keep only maximal cliques (dedup + subset removal).
        raw_cliques.sort_by_key(|c| std::cmp::Reverse(c.len()));
        let mut maximal: Vec<Vec<usize>> = Vec::new();
        for c in raw_cliques {
            if !maximal.iter().any(|m| c.iter().all(|v| m.contains(v))) {
                maximal.push(c);
            }
        }

        let cliques: Vec<Clique> = maximal
            .iter()
            .map(|scope| {
                let scope_vars: Vec<VarId> = scope.iter().map(|&i| VarId::from_index(i)).collect();
                let cards: Vec<usize> = scope_vars.iter().map(|v| net.card(*v)).collect();
                // Every cell index must fit the u32 index maps.
                let len = cards
                    .iter()
                    .try_fold(1u64, |len, &card| len.checked_mul(card as u64))
                    .filter(|&len| len <= 1 << 32)
                    .ok_or_else(|| Error::CliqueTooLarge {
                        variables: scope_vars.iter().map(|&v| net.name(v).into()).collect(),
                    })?;
                Ok(Clique {
                    scope: scope_vars,
                    cards,
                    len: len as usize,
                })
            })
            .collect::<Result<_>>()?;

        // Maximum-spanning tree over sepset cardinality (Kruskal). Edges
        // with empty sepsets are allowed so disconnected components still
        // form a single tree; propagation handles scalar messages.
        let mut candidates: Vec<(usize, usize, usize)> = Vec::new(); // (weight, a, b)
        for i in 0..cliques.len() {
            for j in i + 1..cliques.len() {
                let w = cliques[i]
                    .scope
                    .iter()
                    .filter(|v| cliques[j].scope.contains(v))
                    .count();
                candidates.push((w, i, j));
            }
        }
        candidates.sort_by_key(|&(w, _, _)| std::cmp::Reverse(w));
        let mut dsu: Vec<usize> = (0..cliques.len()).collect();
        fn find(dsu: &mut Vec<usize>, x: usize) -> usize {
            if dsu[x] != x {
                let root = find(dsu, dsu[x]);
                dsu[x] = root;
            }
            dsu[x]
        }
        let mut edges: Vec<TreeEdge> = Vec::new();
        let mut neighbors: Vec<Vec<(usize, usize)>> = vec![Vec::new(); cliques.len()];
        for (_, a, b) in candidates {
            let (ra, rb) = (find(&mut dsu, a), find(&mut dsu, b));
            if ra != rb {
                dsu[ra] = rb;
                let sepset: Vec<VarId> = cliques[a]
                    .scope
                    .iter()
                    .copied()
                    .filter(|v| cliques[b].scope.contains(v))
                    .collect();
                let sep_cards: Vec<usize> = sepset.iter().map(|v| net.card(*v)).collect();
                let map_of = |c: &Clique| {
                    index_map(&c.cards, &aligned_strides(&sepset, &sep_cards, &c.scope))
                };
                let (a_map, b_map) = (map_of(&cliques[a]), map_of(&cliques[b]));
                let idx = edges.len();
                neighbors[a].push((b, idx));
                neighbors[b].push((a, idx));
                edges.push(TreeEdge {
                    a,
                    b,
                    sep_len: table_len(&sep_cards),
                    sepset,
                    a_map,
                    b_map,
                });
            }
        }

        // Family and home cliques, plus per-variable axis geometry.
        let mut family_clique = vec![0usize; n];
        let mut home_clique = vec![0usize; n];
        for var in net.variables() {
            let family = net.family(var);
            let fam_idx = cliques
                .iter()
                .position(|c| family.iter().all(|v| c.scope.contains(v)))
                .ok_or_else(|| Error::InvalidCpt {
                    variable: net.name(var).into(),
                    reason: "triangulation lost the family clique".into(),
                })?;
            family_clique[var.index()] = fam_idx;
            let home_idx = cliques
                .iter()
                .enumerate()
                .filter(|(_, c)| c.scope.contains(&var))
                .min_by_key(|(_, c)| c.scope.len())
                .map(|(i, _)| i)
                .expect("family clique contains the variable");
            home_clique[var.index()] = home_idx;
        }
        let slots: Vec<EvidenceSlot> = net
            .variables()
            .map(|var| {
                let clique = home_clique[var.index()];
                let c = &cliques[clique];
                let pos = c
                    .scope
                    .iter()
                    .position(|&v| v == var)
                    .expect("home holds var");
                EvidenceSlot {
                    clique,
                    stride: axis_stride(&c.cards, pos),
                    card: c.cards[pos],
                }
            })
            .collect();

        // Collect schedule: BFS tree rooted at clique 0, emitted leaves-first.
        let mut parent: Vec<Option<(usize, usize)>> = vec![None; cliques.len()];
        let mut visited = vec![false; cliques.len()];
        let mut bfs = std::collections::VecDeque::from([0usize]);
        visited[0] = true;
        let mut bfs_order = Vec::new();
        while let Some(c) = bfs.pop_front() {
            bfs_order.push(c);
            for &(nb, eidx) in &neighbors[c] {
                if !visited[nb] {
                    visited[nb] = true;
                    parent[nb] = Some((c, eidx));
                    bfs.push_back(nb);
                }
            }
        }
        let collect_schedule: Vec<(usize, usize, usize)> = bfs_order
            .iter()
            .rev()
            .filter_map(|&c| parent[c].map(|(p, e)| (c, p, e)))
            .collect();
        let sweep_cells = edges.iter().map(TreeEdge::message_cells).sum();

        let base = compile_base(net, &cliques, &family_clique);

        Ok(JunctionTree {
            net: Arc::new(net.clone()),
            sched: Arc::new(Schedule {
                cliques,
                edges,
                family_clique,
                home_clique,
                slots,
                collect_schedule,
                sweep_cells,
                base,
            }),
        })
    }

    /// `true` when both trees share the *same* compiled schedule and base
    /// tables (they are clones of one compilation, not merely equivalent
    /// recompilations). Cloning a compiled tree never copies clique
    /// tables — it bumps two reference counts — which is what lets many
    /// concurrent sessions serve off one compilation; this predicate is
    /// how tests pin that property.
    pub fn shares_compiled_state_with(&self, other: &JunctionTree) -> bool {
        Arc::ptr_eq(&self.sched, &other.sched)
    }

    /// The network this tree was compiled from.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Replaces the CPTs with those of `net`, which must share the exact
    /// structure (names, states, parents) of the compiled network, and
    /// recompiles the clique base tables. Used by EM so re-triangulation is
    /// not needed every iteration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] when structures differ.
    pub fn update_parameters(&mut self, net: &Network) -> Result<()> {
        if net.var_count() != self.net.var_count() {
            return Err(Error::ShapeMismatch {
                expected: self.net.var_count(),
                actual: net.var_count(),
            });
        }
        for var in self.net.variables() {
            if net.parents(var) != self.net.parents(var) || net.card(var) != self.net.card(var) {
                return Err(Error::ShapeMismatch {
                    expected: self.net.card(var),
                    actual: net.card(var),
                });
            }
        }
        self.net = Arc::new(net.clone());
        // EM owns its tree exclusively, so `make_mut` recompiles the base
        // tables in place; a tree whose schedule is shared with live
        // sessions gets a private copy instead of mutating under them.
        let sched = Arc::make_mut(&mut self.sched);
        sched.base = compile_base(&self.net, &sched.cliques, &sched.family_clique);
        Ok(())
    }

    /// Allocates a propagation workspace sized for this tree. Create one
    /// per thread (or per long-lived query loop) and feed it to
    /// [`JunctionTree::propagate_in`]; after the first call every
    /// propagation through it is allocation-free.
    pub fn make_workspace(&self) -> PropagationWorkspace {
        PropagationWorkspace {
            beliefs: self
                .sched
                .cliques
                .iter()
                .map(|c| vec![0.0; c.len])
                .collect(),
            messages: self
                .sched
                .edges
                .iter()
                .map(|e| vec![0.0; e.sep_len])
                .collect(),
            scratch: self
                .sched
                .edges
                .iter()
                .map(|e| vec![0.0; e.sep_len])
                .collect(),
            on_plan: vec![false; self.sched.cliques.len()],
            log_likelihood: 0.0,
            calibrated: false,
        }
    }

    /// Runs a full Hugin propagation (collect + distribute) inside the
    /// reusable workspace: no allocation, no structural work — just table
    /// arithmetic over the compiled schedule. Returns a read view over the
    /// calibrated beliefs.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ImpossibleEvidence`] when `P(e) = 0`, plus evidence
    /// validation errors. On error the workspace stays usable (the next
    /// propagation re-initialises every buffer it touches).
    pub fn propagate_in<'t, 'w>(
        &'t self,
        ws: &'w mut PropagationWorkspace,
        evidence: &Evidence,
    ) -> Result<CalibratedView<'t, 'w>> {
        self.propagate_ws(ws, evidence, &[])?;
        Ok(CalibratedView { tree: self, ws })
    }

    /// [`JunctionTree::propagate_in`] with a *stack* of hypothetical hard
    /// findings layered on top of `evidence`, without touching the
    /// evidence set. Depth-`d` lookahead planning conditions on the
    /// `d − 1` measurements already taken along the expectimax path plus
    /// the candidate being scored, so it needs several simultaneous
    /// hypotheticals without mutating (and re-allocating) the evidence
    /// set between the dozens of propagations a single decision issues.
    ///
    /// The findings must name distinct variables, none of which `evidence`
    /// already pins: stacking a second hard state on an observed variable
    /// either zeroes the belief (different states) or silently duplicates
    /// (same state), so it is rejected up front. An empty slice is
    /// exactly [`JunctionTree::propagate_in`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidEvidence`] for an out-of-range finding, a
    /// finding on an already-observed variable, or two findings on the
    /// same variable, plus all [`JunctionTree::propagate_in`] errors.
    pub fn propagate_hypotheticals_in<'t, 'w>(
        &'t self,
        ws: &'w mut PropagationWorkspace,
        evidence: &Evidence,
        hypotheticals: &[(VarId, usize)],
    ) -> Result<CalibratedView<'t, 'w>> {
        for (i, &(var, state)) in hypotheticals.iter().enumerate() {
            if var.index() >= self.net.var_count() {
                return Err(Error::InvalidEvidence {
                    variable: format!("{var}"),
                    reason: "not in network".into(),
                });
            }
            if state >= self.net.card(var) {
                return Err(Error::InvalidEvidence {
                    variable: self.net.name(var).into(),
                    reason: format!("state {state} out of range {}", self.net.card(var)),
                });
            }
            if evidence.mentions(var) {
                return Err(Error::InvalidEvidence {
                    variable: self.net.name(var).into(),
                    reason: "hypothetical finding on an already-observed variable".into(),
                });
            }
            if hypotheticals[..i].iter().any(|&(v, _)| v == var) {
                return Err(Error::InvalidEvidence {
                    variable: self.net.name(var).into(),
                    reason: "duplicate hypothetical finding".into(),
                });
            }
        }
        self.propagate_ws(ws, evidence, hypotheticals)?;
        Ok(CalibratedView { tree: self, ws })
    }

    /// Rejects a workspace shaped for a different tree before any buffer
    /// is written (cheap: length comparisons only).
    fn check_workspace(&self, ws: &PropagationWorkspace) -> Result<()> {
        let beliefs_fit = ws.beliefs.len() == self.sched.cliques.len()
            && ws.on_plan.len() == self.sched.cliques.len()
            && ws
                .beliefs
                .iter()
                .zip(&self.sched.cliques)
                .all(|(b, c)| b.len() == c.len);
        let messages_fit = ws.messages.len() == self.sched.edges.len()
            && ws.scratch.len() == self.sched.edges.len()
            && ws
                .messages
                .iter()
                .zip(&self.sched.edges)
                .all(|(m, e)| m.len() == e.sep_len);
        if !beliefs_fit || !messages_fit {
            return Err(Error::ShapeMismatch {
                expected: self.sched.cliques.iter().map(|c| c.len).sum(),
                actual: ws.beliefs.iter().map(Vec::len).sum(),
            });
        }
        Ok(())
    }

    /// The propagation body shared by [`JunctionTree::propagate_in`] and
    /// [`JunctionTree::propagate_hypotheticals_in`]: load, collect, then
    /// distribute and normalise.
    fn propagate_ws(
        &self,
        ws: &mut PropagationWorkspace,
        evidence: &Evidence,
        hypotheticals: &[(VarId, usize)],
    ) -> Result<()> {
        self.load(ws, evidence, hypotheticals)?;
        let passed = self.collect(ws).and_then(|log_likelihood| {
            ws.log_likelihood = log_likelihood;
            self.distribute(ws)
        });
        tally(
            1,
            0,
            0,
            2 * self.sched.collect_schedule.len(),
            2 * self.sched.sweep_cells,
        );
        passed?;
        ws.calibrated = true;
        Ok(())
    }

    /// Validates the evidence and the workspace, marks the workspace
    /// uncalibrated, restores the evidence-free potentials (pure memcpy)
    /// and absorbs the findings in each variable's home clique. Hard
    /// evidence keeps the variable in scope with a one-hot axis, so its
    /// posterior collapses to a point mass.
    fn load(
        &self,
        ws: &mut PropagationWorkspace,
        evidence: &Evidence,
        hypotheticals: &[(VarId, usize)],
    ) -> Result<()> {
        evidence.validate(&self.net)?;
        self.check_workspace(ws)?;
        ws.calibrated = false;
        for (belief, base) in ws.beliefs.iter_mut().zip(&self.sched.base) {
            belief.copy_from_slice(base);
        }
        for (var, state) in evidence.hard_iter().chain(hypotheticals.iter().copied()) {
            let slot = self.sched.slots[var.index()];
            retain_state_kernel(&mut ws.beliefs[slot.clique], slot.stride, slot.card, state);
        }
        for (var, lik) in evidence.soft_iter() {
            let slot = self.sched.slots[var.index()];
            scale_axis_kernel(&mut ws.beliefs[slot.clique], slot.stride, slot.card, lik);
        }
        Ok(())
    }

    /// Collect: leaves towards clique 0, returning `ln` of the total mass
    /// of the loaded tables. Messages are normalised and the normaliser
    /// accumulated so deep trees cannot underflow.
    fn collect(&self, ws: &mut PropagationWorkspace) -> Result<f64> {
        let mut log_scale = 0.0f64;
        for &(child, par, eidx) in &self.sched.collect_schedule {
            let edge = &self.sched.edges[eidx];
            let msg = &mut ws.messages[eidx];
            msg.fill(0.0);
            scatter_add_kernel(&ws.beliefs[child], edge.map_for(child), msg);
            let z: f64 = msg.iter().sum();
            if z <= 0.0 {
                return Err(Error::ImpossibleEvidence);
            }
            for v in msg.iter_mut() {
                *v /= z;
            }
            log_scale += z.ln();
            gather_mul_kernel(&mut ws.beliefs[par], edge.map_for(par), &ws.messages[eidx]);
        }

        let root_total: f64 = ws.beliefs[0].iter().sum();
        if root_total <= 0.0 {
            return Err(Error::ImpossibleEvidence);
        }
        Ok(root_total.ln() + log_scale)
    }

    /// Distribute (root towards leaves, dividing out the stored collect
    /// message), then normalise every clique to its posterior `P(C | e)`.
    fn distribute(&self, ws: &mut PropagationWorkspace) -> Result<()> {
        for &(child, par, eidx) in self.sched.collect_schedule.iter().rev() {
            let edge = &self.sched.edges[eidx];
            let new_msg = &mut ws.scratch[eidx];
            new_msg.fill(0.0);
            scatter_add_kernel(&ws.beliefs[par], edge.map_for(par), new_msg);
            let z: f64 = new_msg.iter().sum();
            if z <= 0.0 {
                return Err(Error::ImpossibleEvidence);
            }
            for v in new_msg.iter_mut() {
                *v /= z;
            }
            // update := new / old (0/0 = 0), stored message := new.
            let old_msg = &mut ws.messages[eidx];
            for (u, old) in new_msg.iter_mut().zip(old_msg.iter_mut()) {
                let new_val = *u;
                *u = if *old == 0.0 { 0.0 } else { new_val / *old };
                *old = new_val;
            }
            gather_mul_kernel(
                &mut ws.beliefs[child],
                edge.map_for(child),
                &ws.scratch[eidx],
            );
        }

        for belief in &mut ws.beliefs {
            let z: f64 = belief.iter().sum();
            if z <= 0.0 || !z.is_finite() {
                return Err(Error::ImpossibleEvidence);
            }
            for v in belief.iter_mut() {
                *v /= z;
            }
        }
        Ok(())
    }

    /// The log-likelihood `ln P(e, masks)` of `evidence` with each
    /// `(var, mask)` multiplied in as one more likelihood on `var`, from
    /// the collect pass alone: no distribute, no normalisation, no
    /// allocation. The answer is the `ln P(e′)` that
    /// [`JunctionTree::propagate_in`] reports for `e′` = `evidence` with
    /// the masks folded in, bit for bit when every mask entry is 0 or 1
    /// (those products are exact in any order).
    ///
    /// This is the exoneration query of candidate deduction: with 0/1
    /// healthy-state masks on a block's latent ancestors it gives
    /// `P(e, all ancestors healthy)`. The workspace is left uncalibrated.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidEvidence`] for a mask on a variable outside
    /// the network, of the wrong length, or with a negative or
    /// non-finite entry; [`Error::ImpossibleEvidence`] when the masked
    /// evidence has zero probability; plus evidence validation and
    /// [`Error::ShapeMismatch`] for a foreign workspace. On error the
    /// workspace stays usable.
    pub fn log_likelihood_in(
        &self,
        ws: &mut PropagationWorkspace,
        evidence: &Evidence,
        masks: &[(VarId, &[f64])],
    ) -> Result<f64> {
        for &(var, mask) in masks {
            if var.index() >= self.net.var_count() {
                return Err(Error::InvalidEvidence {
                    variable: format!("{var}"),
                    reason: "not in network".into(),
                });
            }
            if mask.len() != self.net.card(var) {
                return Err(Error::InvalidEvidence {
                    variable: self.net.name(var).into(),
                    reason: format!(
                        "mask length {} does not match cardinality {}",
                        mask.len(),
                        self.net.card(var)
                    ),
                });
            }
            if mask.iter().any(|w| !w.is_finite() || *w < 0.0) {
                return Err(Error::InvalidEvidence {
                    variable: self.net.name(var).into(),
                    reason: "mask has negative or non-finite weight".into(),
                });
            }
        }
        self.load(ws, evidence, &[])?;
        for &(var, mask) in masks {
            let slot = self.sched.slots[var.index()];
            scale_axis_kernel(&mut ws.beliefs[slot.clique], slot.stride, slot.card, mask);
        }
        let log_likelihood = self.collect(ws);
        tally(
            0,
            1,
            0,
            self.sched.collect_schedule.len(),
            self.sched.sweep_cells,
        );
        log_likelihood
    }

    /// The outward plan for absorbing a finding on `from` and reading
    /// `targets`: the edges of the smallest subtree joining `from`'s home
    /// clique to every target's home clique, as `[from clique, to clique,
    /// edge]` steps in breadth-first order away from `from`. Every step
    /// leaves a clique the plan already reached, so
    /// [`JunctionTree::absorb_in`] can pass the messages in order.
    ///
    /// This is structural work (it allocates); callers compute their
    /// plans once per compiled tree and reuse them.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownVariable`] for `from` or a target outside
    /// the network.
    pub fn outward_plan(&self, from: VarId, targets: &[VarId]) -> Result<Vec<[u32; 3]>> {
        let n = self.net.var_count();
        if let Some(v) = std::iter::once(&from)
            .chain(targets)
            .find(|v| v.index() >= n)
        {
            return Err(Error::UnknownVariable(format!("{v}")));
        }
        let cliques = self.sched.cliques.len();
        let mut neighbors: Vec<Vec<(usize, usize)>> = vec![Vec::new(); cliques];
        for (idx, edge) in self.sched.edges.iter().enumerate() {
            neighbors[edge.a].push((edge.b, idx));
            neighbors[edge.b].push((edge.a, idx));
        }
        // Breadth-first from the root, remembering how each clique was
        // reached.
        let root = self.sched.home_clique[from.index()];
        let mut reached_by: Vec<Option<(usize, usize)>> = vec![None; cliques];
        let mut visited = vec![false; cliques];
        visited[root] = true;
        let mut order = vec![root];
        let mut head = 0;
        while head < order.len() {
            let c = order[head];
            head += 1;
            for &(nb, edge) in &neighbors[c] {
                if !visited[nb] {
                    visited[nb] = true;
                    reached_by[nb] = Some((c, edge));
                    order.push(nb);
                }
            }
        }
        // Keep the cliques on some target's path back to the root.
        let mut needed = vec![false; cliques];
        for target in targets {
            let mut c = self.sched.home_clique[target.index()];
            while !needed[c] {
                needed[c] = true;
                match reached_by[c] {
                    Some((parent, _)) => c = parent,
                    None => break,
                }
            }
        }
        let step = |c: usize| {
            let (parent, edge) = reached_by[c].expect("non-root cliques have a parent");
            [parent, c, edge].map(|i| u32::try_from(i).expect("tree sizes fit u32"))
        };
        Ok(order
            .into_iter()
            .skip(1)
            .filter(|&c| needed[c])
            .map(step)
            .collect())
    }

    /// Absorbs the hypothetical finding `var = state` into a copy of the
    /// calibrated `base`, along `plan` (from
    /// [`JunctionTree::outward_plan`] with `from = var`): copies the
    /// plan's cliques from `base` into `ws`, retains `state` in `var`'s
    /// home clique, and passes one Hugin update per plan step, `new /
    /// base message` with `0/0 = 0`. There is no collect and no
    /// normalisation: the reached cliques hold `P(C | e, var = state)`
    /// scaled by `P(var = state | e)`, and posterior reads normalise.
    ///
    /// The returned view reads only cliques the plan reached; a read of
    /// any other variable is [`Error::NotOnPlan`], never stale data. `ws`
    /// is left uncalibrated. `var` should carry no finding in `base`'s
    /// evidence: retaining another state of an observed variable leaves
    /// no mass, and reads then report [`Error::ImpossibleEvidence`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] when `base` or `ws` is shaped for
    /// another tree, [`Error::Uncalibrated`] when `base` holds no
    /// calibrated beliefs, [`Error::InvalidEvidence`] for an unknown
    /// variable or out-of-range state, and [`Error::InvalidPlan`] when
    /// `plan` is not an outward walk of this tree from `var`'s home
    /// clique. On error `ws`'s beliefs are untouched.
    pub fn absorb_in<'t, 'w>(
        &'t self,
        base: &PropagationWorkspace,
        ws: &'w mut PropagationWorkspace,
        plan: &[[u32; 3]],
        (var, state): (VarId, usize),
    ) -> Result<AbsorbedView<'t, 'w>> {
        self.check_workspace(base)?;
        self.check_workspace(ws)?;
        if !base.calibrated {
            return Err(Error::Uncalibrated);
        }
        if var.index() >= self.net.var_count() {
            return Err(Error::InvalidEvidence {
                variable: format!("{var}"),
                reason: "not in network".into(),
            });
        }
        let slot = self.sched.slots[var.index()];
        if state >= slot.card {
            return Err(Error::InvalidEvidence {
                variable: self.net.name(var).into(),
                reason: format!("state {state} out of range {}", slot.card),
            });
        }
        // Validate the plan while marking the cliques it reaches and
        // summing the cells its messages will pass.
        ws.on_plan.fill(false);
        ws.on_plan[slot.clique] = true;
        let mut cells = 0;
        for &[from, to, edge] in plan {
            let (from, to, edge) = (from as usize, to as usize, edge as usize);
            let joins = self
                .sched
                .edges
                .get(edge)
                .filter(|e| (e.a == from && e.b == to) || (e.a == to && e.b == from));
            match joins {
                Some(e) if ws.on_plan[from] && !ws.on_plan[to] => cells += e.message_cells(),
                _ => {
                    return Err(Error::InvalidPlan(format!(
                        "step {from} -> {to} over edge {edge} does not walk outward from clique {}",
                        slot.clique
                    )))
                }
            }
            ws.on_plan[to] = true;
        }
        ws.calibrated = false;
        ws.beliefs[slot.clique].copy_from_slice(&base.beliefs[slot.clique]);
        retain_state_kernel(&mut ws.beliefs[slot.clique], slot.stride, slot.card, state);
        for &[from, to, edge] in plan {
            let (from, to, edge) = (from as usize, to as usize, edge as usize);
            let geometry = &self.sched.edges[edge];
            let update = &mut ws.scratch[edge];
            update.fill(0.0);
            scatter_add_kernel(&ws.beliefs[from], geometry.map_for(from), update);
            for (u, &old) in update.iter_mut().zip(&base.messages[edge]) {
                *u = if old == 0.0 { 0.0 } else { *u / old };
            }
            gather_copy_mul_kernel(
                &mut ws.beliefs[to],
                &base.beliefs[to],
                geometry.map_for(to),
                &ws.scratch[edge],
            );
        }
        tally(0, 0, 1, plan.len(), cells);
        Ok(AbsorbedView { tree: self, ws })
    }

    /// The read view over `ws` as the last successful
    /// [`JunctionTree::propagate_in`] (or hypothetical propagation) left
    /// it, without propagating again. The caller must know which evidence
    /// that was.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] for a workspace shaped for another
    /// tree and [`Error::Uncalibrated`] when the workspace holds no
    /// calibrated beliefs (never propagated, a failed propagation, or a
    /// [`JunctionTree::log_likelihood_in`] query since).
    pub fn view_in<'t, 'w>(
        &'t self,
        ws: &'w PropagationWorkspace,
    ) -> Result<CalibratedView<'t, 'w>> {
        self.check_workspace(ws)?;
        if !ws.calibrated {
            return Err(Error::Uncalibrated);
        }
        Ok(CalibratedView { tree: self, ws })
    }

    /// Convenience wrapper: propagate through a fresh workspace and extract
    /// all posterior marginals. Allocates per call; query loops reuse one
    /// workspace with [`JunctionTree::propagate_in`] instead.
    ///
    /// # Errors
    ///
    /// Same as [`JunctionTree::propagate_in`].
    pub fn posteriors(&self, evidence: &Evidence) -> Result<Posteriors> {
        let mut ws = self.make_workspace();
        self.propagate_in(&mut ws, evidence)?.all_posteriors()
    }

    /// The reference (pre-compilation) propagation: rebuilds every clique
    /// potential from the network's CPTs with allocating factor products on
    /// every call, exactly like the original implementation. Kept for
    /// equivalence tests and as the benchmark baseline the compiled path is
    /// measured against; never use it in a hot loop.
    ///
    /// # Errors
    ///
    /// Same as [`JunctionTree::propagate_in`].
    pub fn propagate_baseline(&self, evidence: &Evidence) -> Result<CalibratedTree<'_>> {
        evidence.validate(&self.net)?;

        // Initialise clique potentials: unit tables times assigned families.
        let mut beliefs: Vec<Factor> = self
            .sched
            .cliques
            .iter()
            .map(|c| {
                Factor::new(c.scope.clone(), c.cards.clone(), vec![1.0; c.len])
                    .expect("clique shapes are consistent")
            })
            .collect();
        for var in self.net.variables() {
            let fam = self.net.family_factor(var);
            let idx = self.sched.family_clique[var.index()];
            beliefs[idx] = beliefs[idx].product(&fam);
        }
        for (var, state) in evidence.hard_iter() {
            let mut onehot = vec![0.0; self.net.card(var)];
            onehot[state] = 1.0;
            beliefs[self.sched.home_clique[var.index()]].scale_axis(var, &onehot)?;
        }
        for (var, lik) in evidence.soft_iter() {
            beliefs[self.sched.home_clique[var.index()]]
                .scale_axis(var, lik.to_vec().as_slice())?;
        }

        let mut sepset_msgs: Vec<Option<Factor>> = vec![None; self.sched.edges.len()];
        let mut log_scale = 0.0f64;

        for &(child, par, eidx) in &self.sched.collect_schedule {
            let sep = &self.sched.edges[eidx].sepset;
            let mut msg = beliefs[child].marginalize_to(sep)?;
            let z = msg.total();
            if z <= 0.0 {
                return Err(Error::ImpossibleEvidence);
            }
            for v in msg.values_mut() {
                *v /= z;
            }
            log_scale += z.ln();
            beliefs[par] = beliefs[par].product(&msg);
            sepset_msgs[eidx] = Some(msg);
        }

        let root_total = beliefs[0].total();
        if root_total <= 0.0 {
            return Err(Error::ImpossibleEvidence);
        }
        let log_likelihood = root_total.ln() + log_scale;

        for &(child, par, eidx) in self.sched.collect_schedule.iter().rev() {
            let sep = &self.sched.edges[eidx].sepset;
            let mut new_msg = beliefs[par].marginalize_to(sep)?;
            let z = new_msg.total();
            if z <= 0.0 {
                return Err(Error::ImpossibleEvidence);
            }
            for v in new_msg.values_mut() {
                *v /= z;
            }
            let old = sepset_msgs[eidx]
                .take()
                .expect("collect filled every sepset");
            let update = new_msg.divide(&old)?;
            beliefs[child] = beliefs[child].product(&update);
            sepset_msgs[eidx] = Some(new_msg);
        }

        for b in &mut beliefs {
            b.normalize()?;
        }

        Ok(CalibratedTree {
            tree: self,
            beliefs,
            log_likelihood,
        })
    }
}

/// Shannon entropy of a normalised distribution, in nats. Zero-probability
/// states contribute zero (the `p ln p → 0` limit).
fn entropy_nats(dist: &[f64]) -> f64 {
    dist.iter().filter(|p| **p > 0.0).map(|p| -p * p.ln()).sum()
}

/// Compiles the evidence-free clique potentials: for every variable, its
/// flat CPT is broadcast-multiplied into its family clique's table. The
/// CPT's row-major layout over `parents ++ [var]` is used as factor
/// storage directly — nothing is copied or materialised per family.
fn compile_base(net: &Network, cliques: &[Clique], family_clique: &[usize]) -> Vec<Vec<f64>> {
    let mut base: Vec<Vec<f64>> = cliques.iter().map(|c| vec![1.0; c.len]).collect();
    for var in net.variables() {
        let ci = family_clique[var.index()];
        let clique = &cliques[ci];
        let fam = net.family(var);
        let fam_cards: Vec<usize> = fam.iter().map(|v| net.card(*v)).collect();
        let m_str = aligned_strides(&fam, &fam_cards, &clique.scope);
        mul_broadcast_kernel(&clique.cards, &mut base[ci], net.cpt(var), &m_str);
    }
    base
}

/// Reusable propagation buffers: clique beliefs, per-edge separator
/// messages and separator scratch. Shaped for one specific
/// [`JunctionTree`] by [`JunctionTree::make_workspace`]; feeding it to a
/// differently shaped tree (e.g. one kept across a model refit that
/// re-triangulated) is rejected with [`Error::ShapeMismatch`] before any
/// buffer is touched.
#[derive(Debug, Clone)]
pub struct PropagationWorkspace {
    beliefs: Vec<Vec<f64>>,
    messages: Vec<Vec<f64>>,
    scratch: Vec<Vec<f64>>,
    /// The cliques the last [`JunctionTree::absorb_in`] reached: the only
    /// ones an [`AbsorbedView`] may read.
    on_plan: Vec<bool>,
    log_likelihood: f64,
    calibrated: bool,
}

impl PropagationWorkspace {
    /// `true` after a successful propagation (reset on the next attempt).
    pub fn is_calibrated(&self) -> bool {
        self.calibrated
    }
}

/// A read view over calibrated beliefs living in a reused workspace:
/// the zero-allocation counterpart of [`CalibratedTree`].
#[derive(Debug)]
pub struct CalibratedView<'t, 'w> {
    tree: &'t JunctionTree,
    ws: &'w PropagationWorkspace,
}

impl CalibratedView<'_, '_> {
    /// Natural log of the evidence probability `ln P(e)`.
    pub fn log_likelihood(&self) -> f64 {
        self.ws.log_likelihood
    }

    /// Writes the posterior distribution of `var` into `out` (length must
    /// equal the variable's cardinality) without allocating.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownVariable`] for out-of-range handles and
    /// [`Error::ShapeMismatch`] for a wrong-length buffer.
    pub fn posterior_into(&self, var: VarId, out: &mut [f64]) -> Result<()> {
        read_posterior(self.tree, self.ws, var, out)
    }

    /// Posterior distribution of one variable.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownVariable`] for out-of-range handles.
    pub fn posterior(&self, var: VarId) -> Result<Vec<f64>> {
        if var.index() >= self.tree.net.var_count() {
            return Err(Error::UnknownVariable(format!("{var}")));
        }
        let mut out = vec![0.0; self.tree.sched.slots[var.index()].card];
        self.posterior_into(var, &mut out)?;
        Ok(out)
    }

    /// Shannon entropy `H(var | e)` of one posterior marginal, in nats.
    ///
    /// This is the restricted-posterior scoring primitive: reading the
    /// uncertainty of a handful of latent blocks must not pay for
    /// extracting every marginal in the network. For cardinalities up to
    /// 32 (every model in this workspace) the marginal lives in a stack
    /// buffer, so the call performs no heap allocation.
    ///
    /// # Errors
    ///
    /// Same as [`CalibratedView::posterior_into`].
    pub fn posterior_entropy(&self, var: VarId) -> Result<f64> {
        read_entropy(self.tree, self.ws, var)
    }

    /// Posterior marginals for every variable.
    ///
    /// # Errors
    ///
    /// Propagates [`CalibratedView::posterior`] errors.
    pub fn all_posteriors(&self) -> Result<Posteriors> {
        let mut out = Vec::with_capacity(self.tree.net.var_count());
        for var in self.tree.net.variables() {
            out.push(self.posterior(var)?);
        }
        Ok(Posteriors::new(out))
    }

    /// The posterior family marginal `P(parents(var), var | e)` with scope
    /// ordered `parents ++ [var]` — exactly the shape of the CPT, which is
    /// what EM's expected counts need.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownVariable`] for out-of-range handles, plus
    /// factor-shape errors (the family always fits one clique).
    pub fn family_marginal(&self, var: VarId) -> Result<Factor> {
        if var.index() >= self.tree.net.var_count() {
            return Err(Error::UnknownVariable(format!("{var}")));
        }
        let ci = self.tree.sched.family_clique[var.index()];
        let clique = &self.tree.sched.cliques[ci];
        let fam = self.tree.net.family(var);
        let fam_cards: Vec<usize> = fam.iter().map(|v| self.tree.net.card(*v)).collect();
        let mut out = Factor::with_shape(fam, fam_cards)?;
        let out_str = out.strides_aligned_to(&clique.scope);
        marginalize_kernel(
            &clique.cards,
            &self.ws.beliefs[ci],
            &out_str,
            out.values_mut(),
        );
        out.normalize()?;
        Ok(out)
    }
}

/// Writes `var`'s normalised marginal, read from its home clique in `ws`,
/// into `out`: the one posterior read behind [`CalibratedView`] and
/// [`AbsorbedView`].
fn read_posterior(
    tree: &JunctionTree,
    ws: &PropagationWorkspace,
    var: VarId,
    out: &mut [f64],
) -> Result<()> {
    if var.index() >= tree.net.var_count() {
        return Err(Error::UnknownVariable(format!("{var}")));
    }
    let slot = tree.sched.slots[var.index()];
    if out.len() != slot.card {
        return Err(Error::ShapeMismatch {
            expected: slot.card,
            actual: out.len(),
        });
    }
    out.fill(0.0);
    axis_marginal_kernel(&ws.beliefs[slot.clique], slot.stride, slot.card, out);
    let z: f64 = out.iter().sum();
    if z <= 0.0 || !z.is_finite() {
        return Err(Error::ImpossibleEvidence);
    }
    for v in out.iter_mut() {
        *v /= z;
    }
    Ok(())
}

/// `H(var)` in nats from [`read_posterior`]; the marginal lives in a stack
/// buffer for cardinalities up to 32 (every model in this workspace), so
/// the read does not allocate.
fn read_entropy(tree: &JunctionTree, ws: &PropagationWorkspace, var: VarId) -> Result<f64> {
    if var.index() >= tree.net.var_count() {
        return Err(Error::UnknownVariable(format!("{var}")));
    }
    let card = tree.sched.slots[var.index()].card;
    let mut stack = [0.0f64; 32];
    if card <= stack.len() {
        read_posterior(tree, ws, var, &mut stack[..card])?;
        Ok(entropy_nats(&stack[..card]))
    } else {
        let mut heap = vec![0.0; card];
        read_posterior(tree, ws, var, &mut heap)?;
        Ok(entropy_nats(&heap))
    }
}

/// A read view over the cliques one [`JunctionTree::absorb_in`] reached:
/// posteriors given the base evidence plus the absorbed finding. Reads
/// of a variable whose home clique is off the plan fail with
/// [`Error::NotOnPlan`].
#[derive(Debug)]
pub struct AbsorbedView<'t, 'w> {
    tree: &'t JunctionTree,
    ws: &'w PropagationWorkspace,
}

impl AbsorbedView<'_, '_> {
    /// Rejects reads the absorption did not update.
    fn check_on_plan(&self, var: VarId) -> Result<()> {
        if var.index() >= self.tree.net.var_count() {
            return Err(Error::UnknownVariable(format!("{var}")));
        }
        if !self.ws.on_plan[self.tree.sched.slots[var.index()].clique] {
            return Err(Error::NotOnPlan(self.tree.net.name(var).into()));
        }
        Ok(())
    }

    /// Writes the posterior of `var` into `out`, like
    /// [`CalibratedView::posterior_into`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotOnPlan`] for a variable off the plan, plus the
    /// [`CalibratedView::posterior_into`] errors.
    pub fn posterior_into(&self, var: VarId, out: &mut [f64]) -> Result<()> {
        self.check_on_plan(var)?;
        read_posterior(self.tree, self.ws, var, out)
    }

    /// Shannon entropy of `var`'s posterior, in nats, without allocating.
    ///
    /// # Errors
    ///
    /// Same as [`AbsorbedView::posterior_into`].
    pub fn posterior_entropy(&self, var: VarId) -> Result<f64> {
        self.check_on_plan(var)?;
        read_entropy(self.tree, self.ws, var)
    }
}

/// The result of the reference propagation
/// [`JunctionTree::propagate_baseline`]: calibrated clique beliefs plus the
/// evidence log-likelihood. Borrowed from the compiled tree; the beliefs
/// own their tables (unlike [`CalibratedView`], which reads them out of a
/// reusable workspace).
#[derive(Debug, Clone)]
pub struct CalibratedTree<'jt> {
    tree: &'jt JunctionTree,
    beliefs: Vec<Factor>,
    log_likelihood: f64,
}

impl CalibratedTree<'_> {
    /// Natural log of the evidence probability `ln P(e)`.
    pub fn log_likelihood(&self) -> f64 {
        self.log_likelihood
    }

    /// Posterior distribution of one variable.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownVariable`] for out-of-range handles.
    pub fn posterior(&self, var: VarId) -> Result<Vec<f64>> {
        if var.index() >= self.tree.net.var_count() {
            return Err(Error::UnknownVariable(format!("{var}")));
        }
        let clique = self.tree.sched.home_clique[var.index()];
        let marg = self.beliefs[clique].marginalize_to(&[var])?;
        Ok(marg.normalized()?.into_values())
    }

    /// Posterior marginals for every variable.
    ///
    /// # Errors
    ///
    /// Propagates [`CalibratedTree::posterior`] errors.
    pub fn all_posteriors(&self) -> Result<Posteriors> {
        let mut out = Vec::with_capacity(self.tree.net.var_count());
        for var in self.tree.net.variables() {
            out.push(self.posterior(var)?);
        }
        Ok(Posteriors::new(out))
    }

    /// The posterior family marginal `P(parents(var), var | e)` with scope
    /// ordered `parents ++ [var]` — exactly the shape of the CPT, which is
    /// what EM's expected counts need.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownVariable`] for out-of-range handles, plus
    /// factor-shape errors (the family always fits one clique).
    pub fn family_marginal(&self, var: VarId) -> Result<Factor> {
        if var.index() >= self.tree.net.var_count() {
            return Err(Error::UnknownVariable(format!("{var}")));
        }
        let clique = self.tree.sched.family_clique[var.index()];
        let family = self.tree.net.family(var);
        let marg = self.beliefs[clique].marginalize_to(&family)?;
        marg.normalized()
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
    fn compile_stats_are_sane() {
        let net = sprinkler();
        let jt = JunctionTree::compile(&net).unwrap();
        let sched = &jt.sched;
        assert!(!sched.cliques.is_empty());
        let width = sched.cliques.iter().map(|c| c.scope.len()).max().unwrap();
        assert!(width >= 3, "wet's family has width 3");
        assert!(sched.cliques.iter().map(|c| c.len).sum::<usize>() >= 8);
        assert_eq!(jt.network().var_count(), 4);
        assert_eq!(
            sched.edges.len(),
            sched.cliques.len() - 1,
            "tree has n-1 edges"
        );
        assert_eq!(sched.collect_schedule.len(), sched.edges.len());
    }

    #[test]
    fn matches_enumeration_without_evidence() {
        let net = sprinkler();
        let jt = JunctionTree::compile(&net).unwrap();
        let exact = enumerate_posteriors(&net, &Evidence::new()).unwrap();
        let got = jt.posteriors(&Evidence::new()).unwrap();
        assert!(got.max_abs_diff(&exact).unwrap() < 1e-10);
    }

    #[test]
    fn matches_enumeration_with_hard_evidence() {
        let net = sprinkler();
        let jt = JunctionTree::compile(&net).unwrap();
        let wet = net.var("wet").unwrap();
        let sprinkler_v = net.var("sprinkler").unwrap();
        for (wv, sv) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            let mut e = Evidence::new();
            e.observe(wet, wv).observe(sprinkler_v, sv);
            let exact = enumerate_posteriors(&net, &e).unwrap();
            let got = jt.posteriors(&e).unwrap();
            assert!(
                got.max_abs_diff(&exact).unwrap() < 1e-10,
                "wet={wv} spr={sv}"
            );
        }
    }

    #[test]
    fn matches_enumeration_with_soft_evidence() {
        let net = sprinkler();
        let jt = JunctionTree::compile(&net).unwrap();
        let rain = net.var("rain").unwrap();
        let wet = net.var("wet").unwrap();
        let mut e = Evidence::new();
        e.observe_likelihood(rain, vec![0.3, 1.2]);
        e.observe(wet, 1);
        let exact = enumerate_posteriors(&net, &e).unwrap();
        let got = jt.posteriors(&e).unwrap();
        assert!(got.max_abs_diff(&exact).unwrap() < 1e-10);
    }

    #[test]
    fn log_likelihood_matches_ve() {
        let net = sprinkler();
        let jt = JunctionTree::compile(&net).unwrap();
        let ve = crate::VariableElimination::new(&net);
        let wet = net.var("wet").unwrap();
        let cloudy = net.var("cloudy").unwrap();
        let mut e = Evidence::new();
        e.observe(wet, 1).observe(cloudy, 0);
        let mut ws = jt.make_workspace();
        let cal = jt.propagate_in(&mut ws, &e).unwrap();
        let expect = ve.log_likelihood(&e).unwrap();
        assert!((cal.log_likelihood() - expect).abs() < 1e-10);
    }

    #[test]
    fn family_marginal_shape_and_consistency() {
        let net = sprinkler();
        let jt = JunctionTree::compile(&net).unwrap();
        let wet = net.var("wet").unwrap();
        let mut ws = jt.make_workspace();
        let view = jt.propagate_in(&mut ws, &Evidence::new()).unwrap();
        let fam = view.family_marginal(wet).unwrap();
        assert_eq!(fam.scope().len(), 3);
        assert_eq!(*fam.scope().last().unwrap(), wet);
        assert!((fam.total() - 1.0).abs() < 1e-10);
        // Marginalising the family onto wet equals the posterior of wet.
        let from_family = fam.marginalize_to(&[wet]).unwrap();
        let direct = view.posterior(wet).unwrap();
        for (a, b) in from_family.values().iter().zip(direct.iter()) {
            assert!((a - b).abs() < 1e-10);
        }
        // The reference propagation agrees.
        let reference = jt.propagate_baseline(&Evidence::new()).unwrap();
        let fam_ref = reference.family_marginal(wet).unwrap();
        assert_eq!(fam_ref.scope(), fam.scope());
        for (a, b) in fam_ref.values().iter().zip(fam.values()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn impossible_evidence_is_detected() {
        let mut b = NetworkBuilder::new();
        let a = b.variable("a", ["0", "1"]).unwrap();
        let c = b.variable("c", ["0", "1"]).unwrap();
        b.prior(a, [1.0, 0.0]).unwrap();
        b.cpt(c, [a], [[1.0, 0.0], [0.0, 1.0]]).unwrap();
        let net = b.build().unwrap();
        let jt = JunctionTree::compile(&net).unwrap();
        let mut e = Evidence::new();
        e.observe(c, 1);
        // A workspace survives a failed propagation and can be reused.
        let mut ws = jt.make_workspace();
        assert!(matches!(
            jt.propagate_in(&mut ws, &e),
            Err(Error::ImpossibleEvidence)
        ));
        assert!(!ws.is_calibrated());
        let ok = jt.propagate_in(&mut ws, &Evidence::new()).unwrap();
        assert!((ok.posterior(a).unwrap()[0] - 1.0).abs() < 1e-12);
        assert!(ws.is_calibrated());
    }

    #[test]
    fn disconnected_networks_propagate() {
        let mut b = NetworkBuilder::new();
        let a = b.variable("a", ["0", "1"]).unwrap();
        let c = b.variable("c", ["0", "1"]).unwrap();
        b.prior(a, [0.25, 0.75]).unwrap();
        b.prior(c, [0.9, 0.1]).unwrap();
        let net = b.build().unwrap();
        let jt = JunctionTree::compile(&net).unwrap();
        let mut e = Evidence::new();
        e.observe(c, 1);
        let mut ws = jt.make_workspace();
        let cal = jt.propagate_in(&mut ws, &e).unwrap();
        let pa = cal.posterior(a).unwrap();
        assert!(
            (pa[1] - 0.75).abs() < 1e-10,
            "independent evidence must not leak"
        );
        assert!((cal.log_likelihood() - 0.1f64.ln()).abs() < 1e-10);
    }

    #[test]
    fn update_parameters_requires_same_structure() {
        let net = sprinkler();
        let mut jt = JunctionTree::compile(&net).unwrap();
        let mut altered = net.clone();
        let rain = altered.var("rain").unwrap();
        altered
            .set_cpt_values(rain, vec![0.5, 0.5, 0.5, 0.5])
            .unwrap();
        assert!(jt.update_parameters(&altered).is_ok());
        let got = jt.posteriors(&Evidence::new()).unwrap();
        let exact = enumerate_posteriors(&altered, &Evidence::new()).unwrap();
        assert!(got.max_abs_diff(&exact).unwrap() < 1e-10);

        let mut b = NetworkBuilder::new();
        let x = b.variable("x", ["0", "1"]).unwrap();
        b.prior(x, [0.5, 0.5]).unwrap();
        let other = b.build().unwrap();
        assert!(jt.update_parameters(&other).is_err());
    }

    fn seven_var_net() -> Network {
        // A 7-variable layered DAG exercises multi-clique trees.
        let mut b = NetworkBuilder::new();
        let v0 = b.variable("v0", ["0", "1"]).unwrap();
        let v1 = b.variable("v1", ["0", "1", "2"]).unwrap();
        let v2 = b.variable("v2", ["0", "1"]).unwrap();
        let v3 = b.variable("v3", ["0", "1"]).unwrap();
        let v4 = b.variable("v4", ["0", "1"]).unwrap();
        let v5 = b.variable("v5", ["0", "1", "2"]).unwrap();
        let v6 = b.variable("v6", ["0", "1"]).unwrap();
        b.prior(v0, [0.4, 0.6]).unwrap();
        b.prior(v1, [0.2, 0.5, 0.3]).unwrap();
        b.cpt(v2, [v0], [[0.7, 0.3], [0.1, 0.9]]).unwrap();
        b.cpt(
            v3,
            [v0, v1],
            [
                [0.5, 0.5],
                [0.4, 0.6],
                [0.3, 0.7],
                [0.2, 0.8],
                [0.6, 0.4],
                [0.9, 0.1],
            ],
        )
        .unwrap();
        b.cpt(v4, [v2], [[0.25, 0.75], [0.85, 0.15]]).unwrap();
        b.cpt(v5, [v3], [[0.1, 0.6, 0.3], [0.5, 0.25, 0.25]])
            .unwrap();
        b.cpt(
            v6,
            [v4, v5],
            [
                [0.9, 0.1],
                [0.8, 0.2],
                [0.7, 0.3],
                [0.4, 0.6],
                [0.3, 0.7],
                [0.05, 0.95],
            ],
        )
        .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn bigger_random_network_agrees_with_ve() {
        let net = seven_var_net();
        let v1 = net.var("v1").unwrap();
        let v6 = net.var("v6").unwrap();
        let jt = JunctionTree::compile(&net).unwrap();
        let ve = crate::VariableElimination::new(&net);
        let mut e = Evidence::new();
        e.observe(v6, 1).observe(v1, 2);
        let got = jt.posteriors(&e).unwrap();
        let expect = ve.all_posteriors(&e).unwrap();
        assert!(got.max_abs_diff(&expect).unwrap() < 1e-9);
        let mut ws = jt.make_workspace();
        let cal = jt.propagate_in(&mut ws, &e).unwrap();
        assert!((cal.log_likelihood() - ve.log_likelihood(&e).unwrap()).abs() < 1e-9);
    }

    #[test]
    fn compiled_propagation_matches_baseline() {
        let net = seven_var_net();
        let jt = JunctionTree::compile(&net).unwrap();
        let v0 = net.var("v0").unwrap();
        let v5 = net.var("v5").unwrap();
        let v6 = net.var("v6").unwrap();
        let mut evidences = vec![Evidence::new()];
        for s6 in 0..2 {
            let mut e = Evidence::new();
            e.observe(v6, s6);
            evidences.push(e.clone());
            e.observe(v0, 1);
            evidences.push(e);
        }
        let mut soft = Evidence::new();
        soft.observe_likelihood(v5, vec![0.2, 1.0, 0.5]);
        evidences.push(soft);
        let mut ws = jt.make_workspace();
        for e in &evidences {
            let baseline = jt.propagate_baseline(e).unwrap();
            let compiled = jt.propagate_in(&mut ws, e).unwrap();
            assert!(
                (baseline.log_likelihood() - compiled.log_likelihood()).abs() < 1e-12,
                "log-likelihood drift"
            );
            let a = baseline.all_posteriors().unwrap();
            let b = compiled.all_posteriors().unwrap();
            assert!(a.max_abs_diff(&b).unwrap() < 1e-12, "posterior drift");
        }
    }

    #[test]
    fn workspace_reuse_is_stable_across_evidence_changes() {
        let net = seven_var_net();
        let jt = JunctionTree::compile(&net).unwrap();
        let v6 = net.var("v6").unwrap();
        let mut ws = jt.make_workspace();
        // Interleave different evidence sets through one workspace and
        // compare against fresh-workspace answers.
        for round in 0..3 {
            for s in 0..2 {
                let mut e = Evidence::new();
                e.observe(v6, s);
                let reused = jt
                    .propagate_in(&mut ws, &e)
                    .unwrap()
                    .all_posteriors()
                    .unwrap();
                let fresh = jt.posteriors(&e).unwrap();
                assert!(
                    reused.max_abs_diff(&fresh).unwrap() == 0.0,
                    "round {round}: reused workspace must be bitwise identical"
                );
            }
        }
    }

    #[test]
    fn cloned_trees_share_compiled_state_without_recompiling() {
        let net = seven_var_net();
        let compiles_before = compile_count();
        let jt = JunctionTree::compile(&net).unwrap();
        assert_eq!(compile_count() - compiles_before, 1);
        // Cloning is two refcount bumps: no recompilation, shared schedule
        // and base tables, independent workspaces, identical answers.
        let clone = jt.clone();
        assert_eq!(
            compile_count() - compiles_before,
            1,
            "clone must not compile"
        );
        assert!(jt.shares_compiled_state_with(&clone));
        let other = JunctionTree::compile(&net).unwrap();
        assert!(
            !jt.shares_compiled_state_with(&other),
            "a fresh compilation is equivalent but not shared"
        );
        let v6 = net.var("v6").unwrap();
        let mut e = Evidence::new();
        e.observe(v6, 1);
        let a = jt.posteriors(&e).unwrap();
        let b = clone.posteriors(&e).unwrap();
        assert!(
            a.max_abs_diff(&b).unwrap() == 0.0,
            "clones answer identically"
        );
        // Parameter updates on one clone never leak into the other.
        let mut tuned = clone;
        let rain_like = net.var("v2").unwrap();
        let mut altered = net.clone();
        altered
            .set_cpt_values(rain_like, vec![0.5, 0.5, 0.5, 0.5])
            .unwrap();
        tuned.update_parameters(&altered).unwrap();
        assert!(
            !jt.shares_compiled_state_with(&tuned),
            "update_parameters must unshare the schedule"
        );
        let untouched = jt.posteriors(&e).unwrap();
        assert!(a.max_abs_diff(&untouched).unwrap() == 0.0);
    }

    #[test]
    fn foreign_workspace_is_rejected_not_panicking() {
        let jt_small = JunctionTree::compile(&sprinkler()).unwrap();
        let jt_big = JunctionTree::compile(&seven_var_net()).unwrap();
        let mut ws_small = jt_small.make_workspace();
        let err = jt_big.propagate_in(&mut ws_small, &Evidence::new());
        assert!(
            matches!(err, Err(Error::ShapeMismatch { .. })),
            "foreign workspace must be rejected cleanly, got {err:?}"
        );
        // The workspace still works with its own tree afterwards.
        assert!(jt_small
            .propagate_in(&mut ws_small, &Evidence::new())
            .is_ok());
    }

    #[test]
    fn stacked_hypotheticals_match_real_evidence() {
        let net = seven_var_net();
        let jt = JunctionTree::compile(&net).unwrap();
        let v0 = net.var("v0").unwrap();
        let v2 = net.var("v2").unwrap();
        let v6 = net.var("v6").unwrap();
        let mut base = Evidence::new();
        base.observe(v6, 1);
        let mut ws = jt.make_workspace();
        for s0 in 0..2 {
            for s2 in 0..2 {
                let hyp = jt
                    .propagate_hypotheticals_in(&mut ws, &base, &[(v0, s0), (v2, s2)])
                    .unwrap()
                    .all_posteriors()
                    .unwrap();
                let mut merged = base.clone();
                merged.observe(v0, s0);
                merged.observe(v2, s2);
                let real = jt.posteriors(&merged).unwrap();
                assert!(
                    hyp.max_abs_diff(&real).unwrap() == 0.0,
                    "stacked hypotheticals must equal the merged-evidence answer bitwise"
                );
            }
        }
        // Empty stack == plain propagation; the evidence set is untouched.
        let empty = jt
            .propagate_hypotheticals_in(&mut ws, &base, &[])
            .unwrap()
            .all_posteriors()
            .unwrap();
        let plain = jt.posteriors(&base).unwrap();
        assert!(empty.max_abs_diff(&plain).unwrap() == 0.0);
        assert_eq!(base.state_of(v0), None);

        // Duplicate findings and evidence collisions are rejected.
        assert!(matches!(
            jt.propagate_hypotheticals_in(&mut ws, &base, &[(v0, 0), (v0, 1)]),
            Err(Error::InvalidEvidence { .. })
        ));
        assert!(matches!(
            jt.propagate_hypotheticals_in(&mut ws, &base, &[(v0, 0), (v6, 0)]),
            Err(Error::InvalidEvidence { .. })
        ));
    }

    #[test]
    fn hypothetical_propagation_matches_real_evidence() {
        let net = seven_var_net();
        let jt = JunctionTree::compile(&net).unwrap();
        let v0 = net.var("v0").unwrap();
        let v6 = net.var("v6").unwrap();
        let mut base = Evidence::new();
        base.observe(v6, 1);
        let mut ws = jt.make_workspace();
        for state in 0..2 {
            let hyp = jt
                .propagate_hypotheticals_in(&mut ws, &base, &[(v0, state)])
                .unwrap()
                .all_posteriors()
                .unwrap();
            let mut merged = base.clone();
            merged.observe(v0, state);
            let real = jt.posteriors(&merged).unwrap();
            assert!(
                hyp.max_abs_diff(&real).unwrap() == 0.0,
                "hypothetical must equal the merged-evidence answer bitwise"
            );
        }
        // The base evidence set is untouched.
        assert_eq!(base.state_of(v0), None);
        // Hypotheticals on observed or bogus variables are rejected.
        for bad in [(v6, 0), (VarId::from_index(99), 0), (v0, 7)] {
            assert!(matches!(
                jt.propagate_hypotheticals_in(&mut ws, &base, &[bad]),
                Err(Error::InvalidEvidence { .. })
            ));
        }
    }

    /// Every base evidence set the absorption tests start from: none,
    /// hard, hard plus soft.
    fn absorb_bases(net: &Network) -> Vec<Evidence> {
        let v1 = net.var("v1").unwrap();
        let v5 = net.var("v5").unwrap();
        let v6 = net.var("v6").unwrap();
        let mut hard = Evidence::new();
        hard.observe(v6, 1);
        let mut soft = hard.clone();
        soft.observe_likelihood(v5, vec![0.2, 1.0, 0.5]);
        soft.observe_likelihood(v1, vec![0.0, 2.0, 1.0]);
        vec![Evidence::new(), hard, soft]
    }

    #[test]
    fn absorption_matches_full_hypothetical_propagation() {
        let net = seven_var_net();
        let jt = JunctionTree::compile(&net).unwrap();
        let all: Vec<VarId> = net.variables().collect();
        let mut base_ws = jt.make_workspace();
        let mut hyp_ws = jt.make_workspace();
        let mut ws = jt.make_workspace();
        let mut checked = 0;
        for evidence in absorb_bases(&net) {
            jt.propagate_in(&mut base_ws, &evidence).unwrap();
            for &m in &all {
                if evidence.mentions(m) {
                    continue;
                }
                let plan = jt.outward_plan(m, &all).unwrap();
                assert_eq!(plan.len(), jt.sched.edges.len(), "every clique is a target");
                for state in 0..net.card(m) {
                    let Ok(full) =
                        jt.propagate_hypotheticals_in(&mut hyp_ws, &evidence, &[(m, state)])
                    else {
                        continue;
                    };
                    let absorbed = jt.absorb_in(&base_ws, &mut ws, &plan, (m, state)).unwrap();
                    for &v in &all {
                        let want = full.posterior(v).unwrap();
                        let mut got = vec![0.0; net.card(v)];
                        absorbed.posterior_into(v, &mut got).unwrap();
                        for (a, b) in want.iter().zip(&got) {
                            assert!((a - b).abs() <= 1e-12, "{m}={state}, {v}: {a} vs {b}");
                        }
                        let h = absorbed.posterior_entropy(v).unwrap();
                        assert!((h - full.posterior_entropy(v).unwrap()).abs() <= 1e-12);
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 100, "{checked} reads compared");
        assert!(
            !ws.is_calibrated(),
            "an absorption never calibrates its workspace"
        );
    }

    #[test]
    fn pruned_plans_refuse_reads_off_the_plan() {
        let net = seven_var_net();
        let jt = JunctionTree::compile(&net).unwrap();
        let v0 = net.var("v0").unwrap();
        let v2 = net.var("v2").unwrap();
        let v5 = net.var("v5").unwrap();
        let v6 = net.var("v6").unwrap();
        let mut e = Evidence::new();
        e.observe(v6, 1);
        let mut base_ws = jt.make_workspace();
        jt.propagate_in(&mut base_ws, &e).unwrap();
        let mut full_ws = jt.make_workspace();
        let mut ws = jt.make_workspace();
        // Read everything once, so a later pruned plan finds stale cliques
        // in the reused workspace.
        let everything: Vec<VarId> = net.variables().collect();
        let plan = jt.outward_plan(v0, &everything).unwrap();
        jt.absorb_in(&base_ws, &mut ws, &plan, (v0, 0)).unwrap();

        let plan = jt.outward_plan(v0, &[v2]).unwrap();
        assert!(plan.len() < jt.sched.edges.len(), "{plan:?} is pruned");
        let absorbed = jt.absorb_in(&base_ws, &mut ws, &plan, (v0, 1)).unwrap();
        let full = jt
            .propagate_hypotheticals_in(&mut full_ws, &e, &[(v0, 1)])
            .unwrap();
        for v in [v0, v2] {
            let (want, got) = (
                full.posterior_entropy(v).unwrap(),
                absorbed.posterior_entropy(v).unwrap(),
            );
            assert!((want - got).abs() <= 1e-12);
        }
        let home = |v: VarId| jt.sched.home_clique[v.index()];
        let on_plan = |c: usize| c == home(v0) || plan.iter().any(|step| step[1] as usize == c);
        let off: Vec<VarId> = everything
            .iter()
            .copied()
            .filter(|&v| !on_plan(home(v)))
            .collect();
        assert!(off.contains(&v5), "v5 sits beyond the v0–v2 path");
        for v in off {
            assert!(matches!(
                absorbed.posterior_entropy(v),
                Err(Error::NotOnPlan(_))
            ));
            let mut out = vec![0.0; net.card(v)];
            assert!(matches!(
                absorbed.posterior_into(v, &mut out),
                Err(Error::NotOnPlan(_))
            ));
        }
        assert!(matches!(
            absorbed.posterior_entropy(VarId::from_index(99)),
            Err(Error::UnknownVariable(_))
        ));
        // A plan with no targets reaches the home clique alone.
        let plan = jt.outward_plan(v0, &[]).unwrap();
        assert!(plan.is_empty());
        let absorbed = jt.absorb_in(&base_ws, &mut ws, &plan, (v0, 1)).unwrap();
        assert_eq!(absorbed.posterior_entropy(v0).unwrap(), 0.0);
        assert!(jt.outward_plan(VarId::from_index(99), &[]).is_err());
        assert!(jt.outward_plan(v0, &[VarId::from_index(99)]).is_err());
    }

    #[test]
    fn absorption_rejects_bad_bases_states_and_plans() {
        let net = seven_var_net();
        let jt = JunctionTree::compile(&net).unwrap();
        let other = JunctionTree::compile(&sprinkler()).unwrap();
        let v0 = net.var("v0").unwrap();
        let v2 = net.var("v2").unwrap();
        let everything: Vec<VarId> = net.variables().collect();
        let plan = jt.outward_plan(v0, &everything).unwrap();
        let mut base_ws = jt.make_workspace();
        let mut ws = jt.make_workspace();
        assert!(matches!(
            jt.absorb_in(&base_ws, &mut ws, &plan, (v0, 0)),
            Err(Error::Uncalibrated)
        ));
        jt.propagate_in(&mut base_ws, &Evidence::new()).unwrap();
        let mut foreign = other.make_workspace();
        other.propagate_in(&mut foreign, &Evidence::new()).unwrap();
        assert!(matches!(
            jt.absorb_in(&foreign, &mut ws, &plan, (v0, 0)),
            Err(Error::ShapeMismatch { .. })
        ));
        assert!(matches!(
            jt.absorb_in(&base_ws, &mut foreign, &plan, (v0, 0)),
            Err(Error::ShapeMismatch { .. })
        ));
        for bad in [(v0, 2), (VarId::from_index(99), 0)] {
            assert!(matches!(
                jt.absorb_in(&base_ws, &mut ws, &plan, bad),
                Err(Error::InvalidEvidence { .. })
            ));
        }
        // A plan built for another finding, a reordered plan, a step over
        // the wrong edge and an out-of-range edge are all refused.
        let foreign_plan = jt.outward_plan(v2, &everything).unwrap();
        let mut reversed = plan.clone();
        reversed.reverse();
        let mut wrong_edge = plan.clone();
        wrong_edge[0][2] = (wrong_edge[0][2] + 1) % plan.len() as u32;
        let mut out_of_range = plan.clone();
        out_of_range[0][2] = 999;
        let root_differs = jt.sched.home_clique[v0.index()] != jt.sched.home_clique[v2.index()];
        let mut bad_plans = vec![reversed, wrong_edge, out_of_range];
        if root_differs {
            bad_plans.push(foreign_plan);
        }
        jt.absorb_in(&base_ws, &mut ws, &plan, (v0, 1)).unwrap();
        let want = jt
            .absorb_in(&base_ws, &mut ws, &plan, (v0, 1))
            .unwrap()
            .posterior_entropy(v2)
            .unwrap();
        for bad in &bad_plans {
            assert!(matches!(
                jt.absorb_in(&base_ws, &mut ws, bad, (v0, 1)),
                Err(Error::InvalidPlan(_))
            ));
        }
        // The base is untouched and the workspace reusable after errors.
        let again = jt
            .absorb_in(&base_ws, &mut ws, &plan, (v0, 1))
            .unwrap()
            .posterior_entropy(v2)
            .unwrap();
        assert_eq!(again.to_bits(), want.to_bits());
        assert!(base_ws.is_calibrated());
    }

    #[test]
    fn work_counters_tally_each_kind_of_query() {
        let net = seven_var_net();
        let jt = JunctionTree::compile(&net).unwrap();
        let edges = jt.sched.edges.len() as u64;
        let v0 = net.var("v0").unwrap();
        let v6 = net.var("v6").unwrap();
        let mut e = Evidence::new();
        e.observe(v6, 1);
        let mut base_ws = jt.make_workspace();
        let mut ws = jt.make_workspace();
        let everything: Vec<VarId> = net.variables().collect();
        let plan = jt.outward_plan(v0, &everything).unwrap();

        let before = work_counts();
        jt.propagate_in(&mut base_ws, &e).unwrap();
        jt.propagate_hypotheticals_in(&mut ws, &e, &[(v0, 1)])
            .unwrap();
        jt.log_likelihood_in(&mut ws, &e, &[]).unwrap();
        jt.absorb_in(&base_ws, &mut ws, &plan, (v0, 0)).unwrap();
        // Calls refused before any arithmetic count nothing.
        assert!(jt
            .propagate_in(&mut ws, &{
                let mut bad = Evidence::new();
                bad.observe(v0, 9);
                bad
            })
            .is_err());
        assert!(jt.absorb_in(&base_ws, &mut ws, &plan, (v0, 9)).is_err());
        // Each message reads its sending clique and writes its receiving
        // one: a sweep over every edge touches each clique once per
        // incident edge.
        let sweep: u64 = jt
            .sched
            .edges
            .iter()
            .map(|e| (jt.sched.cliques[e.a].len + jt.sched.cliques[e.b].len) as u64)
            .sum();
        let absorbed: u64 = plan
            .iter()
            .map(|&[from, to, _]| {
                (jt.sched.cliques[from as usize].len + jt.sched.cliques[to as usize].len) as u64
            })
            .sum();
        assert!(absorbed > 0 && absorbed <= sweep);
        assert_eq!(
            work_counts().since(before),
            WorkCounts {
                propagations: 2,
                collect_queries: 1,
                absorptions: 1,
                messages: 2 * 2 * edges + edges + plan.len() as u64,
                cells: 2 * 2 * sweep + sweep + absorbed,
            }
        );
        // Other threads keep their own tallies.
        let other = std::thread::spawn(work_counts).join().unwrap();
        assert_eq!(other, WorkCounts::default());
    }

    #[test]
    fn cliques_past_the_index_maps_are_refused() {
        // An 8×8 grid (parents: up and left) has treewidth 8, so every
        // triangulation has a clique of at least 9 variables: 16^9 = 2^36
        // cells, past what u32 index maps address. Compilation must say
        // so before allocating any table.
        let mut b = NetworkBuilder::new();
        let states: Vec<String> = (0..16).map(|s| format!("s{s}")).collect();
        let mut grid: Vec<VarId> = Vec::new();
        for r in 0..8 {
            for c in 0..8 {
                let v = b.variable(format!("g{r}_{c}"), states.clone()).unwrap();
                let mut parents = Vec::new();
                if r > 0 {
                    parents.push(grid[(r - 1) * 8 + c]);
                }
                if c > 0 {
                    parents.push(grid[r * 8 + c - 1]);
                }
                let cells = 16usize.pow(parents.len() as u32 + 1);
                b.cpt_flat(v, parents, vec![1.0 / 16.0; cells]).unwrap();
                grid.push(v);
            }
        }
        let err = JunctionTree::compile(&b.build().unwrap()).unwrap_err();
        assert!(
            matches!(&err, Error::CliqueTooLarge { variables } if variables.len() >= 9),
            "{err:?}"
        );
    }

    #[test]
    fn entropy_helpers_match_direct_computation() {
        let net = seven_var_net();
        let jt = JunctionTree::compile(&net).unwrap();
        let v1 = net.var("v1").unwrap();
        let v5 = net.var("v5").unwrap();
        let v6 = net.var("v6").unwrap();
        let mut e = Evidence::new();
        e.observe(v6, 0);
        let mut ws = jt.make_workspace();
        let view = jt.propagate_in(&mut ws, &e).unwrap();
        let direct = |var| {
            view.posterior(var)
                .unwrap()
                .iter()
                .filter(|p| **p > 0.0)
                .map(|p| -p * p.ln())
                .sum::<f64>()
        };
        for var in [v1, v5] {
            assert!((view.posterior_entropy(var).unwrap() - direct(var)).abs() < 1e-15);
        }
        // Observed variables carry zero entropy.
        assert_eq!(view.posterior_entropy(v6).unwrap(), 0.0);
        assert!(view.posterior_entropy(VarId::from_index(99)).is_err());
        // Wrong-length buffers are rejected.
        assert!(matches!(
            view.posterior_into(v1, &mut vec![0.0; net.card(v1) + 1]),
            Err(Error::ShapeMismatch { .. })
        ));
        assert!(matches!(
            view.family_marginal(VarId::from_index(99)),
            Err(Error::UnknownVariable(_))
        ));
        assert!(matches!(
            jt.propagate_baseline(&e)
                .unwrap()
                .family_marginal(VarId::from_index(99)),
            Err(Error::UnknownVariable(_))
        ));
    }

    #[test]
    fn compile_counter_increments_per_compile_only() {
        let net = sprinkler();
        let before = compile_count();
        let jt = JunctionTree::compile(&net).unwrap();
        assert_eq!(compile_count(), before + 1);
        let mut ws = jt.make_workspace();
        for _ in 0..5 {
            jt.propagate_in(&mut ws, &Evidence::new()).unwrap();
        }
        assert_eq!(compile_count(), before + 1, "propagation must not compile");
    }

    /// `evidence` with each mask folded into its variable as a likelihood
    /// (multiplied into an existing one), the way deduction used to build
    /// its full-propagation exoneration query.
    fn fold(evidence: &Evidence, masks: &[(VarId, &[f64])]) -> Evidence {
        let mut out = evidence.clone();
        for &(var, mask) in masks {
            let mut weights = mask.to_vec();
            if let Some(likelihood) = evidence.likelihood_of(var) {
                for (w, l) in weights.iter_mut().zip(likelihood) {
                    *w *= l;
                }
            }
            out.observe_likelihood(var, weights);
        }
        out
    }

    #[test]
    fn collect_only_log_likelihood_is_bitwise_the_folded_propagation() {
        let spr = sprinkler();
        let seven = seven_var_net();
        let var = |net: &Network, name: &str| net.var(name).unwrap();
        let evidence = |net: &Network, hard: &[(&str, usize)], soft: &[(&str, &[f64])]| {
            let mut e = Evidence::new();
            for &(name, state) in hard {
                e.observe(var(net, name), state);
            }
            for &(name, weights) in soft {
                e.observe_likelihood(var(net, name), weights.to_vec());
            }
            e
        };
        let spr_masks: &[(VarId, &[f64])] = &[
            (var(&spr, "cloudy"), &[0.0, 1.0]),
            (var(&spr, "rain"), &[1.0, 0.0]),
        ];
        let seven_masks: &[(VarId, &[f64])] = &[
            (var(&seven, "v1"), &[1.0, 0.0, 1.0]),
            (var(&seven, "v3"), &[0.0, 1.0]),
        ];
        type Masks<'a> = &'a [(VarId, &'a [f64])];
        let cases: Vec<(&Network, Evidence, Masks)> = vec![
            // Hard evidence.
            (&spr, evidence(&spr, &[("wet", 1)], &[]), spr_masks),
            (&seven, evidence(&seven, &[("v6", 1)], &[]), seven_masks),
            // Soft evidence on an unmasked variable.
            (
                &spr,
                evidence(&spr, &[("wet", 1)], &[("sprinkler", &[0.3, 0.9])]),
                spr_masks,
            ),
            (
                &seven,
                evidence(&seven, &[("v6", 1)], &[("v5", &[0.2, 1.0, 0.5])]),
                seven_masks,
            ),
            // Soft evidence on a masked variable.
            (
                &spr,
                evidence(&spr, &[("wet", 1)], &[("rain", &[0.4, 1.7])]),
                spr_masks,
            ),
            (
                &seven,
                evidence(&seven, &[("v6", 0)], &[("v1", &[0.5, 2.0, 0.25])]),
                seven_masks,
            ),
            // Empty masks.
            (
                &spr,
                evidence(&spr, &[("wet", 1)], &[("sprinkler", &[0.3, 0.9])]),
                &[],
            ),
            (&seven, evidence(&seven, &[], &[]), &[]),
        ];
        for (net, e, masks) in &cases {
            let jt = JunctionTree::compile(net).unwrap();
            let mut ws = jt.make_workspace();
            let mut full_ws = jt.make_workspace();
            let collect_only = jt.log_likelihood_in(&mut ws, e, masks).unwrap();
            let full = jt
                .propagate_in(&mut full_ws, &fold(e, masks))
                .unwrap()
                .log_likelihood();
            assert_eq!(
                collect_only.to_bits(),
                full.to_bits(),
                "{e:?} masked by {masks:?}: {collect_only} vs {full}"
            );
            assert!(!ws.is_calibrated(), "a collect-only query never calibrates");
            assert!(matches!(jt.view_in(&ws), Err(Error::Uncalibrated)));
        }

        // Masks that leave no mass: both paths report impossible evidence.
        let jt = JunctionTree::compile(&spr).unwrap();
        let mut ws = jt.make_workspace();
        let e = evidence(&spr, &[("wet", 1)], &[]);
        let dry: &[(VarId, &[f64])] = &[
            (var(&spr, "sprinkler"), &[1.0, 0.0]),
            (var(&spr, "rain"), &[1.0, 0.0]),
        ];
        assert!(matches!(
            jt.log_likelihood_in(&mut ws, &e, dry),
            Err(Error::ImpossibleEvidence)
        ));
        assert!(matches!(
            jt.propagate_in(&mut ws, &fold(&e, dry)),
            Err(Error::ImpossibleEvidence)
        ));

        // Malformed masks are rejected, and the workspace stays usable.
        let want = jt.log_likelihood_in(&mut ws, &e, spr_masks).unwrap();
        for bad in [
            &[(VarId::from_index(99), &[1.0, 0.0][..])][..],
            &[(var(&spr, "rain"), &[1.0][..])][..],
            &[(var(&spr, "rain"), &[1.0, f64::NAN][..])][..],
        ] {
            assert!(matches!(
                jt.log_likelihood_in(&mut ws, &e, bad),
                Err(Error::InvalidEvidence { .. })
            ));
            let again = jt.log_likelihood_in(&mut ws, &e, spr_masks).unwrap();
            assert_eq!(again.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn view_in_rereads_the_last_calibration() {
        let net = seven_var_net();
        let jt = JunctionTree::compile(&net).unwrap();
        let v6 = net.var("v6").unwrap();
        let mut e = Evidence::new();
        e.observe(v6, 1);
        let mut ws = jt.make_workspace();
        assert!(matches!(jt.view_in(&ws), Err(Error::Uncalibrated)));
        let fresh = jt
            .propagate_in(&mut ws, &e)
            .unwrap()
            .all_posteriors()
            .unwrap();
        let reread = jt.view_in(&ws).unwrap().all_posteriors().unwrap();
        assert!(fresh.max_abs_diff(&reread).unwrap() == 0.0);
        let other = JunctionTree::compile(&sprinkler()).unwrap();
        assert!(matches!(
            other.view_in(&ws),
            Err(Error::ShapeMismatch { .. })
        ));
    }
}
