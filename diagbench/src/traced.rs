//! The traced replay: the composed round, split layer by layer.
//!
//! For every request of the wire run's device sequence, in lockstep:
//!
//! * an untraced [`InProc`] stack — the baseline for the tracing
//!   overhead;
//! * a traced [`InProc`] stack — the composed round, one span per layer
//!   call;
//! * per-session *replicas* that split what one public call does
//!   internally. A session round runs absorb, diagnosis (propagation +
//!   §IV-B deduction), VOI ranking and report assembly inside
//!   `serve_round`. Replica B replays the round as `absorb_request` +
//!   `report`; replica C replays it whole, untimed, and then times
//!   `diagnose`, `rank_actions` and `JunctionTree::propagate_in` on a
//!   tree the benchmark compiles from the same network (the session's
//!   own tree is crate-private). An outer call's self time is the
//!   difference between it and its inner calls, timed in separate
//!   replays of the same round.
//!
//! Replica B's report must equal the served reply byte for byte, so the
//! split is checked to replay the round the server ran.

use crate::driver::{digest, Failure, Reply, Transport};
use crate::inproc::{group_rows, InProc};
use crate::trace::{durations_us, Tracer};
use crate::workload::{Fleet, Models, Workload};
use abbd_bbn::{JunctionTree, PropagationWorkspace};
use abbd_core::{
    Action, CompiledModel, DiagnosisSession, HierarchicalModel, HierarchicalSession, Observation,
    SessionReport, SessionRequest, StoppingPolicy,
};
use abbd_server::{codec, BatchEntry};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// The replicas of one open session.
enum Replica {
    Flat {
        b: Box<DiagnosisSession>,
        c: Box<DiagnosisSession>,
    },
    Hier {
        b: Box<LevelReplica>,
        c: Box<HierarchicalSession>,
    },
}

/// Replica B of a hierarchical session: the active level's
/// [`DiagnosisSession`], driven the way `HierarchicalSession::serve_round`
/// drives it, so the level's absorb and report can be timed apart.
struct LevelReplica {
    model: Arc<HierarchicalModel>,
    level: DiagnosisSession,
    descended: bool,
    board: Observation,
}

fn absorb_report(
    session: &mut DiagnosisSession,
    request: &SessionRequest,
    tracer: &mut Tracer,
) -> abbd_core::Result<SessionReport> {
    tracer.span("session.absorb", || session.absorb_request(request))?;
    tracer.span("session.report", || session.report())
}

/// The request restricted to the variables `compiled` models — how the
/// hierarchy routes a round to one level.
fn filter_request(request: &SessionRequest, compiled: &CompiledModel) -> SessionRequest {
    let model = compiled.model();
    let mut observation = Observation::new();
    for (name, state) in request.observation.iter() {
        if model.var(name).is_ok() {
            observation.set(name, state);
        }
    }
    for name in request.observation.failing() {
        if model.var(name).is_ok() {
            observation.mark_failing(name.clone());
        }
    }
    SessionRequest {
        observation,
        actions: request
            .actions
            .iter()
            .filter(|a| model.var(a.target()).is_ok())
            .cloned()
            .collect(),
        strategy: request.strategy,
        policy: request.policy,
        cost: request.cost.clone(),
        deduction: request.deduction,
        delta: request.delta,
        timings: request.timings.clone(),
    }
}

impl LevelReplica {
    fn new(model: Arc<HierarchicalModel>) -> abbd_core::Result<Self> {
        let level = DiagnosisSession::new(Arc::clone(model.root()), StoppingPolicy::default())?;
        Ok(LevelReplica {
            model,
            level,
            descended: false,
            board: Observation::new(),
        })
    }

    /// One round; `descend` is the block the served session entered
    /// during this round, if it did.
    fn round(
        &mut self,
        request: &SessionRequest,
        descend: Option<usize>,
        tracer: &mut Tracer,
    ) -> abbd_core::Result<SessionReport> {
        let filtered = filter_request(request, self.level.compiled());
        let mut report = absorb_report(&mut self.level, &filtered, tracer)?;
        if let Some(block) = descend.filter(|_| !self.descended) {
            // Descent as the hierarchy performs it: a block session
            // seeded with the board evidence recorded before this round,
            // then answered with an empty delta round.
            let child = self.model.child(block)?;
            let mut session = DiagnosisSession::new(Arc::clone(&child), request.policy)?;
            session.set_strategy(self.level.strategy())?;
            session.set_cost_model(self.level.cost_model().clone())?;
            session.set_deduction_policy(request.deduction)?;
            let child_model = child.model();
            for (name, state) in self.board.iter() {
                if child_model.var(name).is_ok() {
                    session.observe(name, state)?;
                }
            }
            for name in self.board.failing() {
                if child_model.var(name).is_ok() {
                    session.mark_failing(name);
                }
            }
            let circuit = child_model.circuit_model();
            let mut actions: Vec<Action> = circuit
                .observables()
                .into_iter()
                .filter(|o| self.board.state_of(o).is_none())
                .map(Action::test)
                .collect();
            actions.extend(circuit.latents().into_iter().map(Action::probe));
            session.set_actions(actions)?;
            self.level = session;
            self.descended = true;
            let empty = SessionRequest {
                observation: Observation::new(),
                actions: Vec::new(),
                strategy: request.strategy,
                policy: request.policy,
                cost: request.cost.clone(),
                deduction: request.deduction,
                delta: true,
                timings: Vec::new(),
            };
            report = absorb_report(&mut self.level, &empty, tracer)?;
        }
        let flat = self.model.flat();
        for (name, state) in request.observation.iter() {
            if flat.var(name).is_ok() {
                self.board.set(name, state);
            }
        }
        for name in request.observation.failing() {
            if flat.var(name).is_ok() {
                self.board.mark_failing(name.clone());
            }
        }
        Ok(report)
    }
}

/// Propagates `observation` through the benchmark's own tree for
/// `compiled` (compiled on first use, untimed) inside a `bbn.propagate`
/// span.
fn propagate(
    trees: &mut Vec<(usize, JunctionTree, PropagationWorkspace)>,
    tracer: &mut Tracer,
    compiled: &CompiledModel,
    observation: &Observation,
) -> Result<(), Failure> {
    let key = compiled as *const CompiledModel as usize;
    let slot = match trees.iter().position(|(k, ..)| *k == key) {
        Some(slot) => slot,
        None => {
            let jt = JunctionTree::compile(compiled.model().network())
                .map_err(|e| Failure::Protocol(format!("tree compile: {e}")))?;
            let ws = jt.make_workspace();
            trees.push((key, jt, ws));
            trees.len() - 1
        }
    };
    let evidence = compiled
        .evidence_from(observation)
        .map_err(|e| Failure::Protocol(e.to_string()))?;
    let (_, jt, ws) = &mut trees[slot];
    let likelihood = tracer.span("bbn.propagate", || {
        jt.propagate_in(ws, &evidence)
            .map(|view| view.log_likelihood())
    });
    std::hint::black_box(likelihood.map_err(|e| Failure::Protocol(e.to_string()))?);
    Ok(())
}

fn core_failure(e: abbd_core::Error) -> Failure {
    Failure::Protocol(format!("replica: {e}"))
}

/// The traced transport: see the module docs.
pub struct Traced<'f> {
    workload: Workload,
    models: Models,
    fleet: &'f Fleet,
    /// Untraced stack: the tracing-overhead baseline.
    pub untraced: InProc,
    /// Traced stack: the composed round.
    pub traced: InProc,
    replicas: HashMap<String, Replica>,
    trees: Vec<(usize, JunctionTree, PropagationWorkspace)>,
    /// Per-round derived samples, keyed by metric name.
    pub derived: BTreeMap<&'static str, Vec<f64>>,
    /// Replies on which the untraced stack, the traced stack and
    /// replica B disagreed.
    pub mismatches: u64,
    /// Sessions closed, and how many of them had descended into a block.
    pub closed: u64,
    /// See [`Traced::closed`].
    pub descents: u64,
    /// Batch rows replayed, and distinct rows among them.
    pub rows: u64,
    /// See [`Traced::rows`].
    pub distinct_rows: u64,
    /// Requests replayed; the stacks take turns going first, so cache
    /// warmth favours neither side of the overhead comparison.
    requests: u64,
}

impl<'f> Traced<'f> {
    /// Fresh stacks over `models`.
    pub fn new(workload: Workload, models: Models, fleet: &'f Fleet) -> Self {
        Traced {
            workload,
            untraced: InProc::new(workload, models.clone(), false),
            traced: InProc::new(workload, models.clone(), true),
            models,
            fleet,
            replicas: HashMap::new(),
            trees: Vec::new(),
            derived: BTreeMap::new(),
            mismatches: 0,
            closed: 0,
            descents: 0,
            rows: 0,
            distinct_rows: 0,
            requests: 0,
        }
    }

    /// Runs one request on both stacks, alternating which goes first,
    /// and checks their replies agree. Returns the traced reply and the
    /// span index its request started at.
    fn both<T>(
        &mut self,
        mut call: impl FnMut(&mut InProc) -> Result<Reply<T>, Failure>,
    ) -> Result<(Reply<T>, usize), Failure> {
        self.requests += 1;
        let early = if self.requests.is_multiple_of(2) {
            Some(call(&mut self.untraced)?)
        } else {
            None
        };
        let mark = self.traced.tracer.spans().len();
        let reply = call(&mut self.traced)?;
        let baseline = match early {
            Some(baseline) => baseline,
            None => call(&mut self.untraced)?,
        };
        self.check(baseline.digest, reply.digest);
        Ok((reply, mark))
    }

    fn push(&mut self, name: &'static str, value: f64) {
        self.derived.entry(name).or_default().push(value);
    }

    fn check(&mut self, a: u64, b: u64) {
        if a != b {
            self.mismatches += 1;
        }
    }
}

impl Transport for Traced<'_> {
    fn open(&mut self, model: &str) -> Result<Reply<String>, Failure> {
        // Both stores open sessions in lockstep, so they assign the
        // same ids.
        let (reply, _) = self.both(|stack| stack.open(model))?;
        let replica = match (&self.models.board, &self.models.regulator) {
            (Some(board), _) => Replica::Hier {
                b: Box::new(LevelReplica::new(Arc::clone(board)).map_err(core_failure)?),
                c: Box::new(
                    HierarchicalSession::new(Arc::clone(board), StoppingPolicy::default())
                        .map_err(core_failure)?,
                ),
            },
            (None, Some(regulator)) => {
                let open =
                    || DiagnosisSession::new(Arc::clone(regulator), StoppingPolicy::default());
                Replica::Flat {
                    b: Box::new(open().map_err(core_failure)?),
                    c: Box::new(open().map_err(core_failure)?),
                }
            }
            (None, None) => return Err(Failure::Protocol("no model".into())),
        };
        self.replicas.insert(reply.value.clone(), replica);
        Ok(reply)
    }

    fn round(
        &mut self,
        id: &str,
        request: &SessionRequest,
    ) -> Result<Reply<SessionReport>, Failure> {
        let (reply, mark) = self.both(|stack| stack.round(id, request))?;
        let level = self.traced.last_level;
        let descended_now = level.block.is_some() && !level.was_descended;
        let tracer = &mut self.traced.tracer;
        let outer: f64 = [
            "session.serve_round",
            "hierarchy.root_round",
            "hierarchy.block_round",
        ]
        .iter()
        .map(|name| tracer.sum_us_since(mark, name))
        .sum();
        let replica = self
            .replicas
            .get_mut(id)
            .ok_or_else(|| Failure::Protocol(format!("no replica for {id}")))?;

        let b_mark = tracer.spans().len();
        let b_root = tracer.begin("replica.absorb_report");
        let b_report = match replica {
            Replica::Flat { b, .. } => absorb_report(b, request, tracer),
            Replica::Hier { b, .. } => {
                b.round(request, level.block.filter(|_| descended_now), tracer)
            }
        };
        tracer.end(b_root);
        let b_report = b_report.map_err(core_failure)?;
        let absorb = tracer.sum_us_since(b_mark, "session.absorb");
        let report = tracer.sum_us_since(b_mark, "session.report");

        let c_mark = tracer.spans().len();
        let c_root = tracer.begin("replica.kernels");
        let (compiled, observation) = match replica {
            Replica::Flat { c, .. } => {
                c.serve_round(request).map_err(core_failure)?;
                tracer
                    .span("session.diagnose", || c.diagnose())
                    .map_err(core_failure)?;
                tracer
                    .span("voi.rank", || c.rank_actions().map(<[_]>::len))
                    .map_err(core_failure)?;
                (Arc::clone(c.compiled()), c.observation().clone())
            }
            Replica::Hier { c, .. } => {
                c.serve_round(request).map_err(core_failure)?;
                tracer
                    .span("session.diagnose", || c.diagnose())
                    .map_err(core_failure)?;
                tracer
                    .span("voi.rank", || c.rank_actions().map(<[_]>::len))
                    .map_err(core_failure)?;
                let active = c.child_session().unwrap_or_else(|| c.root_session());
                (Arc::clone(active.compiled()), active.observation().clone())
            }
        };
        propagate(&mut self.trees, tracer, &compiled, &observation)?;
        tracer.end(c_root);
        let diagnose = tracer.sum_us_since(c_mark, "session.diagnose");
        let rank = tracer.sum_us_since(c_mark, "voi.rank");
        let propagate_us = tracer.sum_us_since(c_mark, "bbn.propagate");

        let binary = self.workload.binary();
        let replica_bytes = if binary {
            codec::to_frame(&b_report)
        } else {
            serde_json::to_string(&b_report)
                .expect("reports encode")
                .into_bytes()
        };
        self.check(digest(&replica_bytes), reply.digest);
        let hierarchical = self.models.board.is_some();
        self.push("session.absorb_us", absorb);
        self.push(
            if hierarchical {
                "hierarchy.self_us"
            } else {
                "session.round_self_us"
            },
            outer - absorb - report,
        );
        if !descended_now {
            // A descending round reports twice (root, then block); its
            // report time has no single diagnose/rank pair to split.
            self.push("session.report_self_us", report - diagnose - rank);
        }
        self.push("deduction.self_us", diagnose - propagate_us);
        let ranked = &reply.value.ranked;
        let hypotheticals: usize = ranked
            .iter()
            .map(|r| self.fleet.card(r.action.target()))
            .sum();
        self.push("voi.candidates_per_decision", ranked.len() as f64);
        self.push("voi.hypotheticals_per_decision", hypotheticals as f64);
        self.push(
            "deduction.suspects_per_round",
            reply.value.candidates.len() as f64,
        );
        Ok(reply)
    }

    fn close(&mut self, id: &str) -> Result<Reply<()>, Failure> {
        let (reply, _) = self.both(|stack| stack.close(id))?;
        self.closed += 1;
        if let Some(Replica::Hier { c, .. }) = self.replicas.remove(id) {
            self.descents += u64::from(c.descended_block().is_some());
        }
        Ok(reply)
    }

    fn batch(
        &mut self,
        model: &str,
        rows: &[Observation],
    ) -> Result<Reply<Vec<BatchEntry>>, Failure> {
        let (reply, mark) = self.both(|stack| stack.batch(model, rows))?;
        let compiled = Arc::clone(
            self.models
                .regulator
                .as_ref()
                .ok_or_else(|| Failure::Protocol("no regulator".into()))?,
        );
        let tracer = &mut self.traced.tracer;
        let row_us = durations_us(&tracer.spans()[mark..], "batch.row_diagnose");
        let wire_layers: f64 = ["http.parse", "codec.decode", "codec.encode", "http.write"]
            .iter()
            .map(|name| tracer.sum_us_since(mark, name))
            .sum();
        let (unique, slot_of_row) = group_rows(rows);
        let p_mark = tracer.spans().len();
        let root = tracer.begin("replica.kernels");
        for row in &unique {
            propagate(&mut self.trees, tracer, &compiled, row)?;
        }
        tracer.end(root);
        let propagations = durations_us(&tracer.spans()[p_mark..], "bbn.propagate");
        let sequential: f64 = slot_of_row.iter().map(|&slot| row_us[slot]).sum();
        self.rows += rows.len() as u64;
        self.distinct_rows += unique.len() as u64;
        for (row, propagation) in row_us.iter().zip(&propagations) {
            self.push("deduction.self_us", row - propagation);
        }
        self.push("batch.sequential_us", sequential);
        self.push("batch.wire_layers_us", wire_layers);
        for entry in &reply.value {
            let suspects = entry.ok.as_ref().map_or(0, |d| d.candidates.len());
            self.push("deduction.suspects_per_round", suspects as f64);
        }
        Ok(reply)
    }
}
