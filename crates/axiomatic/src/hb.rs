//! Happens-before construction: the five axioms of §2.2.
//!
//! Given a candidate execution, a must-not-reorder function `F`, a read-from
//! map and a coherence order, the axioms *force* a set of happens-before
//! edges:
//!
//! * **Program order** — `F(x, y)` and `x` po-before `y` ⟹ `x ⇒ y`;
//! * **Write-write** — same-location writes are ordered as the coherence
//!   order dictates;
//! * **Write-read** — a read is after the cross-thread write it reads from
//!   (reads from the *own* thread are exempt: early forwarding);
//! * **Read-write** — a read is before every same-location write coherence-
//!   after its source (reads of the initial value are before every
//!   same-location write);
//! * **Ignore local** — happens-before never contradicts program order
//!   within a thread.
//!
//! The execution is allowed for this `(rf, co)` choice iff no *forced*
//! ordering points backwards in program order (ignore-local) and the forced
//! edge set is acyclic. Note that ignore-local constrains only the directly
//! forced orderings (a local coherence edge, a from-read edge to an earlier
//! local write), **not** the transitive closure: in Figure 1's Test A the
//! chain `R Y=2 ⇒ R X ⇒ W X ⇒ fence ⇒ R Y=0 ⇒ W Y=2` transitively "orders"
//! a read before the local write it forwarded from, and the paper counts
//! the execution as allowed under TSO because the edge set is acyclic.

use std::fmt;

use mcm_core::{EventId, Execution, MemoryModel};

use crate::co::CoOrder;
use crate::graph::DenseGraph;
use crate::rf::{RfMap, RfSource};

/// Which axiom forced an edge (for witness output).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum EdgeKind {
    /// Program-order edge kept by `F`.
    ProgramOrder,
    /// Write-read edge (cross-thread read-from).
    ReadFrom,
    /// Write-write edge (coherence).
    Coherence,
    /// Read-write edge (from-read).
    FromRead,
}

impl fmt::Display for EdgeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EdgeKind::ProgramOrder => write!(f, "po"),
            EdgeKind::ReadFrom => write!(f, "rf"),
            EdgeKind::Coherence => write!(f, "co"),
            EdgeKind::FromRead => write!(f, "fr"),
        }
    }
}

/// The forced happens-before edges for one `(rf, co)` choice.
#[derive(Clone, Debug)]
pub struct HbEdges {
    /// Edge list with provenance labels.
    pub labeled: Vec<(EventId, EventId, EdgeKind)>,
    /// The same edges as a graph over event indices.
    pub graph: DenseGraph,
}

impl HbEdges {
    /// The ignore-local axiom over the directly forced orderings: no
    /// forced edge may point backwards in program order. Program-order
    /// edges always point forwards, so for [`base_edges`] (and for the
    /// full [`required_edges`] set alike) this is a property of the
    /// model-independent `(rf, co)` edges only — which is what lets the
    /// batched checker decide it once per candidate and share the answer
    /// across every model of a sweep row.
    #[must_use]
    pub fn respects_ignore_local(&self, exec: &Execution) -> bool {
        self.labeled.iter().all(|&(x, y, _)| !exec.po_earlier(y, x))
    }

    /// Whether a valid happens-before relation realises these edges: no
    /// directly forced ordering may contradict program order (ignore-local)
    /// and the edge set must be acyclic.
    #[must_use]
    pub fn admits_partial_order(&self, exec: &Execution) -> bool {
        self.respects_ignore_local(exec) && !self.graph.has_cycle()
    }

    /// Whether the union of these edges with the program-order pairs `po`
    /// is acyclic. The caller guarantees `po` pairs point forwards in
    /// program order (as [`forced_po_pairs`] produces them), so the
    /// ignore-local check needs no revisiting — this is the hot query of
    /// the batched explicit checker: one shared base edge set, one cheap
    /// graph union per model group.
    #[must_use]
    pub fn acyclic_with(&self, po: &[(EventId, EventId)]) -> bool {
        let mut graph = self.graph.clone();
        for &(x, y) in po {
            graph.add_edge(x.index(), y.index());
        }
        !graph.has_cycle()
    }
}

/// The same-thread pairs the model's must-not-reorder function forces
/// into program order — the **only** model-dependent ingredient of the
/// forced edge set. Pairs are emitted in thread-major program order, with
/// `x` always po-before `y`.
#[must_use]
pub fn forced_po_pairs(model: &MemoryModel, exec: &Execution) -> Vec<(EventId, EventId)> {
    let mut pairs = Vec::new();
    for t in 0..exec.num_threads() {
        let events = exec.thread_events(mcm_core::ThreadId(t as u8));
        for (i, &x) in events.iter().enumerate() {
            for &y in &events[i + 1..] {
                if model.must_not_reorder(exec, x, y) {
                    pairs.push((x, y));
                }
            }
        }
    }
    pairs
}

/// The model-independent edges forced by `(rf, co)` alone: write-read,
/// write-write (coherence) and read-write (from-read). Together with
/// [`forced_po_pairs`] this is the whole forced edge set — the batched
/// checker builds it once per candidate execution and reuses it for every
/// model of a row.
#[must_use]
pub fn base_edges(exec: &Execution, rf: &RfMap, co: &CoOrder) -> HbEdges {
    collect_edges(exec, rf, co, &[])
}

/// Builds the edges forced by the axioms for `(model, rf, co)`.
#[must_use]
pub fn required_edges(
    model: &MemoryModel,
    exec: &Execution,
    rf: &RfMap,
    co: &CoOrder,
) -> HbEdges {
    collect_edges(exec, rf, co, &forced_po_pairs(model, exec))
}

/// Shared edge collection: the program-order pairs first (labels take
/// precedence on duplicate edges), then the `(rf, co)` axioms. With `po`
/// = [`forced_po_pairs`] of a model this is exactly [`required_edges`],
/// which lets the batched checkers build a group's witness from the pairs
/// they already grouped by.
pub(crate) fn collect_edges(
    exec: &Execution,
    rf: &RfMap,
    co: &CoOrder,
    po: &[(EventId, EventId)],
) -> HbEdges {
    let n = exec.events().len();
    let mut graph = DenseGraph::new(n);
    let mut labeled = Vec::new();
    let mut add = |graph: &mut DenseGraph, from: EventId, to: EventId, kind: EdgeKind| {
        if !graph.has_edge(from.index(), to.index()) {
            graph.add_edge(from.index(), to.index());
            labeled.push((from, to, kind));
        }
    };

    // Program order: F-filtered, over *all* same-thread pairs.
    for &(x, y) in po {
        add(&mut graph, x, y, EdgeKind::ProgramOrder);
    }

    // Write-read: cross-thread read-from.
    for &(read, source) in &rf.pairs {
        if let RfSource::Write(write) = source {
            if !exec.same_thread(write, read) {
                add(&mut graph, write, read, EdgeKind::ReadFrom);
            }
        }
    }

    // Write-write: every coherence-ordered pair is a forced ordering (the
    // write-write axiom orders each same-location pair directly, so the
    // ignore-local check must see all of them, not just consecutive ones).
    for (_, writes) in &co.per_loc {
        for (i, &w1) in writes.iter().enumerate() {
            for &w2 in &writes[i + 1..] {
                add(&mut graph, w1, w2, EdgeKind::Coherence);
            }
        }
    }

    // Read-write (from-read).
    for &(read, source) in &rf.pairs {
        let loc = exec.event(read).loc().expect("read has a location");
        match source {
            RfSource::Init => {
                for w in exec.writes_to(loc) {
                    add(&mut graph, read, w.id, EdgeKind::FromRead);
                }
            }
            RfSource::Write(z) => {
                for w in exec.writes_to(loc) {
                    if w.id != z && co.before(z, w.id) {
                        add(&mut graph, read, w.id, EdgeKind::FromRead);
                    }
                }
            }
        }
    }

    HbEdges { labeled, graph }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::co::enumerate_co_orders;
    use crate::rf::enumerate_rf_maps;
    use mcm_core::{Formula, Loc, Outcome, Program, Reg, ThreadId, Value};

    fn sc() -> MemoryModel {
        MemoryModel::new("SC", Formula::always())
    }

    fn weakest() -> MemoryModel {
        MemoryModel::new("weakest", Formula::never())
    }

    /// Message passing: W X=1; W Y=1 || R Y=1; R X=0.
    fn mp() -> Execution {
        let program = Program::builder()
            .thread()
            .write(Loc::X, Value(1))
            .write(Loc::Y, Value(1))
            .thread()
            .read(Loc::Y, Reg(1))
            .read(Loc::X, Reg(2))
            .build()
            .unwrap();
        let outcome = Outcome::new()
            .constrain(ThreadId(1), Reg(1), Value(1))
            .constrain(ThreadId(1), Reg(2), Value(0));
        Execution::from_program(&program, &outcome).unwrap()
    }

    #[test]
    fn mp_is_forbidden_under_sc() {
        let exec = mp();
        let model = sc();
        for rf in enumerate_rf_maps(&exec) {
            for co in enumerate_co_orders(&exec) {
                let edges = required_edges(&model, &exec, &rf, &co);
                assert!(!edges.admits_partial_order(&exec));
            }
        }
    }

    #[test]
    fn mp_is_allowed_when_nothing_is_ordered() {
        let exec = mp();
        let model = weakest();
        let allowed = enumerate_rf_maps(&exec).iter().any(|rf| {
            enumerate_co_orders(&exec)
                .iter()
                .any(|co| required_edges(&model, &exec, rf, co).admits_partial_order(&exec))
        });
        assert!(allowed);
    }

    #[test]
    fn read_cannot_skip_program_earlier_local_write() {
        // W X=1; R X -> r1 = 0: forbidden even in the weakest model — the
        // from-read edge would point backwards in program order.
        let program = Program::builder()
            .thread()
            .write(Loc::X, Value(1))
            .read(Loc::X, Reg(1))
            .build()
            .unwrap();
        let outcome = Outcome::new().constrain(ThreadId(0), Reg(1), Value(0));
        let exec = Execution::from_program(&program, &outcome).unwrap();
        let model = weakest();
        for rf in enumerate_rf_maps(&exec) {
            for co in enumerate_co_orders(&exec) {
                let edges = required_edges(&model, &exec, &rf, &co);
                assert!(!edges.admits_partial_order(&exec));
            }
        }
    }

    #[test]
    fn forwarding_does_not_create_rf_edge() {
        // W X=1; R X -> r1 = 1: the local rf must not add an edge (that is
        // the whole point of write-read being cross-thread only).
        let program = Program::builder()
            .thread()
            .write(Loc::X, Value(1))
            .read(Loc::X, Reg(1))
            .build()
            .unwrap();
        let outcome = Outcome::new().constrain(ThreadId(0), Reg(1), Value(1));
        let exec = Execution::from_program(&program, &outcome).unwrap();
        let model = weakest();
        let rfs = enumerate_rf_maps(&exec);
        let cos = enumerate_co_orders(&exec);
        let edges = required_edges(&model, &exec, &rfs[0], &cos[0]);
        assert!(edges.labeled.iter().all(|(_, _, k)| *k != EdgeKind::ReadFrom));
        assert!(edges.admits_partial_order(&exec));
    }

    #[test]
    fn coherence_against_program_order_is_rejected() {
        // Two same-thread writes to X: the co order that inverts them is
        // rejected by ignore-local.
        let program = Program::builder()
            .thread()
            .write(Loc::X, Value(1))
            .write(Loc::X, Value(2))
            .build()
            .unwrap();
        let exec = Execution::from_program(&program, &Outcome::new()).unwrap();
        let model = weakest();
        let rf = &enumerate_rf_maps(&exec)[0];
        let orders = enumerate_co_orders(&exec);
        let verdicts: Vec<bool> = orders
            .iter()
            .map(|co| required_edges(&model, &exec, rf, co).admits_partial_order(&exec))
            .collect();
        assert_eq!(verdicts.iter().filter(|v| **v).count(), 1);
    }

    #[test]
    fn edge_labels_cover_all_kinds() {
        let exec = mp();
        let model = sc();
        let rf = &enumerate_rf_maps(&exec)[0];
        let co = &enumerate_co_orders(&exec)[0];
        let edges = required_edges(&model, &exec, rf, co);
        let kinds: Vec<EdgeKind> = edges.labeled.iter().map(|(_, _, k)| *k).collect();
        assert!(kinds.contains(&EdgeKind::ProgramOrder));
        assert!(kinds.contains(&EdgeKind::ReadFrom));
        assert!(kinds.contains(&EdgeKind::FromRead));
    }
}
