//! Shared CNF scaffolding for the SAT-based checkers.
//!
//! Both SAT checkers encode an auxiliary strict partial order `o(x, y)`
//! that must *contain* every forced happens-before edge; such an order
//! exists iff the forced edge set is acyclic, which is the paper's
//! admissibility condition. Clauses shared by both encodings:
//!
//! * antisymmetry — `¬o(x,y) ∨ ¬o(y,x)`;
//! * transitivity — `o(x,y) ∧ o(y,k) → o(x,k)`;
//! * program order — unit `o(x,y)` when `F(x,y)` and `x` po-before `y`;
//! * write-write — same-location write pairs are ordered: a *same-thread*
//!   pair is forced into program order (the write-write axiom orders the
//!   pair directly and ignore-local rules out the backward direction);
//!   cross-thread pairs get the free disjunction `o(x,y) ∨ o(y,x)`.
//!
//! The restriction of `o` to same-location writes doubles as the coherence
//! order, which is how the read-from axioms (added per checker) refer to
//! it. Ignore-local is *not* a blanket `¬o(y,x)` over program-ordered
//! pairs: only directly forced orderings must respect program order (see
//! `hb.rs` on Figure 1), and those cases are handled where the forcing
//! clause is emitted.

use mcm_core::{EventId, Execution, MemoryModel};
use mcm_sat::dimacs::Cnf;
use mcm_sat::{Lit, Solver, Var};

use crate::rf::RfSource;

/// Anything clauses can be emitted into: a live solver, or a [`Cnf`] for
/// DIMACS export. Exposed so other crates (the synthesis engine) can
/// reuse the ordering-variable scaffolding with either backend.
pub trait ClauseSink {
    /// Allocates a fresh variable.
    fn fresh_var(&mut self) -> Var;
    /// Adds a clause (a disjunction of literals).
    fn emit_clause(&mut self, lits: &[Lit]);
}

impl ClauseSink for Solver {
    fn fresh_var(&mut self) -> Var {
        self.new_var()
    }

    fn emit_clause(&mut self, lits: &[Lit]) {
        self.add_clause(lits);
    }
}

impl ClauseSink for Cnf {
    fn fresh_var(&mut self) -> Var {
        let var = Var::from_index(self.num_vars);
        self.num_vars += 1;
        var
    }

    fn emit_clause(&mut self, lits: &[Lit]) {
        self.clauses.push(lits.to_vec());
    }
}

/// The `o(x, y)` ordering-variable table over `n` events (or, in the
/// synthesis engine, `n` skeleton slots).
#[derive(Clone, Debug)]
pub struct OrderVars {
    n: usize,
    vars: Vec<Option<Var>>,
}

impl OrderVars {
    /// Allocates `n·(n-1)` ordering variables in `sink`.
    ///
    /// The caller typically follows with
    /// [`OrderVars::add_partial_order_clauses`].
    pub fn new<S: ClauseSink>(sink: &mut S, n: usize) -> Self {
        let mut vars = vec![None; n * n];
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    vars[i * n + j] = Some(sink.fresh_var());
                }
            }
        }
        OrderVars { n, vars }
    }

    /// The positive literal of `o(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if `i == j` (the relation is irreflexive by construction).
    pub fn before(&self, i: usize, j: usize) -> Lit {
        self.vars[i * self.n + j]
            .expect("o(i,i) does not exist")
            .positive()
    }

    /// Adds antisymmetry and transitivity clauses.
    pub fn add_partial_order_clauses<S: ClauseSink>(&self, solver: &mut S) {
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                solver.emit_clause(&[!self.before(i, j), !self.before(j, i)]);
            }
        }
        for i in 0..self.n {
            for j in 0..self.n {
                if j == i {
                    continue;
                }
                for k in 0..self.n {
                    if k == i || k == j {
                        continue;
                    }
                    solver.emit_clause(&[
                        !self.before(i, j),
                        !self.before(j, k),
                        self.before(i, k),
                    ]);
                }
            }
        }
    }

    /// Adds the model-dependent program-order units: a unit `o(x, y)`
    /// for every same-thread pair the must-not-reorder
    /// function forces. On a concrete execution every formula atom is a
    /// constant, so this *is* the model formula's (degenerate) Tseitin
    /// encoding over the pair — wrap the sink in a [`GuardedSink`] to emit
    /// it selected by an assumption literal instead of asserted outright.
    pub fn add_program_order_units<S: ClauseSink>(
        &self,
        solver: &mut S,
        model: &MemoryModel,
        exec: &Execution,
    ) {
        for t in 0..exec.num_threads() {
            let events = exec.thread_events(mcm_core::ThreadId(t as u8));
            for (a, &x) in events.iter().enumerate() {
                for &y in &events[a + 1..] {
                    if model.must_not_reorder(exec, x, y) {
                        solver.emit_clause(&[self.before(x.index(), y.index())]);
                    }
                }
            }
        }
    }

    /// Adds the model-independent write-write (coherence) constraints:
    /// same-location writes are totally ordered, respecting program order
    /// within a thread.
    pub fn add_coherence_clauses<S: ClauseSink>(&self, solver: &mut S, exec: &Execution) {
        let writes: Vec<_> = exec.writes().collect();
        for (a, w1) in writes.iter().enumerate() {
            for w2 in &writes[a + 1..] {
                if w1.loc() != w2.loc() {
                    continue;
                }
                let (i, j) = (w1.id.index(), w2.id.index());
                if exec.po_earlier(w1.id, w2.id) {
                    // Same thread: coherence must follow program order.
                    solver.emit_clause(&[self.before(i, j)]);
                } else if exec.po_earlier(w2.id, w1.id) {
                    solver.emit_clause(&[self.before(j, i)]);
                } else {
                    solver.emit_clause(&[self.before(i, j), self.before(j, i)]);
                }
            }
        }
    }

    /// Reads the coherence order out of a satisfying assignment: the writes
    /// of each location sorted by the `o` relation.
    pub fn extract_co(&self, solver: &Solver, exec: &Execution) -> crate::co::CoOrder {
        let mut locs: Vec<_> = exec.writes().filter_map(|w| w.loc()).collect();
        locs.sort();
        locs.dedup();
        let per_loc = locs
            .into_iter()
            .map(|loc| {
                let mut writes: Vec<_> = exec.writes_to(loc).map(|w| w.id).collect();
                writes.sort_by(|a, b| {
                    if a == b {
                        std::cmp::Ordering::Equal
                    } else if solver.lit_value_opt(self.before(a.index(), b.index()))
                        == Some(true)
                    {
                        std::cmp::Ordering::Less
                    } else {
                        std::cmp::Ordering::Greater
                    }
                });
                (loc, writes)
            })
            .collect();
        crate::co::CoOrder { per_loc }
    }
}

/// A [`ClauseSink`] adapter that guards every emitted clause with an
/// activation literal: `emit_clause(C)` becomes `¬g ∨ C`.
///
/// Guarded clauses are inert until the guard is assumed true in a
/// [`Solver::solve_with_assumptions`] call — the same selection trick
/// `mcm-synth`'s activation ladders use to serve every test shape from one
/// incremental solver. The batched SAT checker uses it to load each
/// model's must-not-reorder units into one shared per-test encoding and
/// select one model per query, keeping learnt clauses across the row.
pub struct GuardedSink<'a, S: ClauseSink> {
    inner: &'a mut S,
    guard: Lit,
}

impl<'a, S: ClauseSink> GuardedSink<'a, S> {
    /// Wraps `inner` so every clause is conditioned on `guard`.
    pub fn new(inner: &'a mut S, guard: Lit) -> Self {
        GuardedSink { inner, guard }
    }
}

impl<S: ClauseSink> ClauseSink for GuardedSink<'_, S> {
    fn fresh_var(&mut self) -> Var {
        self.inner.fresh_var()
    }

    fn emit_clause(&mut self, lits: &[Lit]) {
        let mut clause = Vec::with_capacity(lits.len() + 1);
        clause.push(!self.guard);
        clause.extend_from_slice(lits);
        self.inner.emit_clause(&clause);
    }
}

/// Allocates read-from selector variables and emits the write-read /
/// read-write axioms conditioned on them — the model-independent read-from
/// layer of [`crate::BatchSatChecker`]. Returns one selector literal per
/// candidate source, parallel to `candidates`:
///
/// * exactly one selector per read is true;
/// * selecting the initial value puts the read before every same-location
///   write (a program-earlier local write rules the selector out outright:
///   ignore-local);
/// * selecting a write `z` orders `z` before the read when cross-thread,
///   and every other same-location write either coherence-before `z` or
///   (unless ignore-local forbids it) after the read.
pub fn add_rf_selector_clauses<S: ClauseSink>(
    sink: &mut S,
    exec: &Execution,
    order: &OrderVars,
    candidates: &[(EventId, Vec<RfSource>)],
) -> Vec<Vec<Lit>> {
    let selectors: Vec<Vec<Lit>> = candidates
        .iter()
        .map(|(_, sources)| {
            sources
                .iter()
                .map(|_| sink.fresh_var().positive())
                .collect()
        })
        .collect();

    for ((read, sources), sel) in candidates.iter().zip(&selectors) {
        // Exactly one source per read.
        sink.emit_clause(sel);
        for a in 0..sel.len() {
            for b in (a + 1)..sel.len() {
                sink.emit_clause(&[!sel[a], !sel[b]]);
            }
        }
        let loc = exec.event(*read).loc().expect("read has a location");
        for (&lit, &source) in sel.iter().zip(sources.iter()) {
            match source {
                RfSource::Init => {
                    // Selecting init puts the read before every
                    // same-location write; if one of them is a
                    // program-earlier local write that forced ordering
                    // would violate ignore-local, so the selector is
                    // unusable.
                    for w in exec.writes_to(loc) {
                        if exec.po_earlier(w.id, *read) {
                            sink.emit_clause(&[!lit]);
                        } else {
                            sink.emit_clause(&[
                                !lit,
                                order.before(read.index(), w.id.index()),
                            ]);
                        }
                    }
                }
                RfSource::Write(z) => {
                    if !exec.same_thread(z, *read) {
                        sink.emit_clause(&[!lit, order.before(z.index(), read.index())]);
                    }
                    for w in exec.writes_to(loc) {
                        if w.id == z {
                            continue;
                        }
                        let coherence_before = order.before(w.id.index(), z.index());
                        if exec.po_earlier(w.id, *read) {
                            // The from-read branch would point backwards
                            // in program order: coherence must resolve it.
                            sink.emit_clause(&[!lit, coherence_before]);
                        } else {
                            sink.emit_clause(&[
                                !lit,
                                coherence_before,
                                order.before(read.index(), w.id.index()),
                            ]);
                        }
                    }
                }
            }
        }
    }
    selectors
}

/// Reads the read-from map out of a satisfying assignment: for each read,
/// the source whose selector literal (as allocated by
/// [`add_rf_selector_clauses`]) is true.
///
/// # Panics
///
/// Panics if no selector of some read is true — the exactly-one clauses
/// make that impossible in a satisfying assignment.
#[must_use]
pub fn extract_rf(
    solver: &Solver,
    candidates: &[(EventId, Vec<RfSource>)],
    selectors: &[Vec<Lit>],
) -> crate::rf::RfMap {
    let pairs = candidates
        .iter()
        .zip(selectors)
        .map(|((read, sources), sel)| {
            let chosen = sel
                .iter()
                .position(|&lit| solver.lit_value_opt(lit) == Some(true))
                .expect("exactly-one selector is true");
            (*read, sources[chosen])
        })
        .collect();
    crate::rf::RfMap { pairs }
}
