//! Shared CNF scaffolding for the SAT encodings of the axioms.
//!
//! The per-rf SAT checker and the synthesis engine encode an auxiliary
//! strict partial order `o(x, y)` that must *contain* every forced
//! happens-before edge; such an order exists iff the forced edge set is
//! acyclic, which is the paper's admissibility condition. Clauses shared
//! by both encodings:
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
//! order, which is how the read-from axioms (added per encoding) refer to
//! it. Ignore-local is *not* a blanket `¬o(y,x)` over program-ordered
//! pairs: only directly forced orderings must respect program order (see
//! `hb.rs` on Figure 1), and those cases are handled where the forcing
//! clause is emitted.

use mcm_core::{Execution, MemoryModel};
use mcm_sat::dimacs::Cnf;
use mcm_sat::{Lit, Solver, Var};

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
    /// encoding over the pair.
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
