//! The symbolic test-skeleton encoding.
//!
//! One incremental [`Solver`] holds a bounded skeleton — `threads ×
//! max_accesses_per_thread` slots — whose every structural choice is a
//! SAT variable:
//!
//! * `len_ge[t][k]` — thread `t` has at least `k + 1` active slots.
//!   Shapes are selected per query with `solve_with_assumptions`, so the
//!   same solver (and its learnt clauses) serves every size of a bounded
//!   search;
//! * per slot: `is_write`, a one-hot location vector, an optional
//!   `fence_after`, an optional `dep` (data-dependency) flag;
//! * per slot, read-from selectors: `src_init` or `src_write[w]` — which
//!   write the slot observes if it is a read;
//! * [`OrderVars`] over the slots: the symbolic happens-before partial
//!   order of the candidate execution.
//!
//! The clauses conjoin three layers:
//!
//! 1. **well-formedness + symmetry breaking** — inactive slots are all
//!    zero; locations appear in global first-use order (the canonical
//!    renaming always produces this, so every symmetry orbit keeps at
//!    least one representative and most lose all but one);
//! 2. **the allower's axioms** — for every program-ordered slot pair, a
//!    Tseitin encoding of the model's must-not-reorder formula (over
//!    symbolic kind/address/dependency atoms) implies the order variable;
//!    plus coherence, fence and read-from axioms: one selector per
//!    candidate source of each read (the initial value or a
//!    same-address write), exactly one of them true; a cross-thread
//!    source happens before the read, and every other same-address
//!    write is ordered coherence-before the source or (ignore-local
//!    permitting) after the read;
//! 3. **blocking clauses** — each enumerated candidate is excluded under
//!    its own shape guard ([`Solver::block_model_with`]), leaving other
//!    shapes untouched.
//!
//! A satisfying assignment therefore *is* a litmus test the allower
//! admits, read off the structural variables as a
//! [`mcm_core::TestSkeleton`].

use mcm_axiomatic::OrderVars;
use mcm_core::{ArgPos, Atom, Formula, Slot, SlotRf, TestSkeleton};
use mcm_sat::{Lit, SatResult, Solver, Var};

use crate::SynthBounds;

/// The per-slot variable bundle.
struct SlotVars {
    /// Alias of the thread's `len_ge` variable for this position.
    active: Var,
    is_write: Var,
    /// Auxiliary: `active ∧ ¬is_write`.
    is_read: Var,
    /// One-hot location selector over this slot's domain.
    loc: Vec<Var>,
    /// Full fence between this access and the next (when fences are in
    /// bounds and a next slot exists).
    fence_after: Option<Var>,
    /// Data-dependency flag (when deps are in bounds and a preceding slot
    /// exists).
    dep: Option<Var>,
    src_init: Var,
    /// `(source slot, selector)` pairs.
    src_write: Vec<(usize, Var)>,
}

impl SlotVars {
    /// The variables that, together with the shape, determine the decoded
    /// *program* (not its outcome) — the blocking-clause footprint of the
    /// slot. Read-from selectors are deliberately excluded: the CEGIS
    /// loop generalises each counterexample to its whole structure and
    /// sweeps the structure's (small) outcome space through the oracle
    /// directly, so blocking the structure is both sound and an
    /// order-of-magnitude fewer SAT queries.
    fn structural(&self) -> Vec<Var> {
        let mut vars = vec![self.is_write];
        vars.extend(&self.loc);
        vars.extend(self.fence_after);
        vars.extend(self.dep);
        vars
    }
}

/// The incremental symbolic skeleton for one allower model.
pub(crate) struct Encoding {
    pub(crate) solver: Solver,
    bounds: SynthBounds,
    slots: Vec<SlotVars>,
    /// Slot → (thread, position) and the inverse.
    thread_of: Vec<usize>,
    pos_of: Vec<usize>,
    thread_slots: Vec<Vec<usize>>,
    len_ge: Vec<Vec<Var>>,
}

impl Encoding {
    /// Builds the full encoding for `allower`'s must-not-reorder formula.
    pub(crate) fn new(bounds: &SynthBounds, allower: &Formula) -> Encoding {
        let mut solver = Solver::new();
        let true_var = solver.new_var();
        solver.add_clause(&[true_var.positive()]);
        let true_lit = true_var.positive();
        let false_lit = true_var.negative();

        // Slot layout: thread-major global order, matching the canonical
        // first-use scan order of the streaming enumeration.
        let per_thread = bounds.max_accesses_per_thread;
        let mut thread_of = Vec::new();
        let mut pos_of = Vec::new();
        let mut thread_slots = Vec::new();
        for t in 0..bounds.threads {
            let mut ids = Vec::new();
            for p in 0..per_thread {
                ids.push(thread_of.len());
                thread_of.push(t);
                pos_of.push(p);
            }
            thread_slots.push(ids);
        }
        let n = thread_of.len();

        // Activation ladder: len_ge[t][k] ⇒ len_ge[t][k-1].
        let len_ge: Vec<Vec<Var>> = (0..bounds.threads)
            .map(|_| (0..per_thread).map(|_| solver.new_var()).collect())
            .collect();
        for ladder in &len_ge {
            for k in 1..ladder.len() {
                solver.add_clause(&[ladder[k].negative(), ladder[k - 1].positive()]);
            }
        }

        // Per-slot structural variables and local constraints.
        let mut slots: Vec<SlotVars> = Vec::with_capacity(n);
        for s in 0..n {
            let t = thread_of[s];
            let p = pos_of[s];
            let active = len_ge[t][p];
            let is_write = solver.new_var();
            let is_read = solver.new_var();
            // Locations: first-use order bounds slot s (global index) to
            // locations 0..=s, further capped by the bounds.
            let domain = usize::from(bounds.max_locs).min(s + 1);
            let loc: Vec<Var> = (0..domain).map(|_| solver.new_var()).collect();
            let fence_after = (bounds.include_fences && p + 1 < per_thread)
                .then(|| solver.new_var());
            let dep = (bounds.include_deps && p > 0).then(|| solver.new_var());
            let src_init = solver.new_var();

            // is_read ≡ active ∧ ¬is_write; is_write ⇒ active.
            solver.add_clause(&[is_write.negative(), active.positive()]);
            solver.add_clause(&[
                is_read.positive(),
                active.negative(),
                is_write.positive(),
            ]);
            solver.add_clause(&[is_read.negative(), active.positive()]);
            solver.add_clause(&[is_read.negative(), is_write.negative()]);

            // One-hot location iff active.
            let mut at_least: Vec<Lit> = vec![active.negative()];
            at_least.extend(loc.iter().map(|v| v.positive()));
            solver.add_clause(&at_least);
            for (a, &va) in loc.iter().enumerate() {
                solver.add_clause(&[va.negative(), active.positive()]);
                for &vb in &loc[a + 1..] {
                    solver.add_clause(&[va.negative(), vb.negative()]);
                }
            }

            if let Some(f) = fence_after {
                // A fence separates two accesses: the next slot must exist.
                solver.add_clause(&[f.negative(), len_ge[t][p + 1].positive()]);
            }
            if let Some(d) = dep {
                solver.add_clause(&[d.negative(), is_write.positive()]);
            }
            slots.push(SlotVars {
                active,
                is_write,
                is_read,
                loc,
                fence_after,
                dep,
                src_init,
                src_write: Vec::new(),
            });
        }

        // Dependency flags need a preceding read in the same thread.
        for s in 0..n {
            if let Some(d) = slots[s].dep {
                let mut clause = vec![d.negative()];
                for &e in &thread_slots[thread_of[s]] {
                    if e < s {
                        clause.push(slots[e].is_read.positive());
                    }
                }
                solver.add_clause(&clause);
            }
        }

        // First-use location ordering: slot s may name location l > 0 only
        // if some earlier slot (global order) names l - 1. Inactive slots
        // name nothing, so this ranges over active slots exactly.
        for s in 0..n {
            for l in 1..slots[s].loc.len() {
                let mut clause = vec![slots[s].loc[l].negative()];
                for earlier in &slots[..s] {
                    if l - 1 < earlier.loc.len() {
                        clause.push(earlier.loc[l - 1].positive());
                    }
                }
                solver.add_clause(&clause);
            }
        }

        // Pairwise same-address literals.
        let mut same_addr = vec![false_lit; n * n];
        for x in 0..n {
            for y in (x + 1)..n {
                let sa = solver.new_var();
                let (short, long) = if slots[x].loc.len() <= slots[y].loc.len() {
                    (x, y)
                } else {
                    (y, x)
                };
                for l in 0..slots[long].loc.len() {
                    if l < slots[short].loc.len() {
                        solver.add_clause(&[
                            slots[x].loc[l].negative(),
                            slots[y].loc[l].negative(),
                            sa.positive(),
                        ]);
                        solver.add_clause(&[
                            sa.negative(),
                            slots[long].loc[l].negative(),
                            slots[short].loc[l].positive(),
                        ]);
                    } else {
                        // No matching location on the short side.
                        solver.add_clause(&[sa.negative(), slots[long].loc[l].negative()]);
                    }
                }
                same_addr[x * n + y] = sa.positive();
                same_addr[y * n + x] = sa.positive();
            }
        }
        let sa = |x: usize, y: usize| same_addr[x * n + y];

        // Data-dependency edges: dep_edge(x, y) ⇔ y is a dependent write
        // and x is the latest read before it in the thread.
        let mut dep_edge = vec![false_lit; n * n];
        if bounds.include_deps {
            for ids in &thread_slots {
                for (a, &x) in ids.iter().enumerate() {
                    for &y in &ids[a + 1..] {
                        let Some(d) = slots[y].dep else { continue };
                        let de = solver.new_var();
                        let between: Vec<usize> =
                            ids[a + 1..].iter().copied().take_while(|&z| z < y).collect();
                        solver.add_clause(&[de.negative(), slots[x].is_read.positive()]);
                        solver.add_clause(&[de.negative(), d.positive()]);
                        let mut back = vec![
                            slots[x].is_read.negative(),
                            d.negative(),
                            de.positive(),
                        ];
                        for &z in &between {
                            solver.add_clause(&[de.negative(), slots[z].is_read.negative()]);
                            back.push(slots[z].is_read.positive());
                        }
                        solver.add_clause(&back);
                        dep_edge[x * n + y] = de.positive();
                    }
                }
            }
        }
        let de = |x: usize, y: usize| dep_edge[x * n + y];

        // The symbolic happens-before partial order.
        let order = OrderVars::new(&mut solver, n);
        order.add_partial_order_clauses(&mut solver);

        // Layer 2a: the allower's program-order axiom. For every
        // program-ordered slot pair, F(x, y) ⇒ o(x, y).
        for ids in &thread_slots {
            for (a, &x) in ids.iter().enumerate() {
                for &y in &ids[a + 1..] {
                    let f = encode_formula(
                        &mut solver,
                        allower,
                        &FormulaCtx {
                            slots: &slots,
                            sa: &sa,
                            de: &de,
                            true_lit,
                            false_lit,
                            x,
                            y,
                        },
                    );
                    solver.add_clause(&[
                        slots[y].active.negative(),
                        !f,
                        order.before(x, y),
                    ]);
                }
            }
        }

        // Layer 2b: fences order everything across them (exact for models
        // whose formulas force fence ordering — checked by the caller).
        for ids in &thread_slots {
            for (a, &x) in ids.iter().enumerate() {
                for &y in &ids[a + 1..] {
                    for &z in &ids[a..] {
                        if z >= y {
                            break;
                        }
                        if let Some(f) = slots[z].fence_after {
                            solver.add_clause(&[
                                slots[y].active.negative(),
                                f.negative(),
                                order.before(x, y),
                            ]);
                        }
                    }
                }
            }
        }

        // Layer 2c: coherence — same-location writes are totally ordered,
        // respecting program order within a thread.
        for x in 0..n {
            for y in (x + 1)..n {
                let base = [
                    slots[x].is_write.negative(),
                    slots[y].is_write.negative(),
                    !sa(x, y),
                ];
                if thread_of[x] == thread_of[y] {
                    let mut clause = base.to_vec();
                    clause.push(order.before(x, y));
                    solver.add_clause(&clause);
                } else {
                    let mut clause = base.to_vec();
                    clause.push(order.before(x, y));
                    clause.push(order.before(y, x));
                    solver.add_clause(&clause);
                }
            }
        }

        // Layer 2d: read-from selectors and the write-read / read-write
        // axioms, conditioned on the selectors.
        for r in 0..n {
            let candidates: Vec<usize> = (0..n)
                .filter(|&w| {
                    w != r
                        // A read cannot observe a program-later local write.
                        && !(thread_of[w] == thread_of[r] && pos_of[w] > pos_of[r])
                })
                .collect();
            let src_write: Vec<(usize, Var)> = candidates
                .iter()
                .map(|&w| (w, solver.new_var()))
                .collect();

            // Selector validity.
            let src_init = slots[r].src_init;
            solver.add_clause(&[src_init.negative(), slots[r].is_read.positive()]);
            for &(w, v) in &src_write {
                solver.add_clause(&[v.negative(), slots[r].is_read.positive()]);
                solver.add_clause(&[v.negative(), slots[w].is_write.positive()]);
                solver.add_clause(&[v.negative(), sa(r, w)]);
            }
            // Exactly one source per read.
            let mut at_least = vec![slots[r].is_read.negative(), src_init.positive()];
            at_least.extend(src_write.iter().map(|&(_, v)| v.positive()));
            solver.add_clause(&at_least);
            let all: Vec<Var> = std::iter::once(src_init)
                .chain(src_write.iter().map(|&(_, v)| v))
                .collect();
            for (a, &va) in all.iter().enumerate() {
                for &vb in &all[a + 1..] {
                    solver.add_clause(&[va.negative(), vb.negative()]);
                }
            }

            // Init source: the read precedes every same-location write; a
            // program-earlier local write rules the source out entirely
            // (ignore-local).
            for w in 0..n {
                if w == r {
                    continue;
                }
                let mut clause = vec![
                    src_init.negative(),
                    slots[w].is_write.negative(),
                    !sa(r, w),
                ];
                if !(thread_of[w] == thread_of[r] && pos_of[w] < pos_of[r]) {
                    clause.push(order.before(r, w));
                }
                solver.add_clause(&clause);
            }

            // Write source z: cross-thread sources happen before the read;
            // every other same-location write w is either coherence-before
            // z or (unless ignore-local forbids it) after the read.
            for &(z, v) in &src_write {
                if thread_of[z] != thread_of[r] {
                    solver.add_clause(&[v.negative(), order.before(z, r)]);
                }
                for w in 0..n {
                    if w == z || w == r {
                        continue;
                    }
                    let mut clause = vec![
                        v.negative(),
                        slots[w].is_write.negative(),
                        !sa(r, w),
                        order.before(w, z),
                    ];
                    if !(thread_of[w] == thread_of[r] && pos_of[w] < pos_of[r]) {
                        clause.push(order.before(r, w));
                    }
                    solver.add_clause(&clause);
                }
            }
            slots[r].src_write = src_write;
        }

        Encoding {
            solver,
            bounds: *bounds,
            slots,
            thread_of,
            pos_of,
            thread_slots,
            len_ge,
        }
    }

    /// The assumption literals selecting `shape` (accesses per thread).
    fn assumptions(&self, shape: &[usize]) -> Vec<Lit> {
        let mut lits = Vec::new();
        for (t, ladder) in self.len_ge.iter().enumerate() {
            let k = shape.get(t).copied().unwrap_or(0);
            for (i, &var) in ladder.iter().enumerate() {
                lits.push(var.lit(i < k));
            }
        }
        lits
    }

    /// Literals that make a blocking clause vacuous under any *other*
    /// shape: the negation of `shape`'s activation pattern boundary.
    fn shape_guard(&self, shape: &[usize]) -> Vec<Lit> {
        let mut lits = Vec::new();
        for (t, ladder) in self.len_ge.iter().enumerate() {
            let k = shape[t];
            lits.push(ladder[k - 1].negative());
            if k < ladder.len() {
                lits.push(ladder[k].positive());
            }
        }
        lits
    }

    /// Asks for the next candidate of `shape`: decodes the SAT model into
    /// a [`TestSkeleton`] and blocks it (under `shape`'s guard) so the
    /// following call yields a different candidate. `None` once the
    /// sub-space is exhausted.
    pub(crate) fn solve_shape(&mut self, shape: &[usize]) -> Option<TestSkeleton> {
        debug_assert_eq!(shape.len(), self.bounds.threads);
        let assumptions = self.assumptions(shape);
        if self.solver.solve_with_assumptions(&assumptions) != SatResult::Sat {
            return None;
        }
        let skeleton = self.decode(shape);
        let mut footprint = Vec::new();
        for (ids, &len) in self.thread_slots.iter().zip(shape) {
            for &s in &ids[..len] {
                footprint.extend(self.slots[s].structural());
            }
        }
        let guard = self.shape_guard(shape);
        self.solver.block_model_with(&footprint, &guard);
        Some(skeleton)
    }

    /// Reads the structural variables of the current model back into a
    /// concrete skeleton.
    fn decode(&self, shape: &[usize]) -> TestSkeleton {
        let value = |v: Var| self.solver.value(v).unwrap_or(false);
        let threads = (0..self.bounds.threads)
            .map(|t| {
                self.thread_slots[t][..shape[t]]
                    .iter()
                    .map(|&s| {
                        let vars = &self.slots[s];
                        let loc = vars
                            .loc
                            .iter()
                            .position(|&l| value(l))
                            .expect("active slots carry a location");
                        let rf = if value(vars.src_init) {
                            SlotRf::Init
                        } else {
                            vars.src_write
                                .iter()
                                .find(|&&(_, v)| value(v))
                                .map(|&(w, _)| {
                                    SlotRf::Write(self.thread_of[w], self.pos_of[w])
                                })
                                .unwrap_or(SlotRf::Init)
                        };
                        Slot {
                            is_write: value(vars.is_write),
                            loc: u8::try_from(loc).expect("location domains are tiny"),
                            fence_after: vars.fence_after.is_some_and(&value),
                            dep: vars.dep.is_some_and(&value),
                            rf,
                        }
                    })
                    .collect()
            })
            .collect();
        TestSkeleton { threads }
    }
}

/// Everything [`encode_formula`] needs to map atoms to literals.
struct FormulaCtx<'a> {
    slots: &'a [SlotVars],
    sa: &'a dyn Fn(usize, usize) -> Lit,
    de: &'a dyn Fn(usize, usize) -> Lit,
    true_lit: Lit,
    false_lit: Lit,
    x: usize,
    y: usize,
}

/// Tseitin-encodes `formula` evaluated on the slot pair `(x, y)`;
/// returns a literal equivalent to the formula's value.
fn encode_formula(solver: &mut Solver, formula: &Formula, ctx: &FormulaCtx<'_>) -> Lit {
    match formula {
        Formula::Const(true) => ctx.true_lit,
        Formula::Const(false) => ctx.false_lit,
        Formula::Atom(atom) => atom_lit(*atom, ctx),
        Formula::And(children) => {
            let lits: Vec<Lit> = children
                .iter()
                .map(|c| encode_formula(solver, c, ctx))
                .collect();
            let out = solver.new_var().positive();
            let mut back = vec![out];
            for &lit in &lits {
                solver.add_clause(&[!out, lit]);
                back.push(!lit);
            }
            solver.add_clause(&back);
            out
        }
        Formula::Or(children) => {
            let lits: Vec<Lit> = children
                .iter()
                .map(|c| encode_formula(solver, c, ctx))
                .collect();
            let out = solver.new_var().positive();
            let mut back = vec![!out];
            for &lit in &lits {
                solver.add_clause(&[!lit, out]);
                back.push(lit);
            }
            solver.add_clause(&back);
            out
        }
    }
}

fn atom_lit(atom: Atom, ctx: &FormulaCtx<'_>) -> Lit {
    let pick = |pos: ArgPos| match pos {
        ArgPos::First => ctx.x,
        ArgPos::Second => ctx.y,
    };
    match atom {
        Atom::IsRead(pos) => ctx.slots[pick(pos)].is_read.positive(),
        Atom::IsWrite(pos) => ctx.slots[pick(pos)].is_write.positive(),
        Atom::IsAccess(pos) => ctx.slots[pick(pos)].active.positive(),
        // Slots are always accesses: fence atoms never hold on them (the
        // fence rule handles fence ordering), and the skeleton space has
        // no branches or special fences.
        Atom::IsFence(_) | Atom::IsSpecialFence(..) | Atom::CtrlDep => ctx.false_lit,
        Atom::SameAddr => (ctx.sa)(ctx.x, ctx.y),
        Atom::DataDep => (ctx.de)(ctx.x, ctx.y),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count_candidates(bounds: &SynthBounds, formula: &Formula, shape: &[usize]) -> usize {
        let mut enc = Encoding::new(bounds, formula);
        let mut n = 0;
        while enc.solve_shape(shape).is_some() {
            n += 1;
            assert!(n < 100_000, "runaway enumeration");
        }
        n
    }

    fn tiny_bounds() -> SynthBounds {
        SynthBounds {
            max_accesses_per_thread: 2,
            threads: 2,
            max_locs: 2,
            include_fences: false,
            include_deps: false,
        }
    }

    #[test]
    fn every_candidate_decodes_to_a_valid_test() {
        let bounds = tiny_bounds();
        let mut enc = Encoding::new(&bounds, &Formula::never());
        let mut seen = 0;
        while let Some(skeleton) = enc.solve_shape(&[2, 1]) {
            let test = skeleton.decode(format!("cand-{seen}")).expect("decodable");
            assert_eq!(test.program().access_count(), 3);
            assert_eq!(test.program().threads.len(), 2);
            seen += 1;
            assert!(seen < 10_000);
        }
        assert!(seen > 0, "the sub-space must not be empty");
    }

    #[test]
    fn shapes_are_independent_under_blocking() {
        // Exhausting shape (1,1) must not remove candidates from (2,1).
        let bounds = tiny_bounds();
        let formula = Formula::never();
        let fresh = count_candidates(&bounds, &formula, &[2, 1]);
        let mut enc = Encoding::new(&bounds, &formula);
        while enc.solve_shape(&[1, 1]).is_some() {}
        let mut after = 0;
        while enc.solve_shape(&[2, 1]).is_some() {
            after += 1;
        }
        assert_eq!(after, fresh);
    }

    #[test]
    fn structure_enumeration_is_model_independent() {
        // Every structure admits its sequential execution, so the set of
        // structures with at least one allowed execution is the same for
        // every model in the class — the model constrains *which*
        // executions (outcomes) the structure admits, which the CEGIS
        // layer sweeps per structure.
        let bounds = tiny_bounds();
        let weakest = count_candidates(&bounds, &Formula::never(), &[2, 2]);
        let sc = count_candidates(&bounds, &Formula::always(), &[2, 2]);
        assert_eq!(sc, weakest);
        assert!(sc > 0);
    }

    #[test]
    fn exhaustion_is_stable() {
        let bounds = tiny_bounds();
        let mut enc = Encoding::new(&bounds, &Formula::always());
        while enc.solve_shape(&[1, 1]).is_some() {}
        assert!(enc.solve_shape(&[1, 1]).is_none(), "stays exhausted");
    }
}
