//! A conflict-driven clause-learning (CDCL) SAT solver.
//!
//! This is the workspace's substitute for MiniSat (paper §4.1): two-literal
//! watching for unit propagation, VSIDS decision heuristic with phase saving,
//! first-UIP conflict analysis with non-chronological backjumping, Luby
//! restarts and activity-based deletion of learnt clauses.

use crate::heap::VarHeap;
use crate::lit::{LBool, Lit, Var};

/// Result of a satisfiability query.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SatResult {
    /// A satisfying assignment was found; read it via [`Solver::value`] or
    /// [`Solver::model`].
    Sat,
    /// The clause set (under the given assumptions, if any) is unsatisfiable.
    Unsat,
}

impl SatResult {
    /// Whether the query was satisfiable.
    #[must_use]
    pub fn is_sat(self) -> bool {
        matches!(self, SatResult::Sat)
    }
}

/// Counters describing the work a [`Solver`] has performed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of decision literals picked.
    pub decisions: u64,
    /// Number of literals propagated.
    pub propagations: u64,
    /// Number of conflicts analysed.
    pub conflicts: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learnt clauses currently retained.
    pub learnt_clauses: u64,
}

impl SolverStats {
    /// Adds `other`'s counters into `self` — used to total the work of
    /// many solver instances (one per query, or one per worker thread).
    /// `learnt_clauses` is a gauge, not a counter; the sum reports the
    /// retained clauses across all absorbed solvers.
    pub fn absorb(&mut self, other: SolverStats) {
        self.decisions += other.decisions;
        self.propagations += other.propagations;
        self.conflicts += other.conflicts;
        self.restarts += other.restarts;
        self.learnt_clauses += other.learnt_clauses;
    }

    /// The counters as stable `(name, value)` pairs — the structured view
    /// serializable reports render from, so field names live in one place.
    #[must_use]
    pub fn counters(&self) -> [(&'static str, u64); 5] {
        [
            ("decisions", self.decisions),
            ("propagations", self.propagations),
            ("conflicts", self.conflicts),
            ("restarts", self.restarts),
            ("learnt_clauses", self.learnt_clauses),
        ]
    }

    /// The inverse of [`SolverStats::counters`]' values: reads the five
    /// counters from `next` in that order, `None` when one is missing.
    /// Checkpoints decode a nested solver group with it.
    pub fn from_values(next: &mut dyn FnMut() -> Option<u64>) -> Option<SolverStats> {
        Some(SolverStats {
            decisions: next()?,
            propagations: next()?,
            conflicts: next()?,
            restarts: next()?,
            learnt_clauses: next()?,
        })
    }
}

#[derive(Clone, Debug)]
struct Clause {
    lits: Vec<Lit>,
    learnt: bool,
    activity: f64,
    deleted: bool,
}

type ClauseRef = usize;

#[derive(Clone, Copy, Debug)]
struct Watch {
    clause: ClauseRef,
    /// The *other* watched literal, used as a quick satisfiability probe.
    blocker: Lit,
}

/// A CDCL SAT solver over clauses of [`Lit`]s.
///
/// # Examples
///
/// ```
/// use mcm_sat::{Solver, SatResult};
///
/// let mut solver = Solver::new();
/// let a = solver.new_var();
/// let b = solver.new_var();
/// solver.add_clause(&[a.positive(), b.positive()]);
/// solver.add_clause(&[a.negative()]);
/// assert_eq!(solver.solve(), SatResult::Sat);
/// assert_eq!(solver.value(b), Some(true));
/// ```
#[derive(Clone, Debug, Default)]
pub struct Solver {
    clauses: Vec<Clause>,
    /// Watch lists indexed by `Lit::code()`: clauses that watch the literal's
    /// *negation* (i.e. must be inspected when that literal becomes false).
    watches: Vec<Vec<Watch>>,
    assign: Vec<LBool>,
    /// Decision level at which each variable was assigned.
    level: Vec<u32>,
    /// Clause that implied each variable, if propagated.
    reason: Vec<Option<ClauseRef>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    order: VarHeap,
    saved_phase: Vec<bool>,
    /// Set when an empty clause is added or a top-level conflict is found.
    unsat: bool,
    cla_inc: f64,
    num_learnt: usize,
    stats: SolverStats,
    seen: Vec<bool>,
    /// Assumption literals for the current `solve_with_assumptions` call.
    assumptions: Vec<Lit>,
}

const VAR_DECAY: f64 = 1.0 / 0.95;
const CLAUSE_DECAY: f64 = 1.0 / 0.999;
const RESCALE_THRESHOLD: f64 = 1e100;
const LUBY_UNIT: u64 = 128;

impl Solver {
    /// Creates an empty solver with no variables and no clauses.
    #[must_use]
    pub fn new() -> Self {
        Solver {
            var_inc: 1.0,
            cla_inc: 1.0,
            ..Solver::default()
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(u32::try_from(self.assign.len()).expect("too many variables"));
        self.assign.push(LBool::Undef);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.saved_phase.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.grow();
        self.order.insert(v, &self.activity);
        v
    }

    /// Number of variables allocated so far.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Number of clauses currently stored (problem + learnt, minus deleted).
    #[must_use]
    pub fn num_clauses(&self) -> usize {
        self.clauses.iter().filter(|c| !c.deleted).count()
    }

    /// Work counters.
    #[must_use]
    pub fn stats(&self) -> SolverStats {
        let mut stats = self.stats;
        stats.learnt_clauses = self.num_learnt as u64;
        stats
    }

    /// Adds a clause (a disjunction of literals).
    ///
    /// Returns `false` if the solver is already known to be unsatisfiable at
    /// the top level after this clause (e.g. the clause is empty, or it
    /// contradicts earlier unit clauses); the solver remains usable and
    /// [`Solver::solve`] will report [`SatResult::Unsat`].
    ///
    /// Tautological clauses (containing `x` and `!x`) are silently dropped;
    /// duplicate literals are merged.
    ///
    /// # Panics
    ///
    /// Panics if any literal mentions a variable not allocated via
    /// [`Solver::new_var`].
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        assert_eq!(
            self.decision_level(),
            0,
            "clauses may only be added at the top level"
        );
        if self.unsat {
            return false;
        }
        for lit in lits {
            assert!(
                lit.var().index() < self.num_vars(),
                "literal {lit} uses an unallocated variable"
            );
        }
        let mut simplified: Vec<Lit> = Vec::with_capacity(lits.len());
        let mut sorted: Vec<Lit> = lits.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        for (i, &lit) in sorted.iter().enumerate() {
            if i + 1 < sorted.len() && sorted[i + 1] == !lit {
                return true; // tautology: x and !x both present
            }
            match self.lit_value(lit) {
                LBool::True => return true, // already satisfied at top level
                LBool::False => {}          // drop falsified literal
                LBool::Undef => simplified.push(lit),
            }
        }
        match simplified.len() {
            0 => {
                self.unsat = true;
                false
            }
            1 => {
                self.enqueue(simplified[0], None);
                if self.propagate().is_some() {
                    self.unsat = true;
                    false
                } else {
                    true
                }
            }
            _ => {
                // Simplification sorted the literals, which would make
                // every clause watch its two smallest-coded literals;
                // problem sets with many overlapping clauses (blocking
                // clauses especially) would then funnel all watches onto
                // the same variables and propagation would degrade to a
                // linear scan of one giant watch list. Rotating by a
                // per-clause offset spreads the watches evenly. (Any two
                // distinct literals are valid initial watches.)
                let offset = self.clauses.len() % simplified.len();
                simplified.rotate_left(offset);
                self.attach_clause(simplified, false);
                true
            }
        }
    }

    /// Solves the current clause set.
    pub fn solve(&mut self) -> SatResult {
        self.solve_with_assumptions(&[])
    }

    /// Solves under the given assumption literals.
    ///
    /// Assumptions act like temporary unit clauses: they hold for this call
    /// only, which makes incremental queries ("is this test admissible if I
    /// force these orderings?") cheap.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SatResult {
        if self.unsat {
            return SatResult::Unsat;
        }
        // Clear any assignment left over from a previous (Sat) call.
        self.cancel_until(0);
        self.assumptions = assumptions.to_vec();
        let result = self.search();
        // Leave the model intact on Sat but pop all decision levels so the
        // solver can be reused; values are snapshotted by `model` callers
        // before further mutation.
        if result == SatResult::Unsat {
            self.cancel_until(0);
        }
        self.assumptions.clear();
        result
    }

    /// Adds a blocking clause forbidding the most recent satisfying
    /// assignment, restricted to `vars`.
    ///
    /// The clause is the disjunction of the negated model values of `vars`
    /// (variables left unassigned by the model count as `false`, matching
    /// [`Solver::model`]). Typical use is model enumeration: solve, read
    /// the model, block it, solve again.
    ///
    /// Returns `false` when the solver becomes unsatisfiable at the top
    /// level as a result (e.g. blocking the only model of a single
    /// variable).
    ///
    /// # Panics
    ///
    /// Panics if `vars` is empty or mentions an unallocated variable.
    pub fn block_model(&mut self, vars: &[Var]) -> bool {
        self.block_model_with(vars, &[])
    }

    /// [`Solver::block_model`] with extra guard literals appended to the
    /// blocking clause.
    ///
    /// Guards make the clause conditional: pass (the negations of) a set
    /// of activation literals and the model is only excluded while those
    /// activations hold — the idiom used by the synthesis engine to block
    /// a candidate under one size-indexed slot configuration without
    /// affecting others.
    ///
    /// # Panics
    ///
    /// Panics if `vars` is empty or any literal mentions an unallocated
    /// variable.
    pub fn block_model_with(&mut self, vars: &[Var], guard: &[Lit]) -> bool {
        assert!(!vars.is_empty(), "blocking an empty model is ill-defined");
        let mut clause: Vec<Lit> = vars
            .iter()
            .map(|&v| v.lit(!self.value(v).unwrap_or(false)))
            .collect();
        clause.extend_from_slice(guard);
        // A model leaves the trail at a positive decision level; clauses
        // may only be added at the top, so retract the assignment first
        // (callers snapshot the model before blocking it).
        self.cancel_until(0);
        self.add_clause(&clause)
    }

    /// The value of `var` in the most recent satisfying assignment.
    ///
    /// Returns `None` before a successful [`Solver::solve`] call, after the
    /// solver state has been mutated, or for unassigned variables.
    #[must_use]
    pub fn value(&self, var: Var) -> Option<bool> {
        self.assign[var.index()].to_option()
    }

    /// The value of `lit` in the most recent satisfying assignment.
    #[must_use]
    pub fn lit_value_opt(&self, lit: Lit) -> Option<bool> {
        self.value(lit.var()).map(|v| lit.apply(v))
    }

    /// Snapshot of the full model after [`SatResult::Sat`].
    ///
    /// Unassigned variables (possible when they occur in no clause) default
    /// to `false`.
    #[must_use]
    pub fn model(&self) -> Vec<bool> {
        self.assign
            .iter()
            .map(|v| v.to_option().unwrap_or(false))
            .collect()
    }

    fn search(&mut self) -> SatResult {
        let mut restarts = 0u64;
        loop {
            let budget = luby(restarts) * LUBY_UNIT;
            match self.search_until(budget) {
                Some(result) => return result,
                None => {
                    restarts += 1;
                    self.stats.restarts += 1;
                    self.cancel_until(0);
                }
            }
        }
    }

    /// Runs CDCL until a result, or `None` after `conflict_budget` conflicts.
    fn search_until(&mut self, conflict_budget: u64) -> Option<SatResult> {
        let mut conflicts = 0u64;
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts += 1;
                if self.decision_level() == 0 {
                    self.unsat = true;
                    return Some(SatResult::Unsat);
                }
                let (learnt, backtrack_level) = self.analyze(confl);
                self.cancel_until(backtrack_level);
                self.record_learnt(learnt);
                self.decay_activities();
            } else {
                if conflicts >= conflict_budget {
                    return None;
                }
                if self.num_learnt > 2 * self.clauses.len().max(100) {
                    self.reduce_learnt();
                }
                // Extend with assumptions first, then decide.
                match self.pick_branch() {
                    BranchOutcome::Done => return Some(SatResult::Sat),
                    BranchOutcome::AssumptionConflict => return Some(SatResult::Unsat),
                    BranchOutcome::Decided => {}
                }
            }
        }
    }

    fn pick_branch(&mut self) -> BranchOutcome {
        // Honour pending assumptions before free decisions.
        while self.decision_level() < self.assumptions.len() {
            let lit = self.assumptions[self.decision_level()];
            match self.lit_value(lit) {
                LBool::True => {
                    // Already implied; open a dummy level so indices line up.
                    self.trail_lim.push(self.trail.len());
                }
                LBool::False => return BranchOutcome::AssumptionConflict,
                LBool::Undef => {
                    self.trail_lim.push(self.trail.len());
                    self.enqueue(lit, None);
                    return BranchOutcome::Decided;
                }
            }
        }
        loop {
            match self.order.pop(&self.activity) {
                None => return BranchOutcome::Done,
                Some(var) => {
                    if self.assign[var.index()] == LBool::Undef {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let lit = var.lit(self.saved_phase[var.index()]);
                        self.enqueue(lit, None);
                        return BranchOutcome::Decided;
                    }
                }
            }
        }
    }

    fn decision_level(&self) -> usize {
        self.trail_lim.len()
    }

    fn lit_value(&self, lit: Lit) -> LBool {
        match self.assign[lit.var().index()] {
            LBool::Undef => LBool::Undef,
            LBool::True => LBool::from_bool(lit.is_positive()),
            LBool::False => LBool::from_bool(!lit.is_positive()),
        }
    }

    fn enqueue(&mut self, lit: Lit, reason: Option<ClauseRef>) {
        debug_assert_eq!(self.lit_value(lit), LBool::Undef);
        let idx = lit.var().index();
        self.assign[idx] = LBool::from_bool(lit.is_positive());
        self.level[idx] = self.decision_level() as u32;
        self.reason[idx] = reason;
        self.saved_phase[idx] = lit.is_positive();
        self.trail.push(lit);
    }

    /// Unit propagation; returns a conflicting clause if one arises.
    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let lit = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            // `lit` just became true, so `!lit` became false; visit every
            // clause watching `!lit`. Watches for a literal `w` are stored at
            // index `(!w).code()`, so that list is `watches[lit.code()]`.
            let false_lit = !lit;
            let mut watches = std::mem::take(&mut self.watches[lit.code()]);
            let mut i = 0;
            let mut conflict = None;
            while i < watches.len() {
                let watch = watches[i];
                if self.lit_value(watch.blocker) == LBool::True {
                    i += 1;
                    continue;
                }
                let cref = watch.clause;
                if self.clauses[cref].deleted {
                    watches.swap_remove(i);
                    continue;
                }
                // Normalise so lits[1] is the falsified watched literal.
                {
                    let clause = &mut self.clauses[cref];
                    if clause.lits[0] == false_lit {
                        clause.lits.swap(0, 1);
                    }
                }
                let first = self.clauses[cref].lits[0];
                if first != watch.blocker && self.lit_value(first) == LBool::True {
                    watches[i].blocker = first;
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch in place of `false_lit`.
                // A replacement candidate is never `false_lit` itself (it is
                // false), so these pushes never touch the list taken above.
                let mut moved = false;
                for k in 2..self.clauses[cref].lits.len() {
                    let candidate = self.clauses[cref].lits[k];
                    if self.lit_value(candidate) != LBool::False {
                        self.clauses[cref].lits.swap(1, k);
                        self.watches[(!candidate).code()].push(Watch {
                            clause: cref,
                            blocker: first,
                        });
                        watches.swap_remove(i);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                // Clause is unit or conflicting.
                if self.lit_value(first) == LBool::False {
                    conflict = Some(cref);
                    self.qhead = self.trail.len();
                    break;
                }
                self.enqueue(first, Some(cref));
                i += 1;
            }
            debug_assert!(self.watches[lit.code()].is_empty());
            self.watches[lit.code()] = watches;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first) and the level to backtrack to.
    fn analyze(&mut self, confl: ClauseRef) -> (Vec<Lit>, usize) {
        let mut learnt: Vec<Lit> = Vec::new();
        let mut counter = 0usize;
        let mut cref = confl;
        let mut trail_idx = self.trail.len();
        // The literal currently being resolved on (`None` only for the
        // initial conflict clause, where every literal is inspected).
        let mut resolved: Option<Lit> = None;
        let current = self.decision_level() as u32;
        loop {
            self.bump_clause(cref);
            let lits: Vec<Lit> = self.clauses[cref].lits.clone();
            for &q in &lits {
                if resolved == Some(q) {
                    continue;
                }
                let v = q.var().index();
                if self.seen[v] || self.level[v] == 0 {
                    continue;
                }
                self.seen[v] = true;
                self.bump_var(q.var());
                if self.level[v] == current {
                    counter += 1;
                } else {
                    learnt.push(q);
                }
            }
            // Walk the trail backwards to the next marked literal.
            loop {
                trail_idx -= 1;
                if self.seen[self.trail[trail_idx].var().index()] {
                    break;
                }
            }
            let p = self.trail[trail_idx];
            self.seen[p.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                resolved = Some(p);
                break;
            }
            cref = self.reason[p.var().index()].expect("non-decision literal has a reason");
            resolved = Some(p);
        }
        let asserting = !resolved.expect("conflict analysis found a UIP");
        // Clause minimisation: drop literals implied by the rest of the clause.
        let minimized = self.minimize_learnt(&learnt);
        for &lit in &learnt {
            self.seen[lit.var().index()] = false;
        }
        let mut clause = Vec::with_capacity(minimized.len() + 1);
        clause.push(asserting);
        clause.extend(minimized);
        let backtrack = clause[1..]
            .iter()
            .map(|l| self.level[l.var().index()] as usize)
            .max()
            .unwrap_or(0);
        // Move a literal of the backtrack level into position 1 so the watch
        // invariant (positions 0 and 1 are the last to be falsified) holds.
        if clause.len() > 2 {
            let max_idx = clause[1..]
                .iter()
                .enumerate()
                .max_by_key(|(_, l)| self.level[l.var().index()])
                .map(|(i, _)| i + 1)
                .expect("non-unit learnt clause");
            clause.swap(1, max_idx);
        }
        (clause, backtrack)
    }

    /// Local clause minimisation: a literal can be removed if its reason
    /// clause's literals are all already in the learnt clause (or level 0).
    fn minimize_learnt(&self, learnt: &[Lit]) -> Vec<Lit> {
        let in_clause: Vec<usize> = learnt.iter().map(|l| l.var().index()).collect();
        learnt
            .iter()
            .copied()
            .filter(|&lit| {
                let v = lit.var().index();
                match self.reason[v] {
                    None => true, // decision: keep
                    Some(cref) => !self.clauses[cref].lits.iter().all(|&q| {
                        q == !lit
                            || self.level[q.var().index()] == 0
                            || in_clause.contains(&q.var().index())
                    }),
                }
            })
            .collect()
    }

    fn record_learnt(&mut self, clause: Vec<Lit>) {
        debug_assert!(!clause.is_empty());
        if clause.len() == 1 {
            self.enqueue(clause[0], None);
            return;
        }
        let asserting = clause[0];
        let cref = self.attach_clause(clause, true);
        self.enqueue(asserting, Some(cref));
    }

    fn attach_clause(&mut self, lits: Vec<Lit>, learnt: bool) -> ClauseRef {
        debug_assert!(lits.len() >= 2);
        let cref = self.clauses.len();
        self.watches[(!lits[0]).code()].push(Watch {
            clause: cref,
            blocker: lits[1],
        });
        self.watches[(!lits[1]).code()].push(Watch {
            clause: cref,
            blocker: lits[0],
        });
        if learnt {
            self.num_learnt += 1;
        }
        self.clauses.push(Clause {
            lits,
            learnt,
            activity: self.cla_inc,
            deleted: false,
        });
        cref
    }

    fn cancel_until(&mut self, level: usize) {
        if self.decision_level() <= level {
            return;
        }
        let bound = self.trail_lim[level];
        for i in (bound..self.trail.len()).rev() {
            let lit = self.trail[i];
            let v = lit.var();
            self.assign[v.index()] = LBool::Undef;
            self.reason[v.index()] = None;
            self.order.insert(v, &self.activity);
        }
        self.trail.truncate(bound);
        self.trail_lim.truncate(level);
        self.qhead = bound;
    }

    fn bump_var(&mut self, var: Var) {
        self.activity[var.index()] += self.var_inc;
        if self.activity[var.index()] > RESCALE_THRESHOLD {
            for a in &mut self.activity {
                *a /= RESCALE_THRESHOLD;
            }
            self.var_inc /= RESCALE_THRESHOLD;
            self.order.rescaled();
        }
        self.order.update(var, &self.activity);
    }

    fn bump_clause(&mut self, cref: ClauseRef) {
        let clause = &mut self.clauses[cref];
        if !clause.learnt {
            return;
        }
        clause.activity += self.cla_inc;
        if clause.activity > RESCALE_THRESHOLD {
            for c in &mut self.clauses {
                c.activity /= RESCALE_THRESHOLD;
            }
            self.cla_inc /= RESCALE_THRESHOLD;
        }
    }

    fn decay_activities(&mut self) {
        self.var_inc *= VAR_DECAY;
        self.cla_inc *= CLAUSE_DECAY;
    }

    /// Deletes the less active half of the learnt clauses (those not
    /// currently acting as a reason for an assignment).
    fn reduce_learnt(&mut self) {
        let mut learnt_refs: Vec<ClauseRef> = (0..self.clauses.len())
            .filter(|&i| self.clauses[i].learnt && !self.clauses[i].deleted)
            .collect();
        learnt_refs.sort_by(|&a, &b| {
            self.clauses[a]
                .activity
                .partial_cmp(&self.clauses[b].activity)
                .expect("activities are finite")
        });
        let mut locked = vec![false; self.clauses.len()];
        for reason in self.reason.iter().flatten() {
            locked[*reason] = true;
        }
        let is_locked = |cref: ClauseRef| locked[cref];
        let half = learnt_refs.len() / 2;
        for &cref in learnt_refs.iter().take(half) {
            if self.clauses[cref].lits.len() > 2 && !is_locked(cref) {
                self.clauses[cref].deleted = true;
                self.num_learnt -= 1;
            }
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum BranchOutcome {
    Decided,
    Done,
    AssumptionConflict,
}

/// The Luby restart sequence: 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, …
#[must_use]
pub fn luby(i: u64) -> u64 {
    // Find the finite subsequence containing index i, then the value.
    let mut size = 1u64;
    let mut seq = 0u32;
    while size < i + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    let mut i = i;
    while size - 1 != i {
        size = (size - 1) / 2;
        seq -= 1;
        i %= size;
    }
    1u64 << seq
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(solver: &mut Solver, n: usize) -> Vec<Var> {
        (0..n).map(|_| solver.new_var()).collect()
    }

    #[test]
    fn empty_problem_is_sat() {
        let mut s = Solver::new();
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn single_unit_clause() {
        let mut s = Solver::new();
        let v = s.new_var();
        assert!(s.add_clause(&[v.positive()]));
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.value(v), Some(true));
    }

    #[test]
    fn contradictory_units_are_unsat() {
        let mut s = Solver::new();
        let v = s.new_var();
        assert!(s.add_clause(&[v.positive()]));
        assert!(!s.add_clause(&[v.negative()]));
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new();
        assert!(!s.add_clause(&[]));
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn tautologies_are_dropped() {
        let mut s = Solver::new();
        let v = s.new_var();
        assert!(s.add_clause(&[v.positive(), v.negative()]));
        assert_eq!(s.num_clauses(), 0);
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn simple_implication_chain() {
        let mut s = Solver::new();
        let vs = lits(&mut s, 5);
        for w in vs.windows(2) {
            s.add_clause(&[w[0].negative(), w[1].positive()]);
        }
        s.add_clause(&[vs[0].positive()]);
        assert_eq!(s.solve(), SatResult::Sat);
        for v in vs {
            assert_eq!(s.value(v), Some(true));
        }
    }

    #[test]
    fn pigeonhole_three_into_two_is_unsat() {
        // 3 pigeons, 2 holes: var p_{i,j} = pigeon i in hole j.
        let mut s = Solver::new();
        let mut p = [[Var(0); 2]; 3];
        for row in &mut p {
            for slot in row.iter_mut() {
                *slot = s.new_var();
            }
        }
        for row in &p {
            s.add_clause(&[row[0].positive(), row[1].positive()]);
        }
        for j in 0..2 {
            for (i, row) in p.iter().enumerate() {
                for other in p.iter().skip(i + 1) {
                    s.add_clause(&[row[j].negative(), other[j].negative()]);
                }
            }
        }
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn pigeonhole_five_into_four_is_unsat() {
        let n = 5usize;
        let m = 4usize;
        let mut s = Solver::new();
        let vars: Vec<Vec<Var>> = (0..n)
            .map(|_| (0..m).map(|_| s.new_var()).collect())
            .collect();
        for row in &vars {
            let clause: Vec<Lit> = row.iter().map(|v| v.positive()).collect();
            s.add_clause(&clause);
        }
        for j in 0..m {
            for (i, row) in vars.iter().enumerate() {
                for other in vars.iter().skip(i + 1) {
                    s.add_clause(&[row[j].negative(), other[j].negative()]);
                }
            }
        }
        assert_eq!(s.solve(), SatResult::Unsat);
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn assumptions_do_not_persist() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[a.positive(), b.positive()]);
        assert_eq!(
            s.solve_with_assumptions(&[a.negative(), b.negative()]),
            SatResult::Unsat
        );
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.solve_with_assumptions(&[a.negative()]), SatResult::Sat);
        assert_eq!(s.value(b), Some(true));
    }

    #[test]
    fn model_satisfies_all_clauses() {
        let mut s = Solver::new();
        let vs = lits(&mut s, 8);
        let clauses: Vec<Vec<Lit>> = vec![
            vec![vs[0].positive(), vs[1].negative(), vs[2].positive()],
            vec![vs[3].negative(), vs[4].positive()],
            vec![vs[5].positive(), vs[6].positive(), vs[7].negative()],
            vec![vs[0].negative(), vs[7].positive()],
            vec![vs[2].negative(), vs[3].positive()],
        ];
        for c in &clauses {
            s.add_clause(c);
        }
        assert_eq!(s.solve(), SatResult::Sat);
        let model = s.model();
        for c in &clauses {
            assert!(c.iter().any(|l| l.apply(model[l.var().index()])));
        }
    }

    #[test]
    fn luby_sequence_prefix() {
        let expected = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        let actual: Vec<u64> = (0..15).map(luby).collect();
        assert_eq!(actual, expected);
    }

    #[test]
    fn xor_chain_forces_unique_model() {
        // x0 ^ x1 = 1, x1 ^ x2 = 1, x0 = 1 => x1 = 0, x2 = 1.
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        let xor1 = |s: &mut Solver, a: Var, b: Var| {
            s.add_clause(&[a.positive(), b.positive()]);
            s.add_clause(&[a.negative(), b.negative()]);
        };
        xor1(&mut s, v[0], v[1]);
        xor1(&mut s, v[1], v[2]);
        s.add_clause(&[v[0].positive()]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.value(v[0]), Some(true));
        assert_eq!(s.value(v[1]), Some(false));
        assert_eq!(s.value(v[2]), Some(true));
    }

    #[test]
    fn block_model_enumerates_all_models() {
        // x ∨ y has exactly three models over {x, y}.
        let mut s = Solver::new();
        let x = s.new_var();
        let y = s.new_var();
        s.add_clause(&[x.positive(), y.positive()]);
        let mut models = Vec::new();
        while s.solve() == SatResult::Sat {
            models.push((s.value(x).unwrap_or(false), s.value(y).unwrap_or(false)));
            if !s.block_model(&[x, y]) {
                break;
            }
        }
        assert_eq!(s.solve(), SatResult::Unsat);
        models.sort_unstable();
        assert_eq!(models, vec![(false, true), (true, false), (true, true)]);
    }

    #[test]
    fn guarded_blocking_clause_only_applies_under_the_guard() {
        let mut s = Solver::new();
        let x = s.new_var();
        let g = s.new_var();
        s.add_clause(&[x.positive()]);
        assert_eq!(s.solve_with_assumptions(&[g.positive()]), SatResult::Sat);
        // Block x=true only while g holds.
        assert!(s.block_model_with(&[x], &[g.negative()]));
        assert_eq!(s.solve_with_assumptions(&[g.positive()]), SatResult::Unsat);
        assert_eq!(s.solve_with_assumptions(&[g.negative()]), SatResult::Sat);
        assert_eq!(s.value(x), Some(true));
    }

    #[test]
    fn solver_is_reusable_after_unsat_assumptions() {
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause(&[a.positive()]);
        assert_eq!(s.solve_with_assumptions(&[a.negative()]), SatResult::Unsat);
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.value(a), Some(true));
    }
}
