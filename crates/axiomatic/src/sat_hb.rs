//! SAT-based checker with read-from maps enumerated outside the solver.
//!
//! This mirrors the paper's tool (§4.1): for each value-consistent
//! read-from map, the happens-before axioms become a CNF over ordering
//! variables and a SAT solver decides whether an acyclic happens-before
//! relation exists.
//!
//! Only the program-order units depend on the model, so the checker
//! answers a whole row of models per read-from map
//! ([`BatchRfSatChecker`]): one solver per map holds the model-free
//! encoding — partial order, coherence and the map's read-from axioms —
//! and each still-undecided group of models (grouped by their forced
//! program-order pairs) is one
//! [`Solver::solve_with_assumptions`](mcm_sat::Solver::solve_with_assumptions)
//! over its `o(x, y)` literals. A model contributes only unit clauses, so
//! the assumptions *are* its clauses and no guard variables are needed. A
//! satisfying assignment also decides every other undecided group whose
//! forced pairs all hold in it. One cell is a one-model row, and the
//! DIMACS export ([`encode_cnf`]) is the same model-free encoding with the
//! model's units appended.

use std::cell::Cell;

use mcm_core::{Execution, MemoryModel};
use mcm_sat::dimacs::Cnf;
use mcm_sat::{Lit, SatResult, Solver, SolverStats};

use crate::batch::{group_models, observe_row, BatchChecker, BatchStats, ModelGroups};
use crate::checker::{Verdict, Witness};
use crate::hb::collect_edges;
use crate::rf::{enumerate_rf_maps, RfMap, RfSource};
use crate::sat_common::{ClauseSink, OrderVars};

/// Emits the model-free encoding for one read-from map into `sink`: the
/// read-from axioms, partial-order scaffolding and coherence. Returns
/// `None` when the map is inconsistent outright (a read of the initial
/// value po-after a local same-location write), before the scaffolding
/// is built.
fn encode_model_free<S: ClauseSink>(
    sink: &mut S,
    exec: &Execution,
    rf: &RfMap,
) -> Option<OrderVars> {
    let order = OrderVars::new(sink, exec.events().len());
    for &(read, source) in &rf.pairs {
        let loc = exec.event(read).loc().expect("read has a location");
        match source {
            RfSource::Init => {
                // Read-write axiom, no-source case: the read is forced
                // before every same-location write. A forced ordering
                // towards a program-earlier local write violates
                // ignore-local outright (a read cannot skip an earlier
                // local write by taking the initial value).
                for w in exec.writes_to(loc) {
                    if exec.po_earlier(w.id, read) {
                        return None;
                    }
                    sink.emit_clause(&[order.before(read.index(), w.id.index())]);
                }
            }
            RfSource::Write(z) => {
                // Write-read axiom: only across threads.
                if !exec.same_thread(z, read) {
                    sink.emit_clause(&[order.before(z.index(), read.index())]);
                }
                // Read-write axiom: for every other same-location write y,
                // either y is coherence-before z or the read is forced
                // before y. The second option is unavailable when y is a
                // program-earlier local write (ignore-local), leaving the
                // coherence obligation.
                for w in exec.writes_to(loc) {
                    if w.id == z {
                        continue;
                    }
                    let coherence_before = order.before(w.id.index(), z.index());
                    if exec.po_earlier(w.id, read) {
                        sink.emit_clause(&[coherence_before]);
                    } else {
                        sink.emit_clause(&[
                            coherence_before,
                            order.before(read.index(), w.id.index()),
                        ]);
                    }
                }
            }
        }
    }
    order.add_partial_order_clauses(sink);
    order.add_coherence_clauses(sink, exec);
    Some(order)
}

/// Exports the admissibility query for one read-from map as DIMACS CNF:
/// satisfiable iff the execution is allowed with that map. Returns `None`
/// when the map is inconsistent outright (trivially forbidden).
#[must_use]
pub fn encode_cnf(model: &MemoryModel, exec: &Execution, rf: &RfMap) -> Option<Cnf> {
    let mut cnf = Cnf::default();
    let order = encode_model_free(&mut cnf, exec, rf)?;
    order.add_program_order_units(&mut cnf, model, exec);
    Some(cnf)
}

/// Exports one CNF per value-consistent read-from map; the execution is
/// allowed iff at least one of them is satisfiable.
#[must_use]
pub fn encode_all_cnf(model: &MemoryModel, exec: &Execution) -> Vec<Cnf> {
    enumerate_rf_maps(exec)
        .iter()
        .filter_map(|rf| encode_cnf(model, exec, rf))
        .collect()
}

/// Batched admissibility via one SAT query per read-from map and model
/// group: the paper's §4.1 checker answering a whole row (see the module
/// doc). Read-from maps are tried in enumeration order and each model
/// takes the first one that admits it, exactly as a per-cell loop would.
#[derive(Clone, Debug, Default)]
pub struct BatchRfSatChecker {
    /// Row counters; interior mutability because the trait takes `&self`.
    stats: Cell<BatchStats>,
    /// Solver work totalled across every per-map solver.
    solver_stats: Cell<SolverStats>,
}

impl BatchRfSatChecker {
    /// Creates the checker.
    #[must_use]
    pub fn new() -> Self {
        BatchRfSatChecker::default()
    }
}

impl BatchChecker for BatchRfSatChecker {
    fn name(&self) -> &'static str {
        "sat"
    }

    fn check_all_executions(&self, exec: &Execution, models: &[MemoryModel]) -> Vec<Verdict> {
        let started = mcm_obs::Stopwatch::start();
        let mut stats = self.stats.get();
        let solves_before = stats.assumption_solves;
        stats.rows += 1;
        stats.models_checked += models.len() as u64;

        let rf_maps = enumerate_rf_maps(exec);
        if rf_maps.is_empty() {
            // Value-infeasible outcome: forbidden everywhere.
            self.stats.set(stats);
            observe_row(self.name(), started, 0);
            return models.iter().map(|_| Verdict::forbidden()).collect();
        }

        let ModelGroups { groups, group_of } = group_models(exec, models);
        stats.model_groups += groups.len() as u64;
        let mut sat = self.solver_stats.get();
        let mut verdicts: Vec<Option<Verdict>> = vec![None; groups.len()];
        let mut undecided = groups.len();
        for rf in &rf_maps {
            if undecided == 0 {
                break;
            }
            let mut solver = Solver::new();
            let Some(order) = encode_model_free(&mut solver, exec, rf) else {
                continue;
            };
            // Each group's forced `o(x, y)` literals: its assumptions, and
            // what an assignment must make true to decide it.
            let group_lits: Vec<Vec<Lit>> = groups
                .iter()
                .map(|pairs| {
                    pairs
                        .iter()
                        .map(|&(x, y)| order.before(x.index(), y.index()))
                        .collect()
                })
                .collect();
            for (g, lits) in group_lits.iter().enumerate() {
                if verdicts[g].is_some() {
                    continue;
                }
                stats.assumption_solves += 1;
                if solver.solve_with_assumptions(lits) != SatResult::Sat {
                    continue;
                }
                // The assignment satisfies the model-free encoding and
                // every unit of group `g`, so it witnesses each undecided
                // group whose forced pairs all hold in it — `g` included.
                // Groups before `g` are decided or unsatisfiable here.
                let co = order.extract_co(&solver, exec);
                for h in g..groups.len() {
                    let holds = group_lits[h]
                        .iter()
                        .all(|&lit| solver.lit_value_opt(lit) == Some(true));
                    if verdicts[h].is_some() || !holds {
                        continue;
                    }
                    let edges = collect_edges(exec, rf, &co, &groups[h]);
                    debug_assert!(edges.admits_partial_order(exec));
                    verdicts[h] = Some(Verdict::allowed(Witness {
                        rf: rf.clone(),
                        co: co.clone(),
                        hb_edges: edges.labeled,
                    }));
                    undecided -= 1;
                }
            }
            sat.absorb(solver.stats());
        }

        self.solver_stats.set(sat);
        self.stats.set(stats);
        observe_row(
            self.name(),
            started,
            stats.assumption_solves - solves_before,
        );
        group_of
            .iter()
            .map(|&g| verdicts[g].clone().unwrap_or_else(Verdict::forbidden))
            .collect()
    }

    fn batch_stats(&self) -> Option<BatchStats> {
        Some(self.stats.get())
    }

    fn solver_stats(&self) -> Option<SolverStats> {
        Some(self.solver_stats.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcm_core::{Formula, LitmusTest, Loc, Outcome, Program, Reg, ThreadId, Value};

    fn sc() -> MemoryModel {
        MemoryModel::new("SC", Formula::always())
    }

    fn weakest() -> MemoryModel {
        MemoryModel::new("weakest", Formula::never())
    }

    fn mp() -> LitmusTest {
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
        LitmusTest::new("MP", program, outcome).unwrap()
    }

    #[test]
    fn mp_under_sc_and_weakest() {
        let checker = BatchRfSatChecker::new();
        assert!(!checker.is_allowed(&sc(), &mp()));
        assert!(checker.is_allowed(&weakest(), &mp()));
    }

    #[test]
    fn solver_stats_accumulate_across_queries() {
        let checker = BatchRfSatChecker::new();
        assert_eq!(checker.solver_stats(), Some(mcm_sat::SolverStats::default()));
        let _ = checker.check(&sc(), &mp());
        let after_one = checker.solver_stats().expect("sat-backed");
        assert!(after_one.propagations > 0);
        let _ = checker.check(&weakest(), &mp());
        let after_two = checker.solver_stats().expect("sat-backed");
        assert!(after_two.propagations > after_one.propagations);
        // The explicit checker has no solver.
        assert!(crate::ExplicitChecker::new().solver_stats().is_none());
    }

    #[test]
    fn row_matches_per_cell_and_counts_work() {
        let models = [sc(), weakest(), weakest()];
        let row = BatchRfSatChecker::new();
        let verdicts = row.check_all(&mp(), &models);
        let allowed: Vec<bool> = verdicts.iter().map(|v| v.allowed).collect();
        assert_eq!(allowed, [false, true, true]);
        let stats = row.batch_stats().expect("native batch has stats");
        assert_eq!((stats.rows, stats.models_checked), (1, 3));
        assert_eq!(stats.model_groups, 2, "the weakest twins share a group");
        assert!(stats.assumption_solves >= 2);
        let solver_stats = row.solver_stats().expect("sat-backed");
        assert!(solver_stats.propagations > 0);
    }

    #[test]
    fn a_satisfying_assignment_decides_the_groups_it_satisfies() {
        // MP's SC-allowed outcome (both reads see 0): solving SC's group
        // yields an assignment that trivially satisfies the weakest
        // model's (empty) group, so one solve answers both.
        let mut test = mp();
        test = LitmusTest::new(
            "MP-sc",
            test.program().clone(),
            Outcome::new()
                .constrain(ThreadId(1), Reg(1), Value(0))
                .constrain(ThreadId(1), Reg(2), Value(0)),
        )
        .unwrap();
        let row = BatchRfSatChecker::new();
        let verdicts = row.check_all(&test, &[sc(), weakest()]);
        assert!(verdicts.iter().all(|v| v.allowed));
        let stats = row.batch_stats().expect("native batch has stats");
        assert_eq!(stats.model_groups, 2);
        assert_eq!(stats.assumption_solves, 1, "the second group is reused");
        for (model, verdict) in [sc(), weakest()].iter().zip(&verdicts) {
            let witness = verdict.witness.as_ref().expect("allowed");
            let exec = test.execution();
            let edges = crate::hb::required_edges(model, &exec, &witness.rf, &witness.co);
            assert!(edges.admits_partial_order(&exec));
            assert_eq!(edges.labeled, witness.hb_edges);
        }
    }

    #[test]
    fn witnesses_are_valid() {
        let checker = BatchRfSatChecker::new();
        let verdict = checker.check(&weakest(), &mp());
        let witness = verdict.witness.expect("allowed");
        // The witness coherence order covers both written locations.
        assert_eq!(witness.co.per_loc.len(), 2);
    }

    #[test]
    fn local_coherence_is_enforced() {
        // W X=1; R X=0 forbidden even under the weakest model.
        let program = Program::builder()
            .thread()
            .write(Loc::X, Value(1))
            .read(Loc::X, Reg(1))
            .build()
            .unwrap();
        let outcome = Outcome::new().constrain(ThreadId(0), Reg(1), Value(0));
        let test = LitmusTest::new("local", program, outcome).unwrap();
        assert!(!BatchRfSatChecker::new().is_allowed(&weakest(), &test));
    }

    #[test]
    fn exported_cnf_matches_the_solver_verdict() {
        use crate::rf::enumerate_rf_maps;
        for (model, test) in [
            (sc(), mp()),
            (weakest(), mp()),
        ] {
            let exec = test.execution();
            let mut any_sat = false;
            for rf in enumerate_rf_maps(&exec) {
                if let Some(cnf) = encode_cnf(&model, &exec, &rf) {
                    let mut solver = cnf.into_solver();
                    if solver.solve() == SatResult::Sat {
                        any_sat = true;
                    }
                }
            }
            assert_eq!(
                any_sat,
                BatchRfSatChecker::new().is_allowed(&model, &test),
                "CNF export disagrees for {} on {}",
                model.name(),
                test.name()
            );
        }
    }

    #[test]
    fn dimacs_round_trip_preserves_the_query() {
        let test = mp();
        let exec = test.execution();
        let cnfs = encode_all_cnf(&sc(), &exec);
        assert!(!cnfs.is_empty());
        for cnf in cnfs {
            let text = cnf.to_dimacs();
            let reparsed = mcm_sat::dimacs::parse_dimacs(&text).unwrap();
            assert_eq!(cnf, reparsed);
        }
    }
}
