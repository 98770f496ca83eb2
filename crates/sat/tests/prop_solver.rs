//! Property tests: the CDCL solver agrees with the brute-force oracle on
//! random small CNF instances, and models returned on Sat actually satisfy
//! every clause. One fixed hard instance (six pigeons, five holes) pins
//! Unsat beyond brute-force reach.

use mcm_sat::naive::solve_brute_force;
use mcm_sat::{Lit, SatResult, Solver, Var};
use proptest::prelude::*;

/// Strategy producing (num_vars, clauses) with small, adversarial shapes.
fn cnf_strategy() -> impl Strategy<Value = (usize, Vec<Vec<Lit>>)> {
    (1usize..=10).prop_flat_map(|num_vars| {
        let lit = (0..num_vars, proptest::bool::ANY)
            .prop_map(|(v, pos)| Var::from_index(v).lit(pos));
        let clause = proptest::collection::vec(lit, 1..=4);
        let clauses = proptest::collection::vec(clause, 0..=30);
        clauses.prop_map(move |cs| (num_vars, cs))
    })
}

fn cdcl_solve(num_vars: usize, clauses: &[Vec<Lit>]) -> (SatResult, Option<Vec<bool>>) {
    let mut solver = Solver::new();
    for _ in 0..num_vars {
        solver.new_var();
    }
    for clause in clauses {
        solver.add_clause(clause);
    }
    let result = solver.solve();
    let model = (result == SatResult::Sat).then(|| solver.model());
    (result, model)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn cdcl_matches_brute_force((num_vars, clauses) in cnf_strategy()) {
        let reference = solve_brute_force(num_vars, &clauses);
        let (result, model) = cdcl_solve(num_vars, &clauses);
        prop_assert_eq!(result.is_sat(), reference.is_some());
        if let Some(model) = model {
            for clause in &clauses {
                prop_assert!(
                    clause.iter().any(|l| l.apply(model[l.var().index()])),
                    "returned model violates clause {:?}",
                    clause
                );
            }
        }
    }

    #[test]
    fn assumptions_match_added_units((num_vars, clauses) in cnf_strategy(), seed in 0u64..1000) {
        // Solving with assumptions must agree with solving with those
        // assumptions added as unit clauses.
        let assumed_var = (seed as usize) % num_vars;
        let polarity = seed % 2 == 0;
        let assumption = Var::from_index(assumed_var).lit(polarity);

        let mut with_assumption = Solver::new();
        for _ in 0..num_vars {
            with_assumption.new_var();
        }
        for clause in &clauses {
            with_assumption.add_clause(clause);
        }
        let a = with_assumption.solve_with_assumptions(&[assumption]);

        let mut with_unit = Solver::new();
        for _ in 0..num_vars {
            with_unit.new_var();
        }
        for clause in &clauses {
            with_unit.add_clause(clause);
        }
        with_unit.add_clause(&[assumption]);
        let b = with_unit.solve();

        prop_assert_eq!(a, b);
    }

    #[test]
    fn solver_is_reusable_across_queries((num_vars, clauses) in cnf_strategy()) {
        // Solving twice in a row gives the same answer.
        let mut solver = Solver::new();
        for _ in 0..num_vars {
            solver.new_var();
        }
        for clause in &clauses {
            solver.add_clause(clause);
        }
        let first = solver.solve();
        let second = solver.solve();
        prop_assert_eq!(first, second);
    }
}

/// Six pigeons do not fit into five holes: a classic hard Unsat instance.
#[test]
fn pigeonhole_six_into_five_is_unsat() {
    let (pigeons, holes) = (6, 5);
    let mut solver = Solver::new();
    let vars: Vec<Vec<Var>> = (0..pigeons)
        .map(|_| (0..holes).map(|_| solver.new_var()).collect())
        .collect();
    for row in &vars {
        let clause: Vec<Lit> = row.iter().map(|v| v.positive()).collect();
        solver.add_clause(&clause);
    }
    for j in 0..holes {
        for (i, row) in vars.iter().enumerate() {
            for other in vars.iter().skip(i + 1) {
                solver.add_clause(&[row[j].negative(), other[j].negative()]);
            }
        }
    }
    assert_eq!(solver.solve(), SatResult::Unsat);
}
