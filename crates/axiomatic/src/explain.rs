//! Human-readable rendering of admissibility verdicts.
//!
//! Produces the kind of explanation Figure 1 of the paper gives for Test A
//! under TSO: the events of each thread, the read-from map, the coherence
//! order and the forced happens-before edges — or, for forbidden outcomes,
//! a happens-before cycle from one representative `(rf, co)` choice.

use std::fmt::Write as _;

use mcm_core::{Execution, MemoryModel};

use crate::checker::{Verdict, Witness};
use crate::co::enumerate_co_orders;
use crate::hb::required_edges;
use crate::rf::{enumerate_rf_maps, RfSource};

/// Renders a verdict with its evidence.
///
/// For allowed outcomes the witness (rf, co, acyclic edge set) is shown;
/// for forbidden outcomes the first `(rf, co)` choice is re-derived and its
/// cycle (or ignore-local violation) displayed, mirroring how the paper
/// argues Figure 1.
#[must_use]
pub fn render(model: &MemoryModel, exec: &Execution, verdict: &Verdict) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "model: {model}");
    for t in 0..exec.num_threads() {
        let tid = mcm_core::ThreadId(t as u8);
        let _ = writeln!(out, "{tid}:");
        for &e in exec.thread_events(tid) {
            let _ = writeln!(out, "  {}", exec.event(e));
        }
    }
    match (&verdict.allowed, &verdict.witness) {
        (true, Some(witness)) => {
            let _ = writeln!(out, "verdict: ALLOWED");
            render_witness(&mut out, exec, witness);
        }
        (true, None) => {
            let _ = writeln!(out, "verdict: ALLOWED (no witness recorded)");
        }
        (false, _) => {
            let _ = writeln!(out, "verdict: FORBIDDEN");
            render_refutation(&mut out, model, exec);
        }
    }
    out
}

fn render_witness(out: &mut String, exec: &Execution, witness: &Witness) {
    let _ = writeln!(out, "read-from:");
    for &(read, source) in &witness.rf.pairs {
        match source {
            RfSource::Init => {
                let _ = writeln!(out, "  {} reads the initial value", exec.event(read));
            }
            RfSource::Write(w) => {
                let _ = writeln!(out, "  {} reads from {}", exec.event(read), exec.event(w));
            }
        }
    }
    let multi_write: Vec<_> = witness
        .co
        .per_loc
        .iter()
        .filter(|(_, ws)| ws.len() > 1)
        .collect();
    if !multi_write.is_empty() {
        let _ = writeln!(out, "coherence:");
        for (loc, writes) in multi_write {
            let chain: Vec<String> = writes.iter().map(|w| exec.event(*w).to_string()).collect();
            let _ = writeln!(out, "  {loc}: {}", chain.join(" -> "));
        }
    }
    let _ = writeln!(out, "happens-before edges (acyclic):");
    for &(from, to, kind) in &witness.hb_edges {
        let _ = writeln!(out, "  {} --{kind}--> {}", exec.event(from), exec.event(to));
    }
}

fn render_refutation(out: &mut String, model: &MemoryModel, exec: &Execution) {
    let rf_maps = enumerate_rf_maps(exec);
    if rf_maps.is_empty() {
        let _ = writeln!(
            out,
            "no read-from map matches the demanded values: the outcome is \
             value-infeasible in every model of the class"
        );
        return;
    }
    let co_orders = enumerate_co_orders(exec);
    let _ = writeln!(
        out,
        "every choice of read-from map ({}) and coherence order ({}) fails; \
         the first one fails because:",
        rf_maps.len(),
        co_orders.len()
    );
    let rf = &rf_maps[0];
    let co = &co_orders[0];
    let edges = required_edges(model, exec, rf, co);
    for &(x, y, kind) in &edges.labeled {
        if exec.po_earlier(y, x) {
            let _ = writeln!(
                out,
                "  the forced {kind} edge {} --> {} contradicts program order (ignore-local)",
                exec.event(x),
                exec.event(y)
            );
            return;
        }
    }
    if let Some(cycle) = edges.graph.find_cycle() {
        let chain: Vec<String> = cycle
            .iter()
            .map(|&i| exec.event(mcm_core::EventId(i as u32)).to_string())
            .collect();
        let _ = writeln!(out, "  happens-before cycle: {} -> (back)", chain.join(" -> "));
    } else {
        let _ = writeln!(
            out,
            "  (this particular choice is consistent; a later one fails — rerun \
             with the explicit checker for the full enumeration)"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchChecker;
    use crate::explicit::ExplicitChecker;
    use mcm_core::{Formula, LitmusTest, Loc, Outcome, Program, Reg, ThreadId, Value};

    fn sb() -> LitmusTest {
        let program = Program::builder()
            .thread()
            .write(Loc::X, Value(1))
            .read(Loc::Y, Reg(1))
            .thread()
            .write(Loc::Y, Value(1))
            .read(Loc::X, Reg(2))
            .build()
            .unwrap();
        let outcome = Outcome::new()
            .constrain(ThreadId(0), Reg(1), Value(0))
            .constrain(ThreadId(1), Reg(2), Value(0));
        LitmusTest::new("SB", program, outcome).unwrap()
    }

    #[test]
    fn allowed_verdicts_render_their_witness() {
        let model = MemoryModel::new("weakest", Formula::never());
        let test = sb();
        let exec = test.execution();
        let verdict = ExplicitChecker::new().check(&model, &test);
        let text = render(&model, &exec, &verdict);
        assert!(text.contains("ALLOWED"));
        assert!(text.contains("reads the initial value"));
        assert!(text.contains("happens-before edges"));
    }

    #[test]
    fn forbidden_verdicts_show_a_cycle() {
        let model = MemoryModel::new("SC", Formula::always());
        let test = sb();
        let exec = test.execution();
        let verdict = ExplicitChecker::new().check(&model, &test);
        let text = render(&model, &exec, &verdict);
        assert!(text.contains("FORBIDDEN"));
        assert!(text.contains("cycle") || text.contains("ignore-local"));
    }

    #[test]
    fn value_infeasible_outcomes_are_called_out() {
        let program = Program::builder()
            .thread()
            .read(Loc::X, Reg(1))
            .build()
            .unwrap();
        let outcome = Outcome::new().constrain(ThreadId(0), Reg(1), Value(9));
        let test = LitmusTest::new("inf", program, outcome).unwrap();
        let model = MemoryModel::new("weakest", Formula::never());
        let exec = test.execution();
        let verdict = ExplicitChecker::new().check(&model, &test);
        let text = render(&model, &exec, &verdict);
        assert!(text.contains("value-infeasible"));
    }
}
