//! The sweep prefilter: group models that provably agree on a test.
//!
//! A checker's verdict depends on the model only through the
//! program-order edges its formula forces — and the formula sees each
//! same-thread pair only through its valuation. So per test, the set of
//! valuations realized by its po pairs (the test's **relaxation
//! signature**) is all that matters: two models whose tables agree on
//! those slots force identical edges and share the verdict. The sweep
//! engine calls the checker once per group and fans the verdict out,
//! strengthening the `forced_po_pairs` quotient of the batched checkers.
//!
//! Grouping is **slot-keyed**: a row's key is its table's bits at the
//! test's realized slots, and rows with equal keys form a group. The
//! tables are stored column-wise — per slot, the set of rows whose table
//! has it, as a row bitset — so the keys never need materializing: the
//! input rows start as one class and each realized slot splits every
//! class by its column. That costs a few word operations per slot and
//! class (a test realizes a handful of slots and its rows fall into about
//! ten classes), one table lookup per row, and no hashing; neither the
//! slot count nor the row count has a width cap.

use mcm_core::{Execution, MemoryModel};

use crate::table::TruthTable;
use crate::universe::{AtomUniverse, Valuation};

/// Precomputed per-sweep state: every model row's truth table over one
/// shared universe, stored column-wise.
#[derive(Clone, Debug)]
pub struct SweepPrefilter {
    universe: AtomUniverse,
    /// Number of model rows.
    rows: usize,
    /// Words per row bitset: `rows.div_ceil(64)`, at least one.
    row_words: usize,
    /// `columns[slot * row_words..][..row_words]`: the rows whose table
    /// is true at `slot`.
    columns: Vec<u64>,
}

impl SweepPrefilter {
    /// Builds the prefilter for the (row-representative) models of a
    /// sweep.
    #[must_use]
    pub fn new(models: &[&MemoryModel]) -> Self {
        let universe = AtomUniverse::for_formulas(models.iter().map(|m| m.formula()));
        let row_words = models.len().div_ceil(64).max(1);
        let mut columns = vec![0u64; universe.size() * row_words];
        for (row, model) in models.iter().enumerate() {
            let table = TruthTable::build(model.formula(), &universe);
            for slot in 0..universe.size() {
                if table.get(slot) {
                    columns[slot * row_words + row / 64] |= 1 << (row % 64);
                }
            }
        }
        SweepPrefilter {
            universe,
            rows: models.len(),
            row_words,
            columns,
        }
    }

    /// Number of model rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the prefilter covers no models.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The relaxation signature of an execution: the mask of valuations
    /// realized by its same-thread program-order pairs.
    #[must_use]
    pub fn relaxation_signature(&self, exec: &Execution) -> TruthTable {
        let mut mask = TruthTable::empty(&self.universe);
        for slot in self.realized_slots(exec) {
            mask.set(slot);
        }
        mask
    }

    /// The set slots of [`SweepPrefilter::relaxation_signature`], sorted
    /// and deduplicated.
    fn realized_slots(&self, exec: &Execution) -> Vec<usize> {
        let mut slots = Vec::new();
        for thread in 0..exec.num_threads() {
            let events = exec.thread_events(mcm_core::ThreadId(
                u8::try_from(thread).expect("at most 255 threads"),
            ));
            for (i, &x) in events.iter().enumerate() {
                for &y in &events[i + 1..] {
                    let v = Valuation {
                        first: self.universe.event_kind(exec.event(x)),
                        second: self.universe.event_kind(exec.event(y)),
                        same_addr: match (exec.event(x).loc(), exec.event(y).loc()) {
                            (Some(a), Some(b)) => a == b,
                            _ => false,
                        },
                        data_dep: exec.data_dep(x, y),
                        ctrl_dep: exec.ctrl_dep(x, y),
                    };
                    slots.push(self.universe.index(&v));
                }
            }
        }
        slots.sort_unstable();
        slots.dedup();
        slots
    }

    /// Groups the given model rows by their table restricted to the
    /// execution's relaxation signature. Rows in one group provably
    /// share the verdict; each group's first element is its
    /// representative. Groups appear in the order of their first row,
    /// and members keep the input order.
    #[must_use]
    pub fn group_rows(&self, exec: &Execution, rows: &[usize]) -> Vec<Vec<usize>> {
        let width = self.row_words;
        // The partition of the input rows, `width` words per class.
        let mut classes = vec![0u64; width];
        for &row in rows {
            classes[row / 64] |= 1 << (row % 64);
        }
        let mut split = Vec::with_capacity(classes.len());
        for slot in self.realized_slots(exec) {
            let column = &self.columns[slot * width..][..width];
            split.clear();
            for class in classes.chunks_exact(width) {
                for polarity in [0, u64::MAX] {
                    let part = class.iter().zip(column).map(|(c, k)| c & (k ^ polarity));
                    if part.clone().any(|w| w != 0) {
                        split.extend(part);
                    }
                }
            }
            std::mem::swap(&mut classes, &mut split);
        }

        let mut class_of = vec![0usize; self.rows];
        let mut sizes = Vec::with_capacity(classes.len() / width);
        for (index, class) in classes.chunks_exact(width).enumerate() {
            for (w, &word) in class.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    class_of[w * 64 + bits.trailing_zeros() as usize] = index;
                    bits &= bits - 1;
                }
            }
            sizes.push(class.iter().map(|w| w.count_ones() as usize).sum::<usize>());
        }
        let mut group_of_class = vec![usize::MAX; sizes.len()];
        let mut groups: Vec<Vec<usize>> = Vec::with_capacity(sizes.len());
        for &row in rows {
            let class = class_of[row];
            if group_of_class[class] == usize::MAX {
                group_of_class[class] = groups.len();
                groups.push(Vec::with_capacity(sizes[class]));
            }
            groups[group_of_class[class]].push(row);
        }
        groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    use mcm_core::formula::{ArgPos, Atom, Formula};
    use mcm_core::{Loc, Outcome, Program, Reg, RegExpr, Value};
    use mcm_models::{catalog, named, DigitModel};

    fn prefilter_for(models: &[MemoryModel]) -> SweepPrefilter {
        let refs: Vec<&MemoryModel> = models.iter().collect();
        SweepPrefilter::new(&refs)
    }

    #[test]
    fn signature_masks_only_realized_valuations() {
        let models = vec![named::sc()];
        let pf = prefilter_for(&models);
        // L1: two threads of write;write / write;read-style pairs — far
        // fewer realized valuations than the whole universe.
        let exec = catalog::l1().execution();
        let mask = pf.relaxation_signature(&exec);
        assert!(mask.count_ones() > 0);
        assert!(mask.count_ones() < 20);
    }

    #[test]
    fn models_agreeing_on_a_test_share_a_group() {
        // M1010 and M1110 differ only on same-address W→R pairs; a test
        // with none of those must put them in one group.
        let models = vec![
            "M1010".parse::<DigitModel>().unwrap().to_model(),
            "M1110".parse::<DigitModel>().unwrap().to_model(),
            named::sc(),
        ];
        let pf = prefilter_for(&models);
        // L1 (store buffering shape) has no same-address W→R po pair.
        let exec = catalog::l1().execution();
        let groups = pf.group_rows(&exec, &[0, 1, 2]);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0], vec![0, 1]);
        assert_eq!(groups[1], vec![2]);
    }

    #[test]
    fn groups_preserve_row_order_and_partition() {
        let models: Vec<MemoryModel> = ["M4444", "M4044", "M1010"]
            .iter()
            .map(|s| s.parse::<DigitModel>().unwrap().to_model())
            .collect();
        let pf = prefilter_for(&models);
        let exec = catalog::test_a().execution();
        let groups = pf.group_rows(&exec, &[2, 0, 1]);
        let flattened: Vec<usize> = groups.iter().flatten().copied().collect();
        let mut sorted = flattened.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
        assert_eq!(flattened[0], 2, "first input row leads the first group");
        assert!(prefilter_for(&[]).group_rows(&exec, &[]).is_empty());
    }

    /// The reference keying: each row's whole table masked by the
    /// relaxation signature, grouped through a hash map in first-row
    /// order.
    fn group_by_restrict(
        models: &[MemoryModel],
        pf: &SweepPrefilter,
        exec: &Execution,
        rows: &[usize],
    ) -> Vec<Vec<usize>> {
        let mask = pf.relaxation_signature(exec);
        let mut order: Vec<Vec<usize>> = Vec::new();
        let mut index: HashMap<TruthTable, usize> = HashMap::new();
        for &row in rows {
            let key = TruthTable::build(models[row].formula(), &pf.universe).restrict(&mask);
            match index.get(&key) {
                Some(&g) => order[g].push(row),
                None => {
                    index.insert(key, order.len());
                    order.push(vec![row]);
                }
            }
        }
        order
    }

    /// Four threads mixing reads, writes, full and special fences (named
    /// and unnamed flavours), data, address and control dependencies.
    fn wide_execution() -> Execution {
        let program = Program::builder()
            .thread()
            .read(Loc::X, Reg(1))
            .dep_const(Reg(2), Reg(1), Value(1))
            .write_expr(Loc::Y, RegExpr::Reg(Reg(2)))
            .fence()
            .special_fence(1)
            .read(Loc::Y, Reg(3))
            .write(Loc::X, Value(1))
            .special_fence(200)
            .thread()
            .special_fence(2)
            .write(Loc::X, Value(2))
            .read(Loc::Y, Reg(4))
            .branch_on(Reg(4))
            .write(Loc::Z, Value(1))
            .special_fence(3)
            .read(Loc::X, Reg(5))
            .fence()
            .thread()
            .read(Loc::Z, Reg(6))
            .special_fence(4)
            .dep_addr(Reg(7), Reg(6), Loc::Y)
            .read_indirect(Reg(7), Reg(8))
            .special_fence(9)
            .write(Loc::Z, Value(2))
            .fence()
            .read(Loc::Z, Reg(9))
            .thread()
            .special_fence(200)
            .write(Loc::Y, Value(3))
            .special_fence(1)
            .read(Loc::X, Reg(10))
            .branch_on(Reg(10))
            .special_fence(2)
            .read(Loc::X, Reg(11))
            .write(Loc::X, Value(3))
            .build()
            .unwrap();
        // Every read observes the initial value.
        let reads = [
            (0, 1),
            (0, 3),
            (1, 4),
            (1, 5),
            (2, 6),
            (2, 8),
            (2, 9),
            (3, 10),
            (3, 11),
        ];
        let outcome = reads.iter().fold(Outcome::new(), |o, &(t, r)| {
            o.constrain(mcm_core::ThreadId(t), Reg(r), Value(0))
        });
        Execution::from_program(&program, &outcome).unwrap()
    }

    #[test]
    fn slot_keys_match_restricted_tables_on_a_wide_universe() {
        let special = |f: u8, pos: ArgPos| Formula::atom(Atom::IsSpecialFence(f, pos));
        let rr_dep = Formula::pair(
            Atom::IsRead(ArgPos::First),
            Atom::IsRead(ArgPos::Second),
            Formula::or([Formula::atom(Atom::DataDep), Formula::atom(Atom::CtrlDep)]),
        );
        let mut distinct: Vec<MemoryModel> = ["M4444", "M4044", "M1010", "M1132", "M4432"]
            .iter()
            .map(|s| s.parse::<DigitModel>().unwrap().to_model())
            .chain([named::rmo(), named::alpha(), named::pso()])
            .collect();
        for (i, &f) in [1u8, 2, 3, 4, 200].iter().enumerate() {
            let base = distinct[i % 5].formula().clone();
            distinct.push(MemoryModel::new(
                format!("sf{f}-first"),
                Formula::or([base.clone(), special(f, ArgPos::First)]),
            ));
            distinct.push(MemoryModel::new(
                format!("sf{f}-second"),
                Formula::or([base, special(f, ArgPos::Second), rr_dep.clone()]),
            ));
        }
        distinct.push(MemoryModel::new(
            "sf1-and-sf2",
            Formula::and([special(1, ArgPos::First), special(2, ArgPos::Second)]),
        ));
        // A row that agrees with M4044 on the wide test: it names a
        // flavour the test never executes.
        distinct.push(MemoryModel::new(
            "sf7-unused",
            Formula::or([distinct[1].formula().clone(), special(7, ArgPos::First)]),
        ));
        // Four renamed copies: more than 64 rows, so row sets span words.
        let models: Vec<MemoryModel> = (0..4)
            .flat_map(|copy| {
                distinct
                    .iter()
                    .map(move |m| m.renamed(format!("{}#{copy}", m.name())))
            })
            .collect();
        let pf = prefilter_for(&models);
        assert!(pf.len() > 64);
        assert_eq!(pf.universe.named_flavours(), vec![1, 2, 3, 4, 7, 200]);

        let exec = wide_execution();
        let realized = pf.relaxation_signature(&exec).count_ones();
        assert!(realized > 64, "more than 64 realized slots ({realized})");

        let rows: Vec<usize> = (0..models.len()).collect();
        let reversed: Vec<usize> = rows.iter().rev().copied().collect();
        let subset: Vec<usize> = rows.iter().copied().filter(|r| r % 3 != 0).collect();
        for input in [&rows, &reversed, &subset] {
            let groups = pf.group_rows(&exec, input);
            assert_eq!(groups, group_by_restrict(&models, &pf, &exec, input));
            assert!(groups.len() > 1 && groups.len() < input.len());
        }
        // And on the small catalog tests, which realize a few slots.
        for test in [catalog::l1(), catalog::test_a()] {
            let exec = test.execution();
            assert_eq!(
                pf.group_rows(&exec, &rows),
                group_by_restrict(&models, &pf, &exec, &rows)
            );
        }
    }
}
