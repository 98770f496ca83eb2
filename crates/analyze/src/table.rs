//! Formula truth tables over a feasible-valuation universe.

use mcm_core::formula::Formula;

use crate::universe::{AtomUniverse, Kind, Valuation};

/// The value of a formula on every slot of an [`AtomUniverse`], one bit
/// per slot; infeasible slots are always `false`, so pointwise operations
/// quantify over feasible valuations only.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct TruthTable {
    words: Vec<u64>,
    len: usize,
}

impl TruthTable {
    /// The all-false table over `universe`.
    #[must_use]
    pub fn empty(universe: &AtomUniverse) -> Self {
        TruthTable {
            words: vec![0; universe.size().div_ceil(64)],
            len: universe.size(),
        }
    }

    /// Evaluates `formula` on every feasible valuation of `universe`.
    ///
    /// # Panics
    ///
    /// Panics if `formula` names a special-fence flavour the universe
    /// does not carry — build the universe with
    /// [`AtomUniverse::for_formulas`] over every formula you compare.
    #[must_use]
    pub fn build(formula: &Formula, universe: &AtomUniverse) -> Self {
        assert!(
            universe.supports(formula),
            "universe must name every special flavour the formula tests"
        );
        let mut table = TruthTable::empty(universe);
        for v in universe.feasible_valuations() {
            if v.eval(formula) {
                table.set(universe.index(&v));
            }
        }
        table
    }

    /// The mask of all feasible slots.
    #[must_use]
    pub fn feasible_mask(universe: &AtomUniverse) -> Self {
        let mut table = TruthTable::empty(universe);
        for v in universe.feasible_valuations() {
            table.set(universe.index(&v));
        }
        table
    }

    /// Sets slot `index`.
    pub fn set(&mut self, index: usize) {
        assert!(index < self.len, "slot out of range");
        self.words[index / 64] |= 1 << (index % 64);
    }

    /// Clears slot `index`.
    pub fn clear(&mut self, index: usize) {
        assert!(index < self.len, "slot out of range");
        self.words[index / 64] &= !(1 << (index % 64));
    }

    /// The value at slot `index`.
    #[must_use]
    pub fn get(&self, index: usize) -> bool {
        assert!(index < self.len, "slot out of range");
        self.words[index / 64] >> (index % 64) & 1 == 1
    }

    /// Number of true slots.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Pointwise implication: every valuation this table orders, `other`
    /// orders too. Because forced edges grow monotonically with the
    /// table, `self ⊨ other` means *other is the stronger-or-equal
    /// model*: `allowed(other) ⊆ allowed(self)`.
    #[must_use]
    pub fn implies(&self, other: &TruthTable) -> bool {
        assert_eq!(self.len, other.len, "tables over different universes");
        self.words.iter().zip(&other.words).all(|(a, b)| a & !b == 0)
    }

    /// The restriction of this table to the slots of `mask`. Two tables
    /// with equal restrictions to a test's relaxation signature force the
    /// same program-order edges on it; the sweep prefilter decides that
    /// equality from the set slots alone, without building restrictions.
    #[must_use]
    pub fn restrict(&self, mask: &TruthTable) -> TruthTable {
        assert_eq!(self.len, mask.len, "tables over different universes");
        TruthTable {
            words: self
                .words
                .iter()
                .zip(&mask.words)
                .map(|(a, b)| a & b)
                .collect(),
            len: self.len,
        }
    }

    /// The raw words (low bit of word 0 is slot 0).
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// The canonical semantic identity of a formula: its truth table over a
/// *reduced* universe naming only the special flavours the formula can
/// actually distinguish. Two formulas get equal keys **iff** they agree
/// on every event pair of every execution, so the key is a sound dedup
/// key for verdict rows (structural equality, not a hash — collisions
/// are impossible by construction).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct SemanticKey {
    flavours: Vec<u8>,
    words: Vec<u64>,
}

impl SemanticKey {
    /// Computes the canonical key of `formula`.
    #[must_use]
    pub fn of(formula: &Formula) -> SemanticKey {
        let full = AtomUniverse::for_formulas([formula]);
        let table = TruthTable::build(formula, &full);
        // A named flavour is semantically live only if the table tells it
        // apart from the anonymous "any other special fence" kind.
        let live: Vec<u8> = full
            .named_flavours()
            .into_iter()
            .filter(|&f| distinguishes_flavour(&table, &full, f))
            .collect();
        // Project the full table onto the reduced universe (every reduced
        // kind exists in the full one); dead flavours' slots were proven
        // equal to the anonymous special's, so nothing is lost.
        let reduced = AtomUniverse::with_flavours(&live);
        let mut projected = TruthTable::empty(&reduced);
        for v in reduced.feasible_valuations() {
            if table.get(full.index(&v)) {
                projected.set(reduced.index(&v));
            }
        }
        SemanticKey {
            flavours: live,
            words: projected.words,
        }
    }

    /// A 64-bit FNV-1a digest of the key, for display.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut absorb = |byte: u8| {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for &f in &self.flavours {
            absorb(f);
        }
        absorb(0xff);
        for &w in &self.words {
            for b in w.to_le_bytes() {
                absorb(b);
            }
        }
        hash
    }

    /// The live special flavours of the reduced universe.
    #[must_use]
    pub fn flavours(&self) -> &[u8] {
        &self.flavours
    }
}

/// Whether `table` distinguishes `Special(flavour)` from
/// [`Kind::OtherSpecial`] in either argument position.
fn distinguishes_flavour(table: &TruthTable, universe: &AtomUniverse, flavour: u8) -> bool {
    let swap = |kind: Kind| {
        if kind == Kind::Special(flavour) {
            Kind::OtherSpecial
        } else {
            kind
        }
    };
    universe.feasible_valuations().any(|v| {
        let swapped = Valuation {
            first: swap(v.first),
            second: swap(v.second),
            ..v
        };
        // Swapping special kinds never changes feasibility (both are
        // fences with identical structural constraints).
        table.get(universe.index(&v)) != table.get(universe.index(&swapped))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcm_core::formula::{ArgPos, Atom};

    fn read_x() -> Formula {
        Formula::atom(Atom::IsRead(ArgPos::First))
    }

    #[test]
    fn tables_evaluate_formulas_pointwise() {
        let u = AtomUniverse::base();
        let t = TruthTable::build(&read_x(), &u);
        for v in u.feasible_valuations() {
            assert_eq!(t.get(u.index(&v)), v.first == Kind::Read);
        }
        assert!(t.count_ones() > 0);
    }

    #[test]
    fn implication_is_pointwise_and_oriented() {
        let u = AtomUniverse::base();
        let stronger = TruthTable::build(&Formula::always(), &u);
        let weaker = TruthTable::build(&read_x(), &u);
        // Read(x) ⊨ True: True forces more edges, i.e. is the stronger
        // model; everything implies SC.
        assert!(weaker.implies(&stronger));
        assert!(!stronger.implies(&weaker));
        assert!(TruthTable::build(&Formula::never(), &u).implies(&weaker));
    }

    #[test]
    fn syntactic_variants_share_a_key() {
        let a = Formula::or([read_x(), Formula::fence_either()]);
        let b = Formula::or([
            Formula::fence_either(),
            Formula::and([read_x(), read_x()]),
        ]);
        assert_eq!(SemanticKey::of(&a), SemanticKey::of(&b));
        assert_eq!(
            SemanticKey::of(&a).fingerprint(),
            SemanticKey::of(&b).fingerprint()
        );
        assert_ne!(SemanticKey::of(&a), SemanticKey::of(&Formula::always()));
    }

    #[test]
    fn access_x_equals_read_or_write_x() {
        let access = Formula::atom(Atom::IsAccess(ArgPos::First));
        let split = Formula::or([
            Formula::atom(Atom::IsRead(ArgPos::First)),
            Formula::atom(Atom::IsWrite(ArgPos::First)),
        ]);
        assert_eq!(SemanticKey::of(&access), SemanticKey::of(&split));
    }

    #[test]
    fn dead_special_flavours_drop_out_of_the_key() {
        // SpecialFence3(x) ∨ True ≡ True: flavour 3 is not live.
        let dead = Formula::or([
            Formula::atom(Atom::IsSpecialFence(3, ArgPos::First)),
            Formula::always(),
        ]);
        assert_eq!(SemanticKey::of(&dead), SemanticKey::of(&Formula::always()));
        assert!(SemanticKey::of(&dead).flavours().is_empty());
        // A live flavour stays.
        let live = Formula::atom(Atom::IsSpecialFence(3, ArgPos::First));
        assert_eq!(SemanticKey::of(&live).flavours(), &[3]);
    }

    #[test]
    fn dependency_feasibility_collapses_write_guarded_deps() {
        // Write(x) ∧ DataDep is infeasible: taint originates at reads.
        let infeasible = Formula::and([
            Formula::atom(Atom::IsWrite(ArgPos::First)),
            Formula::atom(Atom::DataDep),
        ]);
        assert_eq!(
            SemanticKey::of(&infeasible),
            SemanticKey::of(&Formula::never())
        );
    }
}
