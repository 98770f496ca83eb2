//! The static strength preorder/lattice over a model set.
//!
//! Built purely from truth tables: no litmus test is generated, checked
//! or executed. Equivalence classes come from the *normalized* tables
//! ([`crate::elide`]); the order is sound pointwise implication — `F ⊨ G`
//! on every feasible valuation means `G` forces a superset of
//! happens-before edges on every execution, so `allowed(G) ⊆ allowed(F)`
//! and `G` is the stronger model. The order is a sound lower bound on
//! the behavioural order (incomparable-here can still be ordered
//! behaviourally); equivalence via Theorem A is exact on its guarded
//! fragment.

use mcm_core::{Formula, MemoryModel};

use crate::dnf::minimized_dnf_of_table;
use crate::elide::normalize;
use crate::table::{SemanticKey, TruthTable};
use crate::universe::AtomUniverse;

/// Everything the analyzer derives about one model, statically.
#[derive(Clone, Debug)]
pub struct ModelAnalysis {
    /// The model's name.
    pub name: String,
    /// The original must-not-reorder formula.
    pub formula: Formula,
    /// The canonical semantic key (pointwise identity).
    pub key: SemanticKey,
    /// The pointwise truth table in the shared universe.
    pub table: TruthTable,
    /// The behavioural normal form (Theorem A applied when its guard
    /// holds).
    pub normalized: TruthTable,
    /// The minimized positive-DNF drop-in for the formula.
    pub minimized: Formula,
    /// Whether Theorem A actually changed the table — i.e. the model
    /// orders same-address `W→R` pairs but that ordering is provably
    /// unobservable.
    pub elided: bool,
}

/// The static strength analysis of a model set.
#[derive(Clone, Debug)]
pub struct StrengthAnalysis {
    /// The shared atom universe of the set.
    pub universe: AtomUniverse,
    /// Per-model results, in input order.
    pub models: Vec<ModelAnalysis>,
    /// Behavioural equivalence classes (indices into `models`), ordered
    /// by first member.
    pub classes: Vec<Vec<usize>>,
    /// Hasse edges `weaker → stronger` between class indices, after
    /// transitive reduction.
    pub edges: Vec<(usize, usize)>,
}

/// The cheap half of the strength analysis: every model's truth table
/// and Theorem-A-normalised table over the set's shared universe, and the
/// behavioural equivalence classes the normalised tables induce. No
/// minimised DNF, no lattice, no test executed.
#[derive(Clone, Debug)]
pub struct ModelClasses {
    /// The shared atom universe of the set.
    pub universe: AtomUniverse,
    /// Per-model pointwise truth tables, in input order.
    pub tables: Vec<TruthTable>,
    /// Per-model behavioural normal forms ([`normalize`]), in input order.
    pub normalized: Vec<TruthTable>,
    /// Behavioural equivalence classes (indices into the input), ordered
    /// by first member; members are ascending.
    pub classes: Vec<Vec<usize>>,
}

impl ModelClasses {
    /// Tabulates and classifies `models` — statically, with zero tests
    /// executed.
    #[must_use]
    pub fn build(models: &[MemoryModel]) -> Self {
        let universe = AtomUniverse::for_formulas(models.iter().map(MemoryModel::formula));
        let tables: Vec<TruthTable> = models
            .iter()
            .map(|model| TruthTable::build(model.formula(), &universe))
            .collect();
        let normalized: Vec<TruthTable> =
            tables.iter().map(|table| normalize(table, &universe)).collect();
        let mut classes: Vec<Vec<usize>> = Vec::new();
        for (i, table) in normalized.iter().enumerate() {
            match classes.iter_mut().find(|c| normalized[c[0]] == *table) {
                Some(class) => class.push(i),
                None => classes.push(vec![i]),
            }
        }
        ModelClasses {
            universe,
            tables,
            normalized,
            classes,
        }
    }

    /// How models `i` and `j` of one class are proven equivalent:
    /// `"pointwise"` (equal tables) or `"theorem-a"` (equal only after
    /// elision).
    #[must_use]
    pub fn how_equivalent(&self, i: usize, j: usize) -> &'static str {
        equivalence_kind(&self.tables[i], &self.tables[j])
    }
}

/// How two tables with equal normal forms are equivalent.
fn equivalence_kind(a: &TruthTable, b: &TruthTable) -> &'static str {
    if a == b {
        "pointwise"
    } else {
        "theorem-a"
    }
}

impl StrengthAnalysis {
    /// Analyzes `models` — statically, with zero tests executed.
    #[must_use]
    pub fn build(models: &[MemoryModel]) -> Self {
        let ModelClasses {
            universe,
            tables,
            normalized,
            classes,
        } = ModelClasses::build(models);
        let analyses: Vec<ModelAnalysis> = models
            .iter()
            .zip(tables.into_iter().zip(normalized))
            .map(|(model, (table, normalized))| ModelAnalysis {
                name: model.name().to_string(),
                formula: model.formula().clone(),
                key: SemanticKey::of(model.formula()),
                minimized: minimized_dnf_of_table(&table, &universe),
                elided: normalized != table,
                table,
                normalized,
            })
            .collect();

        // Hasse diagram of strict pointwise implication between classes.
        let n = classes.len();
        let weaker = |a: usize, b: usize| {
            let (ta, tb) = (
                &analyses[classes[a][0]].normalized,
                &analyses[classes[b][0]].normalized,
            );
            ta.implies(tb) && ta != tb
        };
        let mut edges = Vec::new();
        for a in 0..n {
            for b in 0..n {
                if a == b || !weaker(a, b) {
                    continue;
                }
                let covered =
                    (0..n).any(|c| c != a && c != b && weaker(a, c) && weaker(c, b));
                if !covered {
                    edges.push((a, b));
                }
            }
        }

        StrengthAnalysis {
            universe,
            models: analyses,
            classes,
            edges,
        }
    }

    /// The class index of model `m`.
    #[must_use]
    pub fn class_of(&self, m: usize) -> usize {
        self.classes
            .iter()
            .position(|c| c.contains(&m))
            .expect("every model is in a class")
    }

    /// All unordered pairs of distinct models proven equivalent, each
    /// tagged with how: `"pointwise"` (equal tables) or `"theorem-a"`
    /// (equal only after elision).
    #[must_use]
    pub fn equivalent_pairs(&self) -> Vec<(usize, usize, &'static str)> {
        let mut pairs = Vec::new();
        for class in &self.classes {
            for (a, &i) in class.iter().enumerate() {
                for &j in &class[a + 1..] {
                    let how = equivalence_kind(&self.models[i].table, &self.models[j].table);
                    pairs.push((i, j, how));
                }
            }
        }
        pairs
    }

    /// Class indices with no strictly weaker class (lattice bottoms).
    #[must_use]
    pub fn minimal_classes(&self) -> Vec<usize> {
        let mut excluded = vec![false; self.classes.len()];
        for &(_, stronger) in &self.edges {
            excluded[stronger] = true;
        }
        (0..self.classes.len()).filter(|&i| !excluded[i]).collect()
    }

    /// Class indices with no strictly stronger class (lattice tops).
    #[must_use]
    pub fn maximal_classes(&self) -> Vec<usize> {
        let mut excluded = vec![false; self.classes.len()];
        for &(weaker, _) in &self.edges {
            excluded[weaker] = true;
        }
        (0..self.classes.len()).filter(|&i| !excluded[i]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcm_models::named;

    #[test]
    fn tso_and_x86_are_pointwise_equivalent() {
        let analysis = StrengthAnalysis::build(&[named::tso(), named::x86(), named::sc()]);
        assert_eq!(analysis.classes.len(), 2);
        assert_eq!(analysis.equivalent_pairs(), vec![(0, 1, "pointwise")]);
    }

    #[test]
    fn the_static_chain_orders_sc_tso_pso() {
        let analysis = StrengthAnalysis::build(&[named::pso(), named::tso(), named::sc()]);
        assert_eq!(analysis.classes.len(), 3);
        // PSO → TSO → SC, transitively reduced.
        assert_eq!(analysis.edges, vec![(0, 1), (1, 2)]);
        assert_eq!(analysis.maximal_classes(), vec![2]);
        assert_eq!(analysis.minimal_classes(), vec![0]);
    }

    #[test]
    fn every_model_implies_sc_statically() {
        let models = vec![
            named::sc(),
            named::tso(),
            named::pso(),
            named::ibm370(),
            named::rmo(),
            named::alpha(),
        ];
        let analysis = StrengthAnalysis::build(&models);
        let sc = &analysis.models[0].normalized;
        for m in &analysis.models {
            assert!(m.normalized.implies(sc), "{} must imply SC", m.name);
        }
    }

    #[test]
    fn model_classes_are_the_strength_classes_on_the_90_model_space() {
        use mcm_models::DigitModel;
        let models: Vec<MemoryModel> = DigitModel::all().iter().map(DigitModel::to_model).collect();
        let classes = ModelClasses::build(&models);
        let analysis = StrengthAnalysis::build(&models);
        assert_eq!(classes.classes, analysis.classes);
        assert_eq!(classes.classes.len(), 82, "the paper's 82 classes");
        for (m, analysis) in analysis.models.iter().enumerate() {
            assert_eq!(classes.tables[m], analysis.table);
            assert_eq!(classes.normalized[m], analysis.normalized);
        }
        let pairs: Vec<_> = analysis.equivalent_pairs();
        assert_eq!(pairs.len(), 8);
        for (i, j, how) in pairs {
            assert_eq!(classes.how_equivalent(i, j), how);
        }
    }

    #[test]
    fn minimized_formulas_are_pointwise_equal_drop_ins() {
        let models = vec![named::tso(), named::rmo(), named::alpha()];
        let analysis = StrengthAnalysis::build(&models);
        for m in &analysis.models {
            assert_eq!(
                TruthTable::build(&m.minimized, &analysis.universe),
                m.table,
                "{}",
                m.name
            );
        }
    }
}
