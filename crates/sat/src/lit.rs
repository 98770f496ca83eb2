//! Variables, literals and three-valued assignments.

use std::fmt;
use std::ops::Not;

/// A propositional variable, numbered from zero.
///
/// Variables are created through [`crate::Solver::new_var`]; the solver only
/// accepts literals over variables it has allocated.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Var(pub(crate) u32);

impl Var {
    /// Creates a variable from a raw zero-based index.
    ///
    /// Mostly useful for tests and for decoding external formats; prefer
    /// [`crate::Solver::new_var`] when driving a solver.
    ///
    /// # Panics
    ///
    /// Panics when `index` does not fit the 32-bit variable space; use
    /// [`Var::try_from_index`] when the index comes from untrusted input
    /// (the DIMACS parser does).
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        Var::try_from_index(index).expect("variable index out of range")
    }

    /// Fallible [`Var::from_index`]: `None` when `index` exceeds the
    /// 32-bit variable space (literal encoding reserves the low bit, so
    /// indices above `u32::MAX / 2` would also overflow the watch lists).
    #[must_use]
    pub fn try_from_index(index: usize) -> Option<Self> {
        u32::try_from(index)
            .ok()
            .filter(|&i| i <= u32::MAX >> 1)
            .map(Var)
    }

    /// The zero-based index of this variable.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The positive literal of this variable.
    #[must_use]
    pub fn positive(self) -> Lit {
        Lit(self.0 << 1)
    }

    /// The negative literal of this variable.
    #[must_use]
    pub fn negative(self) -> Lit {
        Lit(self.0 << 1 | 1)
    }

    /// The literal of this variable with the given polarity.
    #[must_use]
    pub fn lit(self, positive: bool) -> Lit {
        if positive {
            self.positive()
        } else {
            self.negative()
        }
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A literal: a variable together with a polarity.
///
/// Encoded as `var << 1 | negated` so that a literal and its negation are
/// adjacent codes, which the watch lists exploit.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Lit(pub(crate) u32);

impl Lit {
    /// A dense code usable as an array index: `2 * var + negated`.
    #[must_use]
    pub fn code(self) -> usize {
        self.0 as usize
    }

    /// The underlying variable.
    #[must_use]
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Whether this is the positive literal of its variable.
    #[must_use]
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    /// Evaluates the literal under an assignment of its variable.
    #[must_use]
    pub fn apply(self, var_value: bool) -> bool {
        var_value == self.is_positive()
    }
}

impl Not for Lit {
    type Output = Lit;

    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_positive() {
            write!(f, "{}", self.var())
        } else {
            write!(f, "!{}", self.var())
        }
    }
}

/// Three-valued truth assignment used inside the solver.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum LBool {
    /// Assigned true.
    True,
    /// Assigned false.
    False,
    /// Not yet assigned.
    #[default]
    Undef,
}

impl LBool {
    /// Converts to an optional boolean (`Undef` becomes `None`).
    #[must_use]
    pub fn to_option(self) -> Option<bool> {
        match self {
            LBool::True => Some(true),
            LBool::False => Some(false),
            LBool::Undef => None,
        }
    }

    /// Builds from a boolean.
    #[must_use]
    pub fn from_bool(value: bool) -> Self {
        if value {
            LBool::True
        } else {
            LBool::False
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_codes_are_adjacent() {
        let v = Var::from_index(3);
        assert_eq!(v.positive().code(), 6);
        assert_eq!(v.negative().code(), 7);
        assert_eq!(v.positive().var(), v);
        assert_eq!(v.negative().var(), v);
    }

    #[test]
    fn try_from_index_bounds_the_variable_space() {
        assert_eq!(Var::try_from_index(0), Some(Var(0)));
        let max = (u32::MAX >> 1) as usize;
        assert_eq!(Var::try_from_index(max), Some(Var(u32::MAX >> 1)));
        assert_eq!(Var::try_from_index(max + 1), None);
        assert_eq!(Var::try_from_index(usize::MAX), None);
        // The largest admissible variable still has both literal codes.
        let v = Var::try_from_index(max).unwrap();
        assert_eq!(v.positive().var(), v);
        assert_eq!(v.negative().var(), v);
    }

    #[test]
    fn negation_flips_polarity() {
        let v = Var::from_index(0);
        let p = v.positive();
        assert!(p.is_positive());
        assert!(!(!p).is_positive());
        assert_eq!(!!p, p);
    }

    #[test]
    fn lit_with_polarity_matches_constructors() {
        let v = Var::from_index(5);
        assert_eq!(v.lit(true), v.positive());
        assert_eq!(v.lit(false), v.negative());
    }

    #[test]
    fn apply_respects_polarity() {
        let v = Var::from_index(1);
        assert!(v.positive().apply(true));
        assert!(!v.positive().apply(false));
        assert!(v.negative().apply(false));
        assert!(!v.negative().apply(true));
    }

    #[test]
    fn display_forms() {
        let v = Var::from_index(2);
        assert_eq!(v.positive().to_string(), "x2");
        assert_eq!(v.negative().to_string(), "!x2");
    }

    #[test]
    fn lbool_round_trips() {
        assert_eq!(LBool::from_bool(true).to_option(), Some(true));
        assert_eq!(LBool::from_bool(false).to_option(), Some(false));
        assert_eq!(LBool::Undef.to_option(), None);
    }
}
