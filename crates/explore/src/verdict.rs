//! Per-model verdict vectors over a test suite.

use std::fmt;

/// The verdicts of one memory model over an ordered suite of litmus tests:
/// bit `i` set means test `i`'s outcome is **allowed**.
///
/// A model is a set of allowed executions (§2.1), so over a fixed suite
/// the vector is a finite fingerprint: `M1 ⊆ M2` restricted to the suite
/// is pointwise bit implication, and Theorem 1 guarantees the suite is
/// rich enough for the fingerprint to decide equality exactly.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct VerdictVector {
    bits: Vec<u64>,
    len: usize,
}

impl VerdictVector {
    /// An all-forbidden vector over `len` tests.
    #[must_use]
    pub fn new(len: usize) -> Self {
        VerdictVector {
            bits: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of tests.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the suite is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets the verdict of test `i`.
    pub fn set(&mut self, i: usize, allowed: bool) {
        assert!(i < self.len, "test index out of range");
        if allowed {
            self.bits[i / 64] |= 1 << (i % 64);
        } else {
            self.bits[i / 64] &= !(1 << (i % 64));
        }
    }

    /// The verdict of test `i`.
    #[must_use]
    pub fn allowed(&self, i: usize) -> bool {
        assert!(i < self.len, "test index out of range");
        self.bits[i / 64] >> (i % 64) & 1 == 1
    }

    /// Pointwise implication: everything this model allows, `other` allows
    /// too. Because weaker models allow more executions, `self.subset_of
    /// (other)` means *self is the stronger (or equal) model* — it
    /// corresponds to the paper's `M_self ⊆ M_other`.
    #[must_use]
    pub fn subset_of(&self, other: &VerdictVector) -> bool {
        assert_eq!(self.len, other.len, "vectors over different suites");
        self.bits
            .iter()
            .zip(&other.bits)
            .all(|(a, b)| a & !b == 0)
    }

    /// The packed 64-bit words backing the vector (bit `i` of word
    /// `i / 64` is test `i`), exposed so checkpoint serializers can
    /// persist the vector without re-walking every bit.
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.bits
    }

    /// Rebuilds a vector from its packed words and length (the inverse of
    /// [`VerdictVector::words`]). Returns `None` when the word count does
    /// not match the length or padding bits beyond `len` are set —
    /// corrupt checkpoints are rejected instead of resurfacing as wrong
    /// verdicts.
    #[must_use]
    pub fn from_words(words: Vec<u64>, len: usize) -> Option<Self> {
        if words.len() != len.div_ceil(64) {
            return None;
        }
        if !len.is_multiple_of(64) {
            if let Some(&last) = words.last() {
                if last >> (len % 64) != 0 {
                    return None;
                }
            }
        }
        Some(VerdictVector { bits: words, len })
    }

    /// Indices where the two vectors disagree.
    #[must_use]
    pub fn diff_indices(&self, other: &VerdictVector) -> Vec<usize> {
        assert_eq!(self.len, other.len, "vectors over different suites");
        let mut out = Vec::new();
        for (w, (a, b)) in self.bits.iter().zip(&other.bits).enumerate() {
            let mut mask = a ^ b;
            while mask != 0 {
                let bit = mask.trailing_zeros() as usize;
                let idx = w * 64 + bit;
                if idx < self.len {
                    out.push(idx);
                }
                mask &= mask - 1;
            }
        }
        out
    }
}

impl fmt::Display for VerdictVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.len {
            write!(f, "{}", if self.allowed(i) { '1' } else { '0' })?;
        }
        Ok(())
    }
}

/// How two models relate over a suite (and, by Theorem 1, in general when
/// the suite is a complete template suite).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Relation {
    /// Identical verdicts: equivalent models.
    Equivalent,
    /// The left model allows strictly fewer outcomes (is strictly
    /// stronger): `M_left ⊊ M_right`.
    StrictlyStronger,
    /// The left model allows strictly more outcomes (is strictly weaker).
    StrictlyWeaker,
    /// Each model allows an outcome the other forbids.
    Incomparable,
}

impl Relation {
    /// Classifies two verdict vectors.
    #[must_use]
    pub fn classify(left: &VerdictVector, right: &VerdictVector) -> Relation {
        match (left.subset_of(right), right.subset_of(left)) {
            (true, true) => Relation::Equivalent,
            (true, false) => Relation::StrictlyStronger,
            (false, true) => Relation::StrictlyWeaker,
            (false, false) => Relation::Incomparable,
        }
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Relation::Equivalent => write!(f, "equivalent"),
            Relation::StrictlyStronger => write!(f, "strictly stronger"),
            Relation::StrictlyWeaker => write!(f, "strictly weaker"),
            Relation::Incomparable => write!(f, "incomparable"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vector(bits: &[bool]) -> VerdictVector {
        let mut v = VerdictVector::new(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            v.set(i, b);
        }
        v
    }

    #[test]
    fn set_get_roundtrip_across_word_boundaries() {
        let mut v = VerdictVector::new(130);
        v.set(0, true);
        v.set(63, true);
        v.set(64, true);
        v.set(129, true);
        assert!(v.allowed(0) && v.allowed(63) && v.allowed(64) && v.allowed(129));
        assert!(!v.allowed(1) && !v.allowed(65));
        assert_eq!((0..130).filter(|&i| v.allowed(i)).count(), 4);
        v.set(64, false);
        assert!(!v.allowed(64));
    }

    #[test]
    fn words_roundtrip_and_reject_corruption() {
        let v = vector(&(0..130).map(|i| i % 5 == 0).collect::<Vec<_>>());
        let rebuilt = VerdictVector::from_words(v.words().to_vec(), v.len()).unwrap();
        assert_eq!(rebuilt, v);
        // Wrong word count and dirty padding bits are both rejected.
        assert!(VerdictVector::from_words(vec![0; 3], 70).is_none());
        assert!(VerdictVector::from_words(vec![u64::MAX], 3).is_none());
        assert!(VerdictVector::from_words(Vec::new(), 0).is_some());
    }

    #[test]
    fn classification() {
        let a = vector(&[true, false, true]);
        let b = vector(&[true, true, true]);
        let c = vector(&[false, true, false]);
        assert_eq!(Relation::classify(&a, &a), Relation::Equivalent);
        assert_eq!(Relation::classify(&a, &b), Relation::StrictlyStronger);
        assert_eq!(Relation::classify(&b, &a), Relation::StrictlyWeaker);
        assert_eq!(Relation::classify(&a, &c), Relation::Incomparable);
    }

    #[test]
    fn diff_indices_are_exact() {
        let a = vector(&[true, false, true, false]);
        let b = vector(&[true, true, false, false]);
        assert_eq!(a.diff_indices(&b), vec![1, 2]);
        assert_eq!(a.diff_indices(&a), Vec::<usize>::new());
    }

    #[test]
    fn display_is_bitstring() {
        assert_eq!(vector(&[true, false, true]).to_string(), "101");
    }
}
