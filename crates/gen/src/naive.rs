//! Naive bounded enumeration of litmus tests (the baseline §3.4 compares
//! against).
//!
//! Enumerates every two-thread program within the Theorem 1 bounds (up to
//! three memory accesses per thread) together with every value-shape
//! outcome. The paper reports "approximately a million tests even without
//! dependencies" for this strategy versus 124/230 template instantiations
//! — this module reproduces that comparison.
//!
//! The symmetry quotient is delegated to [`crate::stream`]: the canonical
//! counts and enumerations here are defined as **orbit leaders** of the
//! full §2.3 group (thread permutation, location/register renaming and
//! per-location value renaming), not the looser shape-level filter earlier
//! revisions used — that filter was blind to fences and value symmetry
//! and therefore under-deduplicated, disagreeing with
//! [`crate::canon::canonical`].

use mcm_core::{LitmusTest, Loc, Outcome, Program, Reg, ThreadId, Value};

use crate::stream::{self, StreamBounds};

/// Bounds for the naive enumeration.
#[derive(Clone, Copy, Debug)]
pub struct NaiveBounds {
    /// Maximum memory accesses per thread (Theorem 1: 3).
    pub max_accesses_per_thread: usize,
    /// Number of threads (Theorem 1: 2).
    pub threads: usize,
    /// Maximum distinct locations (4 suffices for six accesses).
    pub max_locs: u8,
    /// Whether to also enumerate an optional full fence between
    /// consecutive accesses.
    pub include_fences: bool,
}

impl Default for NaiveBounds {
    fn default() -> Self {
        NaiveBounds {
            max_accesses_per_thread: 3,
            threads: 2,
            max_locs: 4,
            include_fences: false,
        }
    }
}

/// One access in a naive program shape: `(is_write, location, fence_after)`.
type Shape = Vec<Vec<(bool, u8, bool)>>;

fn thread_shapes(bounds: &NaiveBounds) -> Vec<Vec<(bool, u8, bool)>> {
    let mut all = Vec::new();
    let mut current = Vec::new();
    fn recurse(
        bounds: &NaiveBounds,
        current: &mut Vec<(bool, u8, bool)>,
        all: &mut Vec<Vec<(bool, u8, bool)>>,
    ) {
        if !current.is_empty() {
            all.push(current.clone());
        }
        if current.len() == bounds.max_accesses_per_thread {
            return;
        }
        for is_write in [false, true] {
            for loc in 0..bounds.max_locs {
                let fences = if bounds.include_fences && !current.is_empty() {
                    vec![false, true]
                } else {
                    vec![false]
                };
                for fence_before in fences {
                    if fence_before {
                        let last = current.len() - 1;
                        current[last].2 = true;
                    }
                    current.push((is_write, loc, false));
                    recurse(bounds, current, all);
                    current.pop();
                    if fence_before {
                        let last = current.len() - 1;
                        current[last].2 = false;
                    }
                }
            }
        }
    }
    recurse(bounds, &mut current, &mut all);
    all
}

/// Number of outcome choices: every read may expect the initial value or
/// the value of any write to its location.
fn outcome_count(shape: &Shape) -> u64 {
    let mut writes_per_loc = [0u64; 256];
    for thread in shape {
        for &(is_write, loc, _) in thread {
            if is_write {
                writes_per_loc[loc as usize] += 1;
            }
        }
    }
    let mut count = 1u64;
    for thread in shape {
        for &(is_write, loc, _) in thread {
            if !is_write {
                count *= writes_per_loc[loc as usize] + 1;
            }
        }
    }
    count
}

/// Counts the canonical naive tests within `bounds` without materialising
/// the raw space: one count per **orbit leader** of the full §2.3
/// symmetry group, exactly the tests [`enumerate_tests`] yields.
#[must_use]
pub fn count_tests(bounds: &NaiveBounds) -> u64 {
    stream::count_leaders(&StreamBounds::from(bounds))
}

/// Counts the naive tests *without* any symmetry reduction — the paper's
/// "approximately million tests even without dependencies" figure.
#[must_use]
pub fn count_tests_raw(bounds: &NaiveBounds) -> u64 {
    let threads = thread_shapes(bounds);
    let mut total = 0u64;
    let mut stack: Shape = Vec::new();
    fn recurse(threads: &[Vec<(bool, u8, bool)>], remaining: usize, stack: &mut Shape, total: &mut u64) {
        if remaining == 0 {
            *total += outcome_count(stack);
            return;
        }
        for t in threads {
            stack.push(t.clone());
            recurse(threads, remaining - 1, stack, total);
            stack.pop();
        }
    }
    recurse(&threads, bounds.threads, &mut stack, &mut total);
    total
}

/// Counts only the canonical program shapes (ignoring outcomes), i.e. one
/// per program orbit under the §2.3 symmetries.
#[must_use]
pub fn count_programs(bounds: &NaiveBounds) -> u64 {
    stream::count_leader_programs(&StreamBounds::from(bounds))
}

/// Materialises the canonical naive tests: the orbit leaders of the
/// bounded space, in the deterministic order of [`stream::leaders`]. Only
/// sensible for small bounds or small `limit`s.
#[must_use]
pub fn enumerate_tests(bounds: &NaiveBounds, limit: usize) -> Vec<LitmusTest> {
    stream::leaders(&StreamBounds::from(bounds)).take(limit).collect()
}

/// Like [`enumerate_tests`] but **without** any symmetry reduction: every
/// location labelling and thread ordering is materialised. This is the
/// truly naive baseline ([`count_tests_raw`]); `mcm_gen::canon::dedup`
/// recovers the reduction lazily performed by the leader stream (more
/// than 3× at two accesses per thread, as `canon`'s tests pin).
#[must_use]
pub fn enumerate_tests_raw(bounds: &NaiveBounds, limit: usize) -> Vec<LitmusTest> {
    let threads = thread_shapes(bounds);
    let mut tests = Vec::new();
    let mut stack: Shape = Vec::new();
    enumerate_rec(&threads, bounds.threads, &mut stack, &mut tests, limit);
    tests
}

fn enumerate_rec(
    threads: &[Vec<(bool, u8, bool)>],
    remaining: usize,
    stack: &mut Shape,
    tests: &mut Vec<LitmusTest>,
    limit: usize,
) {
    if tests.len() >= limit {
        return;
    }
    if remaining == 0 {
        materialise(stack, tests, limit);
        return;
    }
    for t in threads {
        stack.push(t.clone());
        enumerate_rec(threads, remaining - 1, stack, tests, limit);
        stack.pop();
        if tests.len() >= limit {
            return;
        }
    }
}

fn materialise(shape: &Shape, tests: &mut Vec<LitmusTest>, limit: usize) {
    // Assign write values and collect read slots.
    let mut writes_per_loc: Vec<Vec<Value>> = vec![Vec::new(); 256];
    let mut next_value = 1i64;
    for thread in shape.iter() {
        for &(is_write, loc, _) in thread {
            if is_write {
                writes_per_loc[loc as usize].push(Value(next_value));
                next_value += 1;
            }
        }
    }
    // Candidate expectations per read, in (thread, access) order.
    let mut read_slots: Vec<(usize, usize, u8)> = Vec::new();
    for (t, thread) in shape.iter().enumerate() {
        for (i, &(is_write, loc, _)) in thread.iter().enumerate() {
            if !is_write {
                read_slots.push((t, i, loc));
            }
        }
    }
    let mut choice = vec![0usize; read_slots.len()];
    loop {
        if tests.len() >= limit {
            return;
        }
        build_test(shape, &writes_per_loc, &read_slots, &choice, tests);
        // Advance the mixed-radix counter.
        let mut pos = 0;
        loop {
            if pos == read_slots.len() {
                return;
            }
            let radix = writes_per_loc[read_slots[pos].2 as usize].len() + 1;
            choice[pos] += 1;
            if choice[pos] < radix {
                break;
            }
            choice[pos] = 0;
            pos += 1;
        }
    }
}

fn build_test(
    shape: &Shape,
    writes_per_loc: &[Vec<Value>],
    read_slots: &[(usize, usize, u8)],
    choice: &[usize],
    tests: &mut Vec<LitmusTest>,
) {
    let mut builder = Program::builder();
    let mut outcome = Outcome::new();
    let mut next_value = 1i64;
    let mut next_reg = 1u8;
    let mut slot = 0usize;
    for (t, thread) in shape.iter().enumerate() {
        builder = builder.thread();
        for &(is_write, loc, fence_after) in thread {
            if is_write {
                builder = builder.write(Loc(loc), Value(next_value));
                next_value += 1;
            } else {
                let reg = Reg(next_reg);
                next_reg += 1;
                builder = builder.read(Loc(loc), reg);
                let candidates = &writes_per_loc[loc as usize];
                let expected = if choice[slot] == 0 {
                    Value::INIT
                } else {
                    candidates[choice[slot] - 1]
                };
                debug_assert_eq!(read_slots[slot].0, t);
                outcome = outcome.constrain(ThreadId(t as u8), reg, expected);
                slot += 1;
            }
            if fence_after {
                builder = builder.fence();
            }
        }
    }
    let program = builder.build().expect("naive shapes are valid programs");
    let name = format!("naive-{}", tests.len());
    tests.push(LitmusTest::new(name, program, outcome).expect("constrained all reads"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canon;

    #[test]
    fn tiny_bounds_count_by_hand() {
        // 1 thread, 1 access, 1 location: orbits are R0 (read the initial
        // value) and W0.
        let bounds = NaiveBounds {
            max_accesses_per_thread: 1,
            threads: 1,
            max_locs: 1,
            include_fences: false,
        };
        assert_eq!(count_programs(&bounds), 2);
        // R0 has one outcome (init); W0 has one (no reads): 2 tests.
        assert_eq!(count_tests(&bounds), 2);
    }

    #[test]
    fn enumeration_matches_count_on_small_bounds() {
        let bounds = NaiveBounds {
            max_accesses_per_thread: 2,
            threads: 2,
            max_locs: 2,
            include_fences: false,
        };
        let count = count_tests(&bounds);
        let tests = enumerate_tests(&bounds, usize::MAX);
        assert_eq!(tests.len() as u64, count);
        // Every materialised test is well-formed (constructor validated).
        for test in &tests {
            assert!(test.program().access_count() <= 4);
        }
    }

    #[test]
    fn enumerated_tests_are_orbit_leaders() {
        // The canonical enumeration is exactly the leader set: dedup finds
        // nothing left to collapse, and every test is a canon fixed point.
        let bounds = NaiveBounds {
            max_accesses_per_thread: 2,
            threads: 2,
            max_locs: 2,
            include_fences: true,
        };
        let tests = enumerate_tests(&bounds, usize::MAX);
        let orbits = canon::dedup(&tests);
        assert_eq!(orbits.len(), tests.len(), "leader set must be dedup-free");
        for test in &tests {
            assert!(canon::is_leader(test), "{}", test.name());
        }
    }

    #[test]
    fn leader_quotient_is_sharper_than_the_old_shape_filter() {
        // The retired shape-level filter (location renaming + fence-blind
        // thread sort) kept 41 tests on these bounds; the true §2.3
        // quotient — which also sees value symmetry and fences — keeps
        // fewer, and exactly matches dedup of the raw space.
        let bounds = NaiveBounds {
            max_accesses_per_thread: 2,
            threads: 2,
            max_locs: 2,
            include_fences: false,
        };
        let raw = enumerate_tests_raw(&bounds, usize::MAX);
        let orbits = canon::dedup(&raw);
        assert_eq!(count_tests(&bounds), orbits.len() as u64);
    }

    #[test]
    fn default_bounds_are_order_of_magnitude_million() {
        // The paper: "approximately million tests even without
        // dependencies" — that is the raw, symmetry-unreduced count.
        let raw = count_tests_raw(&NaiveBounds::default());
        assert!(raw > 100_000, "got {raw}");
        assert!(raw < 100_000_000, "got {raw}");
    }

    #[test]
    fn fences_increase_the_count() {
        let bounds = NaiveBounds {
            max_accesses_per_thread: 2,
            threads: 2,
            max_locs: 2,
            include_fences: false,
        };
        let without = count_tests(&bounds);
        let with = count_tests(&NaiveBounds {
            include_fences: true,
            ..bounds
        });
        assert!(with > without);
    }
}
