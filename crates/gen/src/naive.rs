//! Naive bounded enumeration of litmus tests (the baseline §3.4 compares
//! against).
//!
//! Materializes every two-thread program within the Theorem 1 bounds (up
//! to three memory accesses per thread) together with every value-shape
//! outcome, with no symmetry reduction at all. The paper reports
//! "approximately a million tests even without dependencies" for this
//! strategy versus 124/230 template instantiations. The raw size is
//! counted by [`crate::stream::count_raw`] and the orbit leaders are
//! streamed by [`crate::stream::leaders`]; this module is the independent
//! reference that the canonicalization and stream tests compare both
//! against, so it shares no enumeration code with them.

use mcm_core::{LitmusTest, Loc, Outcome, Program, Reg, ThreadId, Value};

use crate::stream::StreamBounds;

/// One access in a naive program shape: `(is_write, location, fence_after)`.
type Shape = Vec<Vec<(bool, u8, bool)>>;

fn thread_shapes(bounds: &StreamBounds) -> Vec<Vec<(bool, u8, bool)>> {
    let mut all = Vec::new();
    let mut current = Vec::new();
    fn recurse(
        bounds: &StreamBounds,
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

/// Materialises up to `limit` tests of the bounded space **without** any
/// symmetry reduction: every location labelling and thread ordering. This
/// is the truly naive baseline, [`crate::stream::count_raw`] tests in all;
/// `mcm_gen::canon::dedup` recovers the reduction lazily performed by the
/// leader stream (more than 3× at two accesses per thread, as `canon`'s
/// tests pin).
///
/// # Panics
///
/// If `bounds.include_deps` is set: the naive baseline enumerates only
/// constant writes.
#[must_use]
pub fn enumerate_tests_raw(bounds: &StreamBounds, limit: usize) -> Vec<LitmusTest> {
    assert!(
        !bounds.include_deps,
        "the naive enumeration has no dependency idioms"
    );
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
    use crate::{canon, stream};

    fn small_bounds(include_fences: bool) -> StreamBounds {
        StreamBounds {
            max_accesses_per_thread: 2,
            threads: 2,
            max_locs: 2,
            include_fences,
            include_deps: false,
        }
    }

    #[test]
    fn tiny_bounds_count_by_hand() {
        // 1 thread, 1 access, 1 location: the raw space and its orbits are
        // both R0 (read the initial value) and W0.
        let bounds = StreamBounds {
            max_accesses_per_thread: 1,
            threads: 1,
            max_locs: 1,
            ..small_bounds(false)
        };
        assert_eq!(enumerate_tests_raw(&bounds, usize::MAX).len(), 2);
        assert_eq!(stream::count_leader_programs(&bounds), 2);
        // R0 has one outcome (init); W0 has one (no reads): 2 tests.
        assert_eq!(stream::count_leaders(&bounds), 2);
    }

    #[test]
    fn enumeration_matches_count_on_small_bounds() {
        // The raw enumeration materialises exactly the space the stream
        // counts by per-location histogram, over thread counts, access
        // bounds, location bounds and fences.
        let mut checked = 0;
        for threads in 1..=3 {
            for max_accesses_per_thread in 1..=3 {
                for max_locs in 1..=3 {
                    for include_fences in [false, true] {
                        let bounds = StreamBounds {
                            max_accesses_per_thread,
                            threads,
                            max_locs,
                            include_fences,
                            include_deps: false,
                        };
                        // Keep the materialised oracle small.
                        if stream::count_raw(&bounds) > 5_000 {
                            continue;
                        }
                        let tests = enumerate_tests_raw(&bounds, usize::MAX);
                        assert_eq!(tests.len() as u64, stream::count_raw(&bounds), "{bounds:?}");
                        // Every materialised test is well-formed (constructor validated).
                        for test in &tests {
                            assert!(test.program().access_count() <= bounds.max_total());
                        }
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked >= 20, "only {checked} bounds were small enough");
    }

    #[test]
    fn enumerated_tests_are_orbit_leaders() {
        // The canonical enumeration is exactly the leader set: dedup finds
        // nothing left to collapse, and every test is a canon fixed point.
        let tests: Vec<LitmusTest> = stream::leaders(&small_bounds(true)).collect();
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
        let bounds = small_bounds(false);
        let orbits = canon::dedup(&enumerate_tests_raw(&bounds, usize::MAX));
        assert_eq!(stream::count_leaders(&bounds), orbits.len() as u64);
    }

    #[test]
    fn default_bounds_are_order_of_magnitude_million() {
        // The paper: "approximately million tests even without
        // dependencies" — that is the raw, symmetry-unreduced count.
        assert_eq!(stream::count_raw(&StreamBounds::default()), 1_340_528);
    }

    #[test]
    fn fences_increase_the_count() {
        let raw = |fences| enumerate_tests_raw(&small_bounds(fences), usize::MAX).len();
        assert!(raw(true) > raw(false));
        assert!(
            stream::count_leaders(&small_bounds(true)) > stream::count_leaders(&small_bounds(false))
        );
    }

    #[test]
    #[should_panic(expected = "no dependency idioms")]
    fn dependencies_are_rejected() {
        let _ = enumerate_tests_raw(
            &StreamBounds {
                include_deps: true,
                ..small_bounds(false)
            },
            1,
        );
    }
}
