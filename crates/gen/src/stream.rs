//! Streaming canonical-first enumeration of bounded litmus-test spaces.
//!
//! The materialize-then-dedup pipeline ([`crate::naive`] +
//! [`crate::canon::dedup`]) stores the raw bounded space before collapsing
//! it to symmetry orbits — already ~a million tests at the paper's own
//! Theorem 1 bounds, and hopeless one step past them (four accesses per
//! thread, fences, dependencies). This module inverts the order: it
//! enumerates the space lazily and emits a test **iff it is the canonical
//! leader of its own orbit** ([`crate::canon::is_leader`]), so the raw
//! space is never stored and downstream sweeps see exactly one
//! representative per orbit, in a deterministic order, from an
//! `Iterator<Item = LitmusTest>` whose live state is a single program
//! shape and one mixed-radix outcome counter.
//!
//! ## Why a leader check needs no seen-set
//!
//! Every orbit of the §2.3 symmetry group contains exactly one canonical
//! representative, and that representative uses first-use names: locations
//! `0, 1, …` in order of first appearance, registers `r1, r2, …` per
//! thread, and write values `1, 2, …` per location in program order. The
//! enumeration materialises candidates in exactly that naming convention,
//! so the canonical representative of every orbit in the bounded space is
//! itself visited, and `test == canonical(test)` — a pure, memory-free
//! predicate — keeps it and drops the rest.
//!
//! ## Pruning
//!
//! Visiting the raw space candidate-by-candidate would be wasteful, so
//! whole program *shapes* are classified before any outcome is
//! materialised (the program bytes form the prefix of the canonical
//! encoding, so permutation contests that the programs settle transfer to
//! every outcome):
//!
//! * shapes whose locations are not in global first-use order can contain
//!   no leader and are skipped without materialising anything;
//! * shapes whose identity-permutation encoding strictly beats every
//!   other thread permutation emit **all** their outcomes with no
//!   per-test canonicalization at all;
//! * only shapes with a permutation tie (symmetric programs) fall back to
//!   a per-candidate [`canon::is_leader`] check.

use std::collections::HashMap;

use mcm_core::{LitmusTest, Loc, Outcome, Program, Reg, RegExpr, ThreadId, Value};

use crate::canon;

/// Bounds of the streamed space: the naive Theorem 1 box, generalized past
/// it (up to four accesses per thread, optional fences, optional
/// `r - r + k` data dependencies).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamBounds {
    /// Maximum memory accesses per thread (Theorem 1: 3; this module
    /// supports going past it).
    pub max_accesses_per_thread: usize,
    /// Number of threads.
    pub threads: usize,
    /// Maximum distinct locations.
    pub max_locs: u8,
    /// Also enumerate an optional full fence between consecutive accesses.
    pub include_fences: bool,
    /// Also enumerate the paper's data-dependency idiom: a write may store
    /// `r - r + k` where `r` is the most recent preceding read of its
    /// thread (instead of the plain constant `k`).
    pub include_deps: bool,
}

impl Default for StreamBounds {
    fn default() -> Self {
        StreamBounds {
            max_accesses_per_thread: 3,
            threads: 2,
            max_locs: 4,
            include_fences: false,
            include_deps: false,
        }
    }
}

impl StreamBounds {
    /// Largest total test length representable in these bounds.
    #[must_use]
    pub fn max_total(&self) -> usize {
        self.threads * self.max_accesses_per_thread
    }

    /// Smallest total test length representable (one access per thread).
    #[must_use]
    pub fn min_total(&self) -> usize {
        self.threads
    }

    /// The "one step past Theorem 1" space: four accesses per thread,
    /// fences and dependencies on, over `max_locs` locations.
    #[must_use]
    pub fn size4(max_locs: u8) -> Self {
        StreamBounds {
            max_accesses_per_thread: 4,
            max_locs,
            include_fences: true,
            include_deps: true,
            ..StreamBounds::default()
        }
    }
}

/// A disjoint 1-of-N slice of a leader stream, for splitting one sweep
/// across N processes (`--shard i/n`): shard `i` keeps exactly the
/// leaders whose **global leader index** is `≡ i (mod n)`. The stripes
/// are disjoint, cover the stream, and balance load even when leader
/// density varies along the enumeration; test names stay keyed to the
/// global index, so the union of all shards is byte-identical to the
/// unsharded stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Shard {
    index: u32,
    count: u32,
}

impl Shard {
    /// A validated shard assignment: `index < count`, `count >= 1`.
    /// `Shard::new(0, 1)` is the whole stream.
    #[must_use]
    pub fn new(index: u32, count: u32) -> Option<Shard> {
        (count >= 1 && index < count).then_some(Shard { index, count })
    }

    /// Which stripe this process sweeps (0-based).
    #[must_use]
    pub fn index(&self) -> u32 {
        self.index
    }

    /// Total number of stripes.
    #[must_use]
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Whether the leader with this global index belongs to the shard.
    #[must_use]
    pub fn keeps(&self, leader_index: u64) -> bool {
        leader_index % u64::from(self.count) == u64::from(self.index)
    }
}

impl std::fmt::Display for Shard {
    /// The `i/n` notation the CLI and wire format use.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

impl std::str::FromStr for Shard {
    type Err = String;

    /// Parses the `i/n` notation; rejects `i >= n` and `n == 0`.
    fn from_str(s: &str) -> Result<Shard, String> {
        let err = || format!("shard must be i/n with i < n, got {s:?}");
        let (index, count) = s.split_once('/').ok_or_else(err)?;
        let index: u32 = index.trim().parse().map_err(|_| err())?;
        let count: u32 = count.trim().parse().map_err(|_| err())?;
        Shard::new(index, count).ok_or_else(err)
    }
}

/// One access slot of a program shape. `fence_after` inserts a full fence
/// between this access and the next; `dep` (writes only) routes the value
/// through `r - r + k` where `r` is the latest preceding read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Access {
    is_write: bool,
    loc: u8,
    fence_after: bool,
    dep: bool,
}

type ThreadShape = Vec<Access>;

/// Advances a mixed-radix odometer with `radix` possibilities per digit;
/// `false` when it wraps past the last combination.
fn advance_odometer(combo: &mut [usize], radix: usize) -> bool {
    let mut pos = 0;
    loop {
        if pos == combo.len() {
            return false;
        }
        combo[pos] += 1;
        if combo[pos] < radix {
            return true;
        }
        combo[pos] = 0;
        pos += 1;
    }
}

/// Number of outcome candidates of a shape combination: each read may
/// expect the initial value or any write to its location.
fn outcome_product(shape: &[&ThreadShape]) -> u64 {
    let mut writes = [0u64; 256];
    for thread in shape {
        for access in thread.iter() {
            if access.is_write {
                writes[access.loc as usize] += 1;
            }
        }
    }
    let mut product = 1u64;
    for thread in shape {
        for access in thread.iter() {
            if !access.is_write {
                product *= writes[access.loc as usize] + 1;
            }
        }
    }
    product
}

/// All non-empty per-thread access sequences within the bounds.
fn thread_shapes(bounds: &StreamBounds) -> Vec<ThreadShape> {
    let mut all = Vec::new();
    let mut current: ThreadShape = Vec::new();
    fn recurse(bounds: &StreamBounds, current: &mut ThreadShape, all: &mut Vec<ThreadShape>) {
        if !current.is_empty() {
            all.push(current.clone());
        }
        if current.len() == bounds.max_accesses_per_thread {
            return;
        }
        let reads_so_far = current.iter().filter(|a| !a.is_write).count();
        for is_write in [false, true] {
            for loc in 0..bounds.max_locs {
                let deps: &[bool] = if bounds.include_deps && is_write && reads_so_far > 0 {
                    &[false, true]
                } else {
                    &[false]
                };
                for &dep in deps {
                    let fences: &[bool] = if bounds.include_fences && !current.is_empty() {
                        &[false, true]
                    } else {
                        &[false]
                    };
                    for &fence_before in fences {
                        if fence_before {
                            let last = current.len() - 1;
                            current[last].fence_after = true;
                        }
                        current.push(Access {
                            is_write,
                            loc,
                            fence_after: false,
                            dep,
                        });
                        recurse(bounds, current, all);
                        current.pop();
                        if fence_before {
                            let last = current.len() - 1;
                            current[last].fence_after = false;
                        }
                    }
                }
            }
        }
    }
    recurse(bounds, &mut current, &mut all);
    all
}

/// Locations must appear in global first-use order `0, 1, 2, …` — the
/// canonical renaming always produces this, so any shape violating it
/// contains no orbit leader. (Thread order is *not* pruned here: which
/// thread permutation wins depends on the full renamed encoding, which
/// [`classify`] decides exactly.)
fn locs_first_use_ordered(shape: &[&ThreadShape]) -> bool {
    let mut next = 0u8;
    for thread in shape {
        for access in thread.iter() {
            if access.loc > next {
                return false;
            }
            if access.loc == next {
                next += 1;
            }
        }
    }
    true
}

/// How a shape's outcome space relates to orbit leadership.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ShapeMode {
    /// The identity permutation strictly wins on program bytes alone:
    /// every outcome of this shape is a leader.
    AllLeaders,
    /// Some permutation ties (or the materialization convention failed to
    /// reproduce the identity renaming): each candidate is checked with
    /// [`canon::is_leader`] individually.
    CheckEach,
}

/// A shape together with everything needed to materialise its outcomes.
struct ShapeState {
    program: Program,
    /// Values stored to each location, in program order.
    writes_per_loc: Vec<Vec<Value>>,
    /// `(thread, register, location)` of each read, in program order.
    read_slots: Vec<(u8, Reg, u8)>,
    mode: ShapeMode,
    /// Mixed-radix counter over read expectations; `None` once exhausted.
    choice: Option<Vec<usize>>,
}

impl ShapeState {
    /// Number of outcome candidates of this shape.
    fn outcome_total(&self) -> u64 {
        self.read_slots
            .iter()
            .map(|&(_, _, loc)| self.writes_per_loc[loc as usize].len() as u64 + 1)
            .product()
    }

    /// Builds the test for the current choice and advances the counter.
    fn next_candidate(&mut self, name: impl Into<String>) -> Option<LitmusTest> {
        let choice = self.choice.as_mut()?;
        let mut outcome = Outcome::new();
        for (slot, &(thread, reg, loc)) in self.read_slots.iter().enumerate() {
            let expected = match choice[slot] {
                0 => Value::INIT,
                n => self.writes_per_loc[loc as usize][n - 1],
            };
            outcome = outcome.constrain(ThreadId(thread), reg, expected);
        }
        // Advance the mixed-radix counter.
        let mut pos = 0;
        loop {
            if pos == choice.len() {
                self.choice = None;
                break;
            }
            let radix = self.writes_per_loc[self.read_slots[pos].2 as usize].len() + 1;
            choice[pos] += 1;
            if choice[pos] < radix {
                break;
            }
            choice[pos] = 0;
            pos += 1;
        }
        Some(
            LitmusTest::new(name, self.program.clone(), outcome)
                .expect("streamed shapes materialise valid tests"),
        )
    }
}

/// Per-location write values, in program order.
type WritesPerLoc = Vec<Vec<Value>>;
/// `(thread, register, location)` of each read, in program order.
type ReadSlots = Vec<(u8, Reg, u8)>;

/// Materialises a shape's base program in the canonical naming convention:
/// per-thread registers `r1, r2, …` in read order, per-location write
/// values `1, 2, …` in program order.
fn base_program(shape: &[&ThreadShape]) -> (Program, WritesPerLoc, ReadSlots) {
    let mut writes_per_loc: Vec<Vec<Value>> = vec![Vec::new(); 256];
    let mut next_value_per_loc = vec![1i64; 256];
    let mut read_slots: Vec<(u8, Reg, u8)> = Vec::new();
    let mut builder = Program::builder();
    for (t, thread) in shape.iter().enumerate() {
        builder = builder.thread();
        let mut next_reg = 1u8;
        let mut last_read: Option<Reg> = None;
        for access in thread.iter() {
            let loc = Loc(access.loc);
            if access.is_write {
                let value = Value(next_value_per_loc[access.loc as usize]);
                next_value_per_loc[access.loc as usize] += 1;
                writes_per_loc[access.loc as usize].push(value);
                builder = if access.dep {
                    let src = last_read.expect("dep writes follow a read");
                    builder.write_expr(loc, RegExpr::dep_const(src, value))
                } else {
                    builder.write(loc, value)
                };
            } else {
                let reg = Reg(next_reg);
                next_reg += 1;
                builder = builder.read(loc, reg);
                read_slots.push((u8::try_from(t).expect("thread count fits u8"), reg, access.loc));
                last_read = Some(reg);
            }
            if access.fence_after {
                builder = builder.fence();
            }
        }
    }
    let program = builder.build().expect("streamed shapes are valid programs");
    (program, writes_per_loc, read_slots)
}

/// Classifies a shape: `None` means no outcome can be a leader.
fn classify(shape: &[&ThreadShape]) -> Option<ShapeState> {
    if !locs_first_use_ordered(shape) {
        return None;
    }
    let (program, writes_per_loc, read_slots) = base_program(shape);
    // A representative test (all reads expect the initial value) fixes the
    // outcome-independent parts of the canonical machinery: the value plan
    // and the per-permutation program renamings.
    let mut rep_outcome = Outcome::new();
    for &(thread, reg, _) in &read_slots {
        rep_outcome = rep_outcome.constrain(ThreadId(thread), reg, Value::INIT);
    }
    let rep = LitmusTest::new("rep", program.clone(), rep_outcome)
        .expect("streamed shapes materialise valid tests");
    let plan = canon::value_plan(&rep);
    let threads = shape.len();
    let identity: Vec<usize> = (0..threads).collect();
    let mut identity_encoding: Option<Vec<u8>> = None;
    let mut best_other: Option<Vec<u8>> = None;
    let mut convention_holds = true;
    for perm in canon::thread_permutations(threads) {
        let (renamed, _) = canon::apply_renaming(&rep, &perm, &plan);
        let encoding = canon::encode_program(&renamed);
        if perm == identity {
            convention_holds = renamed == program;
            identity_encoding = Some(encoding);
        } else if best_other.as_ref().is_none_or(|b| encoding < *b) {
            best_other = Some(encoding);
        }
    }
    let identity_encoding = identity_encoding.expect("identity permutation always enumerated");
    let mode = if !convention_holds {
        // The materialization convention did not reproduce the identity
        // renaming (e.g. the value plan degraded below per-location mode);
        // fall back to exact per-candidate checks rather than reasoning
        // about encodings.
        ShapeMode::CheckEach
    } else {
        match best_other {
            // Another permutation strictly wins on program bytes: its full
            // encoding wins for every outcome, so no leader lives here.
            Some(other) if other < identity_encoding => return None,
            // A permutation ties on program bytes (symmetric threads): the
            // outcome bytes decide, candidate by candidate.
            Some(other) if other == identity_encoding => ShapeMode::CheckEach,
            _ => ShapeMode::AllLeaders,
        }
    };
    let choice = Some(vec![0usize; read_slots.len()]);
    Some(ShapeState {
        program,
        writes_per_loc,
        read_slots,
        mode,
        choice,
    })
}

/// A bounded-memory iterator over the orbit leaders of a streamed space.
///
/// Yields exactly one test per symmetry orbit of the bounded space — the
/// canonical representative — without ever materialising the raw space.
/// Live state is one program shape plus a mixed-radix outcome counter.
pub struct LeaderStream {
    shapes: Vec<ThreadShape>,
    /// Odometer over `shapes` (one digit per thread); `None` = exhausted.
    combo: Option<Vec<usize>>,
    current: Option<ShapeState>,
    /// Leaders yielded *by this stream* (shard-filtered).
    emitted: u64,
    /// Leaders encountered in the full stream, including those skipped by
    /// the shard filter — the global leader index used for test names.
    leaders_seen: u64,
    raw_visited: u64,
    shard: Option<Shard>,
}

impl LeaderStream {
    fn new(bounds: &StreamBounds, shard: Option<Shard>) -> Self {
        let shapes = thread_shapes(bounds);
        let combo = (bounds.threads > 0 && !shapes.is_empty())
            .then(|| vec![0usize; bounds.threads]);
        LeaderStream {
            shapes,
            combo,
            current: None,
            emitted: 0,
            leaders_seen: 0,
            raw_visited: 0,
            shard,
        }
    }

    /// Tests of the raw space visited (or skipped in bulk) so far —
    /// leaders plus everything the leader check rejected.
    #[must_use]
    pub fn raw_visited(&self) -> u64 {
        self.raw_visited
    }

    /// Leaders yielded so far (by this shard, when one is set).
    #[must_use]
    pub fn leaders_emitted(&self) -> u64 {
        self.emitted
    }

    /// Leaders of the full stream encountered so far, including those the
    /// shard filter skipped (equals [`LeaderStream::leaders_emitted`] on
    /// an unsharded stream).
    #[must_use]
    pub fn leaders_seen(&self) -> u64 {
        self.leaders_seen
    }

    /// The shard assignment, when this stream sweeps a slice.
    #[must_use]
    pub fn shard(&self) -> Option<Shard> {
        self.shard
    }

    /// The current shape combination, or `None` when exhausted.
    fn current_shape(&self) -> Option<Vec<&ThreadShape>> {
        let combo = self.combo.as_ref()?;
        Some(combo.iter().map(|&i| &self.shapes[i]).collect())
    }

    /// Advances the odometer; returns `false` when the space is exhausted.
    fn advance_combo(&mut self) -> bool {
        let Some(combo) = self.combo.as_mut() else {
            return false;
        };
        if advance_odometer(combo, self.shapes.len()) {
            true
        } else {
            self.combo = None;
            false
        }
    }
}

impl Iterator for LeaderStream {
    type Item = LitmusTest;

    fn next(&mut self) -> Option<LitmusTest> {
        loop {
            if let Some(state) = &mut self.current {
                while state.choice.is_some() {
                    let name = format!("stream-{}", self.leaders_seen);
                    let test = state
                        .next_candidate(name)
                        .expect("choice was present");
                    self.raw_visited += 1;
                    let keep = match state.mode {
                        ShapeMode::AllLeaders => true,
                        ShapeMode::CheckEach => canon::is_leader(&test),
                    };
                    if keep {
                        let global = self.leaders_seen;
                        self.leaders_seen += 1;
                        if self.shard.is_none_or(|s| s.keeps(global)) {
                            self.emitted += 1;
                            return Some(test);
                        }
                    }
                }
                self.current = None;
                if !self.advance_combo() {
                    return None;
                }
            }
            // Find the next shape that can contain a leader.
            loop {
                let shape = self.current_shape()?;
                match classify(&shape) {
                    Some(state) => {
                        self.current = Some(state);
                        break;
                    }
                    None => {
                        // Account for the skipped candidates without
                        // materialising them.
                        self.raw_visited += outcome_product(&shape);
                        if !self.advance_combo() {
                            return None;
                        }
                    }
                }
            }
        }
    }
}

/// Streams the orbit leaders of `bounds` in a deterministic order.
#[must_use]
pub fn leaders(bounds: &StreamBounds) -> LeaderStream {
    LeaderStream::new(bounds, None)
}

/// Streams only the leaders of `bounds` belonging to `shard` — one of N
/// disjoint stripes of the same deterministic enumeration. Running every
/// shard `0/n .. (n-1)/n` yields exactly the tests (and names) of
/// [`leaders`], partitioned.
#[must_use]
pub fn leaders_sharded(bounds: &StreamBounds, shard: Shard) -> LeaderStream {
    LeaderStream::new(bounds, Some(shard))
}

/// Counts the orbit leaders of `bounds` without materialising the
/// unambiguous ones: shapes whose identity permutation strictly wins
/// contribute their whole outcome product in one step; only permutation
/// ties are checked test by test.
#[must_use]
pub fn count_leaders(bounds: &StreamBounds) -> u64 {
    let mut total = 0u64;
    for_each_shape(bounds, |state| match state.mode {
        ShapeMode::AllLeaders => total += state.outcome_total(),
        ShapeMode::CheckEach => {
            let mut state = state;
            while state.choice.is_some() {
                let test = state.next_candidate("count").expect("choice present");
                if canon::is_leader(&test) {
                    total += 1;
                }
            }
        }
    });
    total
}

/// Counts the canonical *programs* (shapes modulo symmetry, ignoring
/// outcomes) within `bounds`.
#[must_use]
pub fn count_leader_programs(bounds: &StreamBounds) -> u64 {
    let mut total = 0u64;
    for_each_shape(bounds, |state| {
        // A shape is a canonical program iff its identity renaming is a
        // fixed point that no other permutation strictly beats — exactly
        // the shapes `classify` keeps in either mode, except conventions
        // that failed to reproduce the identity renaming.
        if state.mode == ShapeMode::AllLeaders || canon::is_leader(&leader_probe(&state)) {
            total += 1;
        }
    });
    total
}

/// A probe test for program-level leadership: the all-initial outcome.
fn leader_probe(state: &ShapeState) -> LitmusTest {
    let mut outcome = Outcome::new();
    for &(thread, reg, _) in &state.read_slots {
        outcome = outcome.constrain(ThreadId(thread), reg, Value::INIT);
    }
    LitmusTest::new("probe", state.program.clone(), outcome)
        .expect("streamed shapes materialise valid tests")
}

/// The raw (symmetry-unreduced) size of the bounded space — what a
/// materializing enumeration would have to store.
#[must_use]
pub fn count_raw(bounds: &StreamBounds) -> u64 {
    try_count_raw(bounds, u64::MAX).expect("uncapped count never bails")
}

/// [`count_raw`] that bails out with `None` when the number of shape
/// combinations exceeds `combo_cap`. Callers keep the cap they set when
/// counting walked every combination, so spaces past Theorem 1 with
/// fences and dependencies still report no raw size.
///
/// A combination's outcome count depends only on how many reads and
/// writes each location gets over all threads (each read expects the
/// initial value or one of its location's writes), so the count sums over
/// per-location `(reads, writes)` histograms instead of walking every
/// combination: thread shapes are grouped by histogram, and the groups
/// are convolved thread by thread.
#[must_use]
pub fn try_count_raw(bounds: &StreamBounds, combo_cap: u64) -> Option<u64> {
    let shapes = thread_shapes(bounds);
    if bounds.threads == 0 || shapes.is_empty() {
        return Some(0);
    }
    if (shapes.len() as u64).checked_pow(u32::try_from(bounds.threads).ok()?)? > combo_cap {
        return None;
    }
    // Histogram slot `2 * loc` counts reads of `loc`, `2 * loc + 1` writes.
    let histogram = |shape: &ThreadShape| {
        let mut counts = vec![0u32; 2 * usize::from(bounds.max_locs)];
        for access in shape {
            counts[2 * usize::from(access.loc) + usize::from(access.is_write)] += 1;
        }
        counts
    };
    let mut per_thread: HashMap<Vec<u32>, u64> = HashMap::new();
    for shape in &shapes {
        *per_thread.entry(histogram(shape)).or_default() += 1;
    }
    let mut combined: HashMap<Vec<u32>, u64> =
        HashMap::from([(vec![0u32; 2 * usize::from(bounds.max_locs)], 1)]);
    for _ in 0..bounds.threads {
        let mut next: HashMap<Vec<u32>, u64> = HashMap::new();
        for (sum, ways) in &combined {
            for (thread, alike) in &per_thread {
                let key = sum.iter().zip(thread).map(|(a, b)| a + b).collect();
                *next.entry(key).or_default() += ways * alike;
            }
        }
        combined = next;
    }
    Some(
        combined
            .iter()
            .map(|(counts, ways)| {
                let outcomes: u64 = counts
                    .chunks(2)
                    .map(|rw| (u64::from(rw[1]) + 1).pow(rw[0]))
                    .product();
                ways * outcomes
            })
            .sum(),
    )
}

/// Drives `f` over every shape that can contain a leader.
fn for_each_shape(bounds: &StreamBounds, mut f: impl FnMut(ShapeState)) {
    let shapes = thread_shapes(bounds);
    if bounds.threads == 0 || shapes.is_empty() {
        return;
    }
    let mut combo = vec![0usize; bounds.threads];
    loop {
        let shape: Vec<&ThreadShape> = combo.iter().map(|&i| &shapes[i]).collect();
        if let Some(state) = classify(&shape) {
            f(state);
        }
        if !advance_odometer(&mut combo, shapes.len()) {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canon;
    use crate::naive;

    fn small_bounds() -> StreamBounds {
        StreamBounds {
            max_accesses_per_thread: 2,
            threads: 2,
            max_locs: 2,
            include_fences: false,
            include_deps: false,
        }
    }

    #[test]
    fn every_streamed_test_is_its_own_canonical_form() {
        for test in leaders(&small_bounds()) {
            assert!(canon::is_leader(&test), "{} is not a leader:\n{test}", test.name());
        }
    }

    #[test]
    fn streamed_leaders_match_dedup_of_the_raw_space() {
        // The leader set must be exactly one representative per orbit of
        // the raw materialized space: same orbit fingerprints, no more,
        // no fewer.
        let bounds = small_bounds();
        let raw = naive::enumerate_tests_raw(&bounds, usize::MAX);
        let orbits = canon::dedup(&raw);
        let mut expected: Vec<u64> = orbits.fingerprints.clone();
        expected.sort_unstable();
        let mut streamed: Vec<u64> = leaders(&bounds).map(|t| canon::fingerprint(&t)).collect();
        streamed.sort_unstable();
        assert_eq!(streamed, expected);
    }

    #[test]
    fn count_leaders_matches_the_stream() {
        let bounds = small_bounds();
        assert_eq!(count_leaders(&bounds), leaders(&bounds).count() as u64);
    }

    #[test]
    fn fences_and_deps_extend_the_space() {
        let base = small_bounds();
        let with_fences = StreamBounds {
            include_fences: true,
            ..base
        };
        let with_deps = StreamBounds {
            include_deps: true,
            ..base
        };
        assert!(count_leaders(&with_fences) > count_leaders(&base));
        assert!(count_leaders(&with_deps) > count_leaders(&base));
        assert!(count_raw(&with_fences) > count_raw(&base));
    }

    #[test]
    fn fenced_and_dependent_leaders_are_canonical_fixed_points() {
        let bounds = StreamBounds {
            max_accesses_per_thread: 2,
            threads: 2,
            max_locs: 2,
            include_fences: true,
            include_deps: true,
        };
        let mut saw_fence = false;
        let mut saw_dep = false;
        for test in leaders(&bounds) {
            assert!(canon::is_leader(&test), "{test}");
            let rendered = test.program().to_string();
            saw_fence |= rendered.contains("fence");
            saw_dep |= rendered.contains(" - ");
        }
        assert!(saw_fence, "no fenced leader was streamed");
        assert!(saw_dep, "no dependency leader was streamed");
    }

    #[test]
    fn raw_visited_accounts_for_the_whole_space() {
        let bounds = small_bounds();
        let mut stream = leaders(&bounds);
        let mut kept = 0u64;
        while stream.next().is_some() {
            kept += 1;
        }
        assert_eq!(stream.leaders_emitted(), kept);
        assert_eq!(stream.raw_visited(), count_raw(&bounds));
        assert!(kept < stream.raw_visited());
    }

    #[test]
    fn histogram_count_matches_the_stream_walk_with_fences_and_deps() {
        // The stream walks every shape combination and adds up its
        // outcomes; the histogram count must agree, dependencies included
        // (the naive oracle has none).
        for (threads, max_accesses_per_thread) in [(1, 3), (2, 2), (3, 1)] {
            for max_locs in 1..=2 {
                for (include_fences, include_deps) in [(false, true), (true, true), (true, false)] {
                    let bounds = StreamBounds {
                        max_accesses_per_thread,
                        threads,
                        max_locs,
                        include_fences,
                        include_deps,
                    };
                    let mut stream = leaders(&bounds);
                    while stream.next().is_some() {}
                    assert_eq!(stream.raw_visited(), count_raw(&bounds), "{bounds:?}");
                }
            }
        }
    }

    #[test]
    fn raw_count_keeps_the_combination_cap() {
        let size4 = StreamBounds::size4(4);
        assert_eq!(try_count_raw(&size4, 20_000_000), None);
        let default = StreamBounds::default();
        assert_eq!(try_count_raw(&default, 20_000_000), Some(count_raw(&default)));
        assert_eq!(try_count_raw(&default, 1), None);
    }

    #[test]
    fn four_access_bounds_stream_without_materializing() {
        // One step past Theorem 1: the iterator must hand out tests with
        // seven or eight accesses while holding only one shape live.
        let bounds = StreamBounds {
            max_accesses_per_thread: 4,
            threads: 2,
            max_locs: 2,
            include_fences: false,
            include_deps: false,
        };
        let mut long_tests = 0;
        for test in leaders(&bounds).take(2000) {
            assert!(test.program().access_count() <= 8);
            if test.program().access_count() > 6 {
                long_tests += 1;
            }
            assert!(canon::is_leader(&test));
        }
        assert!(long_tests > 0, "no beyond-Theorem-1 test was streamed");
    }

    #[test]
    fn leader_names_are_sequential() {
        let names: Vec<String> = leaders(&small_bounds())
            .take(3)
            .map(|t| t.name().to_string())
            .collect();
        assert_eq!(names, vec!["stream-0", "stream-1", "stream-2"]);
    }

    #[test]
    fn shards_partition_the_leader_stream() {
        let bounds = small_bounds();
        let full: Vec<(String, u64)> = leaders(&bounds)
            .map(|t| (t.name().to_string(), canon::fingerprint(&t)))
            .collect();
        for n in [1u32, 2, 3] {
            let mut union: Vec<(String, u64)> = Vec::new();
            for i in 0..n {
                let shard = Shard::new(i, n).unwrap();
                let slice: Vec<(String, u64)> = leaders_sharded(&bounds, shard)
                    .map(|t| (t.name().to_string(), canon::fingerprint(&t)))
                    .collect();
                // Each shard keeps exactly the indices ≡ i (mod n), with
                // names still keyed to the global leader index.
                assert_eq!(
                    slice,
                    full.iter()
                        .enumerate()
                        .filter(|(idx, _)| shard.keeps(*idx as u64))
                        .map(|(_, t)| t.clone())
                        .collect::<Vec<_>>(),
                    "shard {shard} differs from the filtered full stream"
                );
                union.extend(slice);
            }
            union.sort();
            let mut expected = full.clone();
            expected.sort();
            assert_eq!(union, expected, "{n}-way shards must partition the stream");
        }
    }

    #[test]
    fn sharded_stream_counts_both_cursors() {
        let bounds = small_bounds();
        let total = leaders(&bounds).count() as u64;
        let mut stream = leaders_sharded(&bounds, Shard::new(1, 2).unwrap());
        let kept = stream.by_ref().count() as u64;
        assert_eq!(stream.leaders_seen(), total);
        assert_eq!(stream.leaders_emitted(), kept);
        assert_eq!(kept, total / 2);
        assert_eq!(stream.shard(), Shard::new(1, 2));
    }

    #[test]
    fn shard_notation_parses_and_rejects_nonsense() {
        let shard: Shard = "1/4".parse().unwrap();
        assert_eq!((shard.index(), shard.count()), (1, 4));
        assert_eq!(shard.to_string(), "1/4");
        assert_eq!(" 0 / 1 ".trim().parse::<Shard>().unwrap(), Shard::new(0, 1).unwrap());
        for bad in ["", "2", "2/2", "3/2", "1/0", "a/b", "1/2/3", "-1/2"] {
            assert!(bad.parse::<Shard>().is_err(), "{bad:?} must not parse");
        }
        assert!(Shard::new(0, 0).is_none());
        assert!(Shard::new(2, 2).is_none());
    }
}
