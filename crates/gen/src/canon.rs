//! Canonicalization of litmus tests under the paper's symmetries (§2.3).
//!
//! §2.3 requires every predicate in the model class to "preserve some
//! symmetry": verdicts are invariant under
//!
//! * **thread permutation** — threads are unordered;
//! * **location renaming** — any injective renaming of shared locations;
//! * **register renaming** — registers are thread-local names;
//! * **value renaming** — any injective renaming of written/expected
//!   values that fixes the initial value `0` (values only matter through
//!   equality with writes and with the initial state).
//!
//! Two tests in the same orbit of this symmetry group therefore receive
//! the same verdict from *every* model in the class, so a checker only
//! ever needs to run on one representative per orbit. This module computes
//! a canonical representative (the lexicographically least encoding over
//! all thread permutations, with names normalised to first-use order), a
//! 64-bit [`fingerprint`] of that representative, and a [`dedup`] pass
//! that collapses a suite to its orbit representatives. Sweeps never
//! call it: the leader stream ([`crate::stream`]) yields one
//! representative per orbit to begin with, and a verdict cache keys tests
//! by [`fingerprint`].
//!
//! ## Example
//!
//! Store buffering is symmetric under swapping its threads:
//!
//! ```
//! use mcm_core::{LitmusTest, Loc, Outcome, Program, Reg, ThreadId, Value};
//! use mcm_gen::canon;
//!
//! # fn main() -> Result<(), mcm_core::CoreError> {
//! let sb = |first: Loc, second: Loc| -> Result<LitmusTest, mcm_core::CoreError> {
//!     let program = Program::builder()
//!         .thread().write(first, Value(1)).read(second, Reg(1))
//!         .thread().write(second, Value(1)).read(first, Reg(2))
//!         .build()?;
//!     let outcome = Outcome::new()
//!         .constrain(ThreadId(0), Reg(1), Value(0))
//!         .constrain(ThreadId(1), Reg(2), Value(0));
//!     LitmusTest::new("SB", program, outcome)
//! };
//! let a = sb(Loc::X, Loc::Y)?;
//! let b = sb(Loc::Y, Loc::X)?; // same test, threads/locations swapped
//! assert_eq!(canon::fingerprint(&a), canon::fingerprint(&b));
//! assert_eq!(
//!     canon::canonicalize(&a).program(),
//!     canon::canonicalize(&b).program(),
//! );
//! # Ok(())
//! # }
//! ```

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};

use mcm_core::{
    AddrExpr, FenceKind, Instruction, LitmusTest, Loc, Outcome, Program, Reg, RegExpr, Thread,
    ThreadId, Value,
};

/// Threads above this count fall back to the identity permutation (the
/// suite's tests all have two threads; `n!` enumeration is only attempted
/// for tiny `n`).
const MAX_PERMUTED_THREADS: usize = 4;

/// A test together with its canonical form and fingerprint.
#[derive(Clone, Debug)]
pub struct Canonical {
    /// The canonical representative (same name/description as the input).
    pub test: LitmusTest,
    /// Hash of the canonical encoding: equal for every member of a
    /// symmetry orbit, and (up to 64-bit hash collisions) distinct across
    /// orbits.
    pub fingerprint: u64,
    encoding: Vec<u8>,
}

/// Computes the canonical form and fingerprint of a test in one pass.
#[must_use]
pub fn canonical(test: &LitmusTest) -> Canonical {
    let plan = value_plan(test);
    let threads = test.program().threads.len();
    let mut best: Option<(Vec<u8>, Program, Outcome)> = None;
    for perm in thread_permutations(threads) {
        let (program, outcome) = apply_renaming(test, &perm, &plan);
        let encoding = encode(&program, &outcome);
        let better = match &best {
            None => true,
            Some((e, _, _)) => encoding < *e,
        };
        if better {
            best = Some((encoding, program, outcome));
        }
    }
    let (encoding, program, outcome) = best.expect("at least the identity permutation");
    let canonical_test = LitmusTest::new(test.name(), program, outcome)
        .expect("canonicalization preserves well-formedness")
        .with_description(test.description());
    let mut hasher = DefaultHasher::new();
    encoding.hash(&mut hasher);
    Canonical {
        test: canonical_test,
        fingerprint: hasher.finish(),
        encoding,
    }
}

/// The canonical representative of `test`'s symmetry orbit.
///
/// Idempotent: canonicalizing a canonical test is a no-op (structurally),
/// and verdict-preserving for every model in the paper's class.
#[must_use]
pub fn canonicalize(test: &LitmusTest) -> LitmusTest {
    canonical(test).test
}

/// A 64-bit fingerprint of `test`'s symmetry orbit, suitable as a cache
/// key for (model, test) verdict memoization.
#[must_use]
pub fn fingerprint(test: &LitmusTest) -> u64 {
    canonical(test).fingerprint
}

/// Whether `test` is the **leader** (canonical representative) of its own
/// symmetry orbit: canonicalizing it is structurally a no-op.
///
/// This is the emission predicate of the streaming enumeration
/// ([`crate::stream`]): a bounded space can be swept one orbit
/// representative at a time, without ever storing the raw space, by
/// yielding exactly the tests for which `is_leader` holds.
#[must_use]
pub fn is_leader(test: &LitmusTest) -> bool {
    let canonical = canonical(test);
    canonical.test.program() == test.program() && canonical.test.outcome() == test.outcome()
}

/// The result of deduplicating a suite modulo symmetry.
#[derive(Clone, Debug)]
pub struct CanonicalSuite {
    /// One canonical representative per orbit, in first-seen order.
    pub tests: Vec<LitmusTest>,
    /// Orbit fingerprints, parallel to [`CanonicalSuite::tests`].
    pub fingerprints: Vec<u64>,
    /// For each input test, the index of its representative in
    /// [`CanonicalSuite::tests`].
    pub class_of: Vec<usize>,
    /// Number of input tests.
    pub original_len: usize,
}

impl CanonicalSuite {
    /// Number of representatives (distinct orbits).
    #[must_use]
    pub fn len(&self) -> usize {
        self.tests.len()
    }

    /// Whether the input suite was empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tests.is_empty()
    }

    /// `original / deduplicated` — how many checker invocations per model
    /// the canonicalization pass saves (1.0 means nothing was symmetric).
    #[must_use]
    pub fn dedup_ratio(&self) -> f64 {
        if self.tests.is_empty() {
            1.0
        } else {
            self.original_len as f64 / self.tests.len() as f64
        }
    }
}

/// Collapses a suite to one representative per symmetry orbit: the
/// first test of each orbit, canonicalized.
#[must_use]
pub fn dedup(tests: &[LitmusTest]) -> CanonicalSuite {
    let mut reps: Vec<LitmusTest> = Vec::new();
    let mut fingerprints: Vec<u64> = Vec::new();
    let mut class_of: Vec<usize> = Vec::with_capacity(tests.len());
    let mut seen: HashMap<Vec<u8>, usize> = HashMap::new();
    for canonical in tests.iter().map(canonical) {
        let next = reps.len();
        let class = *seen.entry(canonical.encoding).or_insert(next);
        if class == next {
            reps.push(canonical.test);
            fingerprints.push(canonical.fingerprint);
        }
        class_of.push(class);
    }
    CanonicalSuite {
        tests: reps,
        fingerprints,
        class_of,
        original_len: tests.len(),
    }
}

/// All permutations of `0..n` (identity only above [`MAX_PERMUTED_THREADS`]).
pub(crate) fn thread_permutations(n: usize) -> Vec<Vec<usize>> {
    if n > MAX_PERMUTED_THREADS {
        return vec![(0..n).collect()];
    }
    let mut out = Vec::new();
    let mut current: Vec<usize> = (0..n).collect();
    permute(&mut current, 0, &mut out);
    out
}

fn permute(items: &mut Vec<usize>, k: usize, out: &mut Vec<Vec<usize>>) {
    if k == items.len() {
        out.push(items.clone());
        return;
    }
    for i in k..items.len() {
        items.swap(k, i);
        permute(items, k + 1, out);
        items.swap(k, i);
    }
}

/// Whether every value-carrying expression is simple enough for injective
/// value renaming to commute with evaluation: constants, registers,
/// location addresses, and the paper's dependency idiom
/// `r - r + (const | &loc)`. Anything else (true arithmetic over
/// constants) disables value renaming for the whole test.
fn values_renameable(program: &Program) -> bool {
    fn simple(expr: &RegExpr) -> bool {
        match expr {
            RegExpr::Const(_) | RegExpr::Reg(_) | RegExpr::LocAddr(_) => true,
            RegExpr::Add(a, b) => {
                matches!(
                    (&**a, &**b),
                    (RegExpr::Sub(x, y), RegExpr::Const(_) | RegExpr::LocAddr(_))
                        if matches!((&**x, &**y), (RegExpr::Reg(p), RegExpr::Reg(q)) if p == q)
                )
            }
            RegExpr::Sub(a, b) => {
                matches!((&**a, &**b), (RegExpr::Reg(p), RegExpr::Reg(q)) if p == q)
            }
        }
    }
    program.threads.iter().all(|t| {
        t.instructions.iter().all(|i| match i {
            Instruction::Write { val, .. } => simple(val),
            Instruction::Op { expr, .. } => simple(expr),
            Instruction::Branch { cond } => simple(cond),
            Instruction::Read { .. } | Instruction::Fence(_) => true,
        })
    })
}

/// How the canonicalizer may rename literal values.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ValueMode {
    /// Arithmetic too complex to rename safely: values kept verbatim.
    Fixed,
    /// One injective renaming over all literals (always sound for simple
    /// expressions — values only ever matter through equality).
    Global,
    /// An independent injective renaming per memory location. Strictly
    /// coarser orbits than [`ValueMode::Global`] (writes to different
    /// locations never interact through reads-from or coherence), but
    /// requires the dataflow analysis in [`value_plan`] to prove no value
    /// flows from a read of one location into a write of another.
    PerLocation,
}

/// Abstract value of a register during the [`value_plan`] dataflow pass.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Abs {
    /// The numeric address of a location (`&X` idioms).
    Addr(Loc),
    /// A statically known constant.
    Num(i64),
    /// The dynamic value read from this location.
    ReadFrom(Loc),
    /// Anything else.
    Opaque,
}

/// Where each literal constant must be renamed: a bucket (location) per
/// instruction site plus a bucket per outcome constraint.
pub(crate) struct ValuePlan {
    mode: ValueMode,
    /// `site_bucket[thread][instr]`: the location bucket for that
    /// instruction's (unique) constant leaf, when [`ValueMode::PerLocation`].
    site_bucket: Vec<Vec<Option<Loc>>>,
    /// Bucket for an outcome constraint on `(thread, reg)`.
    outcome_bucket: HashMap<(u8, u8), Loc>,
}

/// The unique non-address constant leaf of a simple expression, if any.
fn const_leaf(expr: &RegExpr) -> Option<Value> {
    match expr {
        RegExpr::Const(v) => Some(*v),
        RegExpr::Reg(_) | RegExpr::LocAddr(_) => None,
        RegExpr::Add(a, b) | RegExpr::Sub(a, b) => const_leaf(a).or_else(|| const_leaf(b)),
    }
}

fn sym_eval(expr: &RegExpr, regs: &BTreeMap<u8, Abs>) -> Abs {
    match expr {
        RegExpr::Const(v) => match Loc::from_address(*v) {
            Some(loc) => Abs::Addr(loc),
            None => Abs::Num(v.0),
        },
        RegExpr::Reg(r) => regs.get(&r.0).copied().unwrap_or(Abs::Opaque),
        RegExpr::LocAddr(l) => Abs::Addr(*l),
        RegExpr::Add(a, b) => match (sym_eval(a, regs), sym_eval(b, regs)) {
            (Abs::Num(x), Abs::Num(y)) => Abs::Num(x.wrapping_add(y)),
            (Abs::Num(0), v) | (v, Abs::Num(0)) => v,
            _ => Abs::Opaque,
        },
        RegExpr::Sub(a, b) => {
            if matches!((&**a, &**b), (RegExpr::Reg(p), RegExpr::Reg(q)) if p == q) {
                return Abs::Num(0);
            }
            match (sym_eval(a, regs), sym_eval(b, regs)) {
                (Abs::Num(x), Abs::Num(y)) => Abs::Num(x.wrapping_sub(y)),
                _ => Abs::Opaque,
            }
        }
    }
}

fn resolve_addr(addr: &AddrExpr, regs: &BTreeMap<u8, Abs>) -> Option<Loc> {
    match addr {
        AddrExpr::Loc(l) => Some(*l),
        AddrExpr::Reg(r) => match regs.get(&r.0) {
            Some(Abs::Addr(l)) => Some(*l),
            _ => None,
        },
    }
}

/// Decides the strongest sound [`ValueMode`] for a test and assigns each
/// constant site its location bucket.
///
/// Per-location renaming is sound exactly when every literal's "equality
/// neighbourhood" is a single location: each written constant reaches one
/// statically known location, each constrained register holds the value of
/// a read from one statically known location, and no dynamic value is
/// forwarded from a read into a write (which would link two locations'
/// value namespaces). Anything unprovable degrades to the global mode.
pub(crate) fn value_plan(test: &LitmusTest) -> ValuePlan {
    let program = test.program();
    let mut plan = ValuePlan {
        mode: ValueMode::PerLocation,
        site_bucket: program
            .threads
            .iter()
            .map(|t| vec![None; t.instructions.len()])
            .collect(),
        outcome_bucket: HashMap::new(),
    };
    if !values_renameable(program) {
        plan.mode = ValueMode::Fixed;
        return plan;
    }
    let mut per_loc_ok = true;
    for (t, thread) in program.threads.iter().enumerate() {
        let mut regs: BTreeMap<u8, Abs> = BTreeMap::new();
        // Op-defined register -> site of its pending constant leaf.
        let mut pending_const: BTreeMap<u8, usize> = BTreeMap::new();
        let mut consumed: Vec<u8> = Vec::new();
        for (i, instr) in thread.instructions.iter().enumerate() {
            match instr {
                Instruction::Read { addr, dst } => {
                    match resolve_addr(addr, &regs) {
                        Some(l) => {
                            regs.insert(dst.0, Abs::ReadFrom(l));
                            plan.outcome_bucket
                                .insert((u8::try_from(t).expect("thread id"), dst.0), l);
                        }
                        None => {
                            regs.insert(dst.0, Abs::Opaque);
                        }
                    }
                }
                Instruction::Op { dst, expr } => {
                    regs.insert(dst.0, sym_eval(expr, &regs));
                    if let Some(v) = const_leaf(expr) {
                        if v != Value::INIT && Loc::from_address(v).is_none() {
                            pending_const.insert(dst.0, i);
                        }
                    }
                }
                Instruction::Write { addr, val } => {
                    let Some(loc) = resolve_addr(addr, &regs) else {
                        // A write to a statically unknown location could
                        // alias anything; no per-location namespace holds.
                        per_loc_ok = false;
                        continue;
                    };
                    if let Some(v) = const_leaf(val) {
                        if v != Value::INIT && Loc::from_address(v).is_none() {
                            plan.site_bucket[t][i] = Some(loc);
                        }
                    } else if let RegExpr::Reg(r) = val {
                        match regs.get(&r.0).copied().unwrap_or(Abs::Opaque) {
                            Abs::Num(0) => {}
                            Abs::Num(_) => match pending_const.get(&r.0) {
                                // The constant lives in the defining op;
                                // bucket it by this write's location.
                                Some(&site) => match plan.site_bucket[t][site] {
                                    None => {
                                        plan.site_bucket[t][site] = Some(loc);
                                        consumed.push(r.0);
                                    }
                                    Some(prev) if prev == loc => {}
                                    Some(_) => per_loc_ok = false,
                                },
                                None => per_loc_ok = false,
                            },
                            Abs::Addr(_) => {}
                            // Forwarding a read's dynamic value into a
                            // write links two locations' namespaces.
                            Abs::ReadFrom(_) | Abs::Opaque => per_loc_ok = false,
                        }
                    } else {
                        // A dependency idiom whose leaf is a LocAddr (or
                        // no leaf at all) writes an address: nothing to
                        // bucket.
                        match sym_eval(val, &regs) {
                            Abs::Addr(_) | Abs::Num(0) => {}
                            _ => per_loc_ok = false,
                        }
                    }
                }
                Instruction::Branch { cond } => {
                    if let Some(v) = const_leaf(cond) {
                        if v != Value::INIT && Loc::from_address(v).is_none() {
                            // Branch conditions never interact with memory
                            // values; still, refuse rather than invent a
                            // namespace for them.
                            per_loc_ok = false;
                        }
                    }
                }
                Instruction::Fence(_) => {}
            }
        }
        // Pending constants that never reached a write: sound only if the
        // register is dead (value never observable).
        for (reg, site) in pending_const {
            if plan.site_bucket[t][site].is_some() {
                continue;
            }
            let outcome_uses = test
                .outcome()
                .constraints()
                .iter()
                .any(|&(ct, cr, _)| ct.index() == t && cr.0 == reg);
            let program_uses = thread
                .instructions
                .iter()
                .any(|i| i.uses().iter().any(|u| u.0 == reg));
            if (outcome_uses || program_uses) && !consumed.contains(&reg) {
                per_loc_ok = false;
            }
        }
    }
    // Every constrained non-trivial value must have a read bucket.
    for &(ct, cr, v) in test.outcome().constraints() {
        if v == Value::INIT || Loc::from_address(v).is_some() {
            continue;
        }
        if !plan.outcome_bucket.contains_key(&(ct.0, cr.0)) {
            per_loc_ok = false;
        }
    }
    plan.mode = if per_loc_ok {
        ValueMode::PerLocation
    } else {
        ValueMode::Global
    };
    plan
}

/// First-use renaming state for one candidate thread permutation.
struct Renaming<'a> {
    plan: &'a ValuePlan,
    locs: BTreeMap<u8, u8>,
    next_loc: u8,
    /// Per (new) thread: old register -> new register.
    regs: Vec<BTreeMap<u8, u8>>,
    /// Per bucket (`Some(old location)` or `None` for the global
    /// namespace): the injective value map and its next fresh value.
    vals: BTreeMap<Option<u8>, (BTreeMap<i64, i64>, i64)>,
}

impl<'a> Renaming<'a> {
    fn new(threads: usize, plan: &'a ValuePlan) -> Self {
        Renaming {
            plan,
            locs: BTreeMap::new(),
            next_loc: 0,
            regs: vec![BTreeMap::new(); threads],
            vals: BTreeMap::new(),
        }
    }

    fn map_loc(&mut self, loc: Loc) -> Loc {
        let next = self.next_loc;
        let new = *self.locs.entry(loc.0).or_insert(next);
        if new == next {
            self.next_loc += 1;
        }
        Loc(new)
    }

    fn map_reg(&mut self, thread: usize, reg: Reg) -> Reg {
        let next = u8::try_from(self.regs[thread].len() + 1).expect("register count fits u8");
        Reg(*self.regs[thread].entry(reg.0).or_insert(next))
    }

    /// Renames a literal value within `bucket` (an old location for
    /// per-location mode; ignored in global mode).
    fn map_value(&mut self, value: Value, bucket: Option<Loc>) -> Value {
        if self.plan.mode == ValueMode::Fixed || value == Value::INIT {
            return value;
        }
        // Address-valued constants follow the *location* renaming so that
        // address arithmetic stays consistent with renamed locations.
        if let Some(loc) = Loc::from_address(value) {
            let mapped = self.map_loc(loc);
            return mapped.base_address();
        }
        let key = match self.plan.mode {
            ValueMode::Global => None,
            ValueMode::PerLocation => match bucket {
                Some(loc) => Some(loc.0),
                // An unbucketed (dead) constant: leave it verbatim.
                None => return value,
            },
            ValueMode::Fixed => unreachable!("handled above"),
        };
        let (map, next) = self.vals.entry(key).or_insert_with(|| (BTreeMap::new(), 1));
        let fresh = *next;
        let new = *map.entry(value.0).or_insert(fresh);
        if new == fresh {
            *next += 1;
        }
        Value(new)
    }

    fn map_expr(&mut self, thread: usize, expr: &RegExpr, bucket: Option<Loc>) -> RegExpr {
        match expr {
            RegExpr::Const(v) => RegExpr::Const(self.map_value(*v, bucket)),
            RegExpr::Reg(r) => RegExpr::Reg(self.map_reg(thread, *r)),
            RegExpr::LocAddr(l) => RegExpr::LocAddr(self.map_loc(*l)),
            RegExpr::Add(a, b) => RegExpr::Add(
                Box::new(self.map_expr(thread, a, bucket)),
                Box::new(self.map_expr(thread, b, bucket)),
            ),
            RegExpr::Sub(a, b) => RegExpr::Sub(
                Box::new(self.map_expr(thread, a, bucket)),
                Box::new(self.map_expr(thread, b, bucket)),
            ),
        }
    }

    fn map_addr(&mut self, thread: usize, addr: &AddrExpr) -> AddrExpr {
        match addr {
            AddrExpr::Loc(l) => AddrExpr::Loc(self.map_loc(*l)),
            AddrExpr::Reg(r) => AddrExpr::Reg(self.map_reg(thread, *r)),
        }
    }

    /// Renames one instruction; `old_thread`/`index` locate its constant
    /// bucket in the [`ValuePlan`].
    fn map_instruction(
        &mut self,
        thread: usize,
        old_thread: usize,
        index: usize,
        instr: &Instruction,
    ) -> Instruction {
        let bucket = self.plan.site_bucket[old_thread][index];
        match instr {
            Instruction::Read { addr, dst } => {
                let addr = self.map_addr(thread, addr);
                Instruction::Read {
                    addr,
                    dst: self.map_reg(thread, *dst),
                }
            }
            Instruction::Write { addr, val } => {
                let addr = self.map_addr(thread, addr);
                Instruction::Write {
                    addr,
                    val: self.map_expr(thread, val, bucket),
                }
            }
            Instruction::Fence(kind) => Instruction::Fence(*kind),
            Instruction::Op { dst, expr } => {
                let expr = self.map_expr(thread, expr, bucket);
                Instruction::Op {
                    dst: self.map_reg(thread, *dst),
                    expr,
                }
            }
            Instruction::Branch { cond } => Instruction::Branch {
                cond: self.map_expr(thread, cond, bucket),
            },
        }
    }
}

/// Applies thread permutation `perm` (new index -> old index) and derives
/// first-use renamings of locations, registers and values.
pub(crate) fn apply_renaming(
    test: &LitmusTest,
    perm: &[usize],
    plan: &ValuePlan,
) -> (Program, Outcome) {
    let old_threads = &test.program().threads;
    let mut renaming = Renaming::new(perm.len(), plan);
    let threads: Vec<Thread> = perm
        .iter()
        .enumerate()
        .map(|(new_tid, &old_tid)| Thread {
            instructions: old_threads[old_tid]
                .instructions
                .iter()
                .enumerate()
                .map(|(index, i)| renaming.map_instruction(new_tid, old_tid, index, i))
                .collect(),
        })
        .collect();

    // Old thread id -> new thread id.
    let mut new_of_old = vec![0u8; perm.len()];
    for (new_tid, &old_tid) in perm.iter().enumerate() {
        new_of_old[old_tid] = u8::try_from(new_tid).expect("thread count fits u8");
    }
    let mut constraints: Vec<(ThreadId, Reg, Value, Option<Loc>)> = test
        .outcome()
        .constraints()
        .iter()
        .map(|&(t, r, v)| {
            let new_tid = usize::from(new_of_old[t.index()]);
            let bucket = plan.outcome_bucket.get(&(t.0, r.0)).copied();
            (
                ThreadId(new_of_old[t.index()]),
                renaming.map_reg(new_tid, r),
                v,
                bucket,
            )
        })
        .collect();
    // Deterministic order before value renaming so the derived value map
    // does not depend on the input constraint order.
    constraints.sort_by_key(|&(t, r, _, _)| (t.0, r.0));
    let mut outcome = Outcome::new();
    for (t, r, v, bucket) in constraints {
        outcome = outcome.constrain(t, r, renaming.map_value(v, bucket));
    }
    (Program { threads }, outcome)
}

/// A compact, total byte encoding of a (program, outcome) pair: the
/// comparison key selecting the canonical permutation. The program bytes
/// come first, so comparing [`encode_program`] prefixes decides any
/// permutation contest that the programs alone settle.
pub(crate) fn encode(program: &Program, outcome: &Outcome) -> Vec<u8> {
    let mut out = encode_program(program);
    out.push(0xFF); // outcome separator
    for &(t, r, v) in outcome.constraints() {
        out.push(t.0);
        out.push(r.0);
        push_i64(&mut out, v.0);
    }
    out
}

fn push_i64(out: &mut Vec<u8>, v: i64) {
    // Order-preserving encoding (offset binary, big endian) so byte
    // comparison matches numeric comparison.
    out.extend_from_slice(&(v as u64 ^ (1 << 63)).to_be_bytes());
}

/// The program prefix of [`encode`].
pub(crate) fn encode_program(program: &Program) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    fn push_expr(out: &mut Vec<u8>, expr: &RegExpr) {
        match expr {
            RegExpr::Const(v) => {
                out.push(0x01);
                push_i64(out, v.0);
            }
            RegExpr::Reg(r) => {
                out.push(0x02);
                out.push(r.0);
            }
            RegExpr::LocAddr(l) => {
                out.push(0x03);
                out.push(l.0);
            }
            RegExpr::Add(a, b) => {
                out.push(0x04);
                push_expr(out, a);
                push_expr(out, b);
            }
            RegExpr::Sub(a, b) => {
                out.push(0x05);
                push_expr(out, a);
                push_expr(out, b);
            }
        }
    }
    fn push_addr(out: &mut Vec<u8>, addr: &AddrExpr) {
        match addr {
            AddrExpr::Loc(l) => {
                out.push(0x01);
                out.push(l.0);
            }
            AddrExpr::Reg(r) => {
                out.push(0x02);
                out.push(r.0);
            }
        }
    }
    for thread in &program.threads {
        out.push(0xFE); // thread separator
        for instr in &thread.instructions {
            match instr {
                Instruction::Read { addr, dst } => {
                    out.push(0x10);
                    push_addr(&mut out, addr);
                    out.push(dst.0);
                }
                Instruction::Write { addr, val } => {
                    out.push(0x11);
                    push_addr(&mut out, addr);
                    push_expr(&mut out, val);
                }
                Instruction::Fence(FenceKind::Full) => out.push(0x12),
                Instruction::Fence(FenceKind::Special(n)) => {
                    out.push(0x13);
                    out.push(*n);
                }
                Instruction::Op { dst, expr } => {
                    out.push(0x14);
                    out.push(dst.0);
                    push_expr(&mut out, expr);
                }
                Instruction::Branch { cond } => {
                    out.push(0x15);
                    push_expr(&mut out, cond);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::template_suite;
    use mcm_core::{Outcome, Program};

    fn sb_variant(first: Loc, second: Loc, value: Value) -> LitmusTest {
        let program = Program::builder()
            .thread()
            .write(first, value)
            .read(second, Reg(1))
            .thread()
            .write(second, value)
            .read(first, Reg(2))
            .build()
            .unwrap();
        let outcome = Outcome::new()
            .constrain(ThreadId(0), Reg(1), Value(0))
            .constrain(ThreadId(1), Reg(2), Value(0));
        LitmusTest::new("SB-variant", program, outcome).unwrap()
    }

    #[test]
    fn symmetric_variants_share_a_fingerprint() {
        let base = sb_variant(Loc::X, Loc::Y, Value(1));
        let swapped_locs = sb_variant(Loc::Y, Loc::X, Value(1));
        let renamed_locs = sb_variant(Loc::Z, Loc::W, Value(1));
        let renamed_value = sb_variant(Loc::X, Loc::Y, Value(7));
        let fp = fingerprint(&base);
        assert_eq!(fp, fingerprint(&swapped_locs));
        assert_eq!(fp, fingerprint(&renamed_locs));
        assert_eq!(fp, fingerprint(&renamed_value));
    }

    #[test]
    fn canonicalization_is_idempotent() {
        for test in template_suite(true).tests.iter().take(40) {
            let once = canonicalize(test);
            let twice = canonicalize(&once);
            assert_eq!(once.program(), twice.program(), "{}", test.name());
            assert_eq!(once.outcome(), twice.outcome(), "{}", test.name());
            assert_eq!(fingerprint(test), fingerprint(&once), "{}", test.name());
        }
    }

    #[test]
    fn template_suite_is_symmetry_irredundant() {
        // The §3.4 generator already emits exactly one test per orbit:
        // canonicalization finds nothing left to collapse. (The win shows
        // up on suites that were *not* generated symmetry-aware — the
        // catalog + template comparison suite and the naive enumeration —
        // see `dedup_collapses_the_raw_naive_enumeration` below.)
        let suite = template_suite(true);
        let canonical = dedup(&suite.tests);
        assert_eq!(canonical.original_len, suite.tests.len());
        assert_eq!(canonical.len(), suite.tests.len());
        // Every class index is a valid representative index.
        assert!(canonical.class_of.iter().all(|&c| c < canonical.len()));
        assert_eq!(canonical.class_of.len(), canonical.original_len);
        // Representatives are pairwise distinct orbits.
        let mut fps = canonical.fingerprints.clone();
        fps.sort_unstable();
        fps.dedup();
        assert_eq!(fps.len(), canonical.len());
    }

    #[test]
    fn dedup_collapses_the_raw_naive_enumeration() {
        for max_locs in [2, 3] {
            let bounds = crate::stream::StreamBounds {
                max_accesses_per_thread: 2,
                max_locs,
                ..Default::default()
            };
            let raw = crate::naive::enumerate_tests_raw(&bounds, usize::MAX);
            let leaders = crate::stream::count_leaders(&bounds);
            let canonical = dedup(&raw);
            assert!(
                canonical.dedup_ratio() > 3.0,
                "max_locs {max_locs}: raw {} -> {} orbits",
                raw.len(),
                canonical.len()
            );
            // The orbit quotient is exactly the leader stream's.
            assert_eq!(canonical.len() as u64, leaders, "max_locs {max_locs}");
        }
    }

    #[test]
    fn dedup_collapses_transformed_suite_copies() {
        // Appending a thread-swapped copy of every test must not create
        // any new orbits.
        let suite = template_suite(false);
        let mut all = suite.tests.clone();
        for test in &suite.tests {
            let mut threads = test.program().threads.clone();
            threads.reverse();
            let n = u8::try_from(threads.len()).unwrap();
            let mut outcome = Outcome::new();
            for &(t, r, v) in test.outcome().constraints() {
                outcome = outcome.constrain(ThreadId(n - 1 - t.0), r, v);
            }
            all.push(
                LitmusTest::new(test.name(), Program { threads }, outcome)
                    .expect("thread swap preserves well-formedness"),
            );
        }
        let canonical = dedup(&all);
        assert_eq!(canonical.len(), suite.tests.len());
    }

    #[test]
    fn members_of_a_class_share_the_representative_fingerprint() {
        let suite = template_suite(false);
        let canonical = dedup(&suite.tests);
        for (i, test) in suite.tests.iter().enumerate() {
            let rep = canonical.class_of[i];
            assert_eq!(
                fingerprint(test),
                canonical.fingerprints[rep],
                "{} not in its class",
                test.name()
            );
        }
    }

    #[test]
    fn value_renaming_is_disabled_for_true_arithmetic() {
        // `write X = r1 + r1` is not a renameable idiom: the program's
        // values must survive canonicalization untouched.
        let program = Program::builder()
            .thread()
            .read(Loc::X, Reg(1))
            .write_expr(
                Loc::Y,
                RegExpr::Add(
                    Box::new(RegExpr::Reg(Reg(1))),
                    Box::new(RegExpr::Reg(Reg(1))),
                ),
            )
            .thread()
            .write(Loc::Y, Value(6))
            .build()
            .unwrap();
        assert!(!values_renameable(&program));
        let outcome = Outcome::new().constrain(ThreadId(0), Reg(1), Value(3));
        let test = LitmusTest::new("arith", program, outcome).unwrap();
        let canonical = canonicalize(&test);
        // The outcome value 3 and the literal 6 must be preserved.
        assert_eq!(canonical.outcome().constraints()[0].2, Value(3));
    }

    #[test]
    fn canonical_form_uses_first_use_names() {
        let test = sb_variant(Loc::W, Loc::Z, Value(9));
        let canonical = canonicalize(&test);
        let locs = canonical.program().locations();
        assert_eq!(locs, vec![Loc(0), Loc(1)]);
        // The written value is renamed to the first value id.
        let rendered = canonical.program().to_string();
        assert!(rendered.contains("= 1"), "{rendered}");
    }
}
