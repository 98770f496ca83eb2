//! The row-keyed [`VerdictCache`] against a reference map.
//!
//! Random interleavings of `insert`, `merge`, `merge_rows`,
//! `hydrate_rows`, `get`, `get_row_tiered` and `clear` run against both
//! the cache and a
//! `BTreeMap<(model_fp, test_fp), (allowed, tier)>` that applies the
//! documented per-cell semantics one cell at a time. After every
//! operation the two must agree on every returned verdict, on the hit,
//! miss and tier counters, on `len`, and on the exact batches handed to
//! the durable sink (its rows flattened to cells). Every case first
//! hydrates 150 distinct models, so the rows span three 64-model words,
//! and the random operations draw from 300 model and 12 test
//! fingerprints, so batches repeat keys and RAM writes land on disk-tier
//! entries. Rows whose model table is the 150 hydrated models in order
//! merge a word at a time; every other table merges a verdict at a time,
//! and both paths are drawn.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use mcm_explore::cache::Key;
use mcm_explore::{DurableSink, VerdictCache, VerdictRows, VerdictRowsBuf};
use proptest::prelude::*;

const MODELS: usize = 300;
const TESTS: usize = 12;
/// Models hydrated before the random operations, all in one test row.
const WIDE: usize = 150;

fn model_fp(m: usize) -> u64 {
    (m as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

fn test_fp(t: usize) -> u64 {
    (t as u64 + 1).wrapping_mul(0xc2b2_ae3d_27d4_eb4f)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Tier {
    Ram,
    Disk,
}

#[derive(Default)]
struct Recorder(Mutex<Vec<Vec<(Key, bool)>>>);

impl DurableSink for Recorder {
    fn persist(&self, rows: VerdictRows<'_>) {
        self.0.lock().unwrap().push(rows.cells().collect());
    }
}

/// Loads `cells` as disk-tier verdicts, packed into rows in order.
fn hydrate(cache: &VerdictCache, cells: &[(Key, bool)]) {
    cache.hydrate_rows(VerdictRowsBuf::from_cells(cells.iter().copied()).as_rows());
}

/// The per-cell semantics the cache must reproduce.
#[derive(Default)]
struct Reference {
    map: BTreeMap<Key, (bool, Tier)>,
    hits_ram: u64,
    hits_disk: u64,
    misses: u64,
    sunk: Vec<Vec<(Key, bool)>>,
}

impl Reference {
    /// A RAM-tier write; returns whether the sink must see it.
    fn write(&mut self, key: Key, allowed: bool) -> bool {
        let prev = self.map.insert(key, (allowed, Tier::Ram));
        prev.is_none_or(|(was, _)| was != allowed)
    }

    fn sink(&mut self, batch: Vec<(Key, bool)>) {
        if !batch.is_empty() {
            self.sunk.push(batch);
        }
    }

    fn get(&mut self, key: Key) -> Option<bool> {
        match self.map.get(&key) {
            Some(&(allowed, Tier::Ram)) => {
                self.hits_ram += 1;
                Some(allowed)
            }
            Some(&(allowed, Tier::Disk)) => {
                self.hits_disk += 1;
                Some(allowed)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }
}

#[derive(Clone, Debug)]
enum Op {
    Insert(Key, bool),
    Merge(Vec<(Key, bool)>),
    /// Cells of one worker batch: a new row starts whenever the test
    /// changes between consecutive cells. With the flag set, the table is
    /// the first [`WIDE`] models in order (model indices taken modulo
    /// `WIDE`), which the cache holds as ids `0..WIDE`.
    MergeRows(Vec<(usize, usize, bool)>, bool),
    Hydrate(Vec<(Key, bool)>),
    Get(Key),
    GetRow(Vec<usize>, usize),
    Clear,
}

fn cells() -> impl Strategy<Value = Vec<(usize, usize, bool)>> {
    proptest::collection::vec((0..MODELS, 0..TESTS, proptest::bool::ANY), 1..40)
}

fn keyed(cells: &[(usize, usize, bool)]) -> Vec<(Key, bool)> {
    cells
        .iter()
        .map(|&(m, t, allowed)| ((model_fp(m), test_fp(t)), allowed))
        .collect()
}

fn op() -> impl Strategy<Value = Op> {
    (0usize..20, cells()).prop_map(|(kind, cells)| {
        let (m, t, allowed) = cells[0];
        let key = (model_fp(m), test_fp(t));
        match kind {
            0..=2 => Op::Insert(key, allowed),
            3..=5 => Op::Merge(keyed(&cells)),
            6..=7 => Op::MergeRows(cells, false),
            8 => Op::MergeRows(
                cells.iter().map(|&(m, t, a)| (m % WIDE, t, a)).collect(),
                true,
            ),
            9..=10 => Op::Hydrate(keyed(&cells)),
            11..=13 => Op::Get(key),
            14..=18 => Op::GetRow(cells.iter().map(|c| c.0).collect(), t),
            _ => Op::Clear,
        }
    })
}

fn apply(cache: &VerdictCache, reference: &mut Reference, op: &Op) -> Result<(), TestCaseError> {
    match op {
        Op::Insert(key, allowed) => {
            cache.insert(*key, *allowed);
            if reference.write(*key, *allowed) {
                reference.sink(vec![(*key, *allowed)]);
            }
        }
        Op::Merge(batch) => {
            cache.merge(batch.iter().copied());
            let fresh = batch
                .iter()
                .copied()
                .filter(|&(key, allowed)| reference.write(key, allowed))
                .collect();
            reference.sink(fresh);
        }
        Op::MergeRows(cells, aligned) => {
            // The batch's models, in first-seen order, each listed once.
            let mut models: Vec<usize> = Vec::new();
            if *aligned {
                models.extend(0..WIDE);
            }
            for &(m, _, _) in cells {
                if !models.contains(&m) {
                    models.push(m);
                }
            }
            let fps: Vec<u64> = models.iter().map(|&m| model_fp(m)).collect();
            let mut batch = VerdictRowsBuf::new(fps.clone());
            let mut rows: Vec<(usize, BTreeMap<usize, bool>)> = Vec::new();
            for &(m, t, allowed) in cells {
                if rows.last().is_none_or(|(row_t, _)| *row_t != t) {
                    batch.push_row(test_fp(t));
                    rows.push((t, BTreeMap::new()));
                }
                let position = models.iter().position(|&x| x == m).unwrap();
                batch.set(position, allowed);
                rows.last_mut().unwrap().1.insert(position, allowed);
            }
            cache.merge_rows(batch.as_rows());
            let mut fresh = Vec::new();
            for (t, row) in rows {
                for (position, allowed) in row {
                    let key = (fps[position], test_fp(t));
                    if reference.write(key, allowed) {
                        fresh.push((key, allowed));
                    }
                }
            }
            reference.sink(fresh);
        }
        Op::Hydrate(batch) => {
            hydrate(cache, batch);
            for &(key, allowed) in batch {
                reference.map.insert(key, (allowed, Tier::Disk));
            }
        }
        Op::Get(key) => {
            let expected = reference.get(*key);
            prop_assert_eq!(cache.get(*key), expected, "get {:?}", key);
        }
        Op::GetRow(models, t) => {
            let fps: Vec<u64> = models.iter().map(|&m| model_fp(m)).collect();
            let row = cache.get_row_tiered(&fps, test_fp(*t));
            let (ram_before, disk_before) = (reference.hits_ram, reference.hits_disk);
            let expected: Vec<Option<bool>> = fps
                .iter()
                .map(|&fp| reference.get((fp, test_fp(*t))))
                .collect();
            prop_assert_eq!(&row.verdicts, &expected, "row of test {}", t);
            prop_assert_eq!(row.hits_ram, reference.hits_ram - ram_before);
            prop_assert_eq!(row.hits_disk, reference.hits_disk - disk_before);
        }
        Op::Clear => {
            cache.clear();
            reference.map.clear();
            reference.hits_ram = 0;
            reference.hits_disk = 0;
            reference.misses = 0;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn row_cache_matches_a_reference_map(ops in proptest::collection::vec(op(), 1..60)) {
        let cache = VerdictCache::new();
        let sink = Arc::new(Recorder::default());
        prop_assert!(cache.set_sink(sink.clone()));
        let mut reference = Reference::default();
        let wide: Vec<(Key, bool)> =
            (0..WIDE).map(|m| ((model_fp(m), test_fp(0)), m % 3 == 0)).collect();
        let mut script = vec![Op::Hydrate(wide)];
        script.extend(ops);
        for (step, op) in script.iter().enumerate() {
            apply(&cache, &mut reference, op)?;
            prop_assert_eq!(cache.len(), reference.map.len(), "len after step {} ({:?})", step, op);
            prop_assert_eq!(
                (cache.hits_ram(), cache.hits_disk(), cache.misses()),
                (reference.hits_ram, reference.hits_disk, reference.misses),
                "counters after step {}", step
            );
            prop_assert_eq!(
                &*sink.0.lock().unwrap(),
                &reference.sunk,
                "sink batches after step {} ({:?})", step, op
            );
        }
        // Every cell the reference holds answers with its verdict and tier.
        let row_models: Vec<u64> = (0..MODELS).map(model_fp).collect();
        for t in 0..TESTS {
            let row = cache.get_row_tiered(&row_models, test_fp(t));
            for (m, verdict) in row.verdicts.iter().enumerate() {
                let expected = reference.map.get(&(model_fp(m), test_fp(t))).map(|c| c.0);
                prop_assert_eq!(*verdict, expected, "model {} test {}", m, t);
            }
            let disk = reference
                .map
                .iter()
                .filter(|(key, cell)| key.1 == test_fp(t) && cell.1 == Tier::Disk)
                .count() as u64;
            prop_assert_eq!(row.hits_disk, disk, "disk-tier cells of test {}", t);
        }
    }
}

#[test]
fn ram_write_over_a_hydrated_entry_flips_its_tier() {
    let cache = VerdictCache::new();
    let sink = Arc::new(Recorder::default());
    assert!(cache.set_sink(sink.clone()));
    let wide: Vec<u64> = (0..WIDE).map(model_fp).collect();
    let cells: Vec<(Key, bool)> = wide.iter().map(|&m| ((m, 7), true)).collect();
    hydrate(&cache, &cells);
    let mut batch = VerdictRowsBuf::new(wide.clone());
    batch.push_row(7);
    batch.set(WIDE - 1, true); // same verdict: tier flips, nothing persisted
    batch.set(0, false); // opposite verdict: persisted
    cache.merge_rows(batch.as_rows());
    let row = cache.get_row_tiered(&wide, 7);
    assert_eq!((row.hits_ram, row.hits_disk), (2, WIDE as u64 - 2));
    assert_eq!(row.verdicts[0], Some(false));
    assert_eq!(*sink.0.lock().unwrap(), vec![vec![((wide[0], 7), false)]]);
    assert_eq!(cache.len(), WIDE);
}
