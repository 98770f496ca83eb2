//! The single-cell path of the verdict cache — `get` and `insert`, which
//! the CEGIS oracle calls once per (model, candidate test) — allocates
//! nothing once the test's row exists, and a new row over at most 128
//! models costs no allocation beyond the shard map's own growth. That
//! includes handing each fresh verdict to a durable sink as a one-model
//! row.
//!
//! A counting global allocator tallies this thread's allocations; this
//! file holds one test so no other test thread shares the tally.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mcm_explore::{DurableSink, VerdictCache, VerdictRows};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: forwards every call unchanged to the system allocator; the
// thread-local tally neither allocates nor touches the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Counts the verdicts it is handed, without allocating.
#[derive(Default)]
struct CountingSink(AtomicU64);

impl DurableSink for CountingSink {
    fn persist(&self, rows: VerdictRows<'_>) {
        self.0.fetch_add(rows.cell_count(), Ordering::Relaxed);
    }
}

#[test]
fn get_and_insert_do_not_allocate() {
    let cache = VerdictCache::new();
    let sink = Arc::new(CountingSink::default());
    assert!(cache.set_sink(sink.clone()));
    let models: Vec<u64> = (1..=90u64)
        .map(|m| m.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();
    let tests: Vec<u64> = (1..=64u64)
        .map(|t| t.wrapping_mul(0xc2b2_ae3d_27d4_eb4f))
        .collect();
    // Warm up: every model gets its id, every test its row, and the
    // metric handles resolve.
    for &t in &tests {
        cache.insert((models[0], t), true);
    }
    for &m in &models {
        cache.insert((m, tests[0]), false);
    }
    let _ = cache.get((models[0], tests[0]));
    let _ = cache.get((1, 1));

    let before = allocations();
    for (i, &t) in tests.iter().enumerate() {
        for (j, &m) in models.iter().enumerate() {
            let _ = cache.get((m, t));
            cache.insert((m, t), (i + j) % 2 == 0);
            assert_eq!(cache.get((m, t)), Some((i + j) % 2 == 0));
        }
        // Misses: an unseen model, an unseen test.
        assert_eq!(cache.get((7, t)), None);
        assert_eq!(cache.get((models[0], 7)), None);
    }
    assert_eq!(allocations() - before, 0, "the single-cell path allocated");
    assert_eq!(cache.len(), models.len() * tests.len());
    assert!(sink.0.load(Ordering::Relaxed) >= cache.len() as u64);
}
