//! Heap allocations of cached queries in steady state, counted with a
//! global allocator on the Fig. 13 GPS speed network.
//!
//! A session runs every kernel query in one scratch register file, so a
//! query on a cached kernel allocates only its answer: the `Vec` a batch
//! returns, or the buffer a decision refills batch by batch. The
//! tree-walk's SIR posterior forks one sub-context per draw, not one per
//! candidate.
//!
//! The counter is process-wide, so this binary holds a single test:
//! nothing else allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use uncertain_suite::gps::priors::{posterior_speed, walking_speed};
use uncertain_suite::gps::{uncertain_speed, GeoCoordinate, GpsReading, MPS_TO_MPH};
use uncertain_suite::Session;

/// The system allocator, counting every allocation and reallocation.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the counter
// is an atomic and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract, and
        // `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `query` and returns its answer with the allocations it made.
fn counted<R>(query: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let answer = query();
    (answer, ALLOCATIONS.load(Ordering::SeqCst) - before)
}

/// Two readings a second apart at walking pace, as in Fig. 13.
fn fixes() -> (GpsReading, GpsReading) {
    let start = GeoCoordinate::new(47.6, -122.3);
    let end = start.destination(3.0 / MPS_TO_MPH, 90.0);
    (
        GpsReading::new(start, 4.0).expect("valid accuracy"),
        GpsReading::new(end, 4.0).expect("valid accuracy"),
    )
}

#[test]
fn cached_queries_allocate_only_their_answers() {
    let (a, b) = fixes();
    let speed = uncertain_speed(&a, &b, 1.0);
    let fast = speed.gt(4.0);
    let mut session = Session::seeded(1);

    // Each query runs once to lower its root and fit the scratch, then
    // again to be counted.
    session.samples(&speed, 1);
    let (_, one_row) = counted(|| session.samples(&speed, 1));
    session.pr(&fast, 0.5);
    let (_, decision) = counted(|| session.pr(&fast, 0.5));
    session.e(&speed, 2000);
    let (_, mean) = counted(|| session.e(&speed, 2000));
    assert_eq!(session.cache_stats().misses, 2, "both roots stayed cached");
    assert!(
        one_row <= 2,
        "a cached 1-row batch made {one_row} allocations"
    );
    assert!(
        decision <= 2,
        "a cached decision made {decision} allocations"
    );
    assert!(mean <= 2, "a cached 2 000-row e made {mean} allocations");

    // The SIR posterior tree-walks: its allocations are the memo entries
    // of each candidate's joint sample, not a fresh context per candidate.
    let posterior = posterior_speed(&a, &b, 1.0, walking_speed()).gt(4.0);
    session.evaluate(&posterior, 0.5);
    let (outcome, sir) = counted(|| session.evaluate(&posterior, 0.5));
    let per_sample = sir as f64 / outcome.samples as f64;
    assert!(
        per_sample <= 40.0,
        "a posterior decision made {per_sample:.1} allocations per sample"
    );
}
