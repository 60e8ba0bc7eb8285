//! Pins the allocation-free warm path of the telemetry layer with a
//! counting global allocator: once a recorder has seen its span names
//! and filled its retention window, a `span!` with a formatted name
//! under an open parent allocates nothing (its name is a typed key,
//! formatted only the first time the recorder sees it), and a metric
//! update by handle is an indexed add. The only allocation left is the
//! list of open spans a sweep reads, so the budget is one allocation
//! per sweep.
//!
//! The counting shim lives in the root test package for the reason
//! `tests/dp_alloc.rs` gives: `GlobalAlloc` is an `unsafe` trait and
//! the library crates forbid `unsafe`. Everything runs in ONE `#[test]`
//! so no sibling test's allocations bleed into the counter window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use h2p_telemetry::{span, MetricsRegistry, SpanRecorder};

/// Counts every `alloc`/`realloc` passed through to the system
/// allocator; frees are uncounted.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

const MODELS: [&str; 3] = ["BERT", "YOLOv4", "MobileNetV2"];

/// Formatted spans entered under each parent.
const CHILDREN: usize = 10;

/// Enters `plans` parents shaped like a planner's, each holding
/// [`CHILDREN`] formatted children, and counts one update per child by
/// handle. Returns how many sweeps evicted records.
fn record(rec: &SpanRecorder, metrics: &MetricsRegistry, plans: usize) -> u64 {
    let requests = metrics.counter("planner.requests");
    let mut sweeps = 0;
    for _ in 0..plans {
        let dropped = rec.dropped();
        {
            span!(rec, "plan:{}req", CHILDREN);
            for i in 0..CHILDREN {
                span!(rec, "prepare:{}:{}", i, MODELS[i % MODELS.len()]);
                metrics.add(requests, 1);
            }
        }
        sweeps += u64::from(rec.dropped() != dropped);
    }
    sweeps
}

#[test]
fn warm_spans_and_handle_updates_allocate_only_in_sweeps() {
    let rec = SpanRecorder::new();
    let metrics = MetricsRegistry::new();
    // Warm-up: every key seen, the window full and swept, the counter
    // maps at their high-water size.
    record(&rec, &metrics, 1_000);

    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    let sweeps = record(&rec, &metrics, 1_000);
    let allocs = ALLOC_CALLS.load(Ordering::Relaxed) - before;

    println!(
        "telemetry hot path: {allocs} allocations over 10,000 formatted child spans, \
         1,000 parents and 10,000 handle updates, {sweeps} sweeps"
    );
    assert!(sweeps >= 4, "only {sweeps} sweeps");
    assert!(
        allocs <= sweeps,
        "the warm telemetry path made {allocs} heap allocations over {sweeps} sweeps"
    );
    assert_eq!(metrics.snapshot().counter("planner.requests"), Some(20_000));
    let records = rec.records();
    assert_eq!(
        records.last().map(|r| r.name.as_str()),
        Some("prepare:9:BERT")
    );
}
