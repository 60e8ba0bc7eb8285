//! Pins the heap-allocation budget of the chaos serve path with a
//! counting global allocator: a serve-chaos-shaped stream (Kirin 990,
//! window 4, 1 request/s, `max_batch` 8, seeded faults) served by
//! `Server::run` may make at most [`BUDGET_PER_REQUEST`] allocations per
//! generated request, amortized over the whole run. Every dispatch of
//! such a stream runs through `run_with_recovery`: the round-0 plan,
//! survivor replans, lowering, the faulted simulation, the in-place
//! faulted audit, the round state and the serve report.
//!
//! The budget binds release builds (`scripts/ci.sh` runs this test with
//! `--release`): debug builds lint every plan and assert every audit,
//! which allocate by design, so there the test serves the stream and
//! checks its invariants only.
//!
//! The counting shim lives in the root test package for the reason
//! `tests/dp_alloc.rs` gives: `GlobalAlloc` is an `unsafe` trait and
//! the library crates forbid `unsafe`. Everything runs in ONE `#[test]`
//! so no sibling test's allocations bleed into the counter window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use h2p_serve::{ServeConfig, Server};
use h2p_simulator::SocSpec;

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

/// Heap allocations allowed per generated request. The stream makes
/// 51.3 (76.1 per dispatch); it made 52.0 (77.1 per dispatch) before
/// step 1 stopped collecting its requests twice, 56.3 (83.5 per
/// dispatch) while
/// every formatted span name was a fresh `String`, 58.8 (87.3 per
/// dispatch) while survivor replans cloned every request's context, and
/// 86.3 before the faulted audit ran in place and the round state was
/// made once per call.
const BUDGET_PER_REQUEST: f64 = 70.0;

#[test]
fn chaos_serve_path_stays_within_its_allocation_budget() {
    let soc = SocSpec::kirin_990();
    let server = Server::new(&soc, 4).expect("server builds");
    let cfg = ServeConfig {
        qps: 1.0,
        requests: 1_000,
        seed: 1000,
        max_batch: 8,
        chaos: true,
        ..ServeConfig::default()
    };

    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    let report = server.run(&cfg).expect("serve run");
    let allocs = ALLOC_CALLS.load(Ordering::Relaxed) - before;

    assert_eq!(report.counts.total(), cfg.requests);
    assert!(
        report.verify_invariants().is_empty(),
        "{:?}",
        report.verify_invariants()
    );
    let per_request = allocs as f64 / cfg.requests as f64;
    let per_dispatch = allocs as f64 / report.dispatches.max(1) as f64;
    println!(
        "serve-chaos shape: {allocs} allocations over {} dispatches, \
         {per_request:.1} per request, {per_dispatch:.1} per dispatch",
        report.dispatches
    );
    assert!(
        cfg!(debug_assertions) || per_request <= BUDGET_PER_REQUEST,
        "the chaos serve path made {per_request:.1} heap allocations per request \
         (budget {BUDGET_PER_REQUEST})"
    );
}
