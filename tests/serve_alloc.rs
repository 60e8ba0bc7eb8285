//! Pins the heap-allocation budget of the warm serve path with a
//! counting global allocator: a serve-light-shaped stream (Kirin 990,
//! window 4, 1 request/s, `max_batch` 8) served by `Server::run` may
//! make at most [`BUDGET_PER_REQUEST`] allocations per generated
//! request, amortized over the whole run: admission, batching, the
//! window-cache hit, lowering, simulation and the serve report.
//!
//! Nearly every dispatch of such a stream is one request served from
//! the window-plan cache, so the budget binds the copy-free dispatch
//! path: the shared window plan, the borrowed SoC, the structured task
//! labels and the engine's constant-size state.
//!
//! The budget binds release builds (`scripts/ci.sh` runs this test with
//! `--release`): debug builds re-plan every window-cache hit, lint
//! every plan and audit every trace, which allocate by design, so there
//! the test serves the stream and checks its invariants only.
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
/// 15.9; it made 17.9 while every window-cache lookup collected its
/// windows and their plans into two `Vec`s, and 18.8 while each
/// dispatch's `online-inc` span name was a fresh `String` and the online
/// planner recorded lifecycle events nothing read.
const BUDGET_PER_REQUEST: f64 = 30.0;

#[test]
fn warm_serve_path_stays_within_its_allocation_budget() {
    let soc = SocSpec::kirin_990();
    let server = Server::new(&soc, 4).expect("server builds");
    let cfg = ServeConfig {
        qps: 1.0,
        requests: 2_000,
        seed: 1000,
        max_batch: 8,
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
    println!("serve-light shape: {allocs} allocations, {per_request:.1} per request");
    assert!(
        cfg!(debug_assertions) || per_request <= BUDGET_PER_REQUEST,
        "the warm serve path made {per_request:.1} heap allocations per request \
         (budget {BUDGET_PER_REQUEST})"
    );
}
