//! Pins the heap-allocation budget of warm planning with a counting
//! global allocator. A Kirin 990 planner first plans every batch once,
//! which fills its tables cache, partition memos and scratch pool; the
//! counted pass then plans the same batches again:
//!
//! - Fig. 7's batches (`random_combinations(1000, 200, 6, 12)`) may make
//!   at most [`BUDGET_PER_REQUEST`] allocations per planned request:
//!   step 1 on memo hits, the candidate assemblies (work stealing, tail
//!   search, contention estimate) and the planned pipeline itself;
//! - a one-request plan of each zoo model, the shape a survivor replan
//!   or a first serve dispatch has, may make at most
//!   [`BUDGET_PER_SINGLE_PLAN`] on average.
//!
//! The budgets bind release builds (`scripts/ci.sh` runs this test with
//! `--release`): debug builds re-run the subset search on every memo
//! hit and lint every plan, which allocate by design, so there the test
//! plans the batches and checks their shape only.
//!
//! The counting shim lives in the root test package for the reason
//! `tests/dp_alloc.rs` gives: `GlobalAlloc` is an `unsafe` trait and
//! the library crates forbid `unsafe`. Everything runs in ONE `#[test]`
//! so no sibling test's allocations bleed into the counter window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use h2p_models::graph::ModelGraph;
use h2p_models::zoo::ModelId;
use h2p_simulator::SocSpec;
use hetero2pipe::planner::Planner;
use hetero2pipe::workload::random_combinations;

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

/// Heap allocations allowed per planned request of a Fig. 7 batch. The
/// batches make 11.6; they made 11.9 while step 1 collected its
/// requests into a `Vec` before splitting them into plans and contexts,
/// and 14.0 while every formatted span name was a fresh `String`.
const BUDGET_PER_REQUEST: f64 = 28.0;

/// Heap allocations allowed per one-request plan, averaged over the zoo.
/// A one-request plan makes 13.4; it made 14.4 before step 1 stopped
/// collecting its requests twice, and 18.9 while every formatted span
/// name was a fresh `String`.
const BUDGET_PER_SINGLE_PLAN: f64 = 29.0;

/// Allocations made by `plan` over every batch, after a warm-up pass
/// over the same batches.
fn counted_pass(planner: &Planner, batches: &[Vec<ModelGraph>]) -> u64 {
    for graphs in batches {
        planner.plan(graphs).expect("warm-up plan");
    }
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    for graphs in batches {
        let planned = planner.plan(graphs).expect("plan");
        assert_eq!(planned.plan.requests.len(), graphs.len());
    }
    ALLOC_CALLS.load(Ordering::Relaxed) - before
}

#[test]
fn warm_planning_stays_within_its_allocation_budget() {
    let planner = Planner::new(&SocSpec::kirin_990()).expect("planner trains");

    let batches: Vec<Vec<ModelGraph>> = random_combinations(1000, 200, 6, 12)
        .iter()
        .map(|ids| ids.iter().map(|m| m.graph()).collect())
        .collect();
    let requests: usize = batches.iter().map(Vec::len).sum();
    let per_request = counted_pass(&planner, &batches) as f64 / requests as f64;

    let singles: Vec<Vec<ModelGraph>> = ModelId::ALL.iter().map(|m| vec![m.graph()]).collect();
    let per_single = counted_pass(&planner, &singles) as f64 / singles.len() as f64;

    println!(
        "warm planning: {per_request:.1} allocations per planned request over {} batches, \
         {per_single:.1} per one-request plan",
        batches.len()
    );
    assert!(
        cfg!(debug_assertions) || per_request <= BUDGET_PER_REQUEST,
        "warm planning made {per_request:.1} heap allocations per planned request \
         (budget {BUDGET_PER_REQUEST})"
    );
    assert!(
        cfg!(debug_assertions) || per_single <= BUDGET_PER_SINGLE_PLAN,
        "a warm one-request plan made {per_single:.1} heap allocations \
         (budget {BUDGET_PER_SINGLE_PLAN})"
    );
}
