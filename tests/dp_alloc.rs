//! Pins the "allocation-free after warmup" contract of the flat DP
//! path with a counting global allocator: once a [`DpScratch`] arena
//! has seen its high-water shape, repeated `partition_into` sweeps over
//! processor subsets must perform **zero** heap allocations, and the
//! planner's scratch pool must recycle its arenas across consecutive
//! plans instead of allocating fresh ones.
//!
//! The counting shim lives here (and not in a library crate) because
//! `GlobalAlloc` is an `unsafe` trait: the workspace `unsafe_code =
//! "forbid"` lint binds the `crates/*` members, while this root test
//! package deliberately stays outside it for exactly this kind of
//! instrumentation.
//!
//! Everything runs in ONE `#[test]` so no sibling test's allocations
//! bleed into the counter window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use h2p_models::zoo::ModelId;
use h2p_simulator::SocSpec;
use hetero2pipe::partition::DpScratch;
use hetero2pipe::planner::Planner;

/// Counts every `alloc`/`realloc` passed through to the system
/// allocator. `dealloc` is uncounted: the contract under test is "no
/// new memory", not "no frees".
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

#[test]
fn warm_dp_path_is_allocation_free_and_pool_recycles() {
    let soc = SocSpec::kirin_990();
    let planner = Planner::new(&soc).expect("planner");
    let procs = soc.processors_by_power();

    // --- Steady-state kernel: zero allocations once the arena is warm.
    let tables = planner.estimator().tables(&ModelId::Bert.graph(), &procs);
    let mut scratch = DpScratch::new();
    // Warm at the high-water shape first (largest subset), then touch a
    // couple of smaller shapes so later sweeps never grow anything.
    for slots in [&[1usize, 2, 3] as &[usize], &[1], &[2, 3]] {
        tables
            .partition_into(slots, &mut scratch)
            .expect("feasible");
    }
    scratch.take_cells();

    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    for _ in 0..32 {
        for slots in [&[1usize, 2, 3] as &[usize], &[1], &[2, 3], &[0, 1, 2]] {
            tables
                .partition_into(slots, &mut scratch)
                .expect("feasible");
        }
    }
    scratch.take_cells();
    let delta = ALLOC_CALLS.load(Ordering::Relaxed) - before;
    assert_eq!(
        delta, 0,
        "warm partition_into sweep allocated {delta} time(s); the flat \
         DP path must be allocation-free after warmup"
    );

    // --- Planner scratch pool: a second identical plan must be served
    // entirely from recycled arenas (`planner.dp.scratch_allocs` flat).
    // Clearing the tables cache drops the memoized partitions, so the
    // second plan runs its subset searches again and checks scratches
    // out of the pool instead of answering from the memo.
    let graphs = [ModelId::Bert.graph(), ModelId::Vgg16.graph()];
    let counter = |name: &str| {
        planner
            .telemetry()
            .metrics
            .snapshot()
            .counter(name)
            .unwrap_or(0)
    };
    planner.plan(&graphs).expect("plan");
    let allocs_first = counter("planner.dp.scratch_allocs");
    let dps_first = counter("planner.dp.masks_evaluated");
    assert!(
        allocs_first > 0,
        "first plan should have populated the scratch pool"
    );
    planner.estimator().clear_tables_cache();
    planner.plan(&graphs).expect("plan");
    assert!(
        counter("planner.dp.masks_evaluated") > dps_first,
        "second plan ran no subset DP, so it never exercised the pool"
    );
    assert_eq!(
        allocs_first,
        counter("planner.dp.scratch_allocs"),
        "second plan allocated new DP scratches instead of recycling the pool"
    );
}
