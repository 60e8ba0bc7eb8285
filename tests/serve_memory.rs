//! Pins the memory a long-lived server and planner retain, with a
//! global allocator that tracks live heap bytes:
//!
//! - one `Server` with the serve-light shape (Kirin 990, window 4,
//!   1 request/s, `max_batch` 8, seed 1000) serves the same
//!   8,000-request stream twice, dropping each report. The second run
//!   may leave at most [`BUDGET_BYTES`] more live than the first;
//! - a warmed `Planner` plans Fig. 7's batches
//!   (`random_combinations(1000, 4000, 6, 12)`). What it retains after
//!   all 4,000 plans may exceed what it retained after the first 500 by
//!   at most [`BUDGET_BYTES`].
//!
//! Both hold because the planner's span recorder and lifecycle log keep
//! fixed retention windows, and the serve loop records its stream into
//! the report it returns. When those stores grew without bound, the
//! second run left ~2.9 MB more and the planner ~13.9 MB more.
//!
//! The budgets bind release builds (`scripts/ci.sh` runs this test with
//! `--release`). A debug build runs a tenth of each workload, which
//! does not fill the windows, and checks the serve invariants only.
//!
//! The tracking shim lives in the root test package for the reason
//! `tests/dp_alloc.rs` gives: `GlobalAlloc` is an `unsafe` trait and
//! the library crates forbid `unsafe`. Everything runs in ONE `#[test]`
//! so no sibling test's allocations bleed into the live-byte count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use h2p_models::graph::ModelGraph;
use h2p_serve::{ServeConfig, Server};
use h2p_simulator::SocSpec;
use hetero2pipe::planner::Planner;
use hetero2pipe::workload::random_combinations;

/// Tracks the bytes currently allocated through the system allocator.
struct LiveBytes;

static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        }
        new
    }
}

#[global_allocator]
static TRACKER: LiveBytes = LiveBytes;

/// Growth in retained bytes each check allows.
const BUDGET_BYTES: i64 = 64 * 1024;

fn live() -> i64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// Live bytes after `server` serves `cfg`'s stream and the report is
/// dropped.
fn retained_after_run(server: &Server, cfg: &ServeConfig) -> i64 {
    let report = server.run(cfg).expect("serve run");
    assert_eq!(report.counts.total(), cfg.requests);
    let violations = report.verify_invariants();
    assert!(violations.is_empty(), "{violations:?}");
    drop(report);
    live()
}

/// Live bytes after `planner` plans every batch.
fn retained_after_plans(planner: &Planner, batches: &[Vec<ModelGraph>]) -> i64 {
    for graphs in batches {
        let planned = planner.plan(graphs).expect("plan");
        assert_eq!(planned.plan.requests.len(), graphs.len());
    }
    live()
}

#[test]
fn long_lived_servers_and_planners_retain_flat_memory() {
    let scale = if cfg!(debug_assertions) { 10 } else { 1 };
    let soc = SocSpec::kirin_990();

    let server = Server::new(&soc, 4).expect("server builds");
    let cfg = ServeConfig {
        qps: 1.0,
        requests: 8_000 / scale,
        seed: 1000,
        max_batch: 8,
        ..ServeConfig::default()
    };
    let first_run = retained_after_run(&server, &cfg);
    let second_run = retained_after_run(&server, &cfg);
    drop(server);

    let planner = Planner::new(&soc).expect("planner trains");
    let batches: Vec<Vec<ModelGraph>> = random_combinations(1000, 4_000 / scale, 6, 12)
        .iter()
        .map(|ids| ids.iter().map(|m| m.graph()).collect())
        .collect();
    // Warm-up: every batch once fills the tables cache, the partition
    // memos and the scratch pool.
    retained_after_plans(&planner, &batches);
    let (early, late) = batches.split_at(batches.len() / 8);
    let after_early = retained_after_plans(&planner, early);
    let after_all = retained_after_plans(&planner, late);

    println!(
        "server: {first_run} B live after the first {}-request run, {:+} B after the second; \
         planner: {after_early} B live after {} plans, {:+} B after {}",
        cfg.requests,
        second_run - first_run,
        early.len(),
        after_all - after_early,
        batches.len()
    );
    assert!(
        cfg!(debug_assertions) || second_run - first_run <= BUDGET_BYTES,
        "a repeated serve run left {} more live bytes (budget {BUDGET_BYTES})",
        second_run - first_run
    );
    assert!(
        cfg!(debug_assertions) || after_all - after_early <= BUDGET_BYTES,
        "planning {} more batches left {} more live bytes (budget {BUDGET_BYTES})",
        late.len(),
        after_all - after_early
    );
}
