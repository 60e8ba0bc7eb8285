//! Adversarial-interleaving regression tests for the `par` chunked
//! cursor and the rest of the model suite (ISSUE 7 satellite).
//!
//! These drive the controlled scheduler end to end: exhaustive DFS over
//! every interleaving of two/three workers racing the claim cursor,
//! with the exact-partition and lowest-index-error invariants asserted
//! under each schedule — plus the self-checks proving injected claim
//! bugs are caught.

use h2p_check::{run_injected, scenarios, CheckOptions, InjectedFault};

fn opts() -> CheckOptions {
    CheckOptions::default()
}

#[test]
fn two_workers_race_the_last_chunk() {
    // w=2, n=3 with chunk size 1: the last chunk is claimed while the
    // other worker still runs — every interleaving must keep the claim
    // set an exact partition and the output bit-identical.
    let report = scenarios::cursor_map(2, 3, None, opts());
    assert!(
        report.complete,
        "DFS must enumerate to completion: {report:?}"
    );
    assert!(report.schedules > 10, "too few interleavings: {report:?}");
    assert_eq!(report.violations, 0, "violations: {:?}", report.samples);
}

#[test]
fn three_workers_exact_partition() {
    let report = scenarios::cursor_map(3, 4, None, opts());
    assert!(
        report.complete,
        "DFS must enumerate to completion: {report:?}"
    );
    assert_eq!(report.violations, 0, "violations: {:?}", report.samples);
}

#[test]
fn error_raised_mid_claim_pins_lowest_index() {
    // An error at item 1 while both workers are mid-claim: the claimed
    // set must stay a prefix and the reported error must be item 1's
    // under every interleaving.
    let report = scenarios::cursor_try_map(2, 3, vec![1], opts());
    assert!(
        report.complete,
        "DFS must enumerate to completion: {report:?}"
    );
    assert!(report.schedules > 10, "too few interleavings: {report:?}");
    assert_eq!(report.violations, 0, "violations: {:?}", report.samples);
}

#[test]
fn competing_errors_still_report_lowest() {
    let report = scenarios::cursor_try_map(2, 4, vec![1, 3], opts());
    assert!(
        report.complete,
        "DFS must enumerate to completion: {report:?}"
    );
    assert_eq!(report.violations, 0, "violations: {:?}", report.samples);
}

#[test]
fn tables_cache_single_arc_per_key() {
    let report = scenarios::tables_cache(opts());
    assert!(
        report.complete,
        "DFS must enumerate to completion: {report:?}"
    );
    assert!(
        report.schedules > 1,
        "cache race needs >1 schedule: {report:?}"
    );
    assert_eq!(report.violations, 0, "violations: {:?}", report.samples);
}

#[test]
fn partition_memo_searches_once_per_key() {
    let report = scenarios::partition_memo(opts());
    assert!(
        report.complete,
        "DFS must enumerate to completion: {report:?}"
    );
    assert!(
        report.schedules > 1,
        "memo race needs >1 schedule: {report:?}"
    );
    assert_eq!(report.violations, 0, "violations: {:?}", report.samples);
}

#[test]
fn recovery_rounds_never_use_down_processors() {
    let report = scenarios::recovery_rounds();
    assert!(report.schedules > 50, "too few event paths: {report:?}");
    assert_eq!(report.violations, 0, "violations: {:?}", report.samples);
}

#[test]
fn injected_skip_claim_is_caught() {
    // The seeded "dropped cursor claim" bug: the cursor over-advances
    // past one index, the item is never handed out, and the merge's
    // lost-item check must fire.
    let report = run_injected(InjectedFault::SkipClaim, opts());
    assert!(
        report.violations > 0,
        "skip-claim was NOT caught: {report:?}"
    );
    assert!(
        report.samples.iter().any(|s| s.contains("lost the result")),
        "unexpected violation shape: {:?}",
        report.samples
    );
}

#[test]
fn injected_split_claim_is_caught() {
    // The torn (load/yield/store) claim: correct under most schedules,
    // double-claims an item only when the DFS drives both workers into
    // the window — the exact-partition instrumentation must catch it.
    let report = run_injected(InjectedFault::SplitClaim, opts());
    assert!(
        report.violations > 0,
        "split-claim was NOT caught: {report:?}"
    );
    assert!(
        report
            .samples
            .iter()
            .any(|s| s.contains("exact-partition violation")),
        "unexpected violation shape: {:?}",
        report.samples
    );
}
