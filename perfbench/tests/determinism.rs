//! Determinism and plan-neutrality of the benchmark itself, on one client
//! with no concurrent writer. Build with `--release`: each case loads a
//! full 20-nominal-GB deployment.

use perfbench::run::{replay, Replay};
use perfbench::workload::Workload;

/// Queries per replay: one rotation of the analytic mix, and a longer run of
/// the cheap lookups.
fn queries(workload: Workload) -> usize {
    match workload {
        Workload::Analytic => 3,
        _ => 60,
    }
}

fn counters(r: &Replay) -> (u64, u64, u64) {
    (r.rpc_count, r.cells_scanned, r.shuffle_bytes)
}

#[test]
fn traced_and_untraced_runs_match_and_repeat() {
    for workload in [Workload::Analytic, Workload::Lookup] {
        let n = queries(workload);
        let first = replay(workload, 7, n, false).unwrap();
        let again = replay(workload, 7, n, false).unwrap();
        let traced = replay(workload, 7, n, true).unwrap();
        assert_eq!(first.failed, 0, "{workload:?}: result checks");
        assert!(first.rpc_count > 0 && first.cells_scanned > 0);
        // The same seed repeats every counter.
        assert_eq!(first.queries, again.queries);
        assert_eq!(counters(&first), counters(&again), "{workload:?}");
        // Tracing wrappers change neither the plan nor the results.
        assert_eq!(first.queries, traced.queries);
        assert_eq!(first.rows, traced.rows, "{workload:?}: traced rows");
        assert_eq!(
            counters(&first),
            counters(&traced),
            "{workload:?}: traced counters"
        );
        assert_eq!(traced.failed, 0);
    }
}

#[test]
fn another_seed_draws_other_parameters_and_passes_checks() {
    for workload in [Workload::Analytic, Workload::Lookup] {
        let n = queries(workload);
        let a = replay(workload, 7, n, false).unwrap();
        let b = replay(workload, 8, n, false).unwrap();
        assert_ne!(
            a.queries, b.queries,
            "{workload:?}: parameters follow the seed"
        );
        assert_eq!(b.failed, 0, "{workload:?}: result checks at another seed");
    }
}
