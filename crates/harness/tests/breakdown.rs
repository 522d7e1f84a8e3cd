//! Paper-style phase-breakdown properties on real runs: for Table-2 GC
//! protocols the certification-queue phase grows with offered load (the
//! §6 convoy effect that produces the saturation knee), and the abort-cause
//! partition is exact in every traced window.

use gdur_harness::{run_point_traced, Experiment, PlacementKind, Scale, WorkloadKind};
use gdur_obs::Phase;
use gdur_sim::SimDuration;

fn scale() -> Scale {
    Scale {
        keys_per_partition: 1_000,
        value_size: 64,
        warmup: SimDuration::from_millis(300),
        measure: SimDuration::from_secs(1),
        client_sweep: vec![2, 24],
        cores: 4,
        seed: 7,
        client_pooling: false,
    }
}

fn knee_check(spec: gdur_core::ProtocolSpec) {
    let name = spec.name;
    let exp = Experiment::new(spec, WorkloadKind::C, 0.7, 3, PlacementKind::Dp);
    let scale = scale();
    let (lo_point, lo, _) = run_point_traced(&exp, &scale, 2);
    let (hi_point, hi, _) = run_point_traced(&exp, &scale, 24);

    for (label, point, bd) in [("low", &lo_point, &lo), ("high", &hi_point, &hi)] {
        assert!(bd.committed > 0, "{name}/{label}: no commits in window");
        assert_eq!(
            bd.causes_sum(),
            bd.aborted,
            "{name}/{label}: abort causes must partition the aborted count"
        );
        assert_eq!(
            point.committed > 0,
            bd.committed > 0,
            "{name}/{label}: trace and records disagree about activity"
        );
    }
    // The convoy effect: mean certification-queue residence and queue depth
    // both grow as offered load pushes the system toward its knee.
    let (lo_wait, hi_wait) = (
        lo.phase(Phase::QueueWait).mean(),
        hi.phase(Phase::QueueWait).mean(),
    );
    assert!(
        hi_wait > lo_wait,
        "{name}: queue wait must grow toward saturation (low {lo_wait:.0} ns vs high {hi_wait:.0} ns)"
    );
    assert!(
        hi.queue_depth.quantile(0.99) >= lo.queue_depth.quantile(0.99),
        "{name}: p99 queue depth must not shrink under 12x load"
    );
}

#[test]
fn p_store_queue_wait_grows_toward_the_knee() {
    knee_check(gdur_protocols::p_store());
}

#[test]
fn s_dur_queue_wait_grows_toward_the_knee() {
    knee_check(gdur_protocols::s_dur());
}
