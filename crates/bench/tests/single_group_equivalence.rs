//! A single Raft group is the one-group case of the multi-group cluster.
//!
//! From the same seed, `Shape::Single { servers: 3 }` and
//! `Shape::Sharded { groups: 1, nodes: 3, group_size: 3 }` must produce
//! the same client statistics and the same metrics snapshot, key for key,
//! once the sharded run's `g1` group tag is stripped — for every driver,
//! healthy and with a disk-slow follower. The single group lives in the
//! legacy gid-0 namespace, so none of its keys carries a group tag.

use std::time::Duration;

use depfast_bench::{run, RunCfg, RunOutput, Shape};
use depfast_fault::FaultKind;
use depfast_metrics::{group_label, Key, MetricValue};
use depfast_raft::cluster::RaftKind;

const DRIVERS: [RaftKind; 5] = [
    RaftKind::DepFast,
    RaftKind::Sync,
    RaftKind::Backlog,
    RaftKind::Callback,
    RaftKind::Chain,
];

fn run_shape(kind: RaftKind, shape: Shape, disk_slow: bool) -> RunOutput {
    let cfg = RunCfg {
        kind,
        shape,
        clients: 64,
        warmup: Duration::from_millis(600),
        measure: Duration::from_secs(2),
        records: 10_000,
        ..RunCfg::default()
    };
    run(&if disk_slow {
        cfg.with_fault([2], FaultKind::DiskSlow { bw_factor: 0.008 })
    } else {
        cfg
    })
}

/// The run's final metrics with `tag` removed from every key, sorted.
fn snapshot_without(out: &RunOutput, tag: &str) -> Vec<(Key, MetricValue)> {
    let mut snap: Vec<(Key, MetricValue)> = out
        .metrics
        .snapshot()
        .into_iter()
        .map(|(mut k, v)| {
            if k.tag == Some(tag) {
                k.tag = None;
            }
            (k, v)
        })
        .collect();
    snap.sort_by_key(|(k, _)| *k);
    snap
}

#[test]
fn single_group_matches_one_group_sharded_layout() {
    let g1 = group_label(1);
    for kind in DRIVERS {
        for disk_slow in [false, true] {
            let what = format!("{} (disk-slow: {disk_slow})", kind.name());
            let single = run_shape(kind, Shape::Single { servers: 3 }, disk_slow);
            let sharded = run_shape(
                kind,
                Shape::Sharded {
                    groups: 1,
                    nodes: 3,
                    group_size: 3,
                },
                disk_slow,
            );
            assert!(single.stats.ops > 0, "{what}: no ops committed");
            assert_eq!(
                format!("{:?}", single.stats),
                format!("{:?}", sharded.stats),
                "{what}: run stats differ"
            );
            let snap = single.metrics.snapshot();
            assert!(
                snap.iter().all(|(k, _)| k.tag != Some(g1)),
                "{what}: a single-group key carries a group tag"
            );
            assert!(
                sharded
                    .metrics
                    .snapshot()
                    .iter()
                    .any(|(k, _)| k.tag == Some(g1)),
                "{what}: the one-group sharded run tags nothing with g1"
            );
            let (a, b) = (
                snapshot_without(&single, g1),
                snapshot_without(&sharded, g1),
            );
            assert_eq!(a.len(), b.len(), "{what}: snapshot sizes differ");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x, y, "{what}: metric differs");
            }
        }
    }
}
