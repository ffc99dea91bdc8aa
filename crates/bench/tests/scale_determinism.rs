//! Determinism of the multi-group cluster: two runs of the same seeded
//! sharded configuration must agree operation for operation — identical
//! per-group statistics and byte-identical per-group incident dumps and
//! reports. Multi-group routing, co-located group scheduling, and the
//! group-scoped serial format all sit on this.

use std::time::Duration;

use depfast_bench::experiment::INCIDENT_SAMPLE_EVERY;
use depfast_bench::{run, RunCfg, RunOutput, Shape, Window};
use depfast_detect::DetectorCfg;
use depfast_fault::FaultKind;
use depfast_incident::{render_report, score, serialize_dumps, IncidentDump, RECOVERY_BAND};
use depfast_raft::cluster::RaftKind;

fn episode() -> (RunOutput, Vec<IncidentDump>) {
    let cfg = RunCfg {
        kind: RaftKind::DepFast,
        shape: Shape::Sharded {
            groups: 4,
            nodes: 5,
            group_size: 3,
        },
        clients: 48,
        warmup: Duration::from_secs(2),
        measure: Duration::from_millis(2400),
        records: 10_000,
        faults: vec![Window {
            node: 4,
            kind: FaultKind::DiskSlow { bw_factor: 0.008 },
            at: Duration::from_secs(2),
            duration: Some(Duration::from_millis(1000)),
        }],
        sample_every: Some(INCIDENT_SAMPLE_EVERY),
        detector: Some(DetectorCfg {
            min_samples: 4,
            ..DetectorCfg::default()
        }),
        ..RunCfg::default()
    };
    let out = run(&cfg);
    let dumps = out.group_dumps(&cfg, cfg.fault_name());
    (out, dumps)
}

#[test]
fn same_seed_sharded_runs_are_byte_identical() {
    let (a, a_dumps) = episode();
    let (b, b_dumps) = episode();

    // Client-visible statistics agree group by group.
    assert_eq!(a.stats.ops, b.stats.ops);
    assert_eq!(a.stats.errors, b.stats.errors);
    for (ga, gb) in a.groups.iter().zip(&b.groups) {
        assert_eq!(ga.gid, gb.gid);
        assert_eq!(ga.ops, gb.ops, "g{} op count drifted", ga.gid);
        assert_eq!(
            ga.latency.p99, gb.latency.p99,
            "g{} latency tail drifted",
            ga.gid
        );
    }

    // The group-scoped incident artifacts are byte-stable.
    assert!(
        a_dumps.iter().any(|d| !d.events.is_empty()),
        "no group recorded health events; the check would be vacuous"
    );
    assert!(
        a_dumps
            .iter()
            .flat_map(|d| &d.events)
            .any(|e| e.group.is_some()),
        "no group-stamped events; the 7-field serial path is untested"
    );
    assert_eq!(
        serialize_dumps(&a_dumps),
        serialize_dumps(&b_dumps),
        "per-group serial dumps must be byte-stable"
    );
    for (da, db) in a_dumps.iter().zip(&b_dumps) {
        let (ca, cb) = (score(da, RECOVERY_BAND), score(db, RECOVERY_BAND));
        assert_eq!(
            render_report(da, &ca),
            render_report(db, &cb),
            "{} report must be byte-stable",
            da.cluster
        );
    }
}
