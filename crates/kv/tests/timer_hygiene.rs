//! Abandoned timeouts cost nothing: every wait with a deadline cancels its
//! timer when it resolves early, so a long closed-loop KV run keeps a
//! live-timer count set by its concurrency, not by how long it has run or
//! how many operations it has completed.

use std::cell::Cell;
use std::rc::Rc;

use bytes::Bytes;
use depfast_kv::KvCluster;
use depfast_raft::cluster::RaftKind;
use depfast_raft::core::RaftCfg;
use simkit::{Sim, World, WorldCfg};

#[test]
fn live_timers_stay_bounded_over_a_long_run() {
    let sim = Sim::new(11);
    let world = World::new(
        sim.clone(),
        WorldCfg {
            nodes: 3 + 8,
            ..WorldCfg::default()
        },
    );
    let cluster = Rc::new(KvCluster::build(
        &sim,
        &world,
        RaftKind::DepFast,
        3,
        8,
        RaftCfg {
            bootstrap_leader: Some(0),
            ..RaftCfg::default()
        },
    ));
    let ops = Rc::new(Cell::new(0u64));
    for i in 0..cluster.clients.len() {
        let (cl, ops) = (cluster.clone(), ops.clone());
        sim.spawn(async move {
            for n in 0u64.. {
                let key = Bytes::from(format!("k{i}-{}", n % 64));
                if cl.clients[i]
                    .put(key, Bytes::from_static(b"v"))
                    .await
                    .is_ok()
                {
                    ops.set(ops.get() + 1);
                }
            }
        });
    }
    // Well past the 1.5 s attempt timeout and the 5 s proposal deadline,
    // the longest deadlines a put arms.
    let mut samples = Vec::new();
    for step in 1..=14u64 {
        sim.run_until_time(simkit::SimTime::from_millis(500 * step));
        samples.push(sim.live_timers());
    }
    let ops = ops.get();
    assert!(ops > 20_000, "the run did work: {ops} ops");
    // A few per node and per client session, however long the run: the
    // deadlines of the ops already completed were all cancelled.
    let (early, late) = samples.split_at(samples.len() / 2);
    let early_max = *early.iter().max().unwrap();
    let late_max = *late.iter().max().unwrap();
    assert!(
        late_max <= 64 && late_max <= 2 * early_max,
        "live timers every 0.5 s over {ops} ops: {samples:?}"
    );
}
