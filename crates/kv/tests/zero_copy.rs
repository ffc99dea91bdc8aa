//! A written value is held once per cluster: the client's allocation is
//! the one the leader's and followers' logs and all three KV replicas
//! hold, and replicating it never makes a multi-segment buffer
//! contiguous.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use depfast_kv::KvCluster;
use depfast_raft::cluster::RaftKind;
use depfast_raft::core::RaftCfg;
use simkit::{Sim, World, WorldCfg};

fn cluster(seed: u64, clients: usize) -> (Sim, Rc<KvCluster>) {
    let sim = Sim::new(seed);
    let world = World::new(
        sim.clone(),
        WorldCfg {
            nodes: 3 + clients,
            ..WorldCfg::default()
        },
    );
    let cluster = KvCluster::build(
        &sim,
        &world,
        RaftKind::DepFast,
        3,
        clients,
        RaftCfg {
            bootstrap_leader: Some(0),
            ..RaftCfg::default()
        },
    );
    (sim, Rc::new(cluster))
}

#[test]
fn one_allocation_per_written_value_cluster_wide() {
    let (sim, cl) = cluster(5, 1);
    let key = Bytes::from_static(b"user42");
    let value = Bytes::from(vec![0xab; 1000]);
    let (c, k, v) = (cl.clone(), key.clone(), value.clone());
    sim.block_on(async move { c.clients[0].put(k, v).await.unwrap() });
    // Let the followers learn the commit index and apply.
    sim.run_until_time(sim.now() + Duration::from_millis(200));
    let held: Vec<Bytes> = cl
        .servers
        .iter()
        .map(|s| s.local_get(&key).expect("applied on every replica"))
        .collect();
    for v in &held {
        assert_eq!(*v, value);
        assert_eq!(v.as_ptr(), value.as_ptr(), "a replica holds its own copy");
    }
}

#[test]
fn replication_never_flattens_a_multi_segment_buffer() {
    let (sim, cl) = cluster(9, 4);
    let before = bytes::flatten_count();
    let ops = Rc::new(Cell::new(0u64));
    for i in 0..cl.clients.len() {
        let (cl, ops) = (cl.clone(), ops.clone());
        sim.spawn(async move {
            for n in 0u64.. {
                let key = Bytes::from(format!("k{}", (n * 7 + i as u64) % 50));
                let ok = if n % 3 == 0 {
                    cl.clients[i].get(key).await.is_ok_and(|v| v.is_some())
                } else {
                    let value = Bytes::from(vec![n as u8; 1000]);
                    cl.clients[i].put(key, value).await.is_ok()
                };
                ops.set(ops.get() + ok as u64);
            }
        });
    }
    sim.run_until_time(simkit::SimTime::from_millis(1500));
    assert!(ops.get() > 1000, "the run did work: {} ops", ops.get());
    assert_eq!(bytes::flatten_count(), before);
}
