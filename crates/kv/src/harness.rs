//! One-call construction of a complete replicated KV deployment: the
//! Raft groups of a [`Layout`] on server nodes `0..n`, one KV state
//! machine per replica, and shard-aware clients on nodes `n..n+c`. A
//! single group is the one-group, gid-0 layout; [`KvCluster`] is a view
//! of it.

use std::time::Duration;

use depfast_raft::cluster::{build_groups, GroupPlacement, Layout, RaftCluster, RaftKind};
use depfast_raft::core::RaftCfg;
use simkit::{NodeId, Sim, World};

use crate::client::KvClient;
use crate::server::{KvServer, DEFAULT_SERVE_CPU};
use crate::shard::{ShardMap, ShardedKvClient};

/// A running KV deployment: the Raft groups of a [`Layout`], a KV server
/// per replica, and shard-aware client sessions on the nodes after the
/// servers.
pub struct ShardedKvCluster {
    /// The underlying Raft cluster.
    pub raft: RaftCluster,
    /// KV servers per group: `servers[g][r]` is `raft.groups[g]`'s
    /// replica `r` (indexed like its `members`).
    pub servers: Vec<Vec<KvServer>>,
    /// Shard-aware client sessions (one per client host node).
    pub clients: Vec<ShardedKvClient>,
    /// Client host node ids.
    pub client_nodes: Vec<NodeId>,
    /// The key → group partition clients route by.
    pub map: ShardMap,
}

impl ShardedKvCluster {
    /// Builds the groups of `layout`, installs one KV state machine with
    /// per-request serve cost `serve_cpu` per replica, and creates
    /// `n_clients` shard-aware clients. `world` must have at least
    /// `layout.nodes() + n_clients` nodes.
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        sim: &Sim,
        world: &World,
        kind: RaftKind,
        layout: Layout,
        n_clients: usize,
        cfg: RaftCfg,
        serve_cpu: Duration,
    ) -> Self {
        let raft = build_groups(sim, world, kind, layout, cfg);
        let servers = raft
            .groups
            .iter()
            .map(|g| {
                g.servers
                    .iter()
                    .map(|s| KvServer::install_tuned(s.clone(), serve_cpu))
                    .collect()
            })
            .collect();
        let (clients, client_nodes) = raft.client_hosts(sim, world, n_clients, |ep, id| {
            ShardedKvClient::new(ep, &raft.groups, id)
        });
        ShardedKvCluster {
            map: ShardMap::new(raft.groups.len()),
            raft,
            servers,
            clients,
            client_nodes,
        }
    }

    /// [`ShardedKvCluster::build`] with `n_groups` groups of `group_size`
    /// replicas striped over `n_nodes` server nodes
    /// ([`GroupPlacement::Striped`]).
    #[allow(clippy::too_many_arguments)]
    pub fn build_tuned(
        sim: &Sim,
        world: &World,
        kind: RaftKind,
        n_groups: usize,
        n_nodes: usize,
        group_size: usize,
        n_clients: usize,
        cfg: RaftCfg,
        serve_cpu: Duration,
    ) -> Self {
        let layout = Layout::Groups {
            groups: n_groups,
            nodes: n_nodes,
            group_size,
            placement: GroupPlacement::Striped,
        };
        Self::build(sim, world, kind, layout, n_clients, cfg, serve_cpu)
    }
}

/// A single-group KV cluster: the [`Layout::Single`] deployment of
/// [`ShardedKvCluster`], with its one group's servers and client
/// sessions unwrapped.
pub struct KvCluster {
    /// The underlying Raft cluster (one group, gid 0).
    pub raft: RaftCluster,
    /// One KV server per cluster node.
    pub servers: Vec<KvServer>,
    /// Client sessions (one per client host node).
    pub clients: Vec<KvClient>,
    /// Client host node ids.
    pub client_nodes: Vec<NodeId>,
}

impl KvCluster {
    /// Builds `n_servers` KV servers of the given driver and `n_clients`
    /// clients on one `world` (which must have at least
    /// `n_servers + n_clients` nodes).
    pub fn build(
        sim: &Sim,
        world: &World,
        kind: RaftKind,
        n_servers: usize,
        n_clients: usize,
        cfg: RaftCfg,
    ) -> Self {
        Self::build_tuned(
            sim,
            world,
            kind,
            n_servers,
            n_clients,
            cfg,
            DEFAULT_SERVE_CPU,
        )
    }

    /// [`KvCluster::build`] with an explicit per-request serve CPU cost
    /// (used by the benchmark harness to calibrate leader utilization).
    pub fn build_tuned(
        sim: &Sim,
        world: &World,
        kind: RaftKind,
        n_servers: usize,
        n_clients: usize,
        cfg: RaftCfg,
        serve_cpu: Duration,
    ) -> Self {
        let layout = Layout::Single(n_servers);
        let c = ShardedKvCluster::build(sim, world, kind, layout, n_clients, cfg, serve_cpu);
        KvCluster {
            raft: c.raft,
            servers: c.servers.into_iter().flatten().collect(),
            clients: c.clients.into_iter().flat_map(|s| s.groups).collect(),
            client_nodes: c.client_nodes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use simkit::WorldCfg;
    use std::rc::Rc;

    fn world(n: usize) -> (Sim, World) {
        let sim = Sim::new(31);
        let world = World::new(
            sim.clone(),
            WorldCfg {
                nodes: n,
                ..WorldCfg::default()
            },
        );
        (sim, world)
    }

    #[test]
    fn put_then_get_round_trips() {
        let (sim, w) = world(4);
        let cl = KvCluster::build(
            &sim,
            &w,
            RaftKind::DepFast,
            3,
            1,
            RaftCfg {
                bootstrap_leader: Some(0),
                ..RaftCfg::default()
            },
        );
        let cl = Rc::new(cl);
        let cl2 = cl.clone();
        let out = sim.block_on(async move {
            let c = &cl2.clients[0];
            c.put(Bytes::from_static(b"k"), Bytes::from_static(b"v"))
                .await
                .unwrap();
            c.get(Bytes::from_static(b"k")).await.unwrap()
        });
        assert_eq!(out, Some(Bytes::from_static(b"v")));
    }

    #[test]
    fn client_discovers_leader_via_redirect() {
        let (sim, w) = world(4);
        let cl = Rc::new(KvCluster::build(
            &sim,
            &w,
            RaftKind::DepFast,
            3,
            1,
            RaftCfg {
                bootstrap_leader: Some(2),
                ..RaftCfg::default()
            },
        ));
        let cl2 = cl.clone();
        sim.block_on(async move {
            cl2.clients[0]
                .put(Bytes::from_static(b"a"), Bytes::from_static(b"1"))
                .await
                .unwrap();
        });
        assert_eq!(cl.clients[0].known_leader(), Some(NodeId(2)));
    }

    #[test]
    fn all_replicas_converge_on_applied_state() {
        let (sim, w) = world(4);
        let cl = Rc::new(KvCluster::build(
            &sim,
            &w,
            RaftKind::DepFast,
            3,
            1,
            RaftCfg {
                bootstrap_leader: Some(0),
                ..RaftCfg::default()
            },
        ));
        let cl2 = cl.clone();
        sim.block_on(async move {
            for i in 0..10u8 {
                cl2.clients[0]
                    .put(Bytes::from(vec![b'k', i]), Bytes::from(vec![b'v', i]))
                    .await
                    .unwrap();
            }
        });
        // Let follower apply loops drain.
        sim.run_until_time(sim.now() + std::time::Duration::from_secs(1));
        for s in &cl.servers {
            assert_eq!(s.keys(), 10, "replica state must converge");
        }
    }

    #[test]
    fn sharded_cluster_routes_puts_and_gets_per_group() {
        let (sim, w) = world(8);
        // 4 groups of 3 replicas striped over 6 nodes, 2 clients.
        let cl = Rc::new(ShardedKvCluster::build_tuned(
            &sim,
            &w,
            RaftKind::DepFast,
            4,
            6,
            3,
            2,
            RaftCfg {
                bootstrap_leader: Some(0),
                ..RaftCfg::default()
            },
            std::time::Duration::from_micros(30),
        ));
        let cl2 = cl.clone();
        sim.block_on(async move {
            for i in 0..20u32 {
                let key = Bytes::from(format!("key{i:04}"));
                let val = Bytes::from(format!("val{i}"));
                cl2.clients[(i % 2) as usize].put(key, val).await.unwrap();
            }
        });
        let cl2 = cl.clone();
        let out = sim.block_on(async move {
            let mut got = 0;
            for i in 0..20u32 {
                let key = Bytes::from(format!("key{i:04}"));
                let v = cl2.clients[0].get(key).await.unwrap();
                assert_eq!(v, Some(Bytes::from(format!("val{i}"))));
                got += 1;
            }
            got
        });
        assert_eq!(out, 20);
        // Keys landed in more than one group (the partition is real) and
        // every group's replicas agree.
        sim.run_until_time(sim.now() + std::time::Duration::from_secs(1));
        let mut nonempty = 0;
        for group in &cl.servers {
            let keys = group[0].keys();
            if keys > 0 {
                nonempty += 1;
            }
            for replica in group {
                assert_eq!(replica.keys(), keys, "replicas within a group converge");
            }
        }
        assert!(nonempty >= 2, "only {nonempty} of 4 groups hold keys");
    }

    #[test]
    fn retried_put_is_applied_once() {
        let (sim, w) = world(4);
        let cl = Rc::new(KvCluster::build(
            &sim,
            &w,
            RaftKind::DepFast,
            3,
            1,
            RaftCfg {
                bootstrap_leader: Some(0),
                ..RaftCfg::default()
            },
        ));
        let cl2 = cl.clone();
        sim.block_on(async move {
            cl2.clients[0]
                .put(Bytes::from_static(b"k"), Bytes::from_static(b"v"))
                .await
                .unwrap();
        });
        sim.run_until_time(sim.now() + std::time::Duration::from_millis(500));
        let applied_leader = cl.servers[0].applied();
        assert_eq!(applied_leader, 1);
    }
}
