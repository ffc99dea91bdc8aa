//! Sharded cluster harness: M Raft groups of N servers plus coordinator
//! (client) hosts — the topology of the paper's Figure 2 (3 shards ×
//! 3 servers, s1–s9, with clients c1–c3).
//!
//! Built on the one cluster builder ([`build_groups`]): shard `i` is Raft
//! group `i + 1`, so transaction RPCs ride group-namespaced method ids
//! and every group's Raft metrics and health events carry its `g{gid}`
//! label. Placement is [`GroupPlacement::Disjoint`] to preserve the
//! figure's one-shard-per-node-triple layout. Keys route to shards
//! through the KV layer's [`ShardMap`].

use depfast::Tracer;
use depfast_kv::ShardMap;
use depfast_raft::cluster::{build_groups, GroupPlacement, Layout, RaftCluster, RaftKind};
use depfast_raft::core::RaftCfg;
use simkit::{NodeId, Sim, World};

use crate::coordinator::TxnClient;
use crate::server::TxnServer;

/// A sharded transactional deployment.
pub struct ShardedCluster {
    /// The underlying multi-group Raft cluster (shard `i` is group
    /// `i + 1`).
    pub raft: RaftCluster,
    /// `servers[shard][replica]`.
    pub servers: Vec<Vec<TxnServer>>,
    /// Shard membership (node ids), `shards[shard]`.
    pub shards: Vec<Vec<NodeId>>,
    /// Coordinator clients, one per client host.
    pub clients: Vec<TxnClient>,
    /// Client host node ids.
    pub client_nodes: Vec<NodeId>,
    /// Shared tracer (enable full recording to build the Figure 2 SPG).
    pub tracer: Tracer,
}

impl ShardedCluster {
    /// Builds `n_shards` DepFastRaft groups of `group_size` servers and
    /// `n_clients` coordinators. Server nodes are
    /// `0..n_shards*group_size`, clients follow.
    pub fn build(
        sim: &Sim,
        world: &World,
        n_shards: usize,
        group_size: usize,
        n_clients: usize,
        cfg: RaftCfg,
    ) -> Self {
        let layout = Layout::Groups {
            groups: n_shards,
            nodes: n_shards * group_size,
            group_size,
            placement: GroupPlacement::Disjoint,
        };
        let raft = build_groups(sim, world, RaftKind::DepFast, layout, cfg);
        let servers: Vec<Vec<TxnServer>> = raft
            .groups
            .iter()
            .map(|g| {
                g.servers
                    .iter()
                    .map(|s| TxnServer::install(s.clone()))
                    .collect()
            })
            .collect();
        let shards: Vec<Vec<NodeId>> = raft.groups.iter().map(|g| g.members.clone()).collect();
        let (clients, client_nodes) = raft.client_hosts(sim, world, n_clients, |ep, id| {
            TxnClient::new(ep.runtime().clone(), ep, shards.clone(), id)
        });
        ShardedCluster {
            tracer: raft.tracer.clone(),
            raft,
            servers,
            shards,
            clients,
            client_nodes,
        }
    }

    /// Routes a key to its shard (the coordinator's [`ShardMap`] routing).
    pub fn shard_of(&self, key: &bytes::Bytes) -> usize {
        (ShardMap::new(self.shards.len()).group_of(key) - 1) as usize
    }
}
