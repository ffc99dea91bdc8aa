//! Cluster assembly: build the Raft groups of a [`Layout`] — one group
//! on `n` nodes, or many groups co-located on shared nodes — of a chosen
//! driver on a simulated world, sharing one tracer and RPC registry.

use std::ops::RangeInclusive;

use depfast::runtime::Runtime;
use depfast::Tracer;
use depfast_rpc::endpoint::Registry;
use depfast_rpc::{BufferPolicy, Endpoint, RpcCfg};
use simkit::{NodeId, Sim, World};

use crate::backlog_driver::{BacklogOpts, BacklogRaft};
use crate::callback_driver::{CallbackOpts, CallbackRaft};
use crate::chain_driver::{ChainOpts, ChainRaft};
use crate::core::{RaftCfg, RaftCore, RaftServer};
use crate::depfast_driver::{DepFastOpts, DepFastRaft};
use crate::sync_driver::{SyncOpts, SyncRaft};

/// Which implementation style drives the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaftKind {
    /// §3.4's fail-slow tolerant implementation.
    DepFast,
    /// TiDB-style single region thread with inline cold reads.
    Sync,
    /// RethinkDB-style unbounded leader-side replication queues.
    Backlog,
    /// MongoDB-style message loop with synchronous flow-control probes.
    Callback,
    /// Chain replication (head→…→tail), for the §3.3 tradeoff analysis.
    Chain,
}

impl RaftKind {
    /// Display name used in benchmark tables.
    pub fn name(self) -> &'static str {
        match self {
            RaftKind::DepFast => "DepFastRaft",
            RaftKind::Sync => "SyncRaft (TiDB-style)",
            RaftKind::Backlog => "BacklogRaft (RethinkDB-style)",
            RaftKind::Callback => "CallbackRaft (MongoDB-style)",
            RaftKind::Chain => "ChainRaft (chain replication)",
        }
    }
}

/// RPC configuration appropriate for `kind`: DepFastRaft uses bounded
/// buffers (part of its design); legacy drivers use unbounded transport
/// buffers like the systems they model.
pub fn rpc_cfg_for(kind: RaftKind) -> RpcCfg {
    match kind {
        RaftKind::DepFast => RpcCfg::default(),
        _ => RpcCfg {
            buffer: BufferPolicy::Unbounded,
            ..RpcCfg::default()
        },
    }
}

/// One Raft group of a cluster: its id, its member nodes and a server
/// handle per member (same order as `members`).
pub struct RaftGroup {
    /// Group id: 0 for the one group of a [`Layout::Single`] cluster (the
    /// legacy untagged, un-namespaced namespace), `1..` otherwise.
    pub gid: u32,
    /// Member nodes, in placement order (`members[b]` is the bootstrap
    /// leader when the cluster was built with `bootstrap_leader: Some(b)`).
    pub members: Vec<NodeId>,
    /// One server handle per member, indexed like `members`.
    pub servers: Vec<RaftServer>,
}

impl RaftGroup {
    /// The group's current leader node, if exactly one member claims it.
    pub fn leader(&self) -> Option<NodeId> {
        let leaders: Vec<NodeId> = self
            .servers
            .iter()
            .filter(|s| s.is_leader())
            .map(|s| s.node())
            .collect();
        match leaders.as_slice() {
            [one] => Some(*one),
            _ => None,
        }
    }

    /// The server handle running on `node`, if this group has a member
    /// there.
    pub fn server_on(&self, node: NodeId) -> Option<&RaftServer> {
        self.members
            .iter()
            .position(|m| *m == node)
            .map(|i| &self.servers[i])
    }

    /// Whether `node` hosts a replica of this group.
    pub fn hosts(&self, node: NodeId) -> bool {
        self.members.contains(&node)
    }
}

/// A built cluster: `groups.len()` Raft groups over `runtimes.len()`
/// server nodes, sharing one world, tracer, registry and one RPC
/// endpoint per node.
pub struct RaftCluster {
    /// The driver every replica runs.
    pub kind: RaftKind,
    /// The groups, in gid order.
    pub groups: Vec<RaftGroup>,
    /// Per-node DepFast runtimes, indexed by node id.
    pub runtimes: Vec<Runtime>,
    /// Per-node RPC endpoints, indexed by node id (shared by every group
    /// co-located on that node).
    pub endpoints: Vec<Endpoint>,
    /// The cluster-shared tracer.
    pub tracer: Tracer,
    /// The cluster-shared RPC registry.
    pub registry: Registry,
}

impl RaftCluster {
    /// The group with id `gid` (0 for a single-group cluster).
    pub fn group(&self, gid: u32) -> &RaftGroup {
        &self.groups[(gid - self.groups[0].gid) as usize]
    }

    /// Ids of every group hosting a replica on `node`.
    pub fn groups_on(&self, node: NodeId) -> Vec<u32> {
        self.groups
            .iter()
            .filter(|g| g.hosts(node))
            .map(|g| g.gid)
            .collect()
    }

    /// Opens `n` client hosts on the nodes after the servers
    /// (`runtimes.len() + i`): each gets its own runtime on the cluster
    /// tracer and an endpoint on the cluster registry, which
    /// `session(endpoint, i + 1)` turns into a client session.
    /// Returns the sessions and their host nodes.
    pub fn client_hosts<C>(
        &self,
        sim: &Sim,
        world: &World,
        n: usize,
        mut session: impl FnMut(Endpoint, u64) -> C,
    ) -> (Vec<C>, Vec<NodeId>) {
        let first = self.runtimes.len();
        assert!(
            world.node_count() >= first + n,
            "world too small: {} nodes for {first} servers + {n} clients",
            world.node_count(),
        );
        let nodes: Vec<NodeId> = (first..first + n).map(|i| NodeId(i as u32)).collect();
        let sessions = nodes
            .iter()
            .enumerate()
            .map(|(i, node)| {
                let rt = Runtime::with_tracer(sim.clone(), *node, self.tracer.clone());
                let ep = Endpoint::new(&rt, world, &self.registry, rpc_cfg_for(self.kind));
                session(ep, i as u64 + 1)
            })
            .collect();
        (sessions, nodes)
    }
}

/// How a multi-group cluster lays its replicas over the server nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupPlacement {
    /// Group `g` (1-based) lives on nodes `(g - 1 + r) % n_nodes` —
    /// consecutive groups start one node apart, so replicas (and
    /// bootstrap leaders, which round-robin with the stripe) spread
    /// evenly and any single node hosts roughly
    /// `n_groups * group_size / n_nodes` replicas. This co-location is
    /// the fleet-scale topology the blast-radius experiments model.
    Striped,
    /// Group `g` (1-based) owns nodes
    /// `(g-1)*group_size .. g*group_size` exclusively — the paper's
    /// Figure 2 topology (shard 1 on s1–s3, shard 2 on s4–s6, …).
    /// Requires `n_nodes >= n_groups * group_size`.
    Disjoint,
}

/// Which Raft groups a cluster runs and where their replicas live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// One group of `n` replicas on nodes `0..n`, numbered gid 0: the
    /// legacy namespace (untagged metrics, un-namespaced RPC methods).
    Single(usize),
    /// `groups` groups (gids `1..=groups`) of `group_size` replicas each
    /// over nodes `0..nodes`.
    Groups {
        /// Number of Raft groups.
        groups: usize,
        /// Server nodes the groups are placed on.
        nodes: usize,
        /// Replicas per group.
        group_size: usize,
        /// How replicas map to nodes.
        placement: GroupPlacement,
    },
}

impl Layout {
    /// Server nodes the layout occupies.
    pub fn nodes(&self) -> usize {
        match *self {
            Layout::Single(n) => n,
            Layout::Groups { nodes, .. } => nodes,
        }
    }

    /// The layout's group ids, once it is checked to be well formed.
    fn gids(&self) -> RangeInclusive<u32> {
        match *self {
            Layout::Single(n) => {
                assert!(n >= 1);
                0..=0
            }
            Layout::Groups {
                groups,
                nodes,
                group_size,
                placement,
            } => {
                assert!(groups >= 1 && group_size >= 1 && nodes >= group_size);
                if placement == GroupPlacement::Disjoint {
                    assert!(
                        nodes >= groups * group_size,
                        "disjoint placement needs {} nodes, world has {nodes}",
                        groups * group_size
                    );
                }
                1..=groups as u32
            }
        }
    }

    /// Member nodes of group `gid`, in placement order.
    fn members(&self, gid: u32) -> Vec<NodeId> {
        match *self {
            Layout::Single(n) => (0..n as u32).map(NodeId).collect(),
            Layout::Groups {
                nodes,
                group_size,
                placement,
                ..
            } => (0..group_size as u32)
                .map(|r| match placement {
                    GroupPlacement::Striped => NodeId((gid - 1 + r) % nodes as u32),
                    GroupPlacement::Disjoint => NodeId((gid - 1) * group_size as u32 + r),
                })
                .collect(),
        }
    }
}

/// Builds and starts a single group of `n` replicas of the given driver
/// on nodes `0..n` of `world` ([`Layout::Single`]).
pub fn build_cluster(
    sim: &Sim,
    world: &World,
    kind: RaftKind,
    n: usize,
    cfg: RaftCfg,
) -> RaftCluster {
    build_groups(sim, world, kind, Layout::Single(n), cfg)
}

/// Builds and starts the Raft groups of `layout` on `world`.
///
/// One tracer records into the world's registry: substrate (`sim.*`),
/// transport (`rpc.*`), event (`event.*`) and driver (`raft.*`) series
/// all land in one place, keyed by node. All groups co-located on a node
/// share that node's runtime and RPC endpoint; method-id namespacing
/// ([`RaftCore::method`]) and `g{gid}` metric tags keep them apart. With
/// `cfg.bootstrap_leader: Some(b)`, each group bootstraps its member `b`
/// as leader.
pub fn build_groups(
    sim: &Sim,
    world: &World,
    kind: RaftKind,
    layout: Layout,
    cfg: RaftCfg,
) -> RaftCluster {
    let tracer = Tracer::with_metrics(world.metrics());
    let registry = Registry::new();
    let (runtimes, endpoints): (Vec<Runtime>, Vec<Endpoint>) = (0..layout.nodes() as u32)
        .map(|id| {
            let rt = Runtime::with_tracer(sim.clone(), NodeId(id), tracer.clone());
            let ep = Endpoint::new(&rt, world, &registry, rpc_cfg_for(kind));
            (rt, ep)
        })
        .unzip();
    let groups = layout
        .gids()
        .map(|gid| {
            let members = layout.members(gid);
            let group_cfg = RaftCfg {
                bootstrap_leader: cfg.bootstrap_leader.map(|b| members[b as usize].0),
                ..cfg
            };
            let servers = members
                .iter()
                .map(|m| {
                    let (rt, ep) = (&runtimes[m.0 as usize], &endpoints[m.0 as usize]);
                    let core =
                        RaftCore::new_in_group(rt, world, ep, members.clone(), group_cfg, gid);
                    match kind {
                        RaftKind::DepFast => DepFastRaft::start(&core, DepFastOpts::default()),
                        RaftKind::Sync => SyncRaft::start(&core, SyncOpts::default()),
                        RaftKind::Backlog => BacklogRaft::start(&core, BacklogOpts::default()),
                        RaftKind::Callback => CallbackRaft::start(&core, CallbackOpts::default()),
                        RaftKind::Chain => ChainRaft::start(&core, ChainOpts::default()),
                    }
                    RaftServer::new(core, kind)
                })
                .collect();
            RaftGroup {
                gid,
                members,
                servers,
            }
        })
        .collect();
    RaftCluster {
        kind,
        groups,
        runtimes,
        endpoints,
        tracer,
        registry,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use depfast::event::Watchable;
    use simkit::WorldCfg;
    use std::time::Duration;

    #[test]
    fn every_kind_builds_and_commits() {
        for kind in [
            RaftKind::DepFast,
            RaftKind::Sync,
            RaftKind::Backlog,
            RaftKind::Callback,
        ] {
            let sim = Sim::new(17);
            let world = World::new(
                sim.clone(),
                WorldCfg {
                    nodes: 3,
                    ..WorldCfg::default()
                },
            );
            let cl = build_cluster(
                &sim,
                &world,
                kind,
                3,
                RaftCfg {
                    bootstrap_leader: Some(0),
                    ..RaftCfg::default()
                },
            );
            let ev = cl.group(0).servers[0].propose(Bytes::from_static(b"smoke"));
            let out = sim.block_on({
                let ev = ev.clone();
                async move { ev.handle().wait_timeout(Duration::from_secs(2)).await }
            });
            assert!(out.is_ready(), "{} failed to commit", kind.name());
            assert_eq!(cl.group(0).leader(), Some(NodeId(0)));
            assert_eq!(cl.group(0).gid, 0);
        }
    }

    #[test]
    fn five_node_cluster_commits() {
        let sim = Sim::new(23);
        let world = World::new(
            sim.clone(),
            WorldCfg {
                nodes: 5,
                ..WorldCfg::default()
            },
        );
        let cl = build_cluster(
            &sim,
            &world,
            RaftKind::DepFast,
            5,
            RaftCfg {
                bootstrap_leader: Some(0),
                ..RaftCfg::default()
            },
        );
        let ev = cl.group(0).servers[0].propose(Bytes::from_static(b"five"));
        let out = sim.block_on({
            let ev = ev.clone();
            async move { ev.handle().wait_timeout(Duration::from_secs(2)).await }
        });
        assert!(out.is_ready());
    }

    #[test]
    fn multi_group_cluster_commits_in_every_group() {
        let sim = Sim::new(29);
        let world = World::new(
            sim.clone(),
            WorldCfg {
                nodes: 5,
                ..WorldCfg::default()
            },
        );
        let mc = build_groups(
            &sim,
            &world,
            RaftKind::DepFast,
            Layout::Groups {
                groups: 4,
                nodes: 5,
                group_size: 3,
                placement: GroupPlacement::Striped,
            },
            RaftCfg {
                bootstrap_leader: Some(0),
                ..RaftCfg::default()
            },
        );
        assert_eq!(mc.groups.len(), 4);
        // Striped placement: group g starts on node g-1, leaders round-robin.
        assert_eq!(mc.group(1).members[0], NodeId(0));
        assert_eq!(mc.group(3).members[0], NodeId(2));
        assert_eq!(mc.groups_on(NodeId(2)), vec![1, 2, 3]);
        for g in &mc.groups {
            let ev = g.servers[0].propose(Bytes::from_static(b"multi"));
            let out = sim.block_on({
                let ev = ev.clone();
                async move { ev.handle().wait_timeout(Duration::from_secs(2)).await }
            });
            assert!(out.is_ready(), "group {} failed to commit", g.gid);
            assert_eq!(g.leader(), Some(g.members[0]));
        }
    }

    #[test]
    fn disjoint_placement_gives_each_group_its_own_nodes() {
        let sim = Sim::new(37);
        let world = World::new(
            sim.clone(),
            WorldCfg {
                nodes: 6,
                ..WorldCfg::default()
            },
        );
        let mc = build_groups(
            &sim,
            &world,
            RaftKind::DepFast,
            Layout::Groups {
                groups: 2,
                nodes: 6,
                group_size: 3,
                placement: GroupPlacement::Disjoint,
            },
            RaftCfg {
                bootstrap_leader: Some(0),
                ..RaftCfg::default()
            },
        );
        assert_eq!(mc.group(1).members, vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(mc.group(2).members, vec![NodeId(3), NodeId(4), NodeId(5)]);
        assert_eq!(mc.groups_on(NodeId(4)), vec![2]);
        for g in &mc.groups {
            let ev = g.servers[0].propose(Bytes::from_static(b"disjoint"));
            let out = sim.block_on({
                let ev = ev.clone();
                async move { ev.handle().wait_timeout(Duration::from_secs(2)).await }
            });
            assert!(out.is_ready(), "group {} failed to commit", g.gid);
        }
    }
}
