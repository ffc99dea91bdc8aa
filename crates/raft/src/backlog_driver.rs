//! **BacklogRaft** — the RethinkDB-style baseline.
//!
//! §2.2, second root cause: *"RethinkDB maintains an unbounded buffer at
//! the leader for outgoing writes — a slow follower can drive the leader
//! to use an excessive amount of memory, or even run out of memory."*
//!
//! BacklogRaft keeps a per-follower **unbounded replication queue** of
//! full entries at the leader, charged to the leader's memory model with a
//! per-entry amplification factor (the serialized buffers, change-feed
//! structures and indexes a real system keeps per queued write). A
//! stop-and-wait sender per follower drains its queue at the follower's
//! pace. A fail-slow follower therefore grows its queue without bound:
//! first the leader crosses its swap threshold and *everything* on the
//! node slows down, then the allocation that exceeds the limit OOM-kills
//! the leader — the paper's observed RethinkDB crash under CPU faults.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};
use std::time::Duration;

use depfast::event::Watchable;
use depfast::runtime::Coroutine;
use depfast_storage::Entry;
use simkit::NodeId;

use crate::core::{classified_reply, RaftCore, Role};
use crate::types::{to_wire, AppendReq, AppendResp, APPEND_ENTRIES};

/// BacklogRaft options.
#[derive(Debug, Clone, Copy)]
pub struct BacklogOpts {
    /// Entries per send.
    pub chunk: usize,
    /// Maximum chunks in flight per follower (the replication pipeline —
    /// the transport is competent; the pathology is the unbounded queue
    /// *behind* it).
    pub pipeline: usize,
    /// Memory charged per queued entry byte (models per-write buffer
    /// amplification in the real system).
    pub amplification: u64,
    /// Per-send reply deadline before retrying.
    pub rpc_timeout: Duration,
    /// Region-thread commit wait per round.
    pub commit_wait: Duration,
}

impl Default for BacklogOpts {
    fn default() -> Self {
        BacklogOpts {
            chunk: 16,
            pipeline: 64,
            amplification: 768,
            rpc_timeout: Duration::from_millis(500),
            commit_wait: Duration::from_millis(500),
        }
    }
}

struct FollowerQueue {
    q: VecDeque<Entry>,
    charged: u64,
    in_flight: usize,
    waker: Option<Waker>,
}

/// The BacklogRaft driver (fixed leader; use `bootstrap_leader`).
pub struct BacklogRaft;

impl BacklogRaft {
    /// Starts BacklogRaft coroutines on `core`.
    pub fn start(core: &Rc<RaftCore>, opts: BacklogOpts) {
        core.install_follower_services();
        if core.is_leader() {
            let queues: Vec<Rc<RefCell<FollowerQueue>>> = core
                .peers
                .iter()
                .map(|_| {
                    Rc::new(RefCell::new(FollowerQueue {
                        q: VecDeque::new(),
                        charged: 0,
                        in_flight: 0,
                        waker: None,
                    }))
                })
                .collect();
            for (i, peer) in core.peers.clone().into_iter().enumerate() {
                Self::spawn_sender(core, peer, queues[i].clone(), opts);
            }
            Self::spawn_main_loop(core, queues, opts);
        } else {
            core.spawn_apply_loop();
        }
    }

    fn spawn_main_loop(
        core: &Rc<RaftCore>,
        queues: Vec<Rc<RefCell<FollowerQueue>>>,
        opts: BacklogOpts,
    ) {
        let core = core.clone();
        Coroutine::create(&core.rt.clone(), "raft:backlog_main", async move {
            loop {
                if core.st.borrow().role != Role::Leader || core.world.is_crashed(core.id) {
                    break;
                }
                let deadline = core.rt.now() + core.cfg.heartbeat;
                let batch = {
                    let _g = depfast::PhaseGuard::enter("intake");
                    core.proposals
                        .pop_batch(&core.rt, core.cfg.batch_max, Some(deadline))
                        .await
                };
                let cpu = core.cfg.propose_cpu * batch.len().max(1) as u32;
                if core.world.cpu(core.id, cpu).await.is_err() {
                    break;
                }
                if batch.is_empty() {
                    continue;
                }
                let term = core.log.current_term();
                let start = core.log.last_index() + 1;
                let mut entries = Vec::with_capacity(batch.len());
                for (i, (payload, ev)) in batch.into_iter().enumerate() {
                    let index = start + i as u64;
                    entries.push(Entry {
                        term,
                        index,
                        payload,
                    });
                    core.pending.borrow_mut().insert(index, ev);
                }
                let hi = start + entries.len() as u64 - 1;
                let phase = depfast::PhaseSpan::begin(&core.rt, "wal_append");
                let io = core.log.append(&entries);
                if !io.handle().wait().await.is_ready() {
                    break;
                }
                phase.end();
                // Push full copies onto every follower queue — unbounded,
                // charged to leader memory with amplification.
                let phase = depfast::PhaseSpan::begin(&core.rt, "queue_push");
                for q in &queues {
                    let mut fq = q.borrow_mut();
                    for e in &entries {
                        let charge = e.size() * opts.amplification;
                        if core.world.mem_alloc(core.id, charge).is_err() {
                            // OOM: the leader process is killed.
                            core.world.crash(core.id);
                            return;
                        }
                        fq.charged += charge;
                        fq.q.push_back(e.clone());
                    }
                    if let Some(w) = fq.waker.take() {
                        w.wake();
                    }
                }
                phase.end();
                if hi > core.commit.get() {
                    let phase = depfast::PhaseSpan::begin(&core.rt, "commit_wait");
                    core.commit
                        .when_at_least(hi)
                        .wait_timeout(opts.commit_wait)
                        .await;
                    phase.end();
                }
                // Apply on the main loop (the swap penalty from the
                // growing buffers slows this directly).
                let phase = depfast::PhaseSpan::begin(&core.rt, "apply");
                if core.apply_committed_inline().await.is_err() {
                    break;
                }
                phase.end();
            }
        });
    }

    /// Pipelined sender: up to `pipeline` chunks in flight, each
    /// individually retried until acknowledged. The transport keeps up
    /// with latency; a follower whose *throughput* is degraded still sets
    /// the drain rate, and the queue behind the pipeline grows unbounded.
    fn spawn_sender(
        core: &Rc<RaftCore>,
        peer: NodeId,
        queue: Rc<RefCell<FollowerQueue>>,
        opts: BacklogOpts,
    ) {
        let core = core.clone();
        Coroutine::create(&core.rt.clone(), "raft:backlog_sender", async move {
            loop {
                if core.world.is_crashed(core.id) {
                    break;
                }
                let chunk = PopChunk {
                    queue: queue.clone(),
                    max: opts.chunk,
                    pipeline: opts.pipeline,
                }
                .await;
                queue.borrow_mut().in_flight += 1;
                let c = core.clone();
                let q = queue.clone();
                Coroutine::create(&core.rt.clone(), "raft:backlog_ack", async move {
                    let prev_index = chunk[0].index - 1;
                    c.note_entries_per_append(chunk.len());
                    let released: u64 = chunk.iter().map(|e| e.size() * opts.amplification).sum();
                    let req = AppendReq {
                        term: c.log.current_term(),
                        leader: c.id.0,
                        prev_index,
                        prev_term: c.log.term_at(prev_index),
                        entries: to_wire(chunk),
                        commit: c.commit.get(),
                        lazy: false,
                    };
                    // Retry until this chunk is acknowledged.
                    loop {
                        let ev = c.ep.proxy(peer).call_t(
                            c.method(APPEND_ENTRIES),
                            "append_entries",
                            &req,
                        );
                        let c2 = c.clone();
                        let classified = classified_reply::<AppendResp>(
                            &c.rt,
                            &ev,
                            peer,
                            "append_entries",
                            move |resp| {
                                let Some(resp) = resp else { return false };
                                if resp.success {
                                    c2.note_match(peer, resp.match_index);
                                    c2.advance_commit_from_matches();
                                }
                                resp.success
                            },
                        );
                        // The singular wait: this ack path is fully coupled
                        // to this one follower's speed.
                        let out = {
                            let _g = depfast::PhaseGuard::enter("queue_drain");
                            classified.wait_timeout(opts.rpc_timeout).await
                        };
                        if out.is_ready() {
                            break;
                        }
                        if c.world.is_crashed(c.id) {
                            return;
                        }
                    }
                    // Chunk acknowledged: release its memory charge.
                    let waker = {
                        let mut fq = q.borrow_mut();
                        fq.charged = fq.charged.saturating_sub(released);
                        fq.in_flight -= 1;
                        fq.waker.take()
                    };
                    c.world.mem_free(c.id, released);
                    if let Some(w) = waker {
                        w.wake();
                    }
                });
            }
        });
    }

    /// Current replication-queue memory charge for diagnostics.
    pub fn queued_bytes(world: &simkit::World, node: NodeId) -> u64 {
        world.mem_used(node)
    }
}

struct PopChunk {
    queue: Rc<RefCell<FollowerQueue>>,
    max: usize,
    pipeline: usize,
}

impl Future for PopChunk {
    type Output = Vec<Entry>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Vec<Entry>> {
        let mut fq = self.queue.borrow_mut();
        if fq.q.is_empty() || fq.in_flight >= self.pipeline {
            fq.waker = Some(cx.waker().clone());
            return Poll::Pending;
        }
        let take = fq.q.len().min(self.max);
        Poll::Ready(fq.q.drain(..take).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{build_cluster, RaftKind};
    use crate::core::RaftCfg;
    use bytes::Bytes;
    use simkit::{MemCfg, Sim, SimTime, World, WorldCfg};

    fn cluster(mem_limit: u64) -> (Sim, World, crate::cluster::RaftCluster) {
        let sim = Sim::new(9);
        let world = World::new(
            sim.clone(),
            WorldCfg {
                nodes: 3,
                mem: MemCfg {
                    limit: mem_limit,
                    baseline: mem_limit / 8,
                    swap_threshold: 0.5,
                    swap_max_slowdown: 10.0,
                },
                ..WorldCfg::default()
            },
        );
        let cfg = RaftCfg {
            bootstrap_leader: Some(0),
            ..RaftCfg::default()
        };
        let cl = build_cluster(&sim, &world, RaftKind::Backlog, 3, cfg);
        (sim, world, cl)
    }

    #[test]
    fn healthy_cluster_commits() {
        let (sim, _world, cl) = cluster(1 << 30);
        let mut committed = 0;
        for i in 0..30u32 {
            let ev = cl.group(0).servers[0].propose(Bytes::from(vec![i as u8; 64]));
            let out = sim.block_on({
                let ev = ev.clone();
                async move { ev.handle().wait_timeout(Duration::from_secs(2)).await }
            });
            if out.is_ready() {
                committed += 1;
            }
        }
        assert_eq!(committed, 30);
    }

    #[test]
    fn slow_follower_grows_leader_memory() {
        let (sim, world, cl) = cluster(1 << 30);
        world.set_cpu_quota(NodeId(2), 0.005);
        let before = world.mem_used(NodeId(0));
        for i in 0..300u32 {
            let ev = cl.group(0).servers[0].propose(Bytes::from(vec![(i % 251) as u8; 512]));
            sim.block_on({
                let ev = ev.clone();
                async move { ev.handle().wait_timeout(Duration::from_secs(1)).await }
            });
        }
        let after = world.mem_used(NodeId(0));
        assert!(
            after > before + 10 * 1024 * 1024,
            "queue to slow follower should charge leader memory: {before} -> {after}"
        );
    }

    #[test]
    fn sustained_backlog_ooms_the_leader() {
        let (sim, world, cl) = cluster(64 * 1024 * 1024);
        world.set_cpu_quota(NodeId(2), 0.002);
        // Open-loop pressure: propose without waiting for each commit.
        let mut crashed = false;
        'outer: for _round in 0..200 {
            for i in 0..64u32 {
                cl.group(0).servers[0].propose(Bytes::from(vec![(i % 251) as u8; 1024]));
            }
            sim.run_until_time(sim.now() + Duration::from_millis(50));
            if world.is_crashed(NodeId(0)) {
                crashed = true;
                break 'outer;
            }
        }
        assert!(crashed, "unbounded backlog must OOM-crash the leader");
        assert!(sim.now() < SimTime::from_secs(60));
    }
}
