//! **SyncRaft** — the TiDB-style baseline.
//!
//! §2.2, first root cause: *"TiDB Raftstore uses a single thread for each
//! data region. A fail-slow follower could force the leader to read old
//! entries from the disk (those entries have been evicted from the
//! in-memory EntryCache), thus blocking the whole thread during the disk
//! I/O."*
//!
//! SyncRaft reproduces the pattern: one *region thread* (coroutine) owns
//! proposal intake, the local WAL wait, and the per-follower send
//! preparation — including the EntryCache read. When a follower lags
//! behind the cache floor, the resulting disk read happens **inline on the
//! region thread**, stalling every client of the region, even though the
//! commit rule itself only needs the healthy majority.

use std::rc::Rc;
use std::time::Duration;

use depfast::event::Watchable;
use depfast::runtime::Coroutine;
use depfast_storage::Entry;
use simkit::disk::DiskOp;

use crate::core::{classified_reply, RaftCore, Role};
use crate::types::{to_wire, AppendReq, AppendResp, APPEND_ENTRIES};

/// SyncRaft options.
#[derive(Debug, Clone, Copy)]
pub struct SyncOpts {
    /// Per-iteration deadline for the region thread's commit wait.
    pub commit_wait: Duration,
}

impl Default for SyncOpts {
    fn default() -> Self {
        SyncOpts {
            commit_wait: Duration::from_millis(500),
        }
    }
}

/// The SyncRaft driver (fixed leader; use `bootstrap_leader`).
pub struct SyncRaft;

impl SyncRaft {
    /// Starts SyncRaft coroutines on `core`.
    ///
    /// On the leader, *apply also runs on the region thread* (TiDB's
    /// raftstore architecture) — so anything that blocks the thread blocks
    /// the state machine too.
    pub fn start(core: &Rc<RaftCore>, opts: SyncOpts) {
        core.install_follower_services();
        if core.is_leader() {
            Self::spawn_region_thread(core, opts);
        } else {
            core.spawn_apply_loop();
        }
    }

    /// The single region thread: batch intake → sync local append → one
    /// sequential send-preparation pass (with inline cold reads) → commit
    /// wait.
    fn spawn_region_thread(core: &Rc<RaftCore>, opts: SyncOpts) {
        let core = core.clone();
        Coroutine::create(&core.rt.clone(), "raft:region_thread", async move {
            loop {
                if core.st.borrow().role != Role::Leader {
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
                if !entries.is_empty() {
                    let phase = depfast::PhaseSpan::begin(&core.rt, "wal_append");
                    let io = core.log.append(&entries);
                    // Synchronous wait on the local WAL: the region thread
                    // does nothing else meanwhile.
                    if !io.handle().wait().await.is_ready() {
                        break;
                    }
                    phase.end();
                }
                let hi = core.log.last_index();

                // Sequential send preparation, one follower at a time.
                for peer in core.peers.clone() {
                    let next = core.next_index(peer);
                    let lo = next;
                    let send_hi = (hi + 1).min(lo + core.cfg.max_entries_per_append as u64);
                    let (to_send, miss_bytes) = core.log.read_raw(lo, send_hi);
                    if miss_bytes > 0 {
                        // THE ROOT CAUSE: the evicted-entry disk read runs
                        // inline on the region thread. Blame the follower
                        // whose lag forced the read below the cache floor.
                        let phase = depfast::PhaseSpan::begin_blaming(&core.rt, "cold_read", peer);
                        if core
                            .world
                            .disk(core.id, DiskOp::Read { bytes: miss_bytes })
                            .await
                            .is_err()
                        {
                            return;
                        }
                        phase.end();
                    }
                    core.note_entries_per_append(to_send.len());
                    let req = AppendReq {
                        term,
                        leader: core.id.0,
                        prev_index: lo - 1,
                        prev_term: core.log.term_at(lo - 1),
                        entries: to_wire(to_send),
                        commit: core.commit.get(),
                        lazy: false,
                    };
                    let ev = core.ep.proxy(peer).call_t(
                        core.method(APPEND_ENTRIES),
                        "append_entries",
                        &req,
                    );
                    let c2 = core.clone();
                    // Replies are processed by hooks (the region thread
                    // does not wait for them individually).
                    classified_reply::<AppendResp>(
                        &core.rt,
                        &ev,
                        peer,
                        "append_entries",
                        move |resp| {
                            let Some(resp) = resp else { return false };
                            if resp.term > c2.log.current_term() {
                                c2.step_down(resp.term, None);
                                return false;
                            }
                            if resp.success {
                                c2.note_match(peer, resp.match_index);
                                c2.advance_commit_from_matches();
                                true
                            } else {
                                c2.note_reject(peer, resp.match_index);
                                false
                            }
                        },
                    );
                }
                if hi > core.commit.get() {
                    // Wait for this round's entries to commit before the
                    // next intake (single-threaded pipeline of depth one).
                    let phase = depfast::PhaseSpan::begin(&core.rt, "commit_wait");
                    core.commit
                        .when_at_least(hi)
                        .wait_timeout(opts.commit_wait)
                        .await;
                    phase.end();
                }
                // Apply on the region thread itself.
                let phase = depfast::PhaseSpan::begin(&core.rt, "apply");
                if core.apply_committed_inline().await.is_err() {
                    break;
                }
                phase.end();
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{build_cluster, RaftKind};
    use crate::core::RaftCfg;
    use bytes::Bytes;
    use depfast_storage::LogStoreCfg;
    use simkit::NodeId;
    use simkit::{Sim, World, WorldCfg};

    fn cluster(cache_bytes: u64) -> (Sim, World, crate::cluster::RaftCluster) {
        let sim = Sim::new(5);
        let world = World::new(
            sim.clone(),
            WorldCfg {
                nodes: 3,
                ..WorldCfg::default()
            },
        );
        let cfg = RaftCfg {
            bootstrap_leader: Some(0),
            log: LogStoreCfg {
                cache_bytes,
                ..LogStoreCfg::default()
            },
            ..RaftCfg::default()
        };
        let cl = build_cluster(&sim, &world, RaftKind::Sync, 3, cfg);
        (sim, world, cl)
    }

    fn drive(sim: &Sim, cl: &crate::cluster::RaftCluster, n: u32, size: usize) -> u32 {
        let mut committed = 0;
        for i in 0..n {
            let ev = cl.group(0).servers[0].propose(Bytes::from(vec![(i % 251) as u8; size]));
            let out = sim.block_on({
                let ev = ev.clone();
                async move { ev.handle().wait_timeout(Duration::from_secs(2)).await }
            });
            if out.is_ready() {
                committed += 1;
            }
        }
        committed
    }

    #[test]
    fn healthy_cluster_commits() {
        let (sim, _world, cl) = cluster(1 << 20);
        assert_eq!(drive(&sim, &cl, 30, 64), 30);
    }

    #[test]
    fn slow_follower_forces_cache_misses_on_leader() {
        let (sim, world, cl) = cluster(64 * 1024);
        // Slow follower 2's network egress so its acks lag and its
        // next_index falls behind the cache floor.
        world.set_egress_delay(NodeId(2), Duration::from_millis(400));
        drive(&sim, &cl, 200, 1024);
        let leader_log = &cl.group(0).servers[0].core().log;
        assert!(
            leader_log.cache_misses() > 0,
            "lagging follower should push reads below the cache floor"
        );
    }

    #[test]
    fn commits_continue_with_one_slow_follower() {
        let (sim, world, cl) = cluster(64 * 1024);
        world.set_cpu_quota(NodeId(1), 0.05);
        let committed = drive(&sim, &cl, 50, 256);
        assert_eq!(committed, 50, "majority commit must still work");
    }
}
