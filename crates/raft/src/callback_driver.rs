//! **CallbackRaft** — the MongoDB-style event-loop baseline.
//!
//! The third pattern behind Figure 1: a callback/message-loop architecture
//! (§2.3's "spaghetti" style) where one loop serially executes every
//! callback — client intake, replication acks, periodic maintenance — and
//! replication lag engages a *flow-control* path that throttles intake and
//! synchronously probes the lagging follower with a short deadline.
//! Nothing here is algorithmically wrong (commit still needs only a
//! majority), yet the singular probe wait and the serialized loop put the
//! slow follower back on the critical path intermittently: modest
//! throughput loss, strongly amplified tail latency.
//!
//! The synchronous probe is exactly the kind of wait
//! [`depfast::verify::check_fail_slow_tolerance`] exists to flag, and the
//! tests assert that it does.

use std::rc::Rc;
use std::time::Duration;

use depfast::event::Watchable;
use depfast::runtime::Coroutine;
use depfast_storage::Entry;
use simkit::{NodeId, SimTime};

use crate::core::{classified_reply, RaftCore, Role};
use crate::types::{to_wire, AppendReq, AppendResp, APPEND_ENTRIES, FLOW_PROBE};

/// CallbackRaft options.
#[derive(Debug, Clone, Copy)]
pub struct CallbackOpts {
    /// Replication lag (entries) beyond which flow control engages.
    pub flow_threshold: u64,
    /// Extra per-batch CPU burned while flow control is engaged.
    pub flow_cpu: Duration,
    /// Deadline of the synchronous follower probe.
    pub probe_timeout: Duration,
    /// Minimum interval between synchronous probes.
    pub probe_every: Duration,
    /// Commit wait per round.
    pub commit_wait: Duration,
}

impl Default for CallbackOpts {
    fn default() -> Self {
        CallbackOpts {
            flow_threshold: 256,
            flow_cpu: Duration::from_micros(150),
            probe_timeout: Duration::from_millis(30),
            probe_every: Duration::from_millis(100),
            commit_wait: Duration::from_millis(500),
        }
    }
}

/// The CallbackRaft driver (fixed leader; use `bootstrap_leader`).
pub struct CallbackRaft;

impl CallbackRaft {
    /// Starts CallbackRaft coroutines on `core`.
    pub fn start(core: &Rc<RaftCore>, opts: CallbackOpts) {
        core.install_follower_services();
        Self::install_probe_service(core);
        if core.is_leader() {
            // Apply runs as callbacks on the message loop itself.
            Self::spawn_message_loop(core, opts);
        } else {
            core.spawn_apply_loop();
        }
    }

    fn install_probe_service(core: &Rc<RaftCore>) {
        let c = core.clone();
        core.ep.register(
            core.method(FLOW_PROBE),
            "raft:handle_probe",
            move |_from, _p, responder| {
                let c = c.clone();
                Coroutine::create(&c.rt.clone(), "raft:handle_probe", async move {
                    // Status computation on the (possibly slow) follower.
                    if c.world.cpu(c.id, Duration::from_micros(200)).await.is_ok() {
                        responder.reply_t(&c.log.last_index());
                    }
                });
            },
        );
    }

    fn spawn_message_loop(core: &Rc<RaftCore>, opts: CallbackOpts) {
        let core = core.clone();
        Coroutine::create(&core.rt.clone(), "raft:message_loop", async move {
            let mut last_probe = SimTime::ZERO;
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

                // Flow control: replication lag of the slowest member.
                let max_lag = {
                    let last = core.log.last_index();
                    core.peers
                        .iter()
                        .map(|p| last.saturating_sub(core.match_index(*p)))
                        .max()
                        .unwrap_or(0)
                };
                if max_lag > opts.flow_threshold {
                    // Throttling work runs inline on the loop.
                    if core.world.cpu(core.id, opts.flow_cpu).await.is_err() {
                        break;
                    }
                    if core.rt.now() - last_probe >= opts.probe_every {
                        last_probe = core.rt.now();
                        let laggard = {
                            let last = core.log.last_index();
                            core.peers
                                .iter()
                                .copied()
                                .max_by_key(|p| last.saturating_sub(core.match_index(*p)))
                                .expect("has peers")
                        };
                        let ev = core.ep.proxy(laggard).call(
                            core.method(FLOW_PROBE),
                            "flow_probe",
                            bytes::Bytes::new(),
                        );
                        // THE SINGULAR WAIT: the whole message loop stalls
                        // on the slow follower, up to probe_timeout.
                        let phase =
                            depfast::PhaseSpan::begin_blaming(&core.rt, "flow_probe", laggard);
                        ev.handle().wait_timeout(opts.probe_timeout).await;
                        phase.end();
                    }
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
                    if !io.handle().wait().await.is_ready() {
                        break;
                    }
                    phase.end();
                }
                let hi = core.log.last_index();

                // Sends are asynchronous; replies come back as callbacks
                // that also run (their CPU) on this node.
                for peer in core.peers.clone() {
                    let next = core.next_index(peer);
                    let send_hi = (hi + 1).min(next + core.cfg.max_entries_per_append as u64);
                    let (to_send, miss_bytes) = core.log.read_raw(next, send_hi);
                    if miss_bytes > 0 {
                        // Cold reads happen on a helper, not the loop.
                        let c = core.clone();
                        let peer2 = peer;
                        let req_entries = to_send.clone();
                        let prev = next - 1;
                        Coroutine::create(&core.rt.clone(), "raft:cold_read", async move {
                            if c.world
                                .disk(c.id, simkit::disk::DiskOp::Read { bytes: miss_bytes })
                                .await
                                .is_ok()
                            {
                                Self::send(&c, peer2, prev, req_entries);
                            }
                        });
                    } else {
                        Self::send(&core, peer, next - 1, to_send);
                    }
                }
                if hi > core.commit.get() {
                    let phase = depfast::PhaseSpan::begin(&core.rt, "commit_wait");
                    core.commit
                        .when_at_least(hi)
                        .wait_timeout(opts.commit_wait)
                        .await;
                    phase.end();
                }
                // Apply callbacks run on this same loop.
                let phase = depfast::PhaseSpan::begin(&core.rt, "apply");
                if core.apply_committed_inline().await.is_err() {
                    break;
                }
                phase.end();
            }
        });
    }

    fn send(core: &Rc<RaftCore>, peer: NodeId, prev_index: u64, entries: Vec<Entry>) {
        core.note_entries_per_append(entries.len());
        let req = AppendReq {
            term: core.log.current_term(),
            leader: core.id.0,
            prev_index,
            prev_term: core.log.term_at(prev_index),
            entries: to_wire(entries),
            commit: core.commit.get(),
            lazy: false,
        };
        let ev = core
            .ep
            .proxy(peer)
            .call_t(core.method(APPEND_ENTRIES), "append_entries", &req);
        let c2 = core.clone();
        classified_reply::<AppendResp>(&core.rt, &ev, peer, "append_entries", move |resp| {
            let Some(resp) = resp else { return false };
            if resp.success {
                c2.note_match(peer, resp.match_index);
                c2.advance_commit_from_matches();
                true
            } else {
                c2.note_reject(peer, resp.match_index);
                false
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
    use simkit::{Sim, World, WorldCfg};

    fn cluster() -> (Sim, World, crate::cluster::RaftCluster) {
        let sim = Sim::new(13);
        let world = World::new(
            sim.clone(),
            WorldCfg {
                nodes: 3,
                ..WorldCfg::default()
            },
        );
        let cfg = RaftCfg {
            bootstrap_leader: Some(0),
            ..RaftCfg::default()
        };
        let cl = build_cluster(&sim, &world, RaftKind::Callback, 3, cfg);
        (sim, world, cl)
    }

    fn drive(sim: &Sim, cl: &crate::cluster::RaftCluster, n: u32) -> (u32, Duration) {
        let mut committed = 0;
        let mut worst = Duration::ZERO;
        for i in 0..n {
            let t0 = sim.now();
            let ev = cl.group(0).servers[0].propose(Bytes::from(vec![(i % 251) as u8; 128]));
            let out = sim.block_on({
                let ev = ev.clone();
                async move { ev.handle().wait_timeout(Duration::from_secs(2)).await }
            });
            if out.is_ready() {
                committed += 1;
                worst = worst.max(sim.now() - t0);
            }
        }
        (committed, worst)
    }

    #[test]
    fn healthy_cluster_commits() {
        let (sim, _world, cl) = cluster();
        let (committed, _) = drive(&sim, &cl, 30);
        assert_eq!(committed, 30);
    }

    #[test]
    fn slow_follower_amplifies_tail_latency() {
        let (sim, world, cl) = cluster();
        let (_, healthy_worst) = drive(&sim, &cl, 100);
        world.set_cpu_quota(NodeId(2), 0.01);
        let (committed, slow_worst) = drive(&sim, &cl, 600);
        assert_eq!(committed, 600, "commits keep succeeding");
        assert!(
            slow_worst > healthy_worst * 2,
            "probes should spike the tail: healthy {healthy_worst:?} vs slow {slow_worst:?}"
        );
    }

    #[test]
    fn verifier_flags_the_synchronous_probe() {
        let (sim, world, cl) = cluster();
        let tracer = cl.tracer.clone();
        world.set_cpu_quota(NodeId(2), 0.01);
        // Build up lag first (tracing off to keep the trace small), then
        // record a window in which flow control is active.
        drive(&sim, &cl, 400);
        tracer.set_record_full(true);
        drive(&sim, &cl, 200);
        tracer.set_record_full(false);
        let spg = depfast::spg::build(&tracer.take_records());
        let violations =
            depfast::verify::check_fail_slow_tolerance(&spg, |l| l.starts_with("raft:"));
        assert!(
            violations
                .iter()
                .any(|v| v.event_label == "flow_probe" && v.waiter == NodeId(0)),
            "the flow probe must be flagged as a singular remote wait, got {violations:?}"
        );
    }
}
