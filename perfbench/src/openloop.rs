//! The open-loop Poisson generator and the cluster it drives.
//!
//! One [`Run`] is one simulated deployment: a world, a KV cluster (single
//! group or sharded) and a pool of client sessions fed by a Poisson
//! arrival process. Ops are generated on their due time whatever the
//! cluster is doing; an op due while every session is busy waits in the
//! generator's backlog. Latency is measured from the due time.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::poll_fn;
use std::rc::Rc;
use std::task::{Poll, Waker};
use std::time::{Duration, Instant};

use bytes::Bytes;
use depfast_fault::FaultKind;
use depfast_kv::{KvCluster, KvServer, ShardedKvCluster};
use depfast_raft::cluster::RaftKind;
use depfast_raft::core::RaftCfg;
use depfast_storage::{LogStoreCfg, WalCfg};
use depfast_ycsb::workload::{OpGen, OpKind, WorkloadSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use simkit::{MemCfg, NodeId, Sim, SimTime, World, WorldCfg};

/// Client sessions in every deployment.
pub const SESSIONS: usize = 256;

/// Cluster shape of a workload.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// One Raft group on `servers` nodes.
    Single { servers: usize },
    /// `groups` groups of 3 replicas striped over `nodes` nodes.
    Sharded { groups: usize, nodes: usize },
}

/// The rolling fail-slow schedule: `episode` of `kind` on one follower,
/// then `healthy` with no fault, alternating between the followers.
#[derive(Debug, Clone, Copy)]
pub struct Rolling {
    pub kind: FaultKind,
    pub episode: Duration,
    pub healthy: Duration,
    /// Offset of the first episode from the start of the window.
    pub first: Duration,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub spec: WorkloadSpec,
    /// Offered load, ops per virtual second.
    pub rate: f64,
    pub shape: Shape,
    /// Serve `Get`s through ReadIndex instead of the log.
    pub read_index: bool,
    pub rolling: Option<Rolling>,
    /// Search for the highest rate meeting the latency limit.
    pub max_rate: bool,
}

/// Raft tuning of every workload: the calibration the repository's
/// experiments use (leader near 75 % CPU at ~5 K req/s on one group),
/// pinned here so the workload stays fixed when that calibration moves.
pub fn raft_cfg() -> RaftCfg {
    RaftCfg {
        bootstrap_leader: Some(0),
        batch_max: 64,
        batch_window: Duration::from_millis(4),
        max_entries_per_append: 512,
        propose_cpu: Duration::from_micros(30),
        apply_cpu: Duration::from_micros(190),
        append_cpu_base: Duration::from_micros(30),
        append_cpu_per_entry: Duration::from_micros(120),
        log: LogStoreCfg {
            cache_bytes: 1024 * 1024,
            wal: WalCfg::default(),
        },
        ..RaftCfg::default()
    }
}

/// Per-request serve CPU on the server (part of the same calibration).
pub const SERVE_CPU: Duration = Duration::from_micros(250);

fn world_cfg(nodes: usize) -> WorldCfg {
    WorldCfg {
        nodes,
        mem: MemCfg {
            limit: 16 * 1024 * 1024 * 1024,
            baseline: 2 * 1024 * 1024 * 1024,
            swap_threshold: 0.80,
            swap_max_slowdown: 10.0,
        },
        ..WorldCfg::default()
    }
}

/// The deployment under test.
#[derive(Clone)]
pub enum Target {
    Single(Rc<KvCluster>),
    Sharded(Rc<ShardedKvCluster>),
}

impl Target {
    /// KV servers per group (one group for a single-group cluster).
    pub fn groups(&self) -> Vec<Vec<KvServer>> {
        match self {
            Target::Single(c) => vec![c.servers.clone()],
            Target::Sharded(c) => c.servers.clone(),
        }
    }

    /// Server node count.
    pub fn server_nodes(&self) -> usize {
        match self {
            Target::Single(c) => c.servers.len(),
            Target::Sharded(c) => c.raft.runtimes.len(),
        }
    }

    pub fn tracer(&self) -> &depfast::Tracer {
        match self {
            Target::Single(c) => &c.raft.tracer,
            Target::Sharded(c) => &c.raft.tracer,
        }
    }

    /// Runs one op on client session `i`; `true` when it succeeded.
    async fn call(&self, i: usize, kind: OpKind, key: Bytes, value: Bytes) -> bool {
        match (self, kind) {
            (Target::Single(c), OpKind::Read) => c.clients[i].get(key).await.is_ok(),
            (Target::Single(c), _) => c.clients[i].put(key, value).await.is_ok(),
            (Target::Sharded(c), OpKind::Read) => c.clients[i].get(key).await.is_ok(),
            (Target::Sharded(c), _) => c.clients[i].put(key, value).await.is_ok(),
        }
    }

    /// Group index (0-based) of `key`.
    pub fn group_of(&self, key: &[u8]) -> usize {
        match self {
            Target::Single(_) => 0,
            Target::Sharded(c) => (c.map.group_of(key) - 1) as usize,
        }
    }
}

/// What the benchmark remembers of one op.
#[derive(Debug, Clone)]
pub struct OpRec {
    pub due: u64,
    /// Dispatch time; 0 while the op waits in the backlog.
    pub dispatch: u64,
    /// Completion time; 0 while in flight.
    pub done: u64,
    pub ok: bool,
    pub write: bool,
    pub group: u16,
    pub key: Bytes,
    /// Fingerprint of the written value (writes only).
    pub value_fp: u128,
    /// Trace id the client minted for the op.
    pub trace_id: u64,
}

/// Fingerprint of a value: its first and last 8 bytes. Values are random
/// bytes, so two distinct writes collide with negligible probability.
pub fn fingerprint(v: &[u8]) -> u128 {
    if v.len() < 16 {
        let mut buf = [0u8; 16];
        buf[..v.len()].copy_from_slice(v);
        return u128::from_le_bytes(buf) ^ ((v.len() as u128) << 120);
    }
    let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("an 8-byte slice")) as u128;
    let lo = word(&v[..8]);
    let hi = word(&v[v.len() - 8..]);
    lo | (hi << 64)
}

struct Pending {
    id: usize,
    kind: OpKind,
    key: Bytes,
    value: Bytes,
}

/// Generator and session state shared with the simulated tasks.
#[derive(Default)]
pub struct GenState {
    backlog: VecDeque<Pending>,
    /// Idle sessions, each listed once, with the waker of its last poll.
    idle: Vec<usize>,
    wakers: Vec<Option<Waker>>,
    pub recs: Vec<OpRec>,
    /// Largest backlog seen since [`Run::reset_backlog_max`].
    pub backlog_max: usize,
    /// Ops generated and not yet completed.
    pub outstanding: usize,
    /// Host nanoseconds spent in the generator and session bookkeeping.
    pub host_ns: u64,
}

impl GenState {
    pub fn backlog_len(&self) -> usize {
        self.backlog.len()
    }
}

/// One built deployment with its generator running.
pub struct Run {
    pub sim: Sim,
    pub world: World,
    pub target: Target,
    pub gen: Rc<RefCell<GenState>>,
    /// Virtual time of the first measured op (end of warm-up).
    pub t_measure: SimTime,
    /// End of the measured window; no op is due at or after it.
    pub t_end: SimTime,
}

/// Virtual time before the measured window: leader settled, pipeline and
/// batching at their steady state.
pub const WARMUP: Duration = Duration::from_secs(1);

/// Builds the world, cluster and generator for `w` at `rate` and runs the
/// warm-up. Returns the run positioned at the first measured op of a
/// `window` long measurement.
pub fn setup(w: &Workload, rate: f64, seed: u64, window: Duration) -> Run {
    depfast::set_trace_ctx(None);
    let sim = Sim::new(seed);
    let (target, world) = match w.shape {
        Shape::Single { servers } => {
            let world = World::new(sim.clone(), world_cfg(servers + SESSIONS));
            let c = KvCluster::build_tuned(
                &sim,
                &world,
                RaftKind::DepFast,
                servers,
                SESSIONS,
                raft_cfg(),
                SERVE_CPU,
            );
            (Target::Single(Rc::new(c)), world)
        }
        Shape::Sharded { groups, nodes } => {
            let world = World::new(sim.clone(), world_cfg(nodes + SESSIONS));
            let c = ShardedKvCluster::build_tuned(
                &sim,
                &world,
                RaftKind::DepFast,
                groups,
                nodes,
                3,
                SESSIONS,
                raft_cfg(),
                SERVE_CPU,
            );
            (Target::Sharded(Rc::new(c)), world)
        }
    };
    if w.read_index {
        for group in target.groups() {
            for s in group {
                s.set_read_index(true);
            }
        }
    }
    let t_measure = SimTime::ZERO + WARMUP;
    let t_end = t_measure + window;
    if let Some(r) = w.rolling {
        schedule_rolling(&sim, &world, r, t_measure, t_end);
    }
    let gen = Rc::new(RefCell::new(GenState {
        wakers: vec![None; SESSIONS],
        ..GenState::default()
    }));
    spawn_generator(&sim, &target, &gen, w.spec, rate, seed, t_end);
    for i in 0..SESSIONS {
        spawn_session(&sim, &target, &gen, i);
    }
    let run = Run {
        sim,
        world,
        target,
        gen,
        t_measure,
        t_end,
    };
    run.sim.run_until_time(t_measure);
    run
}

/// Episodes alternate between followers 1 and 2 of the (node-0-led)
/// group, inside the measured window.
fn schedule_rolling(sim: &Sim, world: &World, r: Rolling, t_measure: SimTime, t_end: SimTime) {
    let mut at = t_measure + r.first;
    let mut follower = 1u32;
    while at < t_end {
        let offset = at.saturating_duration_since(sim.now());
        depfast_fault::inject_at(
            sim,
            world,
            NodeId(follower),
            r.kind,
            offset,
            Some(r.episode),
        );
        at = at + r.episode + r.healthy;
        follower = 3 - follower;
    }
}

fn spawn_generator(
    sim: &Sim,
    target: &Target,
    gen: &Rc<RefCell<GenState>>,
    spec: WorkloadSpec,
    rate: f64,
    seed: u64,
    t_end: SimTime,
) {
    // Independent streams for arrivals and op contents.
    let mut arrivals = SmallRng::seed_from_u64(seed ^ 0xA77_1BA1);
    let mut ops = OpGen::new(spec, seed ^ 0x0B5_0B5);
    let target = target.clone();
    let gen = gen.clone();
    let sim2 = sim.clone();
    let mean_gap_ns = 1e9 / rate;
    sim.spawn(async move {
        let mut due = 0f64;
        loop {
            // Exponential inter-arrival gap (inverse-CDF of a uniform).
            let u: f64 = arrivals.random();
            due += -(1.0 - u).ln() * mean_gap_ns;
            let due_ns = due as u64;
            if due_ns >= t_end.as_nanos() {
                break;
            }
            sim2.sleep_until(SimTime::from_nanos(due_ns)).await;
            let h0 = Instant::now();
            let (kind, key, value) = ops.next_op();
            let write = kind != OpKind::Read;
            let mut g = gen.borrow_mut();
            let id = g.recs.len();
            g.recs.push(OpRec {
                due: due_ns,
                dispatch: 0,
                done: 0,
                ok: false,
                write,
                group: target.group_of(&key) as u16,
                key: key.clone(),
                value_fp: if write { fingerprint(&value) } else { 0 },
                trace_id: 0,
            });
            g.backlog.push_back(Pending {
                id,
                kind,
                key,
                value,
            });
            g.outstanding += 1;
            g.backlog_max = g.backlog_max.max(g.backlog.len());
            if let Some(i) = g.idle.pop() {
                g.wakers[i].take().expect("idle session has a waker").wake();
            }
            g.host_ns += h0.elapsed().as_nanos() as u64;
        }
    });
}

fn spawn_session(sim: &Sim, target: &Target, gen: &Rc<RefCell<GenState>>, i: usize) {
    let gen = gen.clone();
    let sim2 = sim.clone();
    let target = target.clone();
    let rt = match &target {
        Target::Single(c) => c.clients[i].runtime().clone(),
        Target::Sharded(c) => c.clients[i].runtime().clone(),
    };
    depfast::Coroutine::create(&rt, "bench:session", async move {
        loop {
            let op = poll_fn(|cx| {
                let mut g = gen.borrow_mut();
                match g.backlog.pop_front() {
                    Some(op) => Poll::Ready(op),
                    None => {
                        if g.wakers[i].replace(cx.waker().clone()).is_none() {
                            g.idle.push(i);
                        }
                        Poll::Pending
                    }
                }
            })
            .await;
            let id = op.id;
            gen.borrow_mut().recs[id].dispatch = sim2.now().as_nanos();
            // Each op is the root of its own causal trace.
            depfast::set_trace_ctx(None);
            let ok = target.call(i, op.kind, op.key, op.value).await;
            let h0 = Instant::now();
            let mut g = gen.borrow_mut();
            let rec = &mut g.recs[id];
            rec.done = sim2.now().as_nanos();
            rec.ok = ok;
            g.outstanding -= 1;
            g.recs[id].trace_id = depfast::trace_ctx().map_or(0, |c| c.trace_id);
            g.host_ns += h0.elapsed().as_nanos() as u64;
        }
    });
}

impl Run {
    /// Runs the simulation to `t`.
    pub fn run_until(&self, t: SimTime) {
        self.sim.run_until_time(t);
    }

    pub fn reset_backlog_max(&self) {
        let mut g = self.gen.borrow_mut();
        g.backlog_max = g.backlog.len();
    }

    /// After the window: runs until every op due in it has completed or
    /// `deadline` passes, checking every `step`.
    pub fn drain(&self, deadline: SimTime, step: Duration) {
        while self.sim.now() < deadline && self.gen.borrow().outstanding > 0 {
            let next = (self.sim.now() + step).min(deadline);
            self.sim.run_until_time(next);
        }
    }
}
