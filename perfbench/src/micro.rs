//! Host-clock micro-timings of single public functions, one per layer.
//!
//! Each timing warms up, then reports the median over several rounds of
//! the mean time per call within a round.

use std::hint::black_box;
use std::time::{Duration, Instant};

use bytes::Bytes;
use depfast::event::{Notify, QuorumEvent, Signal, Watchable};
use depfast::runtime::Runtime;
use depfast_kv::{KvOp, KvRequest, KvResponse};
use depfast_raft::types::{from_wire, to_wire, AppendReq};
use depfast_rpc::wire::{WireRead, WireWrite};
use depfast_storage::{Entry, LogStore, LogStoreCfg, WalCfg};
use depfast_ycsb::workload::{OpGen, WorkloadSpec};
use simkit::{NodeId, Sim, World, WorldCfg};

use crate::report::Metrics;

const ROUNDS: usize = 7;
const APPENDS: u32 = 200;

/// Median over rounds of ns per call; `round` runs `iters` calls.
fn median_ns(iters: u32, mut round: impl FnMut(u32)) -> f64 {
    round(iters);
    let mut per_call: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let t = Instant::now();
            round(iters);
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&mut per_call)
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn batch(entries: usize, first: u64) -> Vec<Entry> {
    (0..entries as u64)
        .map(|i| Entry {
            term: 1,
            index: first + i,
            payload: Bytes::from(vec![(i % 251) as u8; 1000]),
        })
        .collect()
}

pub fn timings(out: &mut Metrics) {
    // simkit: spawn a task that sleeps, then run it to completion.
    let sim = Sim::new(1);
    out.put(
        "simkit.timer_fire_ns",
        median_ns(2000, |n| {
            for _ in 0..n {
                let s = sim.clone();
                sim.spawn(async move { s.sleep(Duration::from_micros(1)).await });
                sim.run();
            }
        }),
        "ns",
    );

    // core: a majority-of-3 quorum resolved by two children, and a
    // bare notify.
    let rt = Runtime::new_sim(Sim::new(1), NodeId(0));
    out.put(
        "core.quorum3_ns",
        median_ns(5000, |n| {
            for _ in 0..n {
                let q = QuorumEvent::majority(&rt);
                let children: Vec<Notify> = (0..3).map(|_| Notify::new(&rt)).collect();
                for c in &children {
                    q.add(c);
                }
                children[0].set(Signal::Ok);
                children[1].set(Signal::Ok);
                black_box(q.ready());
            }
        }),
        "ns",
    );
    out.put(
        "core.notify_ns",
        median_ns(20000, |n| {
            for _ in 0..n {
                let e = Notify::new(&rt);
                e.set(Signal::Ok);
                black_box(e.handle().ready());
            }
        }),
        "ns",
    );

    // raft: a 25 × 1 KB AppendEntries through the wire and back.
    let entries = batch(25, 1);
    out.put(
        "raft.wire_batch_ns",
        median_ns(500, |n| {
            for _ in 0..n {
                let req = AppendReq {
                    term: 1,
                    leader: 0,
                    prev_index: 0,
                    prev_term: 0,
                    entries: to_wire(&entries),
                    commit: 0,
                    lazy: false,
                };
                let back = AppendReq::from_bytes(&req.to_bytes()).expect("decodes");
                black_box(from_wire(back.entries));
            }
        }),
        "ns",
    );

    // kv: a 1 KB put request and its reply, encoded and decoded.
    let req = KvRequest {
        client: 7,
        seq: 42,
        op: KvOp::Put,
        key: Bytes::from(format!("user{:019}", 12345)),
        value: Bytes::from(vec![7u8; 1000]),
    };
    out.put(
        "kv.request_codec_ns",
        median_ns(20000, |n| {
            for _ in 0..n {
                let r = KvRequest::from_bytes(&req.to_bytes()).expect("decodes");
                let resp = KvResponse::from_bytes(&KvResponse::ok(None).to_bytes());
                black_box((r, resp));
            }
        }),
        "ns",
    );

    // storage: LogStore::append of a 25 × 1 KB batch (the WAL flush runs
    // between rounds, outside the timed calls).
    let sim = Sim::new(1);
    let world = World::new(
        sim.clone(),
        WorldCfg {
            nodes: 1,
            ..WorldCfg::default()
        },
    );
    let rt = Runtime::new_sim(sim.clone(), NodeId(0));
    let log = LogStore::new(
        &rt,
        &world,
        LogStoreCfg {
            cache_bytes: 1024 * 1024,
            wal: WalCfg::default(),
        },
    );
    let mut per_call = Vec::with_capacity(ROUNDS + 1);
    for _ in 0..=ROUNDS {
        let mut spent = Duration::ZERO;
        for _ in 0..APPENDS {
            let b = batch(25, log.last_index() + 1);
            let t = Instant::now();
            black_box(log.append(&b));
            spent += t.elapsed();
        }
        sim.run();
        per_call.push(spent.as_nanos() as f64 / APPENDS as f64);
    }
    // The first round is the warm-up.
    out.put("storage.log_append_ns", median(&mut per_call[1..]), "ns");

    // ycsb: the Zipfian set-up over 500 K keys, and one op.
    let spec = WorkloadSpec::update_heavy();
    let mut new_ms: Vec<f64> = (0..5)
        .map(|i| {
            let t = Instant::now();
            black_box(OpGen::new(spec, i));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    out.put("ycsb.opgen_new_ms", median(&mut new_ms), "ms");
    let mut gen = OpGen::new(spec, 1);
    out.put(
        "ycsb.next_op_ns",
        median_ns(20000, |n| {
            for _ in 0..n {
                black_box(gen.next_op());
            }
        }),
        "ns",
    );
}
