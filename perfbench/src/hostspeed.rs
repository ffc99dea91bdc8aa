//! The machine's current speed, from a fixed reference job.
//!
//! On a shared machine the host-clock metrics move with the load of other
//! tenants, by up to a third within minutes. The reference job is
//! benchmark code that no change to the program can speed up, with the
//! simulator's profile: hashing, small allocations and cache-missing
//! reads. It runs in a fresh process of its own before each replay of a
//! run and after the last (inside a replay's process its time depends on
//! that process's heap more than on the machine). Host times are reported
//! scaled to a machine on which the job takes [`REFERENCE_S`]:
//! `fastest measured × REFERENCE_S / fastest job time`. A program that gets
//! faster still reads faster; a machine that slows down slows the job
//! with it.

use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// Reference job time that scaled host times are expressed against: about
/// what the job takes on one 2.1 GHz x86-64 core in a shared 2-vCPU
/// container.
pub const REFERENCE_S: f64 = 0.004;

/// Slots of the pointer chase: 2 MiB of `u32`.
const SLOTS: usize = 1 << 19;
/// Runs of the job per measurement; one run varies by ±20 % from the next.
const RUNS: usize = 15;

/// Host seconds the reference job takes now: the median of [`RUNS`] runs.
pub fn reference_s() -> f64 {
    // Sattolo's shuffle of the identity: one cycle over all slots.
    let mut next: Vec<u32> = (0..SLOTS as u32).collect();
    let mut x = 1u64;
    for i in (1..SLOTS).rev() {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        next.swap(i, (x >> 33) as usize % i);
    }
    let mut map = HashMap::with_capacity(1 << 15);
    let mut live = VecDeque::with_capacity(1 << 10);
    let mut runs: Vec<f64> = (0..RUNS)
        .map(|_| {
            let t = Instant::now();
            map.clear();
            for i in 0..20_000u64 {
                let k = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 16;
                map.insert(k, i);
                if i % 3 == 0 {
                    map.remove(&(k ^ 1));
                }
                if live.len() == live.capacity() {
                    live.pop_front();
                }
                live.push_back(vec![i as u8; 48]);
            }
            black_box(&map);
            let mut at = 0usize;
            for _ in 0..SLOTS / 2 {
                at = next[at] as usize;
            }
            black_box(at);
            t.elapsed().as_secs_f64()
        })
        .collect();
    runs.sort_by(f64::total_cmp);
    runs[RUNS / 2]
}
