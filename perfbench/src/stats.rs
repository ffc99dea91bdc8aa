//! Exact order statistics over the ops of the measured window.

use crate::openloop::OpRec;

/// Nearest-rank `q`-quantile of sorted `xs` (0 when empty).
pub fn quantile(xs: &[u64], q: f64) -> u64 {
    if xs.is_empty() {
        return 0;
    }
    let rank = (q * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `q`-quantile of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// What the ops of one window `[t0, t1)` did.
#[derive(Debug, Default)]
pub struct WindowStats {
    /// Ops due in the window.
    pub due: u64,
    /// Ops due in the window that errored, gave up or never completed.
    pub failed: u64,
    /// Sorted latencies (due to completion) of successful ops due in the
    /// window, in ns.
    pub lat: Vec<u64>,
    /// Sorted waits from due to dispatch of dispatched ops due in the
    /// window, in ns.
    pub queue: Vec<u64>,
    /// Successful completions inside the window.
    pub completed: u64,
    /// Longest gap inside the window with no successful completion, ns.
    pub max_stall: u64,
    /// Successful completions inside the window, per group.
    pub group_ok: Vec<u64>,
}

pub fn window_stats(recs: &[OpRec], t0: u64, t1: u64, groups: usize) -> WindowStats {
    let mut s = WindowStats {
        group_ok: vec![0; groups],
        ..WindowStats::default()
    };
    let mut done_times = Vec::new();
    for r in recs {
        if r.due >= t0 && r.due < t1 {
            s.due += 1;
            if r.ok && r.done != 0 {
                s.lat.push(r.done - r.due);
            } else {
                s.failed += 1;
            }
            if r.dispatch != 0 {
                s.queue.push(r.dispatch - r.due);
            }
        }
        if r.ok && r.done >= t0 && r.done < t1 {
            s.completed += 1;
            s.group_ok[r.group as usize] += 1;
            done_times.push(r.done);
        }
    }
    s.lat.sort_unstable();
    s.queue.sort_unstable();
    done_times.sort_unstable();
    let mut prev = t0;
    for t in done_times.into_iter().chain(std::iter::once(t1)) {
        s.max_stall = s.max_stall.max(t - prev);
        prev = t;
    }
    s
}
