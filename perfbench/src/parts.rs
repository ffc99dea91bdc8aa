//! The parts of a benchmark run. Each part runs in a process of its own
//! (simulated deployments are never torn down, so a process holds one)
//! and reports its metrics to the parent; names starting with `_` are for
//! the parent only.

use std::time::{Duration, Instant};

use depfast_metrics::Key;

use crate::layers;
use crate::openloop::{setup, Run, Workload};
use crate::report::Metrics;
use crate::spans;
use crate::stats::{beyond, quantile, window_stats, WindowStats};

/// How long after the window ops due in it may still complete.
const DRAIN: Duration = Duration::from_secs(10);
/// Extra time for followers to apply before the output check.
const SETTLE: Duration = Duration::from_secs(1);
/// The latency limit of the capacity search, on p99.
const LIMIT_MS: f64 = 50.0;
const PROBE_WINDOW: Duration = Duration::from_secs(4);

/// The measured window of one run.
struct Measured {
    host_s: f64,
    /// Layer snapshots at the window's start and end, when asked for.
    snaps: Option<(layers::Snap, layers::Snap)>,
    /// Host seconds the generator and sessions spent in the window.
    gen_host_s: f64,
    backlog_end: usize,
    backlog_max: usize,
    stats: WindowStats,
}

/// Runs the window of `run` (with layer snapshots at both ends when
/// `snaps` is set), then drains and settles it.
fn measure(run: &Run, snaps: bool) -> Measured {
    let s0 = snaps.then(|| layers::Snap::take(run));
    run.reset_backlog_max();
    let gen0 = run.gen.borrow().host_ns;
    let t = Instant::now();
    run.run_until(run.t_end);
    let host_s = t.elapsed().as_secs_f64();
    let (backlog_end, backlog_max, gen_host_ns) = {
        let g = run.gen.borrow();
        (g.backlog_len(), g.backlog_max, g.host_ns - gen0)
    };
    let snaps = s0.map(|s0| (s0, layers::Snap::take(run)));
    run.drain(run.t_end + DRAIN, Duration::from_millis(50));
    run.run_until(run.sim.now() + SETTLE);
    let stats = window_stats(
        &run.gen.borrow().recs,
        run.t_measure.as_nanos(),
        run.t_end.as_nanos(),
        run.target.groups().len(),
    );
    Measured {
        host_s,
        snaps,
        gen_host_s: gen_host_ns as f64 / 1e9,
        backlog_end,
        backlog_max,
        stats,
    }
}

/// The output check plus the op counts of the window, for the parent.
fn report_check(run: &Run, m: &Measured, out: &mut Metrics) {
    match crate::check::check(run) {
        Ok(c) => {
            out.put("_check_ok", 1.0, "bool");
            out.flag(format!(
                "info: output check passed ({} keys compared, {} acknowledged writes verified)",
                c.keys_compared, c.acked_verified
            ));
        }
        Err(e) => {
            out.put("_check_ok", 0.0, "bool");
            out.flag(format!("OUTPUT CHECK FAILED: {e}"));
        }
    }
    out.count("_attempted", m.stats.due as f64);
    out.count("_failed", m.stats.failed as f64);
    out.count("_completed", m.stats.completed as f64);
    out.put("_host_s", m.host_s, "s");
    out.ms("_lat_p99", quantile(&m.stats.lat, 0.99) as f64);
    if m.backlog_end > 0 {
        out.flag(format!(
            "backlog of {} ops left at window end",
            m.backlog_end
        ));
    }
}

/// Process high-water mark of resident memory, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Latency percentiles with their sample count and degeneracy flags.
fn latency(out: &mut Metrics, s: &WindowStats) {
    let n = s.lat.len();
    for (name, q) in [
        ("lat_p50_ms", 0.5),
        ("lat_p99_ms", 0.99),
        ("lat_p999_ms", 0.999),
    ] {
        out.ms(name, quantile(&s.lat, q) as f64);
        if q > 0.5 && beyond(n, q) < 10 {
            out.flag(format!(
                "{name}: {} samples beyond it (< 10) of {n}",
                beyond(n, q)
            ));
        }
    }
    if n > 0 && quantile(&s.lat, 0.99) == quantile(&s.lat, 0.5) {
        out.flag("lat_p99_ms equals lat_p50_ms".into());
    }
}

/// One end-to-end replay: set-up, window, drain, check.
pub fn replay(w: &Workload, seed: u64, seconds: u64, out: &mut Metrics) {
    let t = Instant::now();
    let run = setup(w, w.rate, seed, Duration::from_secs(seconds));
    out.put("_setup_s", t.elapsed().as_secs_f64(), "s");
    let m = measure(&run, false);
    let s = &m.stats;
    out.put("goodput_rps", s.completed as f64 / seconds as f64, "1/s");
    latency(out, s);
    out.count("_lat_samples", s.lat.len() as f64);
    report_check(&run, &m, out);
    out.put("_peak_rss_mb", peak_rss_mb(), "MiB");
}

/// The untraced window with every layer counter.
pub fn layer_counters(w: &Workload, seed: u64, seconds: u64, out: &mut Metrics) {
    let run = setup(w, w.rate, seed, Duration::from_secs(seconds));
    let m = measure(&run, true);
    let facts = layers::WindowFacts {
        ops: m.stats.completed,
        window_s: seconds as f64,
        host_s: m.host_s,
        group_ops: m.stats.group_ok.clone(),
    };
    let (s0, s1) = m.snaps.as_ref().expect("snapshots were asked for");
    layers::layer_metrics(&run, s0, s1, &facts, out);
    let s = &m.stats;
    out.put(
        "bench.fail_ratio",
        s.failed as f64 / s.due.max(1) as f64,
        "ratio",
    );
    out.count("bench.lat_samples", s.lat.len() as f64);
    out.ms("bench.max_stall_ms", s.max_stall as f64);
    out.ms("bench.queue_ms_p99", quantile(&s.queue, 0.99) as f64);
    out.count("bench.backlog_max", m.backlog_max as f64);
    out.count("bench.backlog_end", m.backlog_end as f64);
    out.put("bench.host_share", m.gen_host_s / m.host_s, "ratio");
    report_check(&run, &m, out);
}

/// The same window fully traced: self time per span label.
pub fn traced(w: &Workload, seed: u64, seconds: u64, out: &mut Metrics) {
    let run = setup(w, w.rate, seed, Duration::from_secs(seconds));
    let tracer = run.target.tracer().clone();
    tracer.set_record_full(true);
    let m = measure(&run, false);
    tracer.set_record_full(false);
    let records = tracer.take_records();
    let dropped = run
        .world
        .metrics()
        .counter(Key::global("trace.dropped"))
        .get();
    let (t0, t1) = (run.t_measure.as_nanos(), run.t_end.as_nanos());
    let gen = run.gen.borrow();
    let window: Vec<_> = gen
        .recs
        .iter()
        .filter(|r| r.due >= t0 && r.due < t1 && r.dispatch != 0)
        .collect();
    let traces = window.iter().map(|r| r.trace_id).collect();
    let mut all = spans::phase_spans(&records, t0, t1, &traces);
    for r in window {
        all.push(spans::Span {
            label: "bench:queue",
            start: r.due,
            end: r.dispatch,
            trace: 0,
            order: 0,
        });
        if r.done != 0 {
            all.push(spans::Span {
                label: "bench:op",
                start: r.dispatch,
                end: r.done,
                trace: r.trace_id,
                order: 0,
            });
        }
    }
    spans::report(&all, out);
    drop(gen);
    out.count("trace.records", records.len() as f64);
    out.count("trace.dropped", dropped as f64);
    if dropped > 0 {
        out.flag(format!(
            "trace.dropped = {dropped}: span statistics cover a truncated stream"
        ));
    }
    report_check(&run, &m, out);
}

/// One capacity probe: does `rate` meet the p99 limit, counting failed
/// and unfinished ops as misses, with no backlog left at window end?
pub fn probe(w: &Workload, seed: u64, rate: f64, out: &mut Metrics) {
    let run = setup(w, rate, seed, PROBE_WINDOW);
    run.run_until(run.t_end);
    let backlog = run.gen.borrow().backlog_len();
    run.drain(
        run.t_end + Duration::from_secs(1),
        Duration::from_millis(50),
    );
    let s = window_stats(
        &run.gen.borrow().recs,
        run.t_measure.as_nanos(),
        run.t_end.as_nanos(),
        run.target.groups().len(),
    );
    let mut lat = s.lat;
    lat.extend(std::iter::repeat_n(u64::MAX, s.failed as usize));
    lat.sort_unstable();
    let p99_ms = quantile(&lat, 0.99) as f64 / 1e6;
    out.put(
        "_pass",
        (backlog == 0 && p99_ms <= LIMIT_MS) as u8 as f64,
        "bool",
    );
}
