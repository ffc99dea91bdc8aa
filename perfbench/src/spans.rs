//! Self time per span label, from a full-record trace plus the
//! benchmark's own `bench:queue` and `bench:op` spans.
//!
//! A span's children are the spans of the same request trace that lie
//! inside its interval and began after it; its self time is its duration
//! minus the union of its children's intervals. Spans outside any request
//! trace (per-batch leader phases such as `propose`) have no children.

use std::collections::{HashMap, HashSet};

use depfast::event::EventKind;
use depfast::TraceRecord;

use crate::report::Metrics;

/// Labels reported, program phases first.
pub const LABELS: [&str; 11] = [
    "client:attempt",
    "client:backoff",
    "propose",
    "queue_push",
    "wal_append",
    "commit_wait",
    "apply",
    "hop_wait",
    "flow_probe",
    "bench:queue",
    "bench:op",
];

/// One closed span on the virtual clock.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub label: &'static str,
    pub start: u64,
    pub end: u64,
    /// Request trace id; 0 outside any request.
    pub trace: u64,
    /// Creation order: a parent is created before its children. The
    /// benchmark's own spans use 0, so they enclose the program's.
    pub order: u64,
}

/// Phase spans closed in `records` that belong to the window `[t0, t1)`:
/// those of a request in `traces`, and those outside any request that
/// started in the window.
pub fn phase_spans(records: &[TraceRecord], t0: u64, t1: u64, traces: &HashSet<u64>) -> Vec<Span> {
    let mut open = HashMap::new();
    let mut out = Vec::new();
    for r in records {
        match r {
            TraceRecord::EventCreated {
                t,
                event,
                kind: EventKind::Phase { .. },
                label,
                ctx,
                ..
            } => {
                open.insert(
                    *event,
                    (*label, t.as_nanos(), ctx.map_or(0, |c| c.trace_id)),
                );
            }
            TraceRecord::EventFired { t, event, .. } => {
                if let Some((label, start, trace)) = open.remove(event) {
                    let mine = if trace == 0 {
                        start >= t0 && start < t1
                    } else {
                        traces.contains(&trace)
                    };
                    if mine {
                        out.push(Span {
                            label,
                            start,
                            end: t.as_nanos(),
                            trace,
                            order: event.0 + 1,
                        });
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// Self time of every span, in nanoseconds, paired with its label.
fn self_times(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut by_trace: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.trace != 0 {
            by_trace.entry(s.trace).or_default().push(i);
        }
    }
    spans
        .iter()
        .map(|s| {
            let dur = s.end.saturating_sub(s.start);
            if s.trace == 0 {
                return (s.label, dur);
            }
            let mut kids: Vec<(u64, u64)> = by_trace[&s.trace]
                .iter()
                .map(|&j| &spans[j])
                .filter(|c| c.order > s.order && c.start >= s.start && c.end <= s.end)
                .map(|c| (c.start, c.end))
                .collect();
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start);
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.label, dur - covered)
        })
        .collect()
}

/// `span.<label>.self_ms_mean`, `.self_ms_p99` and `.count` per label,
/// with `:` in the label written as `_`.
pub fn report(spans: &[Span], out: &mut Metrics) {
    let mut by_label: HashMap<&str, Vec<u64>> = HashMap::new();
    for (label, ns) in self_times(spans) {
        by_label.entry(label).or_default().push(ns);
    }
    for label in LABELS {
        let mut xs = by_label.remove(label).unwrap_or_default();
        xs.sort_unstable();
        let n = xs.len();
        let name = label.replace(':', "_");
        let mean = if n == 0 {
            0.0
        } else {
            xs.iter().sum::<u64>() as f64 / n as f64
        };
        out.ms(&format!("span.{name}.self_ms_mean"), mean);
        out.ms(
            &format!("span.{name}.self_ms_p99"),
            crate::stats::quantile(&xs, 0.99) as f64,
        );
        out.count(&format!("span.{name}.count"), n as f64);
        if n == 0 {
            out.flag(format!("span {label}: no spans in the traced window"));
        } else if crate::stats::beyond(n, 0.99) < 10 {
            out.flag(format!(
                "span.{name}.self_ms_p99: {} samples beyond it (< 10)",
                crate::stats::beyond(n, 0.99)
            ));
        }
    }
}
