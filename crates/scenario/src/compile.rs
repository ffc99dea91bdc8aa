//! Compilation: a [`Scenario`] becomes a concrete [`InjectionPlan`].
//!
//! Compilation is a pure function of `(scenario, n_servers, leader,
//! seed)` — no clock, no cluster — so same-seed plans are trivially
//! byte-identical and the safety invariant (never degrade a majority
//! without an explicit override) is enforced before anything runs.

use std::collections::BTreeSet;
use std::time::Duration;

use depfast_bench::{Trigger, Window};
use depfast_fault::FaultKind;

use crate::dsl::{Scenario, Schedule, Target};

/// The compiled form of a scenario: static windows plus load triggers.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct InjectionPlan {
    /// Time-scheduled windows, sorted by `(at, node)`.
    pub windows: Vec<Window>,
    /// Load-conditioned injections.
    pub triggers: Vec<Trigger>,
}

impl InjectionPlan {
    /// Distinct nodes this plan degrades.
    pub fn targets(&self) -> BTreeSet<u32> {
        self.windows
            .iter()
            .map(|w| w.node)
            .chain(self.triggers.iter().flat_map(|t| t.nodes.iter().copied()))
            .collect()
    }

    /// Earliest static onset, if any window is scheduled.
    pub fn first_onset(&self) -> Option<Duration> {
        self.windows.iter().map(|w| w.at).min()
    }
}

/// Why a scenario refused to compile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The plan would degrade a majority of the group and the scenario
    /// did not set `allow_majority`.
    MajorityTarget {
        /// Nodes the plan would have degraded.
        targeted: usize,
        /// Group size.
        group: usize,
    },
    /// The group is too small for the target (e.g. a correlated pair
    /// needs two followers).
    GroupTooSmall(&'static str),
    /// A partial partition whose peer is the targeted node itself.
    PeerIsTarget,
    /// A schedule parameter is out of range.
    BadSchedule(&'static str),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::MajorityTarget { targeted, group } => write!(
                f,
                "plan degrades {targeted} of {group} nodes (a majority) without allow_majority"
            ),
            CompileError::GroupTooSmall(what) => write!(f, "group too small: {what}"),
            CompileError::PeerIsTarget => {
                write!(f, "partial partition peer equals the targeted node")
            }
            CompileError::BadSchedule(what) => write!(f, "bad schedule: {what}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Interpolates `kind` toward full severity: `frac = 1.0` is the
/// scenario's own fault, smaller fractions are proportionally milder
/// (quota/bandwidth closer to healthy, delays and write volumes scaled
/// down). Used by [`Schedule::Ramp`] steps.
pub fn scale_kind(kind: FaultKind, frac: f64) -> FaultKind {
    let frac = frac.clamp(0.0, 1.0);
    match kind {
        FaultKind::CpuSlow { quota } => FaultKind::CpuSlow {
            quota: 1.0 - frac * (1.0 - quota),
        },
        FaultKind::DiskSlow { bw_factor } => FaultKind::DiskSlow {
            bw_factor: 1.0 - frac * (1.0 - bw_factor),
        },
        FaultKind::NetSlow { delay } => FaultKind::NetSlow {
            delay: Duration::from_nanos((delay.as_nanos() as f64 * frac) as u64),
        },
        FaultKind::CpuContention { share, on, off } => FaultKind::CpuContention {
            share: 1.0 - frac * (1.0 - share),
            on,
            off,
        },
        FaultKind::DiskContention {
            write_bytes,
            period,
        } => FaultKind::DiskContention {
            write_bytes: ((write_bytes as f64 * frac) as u64).max(1),
            period,
        },
        // Binary faults have no meaningful partial severity.
        FaultKind::MemContention { .. } | FaultKind::PartialPartition { .. } => kind,
    }
}

/// Deterministic follower choice: a seed-keyed rotation over the
/// non-leader nodes, so different seeds exercise different placements
/// while any fixed seed always picks the same one.
fn followers_from(n_servers: usize, leader: u32, seed: u64) -> Vec<u32> {
    let all: Vec<u32> = (0..n_servers as u32).filter(|&i| i != leader).collect();
    let start = (seed % all.len() as u64) as usize;
    let mut rotated = Vec::with_capacity(all.len());
    for i in 0..all.len() {
        rotated.push(all[(start + i) % all.len()]);
    }
    rotated
}

impl Scenario {
    /// Compiles this scenario onto a group of `n_servers` nodes led by
    /// `leader`. Pure: same inputs, same plan.
    pub fn compile(
        &self,
        n_servers: usize,
        leader: u32,
        seed: u64,
    ) -> Result<InjectionPlan, CompileError> {
        if n_servers < 2 {
            return Err(CompileError::GroupTooSmall("need at least 2 nodes"));
        }
        let followers = followers_from(n_servers, leader, seed);
        let nodes: Vec<u32> = match self.target {
            Target::Follower => vec![followers[0]],
            Target::Leader => vec![leader],
            Target::QuorumMinority => {
                let k = (n_servers - 1) / 2;
                if k == 0 {
                    return Err(CompileError::GroupTooSmall("no strict minority exists"));
                }
                followers[..k].to_vec()
            }
            Target::CorrelatedPair => {
                if followers.len() < 2 {
                    return Err(CompileError::GroupTooSmall(
                        "correlated pair needs 2 followers",
                    ));
                }
                followers[..2].to_vec()
            }
        };
        if 2 * nodes.len() > n_servers && !self.allow_majority {
            return Err(CompileError::MajorityTarget {
                targeted: nodes.len(),
                group: n_servers,
            });
        }
        if let FaultKind::PartialPartition { peer } = self.kind {
            if nodes.contains(&peer) {
                return Err(CompileError::PeerIsTarget);
            }
        }
        let mut plan = InjectionPlan::default();
        match self.schedule {
            Schedule::Constant { at, duration } => {
                for &node in &nodes {
                    plan.windows.push(Window {
                        node,
                        kind: self.kind,
                        at,
                        duration,
                    });
                }
            }
            Schedule::Flapping {
                at,
                period,
                duty,
                until,
            } => {
                if period.is_zero() {
                    return Err(CompileError::BadSchedule("flapping period must be > 0"));
                }
                if !(duty > 0.0 && duty <= 1.0) {
                    return Err(CompileError::BadSchedule("flapping duty must be in (0, 1]"));
                }
                if until <= at {
                    return Err(CompileError::BadSchedule("flapping until must be past at"));
                }
                let active = Duration::from_nanos((period.as_nanos() as f64 * duty) as u64);
                if active.is_zero() {
                    return Err(CompileError::BadSchedule(
                        "flapping active span rounds to 0",
                    ));
                }
                let mut t = at;
                while t < until {
                    for &node in &nodes {
                        plan.windows.push(Window {
                            node,
                            kind: self.kind,
                            at: t,
                            duration: Some(active),
                        });
                    }
                    t += period;
                }
            }
            Schedule::Ramp { at, until, steps } => {
                if steps == 0 {
                    return Err(CompileError::BadSchedule("ramp needs at least one step"));
                }
                if until <= at {
                    return Err(CompileError::BadSchedule("ramp until must be past at"));
                }
                let step = (until - at) / steps;
                if step.is_zero() {
                    return Err(CompileError::BadSchedule("ramp step rounds to 0"));
                }
                for k in 0..steps {
                    let frac = (k + 1) as f64 / steps as f64;
                    for &node in &nodes {
                        plan.windows.push(Window {
                            node,
                            kind: scale_kind(self.kind, frac),
                            at: at + step * k,
                            duration: Some(step),
                        });
                    }
                }
            }
            Schedule::LoadTriggered { commits, duration } => {
                if duration.is_zero() {
                    return Err(CompileError::BadSchedule("trigger duration must be > 0"));
                }
                plan.triggers.push(Trigger {
                    commits,
                    nodes: nodes.clone(),
                    kind: self.kind,
                    duration,
                });
            }
        }
        plan.windows.sort_by_key(|w: &Window| (w.at, w.node));
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::catalog;

    #[test]
    fn catalog_compiles_on_the_matrix_shape() {
        for s in catalog() {
            let plan = s.compile(3, 0, 20210531).unwrap_or_else(|e| {
                panic!("{} failed to compile: {e}", s.name);
            });
            assert!(
                !plan.windows.is_empty() || !plan.triggers.is_empty(),
                "{} compiled to an empty plan",
                s.name
            );
        }
    }

    #[test]
    fn flapping_duty_one_yields_adjacent_windows() {
        let s = Scenario {
            name: "x".into(),
            kind: FaultKind::DiskSlow { bw_factor: 0.1 },
            schedule: Schedule::Flapping {
                at: Duration::from_secs(1),
                period: Duration::from_millis(100),
                duty: 1.0,
                until: Duration::from_millis(1300),
            },
            target: Target::Follower,
            allow_majority: false,
        };
        let plan = s.compile(3, 0, 0).unwrap();
        assert_eq!(plan.windows.len(), 3);
        for pair in plan.windows.windows(2) {
            assert_eq!(pair[0].at + pair[0].duration.unwrap(), pair[1].at);
        }
    }

    #[test]
    fn correlated_pair_on_three_nodes_requires_override() {
        let mut s = Scenario::constant(
            "pair",
            FaultKind::DiskSlow { bw_factor: 0.1 },
            Target::CorrelatedPair,
            Duration::from_secs(1),
            Duration::from_secs(1),
        );
        assert!(matches!(
            s.compile(3, 0, 0),
            Err(CompileError::MajorityTarget {
                targeted: 2,
                group: 3
            })
        ));
        s.allow_majority = true;
        let plan = s.compile(3, 0, 0).unwrap();
        assert_eq!(plan.targets().len(), 2);
        // On five nodes a pair is a strict minority: no override needed.
        s.allow_majority = false;
        assert!(s.compile(5, 0, 0).is_ok());
    }

    #[test]
    fn ramp_scales_toward_full_severity() {
        let s = Scenario {
            name: "ramp".into(),
            kind: FaultKind::NetSlow {
                delay: Duration::from_millis(400),
            },
            schedule: Schedule::Ramp {
                at: Duration::from_secs(1),
                until: Duration::from_secs(3),
                steps: 4,
            },
            target: Target::Follower,
            allow_majority: false,
        };
        let plan = s.compile(3, 0, 0).unwrap();
        assert_eq!(plan.windows.len(), 4);
        let delays: Vec<u64> = plan
            .windows
            .iter()
            .map(|w| match w.kind {
                FaultKind::NetSlow { delay } => delay.as_millis() as u64,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(delays, vec![100, 200, 300, 400]);
    }

    #[test]
    fn leader_target_lands_on_the_leader() {
        let s = Scenario::constant(
            "leader",
            FaultKind::CpuSlow { quota: 0.05 },
            Target::Leader,
            Duration::from_secs(1),
            Duration::from_secs(1),
        );
        let plan = s.compile(5, 2, 99).unwrap();
        assert_eq!(plan.targets(), [2u32].into());
    }
}
