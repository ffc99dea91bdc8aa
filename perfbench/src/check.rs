//! The output check: what the cluster holds at the end must agree with
//! what the clients were told.

use std::collections::HashMap;

use bytes::Bytes;

use crate::openloop::{fingerprint, OpRec, Run};

/// How much the check covered.
#[derive(Debug, Default)]
pub struct Checked {
    /// Written keys compared across caught-up replicas.
    pub keys_compared: u64,
    /// Acknowledged last writes found on the leader.
    pub acked_verified: u64,
}

/// Fails if a server crashed, if a caught-up replica disagrees with its
/// leader on a written key, or if an acknowledged put that no other put
/// to its key could have overtaken is missing from the leader.
pub fn check(run: &Run) -> Result<Checked, String> {
    for n in 0..run.target.server_nodes() as u32 {
        if run.world.is_crashed(simkit::NodeId(n)) {
            return Err(format!("server node {n} crashed"));
        }
    }
    let gen = run.gen.borrow();
    let mut writes: HashMap<&Bytes, Vec<&OpRec>> = HashMap::new();
    for r in gen.recs.iter().filter(|r| r.write) {
        writes.entry(&r.key).or_default().push(r);
    }
    let groups = run.target.groups();
    let mut out = Checked::default();
    for (g, servers) in groups.iter().enumerate() {
        let leader = servers
            .iter()
            .find(|s| s.raft().is_leader())
            .ok_or_else(|| format!("group {g} has no leader at the end"))?;
        let caught_up: Vec<_> = servers
            .iter()
            .filter(|s| s.applied() == leader.applied())
            .collect();
        for (key, puts) in writes.iter().filter(|(_, p)| p[0].group as usize == g) {
            let on_leader = leader.local_get(key);
            for s in &caught_up {
                if s.local_get(key) != on_leader {
                    return Err(format!(
                        "group {g}: replica {} disagrees with leader {} on {}",
                        s.raft().node().0,
                        leader.raft().node().0,
                        String::from_utf8_lossy(key)
                    ));
                }
            }
            out.keys_compared += 1;
            let last = puts
                .iter()
                .filter(|p| p.dispatch != 0)
                .max_by_key(|p| p.dispatch)
                .copied();
            let Some(last) = last else { continue };
            let settled_before = puts.iter().all(|p| {
                std::ptr::eq(*p, last) || (p.ok && p.done != 0 && p.done <= last.dispatch)
            });
            if !(last.ok && settled_before) {
                continue;
            }
            if on_leader.as_deref().map(fingerprint) != Some(last.value_fp) {
                return Err(format!(
                    "group {g}: acknowledged put to {} (done at {} ns) is not on the leader",
                    String::from_utf8_lossy(key),
                    last.done
                ));
            }
            out.acked_verified += 1;
        }
    }
    Ok(out)
}
