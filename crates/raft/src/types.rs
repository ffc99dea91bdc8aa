//! Raft message types and their wire encodings.

use std::borrow::Cow;

use bytes::{Bytes, BytesMut};
use depfast_rpc::wire::{WireRead, WireSize, WireWrite};
use depfast_rpc::{wire_struct, Method};
use depfast_storage::Entry;

/// RPC method id of `AppendEntries`.
pub const APPEND_ENTRIES: Method = 0x10;
/// RPC method id of `RequestVote`.
pub const REQUEST_VOTE: Method = 0x11;
/// RPC method id of client proposals (used by `depfast-kv`).
pub const CLIENT_PROPOSE: Method = 0x12;
/// RPC method id of the flow-control probe used by `CallbackRaft`.
pub const FLOW_PROBE: Method = 0x13;
/// RPC method id of chain-replication forwarding used by `ChainRaft`.
pub const CHAIN_FORWARD: Method = 0x14;
/// RPC method id of `PreVote` (Raft §9.6-style pre-election probe).
pub const PRE_VOTE: Method = 0x15;

/// Newtype giving [`Entry`] a wire encoding in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireEntry(pub Entry);

impl WireWrite for WireEntry {
    fn write(&self, buf: &mut BytesMut) {
        self.0.term.write(buf);
        self.0.index.write(buf);
        self.0.payload.write(buf);
    }
    fn wire_size(&self) -> WireSize {
        self.0.term.wire_size() + self.0.index.wire_size() + self.0.payload.wire_size()
    }
}

impl WireRead for WireEntry {
    fn read(buf: &mut Bytes) -> Option<Self> {
        Some(WireEntry(Entry {
            term: u64::read(buf)?,
            index: u64::read(buf)?,
            payload: Bytes::read(buf)?,
        }))
    }
}

/// `AppendEntries` request (also the heartbeat when `entries` is empty).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppendReq {
    /// Leader's term.
    pub term: u64,
    /// Leader's node id.
    pub leader: u32,
    /// Index of the entry preceding `entries`.
    pub prev_index: u64,
    /// Term of the entry preceding `entries`.
    pub prev_term: u64,
    /// Entries to replicate.
    pub entries: Vec<WireEntry>,
    /// Leader's commit index.
    pub commit: u64,
    /// Lazy-ack mode: the responder must not hold the reply for WAL
    /// durability — it replies immediately with its durable prefix. The
    /// leader uses this to poll a quarantined fail-slow follower without
    /// parking an append handler behind its crawling disk.
    pub lazy: bool,
}
wire_struct!(AppendReq {
    term,
    leader,
    prev_index,
    prev_term,
    entries,
    commit,
    lazy
});

/// `AppendEntries` reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendResp {
    /// Responder's term.
    pub term: u64,
    /// Whether the entries were appended.
    pub success: bool,
    /// Highest index known replicated on the responder (on success), or a
    /// hint for where to back up to (on failure). Lazy replies report the
    /// durable prefix here, which may trail `verified`.
    pub match_index: u64,
    /// Highest index the responder has log-match-verified against the
    /// leader (appended, though possibly not yet durable). A lazy reply
    /// with `match_index == verified` means the responder's disk has
    /// drained everything delivered so far.
    pub verified: u64,
}
wire_struct!(AppendResp {
    term,
    success,
    match_index,
    verified
});

/// `RequestVote` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VoteReq {
    /// Candidate's term.
    pub term: u64,
    /// Candidate's node id.
    pub candidate: u32,
    /// Index of the candidate's last log entry.
    pub last_index: u64,
    /// Term of the candidate's last log entry.
    pub last_term: u64,
}
wire_struct!(VoteReq {
    term,
    candidate,
    last_index,
    last_term
});

/// `RequestVote` reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VoteResp {
    /// Responder's term.
    pub term: u64,
    /// Whether the vote was granted.
    pub granted: bool,
}
wire_struct!(VoteResp { term, granted });

/// Converts entries to their wire form. Owned entries are moved (the
/// vector's allocation is reused); borrowed ones are cloned.
pub fn to_wire<'a>(entries: impl Into<Cow<'a, [Entry]>>) -> Vec<WireEntry> {
    entries
        .into()
        .into_owned()
        .into_iter()
        .map(WireEntry)
        .collect()
}

/// Converts wire entries back to storage entries.
pub fn from_wire(entries: Vec<WireEntry>) -> Vec<Entry> {
    entries.into_iter().map(|w| w.0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(i: u64) -> Entry {
        Entry {
            term: 3,
            index: i,
            payload: Bytes::from(vec![i as u8; 8]),
        }
    }

    #[test]
    fn append_req_round_trip() {
        let req = AppendReq {
            term: 7,
            leader: 2,
            prev_index: 41,
            prev_term: 6,
            entries: to_wire(vec![entry(42), entry(43)]),
            commit: 40,
            lazy: false,
        };
        let enc = req.to_bytes();
        assert_eq!(req.wire_len(), enc.len());
        assert_eq!(AppendReq::from_bytes(&enc), Some(req));
    }

    #[test]
    fn empty_heartbeat_round_trip() {
        let req = AppendReq {
            term: 1,
            leader: 0,
            prev_index: 0,
            prev_term: 0,
            entries: vec![],
            commit: 0,
            lazy: true,
        };
        assert_eq!(req.wire_len(), req.to_bytes().len());
        assert_eq!(AppendReq::from_bytes(&req.to_bytes()), Some(req));
    }

    #[test]
    fn vote_round_trip() {
        let req = VoteReq {
            term: 9,
            candidate: 1,
            last_index: 100,
            last_term: 8,
        };
        assert_eq!(req.wire_len(), req.to_bytes().len());
        assert_eq!(VoteReq::from_bytes(&req.to_bytes()), Some(req));
        let resp = VoteResp {
            term: 9,
            granted: true,
        };
        assert_eq!(resp.wire_len(), resp.to_bytes().len());
        assert_eq!(VoteResp::from_bytes(&resp.to_bytes()), Some(resp));
    }

    #[test]
    fn append_resp_round_trip() {
        let resp = AppendResp {
            term: 2,
            success: false,
            match_index: 17,
            verified: 21,
        };
        assert_eq!(resp.wire_len(), resp.to_bytes().len());
        assert_eq!(AppendResp::from_bytes(&resp.to_bytes()), Some(resp));
    }

    #[test]
    fn wire_entries_preserve_payloads() {
        let es = vec![entry(1), entry(2), entry(3)];
        assert_eq!(from_wire(to_wire(&es)), es);
        assert_eq!(from_wire(to_wire(es.clone())), es);
    }
}
