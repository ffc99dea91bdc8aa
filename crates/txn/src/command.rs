//! Transaction command and vote wire formats.

use bytes::{Bytes, BytesMut};
use depfast_rpc::wire::{WireRead, WireSize, WireWrite};
use depfast_rpc::Method;

/// RPC method id for transaction commands (served by `TxnServer`).
pub const TXN_EXEC: Method = 0x20;

/// A write in a transaction: key → value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnWrite {
    /// Key.
    pub key: Bytes,
    /// New value.
    pub value: Bytes,
}

impl WireWrite for TxnWrite {
    fn write(&self, buf: &mut BytesMut) {
        self.key.write(buf);
        self.value.write(buf);
    }
    fn wire_size(&self) -> WireSize {
        self.key.wire_size() + self.value.wire_size()
    }
}

impl WireRead for TxnWrite {
    fn read(buf: &mut Bytes) -> Option<Self> {
        Some(TxnWrite {
            key: Bytes::read(buf)?,
            value: Bytes::read(buf)?,
        })
    }
}

/// A replicated transaction command (one Raft log entry per shard).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnCmd {
    /// Phase 1: acquire locks and stage `writes` for `txn`.
    Prepare {
        /// Globally unique transaction id.
        txn: u64,
        /// Writes touching this shard.
        writes: Vec<TxnWrite>,
    },
    /// Phase 2 (success): apply staged writes and release locks.
    Commit {
        /// Transaction id.
        txn: u64,
    },
    /// Phase 2 (failure): discard staged writes and release locks.
    Abort {
        /// Transaction id.
        txn: u64,
    },
}

impl WireWrite for TxnCmd {
    fn write(&self, buf: &mut BytesMut) {
        match self {
            TxnCmd::Prepare { txn, writes } => {
                0u8.write(buf);
                txn.write(buf);
                writes.write(buf);
            }
            TxnCmd::Commit { txn } => {
                1u8.write(buf);
                txn.write(buf);
            }
            TxnCmd::Abort { txn } => {
                2u8.write(buf);
                txn.write(buf);
            }
        }
    }
    fn wire_size(&self) -> WireSize {
        let body = match self {
            TxnCmd::Prepare { txn, writes } => txn.wire_size() + writes.wire_size(),
            TxnCmd::Commit { txn } | TxnCmd::Abort { txn } => txn.wire_size(),
        };
        WireSize::copied(1) + body
    }
}

impl WireRead for TxnCmd {
    fn read(buf: &mut Bytes) -> Option<Self> {
        match u8::read(buf)? {
            0 => Some(TxnCmd::Prepare {
                txn: u64::read(buf)?,
                writes: Vec::read(buf)?,
            }),
            1 => Some(TxnCmd::Commit {
                txn: u64::read(buf)?,
            }),
            2 => Some(TxnCmd::Abort {
                txn: u64::read(buf)?,
            }),
            _ => None,
        }
    }
}

/// A shard's reply to a transaction command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnVote {
    /// Prepared / applied.
    Yes,
    /// Lock conflict: the transaction must abort.
    No,
    /// This server is not the shard leader.
    NotLeader,
}

impl WireWrite for TxnVote {
    fn write(&self, buf: &mut BytesMut) {
        let v: u8 = match self {
            TxnVote::Yes => 0,
            TxnVote::No => 1,
            TxnVote::NotLeader => 2,
        };
        v.write(buf);
    }
    fn wire_size(&self) -> WireSize {
        WireSize::copied(1)
    }
}

impl WireRead for TxnVote {
    fn read(buf: &mut Bytes) -> Option<Self> {
        match u8::read(buf)? {
            0 => Some(TxnVote::Yes),
            1 => Some(TxnVote::No),
            2 => Some(TxnVote::NotLeader),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_round_trips() {
        let cmd = TxnCmd::Prepare {
            txn: 42,
            writes: vec![
                TxnWrite {
                    key: Bytes::from_static(b"a"),
                    value: Bytes::from_static(b"1"),
                },
                TxnWrite {
                    key: Bytes::from_static(b"b"),
                    value: Bytes::from_static(b"2"),
                },
            ],
        };
        assert_eq!(cmd.wire_len(), cmd.to_bytes().len());
        assert_eq!(TxnCmd::from_bytes(&cmd.to_bytes()), Some(cmd));
    }

    #[test]
    fn commit_abort_round_trip() {
        for cmd in [TxnCmd::Commit { txn: 7 }, TxnCmd::Abort { txn: 7 }] {
            assert_eq!(cmd.wire_len(), cmd.to_bytes().len());
            assert_eq!(TxnCmd::from_bytes(&cmd.to_bytes()), Some(cmd));
        }
    }

    #[test]
    fn votes_round_trip() {
        for v in [TxnVote::Yes, TxnVote::No, TxnVote::NotLeader] {
            assert_eq!(v.wire_len(), v.to_bytes().len());
            assert_eq!(TxnVote::from_bytes(&v.to_bytes()), Some(v));
        }
    }

    #[test]
    fn malformed_tag_rejected() {
        let mut b = Bytes::from_static(&[9]);
        assert!(TxnCmd::read(&mut b).is_none());
    }
}
