//! KV command and response wire formats.

use bytes::{Bytes, BytesMut};
use depfast_rpc::wire::{WireRead, WireSize, WireWrite};

/// A key-value operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvOp {
    /// Insert or overwrite.
    Put,
    /// Linearizable read (through the log).
    Get,
    /// Remove.
    Delete,
}

impl KvOp {
    fn to_u8(self) -> u8 {
        match self {
            KvOp::Put => 0,
            KvOp::Get => 1,
            KvOp::Delete => 2,
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(KvOp::Put),
            1 => Some(KvOp::Get),
            2 => Some(KvOp::Delete),
            _ => None,
        }
    }
}

/// A client command, carried as the payload of a log entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvRequest {
    /// Client session id (for exactly-once application).
    pub client: u64,
    /// Client sequence number (monotone per session).
    pub seq: u64,
    /// Operation.
    pub op: KvOp,
    /// Key.
    pub key: Bytes,
    /// Value (empty for `Get`/`Delete`).
    pub value: Bytes,
}

impl WireWrite for KvRequest {
    fn write(&self, buf: &mut BytesMut) {
        self.client.write(buf);
        self.seq.write(buf);
        self.op.to_u8().write(buf);
        self.key.write(buf);
        self.value.write(buf);
    }
    fn wire_size(&self) -> WireSize {
        self.client.wire_size()
            + self.seq.wire_size()
            + self.op.to_u8().wire_size()
            + self.key.wire_size()
            + self.value.wire_size()
    }
}

impl WireRead for KvRequest {
    fn read(buf: &mut Bytes) -> Option<Self> {
        Some(KvRequest {
            client: u64::read(buf)?,
            seq: u64::read(buf)?,
            op: KvOp::from_u8(u8::read(buf)?)?,
            key: Bytes::read(buf)?,
            value: Bytes::read(buf)?,
        })
    }
}

/// Server verdict on a command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvStatus {
    /// Applied (or deduplicated) successfully.
    Ok,
    /// This server is not the leader; follow `leader_hint`.
    NotLeader,
    /// The command could not be committed (e.g. leadership lost mid-way).
    Error,
}

impl KvStatus {
    fn to_u8(self) -> u8 {
        match self {
            KvStatus::Ok => 0,
            KvStatus::NotLeader => 1,
            KvStatus::Error => 2,
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(KvStatus::Ok),
            1 => Some(KvStatus::NotLeader),
            2 => Some(KvStatus::Error),
            _ => None,
        }
    }
}

/// The reply to a [`KvRequest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvResponse {
    /// Verdict.
    pub status: KvStatus,
    /// Value (for `Get` hits).
    pub value: Option<Bytes>,
    /// Current leader, when known and relevant.
    pub leader_hint: Option<u32>,
}

impl KvResponse {
    /// Successful reply with an optional value.
    pub fn ok(value: Option<Bytes>) -> Self {
        KvResponse {
            status: KvStatus::Ok,
            value,
            leader_hint: None,
        }
    }

    /// Redirect to `hint`.
    pub fn not_leader(hint: Option<u32>) -> Self {
        KvResponse {
            status: KvStatus::NotLeader,
            value: None,
            leader_hint: hint,
        }
    }

    /// Commit failure.
    pub fn error() -> Self {
        KvResponse {
            status: KvStatus::Error,
            value: None,
            leader_hint: None,
        }
    }
}

impl WireWrite for KvResponse {
    fn write(&self, buf: &mut BytesMut) {
        self.status.to_u8().write(buf);
        self.value.write(buf);
        self.leader_hint.write(buf);
    }
    fn wire_size(&self) -> WireSize {
        self.status.to_u8().wire_size() + self.value.wire_size() + self.leader_hint.wire_size()
    }
}

impl WireRead for KvResponse {
    fn read(buf: &mut Bytes) -> Option<Self> {
        Some(KvResponse {
            status: KvStatus::from_u8(u8::read(buf)?)?,
            value: Option::<Bytes>::read(buf)?,
            leader_hint: Option::<u32>::read(buf)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trip() {
        let r = KvRequest {
            client: 9,
            seq: 44,
            op: KvOp::Put,
            key: Bytes::from_static(b"user001"),
            value: Bytes::from(vec![7u8; 100]),
        };
        assert_eq!(r.wire_len(), r.to_bytes().len());
        assert_eq!(KvRequest::from_bytes(&r.to_bytes()), Some(r));
    }

    #[test]
    fn all_ops_round_trip() {
        for op in [KvOp::Put, KvOp::Get, KvOp::Delete] {
            let r = KvRequest {
                client: 1,
                seq: 2,
                op,
                key: Bytes::from_static(b"k"),
                value: Bytes::new(),
            };
            assert_eq!(r.wire_len(), r.to_bytes().len());
            assert_eq!(KvRequest::from_bytes(&r.to_bytes()), Some(r));
        }
    }

    #[test]
    fn response_variants_round_trip() {
        for resp in [
            KvResponse::ok(Some(Bytes::from_static(b"v"))),
            KvResponse::ok(None),
            KvResponse::not_leader(Some(2)),
            KvResponse::not_leader(None),
            KvResponse::error(),
        ] {
            assert_eq!(resp.wire_len(), resp.to_bytes().len());
            assert_eq!(KvResponse::from_bytes(&resp.to_bytes()), Some(resp));
        }
    }

    #[test]
    fn malformed_op_rejected() {
        let r = KvRequest {
            client: 1,
            seq: 1,
            op: KvOp::Put,
            key: Bytes::from_static(b"k"),
            value: Bytes::new(),
        };
        let mut enc = r.to_bytes().to_vec();
        enc[16] = 9; // Corrupt the op byte.
        assert_eq!(KvRequest::from_bytes(&Bytes::from(enc)), None);
    }
}
