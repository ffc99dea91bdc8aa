//! The wire bytes are pinned: a client request and an `AppendEntries`
//! batch carrying it encode to exactly these bytes, whether their payloads
//! are copied or appended by reference. The expected layouts are written
//! out field by field; payloads are generated patterns.

use bytes::Bytes;
use depfast_kv::{KvOp, KvRequest};
use depfast_raft::types::{to_wire, AppendReq};
use depfast_rpc::wire::{WireRead, WireWrite};
use depfast_storage::Entry;

fn pattern(seed: u8, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
        .collect()
}

fn unhex(s: &str) -> Vec<u8> {
    let s: String = s.split_whitespace().collect();
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

fn request() -> KvRequest {
    KvRequest {
        client: 7,
        seq: 42,
        op: KvOp::Put,
        key: Bytes::from("user0000000000000012345"),
        value: Bytes::from(pattern(1, 1024)),
    }
}

fn request_golden() -> Vec<u8> {
    [
        // client, seq, op, key length
        unhex("0700000000000000 2a00000000000000 00 17000000"),
        b"user0000000000000012345".to_vec(),
        unhex("00040000"), // value length
        pattern(1, 1024),
    ]
    .concat()
}

#[test]
fn kv_request_encodes_to_the_pinned_bytes() {
    let req = request();
    let enc = req.to_bytes();
    assert_eq!(enc.to_vec(), request_golden());
    assert_eq!(enc.len(), req.wire_len());
    let back = KvRequest::from_bytes(&enc).unwrap();
    assert_eq!(back, req);
    assert_eq!(
        back.value.as_ptr(),
        req.value.as_ptr(),
        "decoding shares the value"
    );
}

#[test]
fn append_req_encodes_to_the_pinned_bytes() {
    let kv = request();
    let entries = vec![
        Entry {
            term: 3,
            index: 10,
            payload: kv.to_bytes(),
        },
        Entry {
            term: 3,
            index: 11,
            payload: Bytes::from(pattern(2, 1024)),
        },
        Entry {
            term: 3,
            index: 12,
            payload: Bytes::from_static(b"tiny"),
        },
    ];
    let req = AppendReq {
        term: 3,
        leader: 1,
        prev_index: 9,
        prev_term: 2,
        entries: to_wire(&entries),
        commit: 9,
        lazy: false,
    };
    let golden = [
        // term, leader, prev_index, prev_term, entry count
        unhex("0300000000000000 01000000 0900000000000000 0200000000000000 03000000"),
        // term, index, payload length 1072
        unhex("0300000000000000 0a00000000000000 30040000"),
        request_golden(),
        unhex("0300000000000000 0b00000000000000 00040000"),
        pattern(2, 1024),
        unhex("0300000000000000 0c00000000000000 04000000"),
        b"tiny".to_vec(),
        // commit, lazy
        unhex("0900000000000000 00"),
    ]
    .concat();
    let enc = req.to_bytes();
    assert_eq!(enc.to_vec(), golden);
    assert_eq!(enc.len(), req.wire_len());
    let back = AppendReq::from_bytes(&enc).unwrap();
    assert_eq!(back, req);
    // The value crossed two encodings and two decodings without a copy.
    let decoded = KvRequest::from_bytes(&back.entries[0].0.payload).unwrap();
    assert_eq!(decoded.value.as_ptr(), kv.value.as_ptr());
}
