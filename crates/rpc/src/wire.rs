//! Hand-rolled binary wire format.
//!
//! Message payloads are serialized before they hit the simulated network so
//! the bandwidth and memory models see true byte counts. The format is a
//! plain little-endian TLV-free layout: each type writes its fields in a
//! fixed order. Decoding is fallible (`Option`) — a malformed buffer never
//! panics.
//!
//! Encoding never copies a large payload: each contiguous piece of a
//! `Bytes` field (one, unless the field is itself an encoded message that
//! embeds a payload) of at least [`SHARE_MIN`] bytes is appended by
//! reference. The encoded message shares that memory, and decoding the
//! field on the receiver returns a view of the same memory. A value
//! written by a client is thereby held once, however many messages, logs
//! and stores carry it. The bytes on the wire, and every length, are the
//! same either way.

use std::iter::Sum;
use std::ops::Add;

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Smallest contiguous piece of a `Bytes` field that is encoded by
/// reference instead of by copy. A shared piece costs a segment entry and
/// pins the buffer it was cut from; a copy costs its length in every
/// holder, and less CPU. 256 is above every key, header and
/// acknowledgement the workloads send and below their 1 KB values
/// (measurements in docs/PERFORMANCE.md §9).
pub const SHARE_MIN: usize = 256;

/// Encoded size of a value.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireSize {
    /// All bytes [`WireWrite::write`] appends.
    pub total: usize,
    /// The part of them copied into the encoder's own buffer.
    pub inline: usize,
    /// Pieces appended by reference (the bytes not copied).
    pub pieces: usize,
}

impl WireSize {
    /// `n` bytes, all copied.
    pub const fn copied(n: usize) -> Self {
        WireSize {
            total: n,
            inline: n,
            pieces: 0,
        }
    }
}

impl Add for WireSize {
    type Output = WireSize;
    fn add(self, o: WireSize) -> WireSize {
        WireSize {
            total: self.total + o.total,
            inline: self.inline + o.inline,
            pieces: self.pieces + o.pieces,
        }
    }
}

impl Sum for WireSize {
    fn sum<I: Iterator<Item = WireSize>>(iter: I) -> WireSize {
        iter.fold(WireSize::default(), Add::add)
    }
}

/// Types that can serialize themselves onto a buffer.
pub trait WireWrite {
    /// Appends this value's encoding to `buf`.
    fn write(&self, buf: &mut BytesMut);

    /// The exact size of what [`write`](Self::write) appends.
    fn wire_size(&self) -> WireSize;

    /// The exact number of bytes [`write`](Self::write) appends.
    fn wire_len(&self) -> usize {
        self.wire_size().total
    }

    /// Convenience: encodes into a fresh buffer allocated at its final
    /// size (copied bytes and shared pieces), so encoding never regrows it.
    fn to_bytes(&self) -> Bytes {
        let size = self.wire_size();
        let mut buf = BytesMut::with_capacity(size.inline);
        buf.reserve_pieces(size.pieces);
        self.write(&mut buf);
        debug_assert_eq!(buf.len(), size.total, "wire_size is not exact");
        buf.freeze()
    }
}

/// Types that can deserialize themselves from a buffer.
pub trait WireRead: Sized {
    /// Consumes this value's encoding from `buf`, or returns `None` if the
    /// buffer is malformed or truncated.
    fn read(buf: &mut Bytes) -> Option<Self>;

    /// Convenience: decodes from a complete buffer.
    fn from_bytes(bytes: &Bytes) -> Option<Self> {
        let mut b = bytes.clone();
        let v = Self::read(&mut b)?;
        if b.has_remaining() {
            return None; // Trailing garbage.
        }
        Some(v)
    }
}

macro_rules! wire_uint {
    ($ty:ty, $put:ident, $get:ident, $len:expr) => {
        impl WireWrite for $ty {
            fn write(&self, buf: &mut BytesMut) {
                buf.$put(*self);
            }
            fn wire_size(&self) -> WireSize {
                WireSize::copied($len)
            }
        }
        impl WireRead for $ty {
            fn read(buf: &mut Bytes) -> Option<Self> {
                if buf.remaining() < $len {
                    return None;
                }
                Some(buf.$get())
            }
        }
    };
}

wire_uint!(u8, put_u8, get_u8, 1);
wire_uint!(u16, put_u16_le, get_u16_le, 2);
wire_uint!(u32, put_u32_le, get_u32_le, 4);
wire_uint!(u64, put_u64_le, get_u64_le, 8);

impl WireWrite for bool {
    fn write(&self, buf: &mut BytesMut) {
        buf.put_u8(*self as u8);
    }
    fn wire_size(&self) -> WireSize {
        WireSize::copied(1)
    }
}

impl WireRead for bool {
    fn read(buf: &mut Bytes) -> Option<Self> {
        match u8::read(buf)? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

/// A contiguous piece of at least [`SHARE_MIN`] bytes is appended by
/// reference, a shorter one is copied (so a nested message's small
/// headers join the outer buffer instead of adding a segment each).
impl WireWrite for Bytes {
    fn write(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.len() as u32);
        if self.chunk().len() == self.len() {
            // One piece: the common case, taken without a clone.
            if self.len() >= SHARE_MIN {
                buf.put_bytes(self);
            } else {
                buf.put_slice(self);
            }
            return;
        }
        let mut rest = self.clone();
        while rest.has_remaining() {
            let n = rest.chunk().len();
            if n >= SHARE_MIN {
                buf.put_bytes(&rest.split_to(n));
            } else {
                buf.put_slice(rest.chunk());
                rest.advance(n);
            }
        }
    }
    fn wire_size(&self) -> WireSize {
        let mut size = WireSize::copied(4);
        let mut piece = |n: usize| {
            size.total += n;
            if n >= SHARE_MIN {
                size.pieces += 1;
            } else {
                size.inline += n;
            }
        };
        if self.chunk().len() == self.len() {
            piece(self.len());
        } else {
            let mut rest = self.clone();
            while rest.has_remaining() {
                let n = rest.chunk().len();
                piece(n);
                rest.advance(n);
            }
        }
        size
    }
}

impl WireRead for Bytes {
    fn read(buf: &mut Bytes) -> Option<Self> {
        let len = u32::read(buf)? as usize;
        if buf.remaining() < len {
            return None;
        }
        Some(buf.split_to(len))
    }
}

impl WireWrite for String {
    fn write(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.len() as u32);
        buf.put_slice(self.as_bytes());
    }
    fn wire_size(&self) -> WireSize {
        WireSize::copied(4 + self.len())
    }
}

impl WireRead for String {
    fn read(buf: &mut Bytes) -> Option<Self> {
        let raw = Bytes::read(buf)?;
        String::from_utf8(raw.to_vec()).ok()
    }
}

impl<T: WireWrite> WireWrite for Vec<T> {
    fn write(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.len() as u32);
        for item in self {
            item.write(buf);
        }
    }
    fn wire_size(&self) -> WireSize {
        WireSize::copied(4) + self.iter().map(WireWrite::wire_size).sum()
    }
}

impl<T: WireRead> WireRead for Vec<T> {
    fn read(buf: &mut Bytes) -> Option<Self> {
        let len = u32::read(buf)? as usize;
        // Guard against absurd length prefixes in malformed buffers: each
        // element consumes at least one byte.
        if len > buf.remaining() {
            return None;
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::read(buf)?);
        }
        Some(out)
    }
}

impl<T: WireWrite> WireWrite for Option<T> {
    fn write(&self, buf: &mut BytesMut) {
        match self {
            None => buf.put_u8(0),
            Some(v) => {
                buf.put_u8(1);
                v.write(buf);
            }
        }
    }
    fn wire_size(&self) -> WireSize {
        WireSize::copied(1)
            + self
                .as_ref()
                .map_or(WireSize::default(), WireWrite::wire_size)
    }
}

impl<T: WireRead> WireRead for Option<T> {
    fn read(buf: &mut Bytes) -> Option<Self> {
        match u8::read(buf)? {
            0 => Some(None),
            1 => Some(Some(T::read(buf)?)),
            _ => None,
        }
    }
}

/// Implements [`WireWrite`]/[`WireRead`] for a struct field-by-field.
///
/// # Examples
///
/// ```
/// use bytes::Bytes;
/// use depfast_rpc::wire::{WireRead, WireWrite};
/// use depfast_rpc::wire_struct;
///
/// #[derive(Debug, PartialEq)]
/// struct Ping {
///     seq: u64,
///     payload: Bytes,
/// }
/// wire_struct!(Ping { seq, payload });
///
/// let p = Ping { seq: 7, payload: Bytes::from_static(b"hi") };
/// let enc = p.to_bytes();
/// assert_eq!(enc.len(), p.wire_len());
/// assert_eq!(Ping::from_bytes(&enc), Some(p));
/// ```
#[macro_export]
macro_rules! wire_struct {
    ($name:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::wire::WireWrite for $name {
            fn write(&self, buf: &mut bytes::BytesMut) {
                $(self.$field.write(buf);)+
            }
            fn wire_size(&self) -> $crate::wire::WireSize {
                $crate::wire::WireSize::default() $(+ self.$field.wire_size())+
            }
        }
        impl $crate::wire::WireRead for $name {
            fn read(buf: &mut bytes::Bytes) -> Option<Self> {
                Some($name {
                    $($field: $crate::wire::WireRead::read(buf)?,)+
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Sample {
        a: u64,
        b: String,
        c: Vec<u32>,
        d: Option<u8>,
        e: Bytes,
        f: bool,
    }
    wire_struct!(Sample { a, b, c, d, e, f });

    fn sample() -> Sample {
        Sample {
            a: 0xdead_beef_1234_5678,
            b: "hello".into(),
            c: vec![1, 2, 3],
            d: Some(9),
            e: Bytes::from_static(b"payload"),
            f: true,
        }
    }

    #[test]
    fn round_trip() {
        let s = sample();
        assert_eq!(s.wire_len(), s.to_bytes().len());
        assert_eq!(Sample::from_bytes(&s.to_bytes()), Some(s));
    }

    #[test]
    fn none_option_round_trips() {
        let s = Sample {
            d: None,
            ..sample()
        };
        assert_eq!(s.wire_len(), s.to_bytes().len());
        assert_eq!(Sample::from_bytes(&s.to_bytes()), Some(s));
    }

    #[test]
    fn truncated_buffer_fails_cleanly() {
        let enc = sample().to_bytes();
        for cut in 0..enc.len() {
            let partial = enc.slice(0..cut);
            assert_eq!(Sample::from_bytes(&partial), None, "cut at {cut}");
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut enc = BytesMut::from(&sample().to_bytes()[..]);
        enc.put_u8(0xff);
        assert_eq!(Sample::from_bytes(&enc.freeze()), None);
    }

    #[test]
    fn absurd_vec_length_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(u32::MAX);
        let mut b = buf.freeze();
        assert!(Vec::<u64>::read(&mut b).is_none());
    }

    #[test]
    fn invalid_bool_rejected() {
        let mut b = Bytes::from_static(&[7]);
        assert!(bool::read(&mut b).is_none());
    }

    /// A large field is shared, not copied, also when it reaches the
    /// encoder nested inside an already encoded message; only the short
    /// pieces around it are copied.
    #[test]
    fn large_pieces_are_shared_and_sized_exactly() {
        let big = Bytes::from(vec![5u8; SHARE_MIN]);
        let inner = Sample {
            e: big.clone(),
            ..sample()
        };
        let outer = Sample {
            e: inner.to_bytes(),
            ..sample()
        };
        for (size, enc) in [
            (inner.wire_size(), inner.to_bytes()),
            (outer.wire_size(), outer.to_bytes()),
        ] {
            assert_eq!(size.pieces, 1);
            assert_eq!(size.inline, size.total - SHARE_MIN);
            assert_eq!(size.total, enc.len());
        }
        let back = Sample::from_bytes(&outer.to_bytes()).unwrap();
        let back = Sample::from_bytes(&back.e).unwrap();
        assert_eq!(back, inner);
        assert_eq!(back.e.as_ptr(), big.as_ptr());
    }

    #[test]
    fn empty_collections() {
        let s = Sample {
            b: String::new(),
            c: vec![],
            e: Bytes::new(),
            ..sample()
        };
        assert_eq!(s.wire_len(), s.to_bytes().len());
        assert_eq!(Sample::from_bytes(&s.to_bytes()), Some(s));
    }
}
