//! Offline stand-in for the `bytes` crate.
//!
//! [`Bytes`] is a cheaply-cloneable immutable byte buffer (`Arc`-backed
//! with an offset window; an empty one holds no `Arc` and never touches
//! the heap); [`BytesMut`] is a growable buffer with an
//! amortised-O(1) front cursor so `advance` doesn't memmove.
//! [`Buf`] (on `BytesMut` and `&[u8]`) and [`BufMut`] cover the
//! big-endian accessor subset the wire codec uses.

use std::ops::Deref;
use std::sync::Arc;

/// Cheaply-cloneable immutable bytes, at most 4 GiB (the window is two
/// `u32`s, so a `Bytes` is three words).
#[derive(Clone, Default)]
pub struct Bytes {
    /// `None` exactly when the buffer is empty.
    data: Option<Arc<[u8]>>,
    start: u32,
    end: u32,
}

/// A buffer length as a window bound.
fn bound(len: usize) -> u32 {
    u32::try_from(len).expect("Bytes holds at most 4 GiB")
}

impl Bytes {
    /// Empty buffer (no allocation).
    pub fn new() -> Bytes {
        Bytes::default()
    }

    /// Wrap a static slice (no allocation beyond the Arc header; none
    /// at all when `s` is empty).
    pub fn from_static(s: &'static [u8]) -> Bytes {
        Bytes::from(s)
    }

    /// Take over a buffer its caller filled, without a copy. The
    /// published crate's `from_owner` takes any `AsRef<[u8]>` owner;
    /// the stand-in keeps its bytes in an `Arc<[u8]>`, so that is the
    /// one owner it takes.
    pub fn from_owner(owner: Arc<[u8]>) -> Bytes {
        let end = bound(owner.len());
        Bytes {
            data: (end > 0).then_some(owner),
            start: 0,
            end,
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copy out to a `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    fn as_slice(&self) -> &[u8] {
        self.data
            .as_ref()
            .map_or(&[], |d| &d[self.start as usize..self.end as usize])
    }

    /// Sub-window of this buffer (shares the allocation).
    pub fn slice(&self, range: std::ops::Range<usize>) -> Bytes {
        assert!(range.start <= range.end && range.end <= self.len());
        if range.is_empty() {
            return Bytes::new();
        }
        Bytes {
            data: self.data.clone(),
            start: self.start + bound(range.start),
            end: self.start + bound(range.end),
        }
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        let end = bound(v.len());
        Bytes {
            data: (end > 0).then(|| Arc::from(v)),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Bytes {
        Bytes {
            data: (!s.is_empty()).then(|| Arc::from(s)),
            start: 0,
            end: bound(s.len()),
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            for c in std::ascii::escape_default(b) {
                write!(f, "{}", c as char)?;
            }
        }
        write!(f, "\"")
    }
}

/// Growable byte buffer with a consuming front cursor.
#[derive(Debug, Clone, Default)]
pub struct BytesMut {
    data: Vec<u8>,
    /// Bytes before `start` have been consumed by `advance`/gets.
    start: usize,
}

impl BytesMut {
    /// Empty buffer.
    pub fn new() -> BytesMut {
        BytesMut::default()
    }

    /// Empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut {
            data: Vec::with_capacity(cap),
            start: 0,
        }
    }

    /// Unconsumed length.
    pub fn len(&self) -> usize {
        self.data.len() - self.start
    }

    /// True if no unconsumed bytes remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append raw bytes.
    pub fn extend_from_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }

    /// Copy the unconsumed bytes to a `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    fn as_slice(&self) -> &[u8] {
        &self.data[self.start..]
    }

    /// Drop the consumed prefix once it dominates the buffer, keeping
    /// `advance` amortised O(1) without unbounded memory growth.
    fn compact(&mut self) {
        if self.start > 4096 && self.start * 2 >= self.data.len() {
            self.data.drain(..self.start);
            self.start = 0;
        }
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

/// Read cursor over a byte buffer (big-endian accessors).
pub trait Buf {
    /// Unconsumed bytes remaining.
    fn remaining(&self) -> usize;
    /// View of the unconsumed bytes.
    fn chunk(&self) -> &[u8];
    /// Consume `cnt` bytes.
    fn advance(&mut self, cnt: usize);

    /// Consume one byte.
    fn get_u8(&mut self) -> u8 {
        let b = self.chunk()[0];
        self.advance(1);
        b
    }

    /// Consume a big-endian `u16`.
    fn get_u16(&mut self) -> u16 {
        let c = self.chunk();
        let v = u16::from_be_bytes([c[0], c[1]]);
        self.advance(2);
        v
    }

    /// Consume a big-endian `u32`.
    fn get_u32(&mut self) -> u32 {
        let c = self.chunk();
        let v = u32::from_be_bytes([c[0], c[1], c[2], c[3]]);
        self.advance(4);
        v
    }
}

impl Buf for BytesMut {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance out of range");
        self.start += cnt;
        self.compact();
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }
}

/// Write cursor appending to a byte buffer (big-endian writers).
pub trait BufMut {
    /// Append raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Append a big-endian `u16`.
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Append a big-endian `u32`.
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let mut buf = BytesMut::with_capacity(16);
        buf.put_u32(0xDEADBEEF);
        buf.put_u8(7);
        buf.put_u16(6881);
        buf.put_slice(b"xy");
        assert_eq!(buf.len(), 9);
        assert_eq!(buf.get_u32(), 0xDEADBEEF);
        assert_eq!(buf.get_u8(), 7);
        assert_eq!(buf.get_u16(), 6881);
        assert_eq!(&buf[..], b"xy");
    }

    #[test]
    fn slice_cursor_and_windows() {
        let mut cursor: &[u8] = b"\x00\x00\x00\x05hello world";
        assert_eq!(cursor.get_u32(), 5);
        assert_eq!(cursor.remaining(), 11);
        let head = Bytes::from(&cursor[..5]);
        cursor.advance(5);
        assert_eq!(cursor, b" world");
        assert_eq!(head.slice(1..4).to_vec(), b"ell");
        assert_eq!(head, Bytes::from_static(b"hello"));
    }

    #[test]
    fn an_owner_is_kept_not_copied() {
        let owner: Arc<[u8]> = Arc::from(&b"hello"[..]);
        let b = Bytes::from_owner(owner.clone());
        assert!(Arc::ptr_eq(b.data.as_ref().unwrap(), &owner));
        assert_eq!(b, Bytes::from_static(b"hello"));
    }

    #[test]
    fn empty_buffers_hold_no_allocation() {
        for empty in [
            Bytes::new(),
            Bytes::default(),
            Bytes::from_static(b""),
            Bytes::from(Vec::new()),
            Bytes::from_owner(Arc::from(Vec::new())),
            Bytes::from(&b"abc"[..]).slice(1..1),
        ] {
            assert!(empty.data.is_none());
            assert!(empty.is_empty());
            assert_eq!(&empty[..], b"");
            assert_eq!(empty, Bytes::new());
        }
    }

    #[test]
    fn compaction_keeps_contents() {
        let mut buf = BytesMut::new();
        buf.put_slice(&vec![0xAB; 10_000]);
        buf.advance(6000);
        assert_eq!(buf.len(), 4000);
        assert!(buf.iter().all(|&b| b == 0xAB));
    }
}
