//! In-tree byte buffers.
//!
//! A minimal, dependency-free replacement for the `bytes` crate covering
//! exactly the surface the simulator uses: an immutable, cheaply-cloneable
//! [`Bytes`] (a shared view with zero-copy `clone`/`slice`) and a growable
//! [`BytesMut`] writer with big-endian `put_*` methods, `split_to`
//! framing, and `freeze`. Keeping this in-tree is part of the
//! offline/no-deps policy: the default feature set of the workspace must
//! build and test with no network access and no registry cache.
//!
//! Cost model: a [`Bytes`] is 16 bytes, an `Option<Arc<Vec<u8>>>` plus
//! `u32` view offsets, so it fits twice into a [`crate::Packet`] (head
//! and body) without growing it. Every empty view holds `None`: an empty
//! body allocates nothing and touches no reference count. `Bytes::clone`
//! and `Bytes::slice` copy nothing. `BytesMut::freeze` and
//! `Bytes::from(Vec<u8>)` move the vector into shared storage without
//! copying it, unless its capacity exceeds twice the live bytes: then the
//! live bytes are copied once into an exactly sized vector, so that a
//! small frame cut from a drained multi-megabyte buffer does not keep the
//! whole allocation alive. `BytesMut::split_to(at)` copies only the `at`
//! bytes it returns; the remaining bytes stay where they are behind a
//! read offset, and the consumed prefix is reclaimed (the live bytes
//! moved to the front) once it is at least half of the storage, so
//! cutting a buffer into frames costs amortised O(1) per byte. Splitting
//! off the whole buffer hands its storage over without a copy.
//! `copy_from_slice` costs two allocations: the vector and its `Arc`.

use std::fmt;
use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::Arc;

/// A cheaply cloneable, immutable, contiguous slice of memory.
///
/// `clone` and [`slice`](Bytes::slice) are O(1): they share the same
/// reference-counted allocation and only adjust the view window. A view
/// holds at most `u32::MAX` bytes.
#[derive(Clone, Default)]
pub struct Bytes {
    /// Shared storage; `None` exactly when the view is empty.
    data: Option<Arc<Vec<u8>>>,
    /// The view is `data[start..end]`.
    start: u32,
    end: u32,
}

/// A view offset as stored in [`Bytes`].
///
/// # Panics
/// Panics past `u32::MAX`: a view that long cannot be represented.
fn offset(n: usize) -> u32 {
    u32::try_from(n).unwrap_or_else(|_| panic!("buffer of {n} bytes exceeds the u32 view bound"))
}

impl Bytes {
    /// An empty buffer; allocates nothing.
    pub const fn new() -> Self {
        Bytes { data: None, start: 0, end: 0 }
    }

    /// A buffer viewing a static slice (copied once into shared storage).
    pub fn from_static(data: &'static [u8]) -> Self {
        Bytes::copy_from_slice(data)
    }

    /// Copy `data` into a new shared buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::share(data.to_vec(), 0)
    }

    /// Share `v[start..]`: moves `v` into the `Arc` when its capacity is
    /// at most twice the live bytes, and copies the live bytes into an
    /// exactly sized vector otherwise.
    fn share(v: Vec<u8>, start: usize) -> Self {
        let live = v.len() - start;
        if live == 0 {
            return Bytes::new();
        }
        if v.capacity() > 2 * live {
            return Bytes::share(v[start..].to_vec(), 0);
        }
        let end = offset(v.len());
        Bytes { data: Some(Arc::new(v)), start: offset(start), end }
    }

    /// Number of bytes in the view.
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A zero-copy sub-view of this buffer.
    ///
    /// # Panics
    /// Panics if the range is out of bounds or decreasing.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let len = self.len();
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(begin <= end, "slice range reversed: {begin}..{end}");
        assert!(end <= len, "slice out of bounds: {end} > {len}");
        if begin == end {
            return Bytes::new();
        }
        Bytes {
            data: self.data.clone(),
            start: self.start + begin as u32,
            end: self.start + end as u32,
        }
    }

    /// The bytes as a plain slice.
    pub fn as_slice(&self) -> &[u8] {
        match &self.data {
            Some(d) => &d[self.start as usize..self.end as usize],
            None => &[],
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

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            // Match the escape style of the `bytes` crate closely enough
            // for test failure messages to stay readable.
            match b {
                b'"' => write!(f, "\\\"")?,
                b'\\' => write!(f, "\\\\")?,
                b'\n' => write!(f, "\\n")?,
                b'\r' => write!(f, "\\r")?,
                b'\t' => write!(f, "\\t")?,
                0x20..=0x7e => write!(f, "{}", b as char)?,
                _ => write!(f, "\\x{b:02x}")?,
            }
        }
        write!(f, "\"")
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

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    /// Moves `v` into shared storage; see [`BytesMut::freeze`] for when
    /// it copies instead.
    fn from(v: Vec<u8>) -> Self {
        Bytes::share(v, 0)
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(v: &'static [u8]) -> Self {
        Bytes::copy_from_slice(v)
    }
}

impl From<BytesMut> for Bytes {
    fn from(m: BytesMut) -> Self {
        m.freeze()
    }
}

/// A growable byte buffer for assembling frames.
///
/// Writes append at the end; [`split_to`](BytesMut::split_to) removes a
/// framed prefix; [`freeze`](BytesMut::freeze) turns the bytes into an
/// immutable [`Bytes`]. Only the live bytes, those written and not yet
/// split off, are observable: length, slices, `Debug` and `==` never see
/// the consumed prefix.
#[derive(Clone, Default)]
pub struct BytesMut {
    data: Vec<u8>,
    /// Start of the live bytes; `data[..head]` was split off already.
    head: usize,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// An empty buffer with pre-reserved capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(capacity),
            head: 0,
        }
    }

    /// Number of bytes written and not yet split off.
    pub fn len(&self) -> usize {
        self.data.len() - self.head
    }

    /// Whether no bytes are left.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.data.push(v);
    }

    /// Append a big-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.data.extend_from_slice(&v.to_be_bytes());
    }

    /// Append a big-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.data.extend_from_slice(&v.to_be_bytes());
    }

    /// Append a big-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.data.extend_from_slice(&v.to_be_bytes());
    }

    /// Append a big-endian `i16`.
    pub fn put_i16(&mut self, v: i16) {
        self.data.extend_from_slice(&v.to_be_bytes());
    }

    /// Append a big-endian IEEE-754 `f32`.
    pub fn put_f32(&mut self, v: f32) {
        self.data.extend_from_slice(&v.to_be_bytes());
    }

    /// Append a slice.
    pub fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }

    /// Append `cnt` copies of `val`.
    pub fn put_bytes(&mut self, val: u8, cnt: usize) {
        self.data.resize(self.data.len() + cnt, val);
    }

    /// Append a slice (`Vec`-style alias of [`put_slice`](Self::put_slice)).
    pub fn extend_from_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }

    /// Remove and return the first `at` bytes, keeping the rest.
    ///
    /// Copies only the `at` bytes returned: the rest stay in place, and
    /// the consumed prefix is reclaimed once it is at least half of the
    /// storage. Splitting off every byte hands the storage over and
    /// leaves `self` empty.
    ///
    /// # Panics
    /// Panics if `at > len`.
    pub fn split_to(&mut self, at: usize) -> BytesMut {
        assert!(at <= self.len(), "split_to out of bounds");
        if at == self.len() {
            return std::mem::take(self);
        }
        let start = self.head;
        self.head += at;
        let prefix = BytesMut {
            data: self.data[start..self.head].to_vec(),
            head: 0,
        };
        if self.head >= self.len() {
            self.data.drain(..self.head);
            self.head = 0;
        }
        prefix
    }

    /// Turn the live bytes into an immutable [`Bytes`].
    ///
    /// Moves the storage without copying, unless its capacity is more
    /// than twice the live bytes: then the live bytes are copied once, so
    /// that a short frame does not pin a large, mostly spent allocation.
    pub fn freeze(self) -> Bytes {
        Bytes::share(self.data, self.head)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.head..]
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data[self.head..]
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BytesMut")
            .field("data", &&self[..])
            .finish()
    }
}

impl PartialEq for BytesMut {
    fn eq(&self, other: &BytesMut) -> bool {
        self[..] == other[..]
    }
}

impl Eq for BytesMut {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_share_storage_on_clone_and_slice() {
        let b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let c = b.clone();
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        assert_eq!(c, b);
        assert!(Arc::ptr_eq(b.data.as_ref().unwrap(), s.data.as_ref().unwrap()));
    }

    #[test]
    fn empty_views_allocate_nothing() {
        assert_eq!(std::mem::size_of::<Bytes>(), 16);
        let b = Bytes::from(vec![1, 2, 3]);
        let empties = [
            Bytes::new(),
            Bytes::default(),
            Bytes::copy_from_slice(&[]),
            Bytes::from(Vec::with_capacity(64)),
            BytesMut::with_capacity(64).freeze(),
            b.slice(1..1),
            b.slice(3..),
        ];
        for e in &empties {
            assert!(e.data.is_none() && e.is_empty(), "{e:?} holds storage");
            assert_eq!(e.as_slice(), &[] as &[u8]);
        }
        let storage = b.data.as_ref().unwrap();
        assert_eq!(Arc::strong_count(storage), 1, "no empty view took a reference");
    }

    #[test]
    fn freeze_moves_the_vector() {
        let mut m = BytesMut::with_capacity(100);
        m.put_bytes(7, 100);
        let storage = m.as_ptr();
        let b = m.freeze();
        assert_eq!(b.as_ptr(), storage, "freeze copied the bytes");
        // A consumed prefix stays behind the view's start offset.
        let mut m = BytesMut::with_capacity(100);
        m.put_slice(&[1u8; 100]);
        let _ = m.split_to(10);
        let live = m.as_ptr();
        let b = m.freeze();
        assert_eq!((b.as_ptr(), b.len()), (live, 90));
        let v = vec![3u8; 64];
        let storage = v.as_ptr();
        assert_eq!(Bytes::from(v).as_ptr(), storage, "From<Vec> copied the bytes");
    }

    #[test]
    fn freeze_copies_once_capacity_exceeds_twice_the_live_bytes() {
        // Exactly twice the live bytes: moved.
        let mut m = BytesMut::with_capacity(1_000);
        m.put_bytes(1, 500);
        let storage = m.as_ptr();
        assert_eq!(m.freeze().as_ptr(), storage);
        // One byte fewer: copied into an exactly sized vector.
        let mut m = BytesMut::with_capacity(1_000);
        m.put_bytes(1, 499);
        let storage = m.as_ptr();
        let b = m.freeze();
        assert_ne!(b.as_ptr(), storage);
        assert_eq!(b, vec![1u8; 499]);
        assert_eq!(b.data.as_ref().unwrap().capacity(), 499);
        // The last segment cut from a drained send queue does not pin it.
        let mut queue = BytesMut::new();
        queue.put_bytes(2, 1_000_000);
        while queue.len() > 1_400 {
            let _ = queue.split_to(1_400).freeze();
        }
        let last = queue.split_to(queue.len()).freeze();
        assert_eq!(last.len(), 1_000_000 % 1_400);
        assert_eq!(last.data.as_ref().unwrap().capacity(), last.len());
    }

    #[test]
    fn offsets_are_bounded_by_u32() {
        assert_eq!(offset(u32::MAX as usize), u32::MAX);
    }

    #[test]
    #[should_panic(expected = "exceeds the u32 view bound")]
    fn offsets_past_u32_panic() {
        let _ = offset(u32::MAX as usize + 1);
    }

    #[test]
    fn slice_forms() {
        let b = Bytes::from(vec![0, 1, 2, 3]);
        assert_eq!(&b.slice(..)[..], &[0, 1, 2, 3]);
        assert_eq!(&b.slice(2..)[..], &[2, 3]);
        assert_eq!(&b.slice(..2)[..], &[0, 1]);
        assert_eq!(&b.slice(1..=2)[..], &[1, 2]);
        let nested = b.slice(1..).slice(1..);
        assert_eq!(&nested[..], &[2, 3]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        let b = Bytes::from(vec![0, 1]);
        let _ = b.slice(..3);
    }

    #[test]
    fn put_methods_are_big_endian() {
        let mut m = BytesMut::with_capacity(16);
        m.put_u8(0xAB);
        m.put_u16(0x0102);
        m.put_u32(0x03040506);
        m.put_u64(0x0708090A0B0C0D0E);
        let b = m.freeze();
        assert_eq!(
            &b[..],
            &[0xAB, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0x0A, 0x0B, 0x0C, 0x0D, 0x0E]
        );
    }

    #[test]
    fn put_bytes_and_slices() {
        let mut m = BytesMut::new();
        m.put_slice(b"ab");
        m.extend_from_slice(b"cd");
        m.put_bytes(0xFF, 3);
        assert_eq!(&m[..], b"abcd\xff\xff\xff");
    }

    #[test]
    fn split_to_frames() {
        let mut m = BytesMut::new();
        m.put_slice(b"headbody");
        let head = m.split_to(4);
        assert_eq!(&head[..], b"head");
        assert_eq!(&m[..], b"body");
        let empty = m.split_to(0);
        assert!(empty.is_empty());
        assert_eq!(&m[..], b"body");

        // A short split leaves a consumed prefix behind the read offset;
        // writes, `DerefMut`, `freeze`, `Debug` and `==` see only the
        // live bytes.
        let mut m = BytesMut::new();
        m.put_slice(b"hdr:payload");
        assert_eq!(&m.split_to(4)[..], b"hdr:");
        m.put_slice(b"+tail");
        assert_eq!(&m[..], b"payload+tail");
        m[0] = b'P';
        assert_eq!(m.as_ref(), b"Payload+tail");
        assert_eq!(m.clone().freeze(), *b"Payload+tail");
        let mut fresh = BytesMut::new();
        fresh.put_slice(b"Payload+tail");
        assert_eq!(m, fresh);
        assert_eq!(format!("{m:?}"), format!("{fresh:?}"));
        // Splitting every live byte hands the storage over and leaves an
        // empty buffer that takes new writes.
        let live = m.as_ptr();
        let all = m.split_to(m.len());
        assert_eq!(&all[..], b"Payload+tail");
        assert_eq!(all.as_ptr(), live);
        assert!(m.is_empty());
        m.put_slice(b"again");
        assert_eq!(&m[..], b"again");
    }

    #[test]
    fn split_to_leaves_the_rest_in_place() {
        let mut m = BytesMut::new();
        m.put_bytes(7, 10_000);
        let rest = m[1_400..].as_ptr();
        let _ = m.split_to(1_400);
        assert_eq!(m.as_ptr(), rest, "split_to moved the remaining bytes");
        // The consumed prefix is reclaimed once it reaches half the storage.
        let _ = m.split_to(3_599);
        assert_eq!((m.head, m.len()), (4_999, 5_001));
        let _ = m.split_to(1);
        assert_eq!((m.head, m.data.len()), (0, 5_000));
    }

    #[test]
    fn split_to_reassembles_across_compactions() {
        let input: Vec<u8> = (0..1_000_000).map(|i| i as u8).collect();
        let mut m = BytesMut::new();
        let mut out = Vec::with_capacity(input.len());
        let mut fed = 0;
        let mut compactions = 0;
        for round in 0.. {
            // Appends average one frame per split, so the live length
            // wanders and compactions of many sizes occur.
            let chunk = (round * 7 % 2_800).min(input.len() - fed);
            m.put_slice(&input[fed..fed + chunk]);
            fed += chunk;
            if fed == input.len() && m.is_empty() {
                break;
            }
            let take = m.len().min(1_400);
            let partial = take < m.len();
            out.extend_from_slice(&m.split_to(take));
            if partial && m.head == 0 {
                compactions += 1;
            }
        }
        assert_eq!(out, input);
        assert!(compactions > 50, "only {compactions} compactions");
    }

    #[test]
    fn equality_across_types() {
        let b = Bytes::from_static(b"abc");
        assert_eq!(b, Bytes::copy_from_slice(b"abc"));
        assert_eq!(b, *b"abc");
        assert_eq!(b, b"abc"[..]);
        assert_eq!(b, b"abc".to_vec());
        assert_ne!(b, Bytes::new());
    }

    #[test]
    fn debug_is_printable() {
        let b = Bytes::from_static(b"a\"\n\x01");
        assert_eq!(format!("{b:?}"), "b\"a\\\"\\n\\x01\"");
    }
}
