//! Plain-old-data foundation for the RIPA v2 zero-copy artifact format.
//!
//! Artifacts used to be length-prefixed streams decoded element by
//! element into fresh `Vec`s. RIPA v2 instead lays every hot array out
//! as a flat `#[repr(C)]` section that can be *cast* into a typed slice
//! after validation — whether the backing bytes live in an owned
//! aligned buffer or a page mapping. This crate is the dependency root
//! for that: it knows nothing about scenes or BVHs, only about
//!
//! * [`Pod`] — the marker trait for types whose every bit pattern is a
//!   valid value and whose layout has no padding, plus the **checked**
//!   cast helpers ([`bytes_of_slice`], [`try_cast_slice`]) that refuse
//!   misaligned or mis-sized views instead of exhibiting UB;
//! * [`Bytes`] / [`ByteSource`] / [`AlignedBuf`] — a cheaply cloneable
//!   shared view over an immutable byte region with a guaranteed base
//!   alignment, so typed casts of section payloads are always legal;
//! * [`PodSlice`] / [`PodBuf`] — a validated typed view over [`Bytes`]
//!   and a copy-on-write container (`Owned(Vec<T>)` | shared view) that
//!   lets mesh/BVH types keep their slice-based APIs while borrowing
//!   artifact memory;
//! * [`ripa`] — the container format itself (header, section table,
//!   per-section FNV checksums).
//!
//! Everything here is safe code built on three `unsafe` primitives (the
//! slice casts in [`bytes_of_slice`] and [`try_cast_slice`], and the
//! view [`PodSlice`] keeps of the latter's result) whose preconditions
//! are discharged by the `Pod` contract, explicit runtime size/alignment
//! checks, and the shared ownership of the bytes behind a view.

pub mod ripa;

use std::sync::Arc;

// ---------------------------------------------------------------------------
// Pod trait + checked casts
// ---------------------------------------------------------------------------

/// Marker for plain-old-data types that can be viewed as raw bytes and
/// reconstructed from arbitrary bytes.
///
/// # Safety
///
/// Implementors must guarantee all of:
///
/// * every bit pattern of `size_of::<Self>()` bytes is a valid value
///   (no `bool`, no enums with niches, no references/pointers);
/// * the layout is `#[repr(C)]` (or a primitive) with **no padding
///   bytes** — `size_of::<Self>()` equals the sum of the field sizes;
/// * the type has no interior mutability and no drop glue.
///
/// Use [`impl_pod!`] rather than a bare `unsafe impl`: it pins the
/// expected size and alignment in a compile-time assertion, so a field
/// edit that introduces padding fails the build instead of corrupting
/// artifacts.
pub unsafe trait Pod: Copy + 'static {}

macro_rules! impl_pod_primitive {
    ($($t:ty),* $(,)?) => {
        $(unsafe impl Pod for $t {})*
    };
}

impl_pod_primitive!(u8, i8, u16, i16, u32, i32, u64, i64, f32, f64);

// Arrays of pod are pod: no padding is ever inserted between elements.
unsafe impl<T: Pod, const N: usize> Pod for [T; N] {}

/// Implements [`Pod`] for a `#[repr(C)]` struct while pinning its exact
/// size and alignment at compile time.
///
/// ```
/// #[repr(C)]
/// #[derive(Clone, Copy)]
/// struct P { x: f32, y: f32 }
/// rip_pod::impl_pod!(P, size = 8, align = 4);
/// ```
#[macro_export]
macro_rules! impl_pod {
    ($t:ty, size = $size:expr, align = $align:expr) => {
        const _: () = {
            assert!(
                ::std::mem::size_of::<$t>() == $size,
                concat!("padding or layout drift in ", stringify!($t))
            );
            assert!(::std::mem::align_of::<$t>() == $align);
        };
        unsafe impl $crate::Pod for $t {}
    };
}

/// Why a checked cast was refused. Decoders surface this as a corrupt-
/// artifact diagnostic; it is never a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CastError {
    /// Byte length is not a multiple of the element size.
    SizeMismatch {
        /// Length of the byte region.
        len: usize,
        /// Element size it failed to divide into.
        elem: usize,
    },
    /// Base pointer is not aligned for the element type.
    Misaligned {
        /// Required alignment.
        align: usize,
    },
}

impl std::fmt::Display for CastError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CastError::SizeMismatch { len, elem } => {
                write!(
                    f,
                    "{len} bytes is not a whole number of {elem}-byte records"
                )
            }
            CastError::Misaligned { align } => {
                write!(f, "byte region is not {align}-byte aligned")
            }
        }
    }
}

impl std::error::Error for CastError {}

/// The bytes of one pod value.
pub fn bytes_of<T: Pod>(value: &T) -> &[u8] {
    bytes_of_slice(std::slice::from_ref(value))
}

/// The bytes of a pod slice.
pub fn bytes_of_slice<T: Pod>(slice: &[T]) -> &[u8] {
    let len = std::mem::size_of_val(slice);
    // SAFETY: `T: Pod` guarantees no padding (every byte of the slice is
    // initialized) and no interior mutability; u8 has alignment 1, and
    // the length in bytes is exact by construction.
    unsafe { std::slice::from_raw_parts(slice.as_ptr().cast::<u8>(), len) }
}

/// Views a byte region as a pod slice, refusing misaligned or
/// non-whole-record regions.
pub fn try_cast_slice<T: Pod>(bytes: &[u8]) -> Result<&[T], CastError> {
    let elem = std::mem::size_of::<T>();
    assert!(elem > 0, "zero-sized pod records are meaningless");
    if !bytes.len().is_multiple_of(elem) {
        return Err(CastError::SizeMismatch {
            len: bytes.len(),
            elem,
        });
    }
    let align = std::mem::align_of::<T>();
    if !(bytes.as_ptr() as usize).is_multiple_of(align) {
        return Err(CastError::Misaligned { align });
    }
    // SAFETY: the pointer is aligned for T (checked above), the length
    // is a whole number of T records (checked above), and `T: Pod`
    // makes every bit pattern a valid T. The lifetime is inherited from
    // the input borrow.
    Ok(unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<T>(), bytes.len() / elem) })
}

/// Copies one pod record out of a byte region (alignment-free: the
/// bytes are memcpy'd, not borrowed).
pub fn read_unaligned<T: Pod>(bytes: &[u8]) -> Result<T, CastError> {
    if bytes.len() != std::mem::size_of::<T>() {
        return Err(CastError::SizeMismatch {
            len: bytes.len(),
            elem: std::mem::size_of::<T>(),
        });
    }
    let mut value = std::mem::MaybeUninit::<T>::uninit();
    // SAFETY: source and destination are exactly size_of::<T>() bytes
    // and do not overlap; `T: Pod` makes any byte pattern valid.
    unsafe {
        std::ptr::copy_nonoverlapping(
            bytes.as_ptr(),
            value.as_mut_ptr().cast::<u8>(),
            std::mem::size_of::<T>(),
        );
        Ok(value.assume_init())
    }
}

// ---------------------------------------------------------------------------
// FNV-1a
// ---------------------------------------------------------------------------

/// The FNV-1a 64 offset basis (the hash of the empty string).
pub const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a over `bytes` — the header/table checksum of [`ripa`]
/// and the digest primitive shared with the snapshot machinery. Bulk
/// section payloads use [`fnv1a_striped`] instead.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET_BASIS, bytes)
}

/// Continues an FNV-1a 64 hash over more bytes, so discontiguous
/// regions (e.g. a header plus its section table) hash as one stream.
pub fn fnv1a_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Striped FNV-1a 64 — the bulk-payload checksum of [`ripa`].
///
/// Plain FNV-1a is one dependent multiply per *byte*, which caps it
/// near 0.7 GB/s and makes the checksum, not the decode, the cost of a
/// cold artifact load. This variant keeps FNV's mixing step but feeds
/// it whole 8-byte words across four independent lanes (one 32-byte
/// block per round), then folds the lane digests, the byte-wise tail,
/// and the total length into a single 64-bit result.
///
/// Detection strength for the corruption this guards against is
/// unchanged: every mixing step (`xor` then multiply by the odd FNV
/// prime) is bijective in its input, so any single-bit change in any
/// byte — block word or tail — deterministically changes the digest.
/// It is *not* byte-order-free and not FNV-compatible; it is a distinct
/// function that only [`ripa`] section checksums use.
pub fn fnv1a_striped(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    // Distinct per-lane bases, so lanes cannot be swapped undetected.
    let mut lanes = [0u64; 4];
    for (i, lane) in lanes.iter_mut().enumerate() {
        *lane = (FNV_OFFSET_BASIS ^ (i as u64 + 1)).wrapping_mul(PRIME);
    }
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (i, lane) in lanes.iter_mut().enumerate() {
            let word = u64::from_ne_bytes(block[i * 8..i * 8 + 8].try_into().expect("8-byte word"));
            *lane = (*lane ^ word).wrapping_mul(PRIME);
        }
    }
    let mut hash = FNV_OFFSET_BASIS ^ (bytes.len() as u64);
    for lane in lanes {
        hash = (hash ^ lane).wrapping_mul(PRIME);
    }
    fnv1a_extend(hash, blocks.remainder())
}

// ---------------------------------------------------------------------------
// Shared byte regions
// ---------------------------------------------------------------------------

/// An immutable byte region that can back shared [`Bytes`] views.
///
/// Implementations must return the same bytes for the lifetime of the
/// value (artifact memory is immutable once mapped or read).
pub trait ByteSource: Send + Sync {
    /// The full region.
    fn bytes(&self) -> &[u8];
    /// Diagnostic name of the backing strategy (`"owned"`, `"mmap"`).
    fn backend(&self) -> &'static str {
        "owned"
    }
}

/// The base alignment every [`ByteSource`] must provide, and therefore
/// the maximum section alignment [`ripa`] accepts. `u64`-backed owned
/// buffers and page mappings both satisfy it.
pub const BASE_ALIGN: usize = 8;

/// An owned byte buffer with a guaranteed [`BASE_ALIGN`]-byte base
/// alignment (it is backed by `Vec<u64>`), so artifact bytes read from
/// disk can be cast into `f32`/`u32` sections without a realign copy.
pub struct AlignedBuf {
    words: Vec<u64>,
    len: usize,
}

impl AlignedBuf {
    /// A zeroed buffer of `len` bytes.
    pub fn zeroed(len: usize) -> Self {
        AlignedBuf {
            words: vec![0u64; len.div_ceil(8)],
            len,
        }
    }

    /// A buffer holding a copy of `bytes`.
    pub fn copy_from(bytes: &[u8]) -> Self {
        let mut buf = AlignedBuf::zeroed(bytes.len());
        buf.as_mut_slice().copy_from_slice(bytes);
        buf
    }

    /// The buffer contents.
    pub fn as_slice(&self) -> &[u8] {
        &bytes_of_slice(&self.words)[..self.len]
    }

    /// Mutable access (used while filling the buffer from a reader).
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        let len = self.len;
        let bytes = std::mem::size_of_val(self.words.as_slice());
        // SAFETY: u64 is Pod (no padding, no niches), so its buffer may
        // be viewed as bytes mutably; the region is uniquely borrowed
        // through &mut self and `len <= bytes` by construction.
        let all =
            unsafe { std::slice::from_raw_parts_mut(self.words.as_mut_ptr().cast::<u8>(), bytes) };
        &mut all[..len]
    }

    /// Byte length.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl ByteSource for AlignedBuf {
    fn bytes(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::fmt::Debug for AlignedBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AlignedBuf")
            .field("len", &self.len)
            .finish()
    }
}

/// A cheaply cloneable view into a shared immutable byte region.
///
/// Cloning bumps an `Arc`; slicing adjusts offsets. All views keep the
/// backing [`ByteSource`] (owned buffer or page mapping) alive, which
/// is exactly the ownership story `Case` needs: the scene, the BVH and
/// every lease hold `Bytes` views into one mapping.
#[derive(Clone)]
pub struct Bytes {
    source: Arc<dyn ByteSource>,
    offset: usize,
    len: usize,
}

impl Bytes {
    /// A view covering all of `source`.
    pub fn new(source: Arc<dyn ByteSource>) -> Self {
        let len = source.bytes().len();
        Bytes {
            source,
            offset: 0,
            len,
        }
    }

    /// A view over a private aligned copy of `bytes` — the convenience
    /// constructor for in-memory decode paths and tests.
    pub fn copy_from_slice(bytes: &[u8]) -> Self {
        Bytes::new(Arc::new(AlignedBuf::copy_from(bytes)))
    }

    /// The viewed bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.source.bytes()[self.offset..self.offset + self.len]
    }

    /// A sub-view. Panics if the range is out of bounds (callers
    /// validate ranges against parsed section tables first).
    pub fn slice(&self, start: usize, len: usize) -> Bytes {
        assert!(
            start <= self.len && len <= self.len - start,
            "slice {start}+{len} out of bounds of {} bytes",
            self.len
        );
        Bytes {
            source: Arc::clone(&self.source),
            offset: self.offset + start,
            len,
        }
    }

    /// Byte length of the view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Diagnostic name of the backing strategy.
    pub fn backend(&self) -> &'static str {
        self.source.backend()
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bytes")
            .field("offset", &self.offset)
            .field("len", &self.len)
            .field("backend", &self.backend())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Typed views and copy-on-write buffers
// ---------------------------------------------------------------------------

/// A validated typed view over [`Bytes`]: alignment and whole-record
/// length were checked once at construction, and the view keeps the
/// cast's pointer and length, so element access costs what a `Vec`'s
/// does (traversal reads a loaded BVH's nodes through it).
#[derive(Clone)]
pub struct PodSlice<T: Pod> {
    /// Keeps the source `ptr` points into alive and immutable.
    _bytes: Bytes,
    ptr: *const T,
    len: usize,
}

// SAFETY: `_bytes` is an `Arc`-backed view of an immutable `ByteSource`
// (itself `Send + Sync`), and `ptr`/`len` only ever give out `&[T]`, so
// sending or sharing a view shares `&T` across threads: sound for
// `T: Sync`. Every `Pod` type is plain data without interior mutability.
unsafe impl<T: Pod + Sync> Send for PodSlice<T> {}
// SAFETY: as for `Send` above.
unsafe impl<T: Pod + Sync> Sync for PodSlice<T> {}

impl<T: Pod> PodSlice<T> {
    /// Wraps `bytes`, refusing misaligned or non-whole-record regions.
    pub fn new(bytes: Bytes) -> Result<Self, CastError> {
        let slice = try_cast_slice::<T>(bytes.as_slice())?;
        let (ptr, len) = (slice.as_ptr(), slice.len());
        Ok(PodSlice {
            _bytes: bytes,
            ptr,
            len,
        })
    }

    /// The typed elements.
    pub fn as_slice(&self) -> &[T] {
        // SAFETY: `ptr`/`len` come from a checked cast (aligned, whole
        // records, `T: Pod`) of memory the `ByteSource` behind `_bytes`
        // lent through a shared borrow. That source sits behind an `Arc`
        // this view co-owns, so it is neither dropped, moved nor mutably
        // borrowed while `self` lives, and memory lent through `&self`
        // must stay valid and unchanged while the source is only shared.
        // The returned borrow cannot outlive `self`.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Number of `T` records.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<T: Pod> std::ops::Deref for PodSlice<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Pod + std::fmt::Debug> std::fmt::Debug for PodSlice<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

/// Copy-on-write pod storage: either an owned `Vec<T>` or a shared
/// view into artifact memory.
///
/// Containers (mesh buffers, BVH triangle order, wide-node arrays)
/// store this instead of `Vec<T>`; reads go through `Deref<[T]>`
/// unchanged, and the rare mutation paths (mesh authoring, BVH refit)
/// call [`PodBuf::to_mut`], which detaches a private copy on first
/// write.
pub enum PodBuf<T: Pod> {
    /// Privately owned elements.
    Owned(Vec<T>),
    /// A view borrowing shared artifact memory.
    Shared(PodSlice<T>),
}

impl<T: Pod> PodBuf<T> {
    /// The elements as a slice, whichever representation backs them.
    pub fn as_slice(&self) -> &[T] {
        match self {
            PodBuf::Owned(v) => v,
            PodBuf::Shared(s) => s.as_slice(),
        }
    }

    /// Mutable access, detaching a private copy if the storage is
    /// shared (copy-on-write).
    pub fn to_mut(&mut self) -> &mut Vec<T> {
        if let PodBuf::Shared(s) = self {
            *self = PodBuf::Owned(s.as_slice().to_vec());
        }
        match self {
            PodBuf::Owned(v) => v,
            PodBuf::Shared(_) => unreachable!("detached above"),
        }
    }

    /// Whether the storage borrows shared artifact memory.
    pub fn is_shared(&self) -> bool {
        matches!(self, PodBuf::Shared(_))
    }
}

impl<T: Pod> std::ops::Deref for PodBuf<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Pod> From<Vec<T>> for PodBuf<T> {
    fn from(v: Vec<T>) -> Self {
        PodBuf::Owned(v)
    }
}

impl<T: Pod> From<PodSlice<T>> for PodBuf<T> {
    fn from(s: PodSlice<T>) -> Self {
        PodBuf::Shared(s)
    }
}

impl<T: Pod> Default for PodBuf<T> {
    fn default() -> Self {
        PodBuf::Owned(Vec::new())
    }
}

impl<T: Pod> Clone for PodBuf<T> {
    fn clone(&self) -> Self {
        match self {
            PodBuf::Owned(v) => PodBuf::Owned(v.clone()),
            // Cloning a shared view stays shared — it is an Arc bump,
            // not a copy; mutation still detaches via to_mut.
            PodBuf::Shared(s) => PodBuf::Shared(s.clone()),
        }
    }
}

impl<T: Pod + PartialEq> PartialEq for PodBuf<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Pod + std::fmt::Debug> std::fmt::Debug for PodBuf<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice().iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cast_round_trip() {
        let values: Vec<u32> = (0..16).collect();
        let bytes = bytes_of_slice(&values);
        assert_eq!(bytes.len(), 64);
        let back: &[u32] = try_cast_slice(bytes).unwrap();
        assert_eq!(back, values.as_slice());
    }

    #[test]
    fn cast_refuses_ragged_length() {
        let bytes = [0u8; 7];
        let err = try_cast_slice::<u32>(&bytes).unwrap_err();
        assert!(matches!(err, CastError::SizeMismatch { len: 7, elem: 4 }));
    }

    #[test]
    fn cast_refuses_misalignment() {
        let buf = AlignedBuf::copy_from(&[0u8; 16]);
        let bytes = &buf.as_slice()[1..9];
        let err = try_cast_slice::<u64>(bytes).unwrap_err();
        assert_eq!(err, CastError::Misaligned { align: 8 });
    }

    #[test]
    fn aligned_buf_is_base_aligned() {
        for len in [0usize, 1, 7, 8, 9, 4096] {
            let buf = AlignedBuf::zeroed(len);
            assert_eq!(buf.as_slice().len(), len);
            assert_eq!(buf.as_slice().as_ptr() as usize % BASE_ALIGN, 0);
        }
    }

    #[test]
    fn bytes_slicing_shares_one_source() {
        let bytes = Bytes::copy_from_slice(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let tail = bytes.slice(4, 4);
        assert_eq!(tail.as_slice(), &[5, 6, 7, 8]);
        assert_eq!(tail.slice(1, 2).as_slice(), &[6, 7]);
    }

    #[test]
    fn pod_buf_copy_on_write() {
        let bytes = Bytes::copy_from_slice(bytes_of_slice(&[1u32, 2, 3, 4]));
        let mut buf: PodBuf<u32> = PodSlice::new(bytes).unwrap().into();
        assert!(buf.is_shared());
        let snapshot = buf.clone();
        buf.to_mut().push(5);
        assert!(!buf.is_shared(), "mutation must detach a private copy");
        assert_eq!(&buf[..], &[1, 2, 3, 4, 5]);
        assert_eq!(&snapshot[..], &[1, 2, 3, 4], "clone keeps the original");
    }

    #[test]
    fn pod_slice_outlives_its_source_handle() {
        let bytes = Bytes::copy_from_slice(bytes_of_slice(&[7u32, 8, 9, 10]));
        let view = PodSlice::<u32>::new(bytes.slice(4, 8)).unwrap();
        drop(bytes);
        let clone = view.clone();
        drop(view);
        let read = std::thread::spawn(move || clone.to_vec()).join().unwrap();
        assert_eq!(read, [8, 9]);
    }

    #[test]
    fn fnv1a_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn striped_fnv_detects_every_single_bit_flip() {
        // Lengths spanning empty, tail-only, exact-block, and mixed
        // block+tail payloads; every single-bit corruption must change
        // the digest (the bijectivity argument in the doc, exercised).
        for len in [0usize, 1, 7, 8, 31, 32, 33, 64, 100] {
            let original: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(37)).collect();
            let digest = fnv1a_striped(&original);
            for at in 0..len {
                for bit in 0..8 {
                    let mut bad = original.clone();
                    bad[at] ^= 1 << bit;
                    assert_ne!(
                        fnv1a_striped(&bad),
                        digest,
                        "len {len}: flip of byte {at} bit {bit} went undetected"
                    );
                }
            }
        }
    }

    #[test]
    fn striped_fnv_distinguishes_lengths_and_lane_swaps() {
        // Trailing zeros must not alias shorter payloads…
        assert_ne!(fnv1a_striped(&[0u8; 32]), fnv1a_striped(&[0u8; 40]));
        assert_ne!(fnv1a_striped(b""), fnv1a_striped(&[0u8]));
        // …and swapping two 8-byte words across lanes must be visible.
        let mut swapped = [0u8; 32];
        swapped[..8].copy_from_slice(&7u64.to_ne_bytes());
        let mut original = [0u8; 32];
        original[8..16].copy_from_slice(&7u64.to_ne_bytes());
        assert_ne!(fnv1a_striped(&swapped), fnv1a_striped(&original));
    }
}
