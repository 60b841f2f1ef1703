//! RIPA v2 — the zero-copy artifact container.
//!
//! One file is a 32-byte header, a section table, then the section
//! payloads, each padded to a 16-byte offset so every `#[repr(C)]`
//! record array can be cast in place:
//!
//! ```text
//! offset  size  field
//!  0       4    magic  "RIPA"
//!  4       4    container version (= 2)
//!  8       4    section count            <- faultinject::header_bomb target
//! 12       4    artifact kind (scene / bvh / wide — consumer-defined)
//! 16       8    total file length (must equal the actual byte count)
//! 24       4    endianness tag 0x01020304, written native
//! 28       4    low 32 bits of FNV-1a over bytes 0..28 + section table
//! ----- section table: 32 bytes per entry -----
//!  0       4    section id (consumer-defined, unique per file)
//!  4       4    record alignment (power of two, <= BASE_ALIGN)
//!  8       8    payload offset (canonical: previous end rounded to 16)
//! 16       8    payload length in bytes
//! 24       8    striped FNV-1a 64 checksum of the payload
//!               (see `fnv1a_striped` — word-parallel, bijective per bit)
//! ```
//!
//! All multi-byte fields are **native-endian**: the payloads are cast,
//! not parsed, so a file only makes sense on the byte order that wrote
//! it, and the tag at offset 24 rejects foreign-endian files up front.
//! Layout is canonical — offsets are exactly "previous end rounded up
//! to 16", inter-section padding must be zero, and the total length
//! must match the file size — so re-encoding a decoded artifact is
//! byte-stable and any truncation, extension, or moved section fails
//! validation before a single record is trusted.
//!
//! Parsing never panics and never allocates proportionally to
//! attacker-controlled counts: the section count is bounds-checked
//! against the actual file length (`header_bomb` writes `u32::MAX`
//! there) before the table is read.

use crate::{
    fnv1a_extend, fnv1a_striped, read_unaligned, Bytes, Pod, PodSlice, BASE_ALIGN, FNV_OFFSET_BASIS,
};
use std::io::{self, Write};

/// File magic, `b"RIPA"`.
pub const MAGIC: [u8; 4] = *b"RIPA";
/// Container format version.
pub const CONTAINER_VERSION: u32 = 2;
/// Endianness tag value; a foreign-endian reader sees it byte-swapped.
pub const ENDIAN_TAG: u32 = 0x0102_0304;
/// Header size in bytes.
pub const HEADER_BYTES: usize = 32;
/// Section-table entry size in bytes.
pub const ENTRY_BYTES: usize = 32;
/// Every payload starts on a multiple of this.
pub const SECTION_ALIGN: usize = 16;
/// Hard ceiling on the section count; real artifacts use < 8.
pub const MAX_SECTIONS: u32 = 64;

fn round_up(value: usize, align: usize) -> usize {
    value.div_ceil(align) * align
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Builds a RIPA v2 file from borrowed payload slices; the bytes are
/// copied exactly once, when [`RipaWriter::write_to`] streams them out
/// (to a file, or into one buffer with [`RipaWriter::finish`]).
pub struct RipaWriter<'a> {
    kind: u32,
    sections: Vec<(u32, usize, &'a [u8])>,
}

impl<'a> RipaWriter<'a> {
    /// A writer for an artifact of `kind`.
    pub fn new(kind: u32) -> Self {
        RipaWriter {
            kind,
            sections: Vec::new(),
        }
    }

    /// Appends a typed record section; its alignment requirement is
    /// `align_of::<T>()`. Panics on a duplicate id or an alignment the
    /// container cannot guarantee — both are encoder programming
    /// errors, not data errors.
    pub fn section<T: Pod>(&mut self, id: u32, records: &'a [T]) -> &mut Self {
        self.raw_section(
            id,
            std::mem::align_of::<T>(),
            crate::bytes_of_slice(records),
        )
    }

    /// Appends a raw byte section with an explicit alignment.
    pub fn raw_section(&mut self, id: u32, align: usize, bytes: &'a [u8]) -> &mut Self {
        assert!(
            align.is_power_of_two() && align <= BASE_ALIGN,
            "section {id}: alignment {align} not representable (max {BASE_ALIGN})"
        );
        assert!(
            self.sections.iter().all(|&(sid, _, _)| sid != id),
            "duplicate section id {id}"
        );
        assert!(self.sections.len() < MAX_SECTIONS as usize);
        self.sections.push((id, align, bytes));
        self
    }

    /// Serializes header, table, and payloads into one buffer.
    pub fn finish(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.layout().1);
        self.write_to(&mut out)
            .expect("writing to a Vec cannot fail");
        out
    }

    /// Streams header, table, and payloads to `out`, in file order; the
    /// only copy of the file beyond the borrowed payloads is its header
    /// and section table.
    ///
    /// # Errors
    ///
    /// Returns the first error `out` reports.
    pub fn write_to<W: Write>(&self, out: &mut W) -> io::Result<()> {
        let (offsets, total_len) = self.layout();
        let table_end = HEADER_BYTES + self.sections.len() * ENTRY_BYTES;
        let mut head = vec![0u8; table_end];
        head[0..4].copy_from_slice(&MAGIC);
        head[4..8].copy_from_slice(&CONTAINER_VERSION.to_ne_bytes());
        head[8..12].copy_from_slice(&(self.sections.len() as u32).to_ne_bytes());
        head[12..16].copy_from_slice(&self.kind.to_ne_bytes());
        head[16..24].copy_from_slice(&(total_len as u64).to_ne_bytes());
        head[24..28].copy_from_slice(&ENDIAN_TAG.to_ne_bytes());
        for (i, (&(id, align, bytes), &offset)) in self.sections.iter().zip(&offsets).enumerate() {
            let entry = &mut head[HEADER_BYTES + i * ENTRY_BYTES..][..ENTRY_BYTES];
            entry[0..4].copy_from_slice(&id.to_ne_bytes());
            entry[4..8].copy_from_slice(&(align as u32).to_ne_bytes());
            entry[8..16].copy_from_slice(&(offset as u64).to_ne_bytes());
            entry[16..24].copy_from_slice(&(bytes.len() as u64).to_ne_bytes());
            entry[24..32].copy_from_slice(&fnv1a_striped(bytes).to_ne_bytes());
        }
        // Header + table checksum goes into 28..32 last, so it covers
        // every structural field (ids, offsets, lengths, and the
        // per-section checksums themselves).
        let digest = table_checksum(&head, table_end);
        head[28..32].copy_from_slice(&digest.to_ne_bytes());
        out.write_all(&head)?;

        let mut written = table_end;
        for (&(_, _, bytes), &offset) in self.sections.iter().zip(&offsets) {
            out.write_all(&[0u8; SECTION_ALIGN][..offset - written])?;
            out.write_all(bytes)?;
            written = offset + bytes.len();
        }
        debug_assert_eq!(written, total_len);
        Ok(())
    }

    /// Each section's payload offset, and the total file length.
    fn layout(&self) -> (Vec<usize>, usize) {
        let mut cursor = HEADER_BYTES + self.sections.len() * ENTRY_BYTES;
        let offsets = self
            .sections
            .iter()
            .map(|&(_, _, bytes)| {
                let offset = round_up(cursor, SECTION_ALIGN);
                cursor = offset + bytes.len();
                offset
            })
            .collect();
        (offsets, cursor)
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
struct Entry {
    id: u32,
    offset: usize,
    len: usize,
}

/// A parsed, fully validated RIPA v2 file over shared bytes.
///
/// Construction validates *everything* — header fields, canonical
/// section layout, zero padding, and per-section checksums — so the
/// typed accessors afterwards only re-check what the type system
/// cannot see (record size and alignment).
pub struct RipaFile {
    bytes: Bytes,
    entries: Vec<Entry>,
}

impl std::fmt::Debug for RipaFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RipaFile")
            .field("len", &self.bytes.len())
            .field("sections", &self.entries.len())
            .field("backend", &self.bytes.backend())
            .finish()
    }
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_ne_bytes(bytes[at..at + 4].try_into().expect("range checked"))
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_ne_bytes(bytes[at..at + 8].try_into().expect("range checked"))
}

/// Low 32 bits of FNV-1a over header bytes 0..28 plus the section
/// table — the structural checksum stored at header offset 28.
fn table_checksum(data: &[u8], table_end: usize) -> u32 {
    let hash = fnv1a_extend(FNV_OFFSET_BASIS, &data[..28]);
    fnv1a_extend(hash, &data[HEADER_BYTES..table_end]) as u32
}

impl RipaFile {
    /// Parses and validates `bytes` as a RIPA v2 artifact of
    /// `expected_kind`. Every failure is a diagnostic string (the cache
    /// folds it into `CacheError::Corrupt`); this never panics and
    /// never allocates from untrusted counts.
    pub fn parse(bytes: Bytes, expected_kind: u32) -> Result<RipaFile, String> {
        let data = bytes.as_slice();
        if data.len() < HEADER_BYTES {
            return Err(format!(
                "artifact is {} bytes, shorter than the {HEADER_BYTES}-byte RIPA header",
                data.len()
            ));
        }
        if data[0..4] != MAGIC {
            return Err(format!("bad magic {:02x?}, expected \"RIPA\"", &data[0..4]));
        }
        if read_u32(data, 24) != ENDIAN_TAG {
            return Err(
                "endianness tag mismatch: artifact was written on a foreign-endian \
                 machine and cannot be cast in place"
                    .to_string(),
            );
        }
        let version = read_u32(data, 4);
        if version != CONTAINER_VERSION {
            return Err(format!(
                "unsupported RIPA container version {version} (expected {CONTAINER_VERSION})"
            ));
        }
        let section_count = read_u32(data, 8);
        // The count is bounds-checked against the real file length
        // before the table is touched, so a header bomb (u32::MAX here)
        // is rejected without any allocation proportional to it.
        let table_end = HEADER_BYTES as u64 + u64::from(section_count) * ENTRY_BYTES as u64;
        if section_count > MAX_SECTIONS || table_end > data.len() as u64 {
            return Err(format!(
                "section count {section_count} does not fit a {}-byte file",
                data.len()
            ));
        }
        let kind = read_u32(data, 12);
        if kind != expected_kind {
            return Err(format!(
                "artifact kind {kind} where kind {expected_kind} was expected"
            ));
        }
        let total_len = read_u64(data, 16);
        if total_len != data.len() as u64 {
            return Err(format!(
                "declared length {total_len} != actual {} (truncated or extended artifact)",
                data.len()
            ));
        }
        if read_u32(data, 28) != table_checksum(data, table_end as usize) {
            return Err("header/table checksum mismatch".to_string());
        }

        let mut entries = Vec::with_capacity(section_count as usize);
        let mut cursor = table_end as usize;
        for i in 0..section_count as usize {
            let at = HEADER_BYTES + i * ENTRY_BYTES;
            let id = read_u32(data, at);
            let align = read_u32(data, at + 4) as usize;
            let offset = read_u64(data, at + 8);
            let len = read_u64(data, at + 16);
            let checksum = read_u64(data, at + 24);
            if !align.is_power_of_two() || align > BASE_ALIGN {
                return Err(format!("section {id}: invalid alignment {align}"));
            }
            // Canonical layout: each payload sits exactly at the
            // previous end rounded up to SECTION_ALIGN. This makes
            // encoding byte-stable and rules out overlaps and gaps.
            let expected = round_up(cursor, SECTION_ALIGN) as u64;
            if offset != expected {
                return Err(format!(
                    "section {id}: offset {offset} violates canonical layout (expected {expected})"
                ));
            }
            let end = offset
                .checked_add(len)
                .ok_or_else(|| format!("section {id}: length overflow"))?;
            if end > data.len() as u64 {
                return Err(format!(
                    "section {id}: extends to {end}, past the {}-byte file",
                    data.len()
                ));
            }
            if data[cursor..offset as usize].iter().any(|&b| b != 0) {
                return Err(format!("section {id}: nonzero padding before payload"));
            }
            if entries.iter().any(|e: &Entry| e.id == id) {
                return Err(format!("duplicate section id {id}"));
            }
            let payload = &data[offset as usize..end as usize];
            if fnv1a_striped(payload) != checksum {
                return Err(format!("section {id}: FNV checksum mismatch"));
            }
            entries.push(Entry {
                id,
                offset: offset as usize,
                len: len as usize,
            });
            cursor = end as usize;
        }
        if cursor != data.len() {
            return Err(format!(
                "{} trailing bytes after the last section",
                data.len() - cursor
            ));
        }
        Ok(RipaFile { bytes, entries })
    }

    fn entry(&self, id: u32) -> Result<Entry, String> {
        self.entries
            .iter()
            .copied()
            .find(|e| e.id == id)
            .ok_or_else(|| format!("missing section {id}"))
    }

    /// The raw payload of section `id`, as a shared view.
    pub fn section(&self, id: u32) -> Result<Bytes, String> {
        let e = self.entry(id)?;
        Ok(self.bytes.slice(e.offset, e.len))
    }

    /// Section `id` as a validated typed view over the shared bytes.
    pub fn pod_section<T: Pod>(&self, id: u32) -> Result<PodSlice<T>, String> {
        PodSlice::new(self.section(id)?).map_err(|e| format!("section {id}: {e}"))
    }

    /// Copies the single `T` record out of section `id` (for small
    /// metadata headers, where borrowing buys nothing).
    pub fn read_one<T: Pod>(&self, id: u32) -> Result<T, String> {
        let e = self.entry(id)?;
        read_unaligned::<T>(&self.bytes.as_slice()[e.offset..e.offset + e.len])
            .map_err(|err| format!("section {id}: {err}"))
    }

    /// Number of sections.
    pub fn section_count(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KIND: u32 = 7;

    fn sample() -> Vec<u8> {
        let meta = [3u32, 4];
        let floats = [1.0f32, 2.5, -3.75];
        let tail = [9u8, 8, 7, 6, 5];
        let mut w = RipaWriter::new(KIND);
        w.section(1, &meta).section(2, &floats).section(3, &tail);
        w.finish()
    }

    #[test]
    fn round_trip() {
        let encoded = sample();
        let file = RipaFile::parse(Bytes::copy_from_slice(&encoded), KIND).unwrap();
        assert_eq!(file.section_count(), 3);
        assert_eq!(file.pod_section::<u32>(1).unwrap().as_slice(), &[3, 4]);
        assert_eq!(
            file.pod_section::<f32>(2).unwrap().as_slice(),
            &[1.0, 2.5, -3.75]
        );
        assert_eq!(file.section(3).unwrap().as_slice(), &[9, 8, 7, 6, 5]);
        assert!(file.section(4).is_err());
    }

    /// Accepts at most five bytes per `write` call.
    struct Trickle(Vec<u8>);

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(5);
            self.0.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn streamed_file_equals_the_buffered_one() {
        let meta = [3u32, 4];
        let floats = [1.0f32, 2.5, -3.75];
        let tail = [9u8, 8, 7, 6, 5];
        let mut w = RipaWriter::new(KIND);
        w.section(1, &meta).section(2, &floats).section(3, &tail);
        let mut stream = Trickle(Vec::new());
        w.write_to(&mut stream).unwrap();
        let unpadded = HEADER_BYTES + 3 * ENTRY_BYTES + 8 + 12 + 5;
        assert!(stream.0.len() > unpadded, "the sample needs padding");
        assert_eq!(stream.0, w.finish());
        RipaFile::parse(Bytes::copy_from_slice(&stream.0), KIND).unwrap();
    }

    #[test]
    fn encoding_is_byte_stable() {
        assert_eq!(sample(), sample());
    }

    #[test]
    fn wrong_kind_is_rejected() {
        let encoded = sample();
        let err = RipaFile::parse(Bytes::copy_from_slice(&encoded), KIND + 1).unwrap_err();
        assert!(err.contains("kind"), "{err}");
    }

    #[test]
    fn header_bomb_is_rejected_before_allocation() {
        let mut encoded = sample();
        encoded[8..12].copy_from_slice(&u32::MAX.to_ne_bytes());
        let err = RipaFile::parse(Bytes::copy_from_slice(&encoded), KIND).unwrap_err();
        assert!(err.contains("section count"), "{err}");
    }

    #[test]
    fn every_truncation_is_rejected() {
        let encoded = sample();
        for len in 0..encoded.len() {
            let res = RipaFile::parse(Bytes::copy_from_slice(&encoded[..len]), KIND);
            assert!(res.is_err(), "truncation to {len} bytes must fail");
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut encoded = sample();
        encoded.push(0);
        let err = RipaFile::parse(Bytes::copy_from_slice(&encoded), KIND).unwrap_err();
        assert!(err.contains("length"), "{err}");
    }

    #[test]
    fn every_single_byte_flip_is_rejected_or_detected() {
        // Any one-bit change in any byte must surface as a parse error:
        // header fields are validated, layout is canonical, and the
        // payloads are checksummed, so nothing is silently accepted.
        let encoded = sample();
        for at in 0..encoded.len() {
            let mut bad = encoded.clone();
            bad[at] ^= 0x20;
            let res = RipaFile::parse(Bytes::copy_from_slice(&bad), KIND);
            assert!(res.is_err(), "flip at byte {at} went undetected");
        }
    }

    #[test]
    fn empty_sections_and_empty_files_work() {
        let mut w = RipaWriter::new(KIND);
        w.section::<u32>(1, &[]);
        let encoded = w.finish();
        let file = RipaFile::parse(Bytes::copy_from_slice(&encoded), KIND).unwrap();
        assert!(file.pod_section::<u32>(1).unwrap().is_empty());

        let none = RipaWriter::new(KIND).finish();
        let file = RipaFile::parse(Bytes::copy_from_slice(&none), KIND).unwrap();
        assert_eq!(file.section_count(), 0);
    }
}
