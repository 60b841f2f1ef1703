//! Artifact mapping: filesystem bytes → shared [`Bytes`] views.
//!
//! The cache decodes RIPA v2 artifacts *in place* (see
//! `rip_scene::serial::decode_shared` / `rip_bvh::serial::decode_shared`),
//! so the bytes backing a decoded case must stay alive and immutable for
//! the case's whole lifetime. [`MappedArtifact`] owns that guarantee
//! behind two backends:
//!
//! - **owned** (default): the file is streamed into an
//!   [`AlignedBuf`] with `read_exact`, after a
//!   length sanity check against [`MAX_ARTIFACT_BYTES`] — a corrupt
//!   or malicious length can no longer trigger a multi-gigabyte
//!   allocation before the container checksums ever run.
//! - **mmap** (the `mmap` cargo feature): the file is page-mapped
//!   read-only, so the kernel faults pages in lazily and cold-start
//!   load cost is (almost) independent of artifact size. The mapping
//!   syscalls live in `mmap_backend`, the only unsafe module in this
//!   crate; any mapping failure falls back to the owned backend, whose
//!   bytes are bit-identical.
//!
//! Failures are classified into the existing [`CacheError`] taxonomy:
//! an absent file is a plain [`CacheError::Miss`], an unreadable one is
//! [`CacheError::Io`], and an implausible length is
//! [`CacheError::Corrupt`] so the cache quarantines it like any other
//! damaged artifact.

use crate::cache::CacheError;
use rip_pod::{AlignedBuf, Bytes};
use std::io::Read;
use std::path::Path;
use std::sync::Arc;

/// Hard ceiling on a single artifact file. The largest real artifact
/// (LostEmpire at paper scale) is tens of megabytes; anything beyond
/// this is a corrupt length field or the wrong file, not data.
pub const MAX_ARTIFACT_BYTES: u64 = 1 << 30;

/// An artifact file mapped into memory as an immutable, shareable byte
/// view. Dropping the `MappedArtifact` is fine while decoded cases are
/// alive: the backing storage is reference-counted through [`Bytes`].
pub struct MappedArtifact {
    bytes: Bytes,
}

impl MappedArtifact {
    /// Maps (or reads) the artifact at `path`.
    ///
    /// With the `mmap` feature the page-mapping backend is tried first
    /// and the owned read is the fallback; without it the owned read is
    /// the only path. Both produce bit-identical bytes.
    pub fn open(path: &Path) -> Result<MappedArtifact, CacheError> {
        let file = std::fs::File::open(path).map_err(|e| classify_io(path, e))?;
        let len = file.metadata().map_err(|e| classify_io(path, e))?.len();
        if len > MAX_ARTIFACT_BYTES {
            return Err(CacheError::Corrupt {
                path: path.to_path_buf(),
                detail: format!("file is {len} bytes, past the {MAX_ARTIFACT_BYTES}-byte cap"),
            });
        }
        #[cfg(feature = "mmap")]
        if let Some(region) = mmap_backend::map(&file, len as usize) {
            return Ok(MappedArtifact {
                bytes: Bytes::new(Arc::new(region)),
            });
        }
        Self::read_owned(path, file, len as usize)
    }

    /// The owned-buffer backend: stream the file into an aligned buffer
    /// with `read_exact` (never `read_to_end`, whose growth is driven
    /// by file contents rather than the validated length).
    fn read_owned(
        path: &Path,
        mut file: std::fs::File,
        len: usize,
    ) -> Result<MappedArtifact, CacheError> {
        let mut buf = AlignedBuf::zeroed(len);
        file.read_exact(buf.as_mut_slice())
            .map_err(|e| classify_io(path, e))?;
        Ok(MappedArtifact {
            bytes: Bytes::new(Arc::new(buf)),
        })
    }

    /// The mapped bytes, shareable into decoded cases.
    pub fn bytes(&self) -> Bytes {
        self.bytes.clone()
    }

    /// File length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the file was empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Which backend holds the bytes (`"owned"` or `"mmap"`), for
    /// telemetry and the cross-backend equivalence tests.
    pub fn backend(&self) -> &'static str {
        self.bytes.backend()
    }
}

impl std::fmt::Debug for MappedArtifact {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappedArtifact")
            .field("len", &self.len())
            .field("backend", &self.backend())
            .finish()
    }
}

fn classify_io(path: &Path, e: std::io::Error) -> CacheError {
    if e.kind() == std::io::ErrorKind::NotFound {
        CacheError::Miss
    } else {
        CacheError::Io {
            path: path.to_path_buf(),
            detail: e.to_string(),
        }
    }
}

/// Read-only page mapping via direct `mmap(2)`/`munmap(2)` syscall
/// declarations (the container ships no libc crate). This is the one
/// unsafe module in `rip-exec`; everything it exposes is a safe,
/// immutable byte view whose lifetime is tied to the mapping.
#[cfg(feature = "mmap")]
mod mmap_backend {
    use std::os::fd::AsRawFd;

    const PROT_READ: i32 = 0x1;
    const MAP_PRIVATE: i32 = 0x2;

    extern "C" {
        fn mmap(
            addr: *mut core::ffi::c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut core::ffi::c_void;
        fn munmap(addr: *mut core::ffi::c_void, len: usize) -> i32;
    }

    /// An owned read-only `MAP_PRIVATE` mapping of a whole file.
    pub(super) struct MmapRegion {
        ptr: *const u8,
        len: usize,
    }

    // SAFETY: the mapping is private and read-only for its entire
    // lifetime — no writer exists, so shared references from any thread
    // are sound, exactly as for a `Vec<u8>` behind an `Arc`.
    unsafe impl Send for MmapRegion {}
    unsafe impl Sync for MmapRegion {}

    impl rip_pod::ByteSource for MmapRegion {
        fn bytes(&self) -> &[u8] {
            // SAFETY: `ptr` is a live mapping of exactly `len` readable
            // bytes, released only in `Drop`.
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }

        fn backend(&self) -> &'static str {
            "mmap"
        }
    }

    impl Drop for MmapRegion {
        fn drop(&mut self) {
            // SAFETY: `ptr`/`len` came from a successful `mmap` and are
            // unmapped exactly once.
            unsafe {
                munmap(self.ptr as *mut core::ffi::c_void, self.len);
            }
        }
    }

    /// Maps `file` read-only, or `None` when the kernel refuses (the
    /// caller falls back to the owned backend). A zero-length file is
    /// never mapped: `mmap` rejects empty ranges, and an empty owned
    /// buffer is free anyway.
    pub(super) fn map(file: &std::fs::File, len: usize) -> Option<MmapRegion> {
        if len == 0 {
            return None;
        }
        // SAFETY: the fd is valid for the duration of the call, and a
        // failed mapping returns MAP_FAILED (-1), which is checked.
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ,
                MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return None;
        }
        Some(MmapRegion {
            ptr: ptr as *const u8,
            len,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_file(tag: &str, bytes: &[u8]) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("rip-exec-artifact-{tag}-{}", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn missing_file_is_a_plain_miss() {
        let path = std::env::temp_dir().join("rip-exec-artifact-definitely-absent");
        assert_eq!(MappedArtifact::open(&path).unwrap_err(), CacheError::Miss);
    }

    #[test]
    fn mapped_bytes_match_the_file() {
        let payload: Vec<u8> = (0..=255).cycle().take(10_000).collect();
        let path = temp_file("roundtrip", &payload);
        let map = MappedArtifact::open(&path).unwrap();
        assert_eq!(map.bytes().as_slice(), &payload[..]);
        assert_eq!(map.len(), payload.len());
        // The view must survive the MappedArtifact itself.
        let view = map.bytes();
        drop(map);
        assert_eq!(view.as_slice(), &payload[..]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_file_maps_to_empty_bytes() {
        let path = temp_file("empty", &[]);
        let map = MappedArtifact::open(&path).unwrap();
        assert!(map.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[cfg(feature = "mmap")]
    #[test]
    fn mmap_backend_is_used_and_bit_identical() {
        let payload: Vec<u8> = (0..50_000u32).flat_map(|v| v.to_le_bytes()).collect();
        let path = temp_file("mmap", &payload);
        let map = MappedArtifact::open(&path).unwrap();
        assert_eq!(map.backend(), "mmap");
        assert_eq!(map.bytes().as_slice(), &payload[..]);
        let _ = std::fs::remove_file(&path);
    }
}
