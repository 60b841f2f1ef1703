//! RIPT — recorded full-traversal traces on the RIPA v2 container.
//!
//! A trace stores, for every ray of a workload, the exact node-visit
//! sequence of its **virgin full traversal** (a fresh
//! [`Traversal::new`] run from the root). That sequence is
//! configuration-independent — it depends only on the BVH and the ray —
//! so one capture serves an entire parameter sweep: the cycle-level
//! simulator replays the recorded per-warp ray work through the timing
//! model without re-traversing, and the functional simulator reads each
//! ray's recorded [`TraversalResult`] as the one full traversal it
//! derives the ray's baseline and full legs from.
//!
//! The encoding exploits two invariants of the while-while loop:
//!
//! * the triangles tested in a leaf are always a **prefix** of
//!   [`Bvh::leaf_triangles`] order (any-hit breaks after the first hit,
//!   closest-hit tests them all), so per leaf visit only a *count* is
//!   stored and the triangle indices are reconstructed from the BVH;
//! * per-step statistics follow mechanically from the node kinds
//!   (interior fetch = one node fetch + two box tests; leaf fetch = one
//!   node fetch + `count` triangle fetches/tests), so no stats stream is
//!   stored — only the per-ray stack-spill total, which the 8-entry
//!   hardware stack makes data-dependent.
//!
//! Rays themselves are *not* stored: the consumer regenerates the batch
//! deterministically and [`RayTraceSet::attach`] cross-checks an FNV-1a
//! digest of the ray stream (plus the BVH's node/triangle counts), so a
//! trace can never be silently replayed against the wrong workload.

use crate::bvh::Bvh;
use crate::node::{NodeId, NodeKind};
use crate::stream::RayBatch;
use crate::traversal::{Hit, LeanStep, Traversal, TraversalKind, TraversalResult};
use crate::TraversalStats;
use rip_pod::ripa::{RipaFile, RipaWriter};
use rip_pod::{Bytes, PodBuf};
use std::io::{self, Write};
use std::ops::Range;
use std::sync::{Mutex, OnceLock};

/// Bumped whenever the encoded layout changes; part of the trace-store
/// cache key in `rip-exec`.
pub const FORMAT_VERSION: u32 = 2;

/// RIPA artifact kind of a ray-trace set (scene = 1, BVH = 2, wide = 3).
pub const KIND_TRACE: u32 = 4;

const SEC_META: u32 = 1;
const SEC_RECORDS: u32 = 2;
const SEC_NODES: u32 = 3;
const SEC_LEAF_COUNTS: u32 = 4;

const TAG_ANY_HIT: u32 = 0;
const TAG_CLOSEST_HIT: u32 = 1;
const NO_HIT: u32 = u32::MAX;

/// Workload header, cross-checked against the section lengths on decode
/// and against the live BVH + ray batch on [`RayTraceSet::attach`].
#[repr(C)]
#[derive(Clone, Copy, Debug)]
struct TraceMeta {
    format_version: u32,
    kind_tag: u32,
    ray_count: u64,
    node_count: u32,
    tri_count: u32,
    ray_digest: u64,
    step_total: u64,
    leaf_total: u64,
}

rip_pod::impl_pod!(TraceMeta, size = 48, align = 8);

/// One ray's recorded full traversal: windows into the shared node and
/// leaf-count streams plus the final outcome.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub struct TraceRecord {
    step_offset: u64,
    leaf_offset: u64,
    step_count: u32,
    leaf_count: u32,
    hit_tri: u32,
    hit_leaf: u32,
    hit_t: f32,
    stack_spills: u32,
}

rip_pod::impl_pod!(TraceRecord, size = 40, align = 8);

/// FNV-1a digest over the raw ray stream (origin, direction, `t_min`,
/// `t_max` bit patterns in batch order) — the workload identity a trace
/// is bound to. Delegates to [`RayBatch::content_digest`], which caches
/// the pass, so attaching a trace before every replay run hashes the
/// batch once, not once per run.
pub fn ray_digest(batch: &RayBatch) -> u64 {
    batch.content_digest()
}

/// Set on a [`RecordedLegs`] step whose node is a leaf. Node indices stay
/// below it: a tree with 2³¹ nodes would need 128 GiB of node records.
pub const LEAF_STEP: u32 = 1 << 31;

/// The virgin full traversals of a contiguous range of a batch's rays,
/// recorded step by step: RIPT capture records every ray in such ranges,
/// and the cycle simulator's look-ahead thread records one warp at a
/// time.
///
/// Each step is the fetched node's index, with [`LEAF_STEP`] set on a
/// leaf, so a reader tells leaf from interior steps without fetching the
/// node. When recorded with triangles, every leaf step's tested triangle
/// indices are kept too, so a reader needs no node record at all.
#[derive(Debug)]
pub struct RecordedLegs {
    /// Per ray, with offsets local to this range.
    records: Vec<TraceRecord>,
    steps: Vec<u32>,
    leaf_counts: Vec<u32>,
    /// Per ray, the end of its window into `triangles` (empty when the
    /// triangles were not recorded).
    triangle_ends: Vec<u32>,
    triangles: Vec<u32>,
}

impl RecordedLegs {
    /// Runs the virgin full traversal of rays `rays` of `batch`, one
    /// [`Traversal`] step at a time, and records each step, each leaf
    /// visit's tested-triangle count and each outcome; with `triangles`,
    /// also the tested triangle indices.
    ///
    /// # Panics
    ///
    /// Panics when `rays` reaches past the batch.
    pub fn record(
        bvh: &Bvh,
        batch: &RayBatch,
        kind: TraversalKind,
        rays: Range<usize>,
        triangles: bool,
    ) -> RecordedLegs {
        let len = rays.len();
        // Typical AO traversals visit a few dozen nodes; reserving up front
        // keeps the growth reallocations off the recording loop.
        let mut legs = RecordedLegs {
            records: Vec::with_capacity(len),
            steps: Vec::with_capacity(len * 32),
            leaf_counts: Vec::with_capacity(len * 8),
            triangle_ends: Vec::with_capacity(if triangles { len } else { 0 }),
            triangles: Vec::with_capacity(if triangles { len * 16 } else { 0 }),
        };
        for i in rays {
            let ray = batch.ray(i);
            let step_offset = legs.steps.len() as u64;
            let leaf_offset = legs.leaf_counts.len() as u64;
            let mut traversal = Traversal::new(kind);
            loop {
                let step = if triangles {
                    traversal.step(bvh, &ray, &mut legs.triangles)
                } else {
                    traversal.step_lean(bvh, &ray)
                };
                match step {
                    LeanStep::Interior { node, .. } => legs.steps.push(node.index()),
                    LeanStep::Leaf {
                        node, tris_tested, ..
                    } => {
                        legs.steps.push(node.index() | LEAF_STEP);
                        legs.leaf_counts.push(tris_tested);
                    }
                    LeanStep::Finished => break,
                }
            }
            if triangles {
                legs.triangle_ends.push(legs.triangles.len() as u32);
            }
            let hit = traversal.best_hit();
            legs.records.push(TraceRecord {
                step_offset,
                leaf_offset,
                step_count: (legs.steps.len() as u64 - step_offset) as u32,
                leaf_count: (legs.leaf_counts.len() as u64 - leaf_offset) as u32,
                hit_tri: hit.map_or(NO_HIT, |h| h.tri_index),
                hit_leaf: hit.map_or(NO_HIT, |h| h.leaf.index()),
                hit_t: hit.map_or(0.0, |h| h.t),
                stack_spills: traversal.stats().stack_spills as u32,
            });
        }
        legs
    }

    /// The steps of the `i`-th recorded ray: node indices, leaves flagged
    /// with [`LEAF_STEP`].
    pub fn steps(&self, i: usize) -> &[u32] {
        self.records[i].steps(&self.steps)
    }

    /// The tested-triangle count of each leaf visit of the `i`-th ray.
    pub fn leaf_counts(&self, i: usize) -> &[u32] {
        self.records[i].leaf_counts(&self.leaf_counts)
    }

    /// The tested triangle indices of the `i`-th ray, leaf visit after
    /// leaf visit; empty unless recorded with triangles.
    pub fn triangles(&self, i: usize) -> &[u32] {
        let Some(&end) = self.triangle_ends.get(i) else {
            return &[];
        };
        let start = if i == 0 { 0 } else { self.triangle_ends[i - 1] };
        &self.triangles[start as usize..end as usize]
    }

    /// The `i`-th ray's intersection.
    pub fn hit(&self, i: usize) -> Option<Hit> {
        self.records[i].hit()
    }

    /// The stack spills of the `i`-th ray's traversal.
    pub fn stack_spills(&self, i: usize) -> u64 {
        u64::from(self.records[i].stack_spills)
    }
}

impl TraceRecord {
    fn steps<'s>(&self, stream: &'s [u32]) -> &'s [u32] {
        &stream[self.step_offset as usize..(self.step_offset + u64::from(self.step_count)) as usize]
    }

    fn leaf_counts<'s>(&self, stream: &'s [u32]) -> &'s [u32] {
        &stream[self.leaf_offset as usize..(self.leaf_offset + u64::from(self.leaf_count)) as usize]
    }

    fn hit(&self) -> Option<Hit> {
        (self.hit_tri != NO_HIT).then(|| Hit {
            t: self.hit_t,
            tri_index: self.hit_tri,
            leaf: NodeId::new(self.hit_leaf),
        })
    }
}

/// A captured (or decoded) set of full-traversal traces, one per ray of
/// a workload, in batch order.
#[derive(Debug)]
pub struct RayTraceSet {
    meta: TraceMeta,
    records: PodBuf<TraceRecord>,
    nodes: PodBuf<u32>,
    leaf_counts: PodBuf<u32>,
    /// Lazily materialized [`RayTraceSet::full_result`] per ray: every
    /// replayed run consults each ray's recorded outcome once (fallback
    /// kernels and baselines alike), so after the first run over a trace
    /// the reconstruction work is a table lookup.
    full_results: OnceLock<Vec<TraversalResult>>,
    /// One-slot-per-ray memo of predicted-probe evaluations — see
    /// [`RayTraceSet::probe_cached`].
    probe_memo: Mutex<Vec<Option<(NodeId, TraversalResult)>>>,
    /// Set once the records are known to fit the BVH they replay on: at
    /// capture (they were recorded from it) or by a decoded set's first
    /// successful [`RayTraceSet::attach`]. Like the two memos above, it
    /// assumes a set replays against one BVH, so the per-step check runs
    /// once per set rather than once per simulated configuration.
    records_fit: OnceLock<()>,
}

impl RayTraceSet {
    /// Runs every ray's virgin full traversal and records it.
    ///
    /// Leaf visits are stored as bare counts: the leaf arm of
    /// [`Traversal`] always tests a *prefix* of the leaf's triangle order
    /// (any-hit early-out is the only way to stop short), so the count
    /// alone reconstructs the tested indices.
    /// A replayer rebuilds them from `Bvh::leaf_triangles`, and the
    /// capture/replay round-trip tests pin the equivalence.
    pub fn capture(bvh: &Bvh, batch: &RayBatch, kind: TraversalKind) -> RayTraceSet {
        Self::capture_parallel(bvh, batch, kind, 1)
    }

    /// [`RayTraceSet::capture`] with the per-ray traversals sharded over
    /// `threads` contiguous ray ranges. Rays are independent and chunks
    /// are stitched back in ray-index order, so the result is
    /// **byte-identical** to a sequential capture at every thread count
    /// (the determinism suite pins this).
    pub fn capture_parallel(
        bvh: &Bvh,
        batch: &RayBatch,
        kind: TraversalKind,
        threads: usize,
    ) -> RayTraceSet {
        let threads = threads.clamp(1, batch.len().max(1));
        let chunk_len = batch.len().div_ceil(threads);
        let record = |rays| RecordedLegs::record(bvh, batch, kind, rays, false);
        let chunks: Vec<RecordedLegs> = if threads == 1 {
            vec![record(0..batch.len())]
        } else {
            std::thread::scope(|scope| {
                let record = &record;
                let handles: Vec<_> = (0..threads)
                    .map(|t| {
                        // Both bounds are clamped: with a chunk length of
                        // ceil(len / threads), trailing shards can start
                        // past the batch and must degenerate to empty
                        // ranges rather than underflow.
                        let start = (t * chunk_len).min(batch.len());
                        let end = (start + chunk_len).min(batch.len());
                        scope.spawn(move || record(start..end))
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            })
        };

        let mut records = Vec::with_capacity(chunks.iter().map(|c| c.records.len()).sum::<usize>());
        let mut nodes: Vec<u32> =
            Vec::with_capacity(chunks.iter().map(|c| c.steps.len()).sum::<usize>());
        let mut leaf_counts: Vec<u32> =
            Vec::with_capacity(chunks.iter().map(|c| c.leaf_counts.len()).sum::<usize>());
        for chunk in chunks {
            let (step_base, leaf_base) = (nodes.len() as u64, leaf_counts.len() as u64);
            records.extend(chunk.records.into_iter().map(|mut r| {
                r.step_offset += step_base;
                r.leaf_offset += leaf_base;
                r
            }));
            // The encoding stores bare node indices; replay reads the node
            // kinds from the BVH.
            nodes.extend(chunk.steps.iter().map(|&step| step & !LEAF_STEP));
            leaf_counts.extend_from_slice(&chunk.leaf_counts);
        }
        RayTraceSet {
            meta: TraceMeta {
                format_version: FORMAT_VERSION,
                kind_tag: match kind {
                    TraversalKind::AnyHit => TAG_ANY_HIT,
                    TraversalKind::ClosestHit => TAG_CLOSEST_HIT,
                },
                ray_count: batch.len() as u64,
                node_count: bvh.node_count() as u32,
                tri_count: bvh.triangle_count() as u32,
                ray_digest: ray_digest(batch),
                step_total: nodes.len() as u64,
                leaf_total: leaf_counts.len() as u64,
            },
            records: records.into(),
            nodes: nodes.into(),
            leaf_counts: leaf_counts.into(),
            full_results: OnceLock::new(),
            probe_memo: Mutex::new(Vec::new()),
            records_fit: OnceLock::from(()),
        }
    }

    /// Serializes into a self-contained RIPA v2 buffer. Re-encoding a
    /// decoded set is byte-identical (canonical section layout).
    pub fn encode(&self) -> Vec<u8> {
        self.with_writer(|w| w.finish())
    }

    /// Streams the [`RayTraceSet::encode`] bytes to `out` straight from
    /// the set's sections, without building the file in memory.
    ///
    /// # Errors
    ///
    /// Returns the first error `out` reports.
    pub fn write_to<W: Write>(&self, out: &mut W) -> io::Result<()> {
        self.with_writer(|w| w.write_to(out))
    }

    /// Calls `f` with the artifact writer of this set.
    fn with_writer<R>(&self, f: impl FnOnce(&RipaWriter) -> R) -> R {
        let mut w = RipaWriter::new(KIND_TRACE);
        w.section(SEC_META, std::slice::from_ref(&self.meta))
            .section(SEC_RECORDS, self.records.as_slice())
            .section(SEC_NODES, self.nodes.as_slice())
            .section(SEC_LEAF_COUNTS, self.leaf_counts.as_slice());
        f(&w)
    }

    /// Decodes a RIPA v2 trace artifact **in place**: the record and
    /// stream sections are borrowed out of `bytes` (owned aligned buffer
    /// or page mapping alike). Any structural problem is an `Err` so the
    /// trace store can quarantine the file and recapture.
    pub fn decode_shared(bytes: Bytes) -> Result<RayTraceSet, String> {
        let file = RipaFile::parse(bytes, KIND_TRACE)?;
        let meta: TraceMeta = file.read_one(SEC_META)?;
        if meta.format_version != FORMAT_VERSION {
            return Err(format!(
                "trace format version {} (expected {FORMAT_VERSION})",
                meta.format_version
            ));
        }
        if meta.kind_tag != TAG_ANY_HIT && meta.kind_tag != TAG_CLOSEST_HIT {
            return Err(format!("unknown traversal-kind tag {}", meta.kind_tag));
        }
        let records = file.pod_section::<TraceRecord>(SEC_RECORDS)?;
        let nodes = file.pod_section::<u32>(SEC_NODES)?;
        let leaf_counts = file.pod_section::<u32>(SEC_LEAF_COUNTS)?;
        if records.len() as u64 != meta.ray_count
            || nodes.len() as u64 != meta.step_total
            || leaf_counts.len() as u64 != meta.leaf_total
        {
            return Err(format!(
                "meta promises {}/{}/{} records/steps/leaves but sections hold {}/{}/{}",
                meta.ray_count,
                meta.step_total,
                meta.leaf_total,
                records.len(),
                nodes.len(),
                leaf_counts.len()
            ));
        }
        // The per-ray windows must tile both streams exactly, in order.
        let (mut step_cursor, mut leaf_cursor) = (0u64, 0u64);
        for (i, r) in records.as_slice().iter().enumerate() {
            if r.step_offset != step_cursor || r.leaf_offset != leaf_cursor {
                return Err(format!("record {i}: stream windows are not contiguous"));
            }
            if r.leaf_count > r.step_count {
                return Err(format!(
                    "record {i}: {} leaf visits in {} steps",
                    r.leaf_count, r.step_count
                ));
            }
            let in_range = |v: u32, bound: u32| v == NO_HIT || v < bound;
            if !in_range(r.hit_tri, meta.tri_count)
                || !in_range(r.hit_leaf, meta.node_count)
                || (r.hit_tri == NO_HIT) != (r.hit_leaf == NO_HIT)
            {
                return Err(format!("record {i}: inconsistent hit encoding"));
            }
            step_cursor += u64::from(r.step_count);
            leaf_cursor += u64::from(r.leaf_count);
        }
        if step_cursor != meta.step_total || leaf_cursor != meta.leaf_total {
            return Err(format!(
                "records cover {step_cursor}/{leaf_cursor} steps/leaves of {}/{}",
                meta.step_total, meta.leaf_total
            ));
        }
        if nodes.as_slice().iter().any(|&n| n >= meta.node_count) {
            return Err("node stream references a node out of range".into());
        }
        Ok(RayTraceSet {
            meta,
            records: records.into(),
            nodes: nodes.into(),
            leaf_counts: leaf_counts.into(),
            full_results: OnceLock::new(),
            probe_memo: Mutex::new(Vec::new()),
            records_fit: OnceLock::new(),
        })
    }

    /// Decodes an owned buffer produced by [`RayTraceSet::encode`].
    pub fn decode(bytes: &[u8]) -> Result<RayTraceSet, String> {
        Self::decode_shared(Bytes::copy_from_slice(bytes))
    }

    /// Verifies this trace was captured against exactly this BVH and ray
    /// batch (node/triangle counts and the ray-stream digest), and that
    /// every record fits this BVH: its node window holds exactly as many
    /// leaf visits as it has leaf counts, no count exceeds its leaf's
    /// triangles, and its hit node is a leaf. The record check runs on a
    /// decoded set's first attach; a captured set fits by construction.
    /// Call once before replaying; a mismatch means the trace belongs to
    /// a different workload (or was tampered with), and replaying it
    /// could index past a record.
    pub fn attach(&self, bvh: &Bvh, batch: &RayBatch) -> Result<(), String> {
        if self.meta.node_count as usize != bvh.node_count()
            || self.meta.tri_count as usize != bvh.triangle_count()
        {
            return Err(format!(
                "trace captured against a {}-node/{}-triangle BVH, live has {}/{}",
                self.meta.node_count,
                self.meta.tri_count,
                bvh.node_count(),
                bvh.triangle_count()
            ));
        }
        if self.meta.ray_count as usize != batch.len() {
            return Err(format!(
                "trace holds {} rays, workload has {}",
                self.meta.ray_count,
                batch.len()
            ));
        }
        let digest = ray_digest(batch);
        if self.meta.ray_digest != digest {
            return Err(format!(
                "ray-stream digest {:#018x} != recorded {:#018x}",
                digest, self.meta.ray_digest
            ));
        }
        if self.records_fit.get().is_none() {
            self.check_records_fit(bvh)?;
            let _ = self.records_fit.set(());
        }
        Ok(())
    }

    /// One pass over each record's node window, pairing every leaf visit
    /// with the next recorded count (see [`RayTraceSet::attach`]).
    fn check_records_fit(&self, bvh: &Bvh) -> Result<(), String> {
        for i in 0..self.len() {
            let mut counts = self.leaf_prefix_counts(i).iter();
            for &n in self.node_steps(i) {
                if let NodeKind::Leaf { count, .. } = bvh.node(NodeId::new(n)).kind() {
                    match counts.next() {
                        Some(&tested) if tested > count => {
                            return Err(format!(
                                "record {i}: a leaf count exceeds its leaf's triangles"
                            ))
                        }
                        Some(_) => {}
                        None => {
                            return Err(format!("record {i}: more leaf visits than leaf counts"))
                        }
                    }
                }
            }
            if counts.next().is_some() {
                return Err(format!("record {i}: more leaf counts than leaf visits"));
            }
            let hit_leaf = self.record(i).hit_leaf;
            if hit_leaf != NO_HIT && !bvh.node(NodeId::new(hit_leaf)).is_leaf() {
                return Err(format!("record {i}: hit node {hit_leaf} is not a leaf"));
            }
        }
        Ok(())
    }

    /// The traversal kind this trace records.
    pub fn kind(&self) -> TraversalKind {
        if self.meta.kind_tag == TAG_ANY_HIT {
            TraversalKind::AnyHit
        } else {
            TraversalKind::ClosestHit
        }
    }

    /// Number of recorded rays.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Whether the storage borrows shared (mapped) artifact memory.
    pub fn is_shared(&self) -> bool {
        self.records.is_shared()
    }

    fn record(&self, i: usize) -> &TraceRecord {
        &self.records.as_slice()[i]
    }

    /// Recorded node-visit sequence of ray `i` (raw node indices).
    pub fn node_steps(&self, i: usize) -> &[u32] {
        self.record(i).steps(self.nodes.as_slice())
    }

    /// Recorded per-leaf-visit tested-triangle counts of ray `i`.
    pub fn leaf_prefix_counts(&self, i: usize) -> &[u32] {
        self.record(i).leaf_counts(self.leaf_counts.as_slice())
    }

    /// The recorded final intersection of ray `i`.
    pub fn hit(&self, i: usize) -> Option<Hit> {
        self.record(i).hit()
    }

    /// The recorded stack spills of ray `i`'s traversal.
    pub fn stack_spills(&self, i: usize) -> u64 {
        u64::from(self.record(i).stack_spills)
    }

    /// The full traversal's outcome for ray `i`, reconstructed without
    /// re-traversing: bit-identical to `Traversal::new(kind).run(bvh,
    /// ray)` on the captured workload.
    pub fn full_result(&self, i: usize) -> TraversalResult {
        self.full_results.get_or_init(|| {
            (0..self.len())
                .map(|i| self.reconstruct_result(i))
                .collect()
        })[i]
            .clone()
    }

    /// Memoizes a single-seed-node predicted-probe evaluation for ray
    /// `ray`: the probe is a pure function of the BVH, the ray and the
    /// seed node, and across a parameter sweep a replayed ray is almost
    /// always handed the same predicted node (training derives it from
    /// the ray's recorded hit), so runs after the first reuse the stored
    /// [`TraversalResult`] instead of re-traversing the subtree. Live
    /// runs never consult this — it exists only on the replay path, so
    /// the live baseline keeps paying (and measuring) the real probe.
    ///
    /// One slot per ray, overwritten when a run predicts a different
    /// node (rare — the seed derives from the ray's recorded hit).
    pub fn probe_cached(
        &self,
        ray: u32,
        node: NodeId,
        eval: impl FnOnce() -> TraversalResult,
    ) -> TraversalResult {
        let i = ray as usize;
        {
            let memo = self.probe_memo.lock().expect("probe memo poisoned");
            if let Some(Some((seed, result))) = memo.get(i) {
                if *seed == node {
                    return result.clone();
                }
            }
        }
        let result = eval();
        let mut memo = self.probe_memo.lock().expect("probe memo poisoned");
        if memo.is_empty() {
            memo.resize(self.len(), None);
        }
        if let Some(slot) = memo.get_mut(i) {
            *slot = Some((node, result.clone()));
        }
        result
    }

    /// Rebuilds one ray's [`TraversalResult`] from the recorded streams
    /// (the slow path behind the [`RayTraceSet::full_result`] memo).
    fn reconstruct_result(&self, i: usize) -> TraversalResult {
        let r = self.record(i);
        let interior = u64::from(r.step_count - r.leaf_count);
        let tris: u64 = self
            .leaf_prefix_counts(i)
            .iter()
            .map(|&c| u64::from(c))
            .sum();
        TraversalResult {
            hit: self.hit(i),
            stats: TraversalStats {
                interior_fetches: interior,
                leaf_fetches: u64::from(r.leaf_count),
                tri_fetches: tris,
                box_tests: 2 * interior,
                tri_tests: tris,
                stack_spills: u64::from(r.stack_spills),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rip_math::{Ray, Triangle, Vec3};

    fn occluded_scene() -> (Bvh, RayBatch) {
        let mut tris = Vec::new();
        for i in 0..8 {
            for j in 0..8 {
                let o = Vec3::new(i as f32, 0.0, j as f32);
                tris.push(Triangle::new(o, o + Vec3::X, o + Vec3::Z));
                tris.push(Triangle::new(
                    o + Vec3::X,
                    o + Vec3::X + Vec3::Z,
                    o + Vec3::Z,
                ));
            }
        }
        let bvh = Bvh::build(&tris);
        let mut batch = RayBatch::with_capacity(64);
        for i in 0..64 {
            let x = 0.3 + (i % 8) as f32 * 0.9;
            let z = 0.4 + (i / 8) as f32 * 0.9;
            let dir = if i % 5 == 0 { Vec3::Y } else { -Vec3::Y };
            batch.push(Ray::segment(Vec3::new(x, 1.5, z), dir, 4.0));
        }
        (bvh, batch)
    }

    #[test]
    fn parallel_capture_is_byte_identical_at_every_thread_count() {
        let (bvh, batch) = occluded_scene();
        for kind in [TraversalKind::AnyHit, TraversalKind::ClosestHit] {
            let sequential = RayTraceSet::capture(&bvh, &batch, kind).encode();
            // 48 threads over 64 rays makes trailing shards start past the
            // batch (ceil-sized chunks): they must be empty, not underflow.
            for threads in [2, 3, 8, 48, 64, 200] {
                let sharded = RayTraceSet::capture_parallel(&bvh, &batch, kind, threads).encode();
                assert_eq!(sequential, sharded, "threads={threads} ({kind:?})");
            }
        }
    }

    #[test]
    fn capture_matches_live_traversal_exactly() {
        let (bvh, batch) = occluded_scene();
        for kind in [TraversalKind::AnyHit, TraversalKind::ClosestHit] {
            let set = RayTraceSet::capture(&bvh, &batch, kind);
            set.attach(&bvh, &batch).unwrap();
            for i in 0..batch.len() {
                let live = Traversal::new(kind).run(&bvh, &batch.ray(i));
                assert_eq!(set.full_result(i), live, "ray {i} ({kind:?})");
            }
        }
    }

    #[test]
    fn recorded_legs_step_like_a_live_traversal() {
        let (bvh, batch) = occluded_scene();
        let legs = RecordedLegs::record(&bvh, &batch, TraversalKind::AnyHit, 0..batch.len(), true);
        let set = RayTraceSet::capture(&bvh, &batch, TraversalKind::AnyHit);
        let mut tested = Vec::new();
        for i in 0..batch.len() {
            let ray = batch.ray(i);
            let mut live = Traversal::new(TraversalKind::AnyHit);
            let (mut steps, mut leaf_counts, mut triangles) = (Vec::new(), Vec::new(), Vec::new());
            loop {
                tested.clear();
                match live.step(&bvh, &ray, &mut tested) {
                    LeanStep::Interior { node, .. } => steps.push(node.index()),
                    LeanStep::Leaf {
                        node, tris_tested, ..
                    } => {
                        steps.push(node.index() | LEAF_STEP);
                        leaf_counts.push(tris_tested);
                        triangles.extend_from_slice(&tested);
                    }
                    LeanStep::Finished => break,
                }
            }
            assert_eq!(legs.steps(i), steps, "ray {i}");
            assert_eq!(legs.leaf_counts(i), leaf_counts, "ray {i}");
            assert_eq!(legs.triangles(i), triangles, "ray {i}");
            assert_eq!(legs.hit(i), live.best_hit(), "ray {i}");
            assert_eq!(legs.stack_spills(i), live.stats().stack_spills, "ray {i}");
            // RIPT keeps the same steps, without the leaf flags.
            let bare: Vec<u32> = steps.iter().map(|s| s & !LEAF_STEP).collect();
            assert_eq!(set.node_steps(i), bare, "ray {i}");
            assert_eq!(set.leaf_prefix_counts(i), leaf_counts, "ray {i}");
        }
    }

    #[test]
    fn encode_decode_round_trips_byte_stably() {
        let (bvh, batch) = occluded_scene();
        let set = RayTraceSet::capture(&bvh, &batch, TraversalKind::AnyHit);
        let encoded = set.encode();
        let decoded = RayTraceSet::decode(&encoded).unwrap();
        assert!(decoded.is_shared());
        assert_eq!(decoded.encode(), encoded, "re-encoding must be byte-stable");
        decoded.attach(&bvh, &batch).unwrap();
        for i in 0..batch.len() {
            assert_eq!(decoded.full_result(i), set.full_result(i));
            assert_eq!(decoded.node_steps(i), set.node_steps(i));
            assert_eq!(decoded.leaf_prefix_counts(i), set.leaf_prefix_counts(i));
        }
    }

    #[test]
    fn attach_rejects_a_different_workload() {
        let (bvh, batch) = occluded_scene();
        let set = RayTraceSet::capture(&bvh, &batch, TraversalKind::AnyHit);
        let mut other = RayBatch::with_capacity(batch.len());
        for i in 0..batch.len() {
            let mut r = batch.ray(i);
            if i == 17 {
                r.t_max += 0.25;
            }
            other.push(r);
        }
        assert!(set.attach(&bvh, &other).unwrap_err().contains("digest"));
        let small = Bvh::build(&[Triangle::new(Vec3::ZERO, Vec3::X, Vec3::Y)]);
        assert!(set.attach(&small, &batch).is_err());
        let mut short = RayBatch::with_capacity(1);
        short.push(batch.ray(0));
        assert!(set.attach(&bvh, &short).unwrap_err().contains("rays"));
    }

    /// An owned, mutable copy of `set`. Tests tamper with it *before*
    /// encoding so the container checksums stay valid and the semantic
    /// validators are what must catch the damage.
    fn owned_copy(set: &RayTraceSet) -> RayTraceSet {
        RayTraceSet {
            meta: set.meta,
            records: set.records.as_slice().to_vec().into(),
            nodes: set.nodes.as_slice().to_vec().into(),
            leaf_counts: set.leaf_counts.as_slice().to_vec().into(),
            full_results: OnceLock::new(),
            probe_memo: Mutex::new(Vec::new()),
            records_fit: OnceLock::new(),
        }
    }

    #[test]
    fn attach_rejects_records_that_do_not_fit_the_bvh() {
        let (bvh, batch) = occluded_scene();
        let set = RayTraceSet::capture(&bvh, &batch, TraversalKind::AnyHit);
        let leaf = (0..bvh.node_count() as u32)
            .find(|&n| bvh.node(NodeId::new(n)).is_leaf())
            .unwrap();
        let hit_ray = (0..set.len()).find(|&i| set.hit(i).is_some()).unwrap();
        let tampered = |damage: &dyn Fn(&mut RayTraceSet)| {
            let mut bad = owned_copy(&set);
            damage(&mut bad);
            // Each damage passes decode's structural checks; only the
            // BVH can tell the record apart from a real capture.
            let decoded = RayTraceSet::decode(&bad.encode()).unwrap();
            decoded.attach(&bvh, &batch).unwrap_err()
        };
        // The last record's first step (the root) becomes a leaf: replay
        // would read one leaf count past the record's window.
        let last_step = set.nodes.len() - set.node_steps(set.len() - 1).len();
        let err = tampered(&|bad| bad.nodes.to_mut()[last_step] = leaf);
        assert!(err.contains("leaf visits"), "{err}");
        let err = tampered(&|bad| bad.leaf_counts.to_mut()[0] = 1000);
        assert!(err.contains("exceeds"), "{err}");
        let err = tampered(&|bad| bad.records.to_mut()[hit_ray].hit_leaf = NodeId::ROOT.index());
        assert!(err.contains("not a leaf"), "{err}");
    }

    #[test]
    fn decode_rejects_semantic_corruption_without_panicking() {
        let (bvh, batch) = occluded_scene();
        let set = RayTraceSet::capture(&bvh, &batch, TraversalKind::AnyHit);
        let mut bad = owned_copy(&set);
        bad.nodes.to_mut()[0] = u32::MAX - 1;
        assert!(RayTraceSet::decode(&bad.encode())
            .unwrap_err()
            .contains("out of range"));

        let mut bad_meta = set.meta;
        bad_meta.format_version += 1;
        bad.meta = bad_meta;
        let reversioned = bad;
        assert!(RayTraceSet::decode(&reversioned.encode())
            .unwrap_err()
            .contains("version"));
    }
}
