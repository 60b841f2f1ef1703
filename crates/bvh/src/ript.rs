//! RIPT — recorded full-traversal traces on the RIPA v2 container.
//!
//! A trace stores, for every ray of a workload, the exact node-visit
//! sequence of its **virgin full traversal** (a fresh
//! [`Traversal::new`](crate::Traversal::new) run from the root). That sequence is
//! configuration-independent — it depends only on the BVH and the ray —
//! so one capture serves an entire parameter sweep: the cycle-level
//! simulator replays the recorded per-warp ray work through the timing
//! model without re-traversing, and the functional simulator substitutes
//! recorded [`TraversalResult`]s for its full-traversal legs.
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
use crate::kernel;
use crate::kernel::{TraversalKernel, WhileWhileKernel};
use crate::node::{NodeId, NodeKind};
use crate::stack::TraversalStack;
use crate::stream::RayBatch;
use crate::traversal::{Hit, LeanStep, TraversalKind, TraversalResult};
use crate::TraversalStats;
use rip_math::Ray;
use rip_pod::ripa::{RipaFile, RipaWriter};
use rip_pod::{Bytes, PodBuf};
use std::sync::{Arc, Mutex, OnceLock};

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

/// The capture loop: one virgin full traversal in the tight while-while
/// shape, recording each fetched node id and each leaf visit's
/// tested-triangle count. Node order, hit and stack-spill total are
/// bit-identical to a steppable [`Traversal`] run (the round-trip tests
/// pin this), but the loop carries no per-step event or allocation, so
/// capturing costs barely more than the traversal itself.
fn record_full_traversal(
    bvh: &Bvh,
    ray: &Ray,
    inv_dir: rip_math::Vec3,
    kind: TraversalKind,
    nodes: &mut Vec<u32>,
    leaf_counts: &mut Vec<u32>,
) -> (Option<Hit>, u64) {
    let mut stack = TraversalStack::new();
    let mut current = Some(NodeId::ROOT);
    let mut best: Option<Hit> = None;
    let mut stats = TraversalStats::default();
    while let Some(node_id) = current.take() {
        nodes.push(node_id.index());
        let ray_eff = kernel::effective_ray(ray, kind, best);
        match bvh.node(node_id).kind {
            NodeKind::Interior {
                left,
                right,
                left_bounds,
                right_bounds,
            } => {
                let (t_left, t_right) = kernel::fetch_interior(
                    &mut stats,
                    &left_bounds,
                    &right_bounds,
                    &ray_eff,
                    inv_dir,
                );
                match (t_left, t_right) {
                    (Some(tl), Some(tr)) => {
                        // Visit the closer child first (§2.4).
                        let (near, far) = if tl <= tr {
                            (left, right)
                        } else {
                            (right, left)
                        };
                        stack.push(far);
                        current = Some(near);
                    }
                    (Some(_), None) => current = Some(left),
                    (None, Some(_)) => current = Some(right),
                    (None, None) => current = stack.pop(),
                }
            }
            NodeKind::Leaf { .. } => {
                let before = stats.tri_tests;
                let outcome = kernel::test_leaf_triangles(
                    bvh.leaf_triangles(node_id),
                    &mut |_| node_id,
                    kind,
                    &mut best,
                    &ray_eff,
                    &mut stats,
                    None,
                );
                leaf_counts.push((stats.tri_tests - before) as u32);
                current = if outcome.terminated {
                    None // Algorithm 1 line 15
                } else {
                    stack.pop()
                };
            }
        }
    }
    (best, stack.spills())
}

/// One contiguous ray range's capture output, with chunk-local stream
/// offsets; [`RayTraceSet::capture_parallel`] rebases and concatenates
/// chunks in ray-index order.
struct CaptureChunk {
    records: Vec<TraceRecord>,
    nodes: Vec<u32>,
    leaf_counts: Vec<u32>,
}

/// Captures rays `start..end` of `batch` as a standalone chunk.
fn capture_chunk(
    bvh: &Bvh,
    batch: &RayBatch,
    kind: TraversalKind,
    start: usize,
    end: usize,
) -> CaptureChunk {
    let len = end - start;
    let mut records = Vec::with_capacity(len);
    // Typical AO traversals visit a few dozen nodes; reserving up front
    // keeps the growth reallocations off the capture loop.
    let mut nodes: Vec<u32> = Vec::with_capacity(len * 32);
    let mut leaf_counts: Vec<u32> = Vec::with_capacity(len * 8);
    for i in start..end {
        let ray = batch.ray(i);
        let step_offset = nodes.len() as u64;
        let leaf_offset = leaf_counts.len() as u64;
        let (hit, spills) = record_full_traversal(
            bvh,
            &ray,
            batch.inv_direction(i),
            kind,
            &mut nodes,
            &mut leaf_counts,
        );
        records.push(TraceRecord {
            step_offset,
            leaf_offset,
            step_count: (nodes.len() as u64 - step_offset) as u32,
            leaf_count: (leaf_counts.len() as u64 - leaf_offset) as u32,
            hit_tri: hit.map_or(NO_HIT, |h| h.tri_index),
            hit_leaf: hit.map_or(NO_HIT, |h| h.leaf.index()),
            hit_t: hit.map_or(0.0, |h| h.t),
            stack_spills: spills as u32,
        });
    }
    CaptureChunk {
        records,
        nodes,
        leaf_counts,
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
}

impl RayTraceSet {
    /// Runs every ray's virgin full traversal and records it.
    ///
    /// Leaf visits are stored as bare counts: the leaf arm of
    /// [`Traversal`](crate::Traversal) always tests a *prefix* of the
    /// leaf's triangle order (any-hit early-out is the only way to stop
    /// short), so the count alone reconstructs the tested indices.
    /// [`ReplayCursor`] rebuilds them from `Bvh::leaf_triangles`, and the
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
        let chunks: Vec<CaptureChunk> = if threads == 1 {
            vec![capture_chunk(bvh, batch, kind, 0, batch.len())]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|t| {
                        // Both bounds are clamped: with a chunk length of
                        // ceil(len / threads), trailing shards can start
                        // past the batch and must degenerate to empty
                        // ranges rather than underflow.
                        let start = (t * chunk_len).min(batch.len());
                        let end = (start + chunk_len).min(batch.len());
                        scope.spawn(move || capture_chunk(bvh, batch, kind, start, end))
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            })
        };

        let mut records = Vec::with_capacity(chunks.iter().map(|c| c.records.len()).sum::<usize>());
        let mut nodes: Vec<u32> =
            Vec::with_capacity(chunks.iter().map(|c| c.nodes.len()).sum::<usize>());
        let mut leaf_counts: Vec<u32> =
            Vec::with_capacity(chunks.iter().map(|c| c.leaf_counts.len()).sum::<usize>());
        for chunk in chunks {
            let (step_base, leaf_base) = (nodes.len() as u64, leaf_counts.len() as u64);
            records.extend(chunk.records.into_iter().map(|mut r| {
                r.step_offset += step_base;
                r.leaf_offset += leaf_base;
                r
            }));
            nodes.extend_from_slice(&chunk.nodes);
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
        }
    }

    /// Serializes into a self-contained RIPA v2 buffer. Re-encoding a
    /// decoded set is byte-identical (canonical section layout).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = RipaWriter::new(KIND_TRACE);
        w.section(SEC_META, std::slice::from_ref(&self.meta))
            .section(SEC_RECORDS, self.records.as_slice())
            .section(SEC_NODES, self.nodes.as_slice())
            .section(SEC_LEAF_COUNTS, self.leaf_counts.as_slice());
        w.finish()
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
        })
    }

    /// Decodes an owned buffer produced by [`RayTraceSet::encode`].
    pub fn decode(bytes: &[u8]) -> Result<RayTraceSet, String> {
        Self::decode_shared(Bytes::copy_from_slice(bytes))
    }

    /// Verifies this trace was captured against exactly this BVH and ray
    /// batch (node/triangle counts and the ray-stream digest). Call once
    /// before replaying; a mismatch means the trace belongs to a
    /// different workload.
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
        let r = self.record(i);
        &self.nodes.as_slice()
            [r.step_offset as usize..(r.step_offset + u64::from(r.step_count)) as usize]
    }

    /// Recorded per-leaf-visit tested-triangle counts of ray `i`.
    pub fn leaf_prefix_counts(&self, i: usize) -> &[u32] {
        let r = self.record(i);
        &self.leaf_counts.as_slice()
            [r.leaf_offset as usize..(r.leaf_offset + u64::from(r.leaf_count)) as usize]
    }

    /// The recorded final intersection of ray `i`.
    pub fn hit(&self, i: usize) -> Option<Hit> {
        let r = self.record(i);
        (r.hit_tri != NO_HIT).then(|| Hit {
            t: r.hit_t,
            tri_index: r.hit_tri,
            leaf: NodeId::new(r.hit_leaf),
        })
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

/// Steppable replay of one recorded full traversal, mirroring the
/// [`Traversal`](crate::Traversal) driving surface (`current_request` /
/// `step` / `is_done` / `best_hit` / `stats`) so the cycle-level simulator can
/// drive recorded and live rays through the same warp machinery.
///
/// The synthesized steps carry everything the timing model consumes —
/// the node id, the tested-triangle count and (appended to the caller's
/// buffer) the tested-triangle indices, reconstructed as a leaf-order
/// prefix. `child_hits` is not recorded and is reported as 0.
#[derive(Clone, Debug)]
pub struct ReplayCursor {
    set: Arc<RayTraceSet>,
    step_offset: usize,
    leaf_offset: usize,
    step_count: usize,
    pos: usize,
    leaf_pos: usize,
    hit: Option<Hit>,
    stats: TraversalStats,
}

impl ReplayCursor {
    /// A cursor over ray `i` of `set`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn new(set: Arc<RayTraceSet>, i: usize) -> ReplayCursor {
        let hit = set.hit(i);
        let r = *set.record(i);
        ReplayCursor {
            set,
            step_offset: r.step_offset as usize,
            leaf_offset: r.leaf_offset as usize,
            step_count: r.step_count as usize,
            pos: 0,
            leaf_pos: 0,
            hit,
            stats: TraversalStats {
                stack_spills: u64::from(r.stack_spills),
                ..TraversalStats::default()
            },
        }
    }

    /// The node the replayed traversal needs next, or `None` when done.
    #[inline]
    pub fn current_request(&self) -> Option<NodeId> {
        (self.pos < self.step_count)
            .then(|| NodeId::new(self.set.nodes.as_slice()[self.step_offset + self.pos]))
    }

    /// Whether the replay has consumed every recorded step.
    #[inline]
    pub fn is_done(&self) -> bool {
        self.pos >= self.step_count
    }

    /// The recorded intersection — surfaced only once the replay is
    /// done, matching the live any-hit traversal (whose best hit is set
    /// by its final leaf step).
    pub fn best_hit(&self) -> Option<Hit> {
        if !self.is_done() {
            return None;
        }
        self.hit
    }

    /// Statistics accumulated so far; includes the recorded stack-spill
    /// total (live traversals report spills-so-far, but the simulator
    /// only reads stats at leg completion).
    pub fn stats(&self) -> TraversalStats {
        self.stats
    }

    /// Consumes the next recorded step, appending a leaf's tested
    /// triangle indices to `tested` exactly as [`Traversal::step`] would.
    ///
    /// [`Traversal::step`]: crate::Traversal::step
    pub fn step(&mut self, bvh: &Bvh, tested: &mut Vec<u32>) -> LeanStep {
        if self.pos >= self.step_count {
            return LeanStep::Finished;
        }
        let node = NodeId::new(self.set.nodes.as_slice()[self.step_offset + self.pos]);
        self.pos += 1;
        match bvh.node(node).kind {
            NodeKind::Interior { .. } => {
                self.stats.interior_fetches += 1;
                self.stats.box_tests += 2;
                LeanStep::Interior {
                    node,
                    child_hits: 0,
                }
            }
            NodeKind::Leaf { .. } => {
                let count = self.set.leaf_counts.as_slice()[self.leaf_offset + self.leaf_pos];
                self.leaf_pos += 1;
                self.stats.leaf_fetches += 1;
                self.stats.tri_fetches += u64::from(count);
                self.stats.tri_tests += u64::from(count);
                tested.extend(
                    bvh.leaf_triangles(node)
                        .take(count as usize)
                        .map(|(t, _)| t),
                );
                let found = self.best_hit().filter(|h| h.leaf == node);
                LeanStep::Leaf {
                    node,
                    tris_tested: count,
                    found,
                }
            }
        }
    }
}

/// A [`TraversalKernel`] that answers one ray's **untrimmed** full
/// traversal from the recorded result and falls back to a live
/// while-while trace for anything else.
///
/// The predictor flow in `rip-core` routes exactly two query shapes
/// through its fallback kernel: the full root traversal of
/// not-predicted / mispredicted rays (the original ray — replayable) and
/// the closest-hit verified leg's *trimmed* authoritative traversal
/// (whose `t_max` depends on live predictor state — not replayable).
/// The two are distinguished by `t_max` bit equality: `Ray::trimmed`
/// takes a min, so a bit-identical `t_max` implies a bit-identical
/// traversal and the recorded result is exact.
pub struct RecordedKernel<'a> {
    bvh: &'a Bvh,
    kind: TraversalKind,
    result: TraversalResult,
    ray_t_max_bits: u32,
    live_fallbacks: u64,
}

impl<'a> RecordedKernel<'a> {
    /// A kernel replaying ray `i` of `set`, captured for `ray`.
    pub fn new(bvh: &'a Bvh, set: &RayTraceSet, i: usize, ray: &Ray) -> RecordedKernel<'a> {
        RecordedKernel {
            bvh,
            kind: set.kind(),
            result: set.full_result(i),
            ray_t_max_bits: ray.t_max.to_bits(),
            live_fallbacks: 0,
        }
    }

    /// How many queries could not be served from the record (trimmed
    /// closest-hit legs) and ran live.
    pub fn live_fallbacks(&self) -> u64 {
        self.live_fallbacks
    }
}

impl TraversalKernel for RecordedKernel<'_> {
    fn name(&self) -> String {
        "recorded".to_string()
    }

    fn trace(&mut self, ray: &Ray, kind: TraversalKind) -> TraversalResult {
        if kind == self.kind && ray.t_max.to_bits() == self.ray_t_max_bits {
            self.result.clone()
        } else {
            self.live_fallbacks += 1;
            WhileWhileKernel::new(self.bvh).trace(ray, kind)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::Traversal;
    use rip_math::{Triangle, Vec3};

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
    fn cursor_steps_like_a_live_traversal() {
        let (bvh, batch) = occluded_scene();
        let set = Arc::new(RayTraceSet::capture(&bvh, &batch, TraversalKind::AnyHit));
        let (mut live_tested, mut replay_tested) = (Vec::new(), Vec::new());
        for i in 0..batch.len() {
            let ray = batch.ray(i);
            let mut live = Traversal::new(TraversalKind::AnyHit);
            let mut cursor = ReplayCursor::new(Arc::clone(&set), i);
            loop {
                assert_eq!(cursor.current_request(), live.current_request());
                assert_eq!(cursor.is_done(), live.is_done());
                if live.is_done() {
                    break;
                }
                live_tested.clear();
                replay_tested.clear();
                let live_step = live.step(&bvh, &ray, &mut live_tested);
                let replay_step = cursor.step(&bvh, &mut replay_tested);
                // Everything the timing model consumes must agree; only
                // child_hits (unrecorded) and mid-leaf `found` hits may
                // differ.
                match (live_step, replay_step) {
                    (LeanStep::Interior { node: a, .. }, LeanStep::Interior { node: b, .. }) => {
                        assert_eq!(a, b)
                    }
                    (
                        LeanStep::Leaf {
                            node: a,
                            tris_tested: ca,
                            ..
                        },
                        LeanStep::Leaf {
                            node: b,
                            tris_tested: cb,
                            ..
                        },
                    ) => {
                        assert_eq!((a, ca), (b, cb));
                        assert_eq!(live_tested, replay_tested);
                    }
                    other => panic!("step shape diverged: {other:?}"),
                }
            }
            assert_eq!(cursor.best_hit(), live.best_hit(), "ray {i}");
            assert_eq!(cursor.stats(), live.stats(), "ray {i}");
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

    #[test]
    fn decode_rejects_semantic_corruption_without_panicking() {
        let (bvh, batch) = occluded_scene();
        let set = RayTraceSet::capture(&bvh, &batch, TraversalKind::AnyHit);
        // Tamper *before* encoding so the container checksums stay
        // valid and the semantic validators are what must catch it.
        let mut bad = RayTraceSet {
            meta: set.meta,
            records: set.records.as_slice().to_vec().into(),
            nodes: set.nodes.as_slice().to_vec().into(),
            leaf_counts: set.leaf_counts.as_slice().to_vec().into(),
            full_results: OnceLock::new(),
            probe_memo: Mutex::new(Vec::new()),
        };
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
