//! The discrete-event timing engine.
//!
//! Warps execute in SIMT lockstep through the RT unit: each iteration the
//! memory scheduler issues the next node request of every still-active ray
//! in the selected warp "in thread order" (§5.1.2), identical in-flight
//! lines are merged MSHR-style (sharing one fill without a second DRAM
//! trip), and the warp advances once the slowest request returns and the
//! pipelined intersection units finish. A warp therefore takes as long as
//! its slowest thread (§4.4) — the divergence that warp repacking removes.
//!
//! # Parallel per-SM epochs
//!
//! SMs couple only through the shared L2 and DRAM, so each SM runs as its
//! own discrete-event engine ([`SmEngine`]) and the simulation advances in
//! **epochs** of [`GpuConfig::epoch_cycles`]: within an epoch every SM
//! processes its private event heap against (a) its live private RT/L1
//! caches and (b) an epoch-frozen snapshot of the shared L2 (read with the
//! non-mutating [`Cache::probe`]) plus a private clone of the DRAM bank
//! timeline. Every request that misses the private levels is appended to a
//! per-SM log; at the epoch barrier the logs are merged in the canonical
//! `(issue time, SM id, sequence)` order and replayed through the
//! authoritative shared L2/DRAM, which alone own the shared-level
//! statistics and the bank timeline seen by the next epoch.
//!
//! Because each SM's epoch depends only on its own state and the frozen
//! snapshot, and the barrier merge is a deterministic function of the
//! per-SM logs, the report is **byte-identical at any `--jobs` count**
//! (the serial path runs the exact same code). The epoch length is a
//! timing-model parameter like any cache latency: it bounds how stale a
//! remote SM's L2 fills and bank pressure may be within an epoch, but it
//! never affects determinism or functional results.
//!
//! # Trace replay
//!
//! With [`Simulator::with_trace`], full-traversal legs (the baseline leg,
//! not-predicted rays, and misprediction recovery — all virgin root
//! traversals) are fed from a recorded [`RayTraceSet`] instead of stepping
//! the BVH, byte-identical to the live run; predicted legs (the `k·m`
//! verification work) still run live because they start from
//! predictor-supplied nodes that no trace records.

use crate::cache::{LineMap, LineSet};
use crate::rt_unit::{RayPhase, RayWork, SmState, WarpState};
use crate::{
    ActivityCounts, Cache, Dram, GpuConfig, LatencyConfig, MemoryStats, PartialWarpCollector,
    SimReport,
};
use rip_bvh::ript::RayTraceSet;
use rip_bvh::{Bvh, LeanStep, RayBatch, TraversalKind};
use rip_core::Predictor;
use rip_exec::JobPool;
use rip_math::Ray;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::{Arc, Mutex};

/// Event kinds, ordered inside the heap tuple after time.
const EV_WARP_ITER: u8 = 0;
const EV_WARP_LOOKUP: u8 = 1;
const EV_COLLECTOR: u8 = 2;

/// The cycle-level simulator (§5.1, Figure 10).
///
/// One [`Simulator::run`] call traces a full occlusion workload through the
/// configured GPU and returns cycle counts, memory statistics, prediction
/// outcomes and energy activity counts. Speedups are computed by running a
/// baseline configuration and a predictor configuration over the same rays
/// and dividing cycles.
///
/// # Examples
///
/// ```
/// use rip_bvh::Bvh;
/// use rip_gpusim::{GpuConfig, Simulator};
/// use rip_math::{Ray, Triangle, Vec3};
///
/// let bvh = Bvh::build(&[Triangle::new(Vec3::ZERO, Vec3::X, Vec3::Y)]);
/// let rays: Vec<Ray> = (0..96).map(|i| {
///     Ray::new(Vec3::new(0.2 + (i % 3) as f32 * 0.1, 0.2, -1.0), Vec3::Z)
/// }).collect();
/// let baseline = Simulator::new(GpuConfig::baseline()).run(&bvh, &rays);
/// let predicted = Simulator::new(GpuConfig::with_predictor()).run(&bvh, &rays);
/// assert_eq!(baseline.completed_rays, predicted.completed_rays);
/// ```
#[derive(Clone, Debug)]
pub struct Simulator {
    config: GpuConfig,
    obs: std::sync::Arc<rip_obs::Obs>,
    jobs: usize,
    trace: Option<Arc<RayTraceSet>>,
}

impl Simulator {
    /// Creates a simulator.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is invalid.
    pub fn new(config: GpuConfig) -> Self {
        config.validate().expect("invalid GPU configuration");
        Simulator {
            config,
            obs: std::sync::Arc::clone(rip_obs::Obs::global()),
            jobs: 1,
            trace: None,
        }
    }

    /// Routes this simulator's `gpusim.*` counters and run spans to
    /// `obs` instead of the process-wide default instance.
    pub fn with_obs(mut self, obs: std::sync::Arc<rip_obs::Obs>) -> Self {
        self.obs = obs;
        self
    }

    /// Steps SMs in parallel across up to `jobs` worker threads (drawn
    /// from the `rip-exec` process-wide budget). The report is
    /// byte-identical at any job count; `1` (the default) runs the same
    /// epoch machinery inline.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Replays recorded full traversals instead of stepping the BVH.
    ///
    /// The trace must have been captured with
    /// [`RayTraceSet::capture`] for **any-hit** over exactly the workload
    /// later passed to [`Simulator::run`] / [`Simulator::run_batch`]; a
    /// mismatched trace (wrong BVH, rays or kind) is rejected at run time
    /// — the run falls back to live traversal and increments
    /// `gpusim.trace.rejected`.
    pub fn with_trace(mut self, trace: Arc<RayTraceSet>) -> Self {
        self.trace = Some(trace);
        self
    }

    /// The configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// Simulates an occlusion (any-hit) workload to completion.
    ///
    /// Every [`SimReport`] field is mirrored into the attached
    /// [`Obs`](rip_obs::Obs) registry under `gpusim.*`
    /// ([`SimReport::mirror_into`]); the run is wrapped in a
    /// `gpusim`/`run` span when tracing is enabled.
    pub fn run(&self, bvh: &Bvh, rays: &[Ray]) -> SimReport {
        self.run_batch(bvh, &RayBatch::from_rays(rays))
    }

    /// Simulates an occlusion workload supplied as an SoA ray batch — the
    /// RT unit consumes the stream in batch order, so `run_batch(bvh,
    /// &RayBatch::from_rays(rays))` is identical to `run(bvh, rays)`.
    pub fn run_batch(&self, bvh: &Bvh, batch: &RayBatch) -> SimReport {
        let trace = self.validated_trace(bvh, batch);
        self.observe(batch.len() as u64, || {
            Engine::new(&self.config, bvh, batch.iter(), trace, self.jobs).run()
        })
    }

    /// Cross-checks the attached trace against the live workload; a
    /// mismatch is counted and the run proceeds live.
    fn validated_trace(&self, bvh: &Bvh, batch: &RayBatch) -> Option<Arc<RayTraceSet>> {
        let set = self.trace.as_ref()?;
        let problem = if set.kind() != TraversalKind::AnyHit {
            Some("closest-hit trace on an occlusion workload".to_string())
        } else {
            set.attach(bvh, batch).err()
        };
        match problem {
            None => Some(Arc::clone(set)),
            Some(_) => {
                self.obs.add("gpusim.trace.rejected", 1);
                None
            }
        }
    }

    fn observe(&self, rays: u64, run: impl FnOnce() -> SimReport) -> SimReport {
        let mut span = self.obs.span("gpusim", "run").arg_u64("rays", rays);
        let report = run();
        span.push_arg(
            "predictor",
            if self.config.predictor.is_some() {
                "on"
            } else {
                "off"
            },
        );
        drop(span);
        report.mirror_into(&self.obs);
        report
    }
}

/// One shared-level request logged during an epoch: issue time, per-SM
/// sequence number, byte address.
type LoggedRequest = (u64, u32, u64);

/// The authoritative shared memory levels, mutated only at epoch
/// barriers on the coordinating thread.
struct SharedMemory {
    l2: Cache,
    dram: Dram,
    latency: LatencyConfig,
}

impl SharedMemory {
    /// Replays one epoch's merged request log in canonical order. The
    /// shared-level statistics and the DRAM bank timeline the next epoch
    /// snapshots are produced here and only here, so they are identical
    /// no matter how many threads stepped the SMs.
    fn replay(&mut self, mut log: Vec<(u64, usize, u32, u64)>) {
        log.sort_unstable_by_key(|&(t, sm, seq, _)| (t, sm, seq));
        for (t_issue, _, _, addr) in log {
            if !self.l2.access(addr) {
                let l2_miss_time = t_issue + self.latency.l1_hit + self.latency.l2_hit;
                self.dram.access(addr, l2_miss_time);
            }
        }
    }
}

/// One SM's private discrete-event engine: its rays, warp slots,
/// predictor, collector, MSHR, RT/L1 caches and event heap.
///
/// The event loop neither allocates nor hashes per ray: rays live in a
/// dense arena addressed by SM-local index, and each warp iteration works
/// in scratch buffers that are cleared and reused.
struct SmEngine<'a> {
    config: &'a GpuConfig,
    bvh: &'a Bvh,
    /// The arena of rays this SM owns (warps never migrate between SMs),
    /// in global ray order. Warps, the pending and repacked queues and
    /// the collector all carry indices into it.
    rays: Vec<RayWork>,
    sm: SmState,
    /// Repacked warps awaiting a free slot.
    repacked_queue: VecDeque<Vec<u32>>,
    /// Pending collector-timeout event (time it was scheduled for).
    collector_event: Option<u64>,
    /// MSHR: line address → in-flight fill completion time (entries that
    /// can no longer merge are dropped at each epoch start).
    mshr: LineMap<u64>,
    rt_cache: Option<Cache>,
    l1: Cache,
    /// Lines this SM filled into the (frozen) shared L2 this epoch —
    /// treated as L2 hits by the local latency view, matching what the
    /// barrier replay will install.
    epoch_lines: LineSet,
    /// Local DRAM bank-timeline view, re-seeded from the authoritative
    /// state at each barrier; its statistics are discarded.
    local_dram: Dram,
    /// Shared-level requests issued this epoch, in issue order.
    shared_log: Vec<LoggedRequest>,
    /// Monotonic per-SM request sequence (merge tie-breaker).
    seq: u32,
    /// (time, kind, payload): payload = slot index (or 0).
    events: BinaryHeap<Reverse<(u64, u8, u32)>>,
    /// Per-SM partial report; shared-level fields are filled at merge.
    report: SimReport,
    /// Scratch: each active ray's node-data ready time, in thread order.
    node_ready: Vec<(u32, u64)>,
    /// Scratch: triangle indices one leaf step tested.
    tested: Vec<u32>,
    /// Scratch: the distinct triangle addresses one leaf step fetches.
    tri_addrs: Vec<u64>,
}

impl<'a> SmEngine<'a> {
    fn new(config: &'a GpuConfig, bvh: &'a Bvh) -> Self {
        let total_slots = config.max_warps_per_rt + config.repack.extra_warps() as usize;
        SmEngine {
            config,
            bvh,
            rays: Vec::new(),
            sm: SmState {
                slots: (0..total_slots).map(|_| None).collect(),
                pending: VecDeque::new(),
                predictor: config.predictor.map(|pc| Predictor::new(pc, bvh.bounds())),
                collector: config.repack.repacks().then(|| {
                    PartialWarpCollector::new(
                        config.collector_capacity,
                        config.warp_size,
                        config.collector_timeout,
                    )
                }),
                issue_free_at: 0,
                base_warp_limit: config.max_warps_per_rt,
            },
            repacked_queue: VecDeque::new(),
            collector_event: None,
            mshr: LineMap::default(),
            rt_cache: config.rt_cache.map(Cache::new),
            l1: Cache::new(config.l1),
            epoch_lines: LineSet::default(),
            local_dram: Dram::new(config.dram),
            shared_log: Vec::new(),
            seq: 0,
            events: BinaryHeap::new(),
            report: SimReport::default(),
            node_ready: Vec::new(),
            tested: Vec::new(),
            tri_addrs: Vec::new(),
        }
    }

    /// The warp resident in `slot`.
    fn warp_mut(&mut self, slot: usize) -> &mut WarpState {
        self.sm.slots[slot].as_mut().expect("warp present")
    }

    /// Dispatches the initial warp list (excess warps queue as pending).
    fn seed(&mut self, warps: VecDeque<Vec<u32>>) {
        for ids in warps {
            self.dispatch(ids, false, 0);
        }
    }

    /// Time of this SM's next event, if any.
    fn peek_time(&self) -> Option<u64> {
        self.events.peek().map(|Reverse((t, _, _))| *t)
    }

    /// Processes every event strictly before `epoch_end` against the
    /// frozen `shared` snapshot; returns the epoch's shared-request log.
    fn run_epoch(&mut self, epoch_end: u64, shared: &SharedMemory) -> Vec<LoggedRequest> {
        self.local_dram = shared.dram.clone();
        self.epoch_lines.clear();
        // Every later request issues at or after `issue_free_at`, so a fill
        // that completes by then can never be merged into again.
        let issue_floor = self.sm.issue_free_at;
        self.mshr.retain(|_, fill| *fill > issue_floor);
        while let Some(&Reverse((t, _, _))) = self.events.peek() {
            if t >= epoch_end {
                break;
            }
            let Reverse((now, kind, payload)) = self.events.pop().expect("peeked event");
            match kind {
                EV_WARP_ITER => self.warp_iteration(payload as usize, now, shared),
                EV_WARP_LOOKUP => self.lookup_phase(payload as usize, now),
                EV_COLLECTOR => self.collector_tick(now),
                _ => unreachable!("unknown event kind"),
            }
        }
        std::mem::take(&mut self.shared_log)
    }

    /// Places a warp into a slot (or queues it) and schedules its first
    /// event.
    fn dispatch(&mut self, ray_ids: Vec<u32>, repacked: bool, now: u64) {
        let Some(slot) = self.sm.free_slot(repacked) else {
            if repacked {
                self.repacked_queue.push_back(ray_ids);
            } else {
                self.sm.pending.push_back(ray_ids);
            }
            return;
        };
        let start = now + self.config.latency.queue;
        for &rid in &ray_ids {
            self.rays[rid as usize].slot = slot as u32;
        }
        let needs_lookup = self.config.predictor.is_some() && !repacked;
        self.sm.slots[slot] = Some(WarpState {
            active: ray_ids.len() as u32,
            rays: ray_ids,
            repacked,
        });
        let kind = if needs_lookup {
            EV_WARP_LOOKUP
        } else {
            EV_WARP_ITER
        };
        self.events.push(Reverse((start, kind, slot as u32)));
    }

    /// Handles a collector-timeout event.
    fn collector_tick(&mut self, now: u64) {
        if self.collector_event != Some(now) {
            return; // stale event
        }
        self.collector_event = None;
        let Some(collector) = self.sm.collector.as_mut() else {
            return;
        };
        if let Some(warp) = collector.take_ready(now) {
            self.dispatch_repacked(warp, now);
        }
        self.ensure_collector_event(now);
    }

    /// Dispatches a warp the collector released, counting its drain.
    fn dispatch_repacked(&mut self, warp: Vec<u32>, now: u64) {
        self.report.activity.collector_ops += warp.len() as u64;
        self.dispatch(warp, true, now);
    }

    /// Guarantees a timeout event is pending whenever the collector holds
    /// rays.
    fn ensure_collector_event(&mut self, now: u64) {
        if self.collector_event.is_some() {
            return;
        }
        if let Some(deadline) = self.sm.collector.as_ref().and_then(|c| c.deadline()) {
            let at = deadline.max(now + 1);
            self.collector_event = Some(at);
            self.events.push(Reverse((at, EV_COLLECTOR, 0)));
        }
    }

    /// All rays of a freshly dispatched warp perform their predictor table
    /// lookup through the ported lookup queue (§4.1), then repack (§4.4).
    fn lookup_phase(&mut self, slot: usize, now: u64) {
        let mut warp_rays = std::mem::take(&mut self.warp_mut(slot).rays);
        let ports = self.config.predictor_unit.ports;
        let ready = now
            + (warp_rays.len() as u64).div_ceil(ports)
            + self.config.predictor_unit.access_latency;

        let mut predicted = 0;
        {
            let predictor = self
                .sm
                .predictor
                .as_mut()
                .expect("lookup phase requires predictor");
            for &rid in &warp_rays {
                let rw = &mut self.rays[rid as usize];
                predictor.begin_ray();
                let hash = predictor.hash_ray(&rw.ray);
                let pred = predictor.lookup_hashed(hash);
                self.report.activity.predictor_lookups += 1;
                rw.apply_lookup(hash, pred);
                predicted += u32::from(rw.was_predicted);
            }
        }

        if self.config.repack.repacks() && predicted > 0 {
            // Predicted rays leave for the collector; drain full warps as
            // they form (§4.4.1 overflow handling).
            for &rid in &warp_rays {
                if !self.rays[rid as usize].was_predicted {
                    continue;
                }
                let collector = self.sm.collector.as_mut().expect("repack has collector");
                let overflow = if collector.free_slots() == 0 {
                    collector.take_ready(ready)
                } else {
                    None
                };
                collector.push(rid, ready);
                self.report.activity.collector_ops += 1;
                if let Some(w) = overflow {
                    self.dispatch_repacked(w, ready);
                }
            }
            while let Some(w) = self
                .sm
                .collector
                .as_mut()
                .filter(|c| c.len() >= self.config.warp_size)
                .and_then(|c| c.take_ready(ready))
            {
                self.dispatch_repacked(w, ready);
            }
            self.ensure_collector_event(ready);

            self.warp_mut(slot).active -= predicted;
            let rays = &self.rays;
            warp_rays.retain(|&rid| !rays[rid as usize].was_predicted);
            if warp_rays.is_empty() {
                self.retire_warp(slot, ready);
                return;
            }
        }
        self.warp_mut(slot).rays = warp_rays;
        // Without repacking, predicted and not-predicted rays stay together
        // (the "Default" configuration of Figure 15).
        self.events
            .push(Reverse((ready, EV_WARP_ITER, slot as u32)));
    }

    /// Issues one line request at `now`, merging with any in-flight fill
    /// to the same line (MSHR, §5.1.2): the merged request shares the
    /// outstanding fill instead of re-accessing DRAM, but still occupies
    /// one memory-scheduler slot ("requested from the L1 cache in thread
    /// order"). Returns the data-ready time.
    fn request_line(&mut self, addr: u64, now: u64, shared: &SharedMemory) -> u64 {
        let t_issue = now.max(self.sm.issue_free_at);
        self.sm.issue_free_at = t_issue + 1;
        self.report.activity.l1_accesses += 1;
        let line = addr / 128;
        if let Some(&fill) = self.mshr.get(&line) {
            if fill > t_issue {
                // Merged into the outstanding fill: no second DRAM trip.
                self.report.activity.mshr_merges += 1;
                return fill;
            }
        }
        let done = self.mem_access(addr, t_issue, shared);
        self.mshr.insert(line, done);
        done
    }

    /// The private-cache cascade: RT cache → L1 live; on an L1 miss the
    /// request is logged for the barrier replay (which owns all
    /// shared-level statistics) and its latency is decided against the
    /// epoch-frozen shared L2 plus this SM's own fills this epoch, with
    /// DRAM timing from the local bank-timeline view.
    fn mem_access(&mut self, addr: u64, now: u64, shared: &SharedMemory) -> u64 {
        let latency = &self.config.latency;
        if let Some(rt) = self.rt_cache.as_mut() {
            if rt.access(addr) {
                return now + latency.l1_hit; // same fast-path latency
            }
        }
        if self.l1.access(addr) {
            return now + latency.l1_hit;
        }
        self.shared_log.push((now, self.seq, addr));
        self.seq += 1;
        let l1_miss_time = now + latency.l1_hit;
        let line = addr / self.config.l2.line_bytes as u64;
        if shared.l2.probe(addr) || self.epoch_lines.contains(&line) {
            return l1_miss_time + latency.l2_hit;
        }
        self.epoch_lines.insert(line);
        let l2_miss_time = l1_miss_time + latency.l2_hit;
        self.local_dram.access(addr, l2_miss_time)
    }

    /// One SIMT warp iteration: issue every active ray's next node
    /// request in thread order, step each ray once the data returns, fetch
    /// leaf triangles, run the pipelined intersection tests, and advance
    /// the warp at the pace of its slowest thread.
    fn warp_iteration(&mut self, slot: usize, now: u64, shared: &SharedMemory) {
        let warp_rays = std::mem::take(&mut self.warp_mut(slot).rays);
        let layout = *self.bvh.layout();

        // Node request round (thread order, one issue slot each; identical
        // in-flight lines share their fill via the MSHR).
        let mut node_ready = std::mem::take(&mut self.node_ready);
        node_ready.clear();
        for &rid in &warp_rays {
            let rw = &self.rays[rid as usize];
            if !rw.is_active() {
                continue;
            }
            let node = rw
                .traversal
                .current_request()
                .expect("active ray must want a node");
            let done = self.request_line(layout.node_address(node), now, shared);
            self.report.activity.ray_buffer_accesses += 1;
            node_ready.push((rid, done));
        }
        self.warp_mut(slot).rays = warp_rays;
        if node_ready.is_empty() {
            self.node_ready = node_ready;
            self.retire_warp(slot, now);
            return;
        }

        // Functional step per ray, fetching leaf triangles once the node
        // data arrives.
        let mut data_ready = now;
        let mut tested = std::mem::take(&mut self.tested);
        let mut tri_addrs = std::mem::take(&mut self.tri_addrs);
        for &(rid, ready) in &node_ready {
            data_ready = data_ready.max(ready);
            tested.clear();
            let rw = &mut self.rays[rid as usize];
            let step = rw.traversal.step(self.bvh, &rw.ray, &mut tested);
            self.report.activity.stack_ops += 2;
            if rw.phase == RayPhase::Predicted {
                rw.prediction_fetches += 1;
            }
            match step {
                LeanStep::Interior { .. } => self.report.activity.box_tests += 2,
                LeanStep::Leaf { tris_tested, .. } => {
                    self.report.activity.tri_tests += u64::from(tris_tested);
                }
                LeanStep::Finished => {}
            }
            if rw.traversal.is_done() {
                rw.finished_stats += rw.traversal.stats();
                match rw.phase {
                    RayPhase::Predicted => {
                        if let Some(hit) = rw.traversal.best_hit() {
                            rw.was_verified = true;
                            rw.hit = Some(hit);
                            rw.phase = RayPhase::Done;
                        } else {
                            // Misprediction: restart from the root (§3).
                            rw.phase = RayPhase::Full;
                            rw.traversal = rw.fresh_full_leg();
                        }
                    }
                    RayPhase::Full => {
                        rw.hit = rw.traversal.best_hit();
                        rw.phase = RayPhase::Done;
                    }
                    RayPhase::AwaitingLookup | RayPhase::Done => unreachable!(),
                }
            }
            tri_addrs.clear();
            tri_addrs.extend(tested.iter().map(|&t| layout.tri_address(t)));
            tri_addrs.sort_unstable();
            tri_addrs.dedup();
            for &addr in &tri_addrs {
                data_ready = data_ready.max(self.request_line(addr, ready, shared));
            }
        }
        self.tested = tested;
        self.tri_addrs = tri_addrs;

        // The rays this iteration finished are the stepped ones now done.
        let next = data_ready + self.config.latency.intersection;
        let mut warp_done = false;
        for &(rid, _) in &node_ready {
            if !self.rays[rid as usize].is_active() && self.retire_ray(rid, next) {
                warp_done = true;
            }
        }
        self.node_ready = node_ready;
        if !warp_done {
            self.events.push(Reverse((next, EV_WARP_ITER, slot as u32)));
        }
    }

    /// Records a ray's final outcome, trains the predictor and updates the
    /// report; retires the warp (returning `true`) when this was its last
    /// active ray.
    fn retire_ray(&mut self, rid: u32, now: u64) -> bool {
        let rw = &self.rays[rid as usize];
        self.report.completed_rays += 1;
        self.report.cycles = self.report.cycles.max(now);
        self.report.traversal += rw.finished_stats;
        let hit = rw.hit;
        if hit.is_some() {
            self.report.hits += 1;
        }
        let stats = &mut self.report.prediction;
        stats.rays += 1;
        if hit.is_some() {
            stats.hits += 1;
        }
        if rw.was_predicted {
            stats.predicted += 1;
            stats.predicted_nodes_evaluated += rw.prediction_k as u64;
            stats.prediction_eval_fetches += rw.prediction_fetches;
            if rw.was_verified {
                stats.verified += 1;
            }
        }
        let (hash, verified, slot) = (rw.hash, rw.was_verified, rw.slot as usize);
        if let (Some(predictor), Some(hit)) = (self.sm.predictor.as_mut(), hit) {
            if verified {
                predictor.reward(hash, hit.leaf);
            }
            predictor.train(self.bvh, hash, hit.leaf);
            self.report.activity.predictor_updates += 1;
        }
        // Warp completion bookkeeping.
        let warp = self.sm.slots[slot]
            .as_mut()
            .expect("retiring ray's warp must be resident");
        warp.active -= 1;
        if warp.active == 0 {
            self.retire_warp(slot, now);
            return true;
        }
        false
    }

    /// Frees a warp slot and dispatches queued work.
    fn retire_warp(&mut self, slot: usize, now: u64) {
        let warp = self.sm.slots[slot].take().expect("warp present");
        self.report.warps_executed += 1;
        if warp.repacked {
            self.report.repacked_warps += 1;
        }
        self.report.cycles = self.report.cycles.max(now);
        // Repacked warps may use any slot; normal warps only base slots.
        loop {
            if !self.repacked_queue.is_empty() && self.sm.free_slot(true).is_some() {
                let ids = self.repacked_queue.pop_front().expect("nonempty");
                self.dispatch(ids, true, now);
                continue;
            }
            if !self.sm.pending.is_empty() && self.sm.free_slot(false).is_some() {
                let ids = self.sm.pending.pop_front().expect("nonempty");
                self.dispatch(ids, false, now);
                continue;
            }
            break;
        }
    }
}

/// The epoch coordinator: owns the per-SM engines, the authoritative
/// shared memory, and the worker pool.
struct Engine<'a> {
    config: &'a GpuConfig,
    engines: Vec<Mutex<SmEngine<'a>>>,
    shared: SharedMemory,
    pool: JobPool,
}

impl<'a> Engine<'a> {
    fn new(
        config: &'a GpuConfig,
        bvh: &'a Bvh,
        rays: impl Iterator<Item = Ray>,
        trace: Option<Arc<RayTraceSet>>,
        jobs: usize,
    ) -> Self {
        let needs_lookup = config.predictor.is_some();
        let mut engines: Vec<SmEngine<'a>> = (0..config.num_sms)
            .map(|_| SmEngine::new(config, bvh))
            .collect();

        // Chunk rays into warps and deal the warps round-robin over the
        // SMs. Warps never migrate, so each SM moves its rays into its own
        // arena, in global order, and its warps carry arena indices.
        let mut warp_lists: Vec<VecDeque<Vec<u32>>> = vec![VecDeque::new(); config.num_sms];
        for (i, ray) in rays.enumerate() {
            let sm_id = (i / config.warp_size) % config.num_sms;
            let mut rw = RayWork::new(ray, needs_lookup);
            if let Some(set) = &trace {
                rw.attach_trace(Arc::clone(set), i);
            }
            let engine = &mut engines[sm_id];
            let local = engine.rays.len() as u32;
            engine.rays.push(rw);
            let warps = &mut warp_lists[sm_id];
            if i % config.warp_size == 0 {
                warps.push_back(Vec::with_capacity(config.warp_size));
            }
            warps.back_mut().expect("warp started").push(local);
        }
        for (engine, list) in engines.iter_mut().zip(warp_lists) {
            engine.seed(list);
        }

        Engine {
            config,
            engines: engines.into_iter().map(Mutex::new).collect(),
            shared: SharedMemory {
                l2: Cache::new(config.l2),
                dram: Dram::new(config.dram),
                latency: config.latency,
            },
            pool: JobPool::new(jobs),
        }
    }

    fn run(mut self) -> SimReport {
        let indices: Vec<usize> = (0..self.engines.len()).collect();
        let epoch = self.config.epoch_cycles;
        loop {
            let t_min = self
                .engines
                .iter_mut()
                .filter_map(|e| e.get_mut().expect("sm engine lock").peek_time())
                .min();
            let Some(t_min) = t_min else { break };
            let epoch_end = t_min.saturating_add(epoch);

            let logs: Vec<Vec<LoggedRequest>> = if indices.len() == 1 || self.pool.jobs() == 1 {
                // Serial path: identical code against identical state, so
                // identical results — no threads, no pool overhead.
                let shared = &self.shared;
                self.engines
                    .iter_mut()
                    .map(|e| {
                        e.get_mut()
                            .expect("sm engine lock")
                            .run_epoch(epoch_end, shared)
                    })
                    .collect()
            } else {
                let engines = &self.engines;
                let shared = &self.shared;
                self.pool.map(&indices, |&i| {
                    engines[i]
                        .lock()
                        .expect("sm engine lock")
                        .run_epoch(epoch_end, shared)
                })
            };

            let mut merged: Vec<(u64, usize, u32, u64)> = Vec::new();
            for (sm_id, log) in logs.into_iter().enumerate() {
                merged.extend(log.into_iter().map(|(t, seq, addr)| (t, sm_id, seq, addr)));
            }
            self.shared.replay(merged);
        }

        // Deterministic merge of the per-SM partial reports.
        let mut report = SimReport::default();
        let mut rt_stats = Vec::new();
        let mut l1_stats = Vec::new();
        let mut total_rays = 0usize;
        for engine in self.engines {
            let e = engine.into_inner().expect("sm engine lock");
            let r = e.report;
            report.cycles = report.cycles.max(r.cycles);
            report.completed_rays += r.completed_rays;
            report.hits += r.hits;
            report.traversal += r.traversal;
            report.prediction += r.prediction;
            add_activity(&mut report.activity, &r.activity);
            report.warps_executed += r.warps_executed;
            report.repacked_warps += r.repacked_warps;
            if let Some(rt) = &e.rt_cache {
                rt_stats.push(rt.stats());
            }
            l1_stats.push(e.l1.stats());
            total_rays += e.rays.len();
        }
        debug_assert_eq!(report.completed_rays as usize, total_rays);
        report.memory = MemoryStats {
            rt_cache: rt_stats,
            l1: l1_stats,
            l2: self.shared.l2.stats(),
            dram: self.shared.dram.stats().clone(),
        };
        report.activity.l2_accesses = report.memory.l2.accesses;
        report.activity.dram_accesses = report.memory.dram.accesses;
        report
    }
}

/// Field-wise accumulation of per-SM activity counts (the shared-level
/// `l2_accesses`/`dram_accesses` are zero per SM and filled at merge).
fn add_activity(total: &mut ActivityCounts, part: &ActivityCounts) {
    total.l1_accesses += part.l1_accesses;
    total.l2_accesses += part.l2_accesses;
    total.dram_accesses += part.dram_accesses;
    total.box_tests += part.box_tests;
    total.tri_tests += part.tri_tests;
    total.predictor_lookups += part.predictor_lookups;
    total.predictor_updates += part.predictor_updates;
    total.ray_buffer_accesses += part.ray_buffer_accesses;
    total.stack_ops += part.stack_ops;
    total.collector_ops += part.collector_ops;
    total.mshr_merges += part.mshr_merges;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RepackMode;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use rip_math::{Triangle, Vec3};

    /// An open scene: floor tiles plus scattered occluder boxes, so a
    /// realistic fraction of AO rays miss (as in the paper's workloads).
    fn occluder_bvh() -> Bvh {
        let mut tris = Vec::new();
        for i in 0..16 {
            for j in 0..16 {
                let o = Vec3::new(i as f32, 0.0, j as f32);
                tris.push(Triangle::new(o, o + Vec3::X, o + Vec3::Z));
                tris.push(Triangle::new(
                    o + Vec3::X,
                    o + Vec3::X + Vec3::Z,
                    o + Vec3::Z,
                ));
            }
        }
        // A porous "ceiling" at y = 2: ~3/4 of cells carry a tile, the rest
        // are sky holes, so upward AO rays mostly hit but some escape.
        for i in 0..16 {
            for j in 0..16 {
                if (i * 7 + j * 5) % 4 == 0 {
                    continue; // hole
                }
                let o = Vec3::new(i as f32, 2.0, j as f32);
                tris.push(Triangle::new(o, o + Vec3::X, o + Vec3::Z));
                tris.push(Triangle::new(
                    o + Vec3::X,
                    o + Vec3::X + Vec3::Z,
                    o + Vec3::Z,
                ));
            }
        }
        Bvh::build(&tris)
    }

    /// Dense AO-like rays over a small patch so the predictor trains (the
    /// paper reaches hash-space density with 4.2M rays; tests shrink the
    /// sampled region instead).
    fn ao_rays(n: usize, seed: u64) -> Vec<Ray> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut rays = Vec::with_capacity(n);
        while rays.len() < n {
            let o = Vec3::new(
                rng.gen_range(4.0..6.0),
                rng.gen_range(0.1..0.3),
                rng.gen_range(4.0..6.0),
            );
            for _ in 0..4 {
                // Upward hemisphere: some rays hit occluders, some escape.
                let d = rip_math::sampling::cosine_hemisphere_around(Vec3::Y, rng.gen(), rng.gen());
                rays.push(Ray::segment(o, d, 8.0));
                if rays.len() == n {
                    break;
                }
            }
        }
        rays
    }

    #[test]
    fn all_rays_complete_and_hits_match_functional() {
        let bvh = occluder_bvh();
        let rays = ao_rays(512, 3);
        let report = Simulator::new(GpuConfig::baseline()).run(&bvh, &rays);
        assert_eq!(report.completed_rays, 512);
        let functional_hits = rays
            .iter()
            .filter(|r| bvh.intersect(r, TraversalKind::AnyHit).hit.is_some())
            .count() as u64;
        assert_eq!(
            report.hits, functional_hits,
            "timing sim must be functionally exact"
        );
        assert!(report.cycles > 0);
    }

    #[test]
    fn predictor_reduces_node_fetches_on_dense_ao() {
        let bvh = occluder_bvh();
        let rays = ao_rays(4096, 5);
        let base = Simulator::new(GpuConfig::baseline()).run(&bvh, &rays);
        let pred = Simulator::new(GpuConfig::with_predictor()).run(&bvh, &rays);
        assert_eq!(pred.completed_rays, base.completed_rays);
        assert_eq!(
            pred.hits, base.hits,
            "prediction must not change visibility results"
        );
        assert!(
            pred.prediction.verified_rate() > 0.1,
            "v = {}",
            pred.prediction.verified_rate()
        );
        assert!(
            pred.traversal.node_fetches() < base.traversal.node_fetches(),
            "predictor should skip node fetches: {} vs {}",
            pred.traversal.node_fetches(),
            base.traversal.node_fetches()
        );
        assert!(pred.repacked_warps > 0, "repacking should form warps");
    }

    #[test]
    fn repacking_does_not_regress_cycles() {
        let bvh = occluder_bvh();
        let rays = ao_rays(4096, 7);
        let mut no_repack_cfg = GpuConfig::with_predictor();
        no_repack_cfg.repack = RepackMode::Off;
        let no_repack = Simulator::new(no_repack_cfg).run(&bvh, &rays);
        let repack = Simulator::new(GpuConfig::with_predictor()).run(&bvh, &rays);
        assert_eq!(no_repack.repacked_warps, 0);
        assert!(
            repack.cycles <= no_repack.cycles * 11 / 10,
            "repacking should not lose badly: {} vs {}",
            repack.cycles,
            no_repack.cycles
        );
    }

    #[test]
    fn bigger_l1_is_not_slower() {
        let bvh = occluder_bvh();
        let rays = ao_rays(2048, 9);
        let small = {
            let mut c = GpuConfig::baseline();
            c.l1 = c.l1.with_size(2 * 1024);
            Simulator::new(c).run(&bvh, &rays)
        };
        let big = Simulator::new(GpuConfig::baseline()).run(&bvh, &rays);
        assert!(
            big.cycles <= small.cycles,
            "64KB L1 ({}) vs 2KB L1 ({})",
            big.cycles,
            small.cycles
        );
        assert!(big.memory.l1_combined().hit_rate() >= small.memory.l1_combined().hit_rate());
    }

    #[test]
    fn higher_intersection_latency_slows_execution() {
        let bvh = occluder_bvh();
        let rays = ao_rays(1024, 11);
        let fast = Simulator::new(GpuConfig::baseline()).run(&bvh, &rays);
        // The AO workload is memory-bound, so a small bump disappears into
        // bank-scheduling noise; 200 cycles per test puts the intersection
        // pipe firmly on the critical path.
        let slow = {
            let mut c = GpuConfig::baseline();
            c.latency.intersection = 200;
            Simulator::new(c).run(&bvh, &rays)
        };
        assert!(
            slow.cycles > fast.cycles,
            "slow {} vs fast {}",
            slow.cycles,
            fast.cycles
        );
    }

    #[test]
    fn single_sm_handles_everything() {
        let bvh = occluder_bvh();
        let rays = ao_rays(300, 13);
        let mut c = GpuConfig::baseline();
        c.num_sms = 1;
        let report = Simulator::new(c).run(&bvh, &rays);
        assert_eq!(report.completed_rays, 300);
    }

    #[test]
    fn extra_warps_mode_completes_and_tracks_warps() {
        let bvh = occluder_bvh();
        let rays = ao_rays(2048, 17);
        let mut c = GpuConfig::with_predictor();
        c.repack = RepackMode::WithExtraWarps(4);
        let report = Simulator::new(c).run(&bvh, &rays);
        assert_eq!(report.completed_rays, 2048);
        assert!(report.warps_executed >= (2048 / 32) as u64);
    }

    #[test]
    fn activity_counts_are_consistent() {
        let bvh = occluder_bvh();
        let rays = ao_rays(512, 19);
        let report = Simulator::new(GpuConfig::with_predictor()).run(&bvh, &rays);
        assert_eq!(report.activity.predictor_lookups, 512);
        assert!(report.activity.l1_accesses > 0);
        assert!(report.activity.box_tests > 0);
        assert!(report.activity.tri_tests > 0);
        assert_eq!(report.activity.l2_accesses, report.memory.l2.accesses);
        // MSHR merging means issued L1 requests never exceed total node+tri
        // fetches.
        assert!(
            report.activity.l1_accesses
                <= report.traversal.node_fetches() + report.traversal.tri_fetches
        );
    }

    #[test]
    fn mshr_merges_in_flight_duplicate_lines() {
        // 64 identical rays dispatched together: the root-node requests
        // must largely merge while the first fill is in flight.
        let bvh = occluder_bvh();
        let rays = vec![Ray::new(Vec3::new(5.0, 0.2, 5.0), Vec3::Y); 64];
        let report = Simulator::new(GpuConfig::baseline()).run(&bvh, &rays);
        assert!(
            report.activity.mshr_merges > 0,
            "identical in-flight lines must merge: {:?}",
            report.activity
        );
        // Merged fills never re-access DRAM: far fewer memory-side
        // transactions than issued requests.
        assert!(report.memory.l2.accesses < report.activity.l1_accesses);
    }

    /// Every field that `SimReport` mirrors, flattened for byte-for-byte
    /// comparison across job counts and live/replay paths.
    fn fingerprint(r: &SimReport) -> String {
        format!("{r:?}")
    }

    #[test]
    fn reports_are_identical_at_any_job_count() {
        let bvh = occluder_bvh();
        let rays = ao_rays(2048, 23);
        let mut c = GpuConfig::with_predictor();
        c.num_sms = 4;
        let serial = Simulator::new(c.clone()).run(&bvh, &rays);
        for jobs in [2, 4, 8] {
            let parallel = Simulator::new(c.clone()).with_jobs(jobs).run(&bvh, &rays);
            assert_eq!(
                fingerprint(&serial),
                fingerprint(&parallel),
                "report diverged at --jobs {jobs}"
            );
        }
    }

    #[test]
    fn replay_is_byte_identical_to_live() {
        let bvh = occluder_bvh();
        let rays = ao_rays(1024, 29);
        let batch = RayBatch::from_rays(&rays);
        let trace = Arc::new(RayTraceSet::capture(&bvh, &batch, TraversalKind::AnyHit));
        for config in [GpuConfig::baseline(), GpuConfig::with_predictor()] {
            let live = Simulator::new(config.clone()).run_batch(&bvh, &batch);
            let replayed = Simulator::new(config.clone())
                .with_trace(Arc::clone(&trace))
                .run_batch(&bvh, &batch);
            assert_eq!(
                fingerprint(&live),
                fingerprint(&replayed),
                "replay diverged from live (predictor: {})",
                config.predictor.is_some()
            );
        }
    }

    /// The four engine shapes the golden test pins: baseline, predictor
    /// with repacking, an RT cache in front of a small L1 with extra
    /// repack warps, and a predictor run replaying a recorded trace.
    fn golden_reports(jobs: usize) -> Vec<String> {
        let bvh = occluder_bvh();
        // 4000 rays = 125 warps: an odd warp count splits unevenly over
        // the two SMs, and the density trains the predictor.
        let rays = ao_rays(4000, 37);
        let batch = RayBatch::from_rays(&rays);
        let trace = Arc::new(RayTraceSet::capture(&bvh, &batch, TraversalKind::AnyHit));
        let mut rt_cached = GpuConfig::with_predictor();
        rt_cached.rt_cache = Some(crate::CacheConfig {
            size_bytes: 16 * 1024,
            line_bytes: 128,
            ways: 4,
        });
        rt_cached.l1 = rt_cached.l1.with_size(8 * 1024);
        rt_cached.repack = RepackMode::WithExtraWarps(2);
        let sims = [
            Simulator::new(GpuConfig::baseline()),
            Simulator::new(GpuConfig::with_predictor()),
            Simulator::new(rt_cached),
            Simulator::new(GpuConfig::with_predictor()).with_trace(trace),
        ];
        sims.into_iter()
            .map(|sim| fingerprint(&sim.with_jobs(jobs).run_batch(&bvh, &batch)))
            .collect()
    }

    /// `golden_reports` as the engine produced it before the SM-local ray
    /// arena and allocation-free steps; any engine refactor must keep it
    /// byte for byte.
    const GOLDEN_REPORTS: [&str; 4] = [
        "SimReport { cycles: 33925, completed_rays: 4000, hits: 2725, traversal: TraversalStats { interior_fetches: 45153, leaf_fetches: 3694, tri_fetches: 10641, box_tests: 90306, tri_tests: 10641, stack_spills: 0 }, prediction: PredictionStats { rays: 4000, hits: 2725, predicted: 0, verified: 0, predicted_nodes_evaluated: 0, prediction_eval_fetches: 0 }, memory: MemoryStats { rt_cache: [], l1: [CacheStats { accesses: 28748, hits: 28530 }, CacheStats { accesses: 28243, hits: 28022 }], l2: CacheStats { accesses: 439, hits: 203 }, dram: DramStats { accesses: 236, bank_wait_cycles: 215, per_bank: [16, 15, 14, 15, 18, 16, 16, 13, 14, 14, 13, 16, 14, 15, 14, 13] } }, activity: ActivityCounts { l1_accesses: 59488, l2_accesses: 439, dram_accesses: 236, box_tests: 90306, tri_tests: 10641, predictor_lookups: 0, predictor_updates: 0, ray_buffer_accesses: 48847, stack_ops: 97694, collector_ops: 0, mshr_merges: 2497 }, warps_executed: 125, repacked_warps: 0 }",
        "SimReport { cycles: 33870, completed_rays: 4000, hits: 2725, traversal: TraversalStats { interior_fetches: 44196, leaf_fetches: 3894, tri_fetches: 11441, box_tests: 88392, tri_tests: 11441, stack_spills: 0 }, prediction: PredictionStats { rays: 4000, hits: 2725, predicted: 2272, verified: 623, predicted_nodes_evaluated: 2272, prediction_eval_fetches: 6021 }, memory: MemoryStats { rt_cache: [], l1: [CacheStats { accesses: 28734, hits: 28516 }, CacheStats { accesses: 28302, hits: 28081 }], l2: CacheStats { accesses: 439, hits: 203 }, dram: DramStats { accesses: 236, bank_wait_cycles: 227, per_bank: [16, 15, 14, 15, 18, 16, 16, 13, 14, 14, 13, 16, 14, 15, 14, 13] } }, activity: ActivityCounts { l1_accesses: 59531, l2_accesses: 439, dram_accesses: 236, box_tests: 88392, tri_tests: 11441, predictor_lookups: 4000, predictor_updates: 2725, ray_buffer_accesses: 48090, stack_ops: 96180, collector_ops: 4544, mshr_merges: 2495 }, warps_executed: 219, repacked_warps: 94 }",
        "SimReport { cycles: 36452, completed_rays: 4000, hits: 2725, traversal: TraversalStats { interior_fetches: 44215, leaf_fetches: 3894, tri_fetches: 11441, box_tests: 88430, tri_tests: 11441, stack_spills: 0 }, prediction: PredictionStats { rays: 4000, hits: 2725, predicted: 2271, verified: 620, predicted_nodes_evaluated: 2271, prediction_eval_fetches: 6016 }, memory: MemoryStats { rt_cache: [CacheStats { accesses: 28173, hits: 27203 }, CacheStats { accesses: 27978, hits: 27077 }], l1: [CacheStats { accesses: 970, hits: 223 }, CacheStats { accesses: 901, hits: 228 }], l2: CacheStats { accesses: 1420, hits: 1184 }, dram: DramStats { accesses: 236, bank_wait_cycles: 227, per_bank: [16, 15, 14, 15, 18, 16, 16, 13, 14, 14, 13, 16, 14, 15, 14, 13] } }, activity: ActivityCounts { l1_accesses: 59550, l2_accesses: 1420, dram_accesses: 236, box_tests: 88430, tri_tests: 11441, predictor_lookups: 4000, predictor_updates: 2725, ray_buffer_accesses: 48109, stack_ops: 96218, collector_ops: 4542, mshr_merges: 3399 }, warps_executed: 219, repacked_warps: 94 }",
        "SimReport { cycles: 33870, completed_rays: 4000, hits: 2725, traversal: TraversalStats { interior_fetches: 44196, leaf_fetches: 3894, tri_fetches: 11441, box_tests: 88392, tri_tests: 11441, stack_spills: 0 }, prediction: PredictionStats { rays: 4000, hits: 2725, predicted: 2272, verified: 623, predicted_nodes_evaluated: 2272, prediction_eval_fetches: 6021 }, memory: MemoryStats { rt_cache: [], l1: [CacheStats { accesses: 28734, hits: 28516 }, CacheStats { accesses: 28302, hits: 28081 }], l2: CacheStats { accesses: 439, hits: 203 }, dram: DramStats { accesses: 236, bank_wait_cycles: 227, per_bank: [16, 15, 14, 15, 18, 16, 16, 13, 14, 14, 13, 16, 14, 15, 14, 13] } }, activity: ActivityCounts { l1_accesses: 59531, l2_accesses: 439, dram_accesses: 236, box_tests: 88392, tri_tests: 11441, predictor_lookups: 4000, predictor_updates: 2725, ray_buffer_accesses: 48090, stack_ops: 96180, collector_ops: 4544, mshr_merges: 2495 }, warps_executed: 219, repacked_warps: 94 }",
    ];

    #[test]
    fn reports_match_golden_at_one_and_two_jobs() {
        for jobs in [1, 2] {
            for (i, (got, want)) in golden_reports(jobs).iter().zip(GOLDEN_REPORTS).enumerate() {
                assert_eq!(got, want, "golden report {i} diverged at --jobs {jobs}");
            }
        }
    }

    #[test]
    fn mismatched_trace_is_rejected_and_run_falls_back_live() {
        let bvh = occluder_bvh();
        let rays = ao_rays(256, 31);
        let batch = RayBatch::from_rays(&rays);
        let other = RayBatch::from_rays(&ao_rays(256, 32));
        let trace = Arc::new(RayTraceSet::capture(&bvh, &other, TraversalKind::AnyHit));
        let obs = std::sync::Arc::new(rip_obs::Obs::new(rip_obs::ClockMode::Logical));
        let live = Simulator::new(GpuConfig::baseline()).run_batch(&bvh, &batch);
        let fallback = Simulator::new(GpuConfig::baseline())
            .with_obs(std::sync::Arc::clone(&obs))
            .with_trace(trace)
            .run_batch(&bvh, &batch);
        assert_eq!(fingerprint(&live), fingerprint(&fallback));
        assert_eq!(obs.get("gpusim.trace.rejected"), 1);
    }
}
