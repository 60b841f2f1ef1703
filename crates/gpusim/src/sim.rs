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
//! # Ray state in flight
//!
//! As in the RT unit's ray buffer, an SM holds per-ray state only for
//! the rays of its resident warps, its partial warp collector and the
//! repacked warps waiting for a slot. Undispatched warps are ranges of
//! batch indices; a ray's state is created when its warp is dispatched
//! and its pool slot is recycled when that warp retires, so the memory a
//! run needs beyond the BVH and the ray batch does not grow with the
//! batch.
//!
//! # Event order
//!
//! SMs couple only through the shared L2 and DRAM. Each SM keeps its own
//! event heap ([`SmEngine`]), and the engine processes one event at a
//! time: always the SM with the earliest pending event, ties to the lower
//! SM id. A request that misses the SM's RT cache and L1 goes straight to
//! the one shared L2, whose access decides both the latency charged and
//! the statistics counted; an L2 miss goes to the DRAM.
//!
//! One event issues requests ahead of its own time: an SM issues at most
//! one request per cycle, and a warp's triangle fetches wait for its node
//! data, up to one L2-miss round trip later. So a request may reach the
//! shared levels after another SM's request for a later time. Two rules
//! keep the result causal:
//!
//! - **L2 fill wait.** Per L2 line, the shared levels keep the completion
//!   time of its latest DRAM fill, like the L1 MSHR. An L2 hit on a line
//!   whose fill is still in flight returns when the fill completes.
//! - **Earliest free DRAM window.** A request takes the earliest bank
//!   window at or after its own time that overlaps none already reserved
//!   ([`Dram::access`]), so a request for a later time never delays an
//!   earlier one. Each event's time is passed to the DRAM, which then
//!   forgets the windows that end before it: no later request can issue
//!   earlier.
//!
//! # Trace replay
//!
//! With [`Simulator::with_trace`], full-traversal legs (the baseline leg,
//! not-predicted rays, and misprediction recovery — all virgin root
//! traversals) are fed from a recorded [`RayTraceSet`] instead of stepping
//! the BVH, byte-identical to the live run; predicted legs (the `k·m`
//! verification work) still run live because they start from
//! predictor-supplied nodes that no trace records.
//!
//! # Full legs traced ahead
//!
//! A full leg's node visits, tested triangles and hit depend only on the
//! ray and the BVH, never on the timing model. So without a trace,
//! [`Simulator::run_batch`] records them ahead of the engine on a second,
//! scoped thread. The look-ahead thread walks the batch in warp order
//! and runs each ray's virgin any-hit traversal through the same
//! [`RecordedLegs::record`] loop that RIPT capture uses. It sends each
//! warp's legs to its SM through a bounded channel, skips the warps its
//! SM has already dispatched, and waits once it holds
//! `LOOKAHEAD_WARPS` warps of one SM ready.
//!
//! When an SM dispatches a warp whose legs have arrived, each ray's
//! legs are copied into its ray-buffer slot, and its full leg replays
//! them as a trace would, without reading a node record. A warp whose
//! legs have not arrived runs live. A fed leg steps through the same
//! nodes and triangles to the same hit as a live one, so the report does
//! not depend on which warps were fed, nor on thread timing.
//!
//! - **The engine never waits.** It only polls the channel when it
//!   dispatches a warp. When the look-ahead thread falls behind, the
//!   engine runs those warps live, and the thread skips them.
//! - **The permit rule.** The look-ahead thread runs only when the run
//!   can take a permit from the process-wide job budget
//!   ([`rip_bvh::budget`]) without waiting, and gives it back when the
//!   run ends. So `--jobs 1`, and simulations inside a job pool that
//!   holds every permit, keep to one thread.

use crate::rt_unit::{RayWork, SmState, WarpState};
use crate::{
    ActivityCounts, Cache, Dram, GpuConfig, LatencyConfig, MemoryStats, PartialWarpCollector,
    SimReport,
};
use rip_bvh::budget;
use rip_bvh::ript::{RayTraceSet, RecordedLegs};
use rip_bvh::{Bvh, LeanStep, RayBatch, TraversalKind};
use rip_core::Predictor;
use rip_math::Ray;
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{self, AtomicUsize};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::Arc;

/// How many warps' legs the look-ahead thread may hold ready per SM (in
/// the channel) before it waits for the SM to dispatch.
const LOOKAHEAD_WARPS: usize = 8;

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
            trace: None,
        }
    }

    /// Routes this simulator's `gpusim.*` counters and run spans to
    /// `obs` instead of the process-wide default instance.
    pub fn with_obs(mut self, obs: std::sync::Arc<rip_obs::Obs>) -> Self {
        self.obs = obs;
        self
    }

    /// A no-op: one thread steps every SM. Its only caller is the
    /// perfbench simulator workload; the next benchmark change removes
    /// that call and this method together.
    #[doc(hidden)]
    pub fn with_jobs(self, _jobs: usize) -> Self {
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
    ///
    /// Without a trace, the run traces full legs ahead on a second
    /// thread when the process-wide job budget has a permit to spare
    /// (see the module docs); the report is the same either way.
    pub fn run_batch(&self, bvh: &Bvh, batch: &RayBatch) -> SimReport {
        let trace = self.validated_trace(bvh, batch);
        let permit = trace.is_none().then(Permit::try_take).flatten();
        self.observe(batch.len() as u64, || match permit {
            Some(_) => self.run_ahead(bvh, batch, None, None),
            None => Engine::new(&self.config, bvh, batch, trace, Vec::new()).run(),
        })
    }

    /// Runs like [`Simulator::run_batch`], but always with the look-ahead
    /// thread, and feeds exactly the warps `fed` selects by batch warp
    /// index: the engine waits for their legs and drops every other
    /// warp's, so a test chooses which warps arrive fed. The report must
    /// not depend on `fed`.
    #[doc(hidden)]
    pub fn run_batch_fed(
        &self,
        bvh: &Bvh,
        batch: &RayBatch,
        fed: &(dyn Fn(usize) -> bool + Sync),
    ) -> SimReport {
        let trace = self.validated_trace(bvh, batch);
        self.observe(batch.len() as u64, || {
            self.run_ahead(bvh, batch, trace, Some(fed))
        })
    }

    /// Runs the engine with a scoped look-ahead thread that records the
    /// full legs of the warps no SM has dispatched yet; `wait_for` is
    /// [`Simulator::run_batch_fed`]'s choice of warps.
    fn run_ahead(
        &self,
        bvh: &Bvh,
        batch: &RayBatch,
        trace: Option<&RayTraceSet>,
        wait_for: Option<&(dyn Fn(usize) -> bool + Sync)>,
    ) -> SimReport {
        let config = &self.config;
        // A waiting engine must never block the look-ahead thread on a
        // full channel of another SM, so chosen warps get room for all.
        let capacity = match wait_for {
            Some(_) => batch.len().div_ceil(config.warp_size).max(1),
            None => LOOKAHEAD_WARPS,
        };
        let next: Vec<AtomicUsize> = (0..config.num_sms).map(AtomicUsize::new).collect();
        let (senders, feeds): (Vec<_>, Vec<_>) = next
            .iter()
            .map(|next| {
                let (send, legs) = mpsc::sync_channel(capacity);
                let feed = Feed {
                    legs,
                    early: None,
                    next,
                    wait_for,
                };
                ((send, next), feed)
            })
            .unzip();
        std::thread::scope(|scope| {
            scope.spawn(|| look_ahead(bvh, batch, config.warp_size, senders));
            Engine::new(config, bvh, batch, trace, feeds).run()
        })
    }

    /// Cross-checks the attached trace against the live workload; a
    /// mismatch is counted and the run proceeds live.
    fn validated_trace(&self, bvh: &Bvh, batch: &RayBatch) -> Option<&RayTraceSet> {
        let set = self.trace.as_deref()?;
        let problem = if set.kind() != TraversalKind::AnyHit {
            Some("closest-hit trace on an occlusion workload".to_string())
        } else {
            set.attach(bvh, batch).err()
        };
        match problem {
            None => Some(set),
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

/// A permit from the process-wide job budget for the look-ahead thread,
/// given back when dropped.
struct Permit;

impl Permit {
    /// Takes a permit if one is free, without waiting. Unit tests take
    /// none unless they ask to, so a test that counts permits never races
    /// another test's run.
    fn try_take() -> Option<Permit> {
        #[cfg(test)]
        if !tests::takes_permits() {
            return None;
        }
        // Not `then_some(Permit)`: that builds the permit either way, and
        // dropping an ungranted one would give back a permit never taken.
        let permit = if budget::try_acquire(1) == 1 {
            Some(Permit)
        } else {
            None
        };
        #[cfg(test)]
        tests::count_permit(permit.is_some());
        permit
    }
}

impl Drop for Permit {
    fn drop(&mut self) {
        budget::release(1);
    }
}

/// One warp's recorded full legs, by batch warp index.
struct WarpLegs {
    warp: usize,
    legs: RecordedLegs,
}

/// The look-ahead thread: in warp order, records the full legs of every
/// warp its SM has not dispatched yet and sends them to that SM; each
/// SM's bounded channel keeps it at most `LOOKAHEAD_WARPS` warps of that
/// SM ahead. It ends when the batch is done or the engine hangs up.
fn look_ahead(
    bvh: &Bvh,
    batch: &RayBatch,
    warp_size: usize,
    sms: Vec<(SyncSender<WarpLegs>, &AtomicUsize)>,
) {
    for warp in 0..batch.len().div_ceil(warp_size) {
        let (send, next) = &sms[warp % sms.len()];
        if warp < next.load(atomic::Ordering::Relaxed) {
            continue; // already dispatched live
        }
        let start = warp * warp_size;
        let rays = start..(start + warp_size).min(batch.len());
        let legs = RecordedLegs::record(bvh, batch, TraversalKind::AnyHit, rays, true);
        if send.send(WarpLegs { warp, legs }).is_err() {
            return;
        }
    }
}

/// An SM's end of the look-ahead channel.
struct Feed<'a> {
    legs: Receiver<WarpLegs>,
    /// Legs of a warp the SM has not dispatched yet.
    early: Option<WarpLegs>,
    /// The SM's next undispatched warp, published for the look-ahead
    /// thread, which skips the warps below it. It publishes no other
    /// data, so it is relaxed.
    next: &'a AtomicUsize,
    /// [`Simulator::run_batch_fed`]'s choice: warps whose legs the SM
    /// waits for; every other warp's are dropped. `None` never waits.
    wait_for: Option<&'a (dyn Fn(usize) -> bool + Sync)>,
}

impl Feed<'_> {
    /// The legs of `warp`, which the SM is dispatching, if they have
    /// arrived; `next` is the SM's next undispatched warp after it.
    fn take(&mut self, warp: usize, next: usize) -> Option<RecordedLegs> {
        let wait = self.wait_for.map(|chosen| chosen(warp));
        let mut found = None;
        loop {
            let arrived = match self.early.take() {
                Some(arrived) => Ok(arrived),
                None if wait == Some(true) => self.legs.recv().map_err(drop),
                None => self.legs.try_recv().map_err(drop),
            };
            let Ok(arrived) = arrived else { break };
            match arrived.warp.cmp(&warp) {
                // A warp that was dispatched live before its legs came.
                Ordering::Less => {}
                Ordering::Equal => {
                    found = Some(arrived.legs);
                    break;
                }
                Ordering::Greater => {
                    self.early = Some(arrived);
                    break;
                }
            }
        }
        self.next.store(next, atomic::Ordering::Relaxed);
        let found = found.filter(|_| wait != Some(false));
        #[cfg(test)]
        tests::count_fed(found.is_some());
        found
    }
}

/// The shared memory levels every SM reads as it runs.
struct SharedMemory {
    l2: Cache,
    /// Per L2 line, the completion time of its latest DRAM fill (0: never
    /// filled).
    l2_fill: Vec<u64>,
    dram: Dram,
    latency: LatencyConfig,
}

impl SharedMemory {
    fn new(config: &GpuConfig, space: u64) -> Self {
        SharedMemory {
            l2: Cache::new(config.l2, space),
            l2_fill: vec![0; space.div_ceil(config.l2.line_bytes as u64) as usize],
            dram: Dram::new(config.dram, config.l2.line_bytes),
            latency: config.latency,
        }
    }

    /// Serves an L1 miss that reaches the L2 at `now`; returns the
    /// data-ready time.
    fn access(&mut self, addr: u64, now: u64) -> u64 {
        let line = (addr >> self.l2.config().line_shift()) as usize;
        let l2_done = now + self.latency.l2_hit;
        if self.l2.access(addr) {
            return l2_done.max(self.l2_fill[line]);
        }
        let done = self.dram.access(addr, l2_done);
        self.l2_fill[line] = done;
        done
    }
}

/// One SM's private discrete-event engine: its in-flight rays, warp
/// slots, predictor, collector, MSHR, RT/L1 caches and event heap.
///
/// Like the RT unit's ray buffer, the engine holds state only for rays in
/// flight. The SM's share of the batch (every `num_sms`-th warp, dealt
/// round-robin) waits as a cursor of batch indices; a ray's [`RayWork`]
/// is set up when its warp is dispatched, in a slot of a pool that a LIFO
/// free list recycles once the ray's warp retires. The pool therefore
/// never holds more rays than the SM had in flight at once: the resident
/// warps, the collector and the repacked warps waiting for a slot,
/// independent of the batch size.
///
/// The event loop neither allocates, hashes nor divides per ray or per
/// memory request: ray state lives in the pool, a recycled slot keeps its
/// fed-leg buffers, each warp iteration works in scratch buffers that are
/// cleared and reused, a retired warp's id buffer carries the next
/// dispatched warp, and the caches and the MSHR are dense tables indexed
/// by line number over the BVH's address space (about 12 bytes per
/// 128-byte line: 4 for the L1 index and 8 for the MSHR, plus 4 with an
/// RT cache). The tables come from zeroed memory, so only the lines a run
/// touches become resident. The only per-warp heap traffic is freeing a
/// fed warp's legs once they are copied into its slots.
struct SmEngine<'a> {
    config: &'a GpuConfig,
    bvh: &'a Bvh,
    /// The whole workload; this SM reads only its own warps' rays.
    batch: &'a RayBatch,
    /// Recorded traversals backing the full legs, by batch index.
    trace: Option<&'a RayTraceSet>,
    /// Full legs traced ahead for this SM's warps, when a look-ahead
    /// thread runs.
    feed: Option<Feed<'a>>,
    /// The batch-wide index of this SM's next undispatched warp; it
    /// advances by `num_sms` (warps are dealt round-robin and never
    /// migrate between SMs).
    next_warp: usize,
    /// Ray state of the rays in flight, addressed by slot. Warps, the
    /// repacked queue and the collector carry slot indices. The pool
    /// never shrinks, so its length is the SM's high-water mark of rays
    /// in flight.
    pool: Vec<RayWork>,
    /// Pool slots free for reuse, last freed first.
    free: Vec<u32>,
    /// Id buffers of retired warps, for the next dispatched warp.
    spare_ids: Vec<Vec<u32>>,
    sm: SmState,
    /// Repacked warps awaiting a free slot.
    repacked_queue: VecDeque<Vec<u32>>,
    /// Pending collector-timeout event (time it was scheduled for).
    collector_event: Option<u64>,
    /// MSHR: per L1 line, the completion time of its latest fill
    /// (0: never filled). A fill that completed by a request's issue time
    /// can no longer merge, so stale entries need no eviction.
    mshr: Vec<u64>,
    rt_cache: Option<Cache>,
    l1: Cache,
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
    /// SM `sm_id`, idle, with all of its warps of `batch` undispatched.
    fn new(
        config: &'a GpuConfig,
        bvh: &'a Bvh,
        batch: &'a RayBatch,
        trace: Option<&'a RayTraceSet>,
        feed: Option<Feed<'a>>,
        sm_id: usize,
    ) -> Self {
        let total_slots = config.max_warps_per_rt + config.repack.extra_warps() as usize;
        let space = bvh.layout().footprint_bytes();
        SmEngine {
            config,
            bvh,
            batch,
            trace,
            feed,
            next_warp: sm_id,
            pool: Vec::new(),
            free: Vec::new(),
            spare_ids: Vec::new(),
            sm: SmState {
                slots: (0..total_slots).map(|_| None).collect(),
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
            mshr: vec![0; space.div_ceil(config.l1.line_bytes as u64) as usize],
            rt_cache: config.rt_cache.map(|rt| Cache::new(rt, space)),
            l1: Cache::new(config.l1, space),
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

    /// Dispatches the first warps, one per free base slot.
    fn seed(&mut self) {
        while self.dispatch_pending(0) {}
    }

    /// Time of this SM's next event, if any.
    fn peek_time(&self) -> Option<u64> {
        self.events.peek().map(|Reverse((t, _, _))| *t)
    }

    /// Processes this SM's earliest event against the live `shared`
    /// levels.
    fn step(&mut self, shared: &mut SharedMemory) {
        let Reverse((now, kind, payload)) = self.events.pop().expect("a pending event");
        shared.dram.advance_to(now);
        match kind {
            EV_WARP_ITER => self.warp_iteration(payload as usize, now, shared),
            EV_WARP_LOOKUP => self.lookup_phase(payload as usize, now),
            EV_COLLECTOR => self.collector_tick(now),
            _ => unreachable!("unknown event kind"),
        }
    }

    /// Dispatches this SM's next undispatched warp into a free base slot,
    /// creating its rays' state in the pool; returns whether it did.
    fn dispatch_pending(&mut self, now: u64) -> bool {
        let warp_size = self.config.warp_size;
        let start = self.next_warp * warp_size;
        if start >= self.batch.len() {
            return false;
        }
        let Some(slot) = self.sm.free_slot(false) else {
            return false;
        };
        let warp = self.next_warp;
        self.next_warp += self.config.num_sms;
        let legs = self
            .feed
            .as_mut()
            .and_then(|feed| feed.take(warp, warp + self.config.num_sms));
        let end = (start + warp_size).min(self.batch.len());
        let mut ids = self
            .spare_ids
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(warp_size));
        for index in start..end {
            ids.push(self.admit(index, legs.as_ref().map(|legs| (legs, index - start))));
        }
        self.place(slot, ids, false, now);
        true
    }

    /// Creates the state of batch ray `index` in a pool slot and returns
    /// the slot. Its full leg replays the `i`-th of its warp's `legs`
    /// traced ahead, else the attached trace, else runs live.
    fn admit(&mut self, index: usize, legs: Option<(&RecordedLegs, usize)>) -> u32 {
        let ray = self.batch.ray(index);
        let id = match self.free.pop() {
            Some(id) => {
                self.pool[id as usize].reset(ray);
                id
            }
            None => {
                self.pool.push(RayWork::new(ray));
                (self.pool.len() - 1) as u32
            }
        };
        let rw = &mut self.pool[id as usize];
        match (legs, self.trace) {
            (Some((legs, i)), _) => rw.fed.load_recorded(legs, i),
            (None, Some(set)) => rw.fed.load_trace(set, index, self.bvh),
            (None, None) => {}
        }
        // A baseline ray starts its full leg at once; a predictor's ray
        // begins at its warp's lookup.
        if self.sm.predictor.is_none() {
            rw.begin(None, 0);
        }
        id
    }

    /// Places a warp into the free `slot` and schedules its first event.
    fn place(&mut self, slot: usize, ray_ids: Vec<u32>, repacked: bool, now: u64) {
        let start = now + self.config.latency.queue;
        for &rid in &ray_ids {
            self.pool[rid as usize].slot = slot as u32;
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

    /// Dispatches a warp the collector released, counting its drain; it
    /// queues when every slot is taken.
    fn dispatch_repacked(&mut self, warp: Vec<u32>, now: u64) {
        self.report.activity.collector_ops += warp.len() as u64;
        match self.sm.free_slot(true) {
            Some(slot) => self.place(slot, warp, true, now),
            None => self.repacked_queue.push_back(warp),
        }
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
                let rw = &mut self.pool[rid as usize];
                let hash = predictor.hash_ray(&rw.ray);
                rw.begin(Some(&mut *predictor), hash);
                self.report.activity.predictor_lookups += 1;
                predicted += u32::from(rw.is_predicted());
            }
        }

        if self.config.repack.repacks() && predicted > 0 {
            // Predicted rays leave for the collector; drain full warps as
            // they form (§4.4.1 overflow handling).
            for &rid in &warp_rays {
                if !self.pool[rid as usize].is_predicted() {
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
            let pool = &self.pool;
            warp_rays.retain(|&rid| !pool[rid as usize].is_predicted());
        }
        let emptied = warp_rays.is_empty();
        self.warp_mut(slot).rays = warp_rays;
        if emptied {
            self.retire_warp(slot, ready);
            return;
        }
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
    fn request_line(&mut self, addr: u64, now: u64, shared: &mut SharedMemory) -> u64 {
        let t_issue = now.max(self.sm.issue_free_at);
        self.sm.issue_free_at = t_issue + 1;
        self.report.activity.l1_accesses += 1;
        let line = (addr >> self.config.l1.line_shift()) as usize;
        let fill = self.mshr[line];
        if fill > t_issue {
            // Merged into the outstanding fill: no second DRAM trip.
            self.report.activity.mshr_merges += 1;
            return fill;
        }
        let done = self.mem_access(addr, t_issue, shared);
        self.mshr[line] = done;
        done
    }

    /// The cache cascade: RT cache → L1 → shared L2 → DRAM.
    fn mem_access(&mut self, addr: u64, now: u64, shared: &mut SharedMemory) -> u64 {
        let latency = &self.config.latency;
        if let Some(rt) = self.rt_cache.as_mut() {
            if rt.access(addr) {
                return now + latency.l1_hit; // same fast-path latency
            }
        }
        if self.l1.access(addr) {
            return now + latency.l1_hit;
        }
        shared.access(addr, now + latency.l1_hit)
    }

    /// One SIMT warp iteration: issue every active ray's next node
    /// request in thread order, step each ray once the data returns, fetch
    /// leaf triangles, run the pipelined intersection tests, and advance
    /// the warp at the pace of its slowest thread.
    fn warp_iteration(&mut self, slot: usize, now: u64, shared: &mut SharedMemory) {
        let warp_rays = std::mem::take(&mut self.warp_mut(slot).rays);
        let layout = *self.bvh.layout();

        // Node request round (thread order, one issue slot each; identical
        // in-flight lines share their fill via the MSHR).
        let mut node_ready = std::mem::take(&mut self.node_ready);
        node_ready.clear();
        for &rid in &warp_rays {
            let rw = &self.pool[rid as usize];
            if !rw.is_active() {
                continue;
            }
            let node = rw.current_request().expect("active ray must want a node");
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
            let rw = &mut self.pool[rid as usize];
            let step = rw.step(self.bvh, &mut tested);
            self.report.activity.stack_ops += 2;
            match step {
                LeanStep::Interior { .. } => self.report.activity.box_tests += 2,
                LeanStep::Leaf { tris_tested, .. } => {
                    self.report.activity.tri_tests += u64::from(tris_tested);
                }
                LeanStep::Finished => {}
            }
            if rw.leg_done() {
                rw.end_leg();
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
            if !self.pool[rid as usize].is_active() && self.retire_ray(rid, next) {
                warp_done = true;
            }
        }
        self.node_ready = node_ready;
        if !warp_done {
            self.events.push(Reverse((next, EV_WARP_ITER, slot as u32)));
        }
    }

    /// Finishes a ray's flow (recording its outcome, rewarding and
    /// training the predictor) and updates the report; retires the warp
    /// (returning `true`) when this was its last active ray. The ray
    /// keeps its pool slot until its warp retires: the warp's id list
    /// still names it.
    fn retire_ray(&mut self, rid: u32, now: u64) -> bool {
        let rw = &self.pool[rid as usize];
        let slot = rw.slot as usize;
        let flow = rw.flow.expect("a retiring ray has begun");
        let predictor = self.sm.predictor.as_mut();
        let trained = predictor.is_some();
        let trace = flow.finish(self.bvh, predictor, &mut self.report.prediction);
        self.report.completed_rays += 1;
        self.report.cycles = self.report.cycles.max(now);
        self.report.traversal += trace.total_stats();
        if trace.hit.is_some() {
            self.report.hits += 1;
            self.report.activity.predictor_updates += u64::from(trained);
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

    /// Frees a warp slot and its rays' pool slots, then dispatches queued
    /// work. The warp's id list holds every ray still in the pool on its
    /// account: rays that left for the collector were removed from it at
    /// lookup.
    fn retire_warp(&mut self, slot: usize, now: u64) {
        let mut warp = self.sm.slots[slot].take().expect("warp present");
        self.report.warps_executed += 1;
        if warp.repacked {
            self.report.repacked_warps += 1;
        }
        self.report.cycles = self.report.cycles.max(now);
        self.free.extend_from_slice(&warp.rays);
        warp.rays.clear();
        if self.spare_ids.len() < self.sm.slots.len() {
            self.spare_ids.push(warp.rays);
        }
        // Repacked warps may use any slot; normal warps only base slots.
        loop {
            if !self.repacked_queue.is_empty() {
                if let Some(slot) = self.sm.free_slot(true) {
                    let ids = self.repacked_queue.pop_front().expect("nonempty");
                    self.place(slot, ids, true, now);
                    continue;
                }
            }
            if !self.dispatch_pending(now) {
                break;
            }
        }
    }
}

/// Owns the per-SM engines and the shared memory levels, and steps the
/// SMs' events in one `(time, SM id)` order on the calling thread (the
/// look-ahead thread, when one runs, only records legs).
///
/// Nothing here or in the engines grows with the batch: each SM reads its
/// rays from the batch as it dispatches their warps.
struct Engine<'a> {
    /// The batch size, which every SM's completed rays add up to.
    rays: usize,
    engines: Vec<SmEngine<'a>>,
    shared: SharedMemory,
}

impl<'a> Engine<'a> {
    /// The engines of every SM, each seeded with its first warps; `feeds`
    /// holds one look-ahead channel per SM, or none.
    fn new(
        config: &'a GpuConfig,
        bvh: &'a Bvh,
        batch: &'a RayBatch,
        trace: Option<&'a RayTraceSet>,
        feeds: Vec<Feed<'a>>,
    ) -> Self {
        let mut feeds = feeds.into_iter();
        let engines = (0..config.num_sms)
            .map(|sm_id| {
                let mut engine = SmEngine::new(config, bvh, batch, trace, feeds.next(), sm_id);
                engine.seed();
                engine
            })
            .collect();
        Engine {
            rays: batch.len(),
            engines,
            shared: SharedMemory::new(config, bvh.layout().footprint_bytes()),
        }
    }

    fn run(mut self) -> SimReport {
        self.run_to_completion();
        self.into_report()
    }

    /// Processes events until every SM's event heap is empty: always the
    /// earliest, on a tie the lower SM id's.
    fn run_to_completion(&mut self) {
        while let Some((_, sm)) = self
            .engines
            .iter()
            .enumerate()
            .filter_map(|(sm, engine)| Some((engine.peek_time()?, sm)))
            .min()
        {
            self.engines[sm].step(&mut self.shared);
        }
    }

    /// The deterministic merge of the per-SM partial reports.
    fn into_report(self) -> SimReport {
        let mut report = SimReport::default();
        let mut rt_stats = Vec::new();
        let mut l1_stats = Vec::new();
        for e in self.engines {
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
            debug_assert_eq!(e.free.len(), e.pool.len(), "a pool slot leaked");
        }
        debug_assert_eq!(report.completed_rays as usize, self.rays);
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
    use std::cell::Cell;

    thread_local! {
        /// Whether this thread's runs may take a budget permit.
        static TAKES_PERMITS: Cell<bool> = const { Cell::new(false) };
        /// Budget permits this thread's runs took.
        static PERMITS_TAKEN: Cell<usize> = const { Cell::new(0) };
        /// Warps this thread's engines dispatched with fed legs.
        static FED_WARPS: Cell<usize> = const { Cell::new(0) };
    }

    pub(super) fn takes_permits() -> bool {
        TAKES_PERMITS.with(Cell::get)
    }

    pub(super) fn count_permit(taken: bool) {
        PERMITS_TAKEN.with(|n| n.set(n.get() + usize::from(taken)));
    }

    pub(super) fn count_fed(fed: bool) {
        FED_WARPS.with(|n| n.set(n.get() + usize::from(fed)));
    }

    /// Runs `sim` as production does, permit rule included; returns the
    /// report, the permits the run took and the warps it fed.
    fn run_with_budget(sim: &Simulator, bvh: &Bvh, batch: &RayBatch) -> (SimReport, usize, usize) {
        TAKES_PERMITS.with(|t| t.set(true));
        PERMITS_TAKEN.with(|n| n.set(0));
        FED_WARPS.with(|n| n.set(0));
        let report = sim.run_batch(bvh, batch);
        TAKES_PERMITS.with(|t| t.set(false));
        (
            report,
            PERMITS_TAKEN.with(Cell::get),
            FED_WARPS.with(Cell::get),
        )
    }

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

    /// How a golden test runs a simulator on a batch.
    type Run<'a> = dyn Fn(&Simulator, &Bvh, &RayBatch) -> SimReport + 'a;

    /// Every field that `SimReport` mirrors, flattened for byte-for-byte
    /// comparison across engine changes and live/replay paths.
    fn fingerprint(r: &SimReport) -> String {
        format!("{r:?}")
    }

    #[test]
    fn trace_replay_is_byte_identical_to_live() {
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

    /// A predictor behind a 16 KB RT cache and an 8 KB L1, with two extra
    /// repack warps.
    fn rt_cached() -> GpuConfig {
        let mut config = GpuConfig::with_predictor();
        config.rt_cache = Some(crate::CacheConfig {
            size_bytes: 16 * 1024,
            line_bytes: 128,
            ways: 4,
        });
        config.l1 = config.l1.with_size(8 * 1024);
        config.repack = RepackMode::WithExtraWarps(2);
        config
    }

    /// The baseline with a 2 KB L1.
    fn tiny_l1() -> GpuConfig {
        let mut config = GpuConfig::baseline();
        config.l1 = config.l1.with_size(2 * 1024);
        config
    }

    /// The seven engine shapes the golden test pins: baseline, predictor
    /// with repacking, an RT cache in front of a small L1 with extra
    /// repack warps, a predictor run replaying a recorded trace, a 16-line
    /// fully associative L1 (in-flight lines are evicted while later
    /// requests still merge on the MSHR), a direct-mapped RT cache, and a
    /// predictor run on four SMs (events interleave across four heaps,
    /// ties broken by SM id).
    fn golden_reports(run: &Run<'_>) -> Vec<String> {
        let bvh = occluder_bvh();
        // 4000 rays = 125 warps: an odd warp count splits unevenly over
        // two or four SMs, and the density trains the predictor.
        let rays = ao_rays(4000, 37);
        let batch = RayBatch::from_rays(&rays);
        let trace = Arc::new(RayTraceSet::capture(&bvh, &batch, TraversalKind::AnyHit));
        let mut direct_mapped_rt = GpuConfig::with_predictor();
        direct_mapped_rt.rt_cache = Some(crate::CacheConfig {
            size_bytes: 4 * 1024,
            line_bytes: 128,
            ways: 1,
        });
        let mut four_sms = GpuConfig::with_predictor();
        four_sms.num_sms = 4;
        let sims = [
            Simulator::new(GpuConfig::baseline()),
            Simulator::new(GpuConfig::with_predictor()),
            Simulator::new(rt_cached()),
            Simulator::new(GpuConfig::with_predictor()).with_trace(trace),
            Simulator::new(tiny_l1()),
            Simulator::new(direct_mapped_rt),
            Simulator::new(four_sms),
        ];
        sims.iter()
            .map(|sim| fingerprint(&run(sim, &bvh, &batch)))
            .collect()
    }

    /// `golden_reports` as the live shared L2 and DRAM first produced it;
    /// any engine refactor must keep it byte for byte.
    const GOLDEN_REPORTS: [&str; 7] = [
        "SimReport { cycles: 34075, completed_rays: 4000, hits: 2725, traversal: TraversalStats { interior_fetches: 45153, leaf_fetches: 3694, tri_fetches: 10641, box_tests: 90306, tri_tests: 10641, stack_spills: 0 }, prediction: PredictionStats { rays: 4000, hits: 2725, predicted: 0, verified: 0, predicted_nodes_evaluated: 0, prediction_eval_fetches: 0 }, memory: MemoryStats { rt_cache: [], l1: [CacheStats { accesses: 28748, hits: 28530 }, CacheStats { accesses: 28217, hits: 27996 }], l2: CacheStats { accesses: 439, hits: 203 }, dram: DramStats { accesses: 236, bank_wait_cycles: 168, per_bank: [16, 15, 14, 15, 18, 16, 16, 13, 14, 14, 13, 16, 14, 15, 14, 13] } }, activity: ActivityCounts { l1_accesses: 59488, l2_accesses: 439, dram_accesses: 236, box_tests: 90306, tri_tests: 10641, predictor_lookups: 0, predictor_updates: 0, ray_buffer_accesses: 48847, stack_ops: 97694, collector_ops: 0, mshr_merges: 2523 }, warps_executed: 125, repacked_warps: 0 }",
        "SimReport { cycles: 34022, completed_rays: 4000, hits: 2725, traversal: TraversalStats { interior_fetches: 44193, leaf_fetches: 3900, tri_fetches: 11465, box_tests: 88386, tri_tests: 11465, stack_spills: 0 }, prediction: PredictionStats { rays: 4000, hits: 2725, predicted: 2273, verified: 625, predicted_nodes_evaluated: 2273, prediction_eval_fetches: 6065 }, memory: MemoryStats { rt_cache: [], l1: [CacheStats { accesses: 28684, hits: 28466 }, CacheStats { accesses: 28352, hits: 28131 }], l2: CacheStats { accesses: 439, hits: 203 }, dram: DramStats { accesses: 236, bank_wait_cycles: 191, per_bank: [16, 15, 14, 15, 18, 16, 16, 13, 14, 14, 13, 16, 14, 15, 14, 13] } }, activity: ActivityCounts { l1_accesses: 59558, l2_accesses: 439, dram_accesses: 236, box_tests: 88386, tri_tests: 11465, predictor_lookups: 4000, predictor_updates: 2725, ray_buffer_accesses: 48093, stack_ops: 96186, collector_ops: 4546, mshr_merges: 2522 }, warps_executed: 218, repacked_warps: 93 }",
        "SimReport { cycles: 36515, completed_rays: 4000, hits: 2725, traversal: TraversalStats { interior_fetches: 44208, leaf_fetches: 3897, tri_fetches: 11453, box_tests: 88416, tri_tests: 11453, stack_spills: 0 }, prediction: PredictionStats { rays: 4000, hits: 2725, predicted: 2270, verified: 622, predicted_nodes_evaluated: 2270, prediction_eval_fetches: 6026 }, memory: MemoryStats { rt_cache: [CacheStats { accesses: 28240, hits: 27266 }, CacheStats { accesses: 27938, hits: 27037 }], l1: [CacheStats { accesses: 974, hits: 236 }, CacheStats { accesses: 901, hits: 238 }], l2: CacheStats { accesses: 1401, hits: 1165 }, dram: DramStats { accesses: 236, bank_wait_cycles: 191, per_bank: [16, 15, 14, 15, 18, 16, 16, 13, 14, 14, 13, 16, 14, 15, 14, 13] } }, activity: ActivityCounts { l1_accesses: 59558, l2_accesses: 1401, dram_accesses: 236, box_tests: 88416, tri_tests: 11453, predictor_lookups: 4000, predictor_updates: 2725, ray_buffer_accesses: 48105, stack_ops: 96210, collector_ops: 4540, mshr_merges: 3380 }, warps_executed: 219, repacked_warps: 94 }",
        "SimReport { cycles: 34022, completed_rays: 4000, hits: 2725, traversal: TraversalStats { interior_fetches: 44193, leaf_fetches: 3900, tri_fetches: 11465, box_tests: 88386, tri_tests: 11465, stack_spills: 0 }, prediction: PredictionStats { rays: 4000, hits: 2725, predicted: 2273, verified: 625, predicted_nodes_evaluated: 2273, prediction_eval_fetches: 6065 }, memory: MemoryStats { rt_cache: [], l1: [CacheStats { accesses: 28684, hits: 28466 }, CacheStats { accesses: 28352, hits: 28131 }], l2: CacheStats { accesses: 439, hits: 203 }, dram: DramStats { accesses: 236, bank_wait_cycles: 191, per_bank: [16, 15, 14, 15, 18, 16, 16, 13, 14, 14, 13, 16, 14, 15, 14, 13] } }, activity: ActivityCounts { l1_accesses: 59558, l2_accesses: 439, dram_accesses: 236, box_tests: 88386, tri_tests: 11465, predictor_lookups: 4000, predictor_updates: 2725, ray_buffer_accesses: 48093, stack_ops: 96186, collector_ops: 4546, mshr_merges: 2522 }, warps_executed: 218, repacked_warps: 93 }",
        "SimReport { cycles: 44072, completed_rays: 4000, hits: 2725, traversal: TraversalStats { interior_fetches: 45153, leaf_fetches: 3694, tri_fetches: 10641, box_tests: 90306, tri_tests: 10641, stack_spills: 0 }, prediction: PredictionStats { rays: 4000, hits: 2725, predicted: 0, verified: 0, predicted_nodes_evaluated: 0, prediction_eval_fetches: 0 }, memory: MemoryStats { rt_cache: [], l1: [CacheStats { accesses: 14295, hits: 8935 }, CacheStats { accesses: 12799, hits: 7528 }], l2: CacheStats { accesses: 10631, hits: 10395 }, dram: DramStats { accesses: 236, bank_wait_cycles: 152, per_bank: [16, 15, 14, 15, 18, 16, 16, 13, 14, 14, 13, 16, 14, 15, 14, 13] } }, activity: ActivityCounts { l1_accesses: 59488, l2_accesses: 10631, dram_accesses: 236, box_tests: 90306, tri_tests: 10641, predictor_lookups: 0, predictor_updates: 0, ray_buffer_accesses: 48847, stack_ops: 97694, collector_ops: 0, mshr_merges: 32394 }, warps_executed: 125, repacked_warps: 0 }",
        "SimReport { cycles: 34022, completed_rays: 4000, hits: 2725, traversal: TraversalStats { interior_fetches: 44193, leaf_fetches: 3900, tri_fetches: 11465, box_tests: 88386, tri_tests: 11465, stack_spills: 0 }, prediction: PredictionStats { rays: 4000, hits: 2725, predicted: 2273, verified: 625, predicted_nodes_evaluated: 2273, prediction_eval_fetches: 6065 }, memory: MemoryStats { rt_cache: [CacheStats { accesses: 28684, hits: 22215 }, CacheStats { accesses: 28352, hits: 22189 }], l1: [CacheStats { accesses: 6469, hits: 6251 }, CacheStats { accesses: 6163, hits: 5942 }], l2: CacheStats { accesses: 439, hits: 203 }, dram: DramStats { accesses: 236, bank_wait_cycles: 191, per_bank: [16, 15, 14, 15, 18, 16, 16, 13, 14, 14, 13, 16, 14, 15, 14, 13] } }, activity: ActivityCounts { l1_accesses: 59558, l2_accesses: 439, dram_accesses: 236, box_tests: 88386, tri_tests: 11465, predictor_lookups: 4000, predictor_updates: 2725, ray_buffer_accesses: 48093, stack_ops: 96186, collector_ops: 4546, mshr_merges: 2522 }, warps_executed: 218, repacked_warps: 93 }",
        "SimReport { cycles: 18140, completed_rays: 4000, hits: 2725, traversal: TraversalStats { interior_fetches: 44851, leaf_fetches: 3797, tri_fetches: 11053, box_tests: 89702, tri_tests: 11053, stack_spills: 0 }, prediction: PredictionStats { rays: 4000, hits: 2725, predicted: 1169, verified: 288, predicted_nodes_evaluated: 1169, prediction_eval_fetches: 2938 }, memory: MemoryStats { rt_cache: [], l1: [CacheStats { accesses: 13965, hits: 13766 }, CacheStats { accesses: 13489, hits: 13289 }, CacheStats { accesses: 13500, hits: 13300 }, CacheStats { accesses: 13649, hits: 13447 }], l2: CacheStats { accesses: 801, hits: 565 }, dram: DramStats { accesses: 236, bank_wait_cycles: 167, per_bank: [16, 15, 14, 15, 18, 16, 16, 13, 14, 14, 13, 16, 14, 15, 14, 13] } }, activity: ActivityCounts { l1_accesses: 59701, l2_accesses: 801, dram_accesses: 236, box_tests: 89702, tri_tests: 11053, predictor_lookups: 4000, predictor_updates: 2725, ray_buffer_accesses: 48648, stack_ops: 97296, collector_ops: 2338, mshr_merges: 5098 }, warps_executed: 185, repacked_warps: 60 }",
    ];

    #[test]
    fn reports_match_golden() {
        let got = golden_reports(&|sim, bvh, batch| sim.run_batch(bvh, batch));
        assert_eq!(got.len(), GOLDEN_REPORTS.len());
        for (i, (got, want)) in got.iter().zip(GOLDEN_REPORTS).enumerate() {
            assert_eq!(got, want, "golden report {i} diverged");
        }
    }

    /// One-SM runs of four engine shapes (baseline, predictor, an RT
    /// cache in front of an 8 KB L1 with extra repack warps, a 2 KB L1),
    /// each live and then replaying a recorded trace.
    fn one_sm_reports(run: &Run<'_>) -> Vec<String> {
        let bvh = occluder_bvh();
        let batch = RayBatch::from_rays(&ao_rays(4000, 37));
        let trace = Arc::new(RayTraceSet::capture(&bvh, &batch, TraversalKind::AnyHit));
        let mut reports = Vec::new();
        for mut config in [
            GpuConfig::baseline(),
            GpuConfig::with_predictor(),
            rt_cached(),
            tiny_l1(),
        ] {
            config.num_sms = 1;
            let live = Simulator::new(config.clone());
            let replayed = Simulator::new(config).with_trace(Arc::clone(&trace));
            reports.push(fingerprint(&run(&live, &bvh, &batch)));
            reports.push(fingerprint(&run(&replayed, &bvh, &batch)));
        }
        reports
    }

    /// `one_sm_reports` as the frozen-L2 epoch engine produced it, one
    /// entry per engine shape (live and replay each read the same). One SM
    /// issues its requests in time order and this scene never evicts an
    /// L2 line, so that engine's snapshot plus the SM's own fills was the
    /// live L2: the live shared L2 and DRAM must reproduce it byte for
    /// byte.
    const ONE_SM_GOLDEN_REPORTS: [&str; 4] = [
        "SimReport { cycles: 64876, completed_rays: 4000, hits: 2725, traversal: TraversalStats { interior_fetches: 45153, leaf_fetches: 3694, tri_fetches: 10641, box_tests: 90306, tri_tests: 10641, stack_spills: 0 }, prediction: PredictionStats { rays: 4000, hits: 2725, predicted: 0, verified: 0, predicted_nodes_evaluated: 0, prediction_eval_fetches: 0 }, memory: MemoryStats { rt_cache: [], l1: [CacheStats { accesses: 58213, hits: 57977 }], l2: CacheStats { accesses: 236, hits: 0 }, dram: DramStats { accesses: 236, bank_wait_cycles: 93, per_bank: [16, 15, 14, 15, 18, 16, 16, 13, 14, 14, 13, 16, 14, 15, 14, 13] } }, activity: ActivityCounts { l1_accesses: 59488, l2_accesses: 236, dram_accesses: 236, box_tests: 90306, tri_tests: 10641, predictor_lookups: 0, predictor_updates: 0, ray_buffer_accesses: 48847, stack_ops: 97694, collector_ops: 0, mshr_merges: 1275 }, warps_executed: 125, repacked_warps: 0 }",
        "SimReport { cycles: 64577, completed_rays: 4000, hits: 2725, traversal: TraversalStats { interior_fetches: 43696, leaf_fetches: 3929, tri_fetches: 11581, box_tests: 87392, tri_tests: 11581, stack_spills: 0 }, prediction: PredictionStats { rays: 4000, hits: 2725, predicted: 3012, verified: 821, predicted_nodes_evaluated: 3012, prediction_eval_fetches: 7895 }, memory: MemoryStats { rt_cache: [], l1: [CacheStats { accesses: 57931, hits: 57695 }], l2: CacheStats { accesses: 236, hits: 0 }, dram: DramStats { accesses: 236, bank_wait_cycles: 97, per_bank: [16, 15, 14, 15, 18, 16, 16, 13, 14, 14, 13, 16, 14, 15, 14, 13] } }, activity: ActivityCounts { l1_accesses: 59206, l2_accesses: 236, dram_accesses: 236, box_tests: 87392, tri_tests: 11581, predictor_lookups: 4000, predictor_updates: 2725, ray_buffer_accesses: 47625, stack_ops: 95250, collector_ops: 6024, mshr_merges: 1275 }, warps_executed: 234, repacked_warps: 109 }",
        "SimReport { cycles: 69423, completed_rays: 4000, hits: 2725, traversal: TraversalStats { interior_fetches: 43654, leaf_fetches: 3928, tri_fetches: 11577, box_tests: 87308, tri_tests: 11577, stack_spills: 0 }, prediction: PredictionStats { rays: 4000, hits: 2725, predicted: 3011, verified: 832, predicted_nodes_evaluated: 3011, prediction_eval_fetches: 7915 }, memory: MemoryStats { rt_cache: [CacheStats { accesses: 57219, hits: 55415 }], l1: [CacheStats { accesses: 1804, hits: 497 }], l2: CacheStats { accesses: 1307, hits: 1071 }, dram: DramStats { accesses: 236, bank_wait_cycles: 97, per_bank: [16, 15, 14, 15, 18, 16, 16, 13, 14, 14, 13, 16, 14, 15, 14, 13] } }, activity: ActivityCounts { l1_accesses: 59159, l2_accesses: 1307, dram_accesses: 236, box_tests: 87308, tri_tests: 11577, predictor_lookups: 4000, predictor_updates: 2725, ray_buffer_accesses: 47582, stack_ops: 95164, collector_ops: 6022, mshr_merges: 1940 }, warps_executed: 235, repacked_warps: 110 }",
        "SimReport { cycles: 86289, completed_rays: 4000, hits: 2725, traversal: TraversalStats { interior_fetches: 45153, leaf_fetches: 3694, tri_fetches: 10641, box_tests: 90306, tri_tests: 10641, stack_spills: 0 }, prediction: PredictionStats { rays: 4000, hits: 2725, predicted: 0, verified: 0, predicted_nodes_evaluated: 0, prediction_eval_fetches: 0 }, memory: MemoryStats { rt_cache: [], l1: [CacheStats { accesses: 27861, hits: 16948 }], l2: CacheStats { accesses: 10913, hits: 10677 }, dram: DramStats { accesses: 236, bank_wait_cycles: 70, per_bank: [16, 15, 14, 15, 18, 16, 16, 13, 14, 14, 13, 16, 14, 15, 14, 13] } }, activity: ActivityCounts { l1_accesses: 59488, l2_accesses: 10913, dram_accesses: 236, box_tests: 90306, tri_tests: 10641, predictor_lookups: 0, predictor_updates: 0, ray_buffer_accesses: 48847, stack_ops: 97694, collector_ops: 0, mshr_merges: 31627 }, warps_executed: 125, repacked_warps: 0 }",
    ];

    #[test]
    fn one_sm_reports_match_golden() {
        assert_one_sm_golden(
            &one_sm_reports(&|sim, bvh, batch| sim.run_batch(bvh, batch)),
            "live",
        );
    }

    fn assert_one_sm_golden(got: &[String], how: &str) {
        assert_eq!(got.len(), 2 * ONE_SM_GOLDEN_REPORTS.len());
        for (i, got) in got.iter().enumerate() {
            let leg = if i % 2 == 0 { "live" } else { "replay" };
            assert_eq!(
                got.as_str(),
                ONE_SM_GOLDEN_REPORTS[i / 2],
                "one-SM golden report {} ({leg}, {how}) diverged",
                i / 2
            );
        }
    }

    /// Whether a warp arrives fed, by batch warp index.
    type FeedPattern = fn(usize) -> bool;

    /// Which warps arrive fed, by batch warp index: all, none, every
    /// other one, or only those from warp 60 on (of 125).
    const FEED_PATTERNS: [(&str, FeedPattern); 4] = [
        ("all fed", |_| true),
        ("none fed", |_| false),
        ("alternate warps fed", |warp| warp % 2 == 1),
        ("fed after warp 60", |warp| warp >= 60),
    ];

    #[test]
    fn fed_legs_match_golden_under_every_pattern() {
        for (how, fed) in FEED_PATTERNS {
            let run: &Run<'_> = &|sim, bvh, batch| sim.run_batch_fed(bvh, batch, &fed);
            for (i, (got, want)) in golden_reports(run).iter().zip(GOLDEN_REPORTS).enumerate() {
                assert_eq!(got, want, "golden report {i} diverged ({how})");
            }
            assert_one_sm_golden(&one_sm_reports(run), how);
        }
    }

    /// With one ray in flight, gpusim looks up, probes, falls back and
    /// trains in `FunctionalSim`'s order, so the two must count the same
    /// §3 outcomes and traversal work at any update delay, however the
    /// full legs arrive.
    #[test]
    fn one_ray_in_flight_matches_functional_sim() {
        use rip_core::{FunctionalSim, PredictorConfig, SimOptions};
        let (bvh, batch) = (occluder_bvh(), RayBatch::from_rays(&ao_rays(4000, 7)));
        let options = SimOptions {
            num_predictors: 1,
            warp_size: 1,
            ..SimOptions::default()
        };
        for update_delay in [0, 1, 8, 256] {
            let predictor = PredictorConfig {
                update_delay,
                ..PredictorConfig::paper_default()
            };
            let functional = FunctionalSim::new(predictor, options)
                .run(&bvh, &batch, TraversalKind::AnyHit, None, None)
                .unwrap();
            let mut config = GpuConfig::with_predictor();
            config.predictor = Some(predictor);
            (config.num_sms, config.max_warps_per_rt, config.warp_size) = (1, 1, 1);
            config.repack = RepackMode::Off;
            let sim = Simulator::new(config);
            for (how, report) in [
                ("live", sim.run_batch(&bvh, &batch)),
                ("all fed", sim.run_batch_fed(&bvh, &batch, &|_| true)),
                ("none fed", sim.run_batch_fed(&bvh, &batch, &|_| false)),
            ] {
                let got = (report.prediction, report.traversal);
                let want = (functional.prediction, functional.with_predictor);
                assert_eq!(got, want, "delay {update_delay}, {how}");
            }
        }
    }

    #[test]
    fn run_batch_gives_its_permit_back() {
        let _lock = budget::test_lock();
        let before = budget::global_budget();
        budget::set_global_budget(2);
        let (bvh, batch) = (occluder_bvh(), RayBatch::from_rays(&ao_rays(4000, 37)));
        let (report, permits, _) =
            run_with_budget(&Simulator::new(GpuConfig::baseline()), &bvh, &batch);
        assert_eq!(fingerprint(&report), GOLDEN_REPORTS[0]);
        assert_eq!(permits, 1, "a free permit went untaken");
        assert_eq!(budget::try_acquire(1), 1, "the permit was not given back");
        budget::release(1);
        budget::set_global_budget(before);
    }

    #[test]
    fn a_budget_of_one_feeds_no_warp() {
        let _lock = budget::test_lock();
        let before = budget::global_budget();
        budget::set_global_budget(1);
        let (bvh, batch) = (occluder_bvh(), RayBatch::from_rays(&ao_rays(4000, 37)));
        let (report, permits, fed) =
            run_with_budget(&Simulator::new(GpuConfig::baseline()), &bvh, &batch);
        assert_eq!(fingerprint(&report), GOLDEN_REPORTS[0]);
        assert_eq!((permits, fed), (0, 0));
        budget::set_global_budget(before);
    }

    #[test]
    fn a_run_inside_a_saturated_pool_takes_no_permit() {
        let _lock = budget::test_lock();
        let before = budget::global_budget();
        budget::set_global_budget(2);
        let (bvh, batch) = (occluder_bvh(), RayBatch::from_rays(&ao_rays(1000, 41)));
        // Two jobs on two threads: the pool holds the one extra permit
        // while both simulations run.
        let runs = rip_exec::JobPool::new(2).map(&[0, 1], |_| {
            let (report, permits, fed) =
                run_with_budget(&Simulator::new(GpuConfig::with_predictor()), &bvh, &batch);
            (fingerprint(&report), permits, fed)
        });
        assert_eq!(runs[0], runs[1]);
        assert_eq!((runs[0].1, runs[0].2), (0, 0), "a run took a held permit");
        assert_eq!(
            budget::try_acquire(1),
            1,
            "the pool's permit was not given back"
        );
        budget::release(1);
        budget::set_global_budget(before);
    }

    /// The arrival orders thread timing can produce, on one SM of two:
    /// legs of a warp dispatched live come late, and legs of a later warp
    /// come early.
    #[test]
    fn a_feed_hands_each_warp_only_its_own_legs() {
        let (bvh, batch) = (occluder_bvh(), RayBatch::from_rays(&ao_rays(256, 43)));
        let legs = |warp: usize| {
            let rays = warp * 32..(warp + 1) * 32;
            RecordedLegs::record(&bvh, &batch, TraversalKind::AnyHit, rays, true)
        };
        let next = AtomicUsize::new(0);
        let (send, receive) = mpsc::sync_channel(LOOKAHEAD_WARPS);
        let mut feed = Feed {
            legs: receive,
            early: None,
            next: &next,
            wait_for: None,
        };
        let arrive = |warp| {
            send.send(WarpLegs {
                warp,
                legs: legs(warp),
            })
            .unwrap()
        };
        assert!(feed.take(0, 2).is_none(), "nothing has arrived");
        arrive(0);
        arrive(2);
        let got = feed.take(2, 4).expect("warp 2's legs arrived");
        assert_eq!(
            got.steps(5),
            legs(2).steps(5),
            "warp 0's late legs were used"
        );
        assert_eq!(next.load(atomic::Ordering::Relaxed), 4);
        arrive(6);
        assert!(feed.take(4, 6).is_none(), "warp 6's legs went to warp 4");
        let got = feed.take(6, 8).expect("warp 6's early legs were kept");
        assert_eq!(got.triangles(5), legs(6).triangles(5));
    }

    /// Per SM, the most rays its pool ever held at once.
    fn pool_peaks(config: &GpuConfig, bvh: &Bvh, batch: &RayBatch) -> Vec<usize> {
        let mut engine = Engine::new(config, bvh, batch, None, Vec::new());
        engine.run_to_completion();
        engine.engines.iter().map(|e| e.pool.len()).collect()
    }

    #[test]
    fn ray_pool_is_bounded_by_rays_in_flight() {
        let bvh = occluder_bvh();
        let config = GpuConfig::with_predictor();
        let small = pool_peaks(&config, &bvh, &RayBatch::from_rays(&ao_rays(4000, 37)));
        let large = pool_peaks(&config, &bvh, &RayBatch::from_rays(&ao_rays(16000, 37)));
        assert_eq!(small, large, "the pool grew with the batch");
        let bound = config.max_warps_per_rt * config.warp_size + config.collector_capacity;
        assert!(
            small.iter().all(|&peak| peak <= bound),
            "{small:?} > {bound}"
        );
    }

    /// Issues requests to both halves of the first 128 bytes at cycle 0
    /// on a fresh SM; returns its MSHR merges and DRAM requests per bank.
    fn split_line_requests(config: &GpuConfig) -> (u64, Vec<u64>) {
        let bvh = occluder_bvh();
        let batch = RayBatch::from_rays(&[]);
        let mut shared = SharedMemory::new(config, bvh.layout().footprint_bytes());
        let mut engine = SmEngine::new(config, &bvh, &batch, None, None, 0);
        engine.request_line(0, 0, &mut shared);
        engine.request_line(64, 0, &mut shared);
        let per_bank = shared.dram.stats().per_bank.clone();
        (engine.report.activity.mshr_merges, per_bank)
    }

    #[test]
    fn mshr_and_dram_banks_follow_the_configured_line_size() {
        let mut narrow = GpuConfig::baseline();
        narrow.l1.line_bytes = 64;
        narrow.l2.line_bytes = 64;
        let (merges, per_bank) = split_line_requests(&narrow);
        assert_eq!(merges, 0, "distinct 64-byte lines merged");
        assert_eq!(
            &per_bank[..2],
            &[1, 1],
            "distinct 64-byte lines shared a bank"
        );

        let (merges, per_bank) = split_line_requests(&GpuConfig::baseline());
        assert_eq!(merges, 1, "one 128-byte line must merge");
        assert_eq!(per_bank.iter().sum::<u64>(), 1);
    }

    #[test]
    fn an_l2_hit_waits_for_the_fill_in_flight() {
        let bvh = occluder_bvh();
        let batch = RayBatch::from_rays(&[]);
        let config = GpuConfig::baseline();
        let mut shared = SharedMemory::new(&config, bvh.layout().footprint_bytes());
        let mut first = SmEngine::new(&config, &bvh, &batch, None, None, 0);
        let mut second = SmEngine::new(&config, &bvh, &batch, None, None, 1);
        let fill = first.request_line(0, 0, &mut shared);
        let latency = config.latency;
        assert!(fill > 5 + latency.l1_hit + latency.l2_hit, "not an L2 miss");
        // The second SM's L1 misses and its L2 access hits the line the
        // first SM's miss installed, but the data is still on its way.
        assert_eq!(second.request_line(0, 5, &mut shared), fill);
        assert_eq!(shared.l2.stats().hits, 1);
        assert_eq!(shared.dram.stats().accesses, 1);
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
