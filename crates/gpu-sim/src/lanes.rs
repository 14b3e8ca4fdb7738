//! Intra-GPU lane sharding: per-lane event loops with a deterministic
//! merge.
//!
//! A *lane* is an independently advancing slice of one physical GPU — a
//! hard MIG partition, a disjoint MPS share, or a DMA engine — whose
//! kernels never observe another lane's state. The monolithic [`Gpu`]
//! engine re-divides the SMs among **all** running kernels of the device
//! and re-rates each one on every allocation-changing event, because any
//! compute kernel can, in principle, perturb any other through the shared
//! SM allocator and the memory-interference term; when the tenancy
//! structure actually partitions the device, that coupling is vacuous and
//! the device-wide recomputation is pure overhead. [`LaneEngine`] exploits
//! this: each lane runs its own [`Gpu`] (with per-lane event queue,
//! allocator pools, and interference scope), so per-event cost scales
//! with the *lane's* running kernels and pending events instead of the
//! device's — and lanes can advance side by side on the shared worker
//! pool ([`sim_core::pool`]) between interaction points.
//!
//! # The deterministic merge
//!
//! Everything a caller can observe — kernel completions, host wakes,
//! crashes, trace events — is merged into one stream ordered by
//!
//! ```text
//! (virtual time, lane id, intra-lane sequence)
//! ```
//!
//! [`LaneEngine::step_seq`] *is* that order, one event at a time: it
//! always steps the lane whose next pending event is earliest, breaking
//! ties by lane id (intra-lane order is the lane's own deterministic event
//! order). The parallel paths ([`LaneEngine::drain_par_into`],
//! [`LaneEngine::advance_par_until`]) let every lane run to the barrier
//! independently, buffering its outputs, then k-way merge the buffers by
//! the same key. Because lanes are isolated, a lane's evolution is a
//! function of its own inputs only — thread interleaving cannot change any
//! lane's stream — so the merged result is byte-identical to `step_seq` by
//! construction. The `lane_differential` integration test pins this with
//! request-log and trace digests.
//!
//! # What lanes give up
//!
//! Lanes model **fully isolated** shares: no cross-lane memory-bandwidth
//! interference and no shared SM pool. Workloads whose tenants genuinely
//! couple (semi-spatial shares spilling into the common pool, non-zero
//! channel demand across partition boundaries) belong on one lane
//! together — the `core` crate's lane hints derive exactly this grouping
//! from the squad/partition structure. Against the monolithic engine, a
//! lane-sharded run is bit-identical precisely when the workload is
//! decoupled (hard partitions, zero cross-lane interference); the
//! differential suite checks that anchor too. Fault plans apply per lane
//! (install one on a lane's [`Gpu`]); cross-lane fault coupling is out of
//! scope.
//!
//! Each lane's host timeline is independent. To model one shared host
//! thread launching into every lane (as the monolithic engine does), use
//! zero host costs per lane and carry the shared launch-overhead timeline
//! in the `extra` delay of [`Gpu::launch_delayed`] /
//! [`Gpu::launch_table_delayed`].

use sim_core::trace::{BufferSink, TraceEvent};
use sim_core::{pool, SimTime};

use crate::engine::{DeviceCheckpoint, Gpu, StepOutput};
use crate::spec::{GpuSpec, HostCosts};

/// One externally visible output, stamped with its virtual time and the
/// lane that produced it — the unit of the merged stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MergedOutput {
    /// Virtual time of the event that produced the output.
    pub at: SimTime,
    /// Index of the producing lane.
    pub lane: u32,
    /// The output itself.
    pub output: StepOutput,
}

/// One lane: its GPU plus reusable buffers for the parallel drain.
struct Lane {
    gpu: Gpu,
    /// Outputs of the current parallel round, in the lane's own
    /// deterministic order. Reused across rounds (capacity is retained).
    out: Vec<(SimTime, StepOutput)>,
    /// Handle on the lane's trace buffer when lane tracing is enabled.
    trace: Option<BufferSink>,
    /// Scratch the lane's trace events are drained into for merging.
    trace_buf: Vec<TraceEvent>,
}

/// A single GPU sharded into independently advancing lanes with a
/// deterministic merge (see the module docs).
pub struct LaneEngine {
    lanes: Vec<Lane>,
    /// Maximum OS threads the parallel paths may use.
    workers: usize,
    /// Per-lane read positions reused by the k-way merges.
    merge_pos: Vec<usize>,
}

impl LaneEngine {
    /// Builds an engine from pre-configured per-lane GPUs.
    ///
    /// Each GPU should carry one lane's contexts/queues only; the caller
    /// is asserting that the lanes are isolated from each other (hard
    /// partitions or zero cross-lane interference).
    pub fn from_gpus(gpus: Vec<Gpu>) -> Self {
        let workers = pool::workers(None, gpus.len());
        let lanes = gpus
            .into_iter()
            .map(|gpu| Lane {
                gpu,
                out: Vec::new(),
                trace: None,
                trace_buf: Vec::new(),
            })
            .collect();
        LaneEngine {
            lanes,
            workers,
            merge_pos: Vec::new(),
        }
    }

    /// Builds `lanes` identical empty lanes of `spec`/`costs`. Configure
    /// each lane's contexts and queues through [`LaneEngine::lane_mut`].
    pub fn homogeneous(spec: GpuSpec, costs: HostCosts, lanes: usize) -> Self {
        Self::from_gpus(
            (0..lanes)
                .map(|_| Gpu::new(spec.clone(), costs.clone()))
                .collect(),
        )
    }

    /// Number of lanes.
    pub fn num_lanes(&self) -> usize {
        self.lanes.len()
    }

    /// The lane's GPU.
    pub fn lane(&self, lane: usize) -> &Gpu {
        &self.lanes[lane].gpu
    }

    /// The lane's GPU, mutably (for context/queue setup and launches).
    pub fn lane_mut(&mut self, lane: usize) -> &mut Gpu {
        &mut self.lanes[lane].gpu
    }

    /// Caps the workers the parallel paths use (at least 1; at most one
    /// per lane). Defaults to the host's available parallelism. The
    /// worker count never affects results, only wall-clock.
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers.max(1);
    }

    /// Installs a buffering trace sink on every lane. Events are merged on
    /// demand by [`LaneEngine::merged_trace_into`].
    pub fn enable_tracing(&mut self) {
        for lane in &mut self.lanes {
            let sink = BufferSink::new();
            lane.gpu.set_trace_sink(Box::new(sink.clone()));
            lane.trace = Some(sink);
        }
    }

    /// True when every lane's device is idle with no pending events.
    pub fn is_idle(&self) -> bool {
        self.lanes
            .iter()
            .all(|l| l.gpu.is_device_idle() && l.gpu.peek_event_time().is_none())
    }

    /// The merged clock: the latest instant any lane has reached.
    pub fn virtual_now(&self) -> SimTime {
        self.lanes
            .iter()
            .map(|l| l.gpu.now())
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Earliest pending event across all lanes, if any.
    pub fn peek_event_time(&self) -> Option<SimTime> {
        self.lanes
            .iter()
            .filter_map(|l| l.gpu.peek_event_time())
            .min()
    }

    // ------------------------------------------------------------------
    // Sequential reference loop
    // ------------------------------------------------------------------

    /// Processes the globally next event — the lane with the earliest
    /// pending event, ties broken by lane id — and returns its output, if
    /// it produced one that is externally visible. Returns `None` only
    /// when no lane has events left.
    ///
    /// This is the sequential reference ("merge one event at a time"); the
    /// parallel paths must reproduce its output stream byte for byte.
    pub fn step_seq(&mut self) -> Option<MergedOutput> {
        loop {
            let mut best: Option<(SimTime, usize)> = None;
            for (i, lane) in self.lanes.iter().enumerate() {
                if let Some(t) = lane.gpu.peek_event_time() {
                    // Strict `<` keeps the lowest lane id on time ties.
                    if best.is_none_or(|(bt, _)| t < bt) {
                        best = Some((t, i));
                    }
                }
            }
            let (_, i) = best?;
            let lane = &mut self.lanes[i];
            if let Some(output) = lane.gpu.step() {
                return Some(MergedOutput {
                    at: lane.gpu.now(),
                    lane: i as u32,
                    output,
                });
            }
            // The event was internal (stale completion, poke): keep going.
        }
    }

    /// Drains every lane through [`LaneEngine::step_seq`], appending the
    /// merged stream to `out`. Allocation-free once `out` has reached its
    /// high-water capacity.
    pub fn drain_seq_into(&mut self, out: &mut Vec<MergedOutput>) {
        while let Some(m) = self.step_seq() {
            out.push(m);
        }
    }

    // ------------------------------------------------------------------
    // Parallel lane loops
    // ------------------------------------------------------------------

    /// Runs every lane to completion — concurrently when more than one
    /// worker is available — then merges the per-lane output streams by
    /// `(time, lane, intra-lane order)` into `out`.
    ///
    /// Byte-identical to [`LaneEngine::drain_seq_into`] for any worker
    /// count: lanes are isolated, so each lane's stream is independent of
    /// thread interleaving, and the merge key equals the sequential pick
    /// order. Reuses per-lane buffers; allocation-free in steady state
    /// aside from the pool's per-round thread spawning.
    pub fn drain_par_into(&mut self, out: &mut Vec<MergedOutput>) {
        self.run_lanes(None);
        self.merge_outputs(out);
    }

    /// Runs every lane up to (but not including) `limit` — concurrently
    /// when possible — then merges outputs like
    /// [`LaneEngine::drain_par_into`]. Events at exactly `limit` stay
    /// pending, so the caller can inject cross-lane work (new launches,
    /// shared-state updates) at the barrier deterministically.
    pub fn advance_par_until(&mut self, limit: SimTime, out: &mut Vec<MergedOutput>) {
        self.run_lanes(Some(limit));
        self.merge_outputs(out);
    }

    /// Quiesces the whole sharded device at `barrier` and exports its
    /// pending work as one portable checkpoint: every lane is advanced up
    /// to (but not including) the barrier — outputs merged into `out`
    /// exactly as [`LaneEngine::advance_par_until`] would — then each
    /// lane's engine is drained via [`Gpu::drain_snapshot`] and the
    /// per-lane checkpoints are concatenated in lane order (each lane's
    /// abandoned list is already in launch order, so per-queue FIFO is
    /// preserved inside every lane).
    ///
    /// After the call every lane is idle and permanently drained; the
    /// engine is done. Deterministic for any worker count: the abandoned
    /// set at a fixed barrier is a pure function of each lane's state.
    pub fn drain_snapshot(
        &mut self,
        barrier: SimTime,
        out: &mut Vec<MergedOutput>,
    ) -> DeviceCheckpoint {
        self.advance_par_until(barrier, out);
        let mut merged = DeviceCheckpoint {
            at: barrier,
            abandoned: Vec::new(),
        };
        for lane in &mut self.lanes {
            let ckpt = lane.gpu.drain_snapshot();
            merged.abandoned.extend(ckpt.abandoned);
        }
        merged
    }

    /// Advances each lane (to `limit`, or to completion when `None`),
    /// filling each lane's `out` buffer, on up to `self.workers` workers.
    fn run_lanes(&mut self, limit: Option<SimTime>) {
        pool::for_each_mut(&mut self.lanes, self.workers, |_, lane| match limit {
            Some(t) => lane.gpu.advance_until(t, &mut lane.out),
            None => lane.gpu.drain_outputs_into(&mut lane.out),
        });
    }

    /// K-way merge of the per-lane `out` buffers by
    /// `(time, lane, position)`, appending to `out` and clearing the lane
    /// buffers (their capacity is retained).
    fn merge_outputs(&mut self, out: &mut Vec<MergedOutput>) {
        self.merge_pos.clear();
        self.merge_pos.resize(self.lanes.len(), 0);
        let total: usize = self.lanes.iter().map(|l| l.out.len()).sum();
        out.reserve(total);
        for _ in 0..total {
            let mut best: Option<(SimTime, usize)> = None;
            for (i, lane) in self.lanes.iter().enumerate() {
                if let Some(&(t, _)) = lane.out.get(self.merge_pos[i]) {
                    if best.is_none_or(|(bt, _)| t < bt) {
                        best = Some((t, i));
                    }
                }
            }
            let Some((_, i)) = best else {
                debug_assert!(false, "merge position count mismatch");
                break;
            };
            let (at, output) = self.lanes[i].out[self.merge_pos[i]];
            self.merge_pos[i] += 1;
            out.push(MergedOutput {
                at,
                lane: i as u32,
                output,
            });
        }
        for lane in &mut self.lanes {
            lane.out.clear();
        }
    }

    // ------------------------------------------------------------------
    // Merged trace
    // ------------------------------------------------------------------

    /// Drains every lane's trace buffer (see
    /// [`LaneEngine::enable_tracing`]) and appends the events to `out`
    /// merged by `(time, lane, intra-lane order)` — the same rule as the
    /// output stream, so seq- and par-driven runs produce identical
    /// merged traces.
    pub fn merged_trace_into(&mut self, out: &mut Vec<(u32, TraceEvent)>) {
        for lane in &mut self.lanes {
            if let Some(sink) = &lane.trace {
                sink.take_into(&mut lane.trace_buf);
            }
        }
        self.merge_pos.clear();
        self.merge_pos.resize(self.lanes.len(), 0);
        let total: usize = self.lanes.iter().map(|l| l.trace_buf.len()).sum();
        out.reserve(total);
        for _ in 0..total {
            let mut best: Option<(SimTime, usize)> = None;
            for (i, lane) in self.lanes.iter().enumerate() {
                if let Some(ev) = lane.trace_buf.get(self.merge_pos[i]) {
                    let t = ev.at();
                    if best.is_none_or(|(bt, _)| t < bt) {
                        best = Some((t, i));
                    }
                }
            }
            let Some((_, i)) = best else {
                debug_assert!(false, "trace merge position count mismatch");
                break;
            };
            let ev = self.lanes[i].trace_buf[self.merge_pos[i]].clone();
            self.merge_pos[i] += 1;
            out.push((i as u32, ev));
        }
        for lane in &mut self.lanes {
            lane.trace_buf.clear();
        }
    }

    /// Convenience wrapper over [`LaneEngine::merged_trace_into`].
    pub fn merged_trace(&mut self) -> Vec<(u32, TraceEvent)> {
        let mut out = Vec::new();
        self.merged_trace_into(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::CtxKind;
    use crate::kernel::KernelDesc;
    use sim_core::SimDuration;

    fn two_lane_engine() -> LaneEngine {
        two_lane_engine_traced(false)
    }

    fn two_lane_engine_traced(trace: bool) -> LaneEngine {
        let mut eng = LaneEngine::homogeneous(GpuSpec::a100_with_sms(54), HostCosts::free(), 2);
        if trace {
            // Before any launch: untraced launches emit no later events.
            eng.enable_tracing();
        }
        for lane in 0..2 {
            let gpu = eng.lane_mut(lane);
            let ctx = gpu.create_context(CtxKind::Default).unwrap();
            let q = gpu.create_queue(ctx).unwrap();
            for i in 0..6u64 {
                let k = KernelDesc::compute(
                    "k",
                    SimDuration::from_micros(50 + 10 * (lane as u64 * 3 + i % 4)),
                    54,
                    0.2,
                );
                gpu.launch(q, k, (lane as u64) << 32 | i).unwrap();
            }
        }
        eng
    }

    #[test]
    fn seq_and_par_drains_match() {
        let mut a = two_lane_engine();
        let mut b = two_lane_engine();
        let mut seq = Vec::new();
        let mut par = Vec::new();
        a.drain_seq_into(&mut seq);
        b.drain_par_into(&mut par);
        assert_eq!(seq, par);
        assert!(a.is_idle() && b.is_idle());
        assert_eq!(seq.len(), 12);
    }

    #[test]
    fn merge_breaks_time_ties_by_lane() {
        // Identical lanes: every completion time ties across lanes and
        // must come out lane 0 first.
        let mut eng = LaneEngine::homogeneous(GpuSpec::a100_with_sms(54), HostCosts::free(), 3);
        for lane in 0..3 {
            let gpu = eng.lane_mut(lane);
            let ctx = gpu.create_context(CtxKind::Default).unwrap();
            let q = gpu.create_queue(ctx).unwrap();
            for i in 0..4u64 {
                let k = KernelDesc::compute("k", SimDuration::from_micros(100), 54, 0.0);
                gpu.launch(q, k, i).unwrap();
            }
        }
        let mut out = Vec::new();
        eng.drain_par_into(&mut out);
        assert_eq!(out.len(), 12);
        for group in out.chunks(3) {
            assert!(group.windows(2).all(|w| w[0].at == w[1].at));
            assert_eq!(
                group.iter().map(|m| m.lane).collect::<Vec<_>>(),
                vec![0, 1, 2]
            );
        }
    }

    #[test]
    fn barrier_leaves_later_events_pending() {
        let mut eng = two_lane_engine();
        let mut out = Vec::new();
        let barrier = SimTime::from_micros(200);
        eng.advance_par_until(barrier, &mut out);
        assert!(out.iter().all(|m| m.at < barrier));
        assert!(!eng.is_idle());
        let before = out.len();
        eng.drain_par_into(&mut out);
        assert!(out.len() > before);
        assert!(eng.is_idle());
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let mut baseline = two_lane_engine();
        let mut expect = Vec::new();
        baseline.drain_par_into(&mut expect);
        for workers in [1, 2, 8] {
            let mut eng = two_lane_engine();
            eng.set_workers(workers);
            let mut got = Vec::new();
            eng.drain_par_into(&mut got);
            assert_eq!(got, expect, "workers={workers}");
        }
    }

    #[test]
    fn merged_trace_matches_between_seq_and_par() {
        let mut a = two_lane_engine_traced(true);
        let mut b = two_lane_engine_traced(true);
        let mut sink = Vec::new();
        a.drain_seq_into(&mut sink);
        sink.clear();
        b.drain_par_into(&mut sink);
        let ta = a.merged_trace();
        let tb = b.merged_trace();
        assert!(!ta.is_empty());
        assert_eq!(ta, tb);
    }
}
