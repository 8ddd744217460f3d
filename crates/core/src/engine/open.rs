//! The open-system task source: graph instances arriving off a traffic
//! tape, many of them in flight at once.
//!
//! - **Arrivals, not a master thread.** Tape records become
//!   [`Ev::Source`] events interleaved into the ordinary queue; an
//!   admitted instance's tasks are all submitted at its arrival instant
//!   (the graph came off a tape, so the runtime knows it upfront), with
//!   per-task criticality levels precomputed once per *distinct
//!   workload*, not per instance.
//! - **Pooled per-instance state.** Each live instance owns a slot
//!   (indegree vector, remaining count, timestamps) recycled through a
//!   free list — thousands of concurrent instances reuse a few dozen
//!   slots' allocations. Global task ids are `slot · stride + local`, so
//!   scheduler queues can mix tasks of many instances.
//! - **Streaming metrics.** Completions fold into log-bucketed
//!   [`LatencyHistogram`]s (O(1) per sample, no allocation), because an
//!   open-system run can complete millions of instances.

use super::{Engine, Ev, TaskSource};
use crate::exp::error::ExpError;
use crate::exp::progress::{ProgressEvent, ProgressWriter};
use crate::exp::registry::{FactoryCtx, PolicyRegistries, ResolvedPolicies};
use crate::service::admission::{AdmissionCtx, AdmissionPolicy};
use crate::service::report::ServiceReport;
use crate::service::tape::{TapeRecord, TrafficTape};
use crate::service::ServiceSpec;
use cata_sim::progress::ExecProfile;
use cata_sim::stats::LatencyHistogram;
use cata_sim::time::{SimDuration, SimTime};
use cata_tdg::{GraphView, TaskGraph, TaskId};
use std::sync::Arc;

/// Heartbeat cadence of an observed run: one
/// [`ServiceSnapshot`](ProgressEvent::ServiceSnapshot) per this many
/// arrivals (plus one final snapshot at drain). Arrival-indexed rather
/// than wall-clocked so the emitted stream is a deterministic function of
/// the tape (only the `unix_ms` stamps differ between runs).
pub(crate) const SNAPSHOT_EVERY_ARRIVALS: u64 = 64;

/// One distinct workload: its graph plus the precomputed classification.
pub(crate) struct GraphEntry {
    graph: Arc<TaskGraph>,
    /// SoA snapshot of `graph` (CSR successors, predecessor counts).
    view: GraphView,
    pub(crate) label: String,
    /// Per-task criticality level (estimator's steady-state view).
    levels: Vec<u8>,
    /// Any task classifies critical — the instance-level flag admission
    /// policies see.
    critical: bool,
}

/// Builds each distinct workload of `tape` once and precomputes its
/// per-task criticality levels: a fresh estimator sees the whole graph
/// submitted in order (the steady-state view — every instance of a
/// workload classifies identically, which is also what makes the
/// per-arrival work O(tasks) instead of O(estimator)). A dynamic
/// estimator therefore classifies differently here than in a closed run,
/// which re-classifies each task when it becomes ready.
pub(crate) fn workload_table(
    tape: &TrafficTape,
    spec: &ServiceSpec,
    registries: &PolicyRegistries,
    resolved: &ResolvedPolicies,
) -> Result<Vec<GraphEntry>, ExpError> {
    let params = spec.base.params_or_default();
    let mut graphs = Vec::with_capacity(tape.workloads.len());
    for w in &tape.workloads {
        let (graph, label) = w.build_labeled_graph()?;
        let fctx = FactoryCtx {
            machine: &resolved.machine,
            is_fast_static: &resolved.is_fast_static,
            fast_cores: spec.base.fast_cores,
            seed: spec.base.seed,
            params: &params,
        };
        let mut est = registries.build_estimator(&spec.base.estimator, &fctx)?;
        for t in graph.task_ids() {
            est.on_submit(&graph, t);
        }
        let levels: Vec<u8> = graph
            .task_ids()
            .map(|t| est.classify_level(&graph, t))
            .collect();
        let critical = levels.iter().any(|&l| l > 0);
        // One SoA snapshot per *distinct* workload, shared by every
        // instance: arrivals seed indegrees from its predecessor counts
        // and completions walk its CSR successor spans.
        let view = GraphView::from_graph(&graph);
        graphs.push(GraphEntry {
            graph,
            view,
            label,
            levels,
            critical,
        });
    }
    Ok(graphs)
}

/// Pooled per-instance state, recycled through a free list.
#[derive(Debug, Default)]
struct Slot {
    /// Index into the workload table.
    graph: u32,
    /// Remaining unfinished predecessors per local task (buffer reused
    /// across instances).
    indegree: Vec<u32>,
    /// Tasks not yet completed.
    remaining: u32,
    /// Arrival instant.
    arrival: SimTime,
    /// First task assignment (end of queue wait), once dispatched.
    started: Option<SimTime>,
    /// Instance dropped by a shedding recovery policy mid-flight: its
    /// queued tasks are discarded at dispatch, completions of its
    /// already-running tasks are ignored, and the slot is retired (never
    /// recycled — a reused slot would alias stale queued global ids).
    shed: bool,
}

/// A traffic tape replayed as an arrival stream.
pub(crate) struct TapeArrivals<'g> {
    graphs: &'g [GraphEntry],
    records: &'g [TapeRecord],
    stride: u32,
    admission: Box<dyn AdmissionPolicy>,
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// Some instance was shed (only a fault-recovery policy sheds), so
    /// task ids must be checked against their slot's flag.
    any_shed: bool,
    /// Admitted instances not yet completed.
    live: usize,
    /// Next unconsumed tape record.
    next_rec: usize,
    arrivals: u64,
    admitted: u64,
    dropped: u64,
    completed: u64,
    latency: LatencyHistogram,
    queue_wait: LatencyHistogram,
    service_time: LatencyHistogram,
    /// Heartbeat sink of an observed run; `None` runs silently.
    progress: Option<&'g ProgressWriter>,
}

impl<'g> TapeArrivals<'g> {
    /// Replays `records` over the workload table `graphs`. Fails when the
    /// tape is too long for 32-bit global task ids.
    pub(crate) fn new(
        graphs: &'g [GraphEntry],
        records: &'g [TapeRecord],
        admission: Box<dyn AdmissionPolicy>,
        progress: Option<&'g ProgressWriter>,
    ) -> Result<Self, ExpError> {
        let stride = graphs
            .iter()
            .map(|g| g.graph.num_tasks())
            .max()
            .unwrap_or(0)
            .max(1) as u32;
        // Global ids are u32; slots ≤ arrivals, so this conservative bound
        // guarantees `slot · stride + local` never wraps.
        if (records.len() as u64 + 1).saturating_mul(u64::from(stride)) > u64::from(u32::MAX) {
            return Err(ExpError::InvalidSpec(format!(
                "tape of {} arrivals × stride {stride} exceeds the 2³² task-id space",
                records.len()
            )));
        }
        Ok(TapeArrivals {
            graphs,
            records,
            stride,
            admission,
            slots: Vec::new(),
            free: Vec::new(),
            any_shed: false,
            live: 0,
            next_rec: 0,
            arrivals: 0,
            admitted: 0,
            dropped: 0,
            completed: 0,
            latency: LatencyHistogram::new(),
            queue_wait: LatencyHistogram::new(),
            service_time: LatencyHistogram::new(),
            progress,
        })
    }

    /// Streams one heartbeat snapshot of the service accounting.
    /// Best-effort: a telemetry write error never fails the run.
    fn snapshot(&self, now: SimTime) {
        if let Some(w) = self.progress {
            let _ = w.emit(ProgressEvent::ServiceSnapshot {
                arrivals: self.arrivals,
                admitted: self.admitted,
                completed: self.completed,
                dropped: self.dropped,
                in_flight: self.live as u64,
                p99_ps: self.latency.quantile(0.99).as_ps(),
                sim_time_ps: now.as_ps(),
            });
        }
    }

    /// Splits a global task id into (slot index, local task id).
    #[inline]
    fn split(&self, task: TaskId) -> (usize, TaskId) {
        (
            (task.0 / self.stride) as usize,
            TaskId(task.0 % self.stride),
        )
    }

    /// The workload entry a global task id belongs to. Returned at the
    /// graph-table lifetime (not `&self`), so callers can keep it across
    /// mutations of engine state.
    #[inline]
    fn entry_of(&self, task: TaskId) -> &'g GraphEntry {
        let (slot, _) = self.split(task);
        let graphs = self.graphs;
        &graphs[self.slots[slot].graph as usize]
    }

    /// The instance's last task finished: fold its times into the
    /// streaming histograms and recycle the slot.
    fn finish_instance(&mut self, slot: usize, now: SimTime) {
        self.completed += 1;
        let s = &self.slots[slot];
        let started = s.started.unwrap_or(now);
        self.latency.record(now.since(s.arrival));
        self.queue_wait.record(started.since(s.arrival));
        self.service_time.record(now.since(started));
        self.live -= 1;
        self.free.push(slot as u32);
    }
}

/// Takes a slot off the free list (or grows the pool, and with it the
/// engine's id space) and stamps it for one instance of `graph`.
fn alloc_slot<'g>(e: &mut Engine<'g, TapeArrivals<'g>>, graph: u32, now: SimTime) -> u32 {
    let idx = match e.src.free.pop() {
        Some(i) => i,
        None => {
            let i = e.src.slots.len() as u32;
            e.src.slots.push(Slot::default());
            e.grow_id_space(e.src.slots.len() * e.src.stride as usize);
            i
        }
    };
    let entry = &e.src.graphs[graph as usize];
    let s = &mut e.src.slots[idx as usize];
    s.graph = graph;
    s.remaining = entry.graph.num_tasks() as u32;
    s.arrival = now;
    s.started = None;
    s.shed = false;
    // Indegree seeding is a copy of the view's predecessor-count array —
    // one memcpy per arriving instance instead of a vector-length read
    // per task.
    s.indegree.clear();
    s.indegree.extend_from_slice(entry.view.pred_counts());
    idx
}

impl<'g> TaskSource<'g> for TapeArrivals<'g> {
    fn id_space(&self) -> usize {
        // Grows with the slot pool.
        0
    }

    fn first_event(&mut self) -> Option<SimTime> {
        self.records.first().map(|r| SimTime::from_ps(r.at_ps))
    }

    /// One tape record: chain the next arrival, gate this one, and (if
    /// admitted) submit the whole instance.
    fn on_event(e: &mut Engine<'g, Self>, now: SimTime) {
        let rec = e.src.records[e.src.next_rec];
        e.src.next_rec += 1;
        if let Some(next) = e.src.records.get(e.src.next_rec) {
            e.events.push(SimTime::from_ps(next.at_ps), Ev::Source);
        }
        e.src.arrivals += 1;
        if e.src.arrivals.is_multiple_of(SNAPSHOT_EVERY_ARRIVALS) {
            e.src.snapshot(now);
        }

        let entry = &e.src.graphs[rec.workload as usize];
        let ctx = AdmissionCtx {
            now,
            in_flight: e.src.live,
            ready_tasks: e.policy.len(),
            critical: entry.critical,
            tenant: rec.tenant,
        };
        if !e.src.admission.admit(&ctx) {
            e.src.dropped += 1;
            return;
        }
        e.src.admitted += 1;

        if entry.graph.num_tasks() == 0 {
            // An empty instance completes the moment it is admitted.
            e.src.completed += 1;
            e.last_completion = e.last_completion.max(now);
            e.src.latency.record(SimDuration::ZERO);
            e.src.queue_wait.record(SimDuration::ZERO);
            e.src.service_time.record(SimDuration::ZERO);
            return;
        }

        let slot = alloc_slot(e, rec.workload, now);
        e.src.live += 1;
        let base = slot * e.src.stride;
        for t in entry.graph.task_ids() {
            if e.src.slots[slot as usize].indegree[t.index()] == 0 {
                e.make_ready(TaskId(base + t.0), entry.levels[t.index()]);
            }
        }
    }

    fn pending(&self) -> bool {
        // Drain: every admitted instance runs to completion, however far
        // past the arrival window its tail stretches.
        self.live > 0 || self.next_rec < self.records.len()
    }

    fn progress(&self) -> String {
        format!(
            "{} live instance(s), record {}/{}",
            self.live,
            self.next_rec,
            self.records.len()
        )
    }

    fn profile(&self, task: TaskId) -> &'g ExecProfile {
        let (_, local) = self.split(task);
        &self.entry_of(task).graph.task(local).profile
    }

    fn mem_ps(&self, task: TaskId) -> u64 {
        let (_, local) = self.split(task);
        self.entry_of(task).view.mem_ps(local)
    }

    fn level(&mut self, task: TaskId) -> u8 {
        let (_, local) = self.split(task);
        self.entry_of(task).levels[local.index()]
    }

    fn on_assign(&mut self, task: TaskId, now: SimTime) {
        // First dispatch of the instance ends its queue wait.
        let (slot, _) = self.split(task);
        self.slots[slot].started.get_or_insert(now);
    }

    #[inline]
    fn is_shed(&self, task: TaskId) -> bool {
        self.any_shed && self.slots[(task.0 / self.stride) as usize].shed
    }

    /// Retires the displaced task's whole instance: an open system can
    /// decline work, where a closed DAG cannot lose a node without
    /// deadlocking its successors. Queued siblings are discarded at
    /// dispatch and running siblings' completions are ignored. The slot
    /// is *not* recycled (stale global ids may still sit in scheduler
    /// queues and would alias a reused slot).
    fn shed(&mut self, task: TaskId) -> bool {
        let (slot, _) = self.split(task);
        self.slots[slot].shed = true;
        self.any_shed = true;
        self.live -= 1;
        true
    }

    fn release(e: &mut Engine<'g, Self>, task: TaskId, now: SimTime) {
        let (slot, local) = e.src.split(task);
        let entry = e.src.entry_of(task);
        let base = slot as u32 * e.src.stride;
        // CSR successor walk over the shared view — `entry` borrows the
        // `'g` workload table, not the engine, so the span iterates while
        // `make_ready` mutates engine state.
        for &s in entry.view.succs(local) {
            let d = &mut e.src.slots[slot].indegree[s.index()];
            debug_assert!(*d > 0, "indegree underflow at {s}");
            *d -= 1;
            if *d == 0 {
                e.make_ready(TaskId(base + s.0), entry.levels[s.index()]);
            }
        }
        e.src.slots[slot].remaining -= 1;
        if e.src.slots[slot].remaining == 0 {
            e.src.finish_instance(slot, now);
        }
    }

    fn service(&mut self, end: SimTime) -> Option<ServiceReport> {
        // Final heartbeat: the drained totals a tailing dashboard settles
        // on.
        self.snapshot(end);
        let secs = end.since(SimTime::ZERO).as_secs_f64();
        Some(ServiceReport {
            arrivals: self.arrivals,
            admitted: self.admitted,
            dropped: self.dropped,
            completed: self.completed,
            in_flight: self.live as u64,
            duration: end.since(SimTime::ZERO),
            graphs_per_sec: if secs > 0.0 {
                self.completed as f64 / secs
            } else {
                0.0
            },
            latency: std::mem::take(&mut self.latency),
            queue_wait: std::mem::take(&mut self.queue_wait),
            service_time: std::mem::take(&mut self.service_time),
        })
    }
}
