//! The open-system discrete-event engine: one simulation hosting many
//! concurrent graph instances.
//!
//! Mirrors the closed-system engine in [`crate::sim_exec`] — same core
//! lifecycle (prologue → body milestones → epilogue), same policy /
//! estimator / acceleration-manager surfaces, same idle-index dispatch
//! walk — with three structural differences:
//!
//! - **Arrivals, not a master thread.** Tape records become `Arrival`
//!   events interleaved into the ordinary queue; an admitted instance's
//!   tasks are all submitted at its arrival instant (the graph came off
//!   a tape, so the runtime knows it upfront), with per-task criticality
//!   levels precomputed once per *distinct workload*, not per instance.
//! - **Pooled per-instance state.** Each live instance owns a slot
//!   (indegree vector, remaining count, timestamps) recycled through a
//!   free list — thousands of concurrent instances reuse a few dozen
//!   slots' allocations. Global task ids are `slot · stride + local`,
//!   so scheduler queues can mix tasks of many instances.
//! - **Streaming metrics.** Completions fold into log-bucketed
//!   [`LatencyHistogram`]s (O(1) per sample, no allocation), because an
//!   open-system run can complete millions of instances.

use super::admission::{AdmissionCtx, AdmissionPolicy, AdmissionRegistry};
use super::report::ServiceReport;
use super::spec::{ArrivalSpec, ServiceSpec};
use super::tape::{TapeRecord, TrafficTape};
use crate::accel::{AccelEffects, AccelManager};
use crate::exp::error::ExpError;
use crate::exp::progress::{ProgressEvent, ProgressWriter};
use crate::exp::registry::{FactoryCtx, PolicyKeys, PolicyRegistries, ResolvedPolicies};
use crate::exp::suite::derive_seed;
use crate::fault::{default_recovery_registry, RecoveryAction, RecoveryCtx, RecoveryPolicy};
use crate::mem::default_arbitration_registry;
use crate::policy::{DispatchCtx, SchedulerPolicy};
use crate::report::RunReport;
use crate::sim_exec::{EngineParams, FaultState, IdleIndex, MemState, RECONFIG_RETRY_DELAY};
use cata_power::integrate_machine;
use cata_sim::activity::Activity;
use cata_sim::event::EventQueue;
use cata_sim::machine::{CoreId, Machine};
use cata_sim::memory::ArbitrationPolicy;
use cata_sim::progress::{Milestone, RunningTask};
use cata_sim::stats::{Counters, LatencyHistogram};
use cata_sim::time::{SimDuration, SimTime};
use cata_tdg::{GraphView, TaskGraph, TaskId};
use std::sync::Arc;

/// Seed-stream tag for arrival generation, so the traffic draw is
/// decorrelated from the run seed the policies see.
const ARRIVAL_STREAM: u64 = 0x7A9E_0001;

/// Heartbeat cadence of an observed run: one
/// [`ServiceSnapshot`](ProgressEvent::ServiceSnapshot) per this many
/// arrivals (plus one final snapshot at drain). Arrival-indexed rather
/// than wall-clocked so the emitted stream is a deterministic function of
/// the tape (only the `unix_ms` stamps differ between runs).
const SNAPSHOT_EVERY_ARRIVALS: u64 = 64;

/// Runs a service spec end to end: generates the traffic tape its
/// arrival process describes, replays it, and returns both the report
/// and the tape (so callers can store/record the traffic they measured).
///
/// Record → replay bit-identity holds by construction: this function
/// *only* generates the tape and delegates to [`replay_tape`], so a
/// recorded tape replays through exactly the code path that produced the
/// original report.
pub fn run_service(
    spec: &ServiceSpec,
    registries: &PolicyRegistries,
    admissions: &AdmissionRegistry,
) -> Result<(RunReport, TrafficTape), ExpError> {
    run_service_observed(spec, registries, admissions, None)
}

/// Like [`run_service`], with heartbeat telemetry: the engine streams a
/// [`ServiceSnapshot`](ProgressEvent::ServiceSnapshot) of its accounting
/// (arrivals, drops, in-flight, p99-so-far) into `progress` every
/// [`SNAPSHOT_EVERY_ARRIVALS`] arrivals plus once at drain. Heartbeats
/// are best-effort and purely observational — the report is bit-identical
/// with `None`.
pub fn run_service_observed(
    spec: &ServiceSpec,
    registries: &PolicyRegistries,
    admissions: &AdmissionRegistry,
    progress: Option<&ProgressWriter>,
) -> Result<(RunReport, TrafficTape), ExpError> {
    spec.validate()?;
    if matches!(spec.arrival, ArrivalSpec::Tape { .. }) {
        return Err(ExpError::InvalidSpec(
            "spec pins a traffic tape; load the tape file and call replay_tape".to_string(),
        ));
    }
    let tape = TrafficTape::generate(
        format!("{}-traffic", spec.base.name),
        &spec.arrival,
        spec.duration,
        spec.base.workload.clone(),
        derive_seed(spec.base.seed, ARRIVAL_STREAM),
    )?;
    let report = replay_tape_observed(spec, &tape, registries, admissions, progress)?;
    Ok((report, tape))
}

/// Replays a traffic tape under `spec`'s machine, policies, and
/// admission gate. Verifies the tape (and, for tape-pinned specs, the
/// digest pin) first. Same spec + same tape ⇒ bit-identical report.
pub fn replay_tape(
    spec: &ServiceSpec,
    tape: &TrafficTape,
    registries: &PolicyRegistries,
    admissions: &AdmissionRegistry,
) -> Result<RunReport, ExpError> {
    replay_tape_observed(spec, tape, registries, admissions, None)
}

/// Like [`replay_tape`], with heartbeat telemetry (see
/// [`run_service_observed`]).
pub fn replay_tape_observed(
    spec: &ServiceSpec,
    tape: &TrafficTape,
    registries: &PolicyRegistries,
    admissions: &AdmissionRegistry,
    progress: Option<&ProgressWriter>,
) -> Result<RunReport, ExpError> {
    spec.base.validate()?;
    let digest = tape.verify()?;
    if let ArrivalSpec::Tape { digest: pinned } = &spec.arrival {
        if !pinned.is_empty() && *pinned != digest {
            return Err(ExpError::InvalidSpec(format!(
                "spec pins traffic tape {pinned}, but the loaded tape digests to {digest}"
            )));
        }
    }
    let params = spec.base.params_or_default();
    let resolved = registries.resolve(
        &PolicyKeys {
            scheduler: spec.base.scheduler.clone(),
            estimator: spec.base.estimator.clone(),
            accel: spec.base.accel.clone(),
        },
        &spec.base.machine,
        spec.base.fast_cores,
        spec.base.seed,
        &params,
    )?;
    let admission = admissions.build(
        &spec.admission,
        &spec.admission_params.clone().unwrap_or_default(),
    )?;
    // Fault injection composes with admission control: admission gates
    // arrivals, the recovery policy handles tasks displaced by failures.
    let recovery: Option<Box<dyn RecoveryPolicy>> = match &spec.base.faults {
        Some(f) => Some(default_recovery_registry().build(&f.recovery, f)?),
        None => None,
    };

    // Build each distinct workload once and precompute its per-task
    // criticality levels: a fresh estimator sees the whole graph
    // submitted in order (the steady-state view — every instance of a
    // workload classifies identically, which is also what makes the
    // per-arrival work O(tasks) instead of O(estimator)).
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

    let stride = graphs
        .iter()
        .map(|g| g.graph.num_tasks())
        .max()
        .unwrap_or(0)
        .max(1) as u32;
    // Global ids are u32; slots ≤ arrivals, so this conservative bound
    // guarantees `slot · stride + local` never wraps.
    if (tape.records.len() as u64 + 1).saturating_mul(u64::from(stride)) > u64::from(u32::MAX) {
        return Err(ExpError::InvalidSpec(format!(
            "tape of {} arrivals × stride {stride} exceeds the 2³² task-id space",
            tape.records.len()
        )));
    }

    let workload_label = if graphs.len() == 1 {
        graphs[0].label.clone()
    } else {
        tape.name.clone()
    };
    let mut engine_params = EngineParams::from(&spec.base);
    engine_params.event_queue = crate::exp::registry::default_event_queue_registry()
        .resolve_spec(spec.base.event_queue.as_deref())?;
    // Shared-memory contention composes with service load the same way
    // it does with a closed-system run: the gate slows execution, which
    // backs up the ready queues, which admission control then sees.
    let arbitration: Option<Box<dyn ArbitrationPolicy>> = match &engine_params.memory {
        Some(m) => Some(default_arbitration_registry().build(&m.arbitration, m)?),
        None => None,
    };
    let mut engine = ServiceEngine::new(
        engine_params,
        &graphs,
        &tape.records,
        stride,
        resolved,
        admission,
        recovery,
        arbitration,
    );
    engine.progress = progress;
    engine.run(&workload_label)
}

/// One distinct workload: its graph plus the precomputed classification.
struct GraphEntry {
    graph: Arc<TaskGraph>,
    /// SoA snapshot of `graph` (CSR successors, predecessor counts).
    view: GraphView,
    label: String,
    /// Per-task criticality level (estimator's steady-state view).
    levels: Vec<u8>,
    /// Any task classifies critical — the instance-level flag admission
    /// policies see.
    critical: bool,
}

/// Service-engine events: the closed-system engine's core lifecycle plus
/// tape arrivals.
#[derive(Debug, Clone, Copy)]
enum SEv {
    /// The next tape record's instance arrives.
    Arrival,
    /// A core's runtime prologue finished; the task body begins.
    TaskBegin { core: u32, epoch: u64 },
    /// A running task reached its next milestone.
    Milestone { core: u32, epoch: u64, gen: u64 },
    /// A core's runtime epilogue finished; it requests new work.
    CoreFree { core: u32, epoch: u64 },
    /// A DVFS transition may have settled on a core.
    DvfsSettle { core: u32 },
    /// An idle core's OS timeout expired; it halts (C1).
    IdleHalt { core: u32, epoch: u64 },
    /// A core stayed idle past the deceleration debounce.
    IdleDecel { core: u32, epoch: u64 },
    /// Injected fault: the core fail-stops (forever if `permanent`).
    CoreFail { core: u32, permanent: bool },
    /// Injected fault schedule: a failed core's recovery window closed.
    CoreRecover { core: u32 },
    /// A granted task's memory-bandwidth hold expired; the slot frees and
    /// arbitration picks the next waiter (contended memory only).
    MemRelease { core: u32, epoch: u64 },
}

/// What a core is doing (task ids are *global*: `slot·stride + local`).
#[derive(Debug)]
enum CoreRun<'g> {
    Idle,
    Halted,
    Prologue {
        task: TaskId,
    },
    Running {
        task: TaskId,
        rt: RunningTask<'g>,
    },
    /// Parked at the memory gate: every bandwidth slot is taken. The
    /// core stays busy (spinning on the access) until arbitration grants
    /// a slot.
    MemWait {
        task: TaskId,
    },
    Epilogue,
}

#[derive(Debug)]
struct CoreCtl<'g> {
    run: CoreRun<'g>,
    epoch: u64,
    halt_scheduled: bool,
    idle_notified: bool,
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

struct ServiceEngine<'g> {
    cfg: EngineParams,
    graphs: &'g [GraphEntry],
    records: &'g [TapeRecord],
    stride: u32,
    machine: Machine,
    policy: Box<dyn SchedulerPolicy>,
    accel: Box<dyn AccelManager>,
    admission: Box<dyn AdmissionPolicy>,
    events: EventQueue<SEv>,
    cores: Vec<CoreCtl<'g>>,
    idle: IdleIndex,
    /// Cores that entered the idle loop since the last dispatch; their
    /// decel debounce / halt timers still need arming.
    newly_idle: Vec<u32>,
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// Criticality per global task id (sized `slots.len() · stride`).
    crit: Vec<bool>,
    /// Admitted instances not yet completed.
    live: usize,
    /// Next unconsumed tape record.
    next_rec: usize,
    counters: Counters,
    last_completion: SimTime,
    /// Time of the last processed event (≥ `last_completion`; the
    /// machine-finish instant even when trailing arrivals were dropped).
    horizon: SimTime,
    is_fast_static: Vec<bool>,
    // Service accounting.
    arrivals: u64,
    admitted: u64,
    dropped: u64,
    completed: u64,
    latency: LatencyHistogram,
    queue_wait: LatencyHistogram,
    service_time: LatencyHistogram,
    /// Fault-injection bookkeeping; `None` on fault-free runs.
    fault: Option<FaultState>,
    /// Memory-gate bookkeeping; `None` on the uncontended machine.
    mem: Option<MemState>,
    /// Heartbeat sink of an observed run; `None` runs silently.
    progress: Option<&'g ProgressWriter>,
}

impl<'g> ServiceEngine<'g> {
    #[allow(clippy::too_many_arguments)] // one constructor, one call site
    fn new(
        cfg: EngineParams,
        graphs: &'g [GraphEntry],
        records: &'g [TapeRecord],
        stride: u32,
        resolved: ResolvedPolicies,
        admission: Box<dyn AdmissionPolicy>,
        recovery: Option<Box<dyn RecoveryPolicy>>,
        arbitration: Option<Box<dyn ArbitrationPolicy>>,
    ) -> Self {
        let n_cores = cfg.machine.num_cores;
        // The per-task vectors start empty and grow with the slot pool.
        let fault = cfg
            .faults
            .as_ref()
            .zip(recovery)
            .map(|(spec, policy)| FaultState::new(spec, policy, cfg.seed, n_cores, 0));
        let ResolvedPolicies {
            policy,
            estimator: _,
            accel,
            mut machine,
            is_fast_static,
            caps,
        } = resolved;

        // A contended scenario attaches the shared memory subsystem to
        // the machine, exactly as the closed-system engine does.
        let mem = cfg.memory.as_ref().zip(arbitration).map(|(spec, policy)| {
            machine.attach_memory(spec.slots as usize);
            MemState::new(spec, policy, n_cores)
        });

        // A few pending events per core (as in the closed engine), plus
        // the next arrival.
        let mut events = EventQueue::with_backend(cfg.event_queue);
        events.reserve(n_cores * 4 + 1);
        let mut idle = IdleIndex::default();
        idle.reset(n_cores, caps.prefer_fast, &is_fast_static);

        ServiceEngine {
            cfg,
            graphs,
            records,
            stride,
            machine,
            policy,
            accel,
            admission,
            events,
            cores: (0..n_cores)
                .map(|_| CoreCtl {
                    run: CoreRun::Idle,
                    epoch: 0,
                    halt_scheduled: false,
                    idle_notified: false,
                })
                .collect(),
            idle,
            // Every core starts in the idle loop.
            newly_idle: (0..n_cores as u32).collect(),
            slots: Vec::new(),
            free: Vec::new(),
            crit: Vec::new(),
            live: 0,
            next_rec: 0,
            counters: Counters::default(),
            last_completion: SimTime::ZERO,
            horizon: SimTime::ZERO,
            is_fast_static,
            arrivals: 0,
            admitted: 0,
            dropped: 0,
            completed: 0,
            latency: LatencyHistogram::new(),
            queue_wait: LatencyHistogram::new(),
            service_time: LatencyHistogram::new(),
            fault,
            mem,
            progress: None,
        }
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

    fn run(mut self, workload: &str) -> Result<RunReport, ExpError> {
        let init = self.accel.on_init(&mut self.machine, SimTime::ZERO);
        self.push_settles(&init);

        if let Some(first) = self.records.first() {
            self.events
                .push(SimTime::from_ps(first.at_ps), SEv::Arrival);
        }

        // The injected fault schedule rides the ordinary event queue.
        if let Some(fs) = &self.fault {
            for (at, ev) in fs.schedule_into(
                |core, permanent| SEv::CoreFail { core, permanent },
                |core| SEv::CoreRecover { core },
            ) {
                self.events.push(at, ev);
            }
        }

        // Drain: every admitted instance runs to completion, however far
        // past the arrival window its tail stretches.
        while self.live > 0 || self.next_rec < self.records.len() {
            let Some((now, ev)) = self.events.pop() else {
                if let Some(fs) = &self.fault {
                    // An exhausted queue with live instances is a *clean*
                    // outcome under fault injection: the schedule removed
                    // the capacity the tail needed.
                    let dead = fs.failed.iter().filter(|&&f| f).count();
                    return Err(ExpError::Stalled(format!(
                        "fault schedule removed the capacity the service run needed: \
                         {} live instance(s), record {}/{}, {} ready, {dead} core(s) failed",
                        self.live,
                        self.next_rec,
                        self.records.len(),
                        self.policy.len()
                    )));
                }
                panic!(
                    "service deadlock: {} live instances, record {}/{}, queue len {}",
                    self.live,
                    self.next_rec,
                    self.records.len(),
                    self.policy.len()
                );
            };
            self.horizon = now;
            self.counters.sim_events += 1;
            self.handle(now, ev);
            self.dispatch(now);
        }

        // The last processed event bounds every machine-activity stamp;
        // usually it *is* the last completion, but a trailing dropped
        // arrival or idle-halt can sit later.
        let end = self.horizon.max(self.last_completion);
        // Final heartbeat: the drained totals a tailing dashboard settles
        // on.
        self.snapshot(end);
        // Close the capacity ledger: cores still failed at run end lost
        // the remainder of the observation window.
        let fault = self.fault.take().map(|mut fs| {
            for i in 0..fs.failed.len() {
                if fs.failed[i] {
                    if let Some(t) = fs.fail_since[i].take() {
                        fs.report.capacity_lost += end.saturating_since(t);
                    }
                }
            }
            fs.report
        });
        let memory = self.mem.take().map(|ms| ms.report);
        self.machine.finish(end);
        let energy = integrate_machine(&self.machine, end.since(SimTime::ZERO), &self.cfg.power);
        let stats = self.accel.stats();
        let agg_core_time = end.as_ps().saturating_mul(self.machine.num_cores() as u64);
        let secs = end.since(SimTime::ZERO).as_secs_f64();
        let service = ServiceReport {
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
            latency: self.latency,
            queue_wait: self.queue_wait,
            service_time: self.service_time,
        };
        Ok(RunReport {
            label: self.cfg.label.clone(),
            workload: workload.to_string(),
            fast_cores: self.cfg.fast_cores,
            exec_time: end.since(SimTime::ZERO),
            energy,
            counters: self.counters.clone(),
            lock_waits: stats.lock_waits,
            reconfig_latencies: stats.latencies,
            reconfig_overhead: stats.overhead_total,
            reconfig_time_share: if agg_core_time == 0 {
                0.0
            } else {
                stats.overhead_total.as_ps() as f64 / agg_core_time as f64
            },
            core_utilization: self
                .machine
                .cores()
                .map(|c| c.timeline().utilization())
                .collect(),
            tasks: self.counters.tasks_completed as usize,
            trace_counts: None,
            effective_cores: None,
            service: Some(service),
            fault,
            memory,
        })
    }

    fn handle(&mut self, now: SimTime, ev: SEv) {
        match ev {
            SEv::Arrival => self.arrival(now),
            SEv::TaskBegin { core, epoch } => self.task_begin(CoreId(core), epoch, now),
            SEv::Milestone { core, epoch, gen } => self.milestone(CoreId(core), epoch, gen, now),
            SEv::CoreFree { core, epoch } => self.core_free(CoreId(core), epoch, now),
            SEv::DvfsSettle { core } => self.dvfs_settle(CoreId(core), now),
            SEv::IdleHalt { core, epoch } => self.idle_halt(CoreId(core), epoch, now),
            SEv::IdleDecel { core, epoch } => self.idle_decel(CoreId(core), epoch, now),
            SEv::CoreFail { core, permanent } => self.core_fail(CoreId(core), permanent, now),
            SEv::CoreRecover { core } => self.core_recover(CoreId(core), now),
            SEv::MemRelease { core, epoch } => self.mem_release(CoreId(core), epoch, now),
        }
    }

    /// One tape record: chain the next arrival, gate this one, and (if
    /// admitted) submit the whole instance.
    fn arrival(&mut self, now: SimTime) {
        let rec = self.records[self.next_rec];
        self.next_rec += 1;
        if let Some(next) = self.records.get(self.next_rec) {
            self.events.push(SimTime::from_ps(next.at_ps), SEv::Arrival);
        }
        self.arrivals += 1;
        if self.arrivals.is_multiple_of(SNAPSHOT_EVERY_ARRIVALS) {
            self.snapshot(now);
        }

        let entry = &self.graphs[rec.workload as usize];
        let ctx = AdmissionCtx {
            now,
            in_flight: self.live,
            ready_tasks: self.policy.len(),
            critical: entry.critical,
            tenant: rec.tenant,
        };
        if !self.admission.admit(&ctx) {
            self.dropped += 1;
            return;
        }
        self.admitted += 1;

        let n = entry.graph.num_tasks();
        if n == 0 {
            // An empty instance completes the moment it is admitted.
            self.completed += 1;
            self.last_completion = self.last_completion.max(now);
            self.latency.record(SimDuration::ZERO);
            self.queue_wait.record(SimDuration::ZERO);
            self.service_time.record(SimDuration::ZERO);
            return;
        }

        let slot_idx = self.alloc_slot(rec.workload, now);
        self.live += 1;
        let base = slot_idx * self.stride;
        for t in entry.graph.task_ids() {
            if self.slots[slot_idx as usize].indegree[t.index()] == 0 {
                self.make_ready(TaskId(base + t.0), entry.levels[t.index()]);
            }
        }
    }

    /// Takes a slot off the free list (or grows the pool) and stamps it
    /// for one instance of `graph`.
    fn alloc_slot(&mut self, graph: u32, now: SimTime) -> u32 {
        let idx = self.free.pop().unwrap_or_else(|| {
            let i = self.slots.len() as u32;
            self.slots.push(Slot::default());
            self.crit
                .resize(self.slots.len() * self.stride as usize, false);
            i
        });
        let entry = &self.graphs[graph as usize];
        let s = &mut self.slots[idx as usize];
        s.graph = graph;
        s.remaining = entry.graph.num_tasks() as u32;
        s.arrival = now;
        s.started = None;
        s.shed = false;
        // Indegree seeding is a copy of the view's predecessor-count
        // array — one memcpy per arriving instance instead of a
        // vector-length read per task.
        s.indegree.clear();
        s.indegree.extend_from_slice(entry.view.pred_counts());
        let id_space = self.slots.len() * self.stride as usize;
        if let Some(fs) = self.fault.as_mut() {
            fs.grow_tasks(id_space);
        }
        idx
    }

    fn make_ready(&mut self, task: TaskId, level: u8) {
        self.crit[task.index()] = level > 0;
        self.policy.enqueue(task, level);
    }

    /// True if `task` belongs to an instance a recovery policy shed.
    #[inline]
    fn is_shed(&self, task: TaskId) -> bool {
        self.fault.is_some() && self.slots[(task.0 / self.stride) as usize].shed
    }

    fn push_settles(&mut self, effects: &AccelEffects) {
        debug_assert!(
            self.machine.accelerated_count() <= self.cfg.fast_cores,
            "committed budget exceeded: {} > {}",
            self.machine.accelerated_count(),
            self.cfg.fast_cores
        );
        for &(at, core) in &effects.settles {
            self.events.push(at, SEv::DvfsSettle { core: core.0 });
        }
    }

    /// Identical walk to the closed-system engine's dispatch (same
    /// idle-index order, same idle-timer arming) — the scheduling
    /// semantics under service load are the paper's, only the task
    /// population differs.
    fn dispatch(&mut self, now: SimTime) {
        while !self.policy.is_empty() {
            let mut assigned = false;
            let mut cur = self.idle.first();
            while let Some(core) = cur {
                let nxt = self.idle.next_after(core);
                let ctx = DispatchCtx {
                    fast_core_idle: self.idle.any_fast_available()
                        && !self.is_fast_static[core.index()],
                };
                if self.policy.has_work_for(core, ctx) {
                    if let Some(task) = self.policy.dequeue(core, ctx, &mut self.counters) {
                        if self.is_shed(task) {
                            // A shed instance's queued task: discard it and
                            // let the same core draw again.
                            assigned = true;
                            continue;
                        }
                        self.assign(core, task, now);
                        assigned = true;
                    }
                }
                cur = nxt;
            }
            if !assigned {
                break;
            }
        }
        if !self.newly_idle.is_empty() {
            // Ascending core order, as a scan over every core would push
            // (a core listed twice is armed once: the flags guard it). The
            // list holds at most one core after the first dispatch.
            if self.newly_idle.len() > 1 {
                self.newly_idle.sort_unstable();
            }
            for &i in &self.newly_idle {
                let c = &mut self.cores[i as usize];
                // Skip a listed core this dispatch already put to work.
                if !matches!(c.run, CoreRun::Idle) {
                    continue;
                }
                if !c.idle_notified {
                    c.idle_notified = true;
                    self.events.push(
                        now + self.cfg.idle_decel_delay,
                        SEv::IdleDecel {
                            core: i,
                            epoch: c.epoch,
                        },
                    );
                }
                if let Some(delay) = self.cfg.idle_to_halt {
                    if !c.halt_scheduled {
                        c.halt_scheduled = true;
                        self.events.push(
                            now + delay,
                            SEv::IdleHalt {
                                core: i,
                                epoch: c.epoch,
                            },
                        );
                    }
                }
            }
            self.newly_idle.clear();
        }
        // Every entry into the idle loop must be on the list: no idle core
        // may be left without its timers.
        debug_assert!(
            self.cores.iter().all(|c| !matches!(c.run, CoreRun::Idle)
                || (c.idle_notified && (c.halt_scheduled || self.cfg.idle_to_halt.is_none()))),
            "an idle core missed its idle-timer arming"
        );
    }

    fn assign(&mut self, core: CoreId, task: TaskId, now: SimTime) {
        self.idle.remove(core);
        // A displaced task landing on a survivor closes its recovery
        // window: this dispatch is the re-execution.
        if let Some(fs) = self.fault.as_mut() {
            if let Some(at) = fs.displaced_at[task.index()].take() {
                fs.report.reexecuted += 1;
                fs.report.recovery_latency.record(now.saturating_since(at));
            }
        }
        // First dispatch of the instance ends its queue wait.
        let (slot, _) = self.split(task);
        if self.slots[slot].started.is_none() {
            self.slots[slot].started = Some(now);
        }

        let was_halted = matches!(self.cores[core.index()].run, CoreRun::Halted);
        let ctl = &mut self.cores[core.index()];
        ctl.epoch += 1;
        ctl.halt_scheduled = false;
        ctl.idle_notified = false;
        let epoch = ctl.epoch;
        ctl.run = CoreRun::Prologue { task };
        self.machine.set_activity(core, now, Activity::Busy);

        let mut t = now;
        if was_halted {
            let e = self
                .accel
                .on_core_wake(core, now, &mut self.machine, &mut self.counters);
            self.push_settles(&e);
            t += self.cfg.wake_latency;
        }
        t += self.cfg.costs.dispatch;

        let critical = self.crit[task.index()];
        let e = self
            .accel
            .on_task_start(core, critical, t, &mut self.machine, &mut self.counters);
        self.push_settles(&e);
        self.events.push(
            e.resume_or(t),
            SEv::TaskBegin {
                core: core.0,
                epoch,
            },
        );
    }

    fn task_begin(&mut self, core: CoreId, epoch: u64, now: SimTime) {
        let ctl = &mut self.cores[core.index()];
        if ctl.epoch != epoch {
            return; // stale
        }
        let CoreRun::Prologue { task } = ctl.run else {
            return;
        };
        self.gate_or_begin(core, task, now);
    }

    /// Routes a task that is ready to execute through the shared-memory
    /// gate: memory-free tasks (and uncontended machines) start the body
    /// immediately; a memory-demanding task either acquires a bandwidth
    /// slot or parks in [`CoreRun::MemWait`] until arbitration grants one.
    fn gate_or_begin(&mut self, core: CoreId, task: TaskId, now: SimTime) {
        let (_, local) = self.split(task);
        let mem_ps = self.entry_of(task).view.mem_ps(local);
        if self.mem.is_none() || mem_ps == 0 {
            self.begin_body(core, task, now);
            return;
        }
        let crit = self.crit[task.index()];
        let ms = self.mem.as_mut().expect("checked above");
        ms.report.requests += 1;
        ms.report.demand += SimDuration::from_ps(mem_ps);
        if crit {
            ms.report.crit_requests += 1;
        }
        let sub = self
            .machine
            .memory_mut()
            .expect("memory subsystem attached when MemState exists");
        if sub.try_acquire() {
            ms.holding[core.index()] = true;
            ms.report.serviced += SimDuration::from_ps(mem_ps);
            let epoch = self.cores[core.index()].epoch;
            self.events.push(
                now + SimDuration::from_ps(mem_ps),
                SEv::MemRelease {
                    core: core.0,
                    epoch,
                },
            );
            self.begin_body(core, task, now);
        } else {
            sub.enqueue(core, u8::from(crit), mem_ps);
            ms.report.waited += 1;
            ms.wait_since[core.index()] = Some(now);
            self.cores[core.index()].run = CoreRun::MemWait { task };
        }
    }

    /// Starts the task body proper (after any memory gating).
    fn begin_body(&mut self, core: CoreId, task: TaskId, now: SimTime) {
        let (_, local) = self.split(task);
        let entry = self.entry_of(task);
        let rt = RunningTask::start(
            &entry.graph.task(local).profile,
            now,
            self.machine.core(core).frequency(),
        );
        let epoch = self.cores[core.index()].epoch;
        self.schedule_milestone(core, epoch, &rt);
        self.cores[core.index()].run = CoreRun::Running { task, rt };
    }

    /// A granted hold expired: free the bandwidth slot and run the
    /// arbitration policy over the wait queue.
    fn mem_release(&mut self, core: CoreId, epoch: u64, now: SimTime) {
        if self.cores[core.index()].epoch != epoch {
            return; // the hold was already torn down (core failed)
        }
        let Some(ms) = self.mem.as_mut() else {
            return;
        };
        if !ms.holding[core.index()] {
            return;
        }
        ms.holding[core.index()] = false;
        self.machine
            .memory_mut()
            .expect("memory subsystem attached when MemState exists")
            .release();
        self.mem_grant(now);
    }

    /// Grants freed bandwidth slots to queued waiters until either runs
    /// out, charging each grantee its measured wait.
    fn mem_grant(&mut self, now: SimTime) {
        loop {
            let Some(ms) = self.mem.as_mut() else {
                return;
            };
            let sub = self
                .machine
                .memory_mut()
                .expect("memory subsystem attached when MemState exists");
            let Some(req) = sub.grant(ms.policy.as_mut()) else {
                return;
            };
            let core = req.core;
            let wait = ms.wait_since[core.index()]
                .take()
                .map(|since| now.saturating_since(since))
                .unwrap_or(SimDuration::ZERO);
            ms.report.total_wait += wait;
            if wait > ms.report.max_wait {
                ms.report.max_wait = wait;
            }
            if req.crit_level > 0 {
                ms.report.crit_wait += wait;
            }
            ms.report.serviced += wait + SimDuration::from_ps(req.mem_ps);
            ms.holding[core.index()] = true;
            let epoch = self.cores[core.index()].epoch;
            self.events.push(
                now + SimDuration::from_ps(req.mem_ps),
                SEv::MemRelease {
                    core: core.0,
                    epoch,
                },
            );
            let CoreRun::MemWait { task } = self.cores[core.index()].run else {
                debug_assert!(false, "granted core {core} was not in MemWait");
                continue;
            };
            self.begin_body(core, task, now);
        }
    }

    fn schedule_milestone(&mut self, core: CoreId, epoch: u64, rt: &RunningTask<'_>) {
        if let Some(m) = rt.next_milestone() {
            self.events.push(
                m.time(),
                SEv::Milestone {
                    core: core.0,
                    epoch,
                    gen: rt.generation(),
                },
            );
        }
    }

    fn milestone(&mut self, core: CoreId, epoch: u64, gen: u64, now: SimTime) {
        let ctl = &mut self.cores[core.index()];
        if ctl.epoch != epoch {
            return;
        }
        let CoreRun::Running { task, ref mut rt } = ctl.run else {
            return;
        };
        if rt.generation() != gen {
            return; // superseded by a frequency change
        }
        match rt.advance_to(now) {
            None => {
                let rt2 = *rt;
                self.schedule_milestone(core, epoch, &rt2);
            }
            Some(Milestone::Completion(_)) => self.complete(core, task, now),
            Some(Milestone::BlockStart(_)) => {
                let rt2 = *rt;
                self.machine.set_activity(core, now, Activity::Halted);
                self.counters.halts += 1;
                let e = self
                    .accel
                    .on_core_halt(core, now, &mut self.machine, &mut self.counters);
                self.push_settles(&e);
                self.schedule_milestone(core, epoch, &rt2);
            }
            Some(Milestone::BlockEnd(_)) => {
                let rt2 = *rt;
                self.machine.set_activity(core, now, Activity::Busy);
                let e = self
                    .accel
                    .on_core_wake(core, now, &mut self.machine, &mut self.counters);
                self.push_settles(&e);
                self.schedule_milestone(core, epoch, &rt2);
            }
        }
    }

    fn complete(&mut self, core: CoreId, task: TaskId, now: SimTime) {
        let (slot, local) = self.split(task);

        // The instance was shed while this task ran: discard the
        // completion (no successor propagation, no histogram sample) and
        // just free the core.
        if self.fault.is_some() && self.slots[slot].shed {
            self.counters.tasks_completed += 1;
            let epoch = self.cores[core.index()].epoch;
            self.cores[core.index()].run = CoreRun::Epilogue;
            let e = self
                .accel
                .on_task_end(core, now, &mut self.machine, &mut self.counters);
            self.push_settles(&e);
            self.events.push(
                e.resume_or(now),
                SEv::CoreFree {
                    core: core.0,
                    epoch,
                },
            );
            return;
        }

        // Injected transient task fault: the completion is void and the
        // task re-executes in place on the same core (bounded retries so
        // a p=1 schedule still terminates).
        if let Some(fs) = self.fault.as_mut() {
            if fs.spec.task_fault_p > 0.0
                && fs.task_retries[task.index()] < fs.spec.max_retries
                && fs.rng.next_unit() < fs.spec.task_fault_p
            {
                fs.task_retries[task.index()] += 1;
                fs.report.task_faults += 1;
                fs.report.reexecuted += 1;
                // Re-execution re-demands memory: the earlier hold expired
                // at begin + mem_ps, which is never after this completion.
                self.gate_or_begin(core, task, now);
                return;
            }
        }

        self.counters.tasks_completed += 1;
        self.last_completion = self.last_completion.max(now);

        let entry = self.entry_of(task);
        let base = slot as u32 * self.stride;
        // CSR successor walk over the shared view — `entry` borrows the
        // `'g` workload table, not `self`, so the span iterates while
        // `make_ready` mutates engine state.
        for &s in entry.view.succs(local) {
            let d = &mut self.slots[slot].indegree[s.index()];
            debug_assert!(*d > 0, "indegree underflow at {s}");
            *d -= 1;
            if *d == 0 {
                self.make_ready(TaskId(base + s.0), entry.levels[s.index()]);
            }
        }
        self.slots[slot].remaining -= 1;
        if self.slots[slot].remaining == 0 {
            self.finish_instance(slot, now);
        }

        let epoch = self.cores[core.index()].epoch;
        self.cores[core.index()].run = CoreRun::Epilogue;
        let e = self
            .accel
            .on_task_end(core, now, &mut self.machine, &mut self.counters);
        self.push_settles(&e);
        self.events.push(
            e.resume_or(now),
            SEv::CoreFree {
                core: core.0,
                epoch,
            },
        );
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

    fn core_free(&mut self, core: CoreId, epoch: u64, now: SimTime) {
        let ctl = &mut self.cores[core.index()];
        if ctl.epoch != epoch {
            return;
        }
        debug_assert!(matches!(ctl.run, CoreRun::Epilogue));
        ctl.run = CoreRun::Idle;
        self.idle.push(core);
        self.newly_idle.push(core.0);
        self.machine.set_activity(core, now, Activity::Idle);
    }

    fn dvfs_settle(&mut self, core: CoreId, now: SimTime) {
        // Injected transient reconfiguration fault: the settle write
        // fails; retry shortly, or — retries exhausted — stay at the
        // current class (degraded, not wedged).
        if let Some(fs) = self.fault.as_mut() {
            let i = core.index();
            if fs.spec.reconfig_fail_p > 0.0 && fs.rng.next_unit() < fs.spec.reconfig_fail_p {
                fs.report.reconfig_faults += 1;
                if fs.settle_retries[i] < fs.spec.max_retries {
                    fs.settle_retries[i] += 1;
                    self.events
                        .push(now + RECONFIG_RETRY_DELAY, SEv::DvfsSettle { core: core.0 });
                } else {
                    fs.settle_retries[i] = 0;
                    fs.report.reconfig_exhausted += 1;
                }
                return;
            }
            if fs.settle_retries[i] > 0 {
                fs.settle_retries[i] = 0;
                fs.report.reconfig_recovered += 1;
            }
        }
        if let Some(level) = self.machine.settle(core, now) {
            let epoch = self.cores[core.index()].epoch;
            if let CoreRun::Running { ref mut rt, .. } = self.cores[core.index()].run {
                rt.set_frequency(now, level.frequency);
                let rt2 = *rt;
                self.schedule_milestone(core, epoch, &rt2);
            }
        }
    }

    fn idle_decel(&mut self, core: CoreId, epoch: u64, now: SimTime) {
        let ctl = &self.cores[core.index()];
        if ctl.epoch != epoch || !matches!(ctl.run, CoreRun::Idle | CoreRun::Halted) {
            return;
        }
        let e = self
            .accel
            .on_core_idle(core, now, &mut self.machine, &mut self.counters);
        self.push_settles(&e);
    }

    fn idle_halt(&mut self, core: CoreId, epoch: u64, now: SimTime) {
        let ctl = &mut self.cores[core.index()];
        if ctl.epoch != epoch || !matches!(ctl.run, CoreRun::Idle) {
            return;
        }
        ctl.run = CoreRun::Halted;
        ctl.halt_scheduled = false;
        self.machine.set_activity(core, now, Activity::Halted);
        self.counters.halts += 1;
        let e = self
            .accel
            .on_core_halt(core, now, &mut self.machine, &mut self.counters);
        self.push_settles(&e);
    }

    /// Fail-stops a core under service load: evict it from the idle
    /// index, cancel its pending events (epoch bump), and hand any
    /// in-flight task to the recovery policy. Unlike the closed-system
    /// engine, `Shed` is honored here: it drops the displaced task's
    /// whole *instance* (an open system can decline work; a closed DAG
    /// cannot lose a node without deadlocking its successors).
    fn core_fail(&mut self, core: CoreId, permanent: bool, now: SimTime) {
        let i = core.index();
        let Some(fs) = self.fault.as_mut() else {
            return;
        };
        if fs.failed[i] {
            return; // overlapping windows: already down
        }
        fs.failed[i] = true;
        fs.fail_since[i] = Some(now);
        fs.report.injected += 1;

        let displaced = match self.cores[i].run {
            CoreRun::Prologue { task } => Some(task),
            CoreRun::Running { task, .. } => Some(task),
            CoreRun::MemWait { task } => Some(task),
            _ => None,
        };
        if self.idle.is_linked(core) {
            self.idle.remove(core);
        }
        let ctl = &mut self.cores[i];
        ctl.epoch += 1;
        ctl.halt_scheduled = false;
        ctl.idle_notified = false;
        ctl.run = CoreRun::Halted;
        self.machine.set_activity(core, now, Activity::Halted);

        // A failed core cannot keep a bandwidth slot (or a queue spot):
        // release before displacement handling so the freed slot flows to
        // waiters even when the displaced instance was already shed.
        if let Some(ms) = self.mem.as_mut() {
            if ms.holding[i] {
                ms.holding[i] = false;
                self.machine
                    .memory_mut()
                    .expect("memory subsystem attached when MemState exists")
                    .release();
                self.mem_grant(now);
            } else if ms.wait_since[i].take().is_some() {
                self.machine
                    .memory_mut()
                    .expect("memory subsystem attached when MemState exists")
                    .cancel_core(core);
            }
        }

        if let Some(task) = displaced {
            let (slot, local) = self.split(task);
            if self.slots[slot].shed {
                // The instance was already shed (a sibling's failure):
                // its displaced task just evaporates with it.
                return;
            }
            let critical = self.crit[task.index()];
            let level = self.entry_of(task).levels[local.index()];
            let fs = self.fault.as_mut().expect("fault state present");
            fs.report.displaced += 1;
            fs.displaced_at[task.index()] = Some(now);
            let action = fs.policy.on_displaced(&RecoveryCtx {
                now,
                failed_core: i,
                critical,
                permanent,
                degraded: true,
            });
            match action {
                RecoveryAction::Requeue { prefer_fast } => {
                    let mut level = level;
                    if prefer_fast && level == 0 {
                        level = 1;
                    }
                    self.make_ready(task, level);
                }
                RecoveryAction::Shed => {
                    fs.report.shed += 1;
                    // Retire the instance: the displaced task is dropped,
                    // queued siblings are discarded at dispatch, running
                    // siblings' completions are ignored. The slot is
                    // *not* recycled (stale global ids may still sit in
                    // scheduler queues and would alias a reused slot).
                    self.slots[slot].shed = true;
                    self.live -= 1;
                }
            }
        }
    }

    /// A failed core's recovery window closed: it rejoins the idle index
    /// and can take work again. Time spent down is charged to the
    /// capacity ledger.
    fn core_recover(&mut self, core: CoreId, now: SimTime) {
        let i = core.index();
        let Some(fs) = self.fault.as_mut() else {
            return;
        };
        if !fs.failed[i] {
            return;
        }
        fs.failed[i] = false;
        fs.report.recovered_cores += 1;
        if let Some(t) = fs.fail_since[i].take() {
            fs.report.capacity_lost += now.saturating_since(t);
        }
        let ctl = &mut self.cores[i];
        ctl.epoch += 1;
        ctl.run = CoreRun::Idle;
        ctl.halt_scheduled = false;
        ctl.idle_notified = false;
        self.idle.push(core);
        self.newly_idle.push(core.0);
        self.machine.set_activity(core, now, Activity::Idle);
    }
}
