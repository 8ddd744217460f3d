//! The discrete-event engine: one core lifecycle, two task sources.
//!
//! The engine models the runtime the way the paper's Nanos++ setup works:
//!
//! - **worker cores** pull tasks from the policy's ready queues, paying a
//!   dispatch cost, then the acceleration manager's prologue (for software
//!   CATA this is the serialized RSM + cpufreq path), then execute the task
//!   body under the progress model (mid-task DVFS changes re-project
//!   completion), then run the manager's epilogue before going idle;
//! - blocked tasks halt their core (C1), which TurboMode exploits and CATA
//!   deliberately does not (§V-D);
//! - injected core failures, transient task and DVFS faults, and the
//!   slot-gated shared-memory model ride the same event queue.
//!
//! [`Engine`] owns all of that — the machine, per-core control, the idle
//! index, the event queue, criticality flags, memory-gate and fault state,
//! counters and trace — and defines every lifecycle handler once. Where
//! tasks come from is a [`TaskSource`], a generic parameter:
//!
//! - [`closed::ClosedGraph`]: one task graph submitted by a master thread
//!   in program order; each submission costs creation time plus (for
//!   `CATS+BL`) the bottom-level ancestor walk, so criticality estimation
//!   overhead delays task availability exactly as §V-A describes;
//! - [`open::TapeArrivals`]: graph instances arriving off a traffic tape
//!   into pooled slots, gated by admission control, with precomputed
//!   criticality levels and streaming latency histograms.
//!
//! A closed graph is the one-release case of an arrival stream, so the
//! two sources differ only in the hooks of [`TaskSource`].
//!
//! Determinism: all state transitions are driven by a deterministic event
//! queue; the only randomness (TurboMode's victim pick, fault draws) is
//! seeded from the run configuration. Same config + same input ⇒
//! bit-identical report.

pub(crate) mod closed;
pub(crate) mod open;

use crate::accel::{AccelEffects, AccelManager};
use crate::exp::error::ExpError;
use crate::exp::registry::ResolvedPolicies;
use crate::fault::{
    default_recovery_registry, fault_rng, FaultReport, FaultSpec, RecoveryAction, RecoveryCtx,
    RecoveryPolicy, SplitMix64,
};
use crate::mem::{default_arbitration_registry, MemoryReport, MemorySpec};
use crate::policy::{DispatchCtx, SchedulerPolicy};
use crate::report::RunReport;
use crate::service::ServiceReport;
use crate::sim_exec::EngineParams;
use cata_power::integrate_machine;
use cata_sim::activity::Activity;
use cata_sim::event::EventQueue;
use cata_sim::machine::{CoreId, Machine};
use cata_sim::memory::ArbitrationPolicy;
use cata_sim::progress::{ExecProfile, Milestone, RunningTask};
use cata_sim::stats::Counters;
use cata_sim::time::{SimDuration, SimTime};
use cata_sim::trace::{Trace, TraceEvent};
use cata_tdg::criticality::CriticalityEstimator;
use cata_tdg::{GraphView, TaskId};

/// Simulation events.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Ev {
    /// The task source's next event: the master finished submitting the
    /// next task (closed graph), or the next tape record arrives (open).
    Source,
    /// A core's runtime prologue finished; the task body begins.
    TaskBegin { core: u32, epoch: u64 },
    /// A running task reached its next milestone (complete/block/unblock).
    Milestone { core: u32, epoch: u64, gen: u64 },
    /// A core's runtime epilogue finished; it requests new work.
    CoreFree { core: u32, epoch: u64 },
    /// A DVFS transition may have settled on a core.
    DvfsSettle { core: u32 },
    /// An idle core's OS timeout expired; it halts (C1).
    IdleHalt { core: u32, epoch: u64 },
    /// A core stayed idle past the deceleration debounce; CATA may now
    /// release its budget.
    IdleDecel { core: u32, epoch: u64 },
    /// A scheduled fault fail-stops a core (fault injection only).
    CoreFail { core: u32, permanent: bool },
    /// A failed core's recovery window closed; it rejoins the machine.
    CoreRecover { core: u32 },
    /// A granted task's memory-bandwidth hold expired; the slot frees and
    /// arbitration picks the next waiter (contended memory only).
    MemRelease { core: u32, epoch: u64 },
}

/// Where tasks come from: everything a run does differently for one
/// closed graph and for an open arrival stream. Task ids are the
/// source's *global* ids; the engine only indexes its per-task flags by
/// them.
///
/// Hooks that need engine state (submitting ready tasks, pushing the next
/// source event) take the whole engine, so a source reads and writes
/// engine fields directly instead of through a second context type.
pub(crate) trait TaskSource<'g>: Sized {
    /// Global task ids in use at the start of the run (per-task engine
    /// vectors are sized to it; a growing source calls
    /// [`Engine::grow_id_space`]).
    fn id_space(&self) -> usize;
    /// When the first [`Ev::Source`] fires, if the source has any work.
    fn first_event(&mut self) -> Option<SimTime>;
    /// Handles an [`Ev::Source`] and schedules the next one.
    fn on_event(e: &mut Engine<'g, Self>, now: SimTime);
    /// Work remains: the run loop continues while this holds.
    fn pending(&self) -> bool;
    /// Where the run stands, for stall and deadlock messages.
    fn progress(&self) -> String;
    /// The execution profile of `task`'s body.
    fn profile(&self, task: TaskId) -> &'g ExecProfile;
    /// `task`'s frequency-invariant memory time, in picoseconds.
    fn mem_ps(&self, task: TaskId) -> u64;
    /// The criticality level `task` enters the ready queues with.
    fn level(&mut self, task: TaskId) -> u8;
    /// `task` was assigned to a core.
    fn on_assign(&mut self, _task: TaskId, _now: SimTime) {}
    /// `task` belongs to work the source has already given up on.
    fn is_shed(&self, _task: TaskId) -> bool {
        false
    }
    /// A recovery policy asked to drop displaced `task`: retire it and
    /// return true, or return false to requeue it instead.
    fn shed(&mut self, _task: TaskId) -> bool {
        false
    }
    /// `task` completed: release whatever it was holding back.
    fn release(e: &mut Engine<'g, Self>, task: TaskId, now: SimTime);
    /// The service metrics of a run ending at `end`.
    fn service(&mut self, _end: SimTime) -> Option<ServiceReport> {
        None
    }
    /// Hands buffers worth reusing back to the thread's scratch.
    fn recycle(self, _scratch: &mut EngineScratch) {}
}

/// What a core is doing, from the executor's point of view. The lifetime
/// is the task graphs': a running task borrows its profile from the graph
/// instead of cloning it per assignment.
#[derive(Debug)]
enum CoreRun<'g> {
    /// Spinning in the runtime idle loop.
    Idle,
    /// Halted in C1 (idle timeout, only with `idle_to_halt`).
    Halted,
    /// Running the runtime prologue (dispatch + acceleration path).
    Prologue { task: TaskId },
    /// Executing a task body.
    Running { task: TaskId, rt: RunningTask<'g> },
    /// Parked at the memory gate: the prologue finished but every
    /// bandwidth slot is taken. The core stays *busy* (spinning on the
    /// access), burning energy without progress — interference stretches
    /// wall time.
    MemWait { task: TaskId },
    /// Running the runtime epilogue (task-end acceleration path).
    Epilogue,
}

#[derive(Debug)]
struct CoreCtl<'g> {
    run: CoreRun<'g>,
    /// Bumped on every assignment; stale scheduled events are discarded by
    /// comparing epochs.
    epoch: u64,
    /// An IdleHalt event is pending for the current idle period.
    halt_scheduled: bool,
    /// The acceleration manager has been told about the current idle period.
    idle_notified: bool,
}

/// Sentinel for "not linked" in [`IdleIndex`].
const NIL: u32 = u32::MAX;

/// A persistent index of *available* (idle or halted) cores, kept in
/// dispatch order, so dispatch never builds or sorts a candidate list.
///
/// Dispatch order is `(preferred class, idle arrival)`: when the scheduler
/// prefers fast cores (CATS), static-fast cores form class 0 and everyone
/// else class 1; otherwise all cores share class 1 and the order is pure
/// idle-arrival FIFO. Each class is an intrusive doubly linked
/// list over fixed per-core link arrays: cores always *become* available
/// later than every core already listed (idle stamps are monotonic), so
/// insertion is an O(1) tail append, and assignment unlinks in O(1) from
/// anywhere. Zero allocations after [`reset`](Self::reset).
#[derive(Debug, Default)]
pub(crate) struct IdleIndex {
    next: Vec<u32>,
    prev: Vec<u32>,
    /// 0 = preferred (static-fast under a fast-preferring policy), 1 = rest.
    class: Vec<u8>,
    linked: Vec<bool>,
    /// Static speed class, for the `fast_core_idle` dispatch context.
    is_fast: Vec<bool>,
    head: [u32; 2],
    tail: [u32; 2],
    /// Available cores that are static-fast.
    avail_fast: usize,
}

impl IdleIndex {
    /// Re-initializes for a run: all `n` cores available in core order
    /// (their initial idle stamps are their indices), classed by
    /// `prefer_fast`/`is_fast_static`. Reuses every buffer.
    pub(crate) fn reset(&mut self, n: usize, prefer_fast: bool, is_fast_static: &[bool]) {
        self.next.clear();
        self.next.resize(n, NIL);
        self.prev.clear();
        self.prev.resize(n, NIL);
        self.linked.clear();
        self.linked.resize(n, false);
        self.class.clear();
        self.class.extend(
            is_fast_static
                .iter()
                .map(|&fast| u8::from(!(prefer_fast && fast))),
        );
        self.is_fast.clear();
        self.is_fast.extend_from_slice(is_fast_static);
        self.head = [NIL; 2];
        self.tail = [NIL; 2];
        self.avail_fast = 0;
        for i in 0..n {
            self.push(CoreId(i as u32));
        }
    }

    /// Appends a newly available core at the tail of its class list.
    pub(crate) fn push(&mut self, core: CoreId) {
        let i = core.index();
        debug_assert!(!self.linked[i], "{core} already available");
        let c = self.class[i] as usize;
        let t = self.tail[c];
        self.prev[i] = t;
        self.next[i] = NIL;
        if t == NIL {
            self.head[c] = core.0;
        } else {
            self.next[t as usize] = core.0;
        }
        self.tail[c] = core.0;
        self.linked[i] = true;
        if self.is_fast[i] {
            self.avail_fast += 1;
        }
    }

    /// Unlinks a core that got work assigned.
    pub(crate) fn remove(&mut self, core: CoreId) {
        let i = core.index();
        debug_assert!(self.linked[i], "{core} not available");
        let c = self.class[i] as usize;
        let (p, n) = (self.prev[i], self.next[i]);
        if p == NIL {
            self.head[c] = n;
        } else {
            self.next[p as usize] = n;
        }
        if n == NIL {
            self.tail[c] = p;
        } else {
            self.prev[n as usize] = p;
        }
        self.prev[i] = NIL;
        self.next[i] = NIL;
        self.linked[i] = false;
        if self.is_fast[i] {
            self.avail_fast -= 1;
        }
    }

    /// First core in dispatch order.
    pub(crate) fn first(&self) -> Option<CoreId> {
        let h = if self.head[0] != NIL {
            self.head[0]
        } else {
            self.head[1]
        };
        (h != NIL).then_some(CoreId(h))
    }

    /// The core visited after `core`. Capture this *before* removing
    /// `core`: the successor stays valid because dispatch only ever
    /// removes the core it is currently visiting.
    pub(crate) fn next_after(&self, core: CoreId) -> Option<CoreId> {
        let i = core.index();
        let n = self.next[i];
        if n != NIL {
            return Some(CoreId(n));
        }
        if self.class[i] == 0 && self.head[1] != NIL {
            return Some(CoreId(self.head[1]));
        }
        None
    }

    /// True if any static-fast core is available (idle or halted).
    pub(crate) fn any_fast_available(&self) -> bool {
        self.avail_fast > 0
    }

    /// True if `core` is currently linked as available — fault injection
    /// must evict a failing idle core, but only if it is actually listed.
    pub(crate) fn is_linked(&self, core: CoreId) -> bool {
        self.linked[core.index()]
    }
}

/// Per-run fault-injection state: the schedule's bookkeeping, the seeded
/// RNG, and the accumulating [`FaultReport`]. Present only when the
/// scenario carries a [`FaultSpec`]; fault-free runs never touch it.
struct FaultState {
    spec: FaultSpec,
    policy: Box<dyn RecoveryPolicy>,
    rng: SplitMix64,
    /// Per-core "currently failed" flag.
    failed: Vec<bool>,
    /// When each currently-failed core failed (capacity accounting).
    fail_since: Vec<Option<SimTime>>,
    /// Consecutive transient failures of the core's pending DVFS settle.
    settle_retries: Vec<u32>,
    /// Per-task transient-fault re-executions used (bounded by
    /// `max_retries` so a p=1 schedule still terminates).
    task_retries: Vec<u32>,
    /// When each displaced task was displaced (recovery-latency samples).
    displaced_at: Vec<Option<SimTime>>,
    report: FaultReport,
}

impl FaultState {
    fn new(
        spec: &FaultSpec,
        policy: Box<dyn RecoveryPolicy>,
        seed: u64,
        cores: usize,
        tasks: usize,
    ) -> Self {
        FaultState {
            spec: spec.clone(),
            policy,
            rng: fault_rng(seed),
            failed: vec![false; cores],
            fail_since: vec![None; cores],
            settle_retries: vec![0; cores],
            task_retries: vec![0; tasks],
            displaced_at: vec![None; tasks],
            report: FaultReport::default(),
        }
    }

    /// The failure schedule as `(time, event)` pushes for the run's event
    /// queue: each failure, then its recovery if it has one.
    fn schedule(&self) -> impl Iterator<Item = (SimTime, Ev)> + '_ {
        self.spec.core_failures.iter().flat_map(|f| {
            let at = SimTime::ZERO + f.at;
            let core = f.core as u32;
            let fail = Ev::CoreFail {
                core,
                permanent: f.recover_after.is_none(),
            };
            std::iter::once((at, fail))
                .chain(f.recover_after.map(|r| (at + r, Ev::CoreRecover { core })))
        })
    }
}

/// Per-run memory-gate state: the arbitration policy, per-core wait/hold
/// bookkeeping, and the accumulating [`MemoryReport`]. Present only when
/// the scenario carries a *contended* [`MemorySpec`]; uncontended runs
/// never touch it (and no
/// [`MemorySubsystem`](cata_sim::MemorySubsystem) is attached to the
/// machine, so the legacy model stays bit-identical).
struct MemState {
    policy: Box<dyn ArbitrationPolicy>,
    /// When each core's pending slot request was enqueued.
    wait_since: Vec<Option<SimTime>>,
    /// Per-core "currently holds a slot" flag — guards stale release
    /// events after faults and re-executions.
    holding: Vec<bool>,
    report: MemoryReport,
}

impl MemState {
    fn new(spec: &MemorySpec, policy: Box<dyn ArbitrationPolicy>, cores: usize) -> Self {
        MemState {
            policy,
            wait_since: vec![None; cores],
            holding: vec![false; cores],
            report: MemoryReport {
                slots: spec.slots,
                arbitration: spec.arbitration.clone(),
                ..MemoryReport::default()
            },
        }
    }
}

/// Retry penalty charged when a simulated DVFS settle write fails
/// transiently: the settle re-fires this much later. Deterministic and
/// deliberately small — the interesting effect is the *classification*
/// (recovered vs exhausted), not the delay model.
const RECONFIG_RETRY_DELAY: SimDuration = SimDuration::from_us(1);

/// Per-thread engine buffers reused across runs: suite workers batch many
/// small scenarios, and re-growing the event heap, dependence counters and
/// idle index for every one of them is measurable waste. Taken from a
/// thread-local by [`run`] and handed back after the run; the per-run
/// warm-up allocation therefore happens once per worker thread, not once
/// per scenario.
#[derive(Debug, Default)]
pub(crate) struct EngineScratch {
    events: EventQueue<Ev>,
    /// SoA snapshot of a closed run's graph (CSR successors, predecessor
    /// counts, criticality levels, work scalars), rebuilt per run.
    view: GraphView,
    /// A closed run's remaining-predecessor counts.
    indegree: Vec<u32>,
    crit: Vec<bool>,
    idle: IdleIndex,
}

thread_local! {
    static SCRATCH: std::cell::RefCell<EngineScratch> =
        std::cell::RefCell::new(EngineScratch::default());
}

/// Runs one engine execution with the thread's scratch buffers. `source`
/// builds the task source from the resolved criticality estimator and
/// the scratch (a closed graph reuses its view and indegree buffers).
///
/// Fault-free runs cannot fail; a faulted run fails cleanly when the
/// recovery key is unknown or the injected schedule stalls the machine.
pub(crate) fn run<'g, S: TaskSource<'g>>(
    cfg: &'g EngineParams,
    resolved: ResolvedPolicies,
    workload: &str,
    source: impl FnOnce(Box<dyn CriticalityEstimator>, &mut EngineScratch) -> S,
) -> Result<(RunReport, Trace), ExpError> {
    let recovery = match &cfg.faults {
        Some(f) => Some(default_recovery_registry().build(&f.recovery, f)?),
        None => None,
    };
    let arbitration = match &cfg.memory {
        Some(m) => Some(default_arbitration_registry().build(&m.arbitration, m)?),
        None => None,
    };
    SCRATCH.with(|cell| {
        let mut scratch = cell.take();
        let result = Engine::new(cfg, resolved, source, &mut scratch, recovery, arbitration)
            .run(workload, &mut scratch);
        cell.replace(scratch);
        result
    })
}

/// The engine proper: shared machine and core state, plus the source.
pub(crate) struct Engine<'g, S> {
    cfg: &'g EngineParams,
    src: S,
    machine: Machine,
    policy: Box<dyn SchedulerPolicy>,
    accel: Box<dyn AccelManager>,
    events: EventQueue<Ev>,
    cores: Vec<CoreCtl<'g>>,
    /// Available (idle/halted) cores in dispatch order; maintained
    /// incrementally so dispatch never builds or sorts a candidate list.
    idle: IdleIndex,
    /// Cores that entered the idle loop since the last dispatch; their
    /// decel debounce / halt timers still need arming.
    newly_idle: Vec<u32>,
    /// Criticality classification per global task id, assigned when a
    /// task becomes ready.
    crit: Vec<bool>,
    counters: Counters,
    trace: Trace,
    last_completion: SimTime,
    /// Time of the last processed event (≥ `last_completion`; the
    /// machine-finish instant even when trailing arrivals were dropped).
    horizon: SimTime,
    is_fast_static: Vec<bool>,
    /// Fault-injection bookkeeping; `None` on a perfect machine.
    fault: Option<FaultState>,
    /// Memory-gate bookkeeping; `None` on the uncontended machine.
    mem: Option<MemState>,
}

impl<'g, S: TaskSource<'g>> Engine<'g, S> {
    fn new(
        cfg: &'g EngineParams,
        resolved: ResolvedPolicies,
        source: impl FnOnce(Box<dyn CriticalityEstimator>, &mut EngineScratch) -> S,
        scratch: &mut EngineScratch,
        recovery: Option<Box<dyn RecoveryPolicy>>,
        arbitration: Option<Box<dyn ArbitrationPolicy>>,
    ) -> Self {
        let n_cores = cfg.machine.num_cores;
        assert!(
            cfg.fast_cores <= n_cores,
            "fast_cores {} exceeds machine size {n_cores}",
            cfg.fast_cores
        );

        let ResolvedPolicies {
            policy,
            estimator,
            accel,
            mut machine,
            is_fast_static,
            caps,
        } = resolved;
        let src = source(estimator, scratch);

        // A contended scenario attaches the shared memory subsystem to
        // the machine as an explicit component; uncontended runs leave
        // the machine exactly as the registry built it.
        let mem = cfg.memory.as_ref().zip(arbitration).map(|(spec, policy)| {
            machine.attach_memory(spec.slots as usize);
            MemState::new(spec, policy, n_cores)
        });

        let n = src.id_space();
        let mut events = std::mem::take(&mut scratch.events);
        // Pre-size from the machine: each core keeps a few events pending
        // (begin or milestone, free, settle, idle timers), plus the
        // source's next event. Reused buffers keep their allocation from
        // the previous run on this thread.
        events.ensure_backend(cfg.event_queue);
        events.reset();
        events.reserve(n_cores * 4 + 1);
        let mut crit = std::mem::take(&mut scratch.crit);
        crit.clear();
        crit.resize(n, false);
        let mut idle = std::mem::take(&mut scratch.idle);
        idle.reset(n_cores, caps.prefer_fast, &is_fast_static);

        Engine {
            cfg,
            src,
            machine,
            policy,
            accel,
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
            crit,
            counters: Counters::default(),
            trace: Trace::with_mode(cfg.trace),
            last_completion: SimTime::ZERO,
            horizon: SimTime::ZERO,
            is_fast_static,
            fault: cfg
                .faults
                .as_ref()
                .zip(recovery)
                .map(|(spec, policy)| FaultState::new(spec, policy, cfg.seed, n_cores, n)),
            mem,
        }
    }

    fn run(
        mut self,
        workload: &str,
        scratch: &mut EngineScratch,
    ) -> Result<(RunReport, Trace), ExpError> {
        // Controller initialization (TurboMode boots with budget assigned).
        let init = self.accel.on_init(&mut self.machine, SimTime::ZERO);
        self.push_settles(&init);
        if let Some(at) = self.src.first_event() {
            self.events.push(at, Ev::Source);
        }
        // The injected fault schedule rides the ordinary event queue.
        if let Some(fs) = &self.fault {
            for (at, ev) in fs.schedule() {
                self.events.push(at, ev);
            }
        }

        let result = self.drain().map(|()| self.report(workload));
        scratch.events = self.events;
        scratch.crit = self.crit;
        scratch.idle = self.idle;
        self.src.recycle(scratch);
        result.map(|report| (report, self.trace))
    }

    /// The event loop: runs until the source has no work left.
    fn drain(&mut self) -> Result<(), ExpError> {
        while self.src.pending() {
            let Some((now, ev)) = self.events.pop() else {
                let ready = self.policy.len();
                let Some(fs) = &self.fault else {
                    panic!(
                        "simulation deadlock: {}, queue len {ready}",
                        self.src.progress()
                    );
                };
                // An exhausted queue with work remaining is a *clean*
                // outcome under fault injection: the schedule removed the
                // capacity the rest of the run needed.
                let dead = fs.failed.iter().filter(|&&f| f).count();
                return Err(ExpError::Stalled(format!(
                    "fault schedule removed the capacity the run needed: \
                     {}, {ready} ready, {dead} core(s) failed",
                    self.src.progress()
                )));
            };
            self.horizon = now;
            self.counters.sim_events += 1;
            self.handle(now, ev);
            self.dispatch(now);
        }
        Ok(())
    }

    fn report(&mut self, workload: &str) -> RunReport {
        // The last processed event bounds every machine-activity stamp:
        // a closed run ends on its last completion, a service run may end
        // on a trailing dropped arrival or idle halt.
        let end = self.horizon.max(self.last_completion);
        let service = self.src.service(end);
        // Close the capacity ledger: cores still failed at run end lost
        // the remainder of the window.
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
        RunReport {
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
            // Counters/Full runs tally every event kind; surface the
            // tallies so stored sweep cells carry them for dashboards.
            trace_counts: self.trace.is_enabled().then(|| *self.trace.counts()),
            // The simulator always runs the spec's machine verbatim.
            effective_cores: None,
            service,
            fault,
            memory,
        }
    }

    /// Grows the per-task vectors to `n` global ids (a source whose id
    /// space expands as it allocates instance slots).
    fn grow_id_space(&mut self, n: usize) {
        self.crit.resize(n, false);
        if let Some(fs) = self.fault.as_mut() {
            if n > fs.task_retries.len() {
                fs.task_retries.resize(n, 0);
                fs.displaced_at.resize(n, None);
            }
        }
    }

    fn handle(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::Source => S::on_event(self, now),
            Ev::TaskBegin { core, epoch } => self.task_begin(CoreId(core), epoch, now),
            Ev::Milestone { core, epoch, gen } => self.milestone(CoreId(core), epoch, gen, now),
            Ev::CoreFree { core, epoch } => self.core_free(CoreId(core), epoch, now),
            Ev::DvfsSettle { core } => self.dvfs_settle(CoreId(core), now),
            Ev::IdleHalt { core, epoch } => self.idle_halt(CoreId(core), epoch, now),
            Ev::IdleDecel { core, epoch } => self.idle_decel(CoreId(core), epoch, now),
            Ev::CoreFail { core, permanent } => self.core_fail(CoreId(core), permanent, now),
            Ev::CoreRecover { core } => self.core_recover(CoreId(core), now),
            Ev::MemRelease { core, epoch } => self.mem_release(CoreId(core), epoch, now),
        }
    }

    /// Fail-stops a core: evict it from the idle index, cancel its
    /// pending events (epoch bump), and hand any in-flight task to the
    /// recovery policy. The acceleration manager is *not* notified — a
    /// dead accelerated core keeps its budget allocated, which is part of
    /// the capacity the failure costs.
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

        // An in-flight task (prologue, body, a blocked body, or parked at
        // the memory gate) dies with the core; a task in epilogue already
        // completed.
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

        // A failed core frees its memory-gate state: a held bandwidth
        // slot is released (a waiter may be granted right now), a queued
        // request is cancelled. This runs before displacement handling so
        // the freed slot flows to waiters even when the displaced task's
        // instance was already shed.
        if let Some(ms) = self.mem.as_mut() {
            if ms.holding[i] {
                ms.holding[i] = false;
                self.machine
                    .memory_mut()
                    .expect("memory subsystem")
                    .release();
                self.mem_grant(now);
            } else if ms.wait_since[i].take().is_some() {
                self.machine
                    .memory_mut()
                    .expect("memory subsystem")
                    .cancel_core(core);
            }
        }

        let Some(task) = displaced else {
            return;
        };
        if self.src.is_shed(task) {
            // Its instance was already shed (a sibling's failure): the
            // displaced task just evaporates with it.
            return;
        }
        let critical = self.crit[task.index()];
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
        let prefer_fast = match action {
            RecoveryAction::Requeue { prefer_fast } => prefer_fast,
            RecoveryAction::Shed if self.src.shed(task) => {
                fs.report.shed += 1;
                return;
            }
            // The source cannot drop the task (a closed DAG would
            // deadlock its successors): degrade to a plain requeue.
            RecoveryAction::Shed => false,
        };
        let mut level = self.src.level(task);
        if prefer_fast && level == 0 {
            level = 1;
            self.crit[task.index()] = true;
        }
        self.policy.enqueue(task, level);
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

    fn push_settles(&mut self, effects: &AccelEffects) {
        // The paper's safety property (§III-A): the *committed* fast-core
        // count — cores whose target level is fast — never exceeds the
        // power budget. Transient settled-level excursions bounded by the
        // transition latency can still occur during swaps (exactly as in
        // gem5's DVFS model, where a superseded down-ramp never dips); the
        // commitment invariant is the one reconfiguration serialization
        // protects.
        debug_assert!(
            self.machine.accelerated_count() <= self.cfg.fast_cores,
            "committed budget exceeded: {} > {}",
            self.machine.accelerated_count(),
            self.cfg.fast_cores
        );
        for &(at, core) in &effects.settles {
            self.events.push(at, Ev::DvfsSettle { core: core.0 });
        }
    }

    /// Submits a ready task to the scheduler at criticality `level`.
    fn make_ready(&mut self, task: TaskId, level: u8) {
        self.crit[task.index()] = level > 0;
        self.policy.enqueue(task, level);
    }

    /// Assign ready tasks to idle cores. CATS configurations offer idle
    /// *fast* cores first (so critical tasks land on them); FIFO serves
    /// cores in the order they went idle — the blind assignment the paper's
    /// baseline suffers from. The walk follows the persistent
    /// [`IdleIndex`]; assigning a core unlinks it, and the outer loop
    /// re-walks until a full pass assigns nothing — a slow core may only
    /// steal critical work once the pass that drained the last idle fast
    /// core is over.
    fn dispatch(&mut self, now: SimTime) {
        // `policy.len() == 0` ⇒ `dequeue` cannot serve anyone; skip the
        // walk entirely (the common case right after a milestone event).
        while !self.policy.is_empty() {
            let mut assigned = false;
            let mut cur = self.idle.first();
            while let Some(core) = cur {
                // Capture the successor first: `assign` unlinks `core`.
                let nxt = self.idle.next_after(core);
                let ctx = DispatchCtx {
                    fast_core_idle: self.idle.any_fast_available()
                        && !self.is_fast_static[core.index()],
                };
                if self.policy.has_work_for(core, ctx) {
                    if let Some(task) = self.policy.dequeue(core, ctx, &mut self.counters) {
                        assigned = true;
                        if self.src.is_shed(task) {
                            // A shed instance's queued task: discard it
                            // and let the same core draw again.
                            continue;
                        }
                        self.assign(core, task, now);
                    }
                }
                cur = nxt;
            }
            if !assigned {
                break;
            }
        }
        // Cores that entered the idle loop since the last dispatch: arm the
        // CATA deceleration debounce (§V-B deceleration fires only if the
        // core is *still* idle after the delay) and the OS halt timer if
        // configured. Only the cores on the `newly_idle` list are visited.
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
                        Ev::IdleDecel {
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
                            Ev::IdleHalt {
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
        // A displaced task landing on a survivor is a re-execution; the
        // displacement→re-dispatch gap is its recovery latency.
        if let Some(fs) = self.fault.as_mut() {
            if let Some(at) = fs.displaced_at[task.index()].take() {
                fs.report.reexecuted += 1;
                fs.report.recovery_latency.record(now.saturating_since(at));
            }
        }
        self.src.on_assign(task, now);
        self.idle.remove(core);
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
            self.trace.record(now, TraceEvent::Wake { core });
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
        let begin = e.resume_or(t);
        self.events.push(
            begin,
            Ev::TaskBegin {
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
        self.trace.record(
            now,
            TraceEvent::TaskStart {
                core,
                task: task.0,
                critical: self.crit[task.index()],
            },
        );
        self.gate_or_begin(core, task, now);
    }

    /// Routes a task about to execute through the shared-memory gate:
    /// with no contended subsystem (or no memory demand) the body begins
    /// immediately; otherwise the task acquires a bandwidth slot or parks
    /// in [`CoreRun::MemWait`] until arbitration grants one. The slot is
    /// held for the task's `mem_ps` of *wall* time (memory time is
    /// frequency-invariant) while the body runs concurrently.
    fn gate_or_begin(&mut self, core: CoreId, task: TaskId, now: SimTime) {
        let mem_ps = self.src.mem_ps(task);
        if self.mem.is_none() || mem_ps == 0 {
            self.begin_body(core, task, now);
            return;
        }
        let crit = self.crit[task.index()];
        let ms = self.mem.as_mut().expect("gate only runs contended");
        ms.report.requests += 1;
        ms.report.demand += SimDuration::from_ps(mem_ps);
        if crit {
            ms.report.crit_requests += 1;
        }
        let sub = self
            .machine
            .memory_mut()
            .expect("contended machine carries a memory subsystem");
        if sub.try_acquire() {
            ms.holding[core.index()] = true;
            ms.report.serviced += SimDuration::from_ps(mem_ps);
            let epoch = self.cores[core.index()].epoch;
            self.events.push(
                now + SimDuration::from_ps(mem_ps),
                Ev::MemRelease {
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

    /// Starts the task body on `core` (prologue finished and, when
    /// contended, the memory gate passed).
    fn begin_body(&mut self, core: CoreId, task: TaskId, now: SimTime) {
        let epoch = self.cores[core.index()].epoch;
        let rt = RunningTask::start(
            self.src.profile(task),
            now,
            self.machine.core(core).frequency(),
        );
        self.schedule_milestone(core, epoch, &rt);
        self.cores[core.index()].run = CoreRun::Running { task, rt };
    }

    /// A granted task's memory hold expired: free the slot and let the
    /// arbitration policy hand it to a waiter. Stale releases (the core
    /// failed, bumping its epoch, or no longer holds) are ignored.
    fn mem_release(&mut self, core: CoreId, epoch: u64, now: SimTime) {
        if self.cores[core.index()].epoch != epoch {
            return;
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
            .expect("memory subsystem")
            .release();
        self.mem_grant(now);
    }

    /// Drains freed bandwidth slots into waiting cores — one arbitration
    /// pick per free slot — recording each granted waiter's queueing
    /// delay and starting its parked body.
    fn mem_grant(&mut self, now: SimTime) {
        loop {
            let Some(ms) = self.mem.as_mut() else {
                return;
            };
            let sub = self.machine.memory_mut().expect("memory subsystem");
            let Some(req) = sub.grant(ms.policy.as_mut()) else {
                return;
            };
            let core = req.core;
            let wait = ms.wait_since[core.index()]
                .take()
                .map(|t| now.saturating_since(t))
                .unwrap_or(SimDuration::ZERO);
            ms.report.total_wait += wait;
            ms.report.max_wait = ms.report.max_wait.max(wait);
            if req.crit_level > 0 {
                ms.report.crit_wait += wait;
            }
            ms.report.serviced += wait + SimDuration::from_ps(req.mem_ps);
            ms.holding[core.index()] = true;
            let epoch = self.cores[core.index()].epoch;
            self.events.push(
                now + SimDuration::from_ps(req.mem_ps),
                Ev::MemRelease {
                    core: core.0,
                    epoch,
                },
            );
            let CoreRun::MemWait { task } = self.cores[core.index()].run else {
                debug_assert!(false, "granted {core} is not waiting on memory");
                continue;
            };
            self.begin_body(core, task, now);
        }
    }

    fn schedule_milestone(&mut self, core: CoreId, epoch: u64, rt: &RunningTask<'_>) {
        if let Some(m) = rt.next_milestone() {
            self.events.push(
                m.time(),
                Ev::Milestone {
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
                // Rounding left the milestone infinitesimally ahead;
                // re-schedule from the refreshed projection. The progress
                // model guarantees the new time is strictly later (a
                // sub-picosecond residue counts as reached), so this cannot
                // livelock.
                let rt2 = *rt;
                if let Some(m) = rt2.next_milestone() {
                    debug_assert!(m.time() > now, "milestone did not advance");
                }
                self.schedule_milestone(core, epoch, &rt2);
            }
            Some(Milestone::Completion(_)) => self.complete(core, task, now),
            Some(Milestone::BlockStart(_)) => {
                let rt2 = *rt;
                self.machine.set_activity(core, now, Activity::Halted);
                self.counters.halts += 1;
                self.trace.record(now, TraceEvent::Halt { core });
                let e = self
                    .accel
                    .on_core_halt(core, now, &mut self.machine, &mut self.counters);
                self.push_settles(&e);
                self.schedule_milestone(core, epoch, &rt2);
            }
            Some(Milestone::BlockEnd(_)) => {
                let rt2 = *rt;
                self.machine.set_activity(core, now, Activity::Busy);
                self.trace.record(now, TraceEvent::Wake { core });
                let e = self
                    .accel
                    .on_core_wake(core, now, &mut self.machine, &mut self.counters);
                self.push_settles(&e);
                self.schedule_milestone(core, epoch, &rt2);
            }
        }
    }

    fn complete(&mut self, core: CoreId, task: TaskId, now: SimTime) {
        if self.src.is_shed(task) {
            // The instance was shed while this task ran: discard the
            // completion (no successor release) and just free the core.
            self.counters.tasks_completed += 1;
            self.epilogue(core, now);
            return;
        }
        // Transient task fault: the completion is discarded and the body
        // re-executes in place, at most `max_retries` times per task (a
        // p=1 schedule still terminates). One RNG draw per eligible
        // completion, in event order — bit-identical per seed.
        if let Some(fs) = self.fault.as_mut() {
            if fs.spec.task_fault_p > 0.0
                && fs.task_retries[task.index()] < fs.spec.max_retries
                && fs.rng.next_unit() < fs.spec.task_fault_p
            {
                fs.task_retries[task.index()] += 1;
                fs.report.task_faults += 1;
                fs.report.reexecuted += 1;
                // The re-execution re-demands memory, so it routes back
                // through the gate like any fresh body (its earlier slot
                // hold expired at `begin + mem_ps`, before completion).
                self.gate_or_begin(core, task, now);
                return;
            }
        }
        self.trace
            .record(now, TraceEvent::TaskEnd { core, task: task.0 });
        self.counters.tasks_completed += 1;
        self.last_completion = self.last_completion.max(now);
        S::release(self, task, now);
        self.epilogue(core, now);
    }

    /// Runs the acceleration manager's task-end path; the core frees when
    /// it finishes.
    fn epilogue(&mut self, core: CoreId, now: SimTime) {
        let epoch = self.cores[core.index()].epoch;
        self.cores[core.index()].run = CoreRun::Epilogue;
        let e = self
            .accel
            .on_task_end(core, now, &mut self.machine, &mut self.counters);
        self.push_settles(&e);
        self.events.push(
            e.resume_or(now),
            Ev::CoreFree {
                core: core.0,
                epoch,
            },
        );
    }

    fn core_free(&mut self, core: CoreId, epoch: u64, now: SimTime) {
        let ctl = &mut self.cores[core.index()];
        if ctl.epoch != epoch {
            return;
        }
        debug_assert!(matches!(ctl.run, CoreRun::Epilogue));
        ctl.run = CoreRun::Idle;
        // Cores re-enter the idle index in completion order: the
        // longest-idle core is offered work first.
        self.idle.push(core);
        self.newly_idle.push(core.0);
        self.machine.set_activity(core, now, Activity::Idle);
        // The dispatch loop after this event hands out new work (or arms the
        // idle-halt timer).
    }

    fn dvfs_settle(&mut self, core: CoreId, now: SimTime) {
        // Transient reconfiguration-write failure: the settle re-fires
        // after a retry penalty, at most `max_retries` times; exhausted
        // writes are dropped and the core degrades to its current class.
        if let Some(fs) = self.fault.as_mut() {
            if fs.spec.reconfig_fail_p > 0.0 {
                let i = core.index();
                if fs.rng.next_unit() < fs.spec.reconfig_fail_p {
                    fs.report.reconfig_faults += 1;
                    if fs.settle_retries[i] < fs.spec.max_retries {
                        fs.settle_retries[i] += 1;
                        self.events
                            .push(now + RECONFIG_RETRY_DELAY, Ev::DvfsSettle { core: core.0 });
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
        }
        if let Some(level) = self.machine.settle(core, now) {
            self.trace
                .record(now, TraceEvent::ReconfigApplied { core, level });
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
            return; // got work (or a new idle period) in the meantime
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
        self.trace.record(now, TraceEvent::Halt { core });
        let e = self
            .accel
            .on_core_halt(core, now, &mut self.machine, &mut self.counters);
        self.push_settles(&e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cores in dispatch order, walked the way dispatch walks them.
    fn order(idle: &IdleIndex) -> Vec<u32> {
        let mut out = Vec::new();
        let mut cur = idle.first();
        while let Some(core) = cur {
            out.push(core.0);
            cur = idle.next_after(core);
        }
        out
    }

    /// Cores 0 and 2 static-fast, 1 and 3 slow.
    const FAST: [bool; 4] = [true, false, true, false];

    #[test]
    fn prefer_fast_puts_static_fast_cores_first() {
        let mut idle = IdleIndex::default();
        idle.reset(4, true, &FAST);
        assert_eq!(order(&idle), [0, 2, 1, 3]);
        // Without the preference every core shares one class: core order.
        idle.reset(4, false, &FAST);
        assert_eq!(order(&idle), [0, 1, 2, 3]);
    }

    #[test]
    fn cores_rejoin_their_class_in_fifo_order() {
        let mut idle = IdleIndex::default();
        idle.reset(4, true, &FAST);
        for c in [0, 1, 2, 3] {
            idle.remove(CoreId(c));
        }
        assert_eq!(idle.first(), None);
        for c in [3, 2, 1, 0] {
            idle.push(CoreId(c));
        }
        // Fast class first, each class in the order its cores came back.
        assert_eq!(order(&idle), [2, 0, 3, 1]);
    }

    #[test]
    fn remove_unlinks_head_middle_and_tail() {
        let mut idle = IdleIndex::default();
        idle.reset(5, false, &[false; 5]);
        idle.remove(CoreId(2)); // middle
        assert_eq!(order(&idle), [0, 1, 3, 4]);
        idle.remove(CoreId(0)); // head
        assert_eq!(order(&idle), [1, 3, 4]);
        idle.remove(CoreId(4)); // tail
        assert_eq!(order(&idle), [1, 3]);
        assert!(!idle.is_linked(CoreId(4)));
        // A re-pushed core lands behind the survivors.
        idle.push(CoreId(0));
        assert_eq!(order(&idle), [1, 3, 0]);
    }

    #[test]
    fn next_after_crosses_from_the_fast_class_to_the_rest() {
        let mut idle = IdleIndex::default();
        idle.reset(4, true, &FAST);
        assert_eq!(idle.next_after(CoreId(2)), Some(CoreId(1)));
        assert_eq!(idle.next_after(CoreId(3)), None);
        // An empty slow class ends the walk at the fast tail.
        idle.remove(CoreId(1));
        idle.remove(CoreId(3));
        assert_eq!(idle.next_after(CoreId(2)), None);
        // An empty fast class starts the walk in the slow class.
        idle.push(CoreId(3));
        idle.remove(CoreId(0));
        idle.remove(CoreId(2));
        assert_eq!(idle.first(), Some(CoreId(3)));
    }

    #[test]
    fn fast_availability_tracks_push_and_remove() {
        let mut idle = IdleIndex::default();
        // The count follows static speed whether or not fast is preferred.
        for prefer_fast in [true, false] {
            idle.reset(4, prefer_fast, &FAST);
            assert!(idle.any_fast_available());
            idle.remove(CoreId(0));
            assert!(idle.any_fast_available());
            idle.remove(CoreId(2));
            assert!(!idle.any_fast_available());
            idle.remove(CoreId(1));
            assert!(!idle.any_fast_available());
            idle.push(CoreId(2));
            assert!(idle.any_fast_available());
        }
    }

    #[test]
    fn reset_reuses_buffers_across_run_sizes() {
        let mut idle = IdleIndex::default();
        idle.reset(
            8,
            true,
            &[true, true, false, false, true, false, false, false],
        );
        idle.remove(CoreId(4));
        let cap = idle.next.capacity();
        // A smaller run starts from a clean index in the same buffers.
        idle.reset(3, true, &[false, true, false]);
        assert_eq!(order(&idle), [1, 0, 2]);
        assert!(idle.is_linked(CoreId(2)));
        assert_eq!(idle.next.capacity(), cap);
        // And a larger one again, with no state left from either.
        idle.reset(6, false, &[false; 6]);
        assert_eq!(order(&idle), [0, 1, 2, 3, 4, 5]);
        assert!(!idle.any_fast_available());
        assert_eq!(idle.next.capacity(), cap);
    }
}
