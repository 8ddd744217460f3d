//! The closed-system executor: runs one task graph on the simulated
//! machine under one of the paper's six configurations and measures
//! everything the figures need.
//!
//! [`SimExecutor`] resolves a configuration or a scenario spec into
//! `EngineParams` and policies, then runs the discrete-event engine
//! (`crate::engine`) with a closed-graph task source: the runtime's
//! master thread submits the graph in program order. Service mode runs
//! the same engine with an arrival-stream source instead (see
//! [`crate::service`]).
//!
//! Determinism: same config + same graph ⇒ bit-identical report.

use crate::config::{RunConfig, RuntimeCosts};
use crate::engine::{self, closed::ClosedGraph};
use crate::exp::error::ExpError;
use crate::exp::registry::{default_registries, PolicyRegistries, ResolvedPolicies};
use crate::exp::spec::ScenarioSpec;
use crate::fault::FaultSpec;
use crate::mem::MemorySpec;
use crate::report::RunReport;
use cata_power::PowerParams;
use cata_sim::event::EventBackend;
use cata_sim::machine::MachineConfig;
use cata_sim::time::SimDuration;
use cata_sim::trace::{Trace, TraceMode};
use cata_tdg::TaskGraph;

/// Every non-policy knob the engine needs: the common denominator of
/// [`RunConfig`] (the enum-based compat surface) and
/// [`ScenarioSpec`](crate::exp::ScenarioSpec) (the registry-keyed facade).
#[derive(Debug, Clone)]
pub(crate) struct EngineParams {
    pub label: String,
    pub machine: MachineConfig,
    pub fast_cores: usize,
    pub costs: RuntimeCosts,
    pub idle_to_halt: Option<SimDuration>,
    pub idle_decel_delay: SimDuration,
    pub wake_latency: SimDuration,
    pub power: PowerParams,
    pub trace: TraceMode,
    pub seed: u64,
    pub faults: Option<FaultSpec>,
    pub event_queue: EventBackend,
    /// Contended shared-memory model; `None` (or a noop spec, filtered at
    /// construction) keeps the uncontended legacy machine bit-identical.
    pub memory: Option<MemorySpec>,
}

impl From<&RunConfig> for EngineParams {
    fn from(cfg: &RunConfig) -> Self {
        EngineParams {
            label: cfg.label.clone(),
            machine: cfg.machine.clone(),
            fast_cores: cfg.fast_cores,
            costs: cfg.costs,
            idle_to_halt: cfg.idle_to_halt,
            idle_decel_delay: cfg.idle_decel_delay,
            wake_latency: cfg.wake_latency,
            power: cfg.power.clone(),
            trace: cfg.trace,
            seed: cfg.seed,
            // The enum-based compat surface predates fault injection;
            // faulted runs go through `ScenarioSpec`.
            faults: None,
            event_queue: cata_sim::event::default_backend(),
            memory: None,
        }
    }
}

impl EngineParams {
    /// The engine knobs of a scenario spec, with its event-queue key
    /// resolved through the registry — the one place a spec's
    /// engine-level keys are resolved, for closed and service runs alike
    /// (recovery and arbitration keys resolve when the engine starts).
    pub(crate) fn for_spec(spec: &ScenarioSpec) -> Result<Self, ExpError> {
        Ok(EngineParams {
            label: spec.name.clone(),
            machine: spec.machine.clone(),
            fast_cores: spec.fast_cores,
            costs: spec.costs,
            idle_to_halt: spec.idle_to_halt,
            idle_decel_delay: spec.idle_decel_delay,
            wake_latency: spec.wake_latency,
            power: spec.power.clone(),
            trace: spec.trace,
            seed: spec.seed,
            faults: spec.faults.clone(),
            event_queue: crate::exp::registry::default_event_queue_registry()
                .resolve_spec(spec.event_queue.as_deref())?,
            // An unlimited-slot spec is the uncontended model: filter it
            // here so the engine's fast path stays gate-free.
            memory: spec.memory.clone().filter(|m| !m.is_noop()),
        })
    }
}

/// Runs `graph` as a closed task source on the thread's engine scratch.
fn run_graph(
    params: &EngineParams,
    resolved: ResolvedPolicies,
    graph: &TaskGraph,
    workload: &str,
) -> Result<(RunReport, Trace), ExpError> {
    engine::run(params, resolved, workload, |estimator, scratch| {
        ClosedGraph::new(graph, params.costs, estimator, scratch)
    })
}

/// The discrete-event executor.
///
/// Two ways to drive it:
///
/// - **Legacy, enum-based**: [`SimExecutor::new`] with a [`RunConfig`],
///   then [`run`](Self::run) with a pre-built graph. The enums resolve
///   through the default policy registries.
/// - **Facade**: a default-constructed `SimExecutor` implements
///   [`Executor`](crate::exp::Executor); a
///   [`Scenario`](crate::exp::Scenario) fully describes the run (machine,
///   workload, policies, seed), and
///   [`run_scenario`](Self::run_scenario) /
///   [`run_scenario_traced`](Self::run_scenario_traced) execute it.
#[derive(Debug, Default)]
pub struct SimExecutor {
    cfg: Option<RunConfig>,
}

impl SimExecutor {
    /// Creates an executor bound to one enum-based configuration.
    pub fn new(cfg: RunConfig) -> Self {
        SimExecutor { cfg: Some(cfg) }
    }

    /// The bound configuration, if any (`None` for a pure facade backend).
    pub fn config(&self) -> Option<&RunConfig> {
        self.cfg.as_ref()
    }

    /// Runs `graph` to completion and reports. `workload` is a label.
    ///
    /// # Panics
    /// Panics if no [`RunConfig`] is bound, the configuration is
    /// inconsistent (budget > cores), or the simulation deadlocks (a
    /// task-graph bug).
    pub fn run(&self, graph: &TaskGraph, workload: &str) -> (RunReport, Trace) {
        let cfg = self
            .cfg
            .as_ref()
            .expect("SimExecutor::run requires a RunConfig; use run_scenario for specs");
        let resolved = default_registries()
            .resolve(
                &cfg.policy_keys(),
                &cfg.machine,
                cfg.fast_cores,
                cfg.seed,
                &cfg.policy_params(),
            )
            .unwrap_or_else(|e| panic!("RunConfig `{}` failed to resolve: {e}", cfg.label));
        // RunConfig carries no fault schedule, so the engine is infallible
        // on this path.
        run_graph(&EngineParams::from(cfg), resolved, graph, workload)
            .expect("fault-free runs cannot fail")
    }

    /// Executes a scenario spec end to end: resolves its policy keys
    /// through `registries`, generates its workload, simulates, reports.
    pub fn run_spec(
        &self,
        spec: &ScenarioSpec,
        registries: &PolicyRegistries,
    ) -> Result<(RunReport, Trace), ExpError> {
        spec.validate()?;
        let keys = crate::exp::registry::PolicyKeys {
            scheduler: spec.scheduler.clone(),
            estimator: spec.estimator.clone(),
            accel: spec.accel.clone(),
        };
        let params = spec.params_or_default();
        let resolve =
            || registries.resolve(&keys, &spec.machine, spec.fast_cores, spec.seed, &params);
        // Graph and report label come from one workload load, so a store
        // cell can never name a different revision of an unpinned TDG
        // file than the graph that actually ran.
        let (graph, label) = spec.workload.build_labeled_graph()?;
        let mut engine_params = EngineParams::for_spec(spec)?;
        let (mut report, trace) = run_graph(&engine_params, resolve()?, &graph, &label)?;
        // Faulted cells also run their fault-free twin (same spec, no
        // schedule) so the report carries makespan degradation — the
        // number the robustness tables plot.
        if report.fault.is_some() {
            engine_params.faults = None;
            engine_params.trace = TraceMode::Off;
            let (twin, _) = run_graph(&engine_params, resolve()?, &graph, &label)?;
            let faulted_ps = report.exec_time.as_ps();
            if let Some(fault) = report.fault.as_mut() {
                if twin.exec_time.as_ps() > 0 {
                    fault.makespan_degradation = faulted_ps as f64 / twin.exec_time.as_ps() as f64;
                }
            }
        }
        Ok((report, trace))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cata_sim::progress::ExecProfile;
    use cata_sim::trace::TraceEvent;
    use cata_tdg::TaskId;

    /// A small fork-join graph: src → 8 × work (4 critical) → sink.
    fn fork_join(work_cycles: u64) -> TaskGraph {
        let mut g = TaskGraph::new();
        let src_ty = g.add_type("src", 0);
        let crit_ty = g.add_type("crit", 1);
        let norm_ty = g.add_type("norm", 0);
        let src = g.add_task(src_ty, ExecProfile::new(1000, 0), &[]);
        let mut mids = Vec::new();
        for i in 0..8 {
            let ty = if i % 2 == 0 { crit_ty } else { norm_ty };
            // Critical tasks are 3× longer.
            let cycles = if i % 2 == 0 {
                work_cycles * 3
            } else {
                work_cycles
            };
            mids.push(g.add_task(ty, ExecProfile::new(cycles, 0), &[src]));
        }
        g.add_task(src_ty, ExecProfile::new(1000, 0), &mids);
        g
    }

    fn run_cfg(cfg: RunConfig, g: &TaskGraph) -> RunReport {
        SimExecutor::new(cfg).run(g, "test").0
    }

    /// Spec validation rejects schedules that kill every core up front;
    /// this drives the engine *below* that guard to pin the dying-machine
    /// contract: the run terminates with a clean `Stalled` error — it
    /// never hangs, never panics.
    #[test]
    fn all_cores_dead_terminates_with_stalled_error() {
        use crate::fault::{CoreFailure, FaultSpec};
        let g = fork_join(2_000_000);
        let cfg = RunConfig::fifo(2).with_small_machine(4, 2);
        let mut params = EngineParams::from(&cfg);
        params.faults = Some(FaultSpec {
            core_failures: (0..4)
                .map(|core| CoreFailure {
                    core,
                    at: SimDuration::from_us(1),
                    recover_after: None,
                })
                .collect(),
            ..FaultSpec::default()
        });
        let resolved = default_registries()
            .resolve(
                &cfg.policy_keys(),
                &cfg.machine,
                cfg.fast_cores,
                cfg.seed,
                &cfg.policy_params(),
            )
            .unwrap();
        let err = run_graph(&params, resolved, &g, "dead").unwrap_err();
        assert!(
            matches!(err, ExpError::Stalled(_)),
            "want Stalled, got: {err}"
        );
        assert!(err.to_string().contains("core(s) failed"), "{err}");
    }

    #[test]
    fn fifo_executes_all_tasks() {
        let g = fork_join(2_000_000);
        let r = run_cfg(RunConfig::fifo(2).with_small_machine(4, 2), &g);
        assert_eq!(r.tasks, 10);
        assert_eq!(r.counters.tasks_completed, 10);
        assert!(r.exec_time > SimDuration::ZERO);
        assert!(r.energy.energy_j > 0.0);
    }

    #[test]
    fn all_six_configs_complete_identical_task_sets() {
        let g = fork_join(1_000_000);
        for cfg in RunConfig::paper_matrix(2) {
            let label = cfg.label.clone();
            let r = run_cfg(cfg.with_small_machine(4, 2), &g);
            assert_eq!(r.counters.tasks_completed, 10, "{label} lost tasks");
        }
    }

    #[test]
    fn determinism_same_config_same_result() {
        let g = fork_join(500_000);
        let a = run_cfg(RunConfig::cata(2).with_small_machine(4, 2), &g);
        let b = run_cfg(RunConfig::cata(2).with_small_machine(4, 2), &g);
        assert_eq!(a.exec_time, b.exec_time);
        assert_eq!(a.energy.energy_j, b.energy.energy_j);
        assert_eq!(a.counters.reconfigs_applied, b.counters.reconfigs_applied);
    }

    #[test]
    fn cata_reconfigures_and_respects_budget() {
        let g = fork_join(4_000_000);
        let cfg = RunConfig::cata(2).with_small_machine(4, 2).with_trace();
        let (r, trace) = SimExecutor::new(cfg).run(&g, "test");
        assert!(r.counters.reconfigs_applied > 0, "CATA must reconfigure");
        // Replay the trace: the number of cores whose *settled* level is
        // fast never exceeds the budget at any event. (A pending
        // deceleration superseded by a re-acceleration never settles slow;
        // tracking per-core levels handles that correctly.)
        let mut fast = [false; 4];
        for rec in trace.records() {
            if let TraceEvent::ReconfigApplied { core, level } = rec.event {
                fast[core.index()] = level.frequency.as_mhz() == 2000;
                let n = fast.iter().filter(|&&f| f).count();
                assert!(n <= 2, "budget exceeded in trace at {}", rec.time);
            }
        }
    }

    #[test]
    fn rsu_is_no_slower_than_software_cata() {
        let g = fork_join(2_000_000);
        let sw = run_cfg(RunConfig::cata(2).with_small_machine(4, 2), &g);
        let hw = run_cfg(RunConfig::cata_rsu(2).with_small_machine(4, 2), &g);
        assert!(
            hw.exec_time <= sw.exec_time,
            "RSU {} slower than software {}",
            hw.exec_time,
            sw.exec_time
        );
        assert!(hw.lock_waits.is_empty(), "RSU path must not lock");
        assert!(!sw.lock_waits.is_empty(), "software path must lock");
    }

    #[test]
    fn software_cata_charges_reconfig_overhead() {
        let g = fork_join(1_000_000);
        let r = run_cfg(RunConfig::cata(2).with_small_machine(4, 2), &g);
        assert!(r.reconfig_overhead > SimDuration::ZERO);
        assert!(r.reconfig_time_share > 0.0);
        assert!(r.reconfig_latencies.count() > 0);
    }

    #[test]
    fn turbo_mode_halts_idle_cores() {
        let g = fork_join(2_000_000);
        let r = run_cfg(RunConfig::turbo(2).with_small_machine(4, 2), &g);
        assert_eq!(r.counters.tasks_completed, 10);
        assert!(r.counters.halts > 0, "idle cores must halt under TurboMode");
    }

    #[test]
    fn blocked_tasks_halt_the_core() {
        let mut g = TaskGraph::new();
        let ty = g.add_type("io", 0);
        let p = ExecProfile::new(1_000_000, 0).with_block(0.5, SimDuration::from_us(200));
        g.add_task(ty, p, &[]);
        let r = run_cfg(RunConfig::fifo(1).with_small_machine(2, 1), &g);
        assert!(r.counters.halts >= 1);
        assert_eq!(r.counters.tasks_completed, 1);
    }

    #[test]
    fn more_fast_cores_is_not_slower_under_fifo() {
        let g = fork_join(4_000_000);
        let few = run_cfg(RunConfig::fifo(1).with_small_machine(4, 1), &g);
        let many = run_cfg(RunConfig::fifo(4).with_small_machine(4, 4), &g);
        assert!(many.exec_time <= few.exec_time);
    }

    #[test]
    fn empty_graph_completes_instantly() {
        let g = TaskGraph::new();
        let r = run_cfg(RunConfig::fifo(2).with_small_machine(4, 2), &g);
        assert_eq!(r.tasks, 0);
        assert_eq!(r.exec_time, SimDuration::ZERO);
    }

    #[test]
    fn serial_chain_runs_fast_under_cata() {
        // A pure chain: CATA should keep the single running task accelerated
        // (budget 1), beating the static 1-fast-core FIFO only when the
        // chain would otherwise land on slow cores.
        let mut g = TaskGraph::new();
        let ty = g.add_type("step", 1);
        let mut prev: Option<TaskId> = None;
        for _ in 0..6 {
            let deps: Vec<TaskId> = prev.into_iter().collect();
            prev = Some(g.add_task(ty, ExecProfile::new(10_000_000, 0), &deps));
        }
        let fifo = run_cfg(RunConfig::fifo(1).with_small_machine(4, 1), &g);
        let cata = run_cfg(RunConfig::cata_rsu(1).with_small_machine(4, 1), &g);
        // FIFO dispatch prefers core 0 (fast) so both are similar here, but
        // CATA must never lose by more than the reconfiguration overhead.
        let ratio = cata.exec_time.as_ps() as f64 / fifo.exec_time.as_ps() as f64;
        assert!(ratio < 1.05, "CATA chain ratio {ratio}");
    }

    #[test]
    fn utilization_is_sane() {
        let g = fork_join(2_000_000);
        let r = run_cfg(RunConfig::fifo(2).with_small_machine(4, 2), &g);
        for &u in &r.core_utilization {
            assert!((0.0..=1.0).contains(&u));
        }
        assert!(r.avg_utilization() > 0.0);
    }
}
