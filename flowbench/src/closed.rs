//! The closed-engine workloads: `paper-grid` (the Fig. 4/5 matrix) and
//! `contended-faults` (memory gate + fault injection on every cell).

use crate::queue;
use crate::span::Tracer;
use crate::stats::{self, Layers};
use crate::{report_digest, to_json, Config, Flow, OpOut, Size};
use cata_core::exp::spec::PAPER_PRESETS;
use cata_core::exp::store::grid_digest;
use cata_core::exp::{
    default_registries, host_fingerprint, now_unix_ms, spec_digest, CellRecord, PolicyKeys,
    ResultsStore, ScenarioSpec, Suite, TraceMode, WorkloadSpec,
};
use cata_core::fault::{CoreFailure, FaultSpec};
use cata_core::mem::MemorySpec;
use cata_core::{RunReport, SimExecutor};
use cata_sim::time::SimDuration;
use cata_tdg::bottom_level::BottomLevels;
use cata_tdg::GraphView;
use cata_workloads::{Benchmark, Scale};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Report digests of every `paper-grid` cell at the default seed,
/// `index cell digest` per line.
const PINNED_PAPER_GRID: &str = include_str!("../pinned/paper-grid-seed42.txt");

fn scale(size: Size) -> Scale {
    match size {
        Size::Full => Scale::Paper,
        Size::Reduced => Scale::Tiny,
    }
}

fn preset(
    name: &str,
    fast: usize,
    workload: WorkloadSpec,
    seed: u64,
) -> Result<ScenarioSpec, String> {
    let mut spec = ScenarioSpec::preset(name, fast, workload).map_err(|e| e.to_string())?;
    spec.seed = seed;
    Ok(spec)
}

/// 6 benchmarks × fast ∈ {8, 16, 24} × the six paper presets (108 cells);
/// reduced: tiny graphs at fast = 8 only (36 cells).
pub fn paper_grid_specs(size: Size, seed: u64) -> Result<Vec<ScenarioSpec>, String> {
    let fasts: &[usize] = match size {
        Size::Full => &[8, 16, 24],
        Size::Reduced => &[8],
    };
    let mut specs = Vec::new();
    for bench in Benchmark::all() {
        let workload = WorkloadSpec::parsec(bench, scale(size), seed);
        for &fast in fasts {
            for name in PAPER_PRESETS {
                specs.push(preset(name, fast, workload.clone(), seed)?);
            }
        }
    }
    Ok(specs)
}

/// FIFO/CATA/CATA+RSU on dedup and fluidanimate at fast = 8, each with
/// memory slots ∈ {1, 2} × arbitration ∈ {fifo, crit-first}, two core
/// failures (the first recovers), `task_fault_p` = 0.01 and
/// `reroute-prefer-fast` recovery (24 cells).
pub(crate) fn contended_specs(size: Size, seed: u64) -> Result<Vec<ScenarioSpec>, String> {
    // Failure instants sit well inside each scale's makespan.
    let (first, window, second) = match size {
        Size::Full => (
            SimDuration::from_ms(5),
            SimDuration::from_ms(10),
            SimDuration::from_ms(20),
        ),
        Size::Reduced => (
            SimDuration::from_us(20),
            SimDuration::from_us(40),
            SimDuration::from_us(60),
        ),
    };
    let faults = FaultSpec {
        core_failures: vec![
            CoreFailure {
                core: 3,
                at: first,
                recover_after: Some(window),
            },
            CoreFailure {
                core: 12,
                at: second,
                recover_after: None,
            },
        ],
        task_fault_p: 0.01,
        recovery: "reroute-prefer-fast".to_string(),
        ..FaultSpec::default()
    };
    let mut specs = Vec::new();
    for bench in [Benchmark::Dedup, Benchmark::Fluidanimate] {
        let workload = WorkloadSpec::parsec(bench, scale(size), seed);
        for name in ["FIFO", "CATA", "CATA+RSU"] {
            for slots in [1, 2] {
                for arbitration in ["fifo", "crit-first"] {
                    let mut spec = preset(name, 8, workload.clone(), seed)?;
                    spec.memory = Some(MemorySpec {
                        slots,
                        arbitration: arbitration.to_string(),
                    });
                    spec.faults = Some(faults.clone());
                    specs.push(spec);
                }
            }
        }
    }
    Ok(specs)
}

/// Graph generation figures of one set-up.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct GraphFigures {
    pub built: u64,
    pub build_s: f64,
    pub tasks: u64,
    pub edges: u64,
}

impl GraphFigures {
    pub fn fill(&self, layers: &mut Layers) {
        stats::set(layers, "workloads.graphs_built", self.built as f64);
        stats::set(layers, "workloads.build_s", self.build_s);
        stats::set(layers, "workloads.tasks", self.tasks as f64);
        stats::set(layers, "tdg.edges", self.edges as f64);
    }
}

/// Set-up shared by every workload: generate each distinct graph (the
/// generation cost, measured uncached), fill the shared graph cache, and
/// validate + resolve every spec through the registries.
pub(crate) fn prepare(specs: &[ScenarioSpec]) -> Result<GraphFigures, String> {
    let mut figures = GraphFigures::default();
    let mut seen: Vec<&WorkloadSpec> = Vec::new();
    for spec in specs {
        if seen.contains(&&spec.workload) {
            continue;
        }
        seen.push(&spec.workload);
        let t = Instant::now();
        let graph = spec.workload.try_build_graph().map_err(|e| e.to_string())?;
        figures.build_s += t.elapsed().as_secs_f64();
        figures.built += 1;
        figures.tasks += graph.num_tasks() as u64;
        figures.edges += graph.num_edges() as u64;
        spec.workload
            .try_build_graph_shared()
            .map_err(|e| e.to_string())?;
    }
    for spec in specs {
        spec.validate().map_err(|e| e.to_string())?;
        resolve(spec)?;
    }
    Ok(figures)
}

fn resolve(spec: &ScenarioSpec) -> Result<(), String> {
    let keys = PolicyKeys {
        scheduler: spec.scheduler.clone(),
        estimator: spec.estimator.clone(),
        accel: spec.accel.clone(),
    };
    default_registries()
        .resolve(
            &keys,
            &spec.machine,
            spec.fast_cores,
            spec.seed,
            &spec.params_or_default(),
        )
        .map(drop)
        .map_err(|e| e.to_string())
}

pub(crate) fn run_spec(spec: &ScenarioSpec) -> Result<RunReport, String> {
    SimExecutor::default()
        .run_spec(spec, default_registries())
        .map(|(report, _)| report)
        .map_err(|e| e.to_string())
}

/// Oracles every closed cell satisfies for any seed: all tasks complete,
/// the makespan respects the fault-aware work/span lower bound, and the
/// memory gate conserves time (serviced = demand + wait, less the demand
/// of requests a core failure cancelled).
pub(crate) fn check_closed(spec: &ScenarioSpec, report: &RunReport) -> Result<(), String> {
    let graph = spec
        .workload
        .try_build_graph_shared()
        .map_err(|e| e.to_string())?;
    let cell = &report.label;
    if report.counters.tasks_completed != graph.num_tasks() as u64 {
        return Err(format!(
            "{cell}: {} of {} tasks completed",
            report.counters.tasks_completed,
            graph.num_tasks()
        ));
    }
    let shed = report.fault.as_ref().is_some_and(|f| f.shed > 0);
    if !shed {
        let fast = spec.machine.fast_level.frequency;
        let lost = report.fault.as_ref().map_or(0, |f| f.capacity_lost.as_ps());
        let cores = spec.machine.num_cores.max(1) as u64;
        let work = graph.total_work_at(fast).as_ps().saturating_add(lost) / cores;
        let bound = graph.critical_path_at(fast).as_ps().max(work);
        if report.exec_time.as_ps() < bound {
            return Err(format!(
                "{cell}: makespan {} ps beats the work/span lower bound {bound} ps",
                report.exec_time.as_ps()
            ));
        }
    }
    if let Some(m) = &report.memory {
        // Every granted request is serviced for its wait plus its demand.
        // A core failure cancels a queued request whose demand stays
        // counted, so the gap is bounded by the displaced tasks' demand
        // and is exactly 0 when nothing was displaced.
        let expected = m.demand.as_ps() + m.total_wait.as_ps();
        let displaced = report.fault.as_ref().map_or(0, |f| f.displaced);
        let view = GraphView::from_graph(&graph);
        let max_mem = graph.task_ids().map(|t| view.mem_ps(t)).max().unwrap_or(0);
        let gap = expected.checked_sub(m.serviced.as_ps());
        if gap.is_none_or(|g| g > displaced.saturating_mul(max_mem)) {
            return Err(format!(
                "{cell}: memory serviced {} ps vs demand + wait {expected} ps \
                 ({displaced} displaced tasks, max demand {max_mem} ps)",
                m.serviced.as_ps()
            ));
        }
    }
    Ok(())
}

pub(crate) struct ClosedFlow {
    specs: Vec<ScenarioSpec>,
    store: PathBuf,
    pins: Option<Vec<String>>,
    graphs: GraphFigures,
}

impl ClosedFlow {
    pub fn paper_grid(cfg: &Config, dir: &Path) -> Result<Self, String> {
        let specs = paper_grid_specs(cfg.size, cfg.seed)?;
        let pins = (cfg.size == Size::Full && cfg.seed == crate::DEFAULT_SEED)
            .then(|| pinned_digests(specs.len()))
            .transpose()?;
        Self::new(specs, dir, pins)
    }

    pub fn contended(cfg: &Config, dir: &Path) -> Result<Self, String> {
        Self::new(contended_specs(cfg.size, cfg.seed)?, dir, None)
    }

    fn new(
        specs: Vec<ScenarioSpec>,
        dir: &Path,
        pins: Option<Vec<String>>,
    ) -> Result<Self, String> {
        let graphs = prepare(&specs)?;
        Ok(ClosedFlow {
            specs,
            store: dir.join("cell.jsonl"),
            pins,
            graphs,
        })
    }

    fn store(&self) -> Result<ResultsStore, String> {
        ResultsStore::open(&self.store).map_err(|e| e.to_string())
    }

    /// The flow `Suite::run_with_store` runs for one cell, called layer
    /// by layer so each call gets its own span. Layer probes whose work
    /// the engine repeats internally (validate, resolve, view, bottom
    /// levels, serialize) are timed here once more; the traced run's
    /// overhead ratio includes them.
    fn traced_op(&self, spec: &ScenarioSpec, tr: &mut Tracer) -> Result<RunReport, String> {
        tr.span("exp.validate", || spec.validate())
            .map_err(|e| e.to_string())?;
        let digest = tr.span("exp.spec_digest", || spec_digest(spec));
        tr.span("exp.resolve", || resolve(spec))?;
        let graph = tr
            .span("workloads.graph", || spec.workload.try_build_graph_shared())
            .map_err(|e| e.to_string())?;
        tr.span("tdg.view_build", || {
            black_box(GraphView::from_graph(&graph))
        });
        tr.span("tdg.bottom_level", || {
            black_box(BottomLevels::recompute_batch(&graph))
        });
        let store = tr.span("store.open", || self.store())?;
        let started = now_unix_ms();
        let t = Instant::now();
        let report = tr.span("sim_exec.run_spec", || run_spec(spec))?;
        let wall_s = t.elapsed().as_secs_f64();
        let grid = grid_digest(std::iter::once((0, digest.as_str())));
        let record = CellRecord::new(0, spec, grid, wall_s, report)
            .with_host(host_fingerprint())
            .with_times(started, now_unix_ms())
            .with_spec(spec.clone());
        tr.span("store.serialize", || {
            black_box(serde_json::to_string(&record))
        })
        .map_err(|e| e.to_string())?;
        tr.span("store.append", || store.append(&record))
            .map_err(|e| e.to_string())?;
        Ok(record.report)
    }
}

pub(crate) fn pinned_digests(cells: usize) -> Result<Vec<String>, String> {
    let pins: Vec<String> = PINNED_PAPER_GRID
        .lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(|l| l.split_whitespace().nth(2).map(str::to_string))
        .collect();
    if pins.len() != cells {
        return Err(format!(
            "pinned paper-grid digests: {} lines for {cells} cells",
            pins.len()
        ));
    }
    Ok(pins)
}

/// `index cell digest` lines for every cell of a closed workload (how
/// `pinned/paper-grid-seed42.txt` is produced).
pub fn digest_lines(specs: &[ScenarioSpec]) -> Result<String, String> {
    let mut out = String::new();
    for (i, spec) in specs.iter().enumerate() {
        let report = run_spec(spec)?;
        let cell = format!("{}@{}/f{}", spec.name, report.workload, spec.fast_cores);
        out.push_str(&format!(
            "{i} {cell} {}\n",
            report_digest(&to_json(&report)?)
        ));
    }
    Ok(out)
}

impl Flow for ClosedFlow {
    fn pass_len(&self) -> usize {
        self.specs.len()
    }

    fn op(&mut self, i: usize, tr: &mut Tracer) -> Result<OpOut, String> {
        let spec = &self.specs[i];
        let report = if tr.is_on() {
            self.traced_op(spec, tr)?
        } else {
            let store = self.store()?;
            let outcome = Suite::from_specs(vec![spec.clone()])
                .run_with_store(&SimExecutor::default(), &store);
            outcome
                .results
                .into_iter()
                .next()
                .ok_or("suite returned no result")?
                .map_err(|e| e.to_string())?
        };
        let mut out = OpOut::default();
        out.add_report(report);
        Ok(out)
    }

    fn check(&mut self, i: usize, out: &mut OpOut) -> Result<String, String> {
        let spec = &self.specs[i];
        let report = out.reports.first().ok_or("op produced no report")?;
        let json = to_json(report)?;
        let t = Instant::now();
        let loaded = ResultsStore::load(&self.store);
        out.parse_s = t.elapsed().as_secs_f64();
        let bytes = std::fs::metadata(&self.store).map_or(0, |m| m.len());
        let _ = std::fs::remove_file(&self.store);
        let (records, torn) = loaded.map_err(|e| e.to_string())?;
        out.written_bytes = bytes;
        out.parsed_bytes = bytes;
        let [record] = records.as_slice() else {
            return Err(format!(
                "cell {i}: store holds {} records, want 1",
                records.len()
            ));
        };
        if torn || record.spec_digest != spec_digest(spec) || to_json(&record.report)? != json {
            return Err(format!(
                "cell {i}: store read-back differs from the record written"
            ));
        }
        check_closed(spec, report)?;
        let digest = report_digest(&json);
        if let Some(pins) = &self.pins {
            if pins[i] != digest {
                return Err(format!(
                    "cell {i} ({}): digest {digest} differs from the pinned {}",
                    report.label, pins[i]
                ));
            }
        }
        Ok(digest)
    }

    fn probes(&mut self, layers: &mut Layers, budget: Duration) {
        self.graphs.fill(layers);
        if let Err(e) = closed_probes(&self.specs, layers, budget) {
            eprintln!("warning: probe failed: {e}");
        }
    }
}

/// Trace-kind counts and fault-free twin time over one pass, and the
/// event-queue replay of the first cells' traces.
pub(crate) fn closed_probes(
    specs: &[ScenarioSpec],
    layers: &mut Layers,
    budget: Duration,
) -> Result<(), String> {
    let mut twin_s = 0.0;
    for spec in specs {
        let report = run_spec(&spec.clone().with_trace_mode(TraceMode::Counters))?;
        if let Some(c) = report.trace_counts {
            for (name, v) in [
                ("trace.task_starts", c.task_starts),
                ("trace.task_ends", c.task_ends),
                ("trace.reconfig_requests", c.reconfig_requests),
                ("trace.reconfigs_applied", c.reconfigs_applied),
                ("trace.halts", c.halts),
                ("trace.wakes", c.wakes),
            ] {
                stats::add(layers, name, v as f64);
            }
        }
        if spec.faults.is_some() {
            let mut twin = spec.clone();
            twin.faults = None;
            let t = Instant::now();
            run_spec(&twin)?;
            twin_s += t.elapsed().as_secs_f64();
        }
    }
    stats::set(layers, "fault.twin_busy_s", twin_s);
    let busy = layers["sim_exec.busy_s"];
    stats::set(layers, "fault.twin_share", stats::ratio(twin_s, busy));

    let mut runs = Vec::new();
    for spec in specs.iter().take(6) {
        let (_, trace) = SimExecutor::default()
            .run_spec(
                &spec.clone().with_trace_mode(TraceMode::Full),
                default_registries(),
            )
            .map_err(|e| e.to_string())?;
        runs.push(queue::core_times(trace.records()));
    }
    let q = queue::measure(&runs, budget);
    stats::set(layers, "event.ops", q.ops as f64);
    stats::set(layers, "event.heap_ns_per_op", q.heap_ns);
    stats::set(layers, "event.wheel_ns_per_op", q.wheel_ns);
    stats::set(
        layers,
        "event.heap_fill_drain_ns_per_op",
        q.heap_fill_drain_ns,
    );
    stats::set(
        layers,
        "event.wheel_fill_drain_ns_per_op",
        q.wheel_fill_drain_ns,
    );
    Ok(())
}
