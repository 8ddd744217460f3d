//! Flow-level host-time benchmark of the CATA reproduction.
//!
//! Each workload drives one public flow of the repository as a closed
//! loop with one client (see `README.md` for why each was chosen):
//!
//! - `paper-grid`: one Fig. 4/5 cell per op through `Suite::run_with_store`;
//! - `contended-faults`: one closed-engine cell per op with the memory
//!   gate and fault injection on (and the fault-free twin `run_spec` adds);
//! - `serve-replay`: one serve → tape → replay cycle per op;
//! - `store-readback`: one `ResultsStore::merge_files` + tape load + sample
//!   replay per op over input written during set-up.
//!
//! The untraced run gives the end-to-end metrics; the traced run records
//! spans around the benchmark's calls into each layer and gives the
//! per-layer metrics. Every op's outputs pass oracles that hold for any
//! seed; a failed oracle, an `ExpError` or a panic fails the op.

mod closed;
mod queue;
mod readback;
mod serve;
pub mod span;
pub mod stats;

pub use closed::{digest_lines, paper_grid_specs};

use cata_core::RunReport;
use span::Tracer;
use stats::{Layers, Provenance};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The default workload seed (the held-out seed is named in README.md).
pub const DEFAULT_SEED: u64 = 42;

/// Set-up repetitions: one before the loop, then bursts of up to
/// `SETUP_BURST` at pass boundaries at most every `1/SETUP_SPREAD` of the
/// run, while they take under `SETUP_SHARE` of the time so far. Every
/// repetition does the same work, so, as for ops, the fastest one is the
/// steady estimate of its cost; spread over the run, it is not hostage to
/// the host-speed regime of the first second.
const SETUP_SPREAD: f64 = 30.0;
const SETUP_BURST: usize = 3;
const SETUP_SHARE: f64 = 0.1;

/// Builds flows for set-up repetitions and times them.
struct Setup<'a> {
    cfg: &'a Config,
    root: PathBuf,
    times: Vec<f64>,
}

impl Setup<'_> {
    fn rep(&mut self) -> Result<Box<dyn Flow>, String> {
        let dir = self.root.join(format!("setup{}", self.times.len()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let t = Instant::now();
        let flow = build_flow(self.cfg, &dir)?;
        self.times.push(t.elapsed().as_secs_f64());
        Ok(flow)
    }

    /// A repetition whose flow is dropped at once, with its files.
    fn extra_rep(&mut self) {
        let dir = self.root.join(format!("setup{}", self.times.len()));
        if let Err(e) = self.rep() {
            eprintln!("warning: set-up repetition failed: {e}");
        }
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperGrid,
    ContendedFaults,
    ServeReplay,
    StoreReadback,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperGrid,
        Workload::ContendedFaults,
        Workload::ServeReplay,
        Workload::StoreReadback,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper-grid",
            Workload::ContendedFaults => "contended-faults",
            Workload::ServeReplay => "serve-replay",
            Workload::StoreReadback => "store-readback",
        }
    }

    pub fn parse(name: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                let known: Vec<&str> = Self::ALL.iter().map(|w| w.name()).collect();
                format!("unknown workload `{name}` (known: {})", known.join(", "))
            })
    }
}

/// Input size. `Reduced` shrinks every workload (tiny graphs, fewer
/// cells, shorter service windows) for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Reduced,
}

/// Deliberate defects, so tests can show the oracles catch them.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Inject {
    /// Overwrite a stored record with a different report after set-up.
    pub corrupt_record: bool,
    /// Perturb the report a replay is compared against.
    pub replay_mismatch: bool,
}

#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Host seconds the measured loop runs for.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    pub size: Size,
    /// Scratch directory for stores and tapes (removed at the end).
    pub work_root: PathBuf,
    pub(crate) inject: Inject,
}

impl Config {
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Self {
        Config {
            workload,
            seed,
            seconds,
            trace,
            size: Size::Full,
            work_root: PathBuf::from(".flowbench"),
            inject: Inject::default(),
        }
    }
}

/// What one op hands to its oracles and to the accounting.
#[derive(Debug, Default)]
pub(crate) struct OpOut {
    /// Reports the op produced (per-layer counts are summed over pass 0).
    pub reports: Vec<RunReport>,
    /// Events processed by the closed engine (`run_spec`).
    pub closed_events: u64,
    /// Events processed by the service engine (`replay_tape`).
    pub service_events: u64,
    /// Simulated picoseconds covered.
    pub sim_ps: u128,
    /// Store + tape bytes the op appended.
    pub written_bytes: u64,
    /// JSONL bytes parsed (by the op or its read-back oracle), and the
    /// host seconds spent parsing them.
    pub parsed_bytes: u64,
    pub parse_s: f64,
}

impl OpOut {
    /// Counts the simulated work behind `report`.
    pub fn add_work(&mut self, report: &RunReport) {
        if report.service.is_some() {
            self.service_events += report.counters.sim_events;
        } else {
            self.closed_events += report.counters.sim_events;
        }
        self.sim_ps += u128::from(report.exec_time.as_ps());
    }

    /// Counts the work and keeps the report for the per-layer counts.
    pub fn add_report(&mut self, report: RunReport) {
        self.add_work(&report);
        self.reports.push(report);
    }
}

/// One workload's flow, built by its set-up.
pub(crate) trait Flow {
    /// Ops in one pass; pass `k` repeats pass 0's inputs exactly.
    fn pass_len(&self) -> usize;
    /// Op `i` of a pass — the timed part.
    fn op(&mut self, i: usize, tr: &mut Tracer) -> Result<OpOut, String>;
    /// Untimed oracles on op `i`'s output; returns the digest of its
    /// deterministic outputs, which must repeat in every pass.
    fn check(&mut self, i: usize, out: &mut OpOut) -> Result<String, String>;
    /// Traced run only: fills layer figures the spans and pass-0 reports
    /// cannot give, within `budget`.
    fn probes(&mut self, layers: &mut Layers, budget: Duration);
}

fn build_flow(cfg: &Config, dir: &Path) -> Result<Box<dyn Flow>, String> {
    Ok(match cfg.workload {
        Workload::PaperGrid => Box::new(closed::ClosedFlow::paper_grid(cfg, dir)?),
        Workload::ContendedFaults => Box::new(closed::ClosedFlow::contended(cfg, dir)?),
        Workload::ServeReplay => Box::new(serve::ServeFlow::new(cfg, dir)?),
        Workload::StoreReadback => Box::new(readback::ReadbackFlow::new(cfg, dir)?),
    })
}

/// Digest of a report's exact serialized form.
pub(crate) fn report_digest(json: &str) -> String {
    cata_tdg::fnv1a_hex(json.bytes())
}

pub(crate) fn to_json(report: &RunReport) -> Result<String, String> {
    serde_json::to_string(report).map_err(|e| format!("report serialize: {e}"))
}

/// Per-position accounting for the ops of one tracing mode.
///
/// Host speed on a shared machine swings by tens of percent in regimes
/// lasting seconds, and that noise only ever adds time. Each op position
/// of a pass does identical work in every pass, so its fastest time over
/// the run is a steady estimate of its cost; the end-to-end figures other
/// than the tail are built from those per-position bests.
#[derive(Debug)]
struct Totals {
    /// Host seconds of every attempted op (the raw wall figures).
    all_s: Vec<f64>,
    /// Position and host seconds of every ok op, in run order.
    ok_ops: Vec<(usize, f64)>,
    /// Per op position: fastest ok op time, fastest parse time, and the
    /// op's deterministic work.
    best_s: Vec<Option<f64>>,
    best_parse_s: Vec<Option<f64>>,
    closed_events: Vec<u64>,
    service_events: Vec<u64>,
    sim_ps: Vec<u128>,
    written_bytes: Vec<u64>,
    parsed_bytes: Vec<u64>,
}

/// Ops on each side of an op that set its host-speed factor (see
/// [`Totals::tail`]).
const TAIL_WINDOW: usize = 2;

fn min_into(slot: &mut Option<f64>, v: f64) {
    *slot = Some(slot.map_or(v, |b| b.min(v)));
}

impl Totals {
    fn new(n: usize) -> Self {
        Totals {
            all_s: Vec::new(),
            ok_ops: Vec::new(),
            best_s: vec![None; n],
            best_parse_s: vec![None; n],
            closed_events: vec![0; n],
            service_events: vec![0; n],
            sim_ps: vec![0; n],
            written_bytes: vec![0; n],
            parsed_bytes: vec![0; n],
        }
    }

    fn add(&mut self, i: usize, dt: f64, out: &OpOut) {
        self.ok_ops.push((i, dt));
        min_into(&mut self.best_s[i], dt);
        if out.parsed_bytes > 0 {
            min_into(&mut self.best_parse_s[i], out.parse_s);
        }
        self.closed_events[i] = out.closed_events;
        self.service_events[i] = out.service_events;
        self.sim_ps[i] = out.sim_ps;
        self.written_bytes[i] = out.written_bytes;
        self.parsed_bytes[i] = out.parsed_bytes;
    }

    /// Quantile `q` of the ok ops' times, each divided by the host-speed
    /// factor around it: the median slowdown over its position's best of
    /// the `2 * TAIL_WINDOW + 1` ops nearest it in run order. Host-speed
    /// regimes last seconds and slow every op near them alike, so they
    /// cancel; an op that is slow on its own keeps its slowdown.
    fn tail(&self, q: f64) -> f64 {
        let slowdown: Vec<f64> = self
            .ok_ops
            .iter()
            .map(|&(i, dt)| stats::ratio(dt, self.best_s[i].unwrap_or(dt)))
            .collect();
        let corrected: Vec<f64> = self
            .ok_ops
            .iter()
            .enumerate()
            .map(|(j, &(_, dt))| {
                let near = &slowdown
                    [j.saturating_sub(TAIL_WINDOW)..(j + TAIL_WINDOW + 1).min(slowdown.len())];
                dt / stats::median(near)
            })
            .collect();
        stats::quantile(&corrected, q)
    }

    /// Positions with at least one ok op, and their summed best times:
    /// the cost of one pass at the best host speed seen.
    fn best_pass(&self) -> (usize, f64) {
        let best: Vec<f64> = self.best_s.iter().flatten().copied().collect();
        (best.len(), stats::sum(&best))
    }
}

/// What the measured loop saw.
#[derive(Debug)]
struct Phase {
    attempted: u64,
    failed: u64,
    plain: Totals,
    traced: Totals,
    pass0_reports: Vec<RunReport>,
    pass0_written: u64,
    errors: Vec<String>,
}

fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".to_string())
}

/// Runs ops until `seconds` have passed and at least `min_passes` whole
/// passes are done (never more than a minute past `seconds`). With a
/// tracer that is on, even passes are traced and odd ones are not, so
/// the tracing overhead is measured under the same conditions.
fn measure(
    flow: &mut dyn Flow,
    tr: &mut Tracer,
    seconds: f64,
    min_passes: usize,
    mut setup: Option<&mut Setup<'_>>,
) -> Phase {
    let tracing = tr.is_on();
    let n = flow.pass_len();
    let start = Instant::now();
    let deadline = Duration::from_secs_f64(seconds);
    let hard = deadline + Duration::from_secs(60);
    let mut digests: Vec<Option<String>> = vec![None; n];
    let mut ph = Phase {
        attempted: 0,
        failed: 0,
        plain: Totals::new(n),
        traced: Totals::new(n),
        pass0_reports: Vec::new(),
        pass0_written: 0,
        errors: Vec::new(),
    };
    let (mut i, mut pass) = (0usize, 0usize);
    let mut next_setup = seconds / SETUP_SPREAD;
    let mut setup_spent = 0.0;
    loop {
        if let Some(setup) = setup.as_deref_mut() {
            let elapsed = start.elapsed().as_secs_f64();
            if i == 0 && elapsed >= next_setup && setup_spent < SETUP_SHARE * elapsed {
                for _ in 0..SETUP_BURST {
                    if setup_spent >= SETUP_SHARE * elapsed {
                        break;
                    }
                    let t = Instant::now();
                    setup.extra_rep();
                    setup_spent += t.elapsed().as_secs_f64();
                }
                next_setup = elapsed + seconds / SETUP_SPREAD;
            }
        }
        let elapsed = start.elapsed();
        if (elapsed >= deadline && pass >= min_passes && ph.attempted > 0) || elapsed >= hard {
            break;
        }
        tr.set_on(tracing && pass % 2 == 0);
        let root = tr.enter_op(ph.attempted);
        let t = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| flow.op(i, tr)));
        let dt = t.elapsed().as_secs_f64();
        tr.exit(root);
        let totals = if tr.is_on() {
            &mut ph.traced
        } else {
            &mut ph.plain
        };
        ph.attempted += 1;
        totals.all_s.push(dt);
        let checked = match result {
            Ok(Ok(mut out)) => match catch_unwind(AssertUnwindSafe(|| flow.check(i, &mut out))) {
                Ok(Ok(digest)) => match &digests[i] {
                    Some(first) if *first != digest => Err(format!(
                        "op {i}: output digest {digest} differs from pass 0 ({first})"
                    )),
                    _ => {
                        digests[i] = Some(digest);
                        Ok(out)
                    }
                },
                Ok(Err(e)) => Err(e),
                Err(p) => Err(format!("op {i}: oracle panicked: {}", panic_text(p))),
            },
            Ok(Err(e)) => Err(e),
            Err(p) => Err(format!("op {i}: panicked: {}", panic_text(p))),
        };
        match checked {
            Ok(out) => {
                totals.add(i, dt, &out);
                if pass == 0 {
                    ph.pass0_written += out.written_bytes;
                    ph.pass0_reports.extend(out.reports);
                }
            }
            Err(e) => {
                ph.failed += 1;
                if ph.errors.len() < 5 {
                    ph.errors.push(e);
                }
            }
        }
        i += 1;
        if i == n {
            i = 0;
            pass += 1;
        }
    }
    tr.set_on(tracing);
    ph
}

/// One metric as printed: name, value, unit, and the samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: u64,
}

#[derive(Debug, Clone)]
pub struct Outcome {
    pub workload: Workload,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub provenance: Provenance,
    /// The first few failures, for the text report.
    pub errors: Vec<String>,
    /// Host seconds of all ops, before taking per-position bests (text
    /// report only).
    pub raw_s: f64,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn fail_ratio(&self) -> f64 {
        stats::ratio(self.failed as f64, self.attempted as f64)
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Human-readable report: provenance, every metric with its unit and
    /// sample count, and any failures.
    pub fn text(&self) -> String {
        let p = &self.provenance;
        let mut out = format!(
            "# flowbench {} ({}) seed={} host={} nproc={} rev={}\n",
            self.workload.name(),
            if self.trace { "traced" } else { "untraced" },
            p.seed,
            p.host,
            p.nproc,
            p.git_rev
        );
        out.push_str(&format!(
            "#   {:<34} {:>16}  {:<8} samples\n",
            "metric", "value", "unit"
        ));
        for m in &self.metrics {
            out.push_str(&format!(
                "#   {:<34} {:>16.6}  {:<8} {}\n",
                m.name, m.value, m.unit, m.samples
            ));
        }
        out.push_str(&format!(
            "#   {:<34} {:>16.6}  {:<8} {}\n",
            "fail_ratio",
            self.fail_ratio(),
            "ratio",
            self.attempted
        ));
        out.push_str(&format!(
            "# raw: {} ops in {:.3} s of op time ({:.3} ops/s); figures above use each op position's best time\n",
            self.attempted,
            self.raw_s,
            stats::ratio(self.attempted as f64, self.raw_s)
        ));
        for e in &self.errors {
            out.push_str(&format!("# failure: {e}\n"));
        }
        out
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// One self-describing JSON line for `--out` files: provenance plus
    /// every metric.
    pub fn record(&self) -> String {
        let p = &self.provenance;
        let values: Vec<String> = self
            .metrics
            .iter()
            .map(|m| format!("\"{}\": {}", m.name, json_number(m.value)))
            .collect();
        format!(
            "{{\"workload\": \"{}\", \"trace\": {}, \"seed\": {}, \"host\": \"{}\", \"nproc\": {}, \"git_rev\": \"{}\", \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.workload.name(),
            self.trace,
            p.seed,
            p.host,
            p.nproc,
            p.git_rev,
            self.attempted,
            self.failed,
            values.join(", ")
        )
    }
}

/// Finite numbers print with every digit Rust keeps (shortest exact
/// round-trip form); a non-finite value prints as 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Removes the run's scratch directory however the run ends, and its
/// parent once no other run uses it.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Runs one workload. `Err` means set-up failed and nothing was measured.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let root = cfg
        .work_root
        .join(format!("{}-{}", cfg.workload.name(), std::process::id()));
    let _cleanup = WorkDir(root.clone());
    let mut setup = Setup {
        cfg,
        root,
        times: Vec::new(),
    };
    let mut flow = setup.rep()?;
    let flow = flow.as_mut();
    let provenance = Provenance::collect(cfg.seed, Path::new("."));

    let mut tr = Tracer::new(cfg.trace);
    let (metrics, ph) = if cfg.trace {
        let ph = measure(flow, &mut tr, cfg.seconds * 0.85, 2, None);
        (traced(cfg, flow, &ph, &tr), ph)
    } else {
        let ph = measure(flow, &mut tr, cfg.seconds, 2, Some(&mut setup));
        (
            end_to_end(&ph, stats::min(&setup.times), setup.times.len() as u64),
            ph,
        )
    };
    Ok(Outcome {
        workload: cfg.workload,
        trace: cfg.trace,
        attempted: ph.attempted,
        failed: ph.failed,
        metrics,
        provenance,
        raw_s: stats::sum(&ph.plain.all_s) + stats::sum(&ph.traced.all_s),
        errors: ph.errors,
    })
}

fn end_to_end(ph: &Phase, setup_s: f64, setup_reps: u64) -> Vec<Metric> {
    let t = &ph.plain;
    let (positions, pass_s) = t.best_pass();
    let best: Vec<f64> = t.best_s.iter().flatten().copied().collect();
    let bytes = |v: &[u64]| v.iter().sum::<u64>() as f64;
    let per_op = if bytes(&t.written_bytes) > 0.0 {
        bytes(&t.written_bytes)
    } else {
        bytes(&t.parsed_bytes)
    };
    let parse_s = stats::sum(&t.best_parse_s.iter().flatten().copied().collect::<Vec<_>>());
    let ok = ph.attempted - ph.failed;
    let values = [
        setup_s,
        stats::ratio(positions as f64, pass_s),
        stats::quantile(&best, 0.5) * 1e3,
        t.tail(0.9) * 1e3,
        stats::ratio(
            (t.closed_events.iter().sum::<u64>() + t.service_events.iter().sum::<u64>()) as f64,
            pass_s,
        ),
        stats::ratio(t.sim_ps.iter().sum::<u128>() as f64 * 1e-12, pass_s),
        stats::peak_rss_mb(),
        stats::ratio(per_op, positions as f64),
        stats::ratio(bytes(&t.parsed_bytes) / (1u64 << 20) as f64, parse_s),
        stats::ratio(ok as f64, ph.attempted as f64),
    ];
    stats::END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric {
            name,
            value,
            unit,
            samples: if name == "setup_s" {
                setup_reps
            } else {
                ph.attempted
            },
        })
        .collect()
}

/// Per-layer metrics of the traced run: span figures over the traced
/// passes, counts over pass 0, then the flow's probes.
fn traced(cfg: &Config, flow: &mut dyn Flow, ph: &Phase, tr: &Tracer) -> Vec<Metric> {
    let mut layers = stats::empty_layers();
    let n = flow.pass_len();

    for (span, metric) in [
        ("exp.validate", "exp.validate_us"),
        ("exp.resolve", "exp.resolve_us"),
        ("exp.spec_digest", "exp.spec_digest_us"),
        ("tdg.view_build", "tdg.view_build_us"),
        ("tdg.bottom_level", "tdg.bottom_level_us"),
        ("service.tape_gen", "service.tape_gen_us"),
        ("service.tape_parse", "service.tape_parse_us"),
        ("store.serialize", "store.serialize_us"),
        ("store.append", "store.append_us"),
    ] {
        stats::set(&mut layers, metric, stats::median(&tr.secs(span)) * 1e6);
    }
    for (span, metric) in [
        ("service.run", "service.run_s"),
        ("service.replay", "service.replay_s"),
        ("store.merge", "store.merge_s"),
        ("replay", "replay.s"),
    ] {
        stats::set(&mut layers, metric, stats::median(&tr.secs(span)));
    }
    // Engine and service time per pass at the best host speed seen, over
    // the events one pass processes.
    let engine = tr.best_per_pass(&["sim_exec.run_spec"], n);
    let service = tr.best_per_pass(&["service.run", "service.replay"], n);
    let op_best = tr.best_per_pass(&[span::OP], n);
    stats::set(&mut layers, "sim_exec.busy_s", engine);
    stats::set(&mut layers, "sim_exec.share", stats::ratio(engine, op_best));
    stats::set(
        &mut layers,
        "sim_exec.ns_per_event",
        stats::ratio(
            engine * 1e9,
            ph.traced.closed_events.iter().sum::<u64>() as f64,
        ),
    );
    stats::set(
        &mut layers,
        "service.ns_per_event",
        stats::ratio(
            service * 1e9,
            ph.traced.service_events.iter().sum::<u64>() as f64,
        ),
    );
    count_reports(&ph.pass0_reports, ph.pass0_written, &mut layers);
    stats::set(
        &mut layers,
        "store.bytes_written",
        stats::ratio(ph.pass0_written as f64, n as f64),
    );

    let (covered_total, residual) = tr.residual();
    stats::set(
        &mut layers,
        "trace.residual_share",
        stats::ratio(residual, covered_total),
    );
    stats::set(
        &mut layers,
        "trace.overhead_ratio",
        stats::ratio(ph.traced.best_pass().1, ph.plain.best_pass().1) - 1.0,
    );

    flow.probes(&mut layers, Duration::from_secs_f64(cfg.seconds * 0.15));
    let engine_ns = layers["sim_exec.ns_per_event"];
    for (queue, metric) in [
        ("event.wheel_ns_per_op", "event.replay_vs_engine"),
        (
            "event.wheel_fill_drain_ns_per_op",
            "event.fill_drain_vs_engine",
        ),
    ] {
        let v = stats::ratio(layers[queue], engine_ns);
        stats::set(&mut layers, metric, v);
    }

    stats::PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: layers[name],
            unit,
            samples: ph.attempted,
        })
        .collect()
}

/// Per-layer counts summed over pass 0's reports (identical in every run
/// of one seed).
fn count_reports(reports: &[RunReport], written: u64, layers: &mut Layers) {
    let mut raw_bytes = 0u64;
    let mut report_bytes = 0u64;
    let mut tasks = 0u64;
    for r in reports {
        let c = &r.counters;
        if let Some(s) = &r.service {
            stats::add(layers, "service.events", c.sim_events as f64);
            stats::add(layers, "service.arrivals", s.arrivals as f64);
            stats::add(layers, "service.admitted", s.admitted as f64);
            stats::add(layers, "service.dropped", s.dropped as f64);
            stats::add(layers, "service.completed", s.completed as f64);
            let p99 = s.queue_wait.quantile(0.99).as_ps() as f64;
            if p99 > layers["service.qwait_p99_ps"] {
                stats::set(layers, "service.qwait_p99_ps", p99);
            }
        } else {
            stats::add(layers, "sim_exec.calls", 1.0);
            stats::add(layers, "sim_exec.events", c.sim_events as f64);
        }
        stats::add(
            layers,
            "accel.reconfigs_requested",
            c.reconfigs_requested as f64,
        );
        stats::add(
            layers,
            "accel.reconfigs_applied",
            c.reconfigs_applied as f64,
        );
        stats::add(layers, "accel.swaps", c.accel_swaps as f64);
        stats::add(layers, "accel.denied", c.accel_denied as f64);
        stats::add(
            layers,
            "policy.cross_queue_steals",
            c.cross_queue_steals as f64,
        );
        if let Some(m) = &r.memory {
            stats::add(layers, "mem.requests", m.requests as f64);
            stats::add(layers, "mem.waited", m.waited as f64);
            stats::add(layers, "mem.wait_ps", m.total_wait.as_ps() as f64);
            stats::add(layers, "mem.crit_wait_ps", m.crit_wait.as_ps() as f64);
            let max = m.max_wait.as_ps() as f64;
            if max > layers["mem.max_wait_ps"] {
                stats::set(layers, "mem.max_wait_ps", max);
            }
        }
        if let Some(f) = &r.fault {
            stats::add(layers, "fault.injected", f.injected as f64);
            stats::add(layers, "fault.recovered", f.recovered_cores as f64);
            stats::add(layers, "fault.reexec", f.reexecuted as f64);
        }
        tasks += c.tasks_completed;
        raw_bytes += (serde_json::to_string(&r.lock_waits).map_or(0, |s| s.len())
            + serde_json::to_string(&r.reconfig_latencies).map_or(0, |s| s.len()))
            as u64;
        report_bytes += serde_json::to_string(r).map_or(0, |s| s.len()) as u64;
    }
    stats::set(
        layers,
        "fault.reexec_ratio",
        stats::ratio(layers["fault.reexec"], tasks as f64),
    );
    stats::set(
        layers,
        "accel.reconfig_useful_ratio",
        stats::ratio(
            layers["accel.reconfigs_applied"],
            layers["accel.reconfigs_requested"],
        ),
    );
    stats::set(
        layers,
        "mem.wait_ratio",
        stats::ratio(layers["mem.waited"], layers["mem.requests"]),
    );
    // Record bytes where the op wrote records; the report's own bytes
    // where it only read them.
    let denominator = if written > 0 { written } else { report_bytes };
    stats::set(
        layers,
        "store.raw_samples_share",
        stats::ratio(raw_bytes as f64, denominator as f64),
    );
}

#[cfg(test)]
mod tests;
