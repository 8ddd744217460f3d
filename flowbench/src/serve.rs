//! `serve-replay`: the open-system engine, one serve → tape → replay
//! cycle per op.

use crate::closed::{prepare, GraphFigures};
use crate::span::Tracer;
use crate::stats::{self, Layers};
use crate::{report_digest, to_json, Config, Flow, OpOut, Size};
use cata_core::exp::{
    default_registries, derive_seed, host_fingerprint, now_unix_ms, CellRecord, ResultsStore,
    ScenarioSpec, WorkloadSpec, STORE_SCHEMA,
};
use cata_core::service::{
    default_admission_registry, replay_tape, ArrivalSpec, ServiceSpec, TrafficTape,
};
use cata_core::RunReport;
use cata_sim::time::SimDuration;
use cata_workloads::{Benchmark, Scale};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Cycles per pass, each with its own run seed (so its own arrivals).
const CYCLES: u64 = 4;
/// Offered load, graphs per simulated second: about 75 % of what the
/// modelled machine sustains on this workload.
const RATE_HZ: f64 = 150.0;
/// The seed stream `run_service` draws arrivals from, so these tapes are
/// the ones `repro serve` records for the same spec.
const ARRIVAL_STREAM: u64 = 0x7A9E_0001;

/// CATA on dedup-tiny with 16 fast cores under Poisson arrivals for 2 s
/// of simulated time (reduced: 100 ms), one spec per cycle of a pass.
pub(crate) fn serve_specs(size: Size, seed: u64) -> Result<Vec<ServiceSpec>, String> {
    let duration = match size {
        Size::Full => SimDuration::from_ms(2000),
        Size::Reduced => SimDuration::from_ms(100),
    };
    let workload = WorkloadSpec::parsec(Benchmark::Dedup, Scale::Tiny, seed);
    let base = ScenarioSpec::preset("CATA", 16, workload).map_err(|e| e.to_string())?;
    Ok((0..CYCLES)
        .map(|k| {
            let mut base = base.clone();
            base.seed = derive_seed(seed, k);
            ServiceSpec::new(base, ArrivalSpec::Poisson { rate_hz: RATE_HZ }, duration)
        })
        .collect())
}

pub(crate) fn generate_tape(spec: &ServiceSpec) -> Result<TrafficTape, String> {
    TrafficTape::generate(
        format!("{}-traffic", spec.base.name),
        &spec.arrival,
        spec.duration,
        spec.base.workload.clone(),
        derive_seed(spec.base.seed, ARRIVAL_STREAM),
    )
    .map_err(|e| e.to_string())
}

pub(crate) fn replay(spec: &ServiceSpec, tape: &TrafficTape) -> Result<RunReport, String> {
    replay_tape(
        spec,
        tape,
        default_registries(),
        default_admission_registry(),
    )
    .map_err(|e| e.to_string())
}

/// The store cell `repro serve --store` writes for a service run.
pub(crate) fn service_record(
    spec: &ServiceSpec,
    report: RunReport,
    wall_s: f64,
    started_ms: u64,
) -> CellRecord {
    let digest = spec.digest();
    CellRecord {
        schema: STORE_SCHEMA.to_string(),
        index: u64::from_str_radix(&digest, 16).unwrap_or(0),
        cell: format!(
            "{}@{}/f{}/serve",
            spec.base.name, report.workload, spec.base.fast_cores
        ),
        grid: digest.clone(),
        spec_digest: digest,
        seed: spec.base.seed,
        wall_s,
        report,
        host: Some(host_fingerprint()),
        started_unix_ms: Some(started_ms),
        finished_unix_ms: Some(now_unix_ms()),
        spec: None,
    }
}

/// Service conservation: arrivals = admitted + dropped, and admitted =
/// completed + shed + in flight; every tape record arrived.
pub(crate) fn check_service(report: &RunReport, tape_records: usize) -> Result<(), String> {
    let s = report
        .service
        .as_ref()
        .ok_or("service run without service metrics")?;
    let shed = report.fault.as_ref().map_or(0, |f| f.shed);
    if s.arrivals != tape_records as u64
        || s.arrivals != s.admitted + s.dropped
        || s.admitted != s.completed + shed + s.in_flight
    {
        return Err(format!(
            "service accounting broken: tape {tape_records}, arrivals {}, admitted {}, dropped {}, completed {}, shed {shed}, in flight {}",
            s.arrivals, s.admitted, s.dropped, s.completed, s.in_flight
        ));
    }
    Ok(())
}

pub(crate) struct ServeFlow {
    specs: Vec<ServiceSpec>,
    store: PathBuf,
    tape: PathBuf,
    graphs: GraphFigures,
    replay_mismatch: bool,
    mismatches: u64,
    tape_records: usize,
    tape_bytes: u64,
}

impl ServeFlow {
    pub fn new(cfg: &Config, dir: &Path) -> Result<Self, String> {
        let specs = serve_specs(cfg.size, cfg.seed)?;
        for spec in &specs {
            spec.validate().map_err(|e| e.to_string())?;
        }
        let bases: Vec<ScenarioSpec> = specs.iter().map(|s| s.base.clone()).collect();
        let graphs = prepare(&bases)?;
        default_admission_registry();
        Ok(ServeFlow {
            specs,
            store: dir.join("serve.jsonl"),
            tape: dir.join("serve.tape.jsonl"),
            graphs,
            replay_mismatch: cfg.inject.replay_mismatch,
            mismatches: 0,
            tape_records: 0,
            tape_bytes: 0,
        })
    }
}

impl Flow for ServeFlow {
    fn pass_len(&self) -> usize {
        self.specs.len()
    }

    fn op(&mut self, i: usize, tr: &mut Tracer) -> Result<OpOut, String> {
        let spec = &self.specs[i];
        let tape = tr.span("service.tape_gen", || generate_tape(spec))?;
        self.tape_records = tape.records.len();
        let started = now_unix_ms();
        let t = Instant::now();
        let live = tr.span("service.run", || replay(spec, &tape))?;
        let wall_s = t.elapsed().as_secs_f64();
        let store = tr
            .span("store.open", || ResultsStore::open(&self.store))
            .map_err(|e| e.to_string())?;
        let record = service_record(spec, live, wall_s, started);
        tr.span("store.serialize", || {
            black_box(serde_json::to_string(&record))
        })
        .map_err(|e| e.to_string())?;
        tr.span("store.append", || store.append(&record))
            .map_err(|e| e.to_string())?;
        let text = tr.span("service.tape_serialize", || tape.to_jsonl());
        tr.span("service.tape_write", || std::fs::write(&self.tape, &text))
            .map_err(|e| format!("{}: {e}", self.tape.display()))?;
        let t = Instant::now();
        let back = tr
            .span("service.tape_parse", || {
                TrafficTape::from_jsonl(&text).and_then(|t| t.verify().map(|_| t))
            })
            .map_err(|e| e.to_string())?;
        let parse_s = t.elapsed().as_secs_f64();
        let again = tr.span("service.replay", || replay(spec, &back))?;
        let (live_json, mut replay_json) = tr.span("report.compare", || {
            (to_json(&record.report), to_json(&again))
        });
        let live_json = live_json?;
        if self.replay_mismatch {
            replay_json = replay_json.map(|j| j + " ");
        }
        if live_json != replay_json? {
            self.mismatches += 1;
            return Err(format!("cycle {i}: tape replay differs from the live run"));
        }
        self.tape_bytes = text.len() as u64;
        let mut out = OpOut {
            parsed_bytes: text.len() as u64,
            parse_s,
            ..OpOut::default()
        };
        out.add_work(&again);
        out.add_report(record.report);
        Ok(out)
    }

    fn check(&mut self, i: usize, out: &mut OpOut) -> Result<String, String> {
        let report = out.reports.first().ok_or("op produced no report")?;
        let json = to_json(report)?;
        let t = Instant::now();
        let loaded = ResultsStore::load(&self.store);
        out.parse_s += t.elapsed().as_secs_f64();
        let store_bytes = std::fs::metadata(&self.store).map_or(0, |m| m.len());
        let tape_bytes = std::fs::metadata(&self.tape).map_or(0, |m| m.len());
        let _ = std::fs::remove_file(&self.store);
        let _ = std::fs::remove_file(&self.tape);
        let (records, torn) = loaded.map_err(|e| e.to_string())?;
        out.written_bytes = store_bytes + tape_bytes;
        out.parsed_bytes += store_bytes;
        let [record] = records.as_slice() else {
            return Err(format!(
                "cycle {i}: store holds {} records, want 1",
                records.len()
            ));
        };
        if torn || to_json(&record.report)? != json {
            return Err(format!(
                "cycle {i}: store read-back differs from the record written"
            ));
        }
        check_service(report, self.tape_records)?;
        Ok(report_digest(&json))
    }

    fn probes(&mut self, layers: &mut Layers, _budget: Duration) {
        self.graphs.fill(layers);
        stats::set(layers, "service.tape_bytes", self.tape_bytes as f64);
        stats::set(layers, "replay.mismatches", self.mismatches as f64);
    }
}
