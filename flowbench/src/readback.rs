//! `store-readback`: the read side of the results store. Set-up writes
//! one pass of `paper-grid` and one of `contended-faults` as one grid
//! split into two shards (`Suite::shard`), plus one `serve-replay` cell
//! and its tape; each op merges them, loads the tape, and replays a fixed
//! 1-in-12 sample of the stored cells, byte-comparing each report.

use crate::closed::{contended_specs, paper_grid_specs, prepare, run_spec, GraphFigures};
use crate::serve::{check_service, generate_tape, replay, serve_specs, service_record};
use crate::span::Tracer;
use crate::stats::{self, Layers};
use crate::{report_digest, to_json, Config, Flow, OpOut};
use cata_core::exp::{now_unix_ms, spec_digest, MergedRecords, ResultsStore, Suite};
use cata_core::service::{ServiceSpec, TrafficTape};
use cata_core::SimExecutor;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Every `SAMPLE_EVERY`-th merged record (in index order) is replayed.
const SAMPLE_EVERY: usize = 12;

pub(crate) struct ReadbackFlow {
    stores: Vec<PathBuf>,
    tape: PathBuf,
    serve_spec: ServiceSpec,
    /// Report digest of every record set-up wrote, by grid index.
    written: BTreeMap<u64, String>,
    input_bytes: u64,
    tape_bytes: u64,
    graphs: GraphFigures,
    replay_mismatch: bool,
    mismatches: u64,
    torn: u64,
    merged: Option<MergedRecords>,
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

impl ReadbackFlow {
    pub fn new(cfg: &Config, dir: &Path) -> Result<Self, String> {
        let mut specs = paper_grid_specs(cfg.size, cfg.seed)?;
        specs.extend(contended_specs(cfg.size, cfg.seed)?);
        let serve_spec = serve_specs(cfg.size, cfg.seed)?.remove(0);
        let mut all = specs.clone();
        all.push(serve_spec.base.clone());
        let graphs = prepare(&all)?;

        let mut written = BTreeMap::new();
        let mut stores = Vec::new();
        for shard in 1..=2 {
            let suite = Suite::from_specs(specs.clone())
                .shard(shard, 2)
                .map_err(|e| e.to_string())?;
            let path = dir.join(format!("shard{shard}.jsonl"));
            let store = ResultsStore::open(&path).map_err(|e| e.to_string())?;
            let outcome = suite.run_with_store(&SimExecutor::default(), &store);
            for (&index, result) in suite.cell_indices().iter().zip(outcome.results) {
                let report = result.map_err(|e| e.to_string())?;
                written.insert(index, report_digest(&to_json(&report)?));
            }
            stores.push(path);
        }

        let tape = generate_tape(&serve_spec)?;
        let started = now_unix_ms();
        let t = Instant::now();
        let report = replay(&serve_spec, &tape)?;
        let record = service_record(&serve_spec, report, t.elapsed().as_secs_f64(), started);
        written.insert(record.index, report_digest(&to_json(&record.report)?));
        let serve_store = dir.join("serve.jsonl");
        ResultsStore::open(&serve_store)
            .and_then(|s| s.append(&record))
            .map_err(|e| e.to_string())?;
        stores.push(serve_store);
        let tape_path = dir.join("serve.tape.jsonl");
        std::fs::write(&tape_path, tape.to_jsonl())
            .map_err(|e| format!("{}: {e}", tape_path.display()))?;

        if cfg.inject.corrupt_record {
            // A well-formed record whose report is another cell's: only
            // the read-back oracle can tell.
            let (mut records, _) = ResultsStore::load(&stores[0]).map_err(|e| e.to_string())?;
            records[0].report = records[1].report.clone();
            ResultsStore::write_all(&stores[0], &records).map_err(|e| e.to_string())?;
        }
        Ok(ReadbackFlow {
            input_bytes: stores.iter().map(|p| file_len(p)).sum(),
            tape_bytes: file_len(&tape_path),
            stores,
            tape: tape_path,
            serve_spec,
            written,
            graphs,
            replay_mismatch: cfg.inject.replay_mismatch,
            mismatches: 0,
            torn: 0,
            merged: None,
        })
    }

    /// Replays the sampled records, byte-comparing each fresh report with
    /// the stored one.
    fn replay_sample(
        &mut self,
        merged: &MergedRecords,
        tape: &TrafficTape,
        tr: &mut Tracer,
        out: &mut OpOut,
    ) -> Result<(), String> {
        for record in merged.records.iter().step_by(SAMPLE_EVERY) {
            let fresh = match &record.spec {
                Some(spec) if spec_digest(spec) == record.spec_digest => {
                    tr.span("sim_exec.run_spec", || run_spec(spec))?
                }
                None if record.spec_digest == self.serve_spec.digest() => {
                    tr.span("service.replay", || replay(&self.serve_spec, tape))?
                }
                _ => return Err(format!("cell {}: no spec to replay it from", record.cell)),
            };
            let stored = to_json(&record.report)?;
            let mut again = to_json(&fresh)?;
            if self.replay_mismatch {
                again.push(' ');
            }
            if stored != again {
                self.mismatches += 1;
                return Err(format!(
                    "cell {}: replay differs from the stored report",
                    record.cell
                ));
            }
            out.add_report(fresh);
        }
        Ok(())
    }
}

impl Flow for ReadbackFlow {
    fn pass_len(&self) -> usize {
        1
    }

    fn op(&mut self, _i: usize, tr: &mut Tracer) -> Result<OpOut, String> {
        let t = Instant::now();
        let merged = tr
            .span("store.merge", || ResultsStore::merge_files(&self.stores))
            .map_err(|e| e.to_string())?;
        let (tape, torn) = tr
            .span("service.tape_parse", || {
                TrafficTape::load(&self.tape).and_then(|(t, torn)| t.verify().map(|_| (t, torn)))
            })
            .map_err(|e| e.to_string())?;
        let mut out = OpOut {
            parsed_bytes: self.input_bytes + self.tape_bytes,
            parse_s: t.elapsed().as_secs_f64(),
            ..OpOut::default()
        };
        self.torn = merged.truncated_shards as u64 + u64::from(torn);
        if self.torn > 0 {
            return Err(format!("{} torn store or tape tails", self.torn));
        }
        let id = tr.enter("replay");
        let replayed = self.replay_sample(&merged, &tape, tr, &mut out);
        tr.exit(id);
        replayed?;
        if let Some(serve) = out.reports.iter().find(|r| r.service.is_some()) {
            check_service(serve, tape.records.len())?;
        }
        self.merged = Some(merged);
        Ok(out)
    }

    fn check(&mut self, _i: usize, _out: &mut OpOut) -> Result<String, String> {
        let merged = self.merged.take().ok_or("op kept no merged records")?;
        if merged.records.len() != self.written.len() {
            return Err(format!(
                "merged {} records, set-up wrote {}",
                merged.records.len(),
                self.written.len()
            ));
        }
        let mut all = String::new();
        for record in &merged.records {
            let digest = report_digest(&to_json(&record.report)?);
            if self.written.get(&record.index) != Some(&digest) {
                return Err(format!(
                    "cell {}: store read-back differs from the record written",
                    record.cell
                ));
            }
            all.push_str(&digest);
        }
        Ok(report_digest(&all))
    }

    fn probes(&mut self, layers: &mut Layers, budget: Duration) {
        self.graphs.fill(layers);
        // The per-file parse `merge_files` does internally, timed alone.
        let mut load_s = Vec::new();
        let start = Instant::now();
        while load_s.len() < 3 || (start.elapsed() < budget && load_s.len() < 1000) {
            let t = Instant::now();
            for path in &self.stores {
                if let Err(e) = ResultsStore::load(path) {
                    eprintln!("warning: load probe failed: {e}");
                    return;
                }
            }
            load_s.push(t.elapsed().as_secs_f64());
        }
        let load = stats::median(&load_s);
        let records = self.written.len();
        stats::set(layers, "store.load_s", load);
        stats::set(
            layers,
            "store.bytes_read",
            (self.input_bytes + self.tape_bytes) as f64,
        );
        stats::set(
            layers,
            "store.parse_mb_per_s",
            stats::ratio(self.input_bytes as f64 / (1u64 << 20) as f64, load),
        );
        stats::set(layers, "store.records_read", records as f64);
        stats::set(layers, "store.torn_tails", self.torn as f64);
        stats::set(
            layers,
            "replay.cells",
            records.div_ceil(SAMPLE_EVERY) as f64,
        );
        stats::set(layers, "replay.mismatches", self.mismatches as f64);
        stats::set(layers, "service.tape_bytes", self.tape_bytes as f64);
    }
}
