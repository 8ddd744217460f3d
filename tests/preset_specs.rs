//! Exact pins of the paper presets as specs.
//!
//! `Suite::run_with_store` resumes a cell by `(index, spec_digest)`, and
//! the digest hashes the spec's compact JSON. A preset that serializes
//! one byte differently would silently re-run every stored cell, so the
//! JSON of every preset at the paper's three fast-core counts — and of
//! the `ScenarioSpec::new` baseline — is pinned here byte for byte
//! (`fixtures/preset_specs.jsonl`, one `key<TAB>json` line each), next
//! to its digest.

use cata_core::exp::spec::PAPER_PRESETS;
use cata_core::exp::{spec_digest, ScenarioSpec, WorkloadSpec};
use cata_workloads::{Benchmark, Scale};

const FIXTURE: &str = include_str!("fixtures/preset_specs.jsonl");

/// `spec_digest` of every pinned spec, in fixture order.
const DIGESTS: [(&str, &str); 19] = [
    ("FIFO@f8", "6a5e8d017f603462"),
    ("CATS+BL@f8", "aeba42fe2bb92209"),
    ("CATS+SA@f8", "7200ea99d74a8e9e"),
    ("CATA@f8", "77668ebb0a85b40e"),
    ("CATA+RSU@f8", "a41f883c5b0a7a44"),
    ("TurboMode@f8", "ea7f5e12ca01aae2"),
    ("FIFO@f16", "946d3a2f4324a90d"),
    ("CATS+BL@f16", "2acc1eeb7da71b3e"),
    ("CATS+SA@f16", "cafd83929088b1b5"),
    ("CATA@f16", "72202b21a8e225f9"),
    ("CATA+RSU@f16", "4be3aafad1d9ff97"),
    ("TurboMode@f16", "f1ed0edcd90ba9eb"),
    ("FIFO@f24", "ae6a479f18cd5b96"),
    ("CATS+BL@f24", "c075987248151ebd"),
    ("CATS+SA@f24", "37d17bb9a146549a"),
    ("CATA@f24", "f49a48d25e9b727c"),
    ("CATA+RSU@f24", "5283950548027f68"),
    ("TurboMode@f24", "d9133f10d873a790"),
    ("new", "40ae90979b293ea6"),
];

fn workload() -> WorkloadSpec {
    WorkloadSpec::parsec(Benchmark::Dedup, Scale::Tiny, 42)
}

/// Every pinned spec with its fixture key, in fixture order.
fn pinned_specs() -> Vec<(String, ScenarioSpec)> {
    let mut out = Vec::new();
    for fast in [8, 16, 24] {
        for label in PAPER_PRESETS {
            let spec = ScenarioSpec::preset(label, fast, workload()).expect("preset");
            out.push((format!("{label}@f{fast}"), spec));
        }
    }
    out.push(("new".to_string(), ScenarioSpec::new("baseline", workload())));
    out
}

#[test]
fn preset_specs_serialize_to_pinned_bytes() {
    let specs = pinned_specs();
    let lines: Vec<&str> = FIXTURE.lines().collect();
    assert_eq!(lines.len(), specs.len(), "fixture line count");
    for ((key, spec), line) in specs.iter().zip(lines) {
        let want = format!("{key}\t{}", spec.to_json());
        assert_eq!(line, want, "{key}: serialized spec drifted");
    }
}

#[test]
fn preset_spec_digests_are_pinned() {
    let specs = pinned_specs();
    assert_eq!(specs.len(), DIGESTS.len());
    for ((key, spec), (want_key, want)) in specs.iter().zip(DIGESTS) {
        assert_eq!(key, want_key);
        assert_eq!(spec_digest(spec), want, "{key}: spec digest drifted");
    }
}

#[test]
fn presets_match_paper_settings() {
    let m = ScenarioSpec::paper_matrix(16, workload());
    let labels: Vec<&str> = m.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(labels, PAPER_PRESETS);
    assert_eq!(m[1].estimator, "bottom-level");
    assert_eq!(m[2].estimator, "static-annotations");
    assert_eq!(m[3].accel, "software-cata");
    assert_eq!(m[4].accel, "rsu");
    assert_eq!(m[5].accel, "turbo");
    for s in &m {
        assert_eq!(s.machine.num_cores, 32);
        assert_eq!(s.fast_cores, 16);
    }
    // Only TurboMode halts idle cores (Nanos++ busy-waits).
    assert!(m[5].idle_to_halt.is_some());
    assert!(m[3].idle_to_halt.is_none());
}
