//! Each workload at reduced size: every catalog metric is printed with
//! its unit, outputs pass their oracles, simulated counts repeat, and
//! injected defects raise `fail_ratio` above 0.

use super::*;

fn config(workload: Workload, trace: bool, tag: &str) -> Config {
    let mut cfg = Config::new(workload, DEFAULT_SEED, 0.3, trace);
    cfg.size = Size::Reduced;
    cfg.work_root = std::env::temp_dir().join(format!(
        "cata-flowbench-test-{tag}-{}-{}",
        workload.name(),
        std::process::id()
    ));
    cfg
}

fn run_ok(cfg: &Config) -> Outcome {
    let outcome = run(cfg).expect("set-up succeeds");
    assert!(
        outcome.correct(),
        "{} failed: {:?}",
        cfg.workload.name(),
        outcome.errors
    );
    outcome
}

fn assert_prints(outcome: &Outcome, catalog: &[(&str, &str)]) {
    let text = outcome.text();
    let json = outcome.json();
    let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
    let want: Vec<&str> = catalog.iter().map(|m| m.0).collect();
    assert_eq!(names, want);
    for (name, unit) in catalog {
        let row = text
            .lines()
            .find(|l| l.split_whitespace().nth(1) == Some(*name))
            .unwrap_or_else(|| panic!("{name} missing from:\n{text}"));
        assert_eq!(row.split_whitespace().nth(3), Some(*unit), "{row}");
        assert!(
            json.contains(&format!("\"{name}\": {{\"value\": ")) && json.contains(unit),
            "{name} missing from {json}"
        );
    }
    assert!(text.contains("fail_ratio"));
    let parsed = serde_json::parse_value(&json).expect("result line is JSON");
    assert!(parsed.get("correct").is_some() && parsed.get("attempted").is_some());
}

#[test]
fn untraced_runs_print_every_end_to_end_metric() {
    for workload in Workload::ALL {
        let outcome = run_ok(&config(workload, false, "e2e"));
        assert_prints(&outcome, stats::END_TO_END);
        assert_eq!(outcome.fail_ratio(), 0.0);
        for m in &outcome.metrics {
            assert!(
                m.value > 0.0,
                "{}: {} is {}",
                workload.name(),
                m.name,
                m.value
            );
        }
    }
}

#[test]
fn traced_runs_print_every_layer_metric_and_counts_repeat() {
    for workload in Workload::ALL {
        let a = run_ok(&config(workload, true, "layers-a"));
        assert_prints(&a, stats::PER_LAYER);
        let b = run_ok(&config(workload, true, "layers-b"));
        for (x, y) in a.metrics.iter().zip(&b.metrics) {
            let unit = x.unit;
            let simulated = [
                "accel.",
                "policy.",
                "mem.",
                "fault.",
                "service.",
                "trace.",
                "sim_exec.",
            ]
            .iter()
            .any(|p| x.name.starts_with(p));
            if simulated && unit == "count" || x.name.starts_with("mem.") && unit == "ps" {
                assert_eq!(x.value, y.value, "{}: {} differs", workload.name(), x.name);
            }
        }
    }
}

#[test]
fn corrupted_record_fails_store_readback() {
    let mut cfg = config(Workload::StoreReadback, false, "corrupt");
    cfg.inject.corrupt_record = true;
    let outcome = run(&cfg).expect("set-up succeeds");
    assert!(outcome.fail_ratio() > 0.0);
    assert!(!outcome.correct());
}

#[test]
fn replay_mismatch_fails_the_replaying_workloads() {
    for workload in [Workload::ServeReplay, Workload::StoreReadback] {
        let mut cfg = config(workload, false, "mismatch");
        cfg.inject.replay_mismatch = true;
        let outcome = run(&cfg).expect("set-up succeeds");
        assert!(outcome.fail_ratio() > 0.0, "{}", workload.name());
    }
}

#[test]
fn benchmark_manifest_matches_the_catalog() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let manifest = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
    for (key, catalog) in [
        ("end_to_end", stats::END_TO_END),
        ("per_layer", stats::PER_LAYER),
    ] {
        let Some(serde::Value::Seq(entries)) = manifest.get(key) else {
            panic!("BENCHMARK.json has no `{key}` list");
        };
        let listed: Vec<(String, String)> = entries
            .iter()
            .map(|e| match (e.get("name"), e.get("unit")) {
                (Some(serde::Value::Str(n)), Some(serde::Value::Str(u))) => (n.clone(), u.clone()),
                _ => panic!("{key} entry without name/unit"),
            })
            .collect();
        let want: Vec<(String, String)> = catalog
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed, want, "{key}");
    }
    let Some(serde::Value::Seq(workloads)) = manifest.get("workloads") else {
        panic!("BENCHMARK.json has no workloads");
    };
    let names: Vec<&serde::Value> = workloads.iter().filter_map(|w| w.get("name")).collect();
    assert_eq!(names.len(), Workload::ALL.len());
    for (name, workload) in names.iter().zip(Workload::ALL) {
        assert_eq!(**name, serde::Value::Str(workload.name().to_string()));
    }
}

#[test]
fn pinned_digests_cover_the_grid() {
    let specs = paper_grid_specs(Size::Full, DEFAULT_SEED).expect("specs");
    assert!(closed::pinned_digests(specs.len()).is_ok());
}

#[test]
fn tail_cancels_host_speed_regimes_but_keeps_slow_ops() {
    // Two positions (best 1 s and 2 s); every sixth op is three times
    // slower on its own; the host runs twice as slow for the second half.
    let mut totals = Totals::new(2);
    let out = OpOut::default();
    for j in 0..40 {
        let own = if j % 6 == 0 { 3.0 } else { 1.0 };
        let regime = if j >= 20 { 2.0 } else { 1.0 };
        totals.add(j % 2, [1.0, 2.0][j % 2] * own * regime, &out);
    }
    let raw: Vec<f64> = totals.ok_ops.iter().map(|&(_, dt)| dt).collect();
    assert_eq!(stats::quantile(&raw, 0.9), 4.0);
    assert!((totals.tail(0.9) - 3.0).abs() < 1e-12);
    assert!(totals.tail(0.5) <= 2.0);
}
