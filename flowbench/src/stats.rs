//! Metric catalog, order statistics, and run provenance.

use std::collections::BTreeMap;
use std::path::Path;

/// End-to-end metrics of the untraced run: `(name, unit)`, printed for
/// every workload. `fail_ratio` is printed beside them in the text report;
/// the machine-readable form carries `ok_ratio` (its complement), which is
/// never zero on a healthy run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("sim_events_per_s", "events/s"),
    ("sim_s_per_host_s", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("store_bytes_per_op", "B"),
    ("read_mb_per_s", "MiB/s"),
    ("ok_ratio", "ratio"),
];

/// Per-layer metrics of the traced run. Counts are per pass of the
/// workload (a fixed set of ops), so they repeat exactly between runs;
/// `_us` figures are medians per call; `_s` figures are per pass unless
/// noted in the README. A layer the workload bypasses reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.graphs_built", "count"),
    ("workloads.build_s", "s"),
    ("workloads.tasks", "count"),
    ("tdg.view_build_us", "us"),
    ("tdg.bottom_level_us", "us"),
    ("tdg.edges", "count"),
    ("exp.validate_us", "us"),
    ("exp.resolve_us", "us"),
    ("exp.spec_digest_us", "us"),
    ("sim_exec.calls", "count"),
    ("sim_exec.busy_s", "s"),
    ("sim_exec.events", "count"),
    ("sim_exec.ns_per_event", "ns"),
    ("sim_exec.share", "ratio"),
    ("event.ops", "count"),
    ("event.heap_ns_per_op", "ns"),
    ("event.wheel_ns_per_op", "ns"),
    ("event.heap_fill_drain_ns_per_op", "ns"),
    ("event.wheel_fill_drain_ns_per_op", "ns"),
    ("event.replay_vs_engine", "ratio"),
    ("event.fill_drain_vs_engine", "ratio"),
    ("accel.reconfigs_requested", "count"),
    ("accel.reconfigs_applied", "count"),
    ("accel.reconfig_useful_ratio", "ratio"),
    ("accel.swaps", "count"),
    ("accel.denied", "count"),
    ("policy.cross_queue_steals", "count"),
    ("trace.task_starts", "count"),
    ("trace.task_ends", "count"),
    ("trace.reconfig_requests", "count"),
    ("trace.reconfigs_applied", "count"),
    ("trace.halts", "count"),
    ("trace.wakes", "count"),
    ("mem.requests", "count"),
    ("mem.waited", "count"),
    ("mem.wait_ratio", "ratio"),
    ("mem.wait_ps", "ps"),
    ("mem.crit_wait_ps", "ps"),
    ("mem.max_wait_ps", "ps"),
    ("fault.injected", "count"),
    ("fault.recovered", "count"),
    ("fault.reexec", "count"),
    ("fault.reexec_ratio", "ratio"),
    ("fault.twin_busy_s", "s"),
    ("fault.twin_share", "ratio"),
    ("service.tape_gen_us", "us"),
    ("service.run_s", "s"),
    ("service.replay_s", "s"),
    ("service.events", "count"),
    ("service.ns_per_event", "ns"),
    ("service.arrivals", "count"),
    ("service.admitted", "count"),
    ("service.dropped", "count"),
    ("service.completed", "count"),
    ("service.qwait_p99_ps", "ps"),
    ("service.tape_bytes", "B"),
    ("service.tape_parse_us", "us"),
    ("store.serialize_us", "us"),
    ("store.append_us", "us"),
    ("store.bytes_written", "B"),
    ("store.raw_samples_share", "ratio"),
    ("store.load_s", "s"),
    ("store.merge_s", "s"),
    ("store.bytes_read", "B"),
    ("store.parse_mb_per_s", "MiB/s"),
    ("store.records_read", "count"),
    ("store.torn_tails", "count"),
    ("replay.cells", "count"),
    ("replay.s", "s"),
    ("replay.mismatches", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.residual_share", "ratio"),
];

/// Per-layer values by name; every catalog entry starts at 0.
pub type Layers = BTreeMap<&'static str, f64>;

pub fn empty_layers() -> Layers {
    PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect()
}

/// Adds `v` to a catalog entry (panics on a name outside the catalog,
/// which is a bug in this benchmark).
pub fn add(layers: &mut Layers, name: &'static str, v: f64) {
    *layers
        .get_mut(name)
        .unwrap_or_else(|| panic!("`{name}` is not in the per-layer catalog")) += v;
}

pub fn set(layers: &mut Layers, name: &'static str, v: f64) {
    *layers
        .get_mut(name)
        .unwrap_or_else(|| panic!("`{name}` is not in the per-layer catalog")) = v;
}

/// Nearest-rank quantile (`q` in `[0, 1]`); 0 for no samples. With `n`
/// samples, `n - ceil(q·n)` of them lie above the reported value.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Sum that reads +0 for no values.
pub fn sum(values: &[f64]) -> f64 {
    values.iter().fold(0.0, |a, b| a + b)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Smallest value, or 0 for none.
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// `a / b`, or 0 when `b` is 0 (a layer the workload bypasses).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident set of this process (VmHWM), MiB; 0 where unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Where a result came from. Results from different hosts are never
/// compared (see `compare` in the binary).
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    pub host: String,
    pub nproc: usize,
    pub seed: u64,
    pub git_rev: String,
}

impl Provenance {
    pub fn collect(seed: u64, repo: &Path) -> Self {
        Provenance {
            host: cata_core::exp::host_fingerprint(),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            seed,
            git_rev: git_rev(repo),
        }
    }
}

/// The checked-out commit, read from `.git` without running git;
/// `"unknown"` outside a git checkout.
pub fn git_rev(repo: &Path) -> String {
    let git = repo.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_leaves_ten_beyond_p90_of_a_hundred() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(median(&v), 50.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn catalog_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
