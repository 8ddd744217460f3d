//! Criterion bench regenerating Figure 4 cells (experiment F4a/F4b).
//!
//! Each benchmark target simulates one (benchmark, configuration) cell at 16
//! fast cores and Small scale; the measured wall time is the harness cost of
//! regenerating that cell. The derived paper metrics (speedup, normalized
//! EDP) are printed once per target so `cargo bench` output doubles as a
//! compact reproduction record.

use cata_bench::matrix::{run_one, DEFAULT_SEED};
use cata_workloads::{Benchmark, Scale};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn fig4(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4");
    group.sample_size(10);
    for bench in Benchmark::all() {
        let fifo = run_one(bench, "FIFO", 16, Scale::Small, DEFAULT_SEED);
        for label in ["CATS+BL", "CATS+SA", "CATA"] {
            let r = run_one(bench, label, 16, Scale::Small, DEFAULT_SEED);
            println!(
                "fig4 {:<14} {:<8}: speedup {:.3}  norm-EDP {:.3}",
                bench.name(),
                label,
                r.speedup_over(&fifo),
                r.edp_normalized_to(&fifo).unwrap_or(f64::NAN)
            );
            group.bench_with_input(
                BenchmarkId::new(label, bench.name()),
                &label,
                |b, &label| {
                    b.iter(|| run_one(bench, label, 16, Scale::Tiny, DEFAULT_SEED));
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, fig4);
criterion_main!(benches);
