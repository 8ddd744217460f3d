//! Criterion bench regenerating Figure 5 cells (experiment F5a/F5b):
//! CATA vs CATA+RSU vs TurboMode.

use cata_bench::matrix::{run_one, DEFAULT_SEED};
use cata_workloads::{Benchmark, Scale};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn fig5(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5");
    group.sample_size(10);
    for bench in Benchmark::all() {
        let fifo = run_one(bench, "FIFO", 16, Scale::Small, DEFAULT_SEED);
        for label in ["CATA", "CATA+RSU", "TurboMode"] {
            let r = run_one(bench, label, 16, Scale::Small, DEFAULT_SEED);
            println!(
                "fig5 {:<14} {:<10}: speedup {:.3}  norm-EDP {:.3}",
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

criterion_group!(benches, fig5);
criterion_main!(benches);
