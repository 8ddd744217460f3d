//! Criterion micro-benchmarks of the substrates: DES event queue, TDG
//! bottom-level maintenance, the progress model, and the native runtime —
//! the costs that bound the harness's own throughput.

use cata_core::native::{NativeRuntime, RsmMode};
use cata_sim::event::EventQueue;
use cata_sim::progress::{ExecProfile, RunningTask};
use cata_sim::time::{Frequency, SimDuration, SimTime};
use cata_tdg::bottom_level::BottomLevels;
use cata_tdg::TaskGraph;
use cata_workloads::micro;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn event_queue(c: &mut Criterion) {
    c.bench_function("substrate/event_queue_push_pop_1k", |b| {
        b.iter(|| {
            let mut q = EventQueue::with_capacity(1024);
            for i in 0..1024u64 {
                q.push(SimTime::from_ns((i * 7919) % 100_000), i);
            }
            let mut sum = 0u64;
            while let Some((_, e)) = q.pop() {
                sum = sum.wrapping_add(e);
            }
            black_box(sum)
        });
    });
    // The engines' own pattern: a shallow queue in which each of 32 cores
    // keeps one pending event, and popping a core's event schedules that
    // core's next one, 1–10 µs later.
    c.bench_function("substrate/event_queue_hold_32", |b| {
        let mut q = EventQueue::with_capacity(32);
        b.iter(|| {
            q.reset();
            for core in 0..32u64 {
                q.push(SimTime::from_ns(core * 37 % 100), core);
            }
            let mut sum = 0u64;
            for _ in 0..1024 {
                let (t, core) = q.pop().expect("every core keeps one event");
                sum = sum.wrapping_add(core);
                q.push(
                    t + SimDuration::from_ns(1_000 + (core * 7919 + sum) % 9_000),
                    core,
                );
            }
            black_box(sum)
        });
    });
}

fn bottom_level(c: &mut Criterion) {
    c.bench_function("substrate/bottom_level_stencil_1frame", |b| {
        b.iter(|| {
            let g = micro::fork_join(4, 64, 1000);
            let mut bl = BottomLevels::new();
            let mut graph = TaskGraph::new();
            let ty = graph.add_type("t", 0);
            for t in g.tasks() {
                let deps: Vec<_> = t.preds().to_vec();
                let id = graph.add_task(ty, t.profile.clone(), &deps);
                bl.on_submit(&graph, id);
            }
            black_box(bl.total_visits())
        });
    });
}

fn progress_model(c: &mut Criterion) {
    c.bench_function("substrate/progress_freq_changes", |b| {
        b.iter(|| {
            let p = ExecProfile::new(1_000_000, 50_000);
            let mut rt = RunningTask::start(&p, SimTime::ZERO, Frequency::from_ghz(1));
            for i in 0..100u64 {
                let f = if i % 2 == 0 {
                    Frequency::from_ghz(2)
                } else {
                    Frequency::from_ghz(1)
                };
                rt.set_frequency(SimTime::from_ns(i * 1000), f);
            }
            black_box(rt.progress())
        });
    });
}

fn native_runtime(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate/native");
    group.sample_size(10);
    for mode in [RsmMode::Software, RsmMode::RsuEmulated] {
        group.bench_function(format!("spawn_1k_{mode:?}"), |b| {
            b.iter(|| {
                let rt = NativeRuntime::builder(4).budget(2).rsm_mode(mode).build();
                for i in 0..1000 {
                    rt.spawn(i % 5 == 0, &[], || {});
                }
                rt.wait_all();
                black_box(rt.metrics().tasks_run)
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    event_queue,
    bottom_level,
    progress_model,
    native_runtime
);
criterion_main!(benches);
