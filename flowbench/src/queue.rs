//! Event-queue cost under two access patterns, on both backends:
//!
//! - *trace replay*: the event timestamps of a traced engine run, fed
//!   through `push`/`pop` as a hold model (each core keeps one pending
//!   event; popping it schedules that core's next one), so queue depth
//!   and time spread follow the engine's;
//! - *fill-then-drain*: the substrate micro-bench pattern (push 1024
//!   events, drain them all).
//!
//! Comparing both with the engine's whole per-event cost shows which
//! pattern can describe the engine.

use cata_sim::event::{EventBackend, EventQueue};
use cata_sim::time::SimTime;
use cata_sim::trace::{TraceEvent, TraceRecord};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One traced run's timestamps, split per core (each list in time order).
pub type CoreTimes = Vec<Vec<u64>>;

pub fn core_times(records: &[TraceRecord]) -> CoreTimes {
    let mut per_core: CoreTimes = Vec::new();
    for r in records {
        let core = match r.event {
            TraceEvent::TaskStart { core, .. }
            | TraceEvent::TaskEnd { core, .. }
            | TraceEvent::ReconfigRequest { core, .. }
            | TraceEvent::ReconfigApplied { core, .. }
            | TraceEvent::Halt { core }
            | TraceEvent::Wake { core } => core.0 as usize,
        };
        if per_core.len() <= core {
            per_core.resize(core + 1, Vec::new());
        }
        per_core[core].push(r.time.as_ps());
    }
    per_core
}

/// Replays one run's timestamps; returns the number of push+pop pairs.
fn replay(q: &mut EventQueue<u32>, run: &CoreTimes, next: &mut Vec<usize>) -> u64 {
    q.reset();
    next.clear();
    next.resize(run.len(), 1);
    for (core, times) in run.iter().enumerate() {
        if let Some(&t) = times.first() {
            q.push(SimTime::from_ps(t), core as u32);
        }
    }
    let mut ops = 0;
    while let Some((_, core)) = q.pop() {
        ops += 1;
        let core = core as usize;
        if let Some(&t) = run[core].get(next[core]) {
            q.push(SimTime::from_ps(t), core as u32);
            next[core] += 1;
        }
    }
    ops
}

fn fill_drain(backend: EventBackend) -> u64 {
    let mut q = EventQueue::with_backend(backend);
    q.reserve(1024);
    for i in 0..1024u64 {
        q.push(SimTime::from_ns((i * 7919) % 100_000), i);
    }
    let mut sum = 0u64;
    while let Some((_, e)) = q.pop() {
        sum = sum.wrapping_add(e);
    }
    black_box(sum);
    1024
}

/// Nanoseconds per push+pop for each `(pattern, backend)`.
#[derive(Debug, Default, Clone, Copy)]
pub struct QueueFigures {
    /// push+pop pairs in one replay of every traced run.
    pub ops: u64,
    pub heap_ns: f64,
    pub wheel_ns: f64,
    pub heap_fill_drain_ns: f64,
    pub wheel_fill_drain_ns: f64,
}

/// Repeats `f` (which returns ops done) for at least `budget`; the
/// median ns/op over the repetitions.
fn ns_per_op(budget: Duration, mut f: impl FnMut() -> u64) -> f64 {
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 3 || (start.elapsed() < budget && samples.len() < 10_000) {
        let t = Instant::now();
        let ops = f().max(1);
        samples.push(t.elapsed().as_nanos() as f64 / ops as f64);
    }
    crate::stats::median(&samples)
}

/// Measures both patterns on both backends, splitting `budget` evenly.
pub fn measure(runs: &[CoreTimes], budget: Duration) -> QueueFigures {
    let each = budget / 4;
    let mut next = Vec::new();
    let mut replay_all = |backend| {
        let mut q = EventQueue::with_backend(backend);
        ns_per_op(each, || {
            runs.iter()
                .map(|run| replay(&mut q, run, &mut next))
                .sum::<u64>()
        })
    };
    let heap_ns = replay_all(EventBackend::Heap);
    let wheel_ns = replay_all(EventBackend::CalendarWheel);
    QueueFigures {
        ops: runs
            .iter()
            .map(|r| r.iter().map(Vec::len).sum::<usize>() as u64)
            .sum(),
        heap_ns,
        wheel_ns,
        heap_fill_drain_ns: ns_per_op(each, || fill_drain(EventBackend::Heap)),
        wheel_fill_drain_ns: ns_per_op(each, || fill_drain(EventBackend::CalendarWheel)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cata_sim::machine::CoreId;

    #[test]
    fn replay_pops_every_traced_event_once() {
        let records: Vec<TraceRecord> = [(0, 10), (1, 5), (0, 20), (1, 30), (0, 40)]
            .iter()
            .map(|&(core, t)| TraceRecord {
                time: SimTime::from_ps(t),
                event: TraceEvent::Halt { core: CoreId(core) },
            })
            .collect();
        let run = core_times(&records);
        assert_eq!(run, vec![vec![10, 20, 40], vec![5, 30]]);
        for backend in EventBackend::ALL {
            let mut q = EventQueue::with_backend(backend);
            assert_eq!(replay(&mut q, &run, &mut Vec::new()), 5);
        }
    }
}
