//! Exact pins of the engine paths that fault injection, the memory gate
//! and instance shedding exercise. The golden preset digests
//! (`golden_digest.rs`) run fault-free and uncontended, and the fault and
//! memory suites only compare a run against a second run of itself, so
//! without these pins a change that moves those paths consistently would
//! pass unnoticed.
//!
//! Each pin covers makespan (ps), energy bits, every `Counters` field,
//! and the fault and memory report digests; the service pin adds the
//! service-metric fields. Regenerate with
//! `cargo test --test engine_pins -- --ignored --nocapture print_engine_pins`.

use cata_core::exp::{default_registries, ScenarioSpec, WorkloadSpec};
use cata_core::fault::FaultSpec;
use cata_core::mem::MemorySpec;
use cata_core::service::{default_admission_registry, run_service, ArrivalSpec, ServiceSpec};
use cata_core::{RunReport, SimExecutor};
use cata_sim::time::SimDuration;
use cata_workloads::{Benchmark, Scale};

const SEED: u64 = 42;

/// Bit-exact digest of one run: makespan, energy bits, every counter,
/// the fault and memory digests and, for service runs, the service
/// metrics in raw picoseconds.
fn pin(r: &RunReport) -> String {
    let c = &r.counters;
    let mut out = format!(
        "t={} e={:016x} done={} req={} app={} noop={} denied={} swaps={} steals={} halts={} \
         events={} fault={} mem={}",
        r.exec_time.as_ps(),
        r.energy.energy_j.to_bits(),
        c.tasks_completed,
        c.reconfigs_requested,
        c.reconfigs_applied,
        c.reconfigs_noop,
        c.accel_denied,
        c.accel_swaps,
        c.cross_queue_steals,
        c.halts,
        c.sim_events,
        r.fault.as_ref().map_or("-".into(), |f| f.digest()),
        r.memory.as_ref().map_or("-".into(), |m| m.digest()),
    );
    if let Some(s) = &r.service {
        out += &format!(
            " arr={} adm={} drop={} svc_done={} p50={} p99={} p999={} q99={} s99={}",
            s.arrivals,
            s.admitted,
            s.dropped,
            s.completed,
            s.p50().as_ps(),
            s.p99().as_ps(),
            s.p999().as_ps(),
            s.queue_wait.quantile(0.99).as_ps(),
            s.service_time.quantile(0.99).as_ps(),
        );
    }
    out
}

fn dedup_tiny(preset: &str, fast: usize) -> ScenarioSpec {
    let mut spec = ScenarioSpec::preset(
        preset,
        fast,
        WorkloadSpec::parsec(Benchmark::Dedup, Scale::Tiny, SEED),
    )
    .expect("preset");
    spec.seed = SEED;
    spec
}

/// The CI chaos schedule (`--fault-cores 0@1ms+3ms,3@2ms --fault-rate
/// 0.05`) plus a one-slot crit-first memory gate, on a closed run.
fn closed_spec(preset: &str) -> ScenarioSpec {
    let mut spec = dedup_tiny(preset, 8);
    spec.faults = Some(FaultSpec {
        core_failures: FaultSpec::parse_cores("0@1ms+3ms,3@2ms").expect("schedule"),
        task_fault_p: 0.05,
        ..FaultSpec::default()
    });
    spec.memory = Some(MemorySpec {
        slots: 1,
        arbitration: "crit-first".into(),
    });
    spec
}

fn closed(preset: &str) -> RunReport {
    SimExecutor::default()
        .run_spec(&closed_spec(preset), default_registries())
        .expect("closed run")
        .0
}

/// A degraded, contended serve: the CI chaos-serve schedule with a
/// two-slot fifo memory gate.
fn serve() -> RunReport {
    let mut base = dedup_tiny("CATA", 16);
    base.faults = Some(FaultSpec {
        core_failures: FaultSpec::parse_cores("0@2ms,1@3ms").expect("schedule"),
        recovery: "shed-noncritical-on-degraded".into(),
        ..FaultSpec::default()
    });
    base.memory = Some(MemorySpec {
        slots: 2,
        arbitration: "fifo".into(),
    });
    let spec = ServiceSpec::new(
        base,
        ArrivalSpec::Poisson { rate_hz: 4000.0 },
        SimDuration::from_ms(20),
    );
    run_service(&spec, default_registries(), default_admission_registry())
        .expect("service run")
        .0
}

const PIN_CLOSED_CATA: &str = "t=35329541115 e=3ff94bb27606ec0b done=516 req=144 app=144 noop=0 denied=0 swaps=8 steals=494 halts=167 events=3306 \
     fault=2fd15fd5c65ecc37 mem=4912ad7f3c69a13a";
const PIN_CLOSED_CATS_BL: &str = "t=36548546377 e=3ff7e8965858b240 done=516 req=0 app=0 noop=0 denied=0 swaps=0 steals=171 halts=168 events=3311 \
     fault=a4efdde15ce9876a mem=1ce2e26df9fa6249";
const PIN_SERVE_CATA: &str = "t=1479885284887 e=405551393e76b628 done=46974 req=2935 app=2935 noop=0 denied=1806 swaps=233 steals=44852 halts=14294 events=218680 \
     fault=dcfaa2a88d99b442 mem=5e19c287aa294c90 arr=92 adm=92 drop=0 svc_done=91 p50=1458898556773 p99=1458898556773 p999=1458898556773 q99=3489660928 s99=1456560921849";

#[test]
fn closed_cata_faulted_contended_run_matches_pin() {
    let r = closed("CATA");
    assert!(r.fault.as_ref().unwrap().displaced > 0, "no task displaced");
    assert_eq!(pin(&r), PIN_CLOSED_CATA);
}

/// CATS+BL classifies a displaced task through the dynamic estimator on
/// requeue, a path the static-annotation presets never take.
#[test]
fn closed_cats_bl_faulted_contended_run_matches_pin() {
    let r = closed("CATS+BL");
    assert!(r.fault.as_ref().unwrap().displaced > 0, "no task displaced");
    assert_eq!(pin(&r), PIN_CLOSED_CATS_BL);
}

#[test]
fn degraded_contended_serve_matches_pin() {
    let r = serve();
    assert!(r.fault.as_ref().unwrap().shed > 0, "no instance shed");
    assert_eq!(pin(&r), PIN_SERVE_CATA);
}

#[test]
#[ignore = "prints the current pins for regeneration"]
fn print_engine_pins() {
    println!("PIN_CLOSED_CATA: {}", pin(&closed("CATA")));
    println!("PIN_CLOSED_CATS_BL: {}", pin(&closed("CATS+BL")));
    println!("PIN_SERVE_CATA: {}", pin(&serve()));
}
