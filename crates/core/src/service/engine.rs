//! The service entry points: generate or load a traffic tape and replay
//! it through the engine.
//!
//! There is one engine (`crate::engine`): the core lifecycle,
//! dispatch walk, memory gate and fault handling are the closed-system
//! run's, fed by an arrival-stream task source instead of a master
//! thread. Tape records become arrival events; each admitted instance
//! runs in a pooled slot, and completions fold into streaming
//! log-bucketed [`LatencyHistogram`](cata_sim::stats::LatencyHistogram)s.
//! Service runs record no trace.

use super::admission::AdmissionRegistry;
use super::spec::{ArrivalSpec, ServiceSpec};
use super::tape::TrafficTape;
use crate::engine::open::{workload_table, TapeArrivals};
use crate::exp::error::ExpError;
use crate::exp::progress::ProgressWriter;
use crate::exp::registry::{PolicyKeys, PolicyRegistries};
use crate::exp::suite::derive_seed;
use crate::report::RunReport;
use crate::sim_exec::EngineParams;
use cata_sim::trace::TraceMode;

/// Seed-stream tag for arrival generation, so the traffic draw is
/// decorrelated from the run seed the policies see.
const ARRIVAL_STREAM: u64 = 0x7A9E_0001;

/// Runs a service spec end to end: generates the traffic tape its
/// arrival process describes, replays it, and returns both the report
/// and the tape (so callers can store/record the traffic they measured).
///
/// Record → replay bit-identity holds by construction: this function
/// *only* generates the tape and delegates to [`replay_tape`], so a
/// recorded tape replays through exactly the code path that produced the
/// original report.
pub fn run_service(
    spec: &ServiceSpec,
    registries: &PolicyRegistries,
    admissions: &AdmissionRegistry,
) -> Result<(RunReport, TrafficTape), ExpError> {
    run_service_observed(spec, registries, admissions, None)
}

/// Like [`run_service`], with heartbeat telemetry: the engine streams a
/// [`ServiceSnapshot`](crate::exp::progress::ProgressEvent::ServiceSnapshot)
/// of its accounting (arrivals, drops, in-flight, p99-so-far) into
/// `progress` every 64 arrivals plus once at drain. Heartbeats
/// are best-effort and purely observational — the report is bit-identical
/// with `None`.
pub fn run_service_observed(
    spec: &ServiceSpec,
    registries: &PolicyRegistries,
    admissions: &AdmissionRegistry,
    progress: Option<&ProgressWriter>,
) -> Result<(RunReport, TrafficTape), ExpError> {
    spec.validate()?;
    if matches!(spec.arrival, ArrivalSpec::Tape { .. }) {
        return Err(ExpError::InvalidSpec(
            "spec pins a traffic tape; load the tape file and call replay_tape".to_string(),
        ));
    }
    let tape = TrafficTape::generate(
        format!("{}-traffic", spec.base.name),
        &spec.arrival,
        spec.duration,
        spec.base.workload.clone(),
        derive_seed(spec.base.seed, ARRIVAL_STREAM),
    )?;
    let report = replay_tape_observed(spec, &tape, registries, admissions, progress)?;
    Ok((report, tape))
}

/// Replays a traffic tape under `spec`'s machine, policies, and
/// admission gate. Verifies the tape (and, for tape-pinned specs, the
/// digest pin) first. Same spec + same tape ⇒ bit-identical report.
pub fn replay_tape(
    spec: &ServiceSpec,
    tape: &TrafficTape,
    registries: &PolicyRegistries,
    admissions: &AdmissionRegistry,
) -> Result<RunReport, ExpError> {
    replay_tape_observed(spec, tape, registries, admissions, None)
}

/// Like [`replay_tape`], with heartbeat telemetry (see
/// [`run_service_observed`]).
pub fn replay_tape_observed(
    spec: &ServiceSpec,
    tape: &TrafficTape,
    registries: &PolicyRegistries,
    admissions: &AdmissionRegistry,
    progress: Option<&ProgressWriter>,
) -> Result<RunReport, ExpError> {
    spec.base.validate()?;
    let digest = tape.verify()?;
    if let ArrivalSpec::Tape { digest: pinned } = &spec.arrival {
        if !pinned.is_empty() && *pinned != digest {
            return Err(ExpError::InvalidSpec(format!(
                "spec pins traffic tape {pinned}, but the loaded tape digests to {digest}"
            )));
        }
    }
    let params = spec.base.params_or_default();
    let resolved = registries.resolve(
        &PolicyKeys {
            scheduler: spec.base.scheduler.clone(),
            estimator: spec.base.estimator.clone(),
            accel: spec.base.accel.clone(),
        },
        &spec.base.machine,
        spec.base.fast_cores,
        spec.base.seed,
        &params,
    )?;
    let admission = admissions.build(
        &spec.admission,
        &spec.admission_params.clone().unwrap_or_default(),
    )?;
    let graphs = workload_table(tape, spec, registries, &resolved)?;
    let source = TapeArrivals::new(&graphs, &tape.records, admission, progress)?;
    let workload_label = if graphs.len() == 1 {
        graphs[0].label.clone()
    } else {
        tape.name.clone()
    };
    // Fault injection and memory contention compose with service load
    // exactly as with a closed run: admission gates arrivals, the
    // recovery policy handles displaced tasks, and the memory gate slows
    // execution, which backs up the ready queues admission then sees.
    let mut engine_params = EngineParams::for_spec(&spec.base)?;
    engine_params.trace = TraceMode::Off;
    crate::engine::run(&engine_params, resolved, &workload_label, |_, _| source)
        .map(|(report, _)| report)
}
