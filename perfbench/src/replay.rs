//! `replay_desiccant`: the §5.3 replay protocol on one platform with
//! Desiccant installed.
//!
//! A 2 GiB cache under the seed-11 trace shape, a warm-up at scale
//! factor 15, then the measured window at scale factor 30: the cache
//! stays under pressure, so the event loop, the runtime and heap
//! models, and Desiccant's selection and reclaim do the work. Cluster
//! and snapshot code do none.
//!
//! The benchmark seed drives the request payloads: it seeds the
//! platform's per-instance function state, which sets the data every
//! invocation processes and so the heap each instance grows. The trace
//! and its arrival realization are part of the workload's definition:
//! a different realization changes the eviction regime itself (cold
//! boots per second varied 0.30–0.88 over five arrival seeds), which
//! would make the seed, not the program, dominate every figure.

use azure_trace::{build_trace, generate_arrivals, TraceFunction};
use desiccant::{Desiccant, DesiccantConfig};
use faas::platform::{GcMode, Platform};
use faas::{MemoryManager, PlatformConfig};
use simos::{SimDuration, SimTime};

use crate::manager::TracedManager;
use crate::span::Tracer;
use crate::{digest, drive, outcome, timed, Checks, Laps, Outcome, Params, Rep};

/// Lengths and rates of one replay.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Seed of the trace shape (function rates and patterns) and of
    /// its arrival realization.
    pub trace_seed: u64,
    /// Warm-up length, simulated seconds.
    pub warmup_s: u64,
    /// Warm-up scale factor.
    pub warmup_scale: f64,
    /// Measured window, simulated seconds.
    pub window_s: u64,
    /// Measured-window scale factor.
    pub scale: f64,
    /// Drain after the window so in-flight requests finish.
    pub drain_s: u64,
}

/// The benchmark's replay: the paper's 60 s warm-up at scale factor
/// 15, then the measured window at scale factor 30.
pub const SHAPE: Shape = Shape {
    trace_seed: 11,
    warmup_s: 60,
    warmup_scale: 15.0,
    window_s: 120,
    scale: 30.0,
    drain_s: 30,
};

/// The manager the workload installs.
pub fn desiccant() -> Box<dyn MemoryManager> {
    Box::new(Desiccant::new(DesiccantConfig::default()))
}

/// `generate_arrivals` inside a span carrying the arrivals generated.
pub fn arrivals(
    tracer: &Tracer,
    trace: &[TraceFunction],
    scale: f64,
    from: SimTime,
    to: SimTime,
    seed: u64,
) -> Vec<(SimTime, usize)> {
    tracer.counted("azure-trace.generate", || {
        let a = generate_arrivals(trace, scale, from, to, seed);
        let n = a.len() as u64;
        (a, n)
    })
}

/// Simulated time one `run_until` call advances the platform by: one
/// timed part of the measured phase each.
const STEP: SimDuration = SimDuration::from_secs(1);

/// `Platform::run_until(to)` in calls of at most [`STEP`] simulated
/// time, closing a lap of `laps` after each, every call inside a span
/// carrying the events handled. The event loop stops after the last
/// event due by its end time, so the steps end in the same state as
/// one call would.
fn run_until(p: &mut Platform, to: SimTime, tracer: &Tracer, laps: &mut Laps) {
    while p.now() < to {
        let t = (p.now() + STEP).min(to);
        tracer.counted("faas.run_until", || {
            let before = p.events_handled();
            p.run_until(t);
            ((), p.events_handled() - before)
        });
        laps.lap();
    }
}

/// One repetition: set-up (trace, arrivals, platform), then the
/// warm-up, the measured window, and the drain.
pub fn rep(
    seed: u64,
    shape: &Shape,
    manager: &dyn Fn() -> Box<dyn MemoryManager>,
    tracer: &Tracer,
) -> Rep {
    let warm_end = SimTime::ZERO + SimDuration::from_secs(shape.warmup_s);
    let end = warm_end + SimDuration::from_secs(shape.window_s);
    let (setup_s, (warm, window, mut p)) = timed(|| {
        tracer.span("bench.setup", || {
            let catalog = workloads::catalog();
            let trace = tracer.span("azure-trace.generate", || {
                build_trace(&catalog, shape.trace_seed)
            });
            let arrival_seed = shape.trace_seed;
            let warm = arrivals(
                tracer,
                &trace,
                shape.warmup_scale,
                SimTime::ZERO,
                warm_end,
                arrival_seed,
            );
            let window = arrivals(
                tracer,
                &trace,
                shape.scale,
                warm_end,
                end,
                arrival_seed ^ 0xA5A5,
            );
            let m = if tracer.enabled() {
                Box::new(TracedManager::new(manager(), tracer.clone()))
            } else {
                manager()
            };
            let config = PlatformConfig {
                seed,
                ..PlatformConfig::default()
            };
            let p = Platform::new(config, catalog, GcMode::Vanilla, Some(m));
            (warm, window, p)
        })
    });

    let mut laps = Laps::start();
    let (wall_s, cold_boot_rate) = timed(|| {
        tracer.span("bench.rep", || {
            for &(t, f) in &warm {
                tracer.span("faas.submit", || p.submit(t, f));
            }
            laps.lap();
            run_until(&mut p, warm_end, tracer, &mut laps);
            p.reset_stats();
            for &(t, f) in &window {
                tracer.span("faas.submit", || p.submit(t, f));
            }
            laps.lap();
            run_until(&mut p, end, tracer, &mut laps);
            let rate = p.stats().cold_boot_rate(end);
            let drained = end + SimDuration::from_secs(shape.drain_s);
            run_until(&mut p, drained, tracer, &mut laps);
            rate
        })
    });

    let stats = p.stats();
    let mut latency = stats.latency.clone();
    let p99 = latency.percentile(0.99).map_or(0.0, |d| d.as_millis_f64());
    Rep {
        setup_s,
        wall_s,
        parts: laps.parts,
        work: stats.completed as f64,
        attempted: stats.submitted,
        failed: stats.failed,
        digest: digest(&p.checkpoint()),
        sim_p99_ms: p99,
        sim_samples: latency.len() as u64,
        sim_cold_boots_per_s: cold_boot_rate,
        counts: [
            ("faas.events", p.events_handled() as f64),
            ("faas.cold_boots", stats.cold_boots as f64),
            ("faas.evictions", stats.evictions as f64),
            ("faas.reclamations", stats.reclamations as f64),
        ]
        .into_iter()
        .collect(),
    }
}

/// Runs the workload.
pub fn run(params: &Params) -> Outcome {
    let shape = &SHAPE;
    let mut checks = Checks::default();
    let driven = drive(params, 3, &mut checks, |tracer| {
        rep(params.seed, shape, &desiccant, tracer)
    });
    let first = &driven.plain[0];
    checks.check(first.work > 0.0, || {
        "the replay completed no request".into()
    });
    checks.check(first.failed == 0, || {
        format!("{} requests failed in a fault-free replay", first.failed)
    });
    let notes = vec![format!(
        "replay: trace shape {}, warm-up {} s at sf {}, window {} s at sf {}, drain {} s; \
         {} requests submitted, {} completed per repetition; digest {:#018x}",
        shape.trace_seed,
        shape.warmup_s,
        shape.warmup_scale,
        shape.window_s,
        shape.scale,
        shape.drain_s,
        first.attempted,
        first.work,
        first.digest
    )];
    outcome(params, &driven, checks, &[], notes)
}
