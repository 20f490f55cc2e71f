//! `cluster_durable`: the replay fanned over an 8-shard cluster with
//! durable shards and a kill-recover schedule.
//!
//! Vanilla shards (no memory manager) behind `ColdStartAware`
//! placement, the seed-13 trace shape at scale factor 60, the default
//! checkpoint cadence, and shard 3 killed every [`KILL_EVERY`] events
//! and recovered from its checkpoint store. The work is placement and
//! merge at the barriers, the worker pool, and checkpoint writes plus
//! recovery reads inside rounds. Desiccant is bypassed, so this
//! workload is the no-change control for Desiccant changes. The
//! benchmark seed drives the request payloads, as in
//! `replay_desiccant`.
//!
//! The timed repetitions drain the shards on one worker thread; every
//! run also replays on two (the control, whose digest must match), and
//! the traced run times both for `parallel.speedup`. Two threads on
//! the two shared virtual CPUs this was built on made the end-to-end
//! time swing by half between runs (median 1.06 s, then 1.60 s) while
//! single-threaded workloads moved by 2–11 %.

use azure_trace::build_trace;
use cluster::{Cluster, ClusterConfig, Placement, ShardSetup};
use faas::{CrashPlan, PlatformConfig};
use simos::{SimDuration, SimTime};

use crate::replay::arrivals;
use crate::span::{attribute, Tracer};
use crate::{drive, outcome, quantile, timed, Checks, Laps, Outcome, Params, Rep};

/// Seed of the trace shape and of its arrival realization.
const TRACE_SEED: u64 = 13;
/// Scale factor of both the warm-up and the measured window.
const SCALE: f64 = 60.0;
/// Warm-up, measured window, and drain, simulated seconds.
const WARMUP_S: u64 = 30;
const WINDOW_S: u64 = 120;
const DRAIN_S: u64 = 20;
/// Shards, and the worker threads that drain them each round in the
/// timed repetitions and in the parallel control.
const SHARDS: u32 = 8;
const TIMED_JOBS: usize = 1;
const PARALLEL_JOBS: usize = 2;
/// The shard killed, and the event interval between its kills (sized
/// so the schedule fires several times per repetition).
const KILL_SHARD: u32 = 3;
const KILL_EVERY: u64 = 200;

/// `Cluster::advance_to` one barrier round at a time, each round a
/// span carrying the events the shards handled in it and a lap of
/// `laps`.
fn advance(c: &mut Cluster, t_end: SimTime, tracer: &Tracer, laps: &mut Laps) {
    while c.now() < t_end {
        let barrier = (c.now() + c.config().round).min(t_end);
        tracer.counted("cluster.round", || {
            let before = if tracer.enabled() { c.events_seen() } else { 0 };
            c.advance_to(barrier);
            let after = if tracer.enabled() { c.events_seen() } else { 0 };
            ((), after.saturating_sub(before))
        });
        laps.lap();
    }
}

/// One repetition at `jobs` worker threads, with or without the kill
/// schedule.
pub fn rep(seed: u64, jobs: usize, kill: bool, tracer: &Tracer) -> Rep {
    let warm_end = SimTime::ZERO + SimDuration::from_secs(WARMUP_S);
    let end = warm_end + SimDuration::from_secs(WINDOW_S);
    let drain_end = end + SimDuration::from_secs(DRAIN_S);
    let (setup_s, (warm, window, mut c)) = timed(|| {
        tracer.span("bench.setup", || {
            let catalog = workloads::catalog();
            let trace = tracer.span("azure-trace.generate", || build_trace(&catalog, TRACE_SEED));
            let warm = arrivals(tracer, &trace, SCALE, SimTime::ZERO, warm_end, TRACE_SEED);
            let window = arrivals(tracer, &trace, SCALE, warm_end, end, TRACE_SEED ^ 0xA5A5);
            let setup = ShardSetup {
                platform: PlatformConfig {
                    seed,
                    ..PlatformConfig::default()
                },
                catalog,
                ..ShardSetup::vanilla()
            };
            let cfg = ClusterConfig {
                shards: SHARDS,
                policy: Placement::ColdStartAware,
                jobs,
                ..ClusterConfig::default()
            };
            let mut c = Cluster::new(cfg, &setup);
            if kill {
                c.plan_kill(KILL_SHARD, CrashPlan::every(KILL_EVERY));
            }
            (warm, window, c)
        })
    });

    let mut laps = Laps::start();
    let (wall_s, (cold_boots, digest)) = timed(|| {
        tracer.span("bench.rep", || {
            for &(t, f) in &warm {
                tracer.span("cluster.enqueue", || c.enqueue(t, f));
            }
            laps.lap();
            advance(&mut c, warm_end, tracer, &mut laps);
            c.reset_stats();
            for &(t, f) in &window {
                tracer.span("cluster.enqueue", || c.enqueue(t, f));
            }
            laps.lap();
            advance(&mut c, end, tracer, &mut laps);
            let cold_boots = c.totals().cold_boots;
            advance(&mut c, drain_end, tracer, &mut laps);
            let digest = tracer.span("cluster.digest", || c.digest());
            laps.lap();
            (cold_boots, digest)
        })
    });

    let totals = c.totals();
    let avail = c.availability();
    let failed = totals.failed + totals.shed() + totals.frontend_failed();
    Rep {
        setup_s,
        wall_s,
        parts: laps.parts,
        work: totals.completed as f64,
        attempted: totals.routed,
        failed,
        digest,
        sim_p99_ms: avail.p99.map_or(0.0, |d| d.as_millis_f64()),
        sim_samples: totals.completed,
        sim_cold_boots_per_s: cold_boots as f64 / WINDOW_S as f64,
        counts: [
            ("cluster.events", c.events_seen() as f64),
            ("cluster.migrations", c.migrations() as f64),
            ("cluster.recoveries", totals.recoveries as f64),
            ("faas.cold_boots", totals.cold_boots as f64),
            ("faas.evictions", totals.evictions as f64),
            ("conservation", f64::from(u8::from(totals.conservation()))),
        ]
        .into_iter()
        .collect(),
    }
}

/// Percentiles the round tail is read at, highest first.
const TAIL_PCTS: &[f64] = &[99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The round-time median and the highest percentile in [`TAIL_PCTS`]
/// with at least ten rounds beyond it: `(p50_ms, tail_ms, tail_pct)`.
fn round_percentiles(tracer: &Tracer) -> (f64, f64, f64) {
    let (spans, _) = tracer.finish();
    let ms: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "cluster.round")
        .map(|s| s.secs() * 1e3)
        .collect();
    let n = ms.len() as f64;
    let pct = TAIL_PCTS
        .iter()
        .copied()
        .find(|p| n * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0);
    (quantile(&ms, 0.5), quantile(&ms, pct / 100.0), pct)
}

/// Mean round self time per repetition recorded in `tracer`.
fn round_self_s(tracer: &Tracer, reps: usize) -> f64 {
    let (spans, _) = tracer.finish();
    attribute(&spans, "bench.rep")
        .get("cluster.round")
        .map_or(0.0, |t| t.self_s / reps as f64)
}

/// Runs the workload.
pub fn run(params: &Params) -> Outcome {
    let mut checks = Checks::default();
    let driven = drive(params, 3, &mut checks, |tracer| {
        rep(params.seed, TIMED_JOBS, true, tracer)
    });
    let first = &driven.plain[0];
    let control = rep(params.seed, PARALLEL_JOBS, false, &Tracer::off());
    checks.check(control.digest == first.digest, || {
        format!(
            "digest at {PARALLEL_JOBS} jobs without kills {:#018x} differs from \
             {TIMED_JOBS} job with kills {:#018x}",
            control.digest, first.digest
        )
    });
    checks.check(
        control.work == first.work
            && control.sim_p99_ms == first.sim_p99_ms
            && control.sim_cold_boots_per_s == first.sim_cold_boots_per_s,
        || "the kill-free parallel control reports different simulated outcomes".into(),
    );
    checks.check(first.counts["cluster.recoveries"] > 0.0, || {
        "the kill schedule never fired".into()
    });
    for r in driven.plain.iter().chain(&driven.traced).chain([&control]) {
        checks.check(r.counts["conservation"] == 1.0, || {
            "request conservation violated: routed != delivered + shed + failed + pending".into()
        });
    }
    checks.check(first.work > 0.0, || {
        "the cluster completed no request".into()
    });
    let mut extra = Vec::new();
    let mut notes = vec![format!(
        "cluster: {SHARDS} shards, {TIMED_JOBS} job timed ({PARALLEL_JOBS} in the control), \
         trace shape {TRACE_SEED} at sf {SCALE}, warm-up {WARMUP_S} s, window {WINDOW_S} s, \
         drain {DRAIN_S} s, shard {KILL_SHARD} killed every {KILL_EVERY} events; \
         {} requests routed, {} completed per repetition; digest {:#018x}",
        first.attempted, first.work, first.digest
    )];
    if params.trace {
        let (p50, tail, pct) = round_percentiles(&driven.tracer);
        let one_round_s = round_self_s(&driven.tracer, driven.traced.len());
        let parallel = Tracer::on();
        let two = rep(params.seed, PARALLEL_JOBS, true, &parallel);
        checks.check(two.digest == first.digest, || {
            format!("digest at {PARALLEL_JOBS} jobs with kills differs from {TIMED_JOBS} job")
        });
        let two_round_s = round_self_s(&parallel, 1);
        notes.push(format!(
            "parallel: round self time {one_round_s:.4} s at {TIMED_JOBS} job, \
             {two_round_s:.4} s at {PARALLEL_JOBS} jobs"
        ));
        extra = vec![
            ("cluster.round_p50_ms", p50),
            ("cluster.round_tail_ms", tail),
            ("cluster.round_tail_pct", pct),
            ("parallel.speedup", one_round_s / two_round_s),
        ];
    }
    outcome(params, &driven, checks, &extra, notes)
}
