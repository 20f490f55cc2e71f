//! `checkpoint_cycle`: incremental checkpoint cuts and chain restores
//! over a warm steady state.
//!
//! Set-up builds a platform holding about 4k frozen instances (every
//! request of a burst cold-boots on its own core and freezes). The
//! measured phase repeats a cycle: run a small dirty set, cut a
//! checkpoint — a base every [`CUTS_PER_CHAIN`]th cut, a delta
//! otherwise — and at the end of each chain restore it into a fresh
//! platform, whose canonical checkpoint must equal the live one's.
//! Snapshot writes and reads do most of the work; this is where full-
//! checkpoint throughput is measured. The benchmark seed seeds the
//! instances' function state.

use faas::platform::{GcMode, Platform};
use faas::PlatformConfig;
use simos::{SimDuration, SimTime};

use crate::span::Tracer;
use crate::{digest, drive, outcome, timed, Checks, Laps, Outcome, Params, Rep};

/// Requests in the set-up burst; chains give about two instances each.
const REQUESTS: usize = 2048;
/// Requests in each cycle's dirty set.
const DIRTY: usize = 64;
/// Cuts per chain: one base, then deltas.
const CUTS_PER_CHAIN: u64 = 4;
/// Chains per repetition.
const CHAINS: u64 = 1;
/// Simulated time each burst is given to complete and freeze.
const SETTLE: SimDuration = SimDuration::from_secs(3600);

fn config(seed: u64) -> PlatformConfig {
    PlatformConfig {
        // Every request of a burst gets a core, and nothing is ever
        // evicted: the state only grows by what the dirty sets touch.
        cores: REQUESTS as f64 + 16.0,
        cache_budget: 1 << 44,
        seed,
        ..PlatformConfig::default()
    }
}

fn platform(seed: u64) -> Platform {
    Platform::new(config(seed), workloads::catalog(), GcMode::Vanilla, None)
}

/// One repetition: set-up (steady state), then [`CHAINS`] chains.
pub fn rep(seed: u64, tracer: &Tracer) -> Rep {
    let (setup_s, mut p) = timed(|| {
        tracer.span("bench.setup", || {
            let mut p = platform(seed);
            let nf = p.catalog().len();
            for i in 0..REQUESTS {
                p.submit(SimTime::ZERO, i % nf);
            }
            p.run_until(SimTime::ZERO + SETTLE);
            p
        })
    });
    let setup_requests = p.stats().completed;
    let nf = p.catalog().len();
    let (mut restored, mut base, mut delta) = (0u64, 0u64, 0u64);
    let mut mismatches = 0u64;
    let mut restore_errors = 0u64;
    let mut laps = Laps::start();
    let (wall_s, ()) = timed(|| {
        tracer.span("bench.rep", || {
            let mut epoch = 0u64;
            for _ in 0..CHAINS {
                let mut chain: Vec<Vec<u8>> = Vec::new();
                for cut in 0..CUTS_PER_CHAIN {
                    for i in 0..DIRTY {
                        p.submit(p.now(), (epoch as usize * DIRTY + i) % nf);
                    }
                    let until = p.now() + SETTLE;
                    tracer.counted("faas.dirty_run", || {
                        let before = p.events_handled();
                        p.run_until(until);
                        ((), p.events_handled() - before)
                    });
                    laps.lap();
                    epoch += 1;
                    let bytes = if cut == 0 {
                        tracer.counted("snapshot.base", || {
                            let b = p.checkpoint_base(epoch, &[]);
                            let n = b.len() as u64;
                            (b, n)
                        })
                    } else {
                        tracer.counted("snapshot.delta", || {
                            let b = p.checkpoint_delta(epoch, epoch - 1, &[]);
                            let n = b.len() as u64;
                            (b, n)
                        })
                    };
                    if cut == 0 {
                        base += bytes.len() as u64;
                    } else {
                        delta += bytes.len() as u64;
                    }
                    chain.push(bytes);
                    laps.lap();
                }
                let mut fresh = tracer.span("faas.new", || platform(seed));
                let chain_bytes: u64 = chain.iter().map(|c| c.len() as u64).sum();
                let ok = tracer.counted("snapshot.restore", || {
                    (fresh.restore_chain(&chain).is_ok(), chain_bytes)
                });
                restored += chain_bytes;
                drop(chain);
                laps.lap();
                if !ok {
                    restore_errors += 1;
                    continue;
                }
                let live = tracer.span("snapshot.canonical", || p.checkpoint());
                let folded = tracer.span("snapshot.canonical", || fresh.checkpoint());
                if live != folded {
                    mismatches += 1;
                }
                drop((fresh, live, folded));
                laps.lap();
            }
        })
    });

    let stats = p.stats();
    let mut latency = stats.latency.clone();
    let deltas = (CHAINS * (CUTS_PER_CHAIN - 1)) as f64;
    Rep {
        setup_s,
        wall_s,
        parts: laps.parts,
        work: (base + delta + restored) as f64 / 1e6,
        attempted: CHAINS * (CUTS_PER_CHAIN + 1),
        failed: restore_errors + mismatches,
        digest: digest(&p.checkpoint()),
        sim_p99_ms: latency.percentile(0.99).map_or(0.0, |d| d.as_millis_f64()),
        sim_samples: latency.len() as u64,
        sim_cold_boots_per_s: stats.cold_boot_rate(p.now()),
        counts: [
            ("faas.events", p.events_handled() as f64),
            ("faas.cold_boots", stats.cold_boots as f64),
            ("setup_requests", setup_requests as f64),
            ("instances", p.instance_count() as f64),
            (
                "snapshot.delta_over_base",
                (delta as f64 / deltas) / (base as f64 / CHAINS as f64),
            ),
            ("fold_mismatches", mismatches as f64),
            ("restore_errors", restore_errors as f64),
        ]
        .into_iter()
        .collect(),
    }
}

/// Runs the workload.
pub fn run(params: &Params) -> Outcome {
    let mut checks = Checks::default();
    let driven = drive(params, 2, &mut checks, |tracer| rep(params.seed, tracer));
    for r in driven.plain.iter().chain(&driven.traced) {
        checks.check(r.counts["restore_errors"] == 0.0, || {
            "a checkpoint chain failed to restore".into()
        });
        checks.check(r.counts["fold_mismatches"] == 0.0, || {
            "a restored chain differs from the canonical checkpoint bytes".into()
        });
        checks.check(r.counts["setup_requests"] == REQUESTS as f64, || {
            "the set-up burst did not complete every request".into()
        });
    }
    let first = &driven.plain[0];
    let notes = vec![format!(
        "checkpoint cycle: {} instances after a {REQUESTS}-request burst; {CHAINS} chain(s) of \
         {CUTS_PER_CHAIN} cuts, {DIRTY} dirty requests per cut; {:.3} MB written + restored per \
         repetition; sim metrics cover the platform's lifetime; digest {:#018x}",
        first.counts["instances"], first.work, first.digest
    )];
    outcome(params, &driven, checks, &[], notes)
}
