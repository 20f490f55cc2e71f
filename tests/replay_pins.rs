//! Replay behaviour pins: the trace-replay pipeline, folded into
//! FNV-1a digests that any change to event order, charging or
//! checkpoint encoding moves.
//!
//! * the golden fault-free replay matrix (`bench::golden`);
//! * the canonical checkpoint bytes of a vanilla and a Desiccant
//!   platform cut mid-drain, while requests are still in flight and
//!   their events still queued;
//! * a small sharded `replay_cluster` at one and two worker threads.
//!
//! A refactor that promises "same behaviour" must leave every constant
//! here unchanged. A moved pin means the simulation changed; re-pin
//! only on purpose, saying which pin moved and why.

use azure_trace::{build_trace, generate_arrivals, replay_cluster, ReplayConfig};
use cluster::{Cluster, ClusterConfig, Placement, ShardSetup};
use desiccant::{Desiccant, DesiccantConfig};
use desiccant_repro::bench::golden::{standard_digest, Fnv1a};
use faas::platform::{GcMode, Platform};
use faas::{MemoryManager, PlatformConfig};
use simos::{SimDuration, SimTime};

/// Captured from the pre-fault-injection platform. A change means
/// fault-off behaviour drifted, which the fault subsystem promises
/// not to do.
const GOLDEN: u64 = 0x2f61_fd99_85dd_fe2e;

#[test]
fn fault_off_replay_is_byte_identical() {
    assert_eq!(
        standard_digest(),
        GOLDEN,
        "fault-free replay diverged from the golden digest: the fault \
         machinery is no longer inert when disabled"
    );
}

/// Replays 12 s of the seed-5 trace at scale 10 into a 512 MiB cache
/// (tight enough that vanilla evicts and Desiccant reclaims), plus a
/// burst of eight arrivals at the same instant, and cuts at 8.0005 s,
/// mid-millisecond inside the arrival stream, returning the FNV-1a
/// digest of the canonical checkpoint bytes.
fn mid_drain_checkpoint_digest(desiccant: bool) -> u64 {
    let catalog = workloads::catalog();
    let trace = build_trace(&catalog, 5);
    let manager: Option<Box<dyn MemoryManager>> = if desiccant {
        Some(Box::new(Desiccant::new(DesiccantConfig::default())))
    } else {
        None
    };
    let config = PlatformConfig {
        cache_budget: 512 << 20,
        ..PlatformConfig::default()
    };
    let mut p = Platform::new(config, catalog, GcMode::Vanilla, manager);
    for (t, f) in generate_arrivals(&trace, 10.0, SimTime::ZERO, SimTime(12_000_000_000), 3) {
        p.submit(t, f);
    }
    // Simultaneous arrivals: only the queue's FIFO tie order decides
    // which of these requests is handled first.
    for f in 0..8 {
        p.submit(SimTime(5_000_000_000), f);
    }
    p.run_until(SimTime(8_000_500_000));
    assert!(p.in_flight() > 0, "the cut must land while requests are in flight");
    let mut h = Fnv1a::new();
    h.write(&p.checkpoint());
    h.finish()
}

#[test]
fn mid_drain_checkpoint_bytes_are_pinned() {
    assert_eq!(
        [mid_drain_checkpoint_digest(false), mid_drain_checkpoint_digest(true)],
        [0xe8ec_e640_07bf_8411, 0xc7d2_5260_75b5_afdd]
    );
}

/// Four vanilla shards, cold-start-aware placement, 20 s of the seed-9
/// trace at scale 8.
fn cluster_digest(jobs: usize) -> u64 {
    let trace = build_trace(&workloads::catalog(), 9);
    let cfg = ClusterConfig {
        shards: 4,
        policy: Placement::ColdStartAware,
        jobs,
        ..ClusterConfig::default()
    };
    let mut c = Cluster::new(cfg, &ShardSetup::vanilla());
    let out = replay_cluster(
        &mut c,
        &trace,
        &ReplayConfig {
            warmup: SimDuration::from_secs(4),
            duration: SimDuration::from_secs(12),
            drain: SimDuration::from_secs(4),
            scale: 8.0,
            warmup_scale: 8.0,
            seed: 9,
        },
    );
    assert!(out.completed > 0, "the cluster replay completed nothing");
    out.digest
}

#[test]
fn cluster_replay_digest_is_pinned_at_one_and_two_jobs() {
    assert_eq!(
        [cluster_digest(1), cluster_digest(2)],
        [0x25c6_3c83_703f_2827, 0x25c6_3c83_703f_2827]
    );
}
