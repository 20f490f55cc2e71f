//! Replay behaviour pins: the trace-replay pipeline, folded into
//! FNV-1a digests that any change to event order, charging or
//! checkpoint encoding moves.
//!
//! * the golden fault-free replay matrix (`bench::golden`);
//! * the canonical checkpoint bytes of a vanilla and a Desiccant
//!   platform cut mid-drain, while requests are still in flight and
//!   their events still queued;
//! * the framed container bytes of a base cut (with one driver frame)
//!   and two chained delta cuts of those same platforms, which pin the
//!   frame layout and the CRC-64 of every frame and commit record;
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
/// burst of eight arrivals at the same instant, and stops at 8.0005 s,
/// mid-millisecond inside the arrival stream, with requests in flight.
fn mid_drain_platform(desiccant: bool) -> Platform {
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
    p
}

fn fnv(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// FNV-1a digest of the canonical checkpoint bytes of the mid-drain
/// platform.
fn mid_drain_checkpoint_digest(desiccant: bool) -> u64 {
    fnv(&mid_drain_platform(desiccant).checkpoint())
}

/// FNV-1a digests of three framed cuts of the mid-drain platform: a
/// base carrying one driver frame of kind `FRAME_EXTRA_BASE`, then a
/// delta after 0.5 s more of the replay, then another after 1.5 s
/// more. The chain must also fold back to the live platform's
/// canonical checkpoint.
fn mid_drain_container_digests(desiccant: bool) -> [u64; 3] {
    let mut p = mid_drain_platform(desiccant);
    let base = p.checkpoint_base(1, &[(Platform::FRAME_EXTRA_BASE, b"driver cursor 8.0005 s".to_vec())]);
    p.run_until(SimTime(8_500_000_000));
    let first = p.checkpoint_delta(2, 1, &[]);
    p.run_until(SimTime(10_000_000_000));
    let second = p.checkpoint_delta(3, 2, &[]);
    let digests = [fnv(&base), fnv(&first), fnv(&second)];

    let chain = [base, first, second];
    let mut fresh = Platform::new(
        PlatformConfig {
            cache_budget: 512 << 20,
            ..PlatformConfig::default()
        },
        workloads::catalog(),
        GcMode::Vanilla,
        if desiccant {
            Some(Box::new(Desiccant::new(DesiccantConfig::default())))
        } else {
            None
        },
    );
    let (epoch, extra) = fresh.restore_chain(&chain).expect("the pinned chain restores");
    assert_eq!(epoch, 3);
    assert!(extra.is_empty(), "the head delta carries no driver frame");
    assert!(fresh.checkpoint() == p.checkpoint(), "the chain folds to the live state");
    digests
}

#[test]
fn mid_drain_checkpoint_bytes_are_pinned() {
    assert_eq!(
        [mid_drain_checkpoint_digest(false), mid_drain_checkpoint_digest(true)],
        [0xe8ec_e640_07bf_8411, 0xc7d2_5260_75b5_afdd]
    );
}

#[test]
fn mid_drain_container_bytes_are_pinned() {
    assert_eq!(
        [mid_drain_container_digests(false), mid_drain_container_digests(true)],
        [
            [0xd8f3_df2b_d704_dc6a, 0xe4ce_5964_e3d0_20ef, 0x1857_d945_6f9f_30d3],
            [0x118d_8df7_f241_aff1, 0x98bc_fbef_e981_a145, 0x7d3f_4a47_91c1_b61d],
        ]
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
