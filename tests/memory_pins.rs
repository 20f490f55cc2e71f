//! Memory-measure pins: the §3.1 single-function protocol, reduced to
//! one Java and one JavaScript catalog function, with every freeze
//! point's `(USS, PSS bits, RSS, ideal USS)` folded into an FNV-1a
//! digest.
//!
//! The paper's characterization (Figures 1, 2, 4 and 8) and every
//! Desiccant charge are computed from these four readings, so any
//! change to how `simos` derives them (a faster page-cache lookup, a
//! different summation order) must leave the pinned digests
//! byte-identical. A moved pin means the measured memory changed.

use desiccant_repro::faas_runtime::{Instance, RuntimeImage};
use desiccant_repro::simos::{SimDuration, SimTime, System};
use desiccant_repro::workloads::{self, FunctionState};

/// Chain stages measured per run (plus one spare instance that keeps
/// the runtime libraries shared).
const STAGES: u8 = 2;
/// Requests per run.
const REQUESTS: u32 = 20;
/// Idle gap between requests, simulated.
const GAP: SimDuration = SimDuration::from_millis(100);
const SEED: u64 = 7;

fn fold(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h = (*h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
}

/// Runs the protocol for catalog function `name` and returns the
/// digest over every freeze point's readings, the post-reclaim
/// readings included.
fn memory_digest(name: &str, eager: bool) -> u64 {
    let spec = workloads::by_name(name).expect("catalog function");
    let mut sys = System::new();
    let image = RuntimeImage::openwhisk(spec.language);
    let libs = image.register_files(&mut sys);
    let launch = |sys: &mut System| {
        Instance::launch(sys, &image, &libs, 256 << 20, 0.14).expect("fits the budget")
    };
    let _spare = launch(&mut sys);
    let mut stages: Vec<(Instance, FunctionState)> = (0..STAGES)
        .map(|stage| (launch(&mut sys), FunctionState::new(stage, SEED)))
        .collect();
    let mut h = 0xcbf2_9ce4_8422_2325;
    let measure = |sys: &System, inst: &Instance, h: &mut u64| {
        let (uss, pss, rss, ideal) = (
            inst.uss(sys),
            inst.pss(sys),
            inst.rss(sys),
            inst.ideal_uss(sys),
        );
        assert!(
            uss as f64 <= pss && pss <= rss as f64,
            "{name}: USS <= PSS <= RSS"
        );
        for v in [uss, pss.to_bits(), rss, ideal] {
            fold(h, v);
        }
    };
    let mut now = SimTime::ZERO;
    for _ in 0..REQUESTS {
        for (inst, state) in &mut stages {
            let report = inst
                .invoke(&mut sys, now, &spec.exec, |ctx| state.invoke(&spec, ctx))
                .expect("sized workload");
            now += report.wall_time;
            if eager {
                now += inst.eager_gc(&mut sys).expect("eager GC");
            }
            state.complete_transfer(inst.heap_mut().graph_mut());
        }
        for (inst, _) in &stages {
            measure(&sys, inst, &mut h);
        }
        now += GAP;
    }
    for (inst, _) in &mut stages {
        inst.reclaim(&mut sys, now, true).expect("reclaim");
        measure(&sys, inst, &mut h);
    }
    h
}

#[test]
fn java_freeze_measures_are_pinned() {
    assert_eq!(
        [memory_digest("sort", false), memory_digest("sort", true)],
        [0x9572_7a8d_01ae_2b8b, 0xc657_8967_3137_b06d]
    );
}

#[test]
fn javascript_freeze_measures_are_pinned() {
    assert_eq!(
        [
            memory_digest("dynamic-html", false),
            memory_digest("dynamic-html", true)
        ],
        [0x84b0_6cdd_9644_639a, 0x83a7_8987_6d51_a9ce]
    );
}
