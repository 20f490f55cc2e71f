//! Perf harness: the `BENCH_*.json` trajectory.
//!
//! Two measurements, written as machine-readable JSON so every later
//! change can diff its numbers against the committed files at repo
//! root:
//!
//! * **end-to-end replay** (`BENCH_replay.json`) — the
//!   `replay_30s_sf15` Azure-trace scenario, vanilla and desiccant,
//!   next to the fixed baseline measured before the slab arenas and
//!   batched statistics landed.
//! * **incremental checkpoint model** (`BENCH_checkpoint.json`) — a
//!   platform is loaded with a warm steady state of ~2^16 frozen
//!   instances, then a full base checkpoint and an O(dirty) delta
//!   (after thawing a small working set) are written once each:
//!   bytes and wall time for both, and the base/delta size ratio the
//!   acceptance gate rides on.
//!
//! Timing is wall-clock by necessity — this binary measures host
//! performance, not simulated behavior — and the numbers never feed
//! back into results.
//!
//! Flags: `--quick` (fewer rounds and a smaller checkpoint model, for
//! the tier-1 smoke run), `--out-dir DIR` (default `.`), `--check`
//! (assert the replay completes requests and the checkpoint model's
//! size and fold invariants).

#![forbid(unsafe_code)]

use std::fs;
use std::path::Path;

use azure_trace::{build_trace, replay, ReplayConfig};
use bench::cli::{check, Flags};
use desiccant::{Desiccant, DesiccantConfig};
use faas::platform::{GcMode, Platform};
use faas::{MemoryManager, PlatformConfig};
use simos::{SimDuration, SimTime};

/// `replay_30s_sf15` mean wall times on the reference host, measured
/// before the slab arenas and batched statistics landed (BinaryHeap
/// event queue, BTreeMap instance tables, per-event stats updates):
/// the fixed anchor every `BENCH_replay.json` compares against.
const PRE_PR_VANILLA_MS: f64 = 61.616;
const PRE_PR_DESICCANT_MS: f64 = 66.592;

/// Wall-clock seconds spent in `f` (host measurement, not sim state).
fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    #[allow(clippy::disallowed_methods)]
    // tidy:allow(wall-clock) -- this harness measures host perf; wall time never enters simulation state
    let t0 = std::time::Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

/// Best-of-`rounds` wall milliseconds for one `replay_30s_sf15` run,
/// plus the completion counter of the (deterministic) simulation.
fn replay_ms(desiccant: bool, rounds: u32) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut completed = 0u64;
    for _ in 0..rounds {
        let catalog = workloads::catalog();
        let trace = build_trace(&catalog, 11);
        let manager: Option<Box<dyn MemoryManager>> = if desiccant {
            Some(Box::new(Desiccant::new(DesiccantConfig::default())))
        } else {
            None
        };
        let mut p = Platform::new(PlatformConfig::default(), catalog, GcMode::Vanilla, manager);
        let (secs, outcome) = timed(|| {
            replay(
                &mut p,
                &trace,
                &ReplayConfig {
                    scale: 15.0,
                    warmup: SimDuration::from_secs(5),
                    duration: SimDuration::from_secs(30),
                    drain: SimDuration::from_secs(5),
                    ..ReplayConfig::default()
                },
            )
        });
        best = best.min(secs * 1e3);
        completed = outcome.completed;
    }
    (best, completed)
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.3}")
    } else {
        "null".to_string()
    }
}

fn write_json(dir: &Path, name: &str, body: &str) {
    if let Err(e) = fs::create_dir_all(dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        std::process::exit(1);
    }
    let path = dir.join(name);
    if let Err(e) = fs::write(&path, body) {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("wrote {}", path.display());
}

fn main() {
    let flags = Flags::parse();
    let out_dir = flags.value_of("--out-dir").unwrap_or(".").to_string();
    let dir = Path::new(&out_dir);

    // --- End-to-end replay --------------------------------------------
    let rounds: u32 = if flags.quick { 1 } else { 5 };
    let mut mode_blocks = Vec::new();
    for (mode, desiccant, pre_pr) in [
        ("vanilla", false, PRE_PR_VANILLA_MS),
        ("desiccant", true, PRE_PR_DESICCANT_MS),
    ] {
        let (ms, done) = replay_ms(desiccant, rounds);
        check(&flags, done > 0, "replay completes requests");
        println!(
            "replay_30s_sf15/{mode}: {ms:.1} ms, baseline {pre_pr:.1} ms ({:.2}x vs baseline)",
            pre_pr / ms
        );
        mode_blocks.push(format!(
            "    \"{mode}\": {{\n      \
             \"ms\": {},\n      \
             \"baseline_pre_pr_ms\": {},\n      \
             \"completed\": {done}\n    }}",
            json_num(ms),
            json_num(pre_pr),
        ));
    }
    write_json(
        dir,
        "BENCH_replay.json",
        &format!(
            "{{\n  \"bench\": \"azure_replay_30s_sf15\",\n  \
             \"rounds\": {rounds},\n  \"quick\": {},\n  \
             \"modes\": {{\n{}\n  }}\n}}\n",
            flags.quick,
            mode_blocks.join(",\n"),
        ),
    );

    // --- Incremental checkpoint model ---------------------------------
    // Warm steady state: every request runs immediately (cores exceed
    // the request count) and freezes, so the platform ends up holding
    // about two instances per submitted request (chains have stages).
    // Full mode lands near the 2^16-instance scale the trajectory
    // tracks; quick mode keeps the same shape at 1/16th the size.
    let requests: usize = if flags.quick { 1 << 11 } else { 1 << 15 };
    let dirty_requests: usize = if flags.quick { 64 } else { 256 };
    let ckpt_config = || PlatformConfig {
        cores: requests as f64 + 16.0,
        cache_budget: 1 << 44,
        ..PlatformConfig::default()
    };
    let catalog = workloads::catalog();
    let nf = catalog.len();
    let mut p = Platform::new(ckpt_config(), catalog, GcMode::Vanilla, None);
    for i in 0..requests {
        p.submit(SimTime(0), i % nf);
    }
    p.run_until(SimTime(3_600_000_000_000));
    let instances = p.instance_count();
    check(
        &flags,
        p.stats().completed == requests as u64,
        "checkpoint model: every warm-up request completed",
    );
    let (full_secs, full) = timed(|| p.checkpoint_base(1, &[]));
    // Thaw a small working set; only those instances (plus the always-
    // full control section) may appear in the delta.
    for i in 0..dirty_requests {
        p.submit(p.now(), i % nf);
    }
    p.run_until(p.now() + SimDuration::from_secs(3600));
    let (delta_secs, delta) = timed(|| p.checkpoint_delta(2, 1, &[]));
    let (full_bytes, delta_bytes) = (full.len(), delta.len());
    let ratio = full_bytes as f64 / delta_bytes.max(1) as f64;
    println!(
        "checkpoint model ({instances} instances): full {full_bytes} bytes in {:.1} ms, \
         delta {delta_bytes} bytes in {:.1} ms after {dirty_requests} warm requests ({ratio:.1}x smaller)",
        full_secs * 1e3,
        delta_secs * 1e3,
    );
    check(
        &flags,
        delta_bytes * 4 < full_bytes,
        "checkpoint model: delta writes measurably fewer bytes than the base",
    );
    // The chain must fold back to the canonical bytes of the platform
    // it was cut from — the incremental path may never trade speed for
    // fidelity.
    let canonical = p.checkpoint();
    let mut q = Platform::new(ckpt_config(), workloads::catalog(), GcMode::Vanilla, None);
    let folded = q
        .restore_chain(&[full, delta])
        .map(|_| q.checkpoint() == canonical)
        .unwrap_or(false);
    check(
        &flags,
        folded,
        "checkpoint model: base+delta fold restores the canonical state",
    );
    write_json(
        dir,
        "BENCH_checkpoint.json",
        &format!(
            "{{\n  \"bench\": \"incremental_checkpoint\",\n  \
             \"quick\": {},\n  \
             \"requests\": {requests},\n  \
             \"instances\": {instances},\n  \
             \"dirty_requests\": {dirty_requests},\n  \
             \"full_bytes\": {},\n  \
             \"delta_bytes\": {},\n  \
             \"full_over_delta_bytes\": {},\n  \
             \"full_checkpoint_ns\": {},\n  \
             \"delta_checkpoint_ns\": {}\n}}\n",
            flags.quick,
            full_bytes,
            delta_bytes,
            json_num(ratio),
            json_num(full_secs * 1e9),
            json_num(delta_secs * 1e9),
        ),
    );
}
