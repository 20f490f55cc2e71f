//! Attribution self-test: a known delay added inside one layer must
//! land in that layer's self time and in the wall time, and nowhere
//! else beyond noise.
//!
//! The delay comes from a `MemoryManager` decorator that spins for a
//! fixed host time in every `select_reclaims` call before forwarding
//! to Desiccant. The simulation is untouched, so the digest must not
//! change either.

use std::time::{Duration, Instant};

use faas::{FrozenView, InstanceId, MemoryManager, ReclaimProfile};
use perfbench::replay::{self, Shape};
use perfbench::span::{attribute, LayerTotals, Tracer};
use simos::SimTime;

/// Host time added to every selection call.
const SPIN: Duration = Duration::from_millis(10);

/// A short replay: still under cache pressure, so selection runs on
/// every sweep tick.
const SHAPE: Shape = Shape {
    trace_seed: 11,
    warmup_s: 10,
    warmup_scale: 15.0,
    window_s: 20,
    scale: 30.0,
    drain_s: 5,
};

struct Spin(Box<dyn MemoryManager>);

impl MemoryManager for Spin {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn select_reclaims(
        &mut self,
        now: SimTime,
        budget: u64,
        used: u64,
        frozen: &[FrozenView],
    ) -> Vec<InstanceId> {
        #[allow(clippy::disallowed_methods)]
        // tidy:allow(wall-clock) -- the injected delay is host time by design
        let t0 = Instant::now();
        while t0.elapsed() < SPIN {
            std::hint::spin_loop();
        }
        self.0.select_reclaims(now, budget, used, frozen)
    }
    fn note_eviction(&mut self, now: SimTime, function: &str) {
        self.0.note_eviction(now, function)
    }
    fn note_destroyed(&mut self, id: InstanceId) {
        self.0.note_destroyed(id)
    }
    fn note_reclaimed(
        &mut self,
        now: SimTime,
        id: InstanceId,
        function: &str,
        profile: ReclaimProfile,
    ) {
        self.0.note_reclaimed(now, id, function, profile)
    }
    fn note_reclaim_failed(&mut self, now: SimTime, id: InstanceId, function: &str) {
        self.0.note_reclaim_failed(now, id, function)
    }
    fn keep_weak(&self) -> bool {
        self.0.keep_weak()
    }
    fn unmap_libs(&self) -> bool {
        self.0.unmap_libs()
    }
    fn snapshot_state(&self) -> Vec<u8> {
        self.0.snapshot_state()
    }
    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), snapshot::SnapError> {
        self.0.restore_state(bytes)
    }
}

fn spinning() -> Box<dyn MemoryManager> {
    Box::new(Spin(replay::desiccant()))
}

type Layers = Vec<(&'static str, LayerTotals)>;

/// Per-layer self times and the wall time of the fastest of three
/// traced repetitions (the minimum sheds host interference), plus the
/// digest they all ended in.
fn measure(manager: &dyn Fn() -> Box<dyn MemoryManager>) -> (f64, Layers, u64) {
    let mut best: Option<(f64, Layers, u64)> = None;
    for _ in 0..3 {
        let tracer = Tracer::on();
        let rep = replay::rep(1, &SHAPE, manager, &tracer);
        let (spans, _) = tracer.finish();
        let layers: Vec<_> = attribute(&spans, "bench.rep").into_iter().collect();
        if let Some((_, _, digest)) = &best {
            assert_eq!(*digest, rep.digest, "repetitions diverged");
        }
        if best.as_ref().is_none_or(|b| rep.wall_s < b.0) {
            best = Some((rep.wall_s, layers, rep.digest));
        }
    }
    best.expect("three repetitions ran")
}

fn self_s(layers: &Layers, name: &str) -> f64 {
    layers
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |(_, t)| t.self_s)
}

#[test]
fn added_selection_delay_lands_in_select_and_wall_only() {
    let (base_wall, base, base_digest) = measure(&replay::desiccant);
    let (spin_wall, spun, spin_digest) = measure(&spinning);
    assert_eq!(
        base_digest, spin_digest,
        "a host-side delay changed the simulation"
    );

    let calls = spun
        .iter()
        .find(|(n, _)| *n == "desiccant.select")
        .map_or(0, |(_, t)| t.calls);
    assert!(calls > 50, "selection ran only {calls} times");
    let added = calls as f64 * SPIN.as_secs_f64();

    let select_gain = self_s(&spun, "desiccant.select") - self_s(&base, "desiccant.select");
    assert!(
        (select_gain - added).abs() < 0.1 * added,
        "desiccant.select self time grew {select_gain:.4} s for {added:.4} s added"
    );
    let wall_gain = spin_wall - base_wall;
    assert!(
        (wall_gain - added).abs() < 0.3 * added,
        "wall time grew {wall_gain:.4} s for {added:.4} s added"
    );
    for (name, _) in base.iter().chain(&spun) {
        if *name == "desiccant.select" {
            continue;
        }
        let moved = self_s(&spun, name) - self_s(&base, name);
        assert!(
            moved.abs() < 0.25 * added,
            "{name} self time moved {moved:.4} s with {added:.4} s added to selection"
        );
    }
}
