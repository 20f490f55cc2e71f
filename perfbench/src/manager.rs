//! A `MemoryManager` decorator that records the Desiccant layer's
//! spans and counts at the platform's manager boundary.
//!
//! Every trait method is forwarded, defaulted ones included, so the
//! platform sees exactly the wrapped manager (same name, same
//! fingerprint, same state blob): a traced replay must end in the
//! byte-identical state of an untraced one.

use faas::{FrozenView, InstanceId, MemoryManager, ReclaimProfile};
use simos::SimTime;

use crate::span::Tracer;

/// Traces every call into the wrapped manager.
pub struct TracedManager {
    inner: Box<dyn MemoryManager>,
    tracer: Tracer,
}

impl TracedManager {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: Box<dyn MemoryManager>, tracer: Tracer) -> TracedManager {
        TracedManager { inner, tracer }
    }
}

impl MemoryManager for TracedManager {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn select_reclaims(
        &mut self,
        now: SimTime,
        cache_budget: u64,
        cache_used: u64,
        frozen: &[FrozenView],
    ) -> Vec<InstanceId> {
        let picks = self.tracer.counted("desiccant.select", || {
            let picks = self
                .inner
                .select_reclaims(now, cache_budget, cache_used, frozen);
            (picks, frozen.len() as u64)
        });
        self.tracer.add("desiccant.picked", picks.len() as u64);
        picks
    }

    fn note_eviction(&mut self, now: SimTime, function: &str) {
        let inner = &mut self.inner;
        self.tracer
            .span("desiccant.note", || inner.note_eviction(now, function));
    }

    fn note_destroyed(&mut self, id: InstanceId) {
        let inner = &mut self.inner;
        self.tracer
            .span("desiccant.note", || inner.note_destroyed(id));
    }

    fn note_reclaimed(
        &mut self,
        now: SimTime,
        id: InstanceId,
        function: &str,
        profile: ReclaimProfile,
    ) {
        let inner = &mut self.inner;
        self.tracer.span("desiccant.note", || {
            inner.note_reclaimed(now, id, function, profile)
        });
        self.tracer.add("desiccant.reclaims", 1);
        self.tracer
            .add("desiccant.reclaimed_bytes", profile.released_bytes);
    }

    fn note_reclaim_failed(&mut self, now: SimTime, id: InstanceId, function: &str) {
        let inner = &mut self.inner;
        self.tracer.span("desiccant.note", || {
            inner.note_reclaim_failed(now, id, function)
        });
    }

    fn keep_weak(&self) -> bool {
        self.inner.keep_weak()
    }

    fn unmap_libs(&self) -> bool {
        self.inner.unmap_libs()
    }

    fn snapshot_state(&self) -> Vec<u8> {
        self.inner.snapshot_state()
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), snapshot::SnapError> {
        self.inner.restore_state(bytes)
    }
}
