//! Golden-replay digests: a bit-exact fingerprint of the trace-replay
//! pipeline in its fault-free configuration.
//!
//! The fault-injection subsystem guarantees that with faults disabled
//! the platform produces byte-identical results to a build that has no
//! fault machinery at all. That guarantee is enforced by checksum: the
//! digest below folds every observable outcome of a small fig9-style
//! replay matrix (counters, rates, latency percentiles, final cache
//! accounting) into one 64-bit FNV-1a value, and the workspace root's
//! `tests/replay_pins.rs` pins it to the value captured before the
//! fault subsystem landed.

use azure_trace::{build_trace, replay, ReplayConfig};
use desiccant::{Desiccant, DesiccantConfig};
use faas::platform::{GcMode, Platform};
use faas::{MemoryManager, PlatformConfig};
use simos::SimDuration;

/// 64-bit FNV-1a over a byte stream.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a(0xcbf29ce484222325)
    }
}

impl Fnv1a {
    /// Creates the hasher at the FNV offset basis.
    pub fn new() -> Fnv1a {
        Fnv1a::default()
    }

    /// Folds raw bytes into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    /// Folds a `u64` (little-endian) into the digest.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Folds an `f64` bit-exactly into the digest.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Runs the standard golden matrix — vanilla, eager, and Desiccant over
/// a short Azure-trace replay — and digests every outcome bit-exactly.
///
/// Any behavioural change to the fault-free simulation pipeline
/// (platform, runtime, heaps, simos, trace generation) changes this
/// value; pure additions (new counters that stay zero, new config
/// fields at their defaults) must not.
pub fn standard_digest() -> u64 {
    let mut h = Fnv1a::new();
    for mode in ["vanilla", "eager", "desiccant"] {
        let catalog = workloads::catalog();
        let trace = build_trace(&catalog, 7);
        let manager: Option<Box<dyn MemoryManager>> = match mode {
            "desiccant" => Some(Box::new(Desiccant::new(DesiccantConfig::default()))),
            _ => None,
        };
        let gc = if mode == "eager" { GcMode::Eager } else { GcMode::Vanilla };
        let mut p = Platform::new(PlatformConfig::default(), catalog, gc, manager);
        let config = ReplayConfig {
            scale: 15.0,
            warmup: SimDuration::from_secs(10),
            duration: SimDuration::from_secs(40),
            drain: SimDuration::from_secs(20),
            ..ReplayConfig::default()
        };
        let out = replay(&mut p, &trace, &config);
        h.write(mode.as_bytes());
        h.write_u64(out.submitted);
        h.write_u64(out.completed);
        h.write_f64(out.cold_boot_rate);
        h.write_f64(out.cold_boot_fraction);
        h.write_f64(out.throughput);
        h.write_f64(out.cpu_utilization);
        h.write_f64(out.reclaim_cpu_fraction);
        h.write_u64(out.evictions);
        h.write_f64(out.latency_ms.0);
        h.write_f64(out.latency_ms.1);
        h.write_f64(out.latency_ms.2);
        h.write_f64(out.latency_ms.3);
        // Post-drain platform state: cache accounting and pool shape.
        h.write_u64(p.cache_used());
        h.write_u64(p.frozen_count() as u64);
        h.write_u64(p.instance_count() as u64);
        h.write_u64(p.stats().cold_boots);
        h.write_u64(p.stats().warm_starts);
        h.write_u64(p.stats().evictions);
        h.write_u64(p.stats().reclamations);
        h.write_u64(p.stats().reclaimed_bytes);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vector() {
        // FNV-1a("a") = 0xaf63dc4c8601ec8c.
        let mut h = Fnv1a::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63dc4c8601ec8c);
    }
}
