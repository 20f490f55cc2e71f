//! `freeze_study`: the §3.1 single-function protocol over all 20
//! catalog functions.
//!
//! Each function runs in its own simulated host (built during set-up
//! with the runtime image registered), one `Instance` per
//! chain stage plus a spare same-language instance that keeps the
//! runtime libraries shared, under two exit modes: vanilla (freeze
//! with no GC) and eager (the stock GC call at every function exit).
//! USS, PSS, RSS, and the ideal are measured at every freeze, and
//! every run ends with Desiccant's `reclaim` on each stage. Inside
//! `Platform::run_until` the kernels, the heap models, and the memory
//! accounting are invisible; here each is a separate call into its
//! layer. There is no event loop, cluster, or snapshot work. The
//! benchmark seed seeds every stage's function state (its inputs).

use faas::LatencyHistogram;
use faas_runtime::{Instance, Language, RuntimeImage, SharedLibs};
use simos::{SimDuration, SimTime, System};
use workloads::{FunctionSpec, FunctionState};

use crate::span::Tracer;
use crate::{drive, outcome, timed, Checks, Laps, Outcome, Params, Rep};

/// Invocations per instance (the paper's 100).
const ITERATIONS: u32 = 100;
/// Idle gap between invocations, simulated.
const GAP: SimDuration = SimDuration::from_millis(100);
/// Instance memory budget and CPU share (the paper's defaults).
const BUDGET: u64 = 256 << 20;
const CPU_SHARE: f64 = 0.14;

/// FNV-1a step over one value.
fn fold(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h = (*h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
}

/// What one function under one exit mode produced.
#[derive(Default)]
struct Study {
    invocations: u64,
    failed: u64,
    launches: u64,
    sim_ns: u64,
    /// Freeze points where USS ≤ PSS ≤ RSS did not hold.
    misordered: u64,
    collections: u64,
    bytes_copied: u64,
    bytes_freed: u64,
}

/// One function's simulated host, before any instance launches: the
/// runtime image with its libraries registered in the page cache.
struct Host {
    sys: System,
    image: RuntimeImage,
    libs: SharedLibs,
}

impl Host {
    fn new(spec: &FunctionSpec) -> Host {
        let mut sys = System::new();
        let image = RuntimeImage::openwhisk(spec.language);
        let libs = image.register_files(&mut sys);
        Host { sys, image, libs }
    }
}

/// Runs the protocol for `spec` under one exit mode on `host`,
/// folding every measurement into `h` and every request latency into
/// `latency`. Closes a lap of `laps` after the launches, after every
/// request with its freeze point, and after the reclaims.
#[allow(clippy::too_many_arguments)]
fn study(
    spec: &FunctionSpec,
    eager: bool,
    host: Host,
    seed: u64,
    tracer: &Tracer,
    h: &mut u64,
    latency: &mut LatencyHistogram,
    laps: &mut Laps,
) -> Study {
    let mut out = Study::default();
    let Host {
        mut sys,
        image,
        libs,
    } = host;
    let launch = |sys: &mut System, out: &mut Study| {
        out.launches += 1;
        tracer.span("runtime.launch", || {
            Instance::launch(sys, &image, &libs, BUDGET, CPU_SHARE)
                .expect("the runtime image fits the instance budget")
        })
    };
    let _spare = launch(&mut sys, &mut out);
    let mut stages: Vec<(Instance, FunctionState)> = (0..spec.chain_len)
        .map(|stage| (launch(&mut sys, &mut out), FunctionState::new(stage, seed)))
        .collect();
    let gc_span = match spec.language {
        Language::Java => "hotspot.eager_gc",
        Language::JavaScript => "v8heap.eager_gc",
    };
    let mut now = SimTime::ZERO;
    laps.lap();
    for _ in 0..ITERATIONS {
        let mut request = SimDuration::ZERO;
        for (inst, state) in &mut stages {
            out.invocations += 1;
            let report = tracer.span("runtime.invoke", || {
                inst.invoke(&mut sys, now, &spec.exec, |ctx| {
                    tracer.span("workloads.kernel", || state.invoke(spec, ctx));
                })
            });
            let Ok(report) = report else {
                out.failed += 1;
                continue;
            };
            request += report.wall_time;
            now += report.wall_time;
            if eager {
                match tracer.span(gc_span, || inst.eager_gc(&mut sys)) {
                    Ok(pause) => now += pause,
                    Err(_) => out.failed += 1,
                }
            }
            tracer.span("workloads.transfer", || {
                state.complete_transfer(inst.heap_mut().graph_mut())
            });
        }
        latency.record(request);
        // Freeze point: measure every stage.
        for (inst, _) in &stages {
            let uss = tracer.span("simos.measure", || inst.uss(&sys));
            let pss = tracer.span("simos.measure", || inst.pss(&sys));
            let rss = tracer.span("simos.measure", || inst.rss(&sys));
            let ideal = tracer.span("simos.measure", || inst.ideal_uss(&sys));
            if !(uss as f64 <= pss && pss <= rss as f64) {
                out.misordered += 1;
            }
            for v in [uss, pss.to_bits(), rss, ideal, inst.heap().committed()] {
                fold(h, v);
            }
        }
        now += GAP;
        laps.lap();
    }
    // Memory has become scarce once the instance is frozen: Desiccant
    // reclaims every stage.
    for (inst, state) in &mut stages {
        let reclaimed = tracer.counted("runtime.reclaim", || {
            let r = inst.reclaim(&mut sys, now, true);
            let released = r.as_ref().map_or(0, |r| r.released_bytes);
            (r, released)
        });
        match reclaimed {
            Ok(r) => {
                fold(h, r.released_bytes);
                fold(h, r.live_bytes);
            }
            Err(_) => out.failed += 1,
        }
        fold(h, inst.uss(&sys));
        fold(h, state.checksum());
        let c = inst.heap().counters();
        out.collections += c.young_collections + c.full_collections;
        out.bytes_copied += c.bytes_copied;
        out.bytes_freed += c.bytes_freed;
    }
    laps.lap();
    out.sim_ns = now.0;
    out
}

/// One repetition: set-up (the catalog and one host per function and
/// exit mode), then every catalog function under both exit modes.
pub fn rep(seed: u64, tracer: &Tracer) -> Rep {
    let (setup_s, (catalog, hosts)) = timed(|| {
        tracer.span("bench.setup", || {
            let catalog = workloads::catalog();
            let hosts: Vec<Host> = catalog
                .iter()
                .flat_map(|spec| [Host::new(spec), Host::new(spec)])
                .collect();
            (catalog, hosts)
        })
    });
    let mut hosts = hosts.into_iter();
    let mut h = 0xcbf2_9ce4_8422_2325;
    let mut latency = LatencyHistogram::new();
    let mut counts = std::collections::BTreeMap::new();
    let mut total = Study::default();
    let mut laps = Laps::start();
    let (wall_s, ()) = timed(|| {
        tracer.span("bench.rep", || {
            for spec in &catalog {
                for eager in [false, true] {
                    let host = hosts.next().expect("one host per function and exit mode");
                    let s = study(
                        spec,
                        eager,
                        host,
                        seed,
                        tracer,
                        &mut h,
                        &mut latency,
                        &mut laps,
                    );
                    let lang = match spec.language {
                        Language::Java => "hotspot.collections",
                        Language::JavaScript => "v8heap.collections",
                    };
                    *counts.entry(lang).or_insert(0.0) += s.collections as f64;
                    total.invocations += s.invocations;
                    total.failed += s.failed;
                    total.launches += s.launches;
                    total.sim_ns += s.sim_ns;
                    total.misordered += s.misordered;
                    total.bytes_copied += s.bytes_copied;
                    total.bytes_freed += s.bytes_freed;
                }
            }
        })
    });
    counts.insert("gc-core.bytes_copied", total.bytes_copied as f64);
    counts.insert("gc-core.bytes_freed", total.bytes_freed as f64);
    counts.insert("misordered_freezes", total.misordered as f64);
    let p99 = latency.percentile(0.99).map_or(0.0, |d| d.as_millis_f64());
    Rep {
        setup_s,
        wall_s,
        parts: laps.parts,
        work: total.invocations as f64,
        attempted: total.invocations,
        failed: total.failed,
        digest: h,
        sim_p99_ms: p99,
        sim_samples: latency.len() as u64,
        sim_cold_boots_per_s: total.launches as f64 / (total.sim_ns as f64 * 1e-9),
        counts,
    }
}

/// Runs the workload.
pub fn run(params: &Params) -> Outcome {
    let mut checks = Checks::default();
    let driven = drive(params, 3, &mut checks, |tracer| rep(params.seed, tracer));
    for r in driven.plain.iter().chain(&driven.traced) {
        let bad = r.counts["misordered_freezes"];
        checks.check(bad == 0.0, || {
            format!("USS <= PSS <= RSS failed at {bad} freeze points")
        });
    }
    let notes = vec![format!(
        "freeze study: 20 functions x 2 exit modes (vanilla, eager) x {ITERATIONS} requests; \
         {} invocations per repetition; sim_p99_ms is the request latency p99 and \
         sim_cold_boots_per_s the instance launches per simulated second; digest {:#018x}",
        driven.plain[0].work, driven.plain[0].digest
    )];
    outcome(params, &driven, checks, &[], notes)
}
