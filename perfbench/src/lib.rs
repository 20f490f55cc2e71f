//! # perfbench — the repository benchmark
//!
//! Drives the simulator from outside, through public functions only,
//! and times every call in this crate's own code. The simulator is an
//! offline program with one client (this process), so the benchmark
//! reports work per host second at a stated input size, not latency at
//! an arrival rate.
//!
//! Every workload runs the same protocol ([`drive`]): repetitions of
//! one fixed unit of work (set-up, then the measured phase) until the
//! requested seconds of measured time have accumulated, each untraced;
//! then traced repetitions — one as a check when the end-to-end
//! metrics are wanted, or as many again when the per-layer metrics
//! are. Every repetition of a run must end in the same simulation
//! digest, traced or not. See `README.md` in this directory for the
//! metric dictionary.

#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod cluster;
pub mod freeze;
pub mod manager;
pub mod replay;
pub mod span;

use std::collections::BTreeMap;
use std::time::Instant;

use span::{attribute, LayerTotals, Span, Tracer};

/// Arguments every workload takes.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Host seconds of measured time to accumulate.
    pub seconds: f64,
    /// Report per-layer metrics from traced repetitions instead of the
    /// end-to-end metrics.
    pub trace: bool,
}

/// One named value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Output checks of one run; any failure makes the run incorrect.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks evaluated.
    pub run: u64,
    /// Descriptions of the checks that failed.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.run += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// One repetition of a workload's unit of work.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Host seconds of set-up.
    pub setup_s: f64,
    /// Host seconds of the measured phase.
    pub wall_s: f64,
    /// Host seconds of each part of the measured phase, in order (see
    /// [`Laps`]); every repetition has the same parts.
    pub parts: Vec<f64>,
    /// Work done in the measured phase, in the workload's unit.
    pub work: f64,
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations that failed or were shed.
    pub failed: u64,
    /// Digest of the final simulation state.
    pub digest: u64,
    /// Simulated request latency p99, milliseconds.
    pub sim_p99_ms: f64,
    /// Samples behind `sim_p99_ms`.
    pub sim_samples: u64,
    /// Simulated cold boots per simulated second.
    pub sim_cold_boots_per_s: f64,
    /// Exact counts read at layer boundaries (events handled, cold
    /// boots, ...), keyed by per-layer metric name.
    pub counts: BTreeMap<&'static str, f64>,
}

/// Everything a finished workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics (untraced repetitions).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced repetitions; empty unless traced).
    pub per_layer: Vec<Metric>,
    /// Operations attempted over the measured repetitions.
    pub attempted: u64,
    /// Operations failed, shed, or mis-verified.
    pub failed: u64,
    /// Output checks.
    pub checks: Checks,
    /// Human-readable lines printed ahead of the result.
    pub notes: Vec<String>,
    /// Every span recorded (empty unless traced).
    pub spans: Vec<Span>,
}

/// Host seconds `f` takes, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    #[allow(clippy::disallowed_methods)]
    // tidy:allow(wall-clock) -- the benchmark measures host time; it never enters simulation state
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

/// Times a phase as consecutive parts: each [`Laps::lap`] closes the
/// part that began at the previous lap (or at [`Laps::start`]), so the
/// parts add up to the whole phase.
pub struct Laps {
    last: Instant,
    /// Host seconds of every closed part, in order.
    pub parts: Vec<f64>,
}

impl Laps {
    /// Starts the first part now.
    pub fn start() -> Laps {
        #[allow(clippy::disallowed_methods)]
        // tidy:allow(wall-clock) -- the benchmark measures host time; it never enters simulation state
        let last = Instant::now();
        Laps {
            last,
            parts: Vec::new(),
        }
    }

    /// Closes the current part and starts the next.
    pub fn lap(&mut self) {
        #[allow(clippy::disallowed_methods)]
        // tidy:allow(wall-clock) -- the benchmark measures host time; it never enters simulation state
        let now = Instant::now();
        self.parts.push((now - self.last).as_secs_f64());
        self.last = now;
    }
}

/// Median of `xs` (mean of the middle pair for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` of `xs`; NaN when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// FNV-1a over `bytes`: the simulation digest.
pub fn digest(bytes: &[u8]) -> u64 {
    ::cluster::fnv64_bytes(bytes)
}

/// The process's host memory high-water mark in MiB (`VmHWM`).
pub fn read_peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is readable");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// Untraced and traced repetitions of one workload.
pub struct Driven {
    /// Untraced repetitions (the end-to-end metrics).
    pub plain: Vec<Rep>,
    /// Traced repetitions: one check repetition, or the per-layer run.
    pub traced: Vec<Rep>,
    /// The tracer the traced repetitions recorded into.
    pub tracer: Tracer,
    /// Host memory high-water mark after the first repetition, MiB.
    pub peak_rss_mib: f64,
}

/// Runs `rep` untraced until `params.seconds` of measured time and at
/// least `min_reps` repetitions have accumulated, then traced: once as
/// a check, or, when `params.trace` is set, for as long again. Checks
/// that every repetition ends in the same digest and sim outcome.
pub fn drive(
    params: &Params,
    min_reps: usize,
    checks: &mut Checks,
    mut rep: impl FnMut(&Tracer) -> Rep,
) -> Driven {
    let until = |reps: &[Rep]| {
        reps.len() >= min_reps && reps.iter().map(|r| r.wall_s).sum::<f64>() >= params.seconds
    };
    let mut plain = Vec::new();
    let mut peak_rss_mib = 0.0;
    while !until(&plain) {
        plain.push(rep(&Tracer::off()));
        if plain.len() == 1 {
            peak_rss_mib = read_peak_rss_mib();
        }
    }
    let tracer = Tracer::on();
    let mut traced = Vec::new();
    loop {
        tracer.set_run(traced.len() as u32);
        traced.push(rep(&tracer));
        if !params.trace || until(&traced) {
            break;
        }
    }
    let first = &plain[0];
    for (i, r) in plain.iter().chain(&traced).enumerate() {
        let kind = if i < plain.len() {
            "untraced"
        } else {
            "traced"
        };
        checks.check(r.digest == first.digest, || {
            format!(
                "{kind} repetition {i} ended in digest {:#018x}, repetition 0 in {:#018x}",
                r.digest, first.digest
            )
        });
        checks.check(
            r.sim_p99_ms == first.sim_p99_ms
                && r.sim_cold_boots_per_s == first.sim_cold_boots_per_s
                && r.counts == first.counts,
            || format!("{kind} repetition {i} reports different simulated outcomes"),
        );
        checks.check(r.parts.len() == first.parts.len(), || {
            format!(
                "{kind} repetition {i} was timed in {} parts, repetition 0 in {}",
                r.parts.len(),
                first.parts.len()
            )
        });
    }
    Driven {
        plain,
        traced,
        tracer,
        peak_rss_mib,
    }
}

impl Driven {
    /// Host seconds of the measured phase and work per host second
    /// over the untraced repetitions: the sum, over the phase's parts,
    /// of each part's fastest time in any repetition. Other tenants of
    /// a shared host only ever slow a part down, and how often they do
    /// drifts from one minute to the next, so a median moves with the
    /// host while the fastest time moves with the program (see
    /// `README.md`, "Noise on this host").
    pub fn measured(&self) -> (f64, f64) {
        let first = &self.plain[0];
        let wall_s: f64 = (0..first.parts.len())
            .map(|i| {
                self.plain
                    .iter()
                    .filter_map(|r| r.parts.get(i))
                    .fold(f64::INFINITY, |a, &b| a.min(b))
            })
            .sum();
        (wall_s, first.work / wall_s)
    }

    /// The end-to-end metrics of the untraced repetitions.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let col = |f: fn(&Rep) -> f64| self.plain.iter().map(f).collect::<Vec<f64>>();
        let first = &self.plain[0];
        let (wall_s, work_per_s) = self.measured();
        vec![
            metric("wall_s", wall_s, "s"),
            metric("work_per_s", work_per_s, "work/s"),
            metric("setup_s", median(&col(|r| r.setup_s)), "s"),
            metric("peak_rss_mib", self.peak_rss_mib, "MiB"),
            metric("sim_p99_ms", first.sim_p99_ms, "ms"),
            metric("sim_cold_boots_per_s", first.sim_cold_boots_per_s, "1/s"),
        ]
    }

    /// Operations attempted and failed over the untraced repetitions.
    pub fn tally(&self) -> (u64, u64) {
        self.plain
            .iter()
            .fold((0, 0), |(a, f), r| (a + r.attempted, f + r.failed))
    }

    /// Notes every run prints: repetition counts and the sample count
    /// behind the simulated p99.
    pub fn notes(&self) -> Vec<String> {
        let walls: Vec<String> = self
            .plain
            .iter()
            .map(|r| format!("{:.4}", r.wall_s))
            .collect();
        let counts: Vec<String> = self.plain[0]
            .counts
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        let reps = format!(
            "repetitions: {} untraced, {} traced; sim_p99_ms over {} samples; \
             untraced wall_s [{}]",
            self.plain.len(),
            self.traced.len(),
            self.plain[0].sim_samples,
            walls.join(" ")
        );
        vec![format!("counts per repetition: {}", counts.join(" ")), reps]
    }

    /// Per-layer metrics of the traced repetitions: mean self time per
    /// repetition for every layer, the exact counts, and the derived
    /// ratios. Layers the workload does not reach read zero. `extra`
    /// supplies workload-specific values (they replace the defaults).
    pub fn per_layer(&self, extra: &[(&'static str, f64)]) -> Vec<Metric> {
        let (spans, counters) = self.tracer.finish();
        let n = self.traced.len() as f64;
        let measured = attribute(&spans, "bench.rep");
        let setup = attribute(&spans, "bench.setup");
        let get = |m: &BTreeMap<&'static str, LayerTotals>, name: &str| {
            m.get(name).copied().unwrap_or_default()
        };
        let self_s = |name: &str| get(&measured, name).self_s / n;
        let calls = |name: &str| get(&measured, name).calls as f64 / n;
        let work = |name: &str| get(&measured, name).count as f64 / n;
        let counter = |name: &str| counters.get(name).copied().unwrap_or(0) as f64 / n;
        let count = |name: &str| self.traced[0].counts.get(name).copied().unwrap_or(0.0);
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        const MIB: f64 = (1u64 << 20) as f64;
        const MB: f64 = 1e6;

        let traced_wall = get(&measured, "bench.rep").total_s / n;
        let plain_wall = median(&self.plain.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        let traced_median = median(&self.traced.iter().map(|r| r.wall_s).collect::<Vec<_>>());

        let run_until = self_s("faas.run_until");
        let events = count("faas.events");
        let kernel_invocations = calls("workloads.kernel");
        let measure = self_s("simos.measure");
        let measures = calls("simos.measure");
        let base_b = work("snapshot.base");
        let delta_b = work("snapshot.delta");
        let restore_b = work("snapshot.restore");
        let encode_s = self_s("snapshot.base") + self_s("snapshot.delta");
        let round_s = self_s("cluster.round");
        let cluster_events = count("cluster.events");
        let picked = counter("desiccant.picked");
        let reclaims = counter("desiccant.reclaims");

        let mut out: Vec<(&'static str, f64, &'static str)> = vec![
            (
                "azure-trace.generate_s",
                get(&setup, "azure-trace.generate").self_s / n,
                "s",
            ),
            ("faas.submit_s", self_s("faas.submit"), "s"),
            ("faas.run_until_s", run_until, "s"),
            ("faas.events", events, "count"),
            ("faas.us_per_event", ratio(run_until * 1e6, events), "us"),
            ("faas.cold_boots", count("faas.cold_boots"), "count"),
            ("faas.evictions", count("faas.evictions"), "count"),
            ("faas.reclamations", count("faas.reclamations"), "count"),
            ("faas.dirty_run_s", self_s("faas.dirty_run"), "s"),
            ("desiccant.select_calls", calls("desiccant.select"), "count"),
            ("desiccant.select_s", self_s("desiccant.select"), "s"),
            (
                "desiccant.frozen_scanned",
                work("desiccant.select"),
                "count",
            ),
            ("desiccant.picked", picked, "count"),
            ("desiccant.reclaims", reclaims, "count"),
            (
                "desiccant.reclaimed_mib",
                counter("desiccant.reclaimed_bytes") / MIB,
                "MiB",
            ),
            ("desiccant.pick_yield", ratio(reclaims, picked), "ratio"),
            ("desiccant.note_s", self_s("desiccant.note"), "s"),
            ("workloads.kernel_s", self_s("workloads.kernel"), "s"),
            ("runtime.invoke_s", self_s("runtime.invoke"), "s"),
            ("runtime.launch_s", self_s("runtime.launch"), "s"),
            ("runtime.invocations", kernel_invocations, "count"),
            ("runtime.reclaim_s", self_s("runtime.reclaim"), "s"),
            ("runtime.released_mib", work("runtime.reclaim") / MIB, "MiB"),
            ("hotspot.eager_gc_s", self_s("hotspot.eager_gc"), "s"),
            ("v8heap.eager_gc_s", self_s("v8heap.eager_gc"), "s"),
            ("hotspot.collections", count("hotspot.collections"), "count"),
            ("v8heap.collections", count("v8heap.collections"), "count"),
            (
                "gc-core.bytes_copied_mib",
                count("gc-core.bytes_copied") / MIB,
                "MiB",
            ),
            (
                "gc-core.bytes_freed_mib",
                count("gc-core.bytes_freed") / MIB,
                "MiB",
            ),
            ("simos.measure_s", measure, "s"),
            ("simos.measures", measures, "count"),
            ("simos.us_per_measure", ratio(measure * 1e6, measures), "us"),
            ("snapshot.base_s", self_s("snapshot.base"), "s"),
            ("snapshot.base_mib", base_b / MIB, "MiB"),
            ("snapshot.delta_s", self_s("snapshot.delta"), "s"),
            ("snapshot.delta_mib", delta_b / MIB, "MiB"),
            (
                "snapshot.encode_mb_per_s",
                ratio((base_b + delta_b) / MB, encode_s),
                "MB/s",
            ),
            ("snapshot.restore_s", self_s("snapshot.restore"), "s"),
            (
                "snapshot.restore_mb_per_s",
                ratio(restore_b / MB, self_s("snapshot.restore")),
                "MB/s",
            ),
            ("snapshot.canonical_s", self_s("snapshot.canonical"), "s"),
            (
                "snapshot.delta_over_base",
                count("snapshot.delta_over_base"),
                "ratio",
            ),
            ("cluster.enqueue_s", self_s("cluster.enqueue"), "s"),
            ("cluster.round_s", round_s, "s"),
            ("cluster.rounds", calls("cluster.round"), "count"),
            ("cluster.round_p50_ms", 0.0, "ms"),
            ("cluster.round_tail_ms", 0.0, "ms"),
            ("cluster.round_tail_pct", 0.0, "%"),
            ("cluster.events", cluster_events, "count"),
            (
                "cluster.us_per_event",
                ratio(round_s * 1e6, cluster_events),
                "us",
            ),
            ("cluster.digest_s", self_s("cluster.digest"), "s"),
            ("cluster.recoveries", count("cluster.recoveries"), "count"),
            ("cluster.migrations", count("cluster.migrations"), "count"),
            ("parallel.speedup", 0.0, "ratio"),
            ("bench.traced_wall_s", traced_wall, "s"),
            (
                "bench.trace_overhead_frac",
                (traced_median - plain_wall) / plain_wall,
                "frac",
            ),
            (
                "bench.unattributed_frac",
                ratio(self_s("bench.rep"), traced_wall),
                "frac",
            ),
        ];
        for &(name, value) in extra {
            let slot = out
                .iter_mut()
                .find(|(n, ..)| *n == name)
                .unwrap_or_else(|| panic!("unknown per-layer metric {name}"));
            slot.1 = value;
        }
        out.into_iter()
            .map(|(name, value, unit)| metric(name, value, unit))
            .collect()
    }

    /// The layer shares of the traced wall time, largest first, with
    /// the accounting line: self times plus the unattributed remainder
    /// against the traced wall time.
    pub fn shares(&self) -> Vec<String> {
        let (spans, _) = self.tracer.finish();
        let measured = attribute(&spans, "bench.rep");
        let wall = measured.get("bench.rep").map_or(0.0, |t| t.total_s);
        let mut rows: Vec<(&str, f64)> = measured.iter().map(|(k, v)| (*k, v.self_s)).collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        let sum: f64 = rows.iter().map(|r| r.1).sum();
        let mut out = vec![format!(
            "layer shares of traced wall time ({} repetitions, {wall:.4} s; \
             self times sum to {sum:.4} s, bench.rep is the unattributed remainder):",
            self.traced.len()
        )];
        for (name, s) in rows {
            out.push(format!(
                "  {name:<22} {:>8.4} s  {:>6.2} %",
                s,
                100.0 * s / wall
            ));
        }
        out
    }
}

/// Builds a metric.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The workloads, by name.
pub const WORKLOADS: &[&str] = &[
    "replay_desiccant",
    "cluster_durable",
    "freeze_study",
    "checkpoint_cycle",
];

/// Runs workload `name`; `None` for an unknown name.
pub fn run(name: &str, params: &Params) -> Option<Outcome> {
    Some(match name {
        "replay_desiccant" => replay::run(params),
        "cluster_durable" => cluster::run(params),
        "freeze_study" => freeze::run(params),
        "checkpoint_cycle" => checkpoint::run(params),
        _ => return None,
    })
}

/// Finishes a run: end-to-end or per-layer metrics, tallies, notes.
pub fn outcome(
    params: &Params,
    driven: &Driven,
    checks: Checks,
    extra: &[(&'static str, f64)],
    mut notes: Vec<String>,
) -> Outcome {
    let (attempted, failed) = driven.tally();
    notes.extend(driven.notes());
    let (per_layer, spans) = if params.trace {
        notes.extend(driven.shares());
        (driven.per_layer(extra), driven.tracer.finish().0)
    } else {
        (Vec::new(), Vec::new())
    };
    Outcome {
        end_to_end: driven.end_to_end(),
        per_layer,
        attempted,
        failed,
        checks,
        notes,
        spans,
    }
}
