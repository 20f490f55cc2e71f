//! Crash-consistent, resumable replay over a faultable checkpoint
//! store.
//!
//! [`replay`](crate::replay::replay) drives the §5.3 protocol in three
//! monolithic `run_until` spans; if the process dies mid-run the whole
//! simulation is lost. This module re-expresses the same protocol as a
//! sequence of short *steps* with three durability primitives layered
//! on top:
//!
//! * a **write-ahead request journal**: every arrival batch is encoded
//!   as a CRC64-sealed record and appended to the journal log *before*
//!   it is submitted, so a recovered run knows exactly which requests
//!   the dead run had already injected — and a torn journal tail is
//!   detected and dropped, never mis-parsed;
//! * **incremental checkpoints** written to a [`CheckpointStore`]: a
//!   full base every [`ResumeOptions::base_every`] checkpoints, cheap
//!   O(dirty) deltas ([`Platform::checkpoint_delta`]) in between, each
//!   sealed in the CRC64-framed container format with a commit record
//!   and a monotonic epoch, the driver's own cursor riding along as an
//!   extra frame;
//! * a **last-good recovery lattice**: when an armed [`CrashPlan`]
//!   kills the event loop, the driver asks the store for the newest
//!   verifiable `(base, delta…)` chain — storage faults (torn writes,
//!   truncation, bit rot, stale commit records) cost recency, not
//!   correctness — restores it, re-reads the journal through its CRC
//!   filter, re-submits the journaled batches from the recovered step
//!   onward, and continues. When *no* stored checkpoint survives, it
//!   restarts from nothing and the journal replays the entire run.
//!
//! Because the platform is deterministic, a recovered run retraces the
//! dead run's trajectory event for event: its final checkpoint is
//! **byte-identical** to an uninterrupted control run of the same
//! driver, no matter how many times it was killed or what the storage
//! layer did to the checkpoints. The kill–recover chaos gate in
//! `bench` pins exactly that, torn-write and bit-flip schedules
//! included.

use faas::fault::CrashPlan;
use faas::platform::Platform;
use faas::{CheckpointStore, PlatformError, StorageFaultPlan};
use simos::SimTime;
use snapshot::frame::crc64;
use snapshot::{Reader, SnapError, Writer};

use crate::generate::{generate_arrivals, TraceFunction};
use crate::replay::{ReplayConfig, ReplayOutcome};

/// One journaled arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalEntry {
    /// Step in whose window the arrival falls.
    pub step: usize,
    /// Arrival time.
    pub at: SimTime,
    /// Catalog index of the invoked function.
    pub fn_idx: usize,
}

/// The write-ahead request journal: an append-only log of every arrival
/// the driver has committed to submitting, grouped by step.
///
/// Appending a step's batch *before* submitting it gives the recovery
/// path a complete record: requests submitted after the latest
/// checkpoint are exactly the journal entries for steps at or after the
/// checkpointed step cursor.
///
/// The durable form is [`RequestJournal::log_bytes`]: one CRC64-sealed
/// record per batch. [`RequestJournal::from_log`] re-reads it the way a
/// recovering host must — sequentially, dropping a torn or corrupt
/// tail instead of mis-parsing it. Dropping a tail record is safe
/// *because* the journal is write-ahead: a batch that never finished
/// reaching the log was never submitted, and arrival generation is
/// deterministic, so the recovered run re-derives and re-journals it.
#[derive(Debug, Clone, Default)]
pub struct RequestJournal {
    entries: Vec<JournalEntry>,
    /// Highest step journaled so far (steps are journaled in order).
    journaled_through: Option<usize>,
    /// The durable byte log: CRC-sealed records, appended write-ahead.
    log: Vec<u8>,
}

impl RequestJournal {
    /// Creates an empty journal.
    pub fn new() -> RequestJournal {
        RequestJournal::default()
    }

    /// Total journaled arrivals.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing has been journaled.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `step`'s batch has already been journaled (by this run
    /// or, after a crash, by the run that died).
    pub fn contains_step(&self, step: usize) -> bool {
        self.journaled_through.is_some_and(|t| step <= t)
    }

    /// Appends `step`'s arrival batch — to the durable byte log first,
    /// then to the in-memory index. Steps must be journaled in order,
    /// exactly once.
    ///
    /// # Panics
    ///
    /// Panics if `step` is already journaled or skips ahead.
    pub fn append_batch(&mut self, step: usize, batch: &[(SimTime, usize)]) {
        let expected = self.journaled_through.map_or(0, |t| t + 1);
        assert_eq!(step, expected, "journal batches must append in step order");
        let mut w = Writer::new();
        w.usize(step);
        w.usize(batch.len());
        for &(at, fn_idx) in batch {
            w.u64(at.0);
            w.usize(fn_idx);
        }
        let body = w.into_bytes();
        let crc = crc64(&body);
        self.log.extend_from_slice(&body);
        self.log.extend_from_slice(&crc.to_le_bytes());
        self.entries.extend(batch.iter().map(|&(at, fn_idx)| JournalEntry {
            step,
            at,
            fn_idx,
        }));
        self.journaled_through = Some(step);
    }

    /// The journaled arrivals of `step`, in submission order.
    pub fn batch(&self, step: usize) -> Vec<(SimTime, usize)> {
        self.entries
            .iter()
            .filter(|e| e.step == step)
            .map(|e| (e.at, e.fn_idx))
            .collect()
    }

    /// The durable byte log: every record, in append order.
    pub fn log_bytes(&self) -> &[u8] {
        &self.log
    }

    /// Rebuilds a journal from a durable byte log, validating each
    /// record's CRC and step ordering. Returns the journal plus the
    /// number of tail bytes dropped as torn or corrupt; parsing never
    /// panics, whatever the bytes.
    pub fn from_log(bytes: &[u8]) -> (RequestJournal, usize) {
        let mut journal = RequestJournal::new();
        let mut r = Reader::new(bytes);
        loop {
            let record_start = bytes.len() - r.remaining();
            let parsed: Result<(usize, Vec<(SimTime, usize)>), SnapError> = (|| {
                let step = r.usize()?;
                let n = r.seq_len()?;
                let mut batch = Vec::with_capacity(n);
                for _ in 0..n {
                    let at = SimTime(r.u64()?);
                    let fn_idx = r.usize()?;
                    batch.push((at, fn_idx));
                }
                let body_end = bytes.len() - r.remaining();
                let stored_crc = r.u64()?;
                let body = bytes
                    .get(record_start..body_end)
                    .ok_or(SnapError::Corrupt("journal record extent out of bounds"))?;
                if crc64(body) != stored_crc {
                    return Err(SnapError::Corrupt("journal record checksum mismatch"));
                }
                Ok((step, batch))
            })();
            match parsed {
                Ok((step, batch)) => {
                    let expected = journal.journaled_through.map_or(0, |t| t + 1);
                    if step != expected {
                        // An out-of-order record cannot come from this
                        // writer — treat everything from here as trash.
                        return (journal, bytes.len() - record_start);
                    }
                    journal.append_batch(step, &batch);
                }
                Err(_) => return (journal, bytes.len() - record_start),
            }
            if r.remaining() == 0 {
                return (journal, 0);
            }
        }
    }
}

/// Knobs of the resumable driver.
#[derive(Debug, Clone, Copy)]
pub struct ResumeOptions {
    /// Number of steps the protocol is divided into (on top of the
    /// mandatory warm-up / measured-window / drain boundaries). More
    /// steps mean finer-grained journal batches and more potential
    /// checkpoint sites.
    pub steps_per_phase: usize,
    /// Checkpoint at the start of every `checkpoint_every`-th step.
    pub checkpoint_every: usize,
    /// Every `base_every`-th checkpoint is a full base; the rest are
    /// O(dirty) deltas chained to their predecessor.
    pub base_every: usize,
    /// Storage faults to inject into checkpoint writes, if any. The
    /// request journal is not subjected to the plan — its torn-tail
    /// handling is exercised separately — so every fault lands on the
    /// recovery lattice.
    pub storage_faults: Option<StorageFaultPlan>,
}

impl Default for ResumeOptions {
    fn default() -> ResumeOptions {
        ResumeOptions {
            steps_per_phase: 8,
            checkpoint_every: 3,
            base_every: 4,
            storage_faults: None,
        }
    }
}

/// Result of a resumable (possibly killed-and-recovered) replay.
#[derive(Debug, Clone)]
pub struct ResumeOutcome {
    /// The §5.3 metrics, identical in meaning to
    /// [`replay`](crate::replay::replay)'s.
    pub outcome: ReplayOutcome,
    /// How many times the run was killed and recovered.
    pub recoveries: u64,
    /// How many of those recoveries found no usable checkpoint chain
    /// and restarted from nothing, replaying the whole journal.
    pub scratch_recoveries: u64,
    /// How many checkpoint writes had a storage fault injected.
    pub storage_faults_injected: u64,
    /// Checkpoint of the final state — the byte string the chaos gate
    /// digests. Equal states yield equal bytes.
    pub final_state: Vec<u8>,
}

/// Rates captured when the measured window closes; part of the driver
/// checkpoint frame because a later crash must not lose them (the
/// window boundary is never re-crossed after recovery past it).
#[derive(Debug, Clone, Copy)]
struct RateCapture {
    submitted: u64,
    cold_boot_rate: f64,
    throughput: f64,
    cpu_utilization: f64,
    reclaim_cpu_fraction: f64,
}

/// Container frame kind of the driver's cursor state. Anything at or
/// above [`Platform::FRAME_EXTRA_BASE`] is opaque to the platform and
/// comes back verbatim from [`Platform::restore_chain`].
const FRAME_DRIVER: u32 = Platform::FRAME_EXTRA_BASE;

/// Encodes the driver cursor (step, captured rates) as the payload of
/// a [`FRAME_DRIVER`] frame.
fn encode_driver_frame(step: usize, rates: Option<RateCapture>) -> Vec<u8> {
    let mut w = Writer::new();
    w.usize(step);
    match rates {
        None => w.bool(false),
        Some(r) => {
            w.bool(true);
            w.u64(r.submitted);
            w.f64(r.cold_boot_rate);
            w.f64(r.throughput);
            w.f64(r.cpu_utilization);
            w.f64(r.reclaim_cpu_fraction);
        }
    }
    w.into_bytes()
}

fn decode_driver_frame(payload: &[u8]) -> Result<(usize, Option<RateCapture>), SnapError> {
    let mut r = Reader::new(payload);
    let step = r.usize()?;
    let rates = if r.bool()? {
        Some(RateCapture {
            submitted: r.u64()?,
            cold_boot_rate: r.f64()?,
            throughput: r.f64()?,
            cpu_utilization: r.f64()?,
            reclaim_cpu_fraction: r.f64()?,
        })
    } else {
        None
    };
    r.finish()?;
    Ok((step, rates))
}

/// Runs the §5.3 protocol step by step with journaling and periodic
/// incremental checkpoints, killing and recovering wherever `crash`
/// dictates and corrupting checkpoint writes wherever
/// [`ResumeOptions::storage_faults`] dictates.
///
/// `make_platform` must build identically-configured platforms — the
/// recovery path constructs a fresh one and restores the best
/// available checkpoint chain into it ([`Platform::restore_chain`]
/// enforces the match by fingerprint).
///
/// With `crash: None` this is the uninterrupted control; with a crash
/// schedule — and any storage-fault plan at all — the final state is
/// byte-identical to that control.
///
/// # Panics
///
/// Panics if the platform surfaces a non-kill error or a verified
/// checkpoint chain fails to restore — both mean the simulation itself
/// is broken. The message carries the storage fault seed, the
/// checkpoint epoch involved, and the kill point's `events_handled`,
/// so a failing chaos schedule can be replayed exactly.
pub fn replay_resumable<F>(
    make_platform: F,
    trace: &[TraceFunction],
    config: &ReplayConfig,
    opts: &ResumeOptions,
    crash: Option<CrashPlan>,
) -> ResumeOutcome
where
    F: Fn() -> Platform,
{
    assert!(opts.steps_per_phase > 0, "need at least one step per phase");
    assert!(opts.checkpoint_every > 0, "checkpoint interval must be positive");
    assert!(opts.base_every > 0, "base interval must be positive");

    let mut platform = make_platform();
    let t0 = platform.now();
    let warm_end = t0 + config.warmup;
    let replay_end = warm_end + config.duration;
    let drain_end = replay_end + config.drain;

    // Step boundaries: the three protocol phases, each cut into
    // `steps_per_phase` windows. Phase edges are always boundaries, so
    // the reset/capture actions land at exactly the times `replay` uses.
    let mut bounds: Vec<SimTime> = Vec::new();
    for (lo, hi) in [(t0, warm_end), (warm_end, replay_end), (replay_end, drain_end)] {
        let span = hi.since(lo).as_nanos();
        for i in 0..opts.steps_per_phase {
            let off = span * i as u64 / opts.steps_per_phase as u64;
            let b = SimTime(lo.0 + off);
            if bounds.last() != Some(&b) {
                bounds.push(b);
            }
        }
    }
    bounds.push(drain_end);
    let n_steps = bounds.len() - 1;

    // Pre-compute the arrival batch of every step. Arrival generation
    // is deterministic, but the journal — not this table — is the
    // source of truth once a batch is committed.
    let mut arrivals = generate_arrivals(trace, config.warmup_scale, t0, warm_end, config.seed);
    arrivals.extend(generate_arrivals(
        trace,
        config.scale,
        warm_end,
        replay_end,
        config.seed ^ 0xA5A5,
    ));
    let mut batches: Vec<Vec<(SimTime, usize)>> = vec![Vec::new(); n_steps];
    for &(t, f) in &arrivals {
        let step = match bounds.binary_search(&t) {
            Ok(i) => i.min(n_steps - 1),
            Err(i) => i - 1,
        };
        batches[step].push((t, f));
    }

    let fault_seed = opts.storage_faults.map(|p| p.seed);
    let mut store = match opts.storage_faults {
        Some(plan) => CheckpointStore::with_faults(plan),
        None => CheckpointStore::new(),
    };
    let mut journal = RequestJournal::new();
    let mut rates: Option<RateCapture> = None;
    // Epoch of the last checkpoint *cut* — the parent of the next
    // delta. A faulted put still advances it: the platform cleared its
    // dirty tracking at the cut regardless of what the storage layer
    // kept, so the next delta is relative to that cut either way (the
    // recovery lattice walks past the unusable object).
    let mut parent_epoch: Option<u64> = None;
    let mut recoveries: u64 = 0;
    let mut scratch_recoveries: u64 = 0;
    if let Some(plan) = crash {
        if let Some(at) = plan.next_after(platform.events_handled()) {
            platform.arm_kill(at);
        }
    }

    let mut step = 0;
    while step < n_steps {
        let start = bounds[step];
        if step % opts.checkpoint_every == 0 {
            // Epoch = number of puts + 1: derivable from durable state
            // alone, strictly monotonic across recoveries.
            let epoch = store.len() as u64 + 1;
            let extra = vec![(FRAME_DRIVER, encode_driver_frame(step, rates))];
            let bytes = match parent_epoch {
                Some(parent) if store.len() % opts.base_every != 0 => {
                    platform.checkpoint_delta(epoch, parent, &extra)
                }
                _ => platform.checkpoint_base(epoch, &extra),
            };
            store.put(bytes);
            parent_epoch = Some(epoch);
        }
        if start == warm_end {
            platform.reset_stats();
        }
        if start == replay_end {
            let cores = platform.config().cores;
            let stats = platform.stats();
            rates = Some(RateCapture {
                submitted: stats.submitted,
                cold_boot_rate: stats.cold_boot_rate(replay_end),
                throughput: stats.throughput(replay_end),
                cpu_utilization: stats.cpu_utilization(replay_end, cores),
                reclaim_cpu_fraction: stats.reclaim_cpu_fraction(replay_end, cores),
            });
        }
        // Write-ahead: commit the batch to the journal, then submit
        // from the journal. A recovered run finds the batch already
        // journaled and replays it verbatim.
        if !journal.contains_step(step) {
            journal.append_batch(step, &batches[step]);
        }
        for (t, f) in journal.batch(step) {
            platform.submit(t, f);
        }
        match platform.try_run_until(bounds[step + 1]) {
            Ok(()) => step += 1,
            Err(PlatformError::Killed { events_handled }) => {
                // The process died. Build a new one, restore the newest
                // verifiable checkpoint chain — or nothing, if the
                // storage layer destroyed them all — and resume; the
                // journal re-supplies every batch submitted since.
                recoveries += 1;
                platform = make_platform();
                // Re-read the journal the way a restarting host must:
                // through the CRC filter of its durable byte log.
                let (reread, dropped) = RequestJournal::from_log(journal.log_bytes());
                assert_eq!(
                    dropped, 0,
                    "in-memory journal log cannot be torn (fault seed {fault_seed:?})"
                );
                journal = reread;
                match store.recover() {
                    Some((head_epoch, chain)) => {
                        let (_, extra) = platform.restore_chain(&chain).unwrap_or_else(|e| {
                            panic!(
                                "verified chain (head epoch {head_epoch}) failed to \
                                 restore: {e} (storage fault seed {fault_seed:?}, \
                                 killed at events_handled={events_handled})"
                            )
                        });
                        let driver = extra
                            .iter()
                            .find(|(kind, _)| *kind == FRAME_DRIVER)
                            .unwrap_or_else(|| {
                                panic!(
                                    "checkpoint epoch {head_epoch} carries no driver \
                                     frame (storage fault seed {fault_seed:?}, killed \
                                     at events_handled={events_handled})"
                                )
                            });
                        let (s, r) = decode_driver_frame(&driver.1).unwrap_or_else(|e| {
                            panic!(
                                "driver frame of epoch {head_epoch} is corrupt past \
                                 its CRCs: {e} (storage fault seed {fault_seed:?}, \
                                 killed at events_handled={events_handled})"
                            )
                        });
                        step = s;
                        rates = r;
                        parent_epoch = Some(head_epoch);
                    }
                    None => {
                        // Every stored checkpoint is unusable: restart
                        // from nothing. The journal replays the whole
                        // history deterministically.
                        scratch_recoveries += 1;
                        step = 0;
                        rates = None;
                        parent_epoch = None;
                    }
                }
                if let Some(plan) = crash {
                    match plan.next_after(events_handled) {
                        Some(at) => platform.arm_kill(at),
                        None => platform.disarm_kill(),
                    }
                }
            }
            Err(e) => panic!(
                "platform invariant violated: {e} (storage fault seed {fault_seed:?}, \
                 checkpoint epoch {parent_epoch:?}, events_handled={})",
                platform.events_handled()
            ),
        }
    }
    platform.disarm_kill();

    let captured = rates.expect("measured-window boundary is always crossed");
    let stats = platform.stats();
    let mut latency = stats.latency.clone();
    let pct = |l: &mut faas::LatencyHistogram, q: f64| {
        l.percentile(q).map(|d| d.as_millis_f64()).unwrap_or(0.0)
    };
    let outcome = ReplayOutcome {
        submitted: captured.submitted,
        completed: stats.completed,
        cold_boot_rate: captured.cold_boot_rate,
        cold_boot_fraction: stats.cold_boot_fraction(),
        throughput: captured.throughput,
        cpu_utilization: captured.cpu_utilization,
        reclaim_cpu_fraction: captured.reclaim_cpu_fraction,
        evictions: stats.evictions,
        failed: stats.failed,
        retries: stats.retries,
        fault_events: stats.fault_events(),
        latency_ms: (
            pct(&mut latency, 0.50),
            pct(&mut latency, 0.90),
            pct(&mut latency, 0.95),
            pct(&mut latency, 0.99),
        ),
    };
    ResumeOutcome {
        outcome,
        recoveries,
        scratch_recoveries,
        storage_faults_injected: store.faults_injected(),
        final_state: platform.checkpoint(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::build_trace;
    use faas::platform::GcMode;
    use faas::PlatformConfig;
    use simos::SimDuration;

    fn quick_config() -> ReplayConfig {
        ReplayConfig {
            warmup: SimDuration::from_secs(8),
            duration: SimDuration::from_secs(20),
            scale: 10.0,
            warmup_scale: 10.0,
            seed: 3,
            drain: SimDuration::from_secs(12),
        }
    }

    fn make() -> Platform {
        Platform::new(
            PlatformConfig::default(),
            workloads::catalog(),
            GcMode::Vanilla,
            None,
        )
    }

    #[test]
    fn uninterrupted_resumable_matches_itself() {
        let trace = build_trace(&workloads::catalog(), 5);
        let cfg = quick_config();
        let a = replay_resumable(make, &trace, &cfg, &ResumeOptions::default(), None);
        let b = replay_resumable(make, &trace, &cfg, &ResumeOptions::default(), None);
        assert_eq!(a.recoveries, 0);
        assert_eq!(a.final_state, b.final_state);
        assert!(a.outcome.completed > 0);
        assert_eq!(a.outcome.failed, 0);
    }

    #[test]
    fn crashed_run_recovers_to_identical_state() {
        let trace = build_trace(&workloads::catalog(), 5);
        let cfg = quick_config();
        let opts = ResumeOptions::default();
        let control = replay_resumable(make, &trace, &cfg, &opts, None);
        let chaos = replay_resumable(make, &trace, &cfg, &opts, Some(CrashPlan::every(400)));
        assert!(chaos.recoveries > 0, "crash schedule never fired");
        assert_eq!(
            chaos.final_state, control.final_state,
            "recovered state diverged from the uninterrupted control"
        );
        assert_eq!(chaos.outcome.completed, control.outcome.completed);
        assert_eq!(chaos.outcome.submitted, control.outcome.submitted);
    }

    #[test]
    fn single_crash_point_recovers_once() {
        let trace = build_trace(&workloads::catalog(), 5);
        let cfg = quick_config();
        let opts = ResumeOptions::default();
        let control = replay_resumable(make, &trace, &cfg, &opts, None);
        let chaos = replay_resumable(make, &trace, &cfg, &opts, Some(CrashPlan::at(300)));
        assert_eq!(chaos.recoveries, 1);
        assert_eq!(chaos.final_state, control.final_state);
    }

    #[test]
    fn storage_faults_cost_recency_not_correctness() {
        let trace = build_trace(&workloads::catalog(), 5);
        let cfg = quick_config();
        let control = replay_resumable(make, &trace, &cfg, &ResumeOptions::default(), None);
        let opts = ResumeOptions {
            storage_faults: Some(StorageFaultPlan::uniform(41, 0.4)),
            ..ResumeOptions::default()
        };
        let chaos = replay_resumable(make, &trace, &cfg, &opts, Some(CrashPlan::every(500)));
        assert!(chaos.recoveries > 0, "crash schedule never fired");
        assert!(chaos.storage_faults_injected > 0, "fault plan never fired");
        assert_eq!(
            chaos.final_state, control.final_state,
            "storage faults changed the recovered trajectory"
        );
    }

    #[test]
    fn total_checkpoint_loss_recovers_from_journal_alone() {
        let trace = build_trace(&workloads::catalog(), 5);
        let cfg = quick_config();
        let control = replay_resumable(make, &trace, &cfg, &ResumeOptions::default(), None);
        // Every checkpoint write gets a bit flipped: recovery can never
        // use the store and must replay the journal from nothing.
        let opts = ResumeOptions {
            storage_faults: Some(StorageFaultPlan::corrupt_at(13, 100)),
            ..ResumeOptions::default()
        };
        let chaos = replay_resumable(make, &trace, &cfg, &opts, Some(CrashPlan::at(300)));
        assert_eq!(chaos.recoveries, 1);
        assert_eq!(chaos.scratch_recoveries, 1);
        assert_eq!(chaos.final_state, control.final_state);
    }

    #[test]
    fn journal_appends_in_order_and_replays_batches() {
        let mut j = RequestJournal::new();
        assert!(j.is_empty());
        j.append_batch(0, &[(SimTime(5), 1), (SimTime(9), 2)]);
        j.append_batch(1, &[]);
        j.append_batch(2, &[(SimTime(30), 0)]);
        assert_eq!(j.len(), 3);
        assert!(j.contains_step(1));
        assert!(!j.contains_step(3));
        assert_eq!(j.batch(0), vec![(SimTime(5), 1), (SimTime(9), 2)]);
        assert_eq!(j.batch(1), Vec::new());
        assert_eq!(j.batch(2), vec![(SimTime(30), 0)]);
    }

    #[test]
    #[should_panic(expected = "step order")]
    fn journal_rejects_out_of_order_batches() {
        let mut j = RequestJournal::new();
        j.append_batch(1, &[]);
    }

    #[test]
    fn journal_log_round_trips() {
        let mut j = RequestJournal::new();
        j.append_batch(0, &[(SimTime(5), 1), (SimTime(9), 2)]);
        j.append_batch(1, &[]);
        j.append_batch(2, &[(SimTime(30), 0)]);
        let (back, dropped) = RequestJournal::from_log(j.log_bytes());
        assert_eq!(dropped, 0);
        assert_eq!(back.len(), j.len());
        for step in 0..3 {
            assert_eq!(back.batch(step), j.batch(step));
        }
        assert_eq!(back.log_bytes(), j.log_bytes());
    }

    #[test]
    fn journal_drops_torn_or_corrupt_tail_without_panicking() {
        let mut j = RequestJournal::new();
        j.append_batch(0, &[(SimTime(5), 1)]);
        let clean_len = j.log_bytes().len();
        j.append_batch(1, &[(SimTime(12), 0), (SimTime(14), 2)]);
        let log = j.log_bytes().to_vec();
        // Every possible tear point: the prefix records survive, the
        // torn tail is dropped, and nothing panics.
        for cut in 0..log.len() {
            let (back, dropped) = RequestJournal::from_log(&log[..cut]);
            // The torn record's bytes — everything past the last
            // complete record — are dropped in full.
            let expected = if cut >= clean_len { cut - clean_len } else { cut };
            assert_eq!(dropped, expected, "cut at {cut}");
            if cut >= clean_len {
                assert_eq!(back.batch(0), vec![(SimTime(5), 1)]);
            }
            assert!(back.len() <= j.len());
        }
        // A corrupt (not torn) tail record is likewise dropped.
        let mut bad = log.clone();
        let last = bad.len() - 3;
        bad[last] ^= 0x80;
        let (back, dropped) = RequestJournal::from_log(&bad);
        assert_eq!(back.batch(0), vec![(SimTime(5), 1)]);
        assert!(!back.contains_step(1));
        assert!(dropped > 0);
    }
}
