//! A simulated durable checkpoint store with seeded storage faults.
//!
//! [`CheckpointStore`] models the object store a FaaS control plane
//! writes its checkpoint containers to. Writes are append-only; a
//! [`crate::StorageFaultPlan`] injects the classic durability failures
//! *into the stored bytes* at put time — torn write (a prefix of the
//! container survives, cut at a frame boundary, commit record lost),
//! arbitrary truncation, a flipped bit, and a stale commit record (an
//! old commit spliced after new frames). The store never hides a fault
//! from itself: recovery works purely from the stored bytes, exactly
//! as a restarting host would.
//!
//! [`CheckpointStore::recover`] is the last-good lattice walk: newest
//! object first, it looks for a head whose container verifies and
//! whose parent chain resolves to a base among strictly older objects,
//! and returns that chain oldest-first. Every verification failure
//! just moves the walk back in time — corruption costs recency, never
//! a panic.

use snapshot::frame::{Container, COMMIT_KIND};
use snapshot::Reader;

use crate::fault::{StorageFault, StorageFaultInjector, StorageFaultPlan};

/// One stored checkpoint object, with the fault (if any) that was
/// injected into it at put time. The fault tag is bookkeeping for
/// assertions and reports — recovery never reads it.
#[derive(Debug, Clone)]
struct StoredObject {
    bytes: Vec<u8>,
    fault: Option<StorageFault>,
}

/// Append-only checkpoint object store with optional fault injection.
#[derive(Debug, Default)]
pub struct CheckpointStore {
    objects: Vec<StoredObject>,
    injector: Option<StorageFaultInjector>,
    /// Commit-frame bytes of the last *pristine* container put, the
    /// splice source for [`StorageFault::StaleCommit`].
    last_commit: Option<Vec<u8>>,
    faults_injected: u64,
}

impl CheckpointStore {
    /// A store with perfectly reliable writes.
    pub fn new() -> CheckpointStore {
        CheckpointStore::default()
    }

    /// A store whose writes suffer faults drawn from `plan`.
    pub fn with_faults(plan: StorageFaultPlan) -> CheckpointStore {
        CheckpointStore {
            injector: Some(StorageFaultInjector::new(plan)),
            ..CheckpointStore::default()
        }
    }

    /// The installed fault plan, if any — panic-context material.
    pub fn fault_plan(&self) -> Option<StorageFaultPlan> {
        self.injector.as_ref().map(|i| *i.plan())
    }

    /// Number of objects ever put (faulted ones included).
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True when nothing has been put yet.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// How many puts had a fault injected.
    pub fn faults_injected(&self) -> u64 {
        self.faults_injected
    }

    /// Stores a checkpoint container, injecting at most one storage
    /// fault into the stored bytes. Returns the fault that fired, if
    /// any — callers may count it, but must never use it to steer
    /// recovery (a real host does not know its disk lied). The store
    /// keeps `container` itself when no fault fires, so a put never
    /// copies a clean checkpoint.
    pub fn put(&mut self, container: Vec<u8>) -> Option<StorageFault> {
        let fault = self.injector.as_mut().and_then(|i| i.next_fault());
        // The splice source for a *future* stale commit is this put's
        // pristine commit record — the store models a writer whose
        // buffered commit block lands late, over the next object.
        let commit = commit_extent(&container)
            .and_then(|(commit_start, end)| container.get(commit_start..end).map(<[u8]>::to_vec));
        let stored = match fault {
            None => container,
            Some(f) => {
                self.faults_injected += 1;
                self.apply_fault(f, &container)
            }
        };
        if commit.is_some() {
            self.last_commit = commit;
        }
        self.objects.push(StoredObject {
            bytes: stored,
            fault,
        });
        fault
    }

    fn apply_fault(&mut self, fault: StorageFault, container: &[u8]) -> Vec<u8> {
        let Some(injector) = self.injector.as_mut() else {
            return container.to_vec();
        };
        match fault {
            StorageFault::TornWrite => {
                // Cut at a frame boundary at or before the commit
                // record: frames after the cut — the commit always
                // among them — never hit the disk.
                let starts = frame_starts(container);
                let cut = match starts.get(injector.pick_index(starts.len() as u64) as usize) {
                    Some(&at) => at,
                    None => container.len().min(8),
                };
                container.get(..cut).unwrap_or(container).to_vec()
            }
            StorageFault::Truncate => {
                let cut = injector.pick_index(container.len() as u64) as usize;
                container.get(..cut).unwrap_or(container).to_vec()
            }
            StorageFault::BitFlip => {
                let mut bytes = container.to_vec();
                let at = match injector.plan().corrupt_at {
                    Some(at) => at % bytes.len().max(1) as u64,
                    None => injector.pick_index(bytes.len() as u64),
                };
                let bit = injector.pick_index(8) as u32;
                if let Some(b) = bytes.get_mut(at as usize) {
                    *b ^= 1u8 << bit;
                }
                bytes
            }
            StorageFault::StaleCommit => {
                match (self.last_commit.clone(), commit_extent(container)) {
                    (Some(old_commit), Some((commit_start, _))) => {
                        let mut forged =
                            container.get(..commit_start).unwrap_or(container).to_vec();
                        forged.extend_from_slice(&old_commit);
                        forged
                    }
                    // No earlier commit to splice (or an unparsable
                    // container): degrade to losing the commit — the
                    // closest physical outcome.
                    _ => {
                        let cut = commit_extent(container)
                            .map_or(container.len().min(8), |(start, _)| start);
                        container.get(..cut).unwrap_or(container).to_vec()
                    }
                }
            }
        }
    }

    /// Tears the newest object at its commit-frame boundary — the
    /// deterministic "power loss during the last checkpoint" used by
    /// the chaos gates.
    pub fn tear_newest(&mut self) {
        if let Some(obj) = self.objects.last_mut() {
            let cut = commit_extent(&obj.bytes).map_or(obj.bytes.len().min(8), |(s, _)| s);
            obj.bytes.truncate(cut);
            if obj.fault.is_none() {
                obj.fault = Some(StorageFault::TornWrite);
                self.faults_injected += 1;
            }
        }
    }

    /// Flips one bit of the newest object at `offset` (wrapped to its
    /// length) — the deterministic "latent media corruption" used by
    /// the chaos gates.
    pub fn corrupt_newest(&mut self, offset: u64) {
        if let Some(obj) = self.objects.last_mut() {
            let len = obj.bytes.len().max(1) as u64;
            if let Some(b) = obj.bytes.get_mut((offset % len) as usize) {
                *b ^= 1;
            }
            if obj.fault.is_none() {
                obj.fault = Some(StorageFault::BitFlip);
                self.faults_injected += 1;
            }
        }
    }

    /// The last-good recovery lattice: returns the newest verifiable
    /// `(head epoch, base-first chain)` — the latest object whose
    /// container opens clean *and* whose parent links resolve, through
    /// strictly older verifiable objects, all the way to a base.
    /// Returns `None` when no stored object yields a usable chain
    /// (recovery then restarts from nothing and replays the journal).
    ///
    /// The chain borrows the stored bytes. While it looks for a
    /// parent, the walk reads each older object's commit-record epoch
    /// without verifying it ([`commit_epoch`]) and fully opens only an
    /// object whose record names the wanted epoch: a container that
    /// verifies has exactly that record, so the skipped objects could
    /// never have matched.
    pub fn recover(&self) -> Option<(u64, Vec<&[u8]>)> {
        'heads: for head_idx in (0..self.objects.len()).rev() {
            let head_bytes = self.objects.get(head_idx)?.bytes.as_slice();
            let Ok(head) = Container::open(head_bytes) else {
                continue;
            };
            let mut chain_rev = vec![head_bytes];
            let mut need = head.parent;
            let mut cursor = head_idx;
            while let Some(parent_epoch) = need {
                let mut found = false;
                for j in (0..cursor).rev() {
                    let Some(obj) = self.objects.get(j) else {
                        continue;
                    };
                    if commit_epoch(&obj.bytes) != Some(parent_epoch) {
                        continue;
                    }
                    let Ok(c) = Container::open(&obj.bytes) else {
                        continue;
                    };
                    if c.epoch == parent_epoch {
                        chain_rev.push(&obj.bytes);
                        need = c.parent;
                        cursor = j;
                        found = true;
                        break;
                    }
                }
                if !found {
                    // The head is intact but an ancestor is not: the
                    // whole chain is unusable — walk further back.
                    continue 'heads;
                }
            }
            chain_rev.reverse();
            return Some((head.epoch, chain_rev));
        }
        None
    }
}

/// Byte offsets at which each frame of `bytes` starts (the commit
/// frame included, the 8-byte header excluded). Parsing stops at the
/// first malformed frame — for the injector's purposes the boundaries
/// found so far are the usable cut points.
fn frame_starts(bytes: &[u8]) -> Vec<usize> {
    let mut starts = Vec::new();
    let mut r = Reader::new(bytes);
    let Ok(()) = snapshot::read_header(&mut r, snapshot::frame::CONTAINER_MAGIC, snapshot::frame::CONTAINER_VERSION) else {
        return starts;
    };
    while r.remaining() > 0 {
        starts.push(bytes.len() - r.remaining());
        let Ok(_kind) = r.u32() else { break };
        let Ok(n) = r.seq_len() else { break };
        if r.take(n).is_err() || r.u64().is_err() {
            break;
        }
    }
    starts
}

/// `(start, end)` byte extent of the commit frame, when the container
/// parses far enough to find one.
fn commit_extent(bytes: &[u8]) -> Option<(usize, usize)> {
    let mut r = Reader::new(bytes);
    snapshot::read_header(&mut r, snapshot::frame::CONTAINER_MAGIC, snapshot::frame::CONTAINER_VERSION).ok()?;
    while r.remaining() > 0 {
        let start = bytes.len() - r.remaining();
        let kind = r.u32().ok()?;
        let n = r.seq_len().ok()?;
        r.take(n).ok()?;
        r.u64().ok()?;
        if kind == COMMIT_KIND {
            return Some((start, bytes.len() - r.remaining()));
        }
    }
    None
}

/// The epoch field of the commit record, read without verifying any
/// CRC: the first `u64` of the commit frame's payload. `None` when the
/// container does not parse as far as a commit frame.
fn commit_epoch(bytes: &[u8]) -> Option<u64> {
    let (start, _) = commit_extent(bytes)?;
    let mut r = Reader::new(bytes.get(start..)?);
    r.u32().ok()?;
    r.seq_len().ok()?;
    r.u64().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use snapshot::frame::ContainerWriter;

    fn base(epoch: u64, payload: &[u8]) -> Vec<u8> {
        let mut cw = ContainerWriter::new();
        cw.frame(1, payload);
        cw.frame(2, b"second frame");
        cw.commit(epoch, None)
    }

    fn delta(epoch: u64, parent: u64, payload: &[u8]) -> Vec<u8> {
        let mut cw = ContainerWriter::new();
        cw.frame(1, payload);
        cw.commit(epoch, Some(parent))
    }

    #[test]
    fn reliable_store_recovers_newest_chain() {
        let mut s = CheckpointStore::new();
        s.put(base(1, b"b1"));
        s.put(delta(2, 1, b"d2"));
        s.put(delta(3, 2, b"d3"));
        let (epoch, chain) = s.recover().expect("chain");
        assert_eq!(epoch, 3);
        assert_eq!(chain.len(), 3);
        assert_eq!(Container::open(chain.first().unwrap()).unwrap().parent, None);
        assert_eq!(Container::open(chain.last().unwrap()).unwrap().epoch, 3);
    }

    #[test]
    fn torn_newest_falls_back_one_epoch() {
        let mut s = CheckpointStore::new();
        s.put(base(1, b"b1"));
        s.put(delta(2, 1, b"d2"));
        s.put(delta(3, 2, b"d3"));
        s.tear_newest();
        let (epoch, chain) = s.recover().expect("fallback chain");
        assert_eq!(epoch, 2);
        assert_eq!(chain.len(), 2);
    }

    #[test]
    fn corrupt_ancestor_invalidates_descendants() {
        let mut s = CheckpointStore::new();
        s.put(base(1, b"b1"));
        s.put(base(2, b"b2"));
        s.put(delta(3, 2, b"d3"));
        // Corrupt the *middle* object (epoch-2 base): the epoch-3
        // delta verifies on its own but its ancestry is gone, so
        // recovery must land on the older base.
        if let Some(obj) = s.objects.get_mut(1) {
            let mid = obj.bytes.len() / 2;
            if let Some(b) = obj.bytes.get_mut(mid) {
                *b ^= 0x40;
            }
        }
        let (epoch, chain) = s.recover().expect("older base survives");
        assert_eq!(epoch, 1);
        assert_eq!(chain.len(), 1);
    }

    #[test]
    fn all_objects_corrupt_recovers_none() {
        let mut s = CheckpointStore::with_faults(StorageFaultPlan::corrupt_at(9, 40));
        assert_eq!(s.put(base(1, b"b1")), Some(StorageFault::BitFlip));
        assert_eq!(s.put(delta(2, 1, b"d2")), Some(StorageFault::BitFlip));
        assert_eq!(s.faults_injected(), 2);
        assert!(s.recover().is_none());
    }

    #[test]
    fn fault_sequence_is_deterministic() {
        let run = || {
            let mut s = CheckpointStore::with_faults(StorageFaultPlan::uniform(77, 0.5));
            let mut tags = Vec::new();
            let mut parent = None;
            for epoch in 1..=20u64 {
                let mut cw = ContainerWriter::new();
                cw.frame(1, &epoch.to_le_bytes());
                tags.push(s.put(cw.commit(epoch, parent)));
                parent = Some(epoch);
            }
            (tags, s.recover().map(|(e, c)| (e, c.len())))
        };
        assert_eq!(run(), run());
        let (tags, _) = run();
        assert!(tags.iter().any(Option::is_some), "50% rate fired nothing");
    }

    #[test]
    fn stale_commit_is_rejected_by_verification() {
        let mut s = CheckpointStore::with_faults(StorageFaultPlan {
            seed: 5,
            torn_write: 0.0,
            truncate: 0.0,
            bit_flip: 0.0,
            stale_commit: 1.0,
            corrupt_at: None,
        });
        // First put degrades to torn (no earlier commit to splice).
        assert_eq!(s.put(base(1, b"b1")), Some(StorageFault::StaleCommit));
        assert!(s.recover().is_none());
        // Second put gets the first container's commit spliced on; the
        // body CRC catches the forgery.
        s.put(base(2, b"a very different second body"));
        assert!(
            Container::open(&s.objects.last().unwrap().bytes).is_err(),
            "stale commit must not verify"
        );
        assert!(s.recover().is_none());
    }

    /// The lattice walk without the commit-epoch pre-filter: every
    /// candidate parent is fully opened. The oracle that
    /// [`CheckpointStore::recover`] must agree with.
    fn recover_by_full_open(s: &CheckpointStore) -> Option<(u64, Vec<&[u8]>)> {
        'heads: for head_idx in (0..s.objects.len()).rev() {
            let head_bytes = s.objects[head_idx].bytes.as_slice();
            let Ok(head) = Container::open(head_bytes) else {
                continue;
            };
            let mut chain_rev = vec![head_bytes];
            let (mut need, mut cursor) = (head.parent, head_idx);
            while let Some(parent_epoch) = need {
                let found = (0..cursor).rev().find_map(|j| {
                    let c = Container::open(&s.objects[j].bytes).ok()?;
                    (c.epoch == parent_epoch).then_some((j, c.parent))
                });
                let Some((j, parent)) = found else {
                    continue 'heads;
                };
                chain_rev.push(&s.objects[j].bytes);
                (need, cursor) = (parent, j);
            }
            chain_rev.reverse();
            return Some((head.epoch, chain_rev));
        }
        None
    }

    #[test]
    fn recovery_matches_the_full_open_walk_under_seeded_faults() {
        for seed in 0..48u64 {
            for rate in [0.1, 0.3, 0.6] {
                let mut s = CheckpointStore::with_faults(StorageFaultPlan::uniform(seed, rate));
                for epoch in 1..=24u64 {
                    // Mostly well-formed chains, plus parents that name
                    // a missing or a far-back epoch.
                    let parent = match (epoch + seed) % 7 {
                        0 => None,
                        5 => Some(epoch / 2),
                        6 => Some(epoch + 100),
                        _ => epoch.checked_sub(1).filter(|&p| p > 0),
                    };
                    let mut cw = ContainerWriter::new();
                    cw.frame(1, &(epoch * seed).to_le_bytes());
                    cw.frame(2, &vec![epoch as u8; (epoch * 13 % 97) as usize]);
                    s.put(cw.commit(epoch, parent.filter(|&p| p != epoch)));
                    match (epoch + seed) % 11 {
                        3 => s.tear_newest(),
                        4 => s.corrupt_newest(epoch * seed),
                        _ => {}
                    }
                    assert_eq!(
                        s.recover(),
                        recover_by_full_open(&s),
                        "seed {seed} rate {rate} after epoch {epoch}"
                    );
                }
            }
        }
    }

    #[test]
    fn corrupt_newest_is_detected_and_survivable() {
        let mut s = CheckpointStore::new();
        s.put(base(1, b"b1"));
        s.put(delta(2, 1, b"d2"));
        s.corrupt_newest(64);
        assert!(Container::open(&s.objects.last().unwrap().bytes).is_err());
        let (epoch, _) = s.recover().expect("base survives");
        assert_eq!(epoch, 1);
    }
}
