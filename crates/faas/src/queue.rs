//! The simulator's event queue: a binary min-heap keyed on
//! `(SimTime, seq)`.
//!
//! Events pop in time order and, within one timestamp, in the order
//! they were scheduled: the platform hands out strictly increasing
//! `seq` values, so `(time, seq)` is a total order with unique keys
//! and the pop sequence is fully determined by the schedule. The
//! heap's internal layout never shows: checkpoints write the queue
//! through [`EventQueue::sorted_entries`] in canonical `(time, seq)`
//! order, and restores rebuild it through the validating
//! [`EventQueue::from_sorted`].
//!
//! A heap is enough: handling one replay event costs tens of
//! microseconds of host time, one queue operation a fraction of one,
//! so a faster queue (a calendar queue measured 3x the heap in
//! isolation) does not make the replay faster.

use simos::SimTime;

/// One queued entry.
#[derive(Debug, Clone)]
struct Entry<T> {
    at: SimTime,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: the std heap is a max-heap, the queue pops the
        // minimum `(time, seq)`.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// The platform's event queue: min-first on `(time, seq)`, FIFO within
/// equal timestamps (callers supply strictly increasing `seq` values).
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    // tidy:allow(hot-containers) -- the one sanctioned heap: every sim-state event is scheduled through this type
    heap: std::collections::BinaryHeap<Entry<T>>,
}

impl<T> Default for EventQueue<T> {
    fn default() -> EventQueue<T> {
        EventQueue::new()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> EventQueue<T> {
        EventQueue { heap: Default::default() }
    }

    /// Rebuilds a queue from entries in canonical `(time, seq)` order —
    /// the checkpoint restore path. Rejects out-of-order or duplicate
    /// keys so a corrupt snapshot cannot smuggle in an impossible
    /// schedule.
    pub fn from_sorted(items: Vec<(SimTime, u64, T)>) -> Result<EventQueue<T>, &'static str> {
        let mut entries = Vec::with_capacity(items.len());
        let mut prev: Option<(SimTime, u64)> = None;
        for (at, seq, payload) in items {
            if prev.is_some_and(|p| p >= (at, seq)) {
                return Err("event queue entries not in strict (time, seq) order");
            }
            prev = Some((at, seq));
            entries.push(Entry { at, seq, payload });
        }
        Ok(EventQueue { heap: entries.into() })
    }

    /// Number of queued items.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Queues `payload` at `(at, seq)`.
    #[inline]
    pub fn push(&mut self, at: SimTime, seq: u64, payload: T) {
        self.heap.push(Entry { at, seq, payload });
    }

    /// Key of the next item to pop.
    #[inline]
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        self.heap.peek().map(|e| (e.at, e.seq))
    }

    /// Removes and returns the minimum-`(time, seq)` item.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        self.heap.pop().map(|e| (e.at, e.seq, e.payload))
    }

    /// Visits every queued entry in arbitrary (heap) order.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, u64, &T)> {
        self.heap.iter().map(|e| (e.at, e.seq, &e.payload))
    }

    /// Every queued entry in canonical `(time, seq)` order — the
    /// checkpoint serialization order.
    pub fn sorted_entries(&self) -> Vec<(SimTime, u64, &T)> {
        let mut entries: Vec<(SimTime, u64, &T)> = self.iter().collect();
        // Keys are unique, so the unstable sort is deterministic.
        entries.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn pops_in_time_seq_order() {
        let mut q = EventQueue::new();
        let mut seed = 7u64;
        let mut keys = Vec::new();
        for seq in 0..5_000u64 {
            let at = SimTime(splitmix(&mut seed) % 50_000_000_000);
            keys.push((at, seq));
            q.push(at, seq, seq);
        }
        keys.sort();
        let sorted: Vec<(SimTime, u64)> =
            q.sorted_entries().into_iter().map(|(at, seq, _)| (at, seq)).collect();
        assert_eq!(sorted, keys, "sorted_entries is the pop order");
        for &(at, seq) in &keys {
            assert_eq!(q.peek_key(), Some((at, seq)));
            let (pat, pseq, payload) = q.pop().expect("item");
            assert_eq!((pat, pseq, payload), (at, seq, seq));
        }
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn duplicate_timestamps_are_fifo_by_seq() {
        let mut q = EventQueue::new();
        let t = SimTime(123_456_789);
        for seq in 0..100u64 {
            q.push(t, seq, seq);
        }
        for want in 0..100u64 {
            assert_eq!(q.pop().map(|(_, s, _)| s), Some(want));
        }
    }

    #[test]
    fn from_sorted_rejects_disorder_and_duplicates() {
        let ok = vec![(SimTime(1), 1, ()), (SimTime(1), 2, ()), (SimTime(9), 3, ())];
        let mut q = EventQueue::from_sorted(ok).expect("strictly ordered");
        assert_eq!(q.pop().map(|(at, seq, ())| (at, seq)), Some((SimTime(1), 1)));
        let unsorted = vec![(SimTime(9), 1, ()), (SimTime(1), 2, ())];
        assert!(EventQueue::from_sorted(unsorted).is_err());
        let dup = vec![(SimTime(1), 1, ()), (SimTime(1), 1, ())];
        assert!(EventQueue::from_sorted(dup).is_err());
    }
}
