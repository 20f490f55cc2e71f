//! Property tests pinning the fast memory metrics to the `smaps`
//! oracle.
//!
//! [`metrics::uss`] and [`metrics::rss`] no longer walk pages: RSS sums
//! maintained counters and USS popcounts resident words against the
//! page cache's shared-page bitmap. [`metrics::pss`] walks clean pages
//! without building a report. [`metrics::smaps`] still classifies every
//! page the long way, so it is the oracle here: under random
//! multi-process schedules (a library mapped into one to four
//! processes, read and write touches that break copy-on-write,
//! releases, swap-outs, `PROT_NONE` uncommits, unmaps and remaps,
//! kills, and `System` snapshot round trips), every pid's USS, RSS and
//! swap must equal the sums over its `smaps` entries, its PSS must
//! equal the entry sum bit for bit, and each file's shared-page bitmap
//! must equal `mapper_counts >= 2`.

use proptest::prelude::*;
use simos::mem::{MappingKind, Prot, PAGE_SIZE};
use simos::metrics::{self, SmapsEntry};
use simos::{FileId, Pid, System, VirtAddr};
use snapshot::{Reader, Snapshot, Writer};

/// Library sizes in pages: one spans four words with a partial last
/// word, one two words.
const LIB_PAGES: [u64; 2] = [200, 70];
const ANON_PAGES: u64 = 96;
const NPROC: usize = 4;

/// Which of a process's mappings an operation targets: the anonymous
/// one, or library 0 or 1.
const NMAPS: usize = 3;

#[derive(Debug, Clone, Copy)]
enum Range {
    Touch { write: bool },
    Release,
    SwapOut,
    ProtNone,
    ProtRw,
}

#[derive(Debug, Clone, Copy)]
enum Op {
    /// A range operation on `(proc, map)`; `first`/`count` are reduced
    /// modulo the mapping size when applied.
    Range {
        proc: usize,
        map: usize,
        first: u64,
        count: u64,
        what: Range,
    },
    /// Unmaps a mapping if present, maps and read-faults it in full if
    /// absent.
    Toggle {
        proc: usize,
        map: usize,
    },
    Kill {
        proc: usize,
    },
    /// Encodes the whole system and replaces it with the decoded copy.
    RoundTrip,
}

fn range_op_strategy() -> impl Strategy<Value = Op> {
    let what = prop_oneof![
        any::<bool>().prop_map(|write| Range::Touch { write }),
        Just(Range::Release),
        Just(Range::SwapOut),
        Just(Range::ProtNone),
        Just(Range::ProtRw),
    ];
    (0..NPROC, 0..NMAPS, 0..256u64, 1..=256u64, what).prop_map(|(proc, map, first, count, what)| {
        Op::Range {
            proc,
            map,
            first,
            count,
            what,
        }
    })
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Range operations listed twice: half of all draws.
    prop_oneof![
        range_op_strategy(),
        range_op_strategy(),
        (0..NPROC, 0..NMAPS).prop_map(|(proc, map)| Op::Toggle { proc, map }),
        (0..NPROC).prop_map(|proc| Op::Kill { proc }),
        Just(Op::RoundTrip),
    ]
}

struct World {
    sys: System,
    libs: [FileId; 2],
    pids: Vec<Pid>,
    /// Per process, the start of each mapping (`None` if unmapped).
    maps: Vec<[Option<VirtAddr>; NMAPS]>,
    alive: Vec<bool>,
}

impl World {
    /// Four processes, each with an anonymous mapping; library `i` is
    /// mapped writable and read-faulted in full by the processes whose
    /// bit is set in `sharers[i]`.
    fn new(sharers: [u8; 2]) -> World {
        let mut sys = System::new();
        let libs = [
            sys.register_file("liba.so", LIB_PAGES[0] * PAGE_SIZE),
            sys.register_file("libb.so", LIB_PAGES[1] * PAGE_SIZE),
        ];
        let pids: Vec<Pid> = (0..NPROC).map(|_| sys.spawn_process()).collect();
        let mut w = World {
            sys,
            libs,
            maps: vec![[None; NMAPS]; NPROC],
            alive: vec![true; NPROC],
            pids,
        };
        for proc in 0..NPROC {
            w.map(proc, 0);
            for (lib, mask) in sharers.iter().enumerate() {
                if mask >> proc & 1 == 1 {
                    w.map(proc, lib + 1);
                }
            }
        }
        w
    }

    fn map(&mut self, proc: usize, map: usize) {
        let pid = self.pids[proc];
        let addr = if map == 0 {
            self.sys
                .mmap(
                    pid,
                    ANON_PAGES * PAGE_SIZE,
                    MappingKind::Anonymous,
                    Prot::ReadWrite,
                )
                .unwrap()
        } else {
            let lib = self.libs[map - 1];
            let size = self.sys.files().size(lib);
            let addr = self
                .sys
                .mmap_named(
                    pid,
                    size,
                    MappingKind::PrivateFile(lib),
                    Prot::ReadWrite,
                    "lib",
                )
                .unwrap();
            self.sys.touch(pid, addr, size, false).unwrap();
            addr
        };
        self.maps[proc][map] = Some(addr);
    }

    fn apply(&mut self, op: Op) {
        match op {
            Op::Range {
                proc,
                map,
                first,
                count,
                what,
            } => {
                let Some(addr) = self.maps[proc][map].filter(|_| self.alive[proc]) else {
                    return;
                };
                let npages = if map == 0 {
                    ANON_PAGES
                } else {
                    LIB_PAGES[map - 1]
                };
                let first = first % npages;
                let count = 1 + (count - 1) % (npages - first);
                let (pid, at, len) = (
                    self.pids[proc],
                    addr.offset(first * PAGE_SIZE),
                    count * PAGE_SIZE,
                );
                match what {
                    // A touch may legitimately fail on a PROT_NONE page.
                    Range::Touch { write } => {
                        let _ = self.sys.touch(pid, at, len, write);
                    }
                    Range::Release => {
                        self.sys.release(pid, at, len).unwrap();
                    }
                    Range::SwapOut => {
                        self.sys.swap_out(pid, at, len).unwrap();
                    }
                    Range::ProtNone => {
                        self.sys.mprotect(pid, at, len, Prot::None).unwrap();
                    }
                    Range::ProtRw => {
                        self.sys.mprotect(pid, at, len, Prot::ReadWrite).unwrap();
                    }
                }
            }
            Op::Toggle { proc, map } => {
                if !self.alive[proc] {
                    return;
                }
                match self.maps[proc][map].take() {
                    Some(addr) => {
                        self.sys.munmap(self.pids[proc], addr).unwrap();
                    }
                    None => self.map(proc, map),
                }
            }
            Op::Kill { proc } => {
                if std::mem::replace(&mut self.alive[proc], false) {
                    self.sys.kill_process(self.pids[proc]).unwrap();
                }
            }
            Op::RoundTrip => {
                let mut w = Writer::new();
                self.sys.snap(&mut w);
                let bytes = w.into_bytes();
                let mut r = Reader::new(&bytes);
                self.sys = System::restore(&mut r).unwrap();
                r.finish().unwrap();
                let mut again = Writer::new();
                self.sys.snap(&mut again);
                assert_eq!(again.into_bytes(), bytes, "restore changed the encoding");
            }
        }
    }

    /// Every metric against the `smaps` oracle, for live and killed
    /// pids alike, and every shared-page bitmap against its counts.
    fn check(&self) -> Result<(), TestCaseError> {
        let sys = &self.sys;
        for &pid in &self.pids {
            let entries = metrics::smaps(sys, pid);
            let sum = |f: fn(&SmapsEntry) -> u64| entries.iter().map(f).sum::<u64>();
            prop_assert_eq!(
                metrics::uss(sys, pid),
                sum(SmapsEntry::uss),
                "USS of {:?}",
                pid
            );
            prop_assert_eq!(metrics::rss(sys, pid), sum(|e| e.rss), "RSS of {:?}", pid);
            prop_assert_eq!(
                metrics::swap_bytes(sys, pid),
                sum(|e| e.swap),
                "swap of {:?}",
                pid
            );
            let oracle: f64 = entries.iter().map(|e| e.pss).sum();
            prop_assert_eq!(
                metrics::pss(sys, pid).to_bits(),
                oracle.to_bits(),
                "PSS of {:?}: {} vs {}",
                pid,
                metrics::pss(sys, pid),
                oracle
            );
        }
        for lib in self.libs {
            let counts = sys.files().mapper_counts(lib);
            let words = sys.files().shared_words(lib);
            prop_assert_eq!(words.len(), counts.len().div_ceil(64));
            for (w, &word) in words.iter().enumerate() {
                let want = counts
                    .iter()
                    .enumerate()
                    .skip(w * 64)
                    .take(64)
                    .filter(|(_, &n)| n >= 2)
                    .fold(0u64, |acc, (page, _)| acc | 1 << (page % 64));
                prop_assert_eq!(
                    word,
                    want,
                    "shared word {} of {:?}, counts {:?}",
                    w,
                    lib,
                    counts
                );
            }
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// USS, RSS, swap and PSS bits equal the `smaps` sums, and every
    /// shared-page bitmap equals its counts, after every operation.
    #[test]
    fn fast_metrics_match_smaps_oracle(
        sharers in (1..16u8, 1..16u8),
        ops in prop::collection::vec(op_strategy(), 1..80),
    ) {
        let mut world = World::new([sharers.0, sharers.1]);
        world.check()?;
        for op in &ops {
            world.apply(*op);
            world.check()?;
        }
    }
}
