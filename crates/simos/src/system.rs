//! The machine: all processes plus the shared file page cache.
//!
//! [`System`] is the single owner of every [`AddressSpace`] and of the
//! [`FileRegistry`]. All memory operations go through it so that
//! cross-process sharing (the page cache backing `MAP_PRIVATE` library
//! mappings) stays consistent — that sharing is what distinguishes USS
//! from PSS in the paper's measurements (§3.1, Figure 8).

use std::collections::{BTreeMap, BTreeSet};

use crate::error::{SimOsError, SimOsResult};
use crate::mem::pagebits::PageBits;
use crate::mem::{AddressSpace, Mapping, MappingKind, Prot, TouchOutcome, VirtAddr, PAGE_SIZE};

/// A process identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pid(pub u32);

/// A file identifier in the [`FileRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileId(pub u32);

/// One registered file (a shared library or runtime image).
#[derive(Debug, Clone)]
struct FileInfo {
    name: String,
    /// Per-page count of processes holding the page through the page
    /// cache (clean `MAP_PRIVATE` mappings).
    mapper_counts: Vec<u32>,
    /// Pages whose mapper count is two or more. Derived from
    /// `mapper_counts` (kept in step by `inc_mapper`/`dec_mapper`,
    /// rebuilt on restore), so it stays out of the snapshot bytes.
    shared: PageBits,
}

/// The shared-page bitmap implied by per-page mapper counts.
fn shared_bits(mapper_counts: &[u32]) -> PageBits {
    let mut shared = PageBits::new(mapper_counts.len());
    for (page, &n) in mapper_counts.iter().enumerate() {
        if n >= 2 {
            shared.set(page);
        }
    }
    shared
}

/// The global file registry and page cache.
///
/// Tracks, for every page of every registered file, how many processes
/// currently map it clean. A count of one means the page is *private*
/// to its process in `smaps` terms (and thus part of its USS); two or
/// more means it is *shared*. Next to the counts, each file keeps a
/// shared-page bitmap (bit set iff the count is ≥ 2), so USS is a
/// popcount over `resident & (dirty | !shared)` words: a mapping's
/// page `i` is file page `i`, so its bitmap words line up with the
/// file's. Only PSS still reads the counts themselves.
#[derive(Debug, Clone, Default)]
pub struct FileRegistry {
    files: Vec<FileInfo>,
}

impl FileRegistry {
    /// Creates an empty registry.
    pub fn new() -> FileRegistry {
        FileRegistry::default()
    }

    /// Registers a file of `size` bytes (rounded up to pages) and
    /// returns its id.
    pub fn register(&mut self, name: &str, size: u64) -> FileId {
        let npages = size.div_ceil(PAGE_SIZE) as usize;
        self.files.push(FileInfo {
            name: name.to_string(),
            mapper_counts: vec![0; npages],
            shared: PageBits::new(npages),
        });
        FileId(self.files.len() as u32 - 1)
    }

    /// The registered name of `file`.
    ///
    /// # Panics
    ///
    /// Panics if `file` was not produced by this registry.
    pub fn name(&self, file: FileId) -> &str {
        &self.files[file.0 as usize].name // tidy:allow(panic-reachability) -- file ids and page indices are validated when the mapping is created
    }

    /// Size of `file` in bytes.
    pub fn size(&self, file: FileId) -> u64 {
        self.files[file.0 as usize].mapper_counts.len() as u64 * PAGE_SIZE // tidy:allow(panic-reachability) -- file ids and page indices are validated when the mapping is created
    }

    /// How many processes map page `page` of `file` clean.
    pub fn mapper_count(&self, file: FileId, page: usize) -> u32 {
        self.files[file.0 as usize].mapper_counts[page] // tidy:allow(panic-reachability) -- file ids and page indices are validated when the mapping is created
    }

    /// Per-page mapper counts of `file` (empty for an unknown id).
    pub fn mapper_counts(&self, file: FileId) -> &[u32] {
        self.files
            .get(file.0 as usize)
            .map_or(&[], |f| f.mapper_counts.as_slice())
    }

    /// The shared-page words of `file`: bit `i` is set iff page `i`
    /// has two or more clean mappers (empty for an unknown id).
    pub fn shared_words(&self, file: FileId) -> &[u64] {
        self.files
            .get(file.0 as usize)
            .map_or(&[], |f| f.shared.words())
    }

    /// Records one more clean mapper of a file page.
    pub(crate) fn inc_mapper(&mut self, file: FileId, page: usize) {
        let f = &mut self.files[file.0 as usize]; // tidy:allow(panic-reachability) -- file ids and page indices are validated when the mapping is created
        let c = &mut f.mapper_counts[page]; // tidy:allow(panic-reachability) -- file ids and page indices are validated when the mapping is created
        *c += 1;
        if *c == 2 {
            f.shared.set(page);
        }
    }

    /// Records one fewer clean mapper of a file page.
    pub(crate) fn dec_mapper(&mut self, file: FileId, page: usize) {
        let f = &mut self.files[file.0 as usize]; // tidy:allow(panic-reachability) -- file ids and page indices are validated when the mapping is created
        let c = &mut f.mapper_counts[page]; // tidy:allow(panic-reachability) -- file ids and page indices are validated when the mapping is created
        debug_assert!(*c > 0, "mapper count underflow");
        *c = c.saturating_sub(1);
        if *c == 1 {
            f.shared.clear(page);
        }
    }

    /// Re-derives the shared-page bitmap of `file` from its mapper
    /// counts. Debug builds run this after every operation on a
    /// file-backed mapping; release builds skip it.
    pub(crate) fn verify_shared(&self, file: FileId) {
        if !cfg!(debug_assertions) {
            return;
        }
        if let Some(f) = self.files.get(file.0 as usize) {
            assert_eq!(
                f.shared,
                shared_bits(&f.mapper_counts),
                "shared-page bitmap drift in `{}`",
                f.name
            );
        }
    }
}

/// The whole simulated machine.
#[derive(Debug, Clone, Default)]
pub struct System {
    files: FileRegistry,
    spaces: BTreeMap<Pid, AddressSpace>,
    next_pid: u32,
    /// Pids killed since the last checkpoint epoch, so a delta can
    /// erase them before upserting dirty spaces. Tracking state: never
    /// part of the canonical snapshot encoding.
    removed_pids: BTreeSet<Pid>,
}

impl System {
    /// Creates an empty system.
    pub fn new() -> System {
        System::default()
    }

    /// Creates a new process with an empty address space.
    pub fn spawn_process(&mut self) -> Pid {
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        self.spaces.insert(pid, AddressSpace::new());
        pid
    }

    /// Destroys a process, dropping all its mappings (and page-cache
    /// references).
    pub fn kill_process(&mut self, pid: Pid) -> SimOsResult<()> {
        let space = self
            .spaces
            .remove(&pid)
            .ok_or(SimOsError::NoSuchProcess(pid))?;
        self.removed_pids.insert(pid);
        // Walk the mappings to release clean file pages from the cache;
        // the candidate pages come straight off the packed bitmaps.
        for m in space.mappings() {
            if let MappingKind::PrivateFile(file) = m.kind {
                m.for_each_clean_resident_page(|idx| self.files.dec_mapper(file, idx));
                self.files.verify_shared(file);
            }
        }
        Ok(())
    }

    /// Registers a file (shared library / runtime image).
    pub fn register_file(&mut self, name: &str, size: u64) -> FileId {
        self.files.register(name, size)
    }

    /// Immutable access to the file registry.
    pub fn files(&self) -> &FileRegistry {
        &self.files
    }

    /// Immutable access to a process's address space.
    pub fn space(&self, pid: Pid) -> SimOsResult<&AddressSpace> {
        self.spaces.get(&pid).ok_or(SimOsError::NoSuchProcess(pid))
    }

    fn space_and_files(
        &mut self,
        pid: Pid,
    ) -> SimOsResult<(&mut AddressSpace, &mut FileRegistry)> {
        let space = self
            .spaces
            .get_mut(&pid)
            .ok_or(SimOsError::NoSuchProcess(pid))?;
        Ok((space, &mut self.files))
    }

    /// Number of live processes.
    pub fn process_count(&self) -> usize {
        self.spaces.len()
    }

    /// All live pids, in creation order (pids are never reused).
    pub fn pids(&self) -> impl Iterator<Item = Pid> + '_ {
        self.spaces.keys().copied()
    }

    /// `mmap` in process `pid`.
    pub fn mmap(
        &mut self,
        pid: Pid,
        len: u64,
        kind: MappingKind,
        prot: Prot,
    ) -> SimOsResult<VirtAddr> {
        self.mmap_named(pid, len, kind, prot, "[anon]")
    }

    /// `mmap` with an explicit `smaps` name.
    pub fn mmap_named(
        &mut self,
        pid: Pid,
        len: u64,
        kind: MappingKind,
        prot: Prot,
        name: &str,
    ) -> SimOsResult<VirtAddr> {
        let (space, _files) = self.space_and_files(pid)?;
        space.mmap(len, kind, prot, name)
    }

    /// Maps a registered file into `pid` (at its full size) and faults
    /// in all of it read-only, as the dynamic loader effectively does
    /// for a hot library.
    pub fn map_library(&mut self, pid: Pid, file: FileId) -> SimOsResult<VirtAddr> {
        let size = self.files.size(file);
        let name = self.files.name(file).to_string();
        let (space, files) = self.space_and_files(pid)?;
        let addr = space.mmap(size, MappingKind::PrivateFile(file), Prot::Read, &name)?;
        space.touch(files, addr, size, false)?;
        Ok(addr)
    }

    /// `munmap` of the whole mapping starting at `addr`.
    pub fn munmap(&mut self, pid: Pid, addr: VirtAddr) -> SimOsResult<Mapping> {
        let (space, files) = self.space_and_files(pid)?;
        space.munmap(files, addr)
    }

    /// `mprotect` of a range; `Prot::None` uncommits (frees pages).
    pub fn mprotect(
        &mut self,
        pid: Pid,
        addr: VirtAddr,
        len: u64,
        prot: Prot,
    ) -> SimOsResult<u64> {
        let (space, files) = self.space_and_files(pid)?;
        space.mprotect(files, addr, len, prot)
    }

    /// Touches a range, faulting pages in.
    pub fn touch(
        &mut self,
        pid: Pid,
        addr: VirtAddr,
        len: u64,
        write: bool,
    ) -> SimOsResult<TouchOutcome> {
        let (space, files) = self.space_and_files(pid)?;
        space.touch(files, addr, len, write)
    }

    /// Releases the physical pages of a range (`madvise(DONTNEED)`).
    pub fn release(&mut self, pid: Pid, addr: VirtAddr, len: u64) -> SimOsResult<u64> {
        let (space, files) = self.space_and_files(pid)?;
        space.release(files, addr, len)
    }

    /// Swaps out the resident pages of a range.
    pub fn swap_out(&mut self, pid: Pid, addr: VirtAddr, len: u64) -> SimOsResult<u64> {
        let (space, files) = self.space_and_files(pid)?;
        space.swap_out(files, addr, len)
    }

    /// Resident bytes of the whole process (RSS numerator).
    pub fn resident_bytes(&self, pid: Pid) -> SimOsResult<u64> {
        Ok(self.space(pid)?.resident_bytes())
    }

    /// Resident bytes in `[addr, addr + len)` of `pid` — the `pmap`
    /// probe Desiccant uses to size HotSpot heaps (§4.5.2).
    pub fn pmap(&self, pid: Pid, addr: VirtAddr, len: u64) -> SimOsResult<u64> {
        self.space(pid)?.resident_bytes_in(addr, len)
    }

    /// First pid [`System::spawn_process`] has not yet handed out.
    /// Exposed for the delta-checkpoint encoder's control section.
    pub fn next_pid(&self) -> u32 {
        self.next_pid
    }

    /// Address spaces with any change since the last checkpoint epoch,
    /// in pid order — the delta-checkpoint upsert set.
    pub fn epoch_dirty_spaces(&self) -> impl Iterator<Item = (Pid, &AddressSpace)> {
        self.spaces
            .iter()
            .filter(|(_, s)| s.is_epoch_dirty())
            .map(|(pid, s)| (*pid, s))
    }

    /// Pids killed since the last checkpoint epoch — the
    /// delta-checkpoint erase set.
    pub fn removed_pids(&self) -> &BTreeSet<Pid> {
        &self.removed_pids
    }

    /// Marks every space clean and forgets the removed-pid set: called
    /// when a checkpoint (full or delta) captures the system.
    pub fn clear_epoch_dirty(&mut self) {
        self.removed_pids.clear();
        for space in self.spaces.values_mut() {
            space.clear_epoch_dirty();
        }
    }

    /// RSS of `pid` in bytes. See [`crate::metrics`] for definitions.
    pub fn rss(&self, pid: Pid) -> u64 {
        crate::metrics::rss(self, pid)
    }

    /// USS of `pid` in bytes.
    pub fn uss(&self, pid: Pid) -> u64 {
        crate::metrics::uss(self, pid)
    }

    /// PSS of `pid` in bytes.
    pub fn pss(&self, pid: Pid) -> f64 {
        crate::metrics::pss(self, pid)
    }
}

/// Checkpoint codec impls, kept here so exhaustive destructuring sees
/// every private field.
mod snap_impls {
    use super::*;
    use snapshot::{Reader, SnapError, Snapshot, Writer};

    impl Snapshot for Pid {
        fn snap(&self, w: &mut Writer) {
            let Self(raw) = self;
            w.u32(*raw);
        }

        fn restore(r: &mut Reader<'_>) -> Result<Pid, SnapError> {
            Ok(Pid(r.u32()?))
        }
    }

    impl Snapshot for FileId {
        fn snap(&self, w: &mut Writer) {
            let Self(raw) = self;
            w.u32(*raw);
        }

        fn restore(r: &mut Reader<'_>) -> Result<FileId, SnapError> {
            Ok(FileId(r.u32()?))
        }
    }

    impl Snapshot for FileInfo {
        fn snap(&self, w: &mut Writer) {
            // `shared` is derived from `mapper_counts`: it stays out of
            // the canonical bytes (and so out of the platform's delta
            // fold) and is rebuilt on restore.
            let Self {
                name,
                mapper_counts,
                shared: _,
            } = self;
            w.str(name);
            mapper_counts.snap(w);
        }

        fn restore(r: &mut Reader<'_>) -> Result<FileInfo, SnapError> {
            let name = r.str()?;
            let mapper_counts = Vec::<u32>::restore(r)?;
            let shared = shared_bits(&mapper_counts);
            Ok(FileInfo {
                name,
                mapper_counts,
                shared,
            })
        }
    }

    impl Snapshot for FileRegistry {
        fn snap(&self, w: &mut Writer) {
            let Self { files } = self;
            files.snap(w);
        }

        fn restore(r: &mut Reader<'_>) -> Result<FileRegistry, SnapError> {
            Ok(FileRegistry {
                files: Vec::<FileInfo>::restore(r)?,
            })
        }
    }

    impl Snapshot for System {
        fn snap(&self, w: &mut Writer) {
            // `removed_pids` is checkpoint tracking, excluded from the
            // canonical bytes (see the Mapping impl in `mem`). NOTE:
            // the platform's delta-checkpoint fold re-synthesizes this
            // exact layout (files, spaces map, next_pid) from
            // per-space blobs; change the order here and the fold in
            // `faas::platform` in lockstep.
            let Self {
                files,
                spaces,
                next_pid,
                removed_pids: _,
            } = self;
            files.snap(w);
            spaces.snap(w);
            w.u32(*next_pid);
        }

        fn restore(r: &mut Reader<'_>) -> Result<System, SnapError> {
            let files = FileRegistry::restore(r)?;
            let spaces = BTreeMap::<Pid, AddressSpace>::restore(r)?;
            let next_pid = r.u32()?;
            if spaces.keys().any(|pid| pid.0 >= next_pid) {
                return Err(SnapError::Corrupt("System pid at or past next_pid"));
            }
            Ok(System {
                files,
                spaces,
                next_pid,
                removed_pids: BTreeSet::new(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawn_and_kill_round_trip() {
        let mut sys = System::new();
        let pid = sys.spawn_process();
        assert_eq!(sys.process_count(), 1);
        sys.kill_process(pid).unwrap();
        assert_eq!(sys.process_count(), 0);
        assert!(matches!(
            sys.kill_process(pid),
            Err(SimOsError::NoSuchProcess(_))
        ));
    }

    #[test]
    fn kill_releases_page_cache_refs() {
        let mut sys = System::new();
        let lib = sys.register_file("libjvm.so", 4 * PAGE_SIZE);
        let p1 = sys.spawn_process();
        let p2 = sys.spawn_process();
        sys.map_library(p1, lib).unwrap();
        sys.map_library(p2, lib).unwrap();
        assert_eq!(sys.files().mapper_count(lib, 0), 2);
        sys.kill_process(p1).unwrap();
        assert_eq!(sys.files().mapper_count(lib, 0), 1);
    }

    #[test]
    fn shared_bits_follow_the_second_mapper() {
        let mut sys = System::new();
        let lib = sys.register_file("libjvm.so", 4 * PAGE_SIZE);
        let p1 = sys.spawn_process();
        let p2 = sys.spawn_process();
        sys.map_library(p1, lib).unwrap();
        assert_eq!(sys.files().shared_words(lib), &[0]);
        let a2 = sys.map_library(p2, lib).unwrap();
        assert_eq!(sys.files().shared_words(lib), &[0b1111]);
        // A CoW write takes page 1 out of the page cache.
        sys.touch(p2, a2.offset(PAGE_SIZE), PAGE_SIZE, true)
            .unwrap();
        assert_eq!(sys.files().shared_words(lib), &[0b1101]);
        sys.kill_process(p1).unwrap();
        assert_eq!(sys.files().shared_words(lib), &[0]);
    }

    #[test]
    fn pmap_reports_range_residency() {
        let mut sys = System::new();
        let pid = sys.spawn_process();
        let a = sys
            .mmap(pid, 16 * PAGE_SIZE, MappingKind::Anonymous, Prot::ReadWrite)
            .unwrap();
        sys.touch(pid, a, 4 * PAGE_SIZE, true).unwrap();
        assert_eq!(sys.pmap(pid, a, 16 * PAGE_SIZE).unwrap(), 4 * PAGE_SIZE);
    }

    #[test]
    fn a_clean_cut_leaves_only_the_touched_mapping_dirty() {
        let mut sys = System::new();
        let lib = sys.register_file("libjvm.so", 8 * PAGE_SIZE);
        let p1 = sys.spawn_process();
        let p2 = sys.spawn_process();
        let heap = sys
            .mmap(p1, 256 * PAGE_SIZE, MappingKind::Anonymous, Prot::ReadWrite)
            .unwrap();
        let stack = sys
            .mmap(p1, 16 * PAGE_SIZE, MappingKind::Anonymous, Prot::ReadWrite)
            .unwrap();
        sys.touch(p1, heap, 100 * PAGE_SIZE, true).unwrap();
        sys.map_library(p2, lib).unwrap();
        assert_eq!(sys.epoch_dirty_spaces().count(), 2, "new spaces start dirty");

        // A cut with no mutation after it: nothing is dirty.
        sys.clear_epoch_dirty();
        assert_eq!(sys.epoch_dirty_spaces().count(), 0);
        sys.clear_epoch_dirty();
        assert_eq!(sys.epoch_dirty_spaces().count(), 0);

        // One touched page dirties exactly its mapping.
        sys.touch(p1, stack.offset(3 * PAGE_SIZE), PAGE_SIZE, false).unwrap();
        let dirty: Vec<(Pid, &AddressSpace)> = sys.epoch_dirty_spaces().collect();
        assert_eq!(dirty.len(), 1);
        let (pid, space) = dirty.first().unwrap();
        assert_eq!(*pid, p1);
        let mappings: Vec<(&u64, &Mapping)> = space.epoch_dirty_mappings().collect();
        assert_eq!(mappings.len(), 1);
        let (start, m) = mappings.first().unwrap();
        assert_eq!(**start, stack.0);
        assert_eq!(m.epoch_dirty_pages(), 1);

        // The next cut cleans it again.
        sys.clear_epoch_dirty();
        assert_eq!(sys.epoch_dirty_spaces().count(), 0);
    }

    #[test]
    fn operations_on_dead_process_fail() {
        let mut sys = System::new();
        let pid = sys.spawn_process();
        sys.kill_process(pid).unwrap();
        assert!(sys
            .mmap(pid, PAGE_SIZE, MappingKind::Anonymous, Prot::ReadWrite)
            .is_err());
        assert!(sys.resident_bytes(pid).is_err());
    }
}
