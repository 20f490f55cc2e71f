//! CRC64-framed checkpoint containers.
//!
//! The flat codec in the crate root assumes its input is pristine; this
//! module is the durability layer above it. A *container* is a
//! `(magic, version)` header followed by a sequence of *frames*, each
//!
//! ```text
//! kind: u32 | payload_len: u64 | payload | crc64(kind, len, payload)
//! ```
//!
//! and terminated by a *commit frame* written last, whose payload holds
//! the checkpoint epoch, the parent epoch (for deltas), the frame
//! count, and a *body CRC*. The body CRC is a CRC64 over the sequence
//! of per-frame checksums, **not** over the raw frame bytes: a CRC of
//! data that embeds its own CRC collapses to the algorithm's residue
//! constant (`crc(m ++ crc(m))` is the same for every `m`), which
//! would let a stale commit record validate against any body with the
//! same frame count. Hashing the checksum chain binds each frame's
//! content transitively without that degeneracy. A container is valid
//! **iff** its commit frame verifies: a torn write loses the commit, a
//! truncation loses bytes a frame CRC covers, a bit flip breaks a
//! frame CRC, and a stale commit record (an old commit spliced after
//! new frames) disagrees with the body CRC. [`Container::open`] turns
//! every such corruption into a typed [`SnapError`] — it never panics,
//! whatever the bytes.
//!
//! The CRC is CRC-64/XZ (reflected ECMA-182 polynomial), computed by
//! a slice-by-16 kernel: sixteen 256-entry tables, built at compile
//! time, where table `k` advances a byte `k` positions further through
//! the CRC register. Each step folds 16 input bytes with 16
//! independent table lookups, so the loop runs on load bandwidth rather
//! than on the bytewise kernel's one-lookup-per-byte dependency chain;
//! the last `len % 16` bytes go through table 0 a byte at a time. The
//! crate is `#![forbid(unsafe_code)]`, which rules out carry-less
//! multiply (PCLMULQDQ) folding — it needs `unsafe` intrinsics — so the
//! kernel stays table-driven. Every table lookup goes through one
//! `u8`-indexed helper, so no index can leave its table.
//!
//! A [`ContainerWriter`] keeps the whole container in one buffer that
//! starts with the header: [`ContainerWriter::frame_with`] lets the
//! caller encode a payload directly behind its frame head, patches the
//! length in, and CRCs the frame where it sits, so a frame costs one
//! encode pass and one CRC pass and is never copied. [`Container::open`]
//! verifies without copying either: its frames borrow their payloads
//! from the input.

use crate::{read_header, write_header, Reader, SnapError, Snapshot, Writer};

/// Container header magic: `"FRAM"`.
pub const CONTAINER_MAGIC: u32 = 0x4652_414D;

/// Container format version.
pub const CONTAINER_VERSION: u32 = 1;

/// Frame kind reserved for the commit record. Callers choose their own
/// kinds below this value.
pub const COMMIT_KIND: u32 = 0xFFFF_FFFF;

/// Reflected ECMA-182 polynomial (CRC-64/XZ).
const CRC64_POLY: u64 = 0xC96C_5795_D787_0F42;

/// Slice-by-16 tables. Table 0 is the classic bytewise table (the CRC
/// of one byte); table `k` is table `k - 1` pushed through eight more
/// zero bits, i.e. the contribution of a byte that still has `k` bytes
/// after it in the 16-byte block.
static CRC64_TABLES: [[u64; 256]; 16] = {
    let mut tables = [[0u64; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 { (crc >> 1) ^ CRC64_POLY } else { crc >> 1 };
            bit += 1;
        }
        // tidy:allow(unchecked-index) -- const-eval table build: an out-of-range index is a compile error, and i < 256 by the loop bound
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            // tidy:allow(unchecked-index) -- const-eval table build: k < 16 and i < 256 by the loop bounds
            let prev = tables[k - 1][i];
            // tidy:allow(unchecked-index) -- const-eval table build: the masked byte indexes a 256-entry table
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Entry `b` of a 256-entry CRC table.
#[inline(always)]
fn at(table: &[u64; 256], b: u8) -> u64 {
    // tidy:allow(unchecked-index, panic-reachability) -- a u8 index cannot leave a 256-entry table
    table[usize::from(b)]
}

/// CRC-64/XZ of `bytes`. Also used for the per-record journal
/// checksums in the resumable-replay write-ahead log.
pub fn crc64(bytes: &[u8]) -> u64 {
    let [t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13, t14, t15] = &CRC64_TABLES;
    let (blocks, tail) = bytes.as_chunks::<16>();
    let mut crc = !0u64;
    for &[b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15] in blocks {
        let [c0, c1, c2, c3, c4, c5, c6, c7] =
            (crc ^ u64::from_le_bytes([b0, b1, b2, b3, b4, b5, b6, b7])).to_le_bytes();
        crc = at(t15, c0)
            ^ at(t14, c1)
            ^ at(t13, c2)
            ^ at(t12, c3)
            ^ at(t11, c4)
            ^ at(t10, c5)
            ^ at(t9, c6)
            ^ at(t8, c7)
            ^ at(t7, b8)
            ^ at(t6, b9)
            ^ at(t5, b10)
            ^ at(t4, b11)
            ^ at(t3, b12)
            ^ at(t2, b13)
            ^ at(t1, b14)
            ^ at(t0, b15);
    }
    for &b in tail {
        let [lo, ..] = crc.to_le_bytes();
        crc = at(t0, lo ^ b) ^ (crc >> 8);
    }
    !crc
}

/// Builds a container frame by frame; [`ContainerWriter::commit`]
/// seals it. Frames are opaque payloads to this layer — the platform
/// decides what a `SLOT` or `PROC` frame means.
#[derive(Debug)]
pub struct ContainerWriter {
    /// The container so far: header, then every finished frame.
    out: Writer,
    /// Little-endian bytes of every frame's CRC, in order — the input
    /// to the commit record's body CRC (see the module docs for why
    /// the raw body bytes cannot be the input).
    crc_chain: Vec<u8>,
    frames: usize,
}

impl Default for ContainerWriter {
    fn default() -> ContainerWriter {
        ContainerWriter::new()
    }
}

impl ContainerWriter {
    /// Starts an empty container.
    pub fn new() -> ContainerWriter {
        let mut out = Writer::new();
        write_header(&mut out, CONTAINER_MAGIC, CONTAINER_VERSION);
        ContainerWriter {
            out,
            crc_chain: Vec::new(),
            frames: 0,
        }
    }

    /// Appends one frame whose payload is `payload`.
    pub fn frame(&mut self, kind: u32, payload: &[u8]) {
        self.frame_with(kind, |w| w.raw(payload));
    }

    /// Appends one frame whose payload `encode` writes in place, right
    /// behind the frame's kind and length. `kind` must not be
    /// [`COMMIT_KIND`] (the commit record is written only by
    /// [`ContainerWriter::commit`]); a reserved kind is remapped to
    /// `COMMIT_KIND - 1` rather than forging a premature commit.
    pub fn frame_with(&mut self, kind: u32, encode: impl FnOnce(&mut Writer)) {
        let kind = if kind == COMMIT_KIND { COMMIT_KIND - 1 } else { kind };
        let crc = self.put(kind, encode);
        self.crc_chain.extend_from_slice(&crc.to_le_bytes());
        self.frames += 1;
    }

    /// Writes `kind`, a length placeholder, the payload `encode`
    /// produces, the patched-in length, and the CRC of all three;
    /// returns that CRC.
    fn put(&mut self, kind: u32, encode: impl FnOnce(&mut Writer)) -> u64 {
        let start = self.out.len();
        self.out.u32(kind);
        self.out.u64(0);
        let payload_start = self.out.len();
        encode(&mut self.out);
        let len = (self.out.len() - payload_start) as u64;
        let buf = &mut self.out.buf;
        if let Some(slot) = buf.get_mut(start + 4..payload_start) {
            slot.copy_from_slice(&len.to_le_bytes());
        }
        let crc = crc64(buf.get(start..).unwrap_or_default());
        self.out.u64(crc);
        crc
    }

    /// Number of frames appended so far.
    pub fn frame_count(&self) -> usize {
        self.frames
    }

    /// Seals the container: writes the commit frame (epoch, parent
    /// epoch for deltas, frame count, body CRC) last and returns the
    /// full container bytes.
    pub fn commit(mut self, epoch: u64, parent: Option<u64>) -> Vec<u8> {
        let body_crc = crc64(&self.crc_chain);
        let frames = self.frames;
        self.put(COMMIT_KIND, |w| {
            w.u64(epoch);
            parent.snap(w);
            w.usize(frames);
            w.u64(body_crc);
        });
        // The buffer grew by doubling; hand back only what it holds.
        let mut bytes = self.out.into_bytes();
        bytes.shrink_to_fit();
        bytes
    }
}

/// A verified container: opening checked every frame CRC, the commit
/// record's position, frame count, and body CRC. Frame payloads borrow
/// from the opened bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Container<'a> {
    /// Monotonic checkpoint epoch from the commit record.
    pub epoch: u64,
    /// Parent epoch this delta chains to; `None` for a base.
    pub parent: Option<u64>,
    /// The data frames, in write order, commit excluded.
    pub frames: Vec<(u32, &'a [u8])>,
}

impl<'a> Container<'a> {
    /// Opens and fully verifies a container. Any corruption — torn
    /// tail, truncation, flipped bit, duplicated frame, stale or
    /// missing commit — yields a typed [`SnapError`]; this function
    /// never panics on arbitrary input.
    pub fn open(bytes: &'a [u8]) -> Result<Container<'a>, SnapError> {
        let mut r = Reader::new(bytes);
        read_header(&mut r, CONTAINER_MAGIC, CONTAINER_VERSION)?;
        let mut frames: Vec<(u32, &'a [u8])> = Vec::new();
        let mut crc_chain: Vec<u8> = Vec::new();
        loop {
            if r.remaining() == 0 {
                // A torn write that lost the commit record lands here.
                return Err(SnapError::Corrupt("container ends without a commit frame"));
            }
            let frame_start = bytes.len() - r.remaining();
            let kind = r.u32()?;
            let n = r.seq_len()?;
            let payload = r.take(n)?;
            let stored_crc = r.u64()?;
            let crced_end = (bytes.len() - r.remaining())
                .checked_sub(8)
                .ok_or(SnapError::Corrupt("frame extent underflow"))?;
            let crced = bytes
                .get(frame_start..crced_end)
                .ok_or(SnapError::Corrupt("frame extent out of bounds"))?;
            if crc64(crced) != stored_crc {
                return Err(SnapError::Corrupt("frame checksum mismatch"));
            }
            if kind != COMMIT_KIND {
                frames.push((kind, payload));
                crc_chain.extend_from_slice(&stored_crc.to_le_bytes());
                continue;
            }
            let mut cr = Reader::new(payload);
            let epoch = cr.u64()?;
            let parent = Option::<u64>::restore(&mut cr)?;
            let frame_count = cr.usize()?;
            let body_crc = cr.u64()?;
            cr.finish()?;
            // The commit must be the last frame.
            r.finish()?;
            if frame_count != frames.len() {
                return Err(SnapError::mismatch(
                    "commit frame count",
                    frames.len(),
                    frame_count,
                ));
            }
            if crc64(&crc_chain) != body_crc {
                // A stale commit record — committed over different
                // frames than the ones on disk — fails here.
                return Err(SnapError::Corrupt("commit body checksum mismatch"));
            }
            if let Some(p) = parent {
                if p >= epoch {
                    return Err(SnapError::mismatch(
                        "delta parent epoch",
                        format!("older than {epoch}"),
                        p,
                    ));
                }
            }
            return Ok(Container {
                epoch,
                parent,
                frames,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut cw = ContainerWriter::new();
        cw.frame(1, b"control state");
        cw.frame(2, b"");
        cw.frame(3, &[0xAB; 100]);
        cw.commit(7, Some(6))
    }

    #[test]
    fn container_round_trips() {
        let bytes = sample();
        let c = Container::open(&bytes).unwrap();
        assert_eq!(c.epoch, 7);
        assert_eq!(c.parent, Some(6));
        assert_eq!(c.frames.len(), 3);
        assert_eq!(c.frames.first().unwrap(), &(1u32, &b"control state"[..]));
        assert_eq!(c.frames.get(2).unwrap().1, &[0xAB; 100][..]);
    }

    /// The bytewise table CRC: one table lookup per byte. The oracle
    /// the slice-by-16 kernel must agree with.
    fn crc64_bytewise(bytes: &[u8]) -> u64 {
        let [t0, ..] = &CRC64_TABLES;
        let mut crc = !0u64;
        for &b in bytes {
            let [lo, ..] = crc.to_le_bytes();
            crc = at(t0, lo ^ b) ^ (crc >> 8);
        }
        !crc
    }

    /// splitmix64-filled test bytes.
    fn noise(len: usize, mut seed: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            out.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
        }
        out.truncate(len);
        out
    }

    #[test]
    fn known_crc64_vector() {
        // CRC-64/XZ check value for "123456789".
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64_bytewise(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64(b""), 0);
    }

    #[test]
    fn slice_by_16_matches_the_bytewise_oracle_at_every_length_and_offset() {
        let bytes = noise(256 + 16, 0x0C2C_6400);
        for offset in 0..16 {
            for len in 0..=256 {
                let input = bytes.get(offset..offset + len).unwrap();
                assert_eq!(
                    crc64(input),
                    crc64_bytewise(input),
                    "offset {offset} length {len}"
                );
            }
        }
    }

    #[test]
    fn slice_by_16_matches_the_bytewise_oracle_on_a_mebibyte() {
        let bytes = noise(1 << 20, 0x0C2C_6401);
        assert_eq!(crc64(&bytes), crc64_bytewise(&bytes));
        let odd = bytes.get(3..bytes.len() - 5).unwrap();
        assert_eq!(crc64(odd), crc64_bytewise(odd));
    }

    #[test]
    fn frame_with_writes_the_same_bytes_as_frame() {
        let payloads = [Vec::new(), b"x".to_vec(), noise(1000, 7), noise(4096 + 3, 8)];
        let mut by_slice = ContainerWriter::new();
        let mut in_place = ContainerWriter::new();
        for (kind, payload) in payloads.iter().enumerate() {
            by_slice.frame(kind as u32, payload);
            in_place.frame_with(kind as u32, |w| {
                // Encode piecewise, as a snapshot impl would.
                let (head, rest) = payload.split_at(payload.len() / 3);
                w.raw(head);
                w.raw(rest);
            });
        }
        // The reserved kind is remapped on both paths.
        by_slice.frame(COMMIT_KIND, b"not a commit");
        in_place.frame_with(COMMIT_KIND, |w| w.raw(b"not a commit"));
        assert_eq!(by_slice.frame_count(), in_place.frame_count());
        let (a, b) = (by_slice.commit(9, Some(2)), in_place.commit(9, Some(2)));
        assert_eq!(a, b);
        let c = Container::open(&a).unwrap();
        assert_eq!(c.frames.len(), payloads.len() + 1);
        assert_eq!(c.frames.last().unwrap(), &(COMMIT_KIND - 1, &b"not a commit"[..]));
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let bytes = sample();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                if let Some(b) = bad.get_mut(i) {
                    *b ^= 1 << bit;
                }
                assert!(
                    Container::open(&bad).is_err(),
                    "flip at byte {i} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = sample();
        for cut in 0..bytes.len() {
            let err = Container::open(bytes.get(..cut).unwrap()).unwrap_err();
            let _ = err.to_string();
        }
    }

    #[test]
    fn torn_write_without_commit_is_detected() {
        let mut cw = ContainerWriter::new();
        cw.frame(1, b"only data, never committed");
        // Rebuild the same body but do not commit: simulate by cutting
        // a committed container just before its commit frame.
        let full = cw.commit(1, None);
        let c = Container::open(&full).unwrap();
        assert_eq!(c.frames.len(), 1);
    }

    #[test]
    fn stale_commit_record_is_detected() {
        // Commit record from a different body spliced onto new frames.
        let old = {
            let mut cw = ContainerWriter::new();
            cw.frame(1, b"old body");
            cw.commit(3, None)
        };
        let new_body = {
            let mut cw = ContainerWriter::new();
            cw.frame(1, b"new body!!");
            cw.commit(4, None)
        };
        // Find the commit frame of `old`: it is the trailing suffix
        // after its single data frame. Recompute offsets structurally.
        let old_c = Container::open(&old).unwrap();
        assert_eq!(old_c.epoch, 3);
        let old_commit_len = 4 + 8 + (8 + 1 + 8 + 8) + 8; // kind+len+payload+crc
        let splice_at = new_body.len() - old_commit_len;
        let mut forged = new_body.get(..splice_at).unwrap().to_vec();
        forged.extend_from_slice(old.get(old.len() - old_commit_len..).unwrap());
        let err = Container::open(&forged).unwrap_err();
        assert!(matches!(err, SnapError::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn duplicated_frame_is_detected() {
        let mut cw = ContainerWriter::new();
        cw.frame(1, b"abc");
        let one = cw.commit(1, None);
        // Duplicate the data frame in place: frame bytes start after the
        // 8-byte header and are (4 + 8 + 3 + 8) long.
        let flen = 4 + 8 + 3 + 8;
        let frame = one.get(8..8 + flen).unwrap().to_vec();
        let mut dup = one.get(..8).unwrap().to_vec();
        dup.extend_from_slice(&frame);
        dup.extend_from_slice(&frame);
        dup.extend_from_slice(one.get(8 + flen..).unwrap());
        let err = Container::open(&dup).unwrap_err();
        assert!(
            matches!(err, SnapError::Mismatch { .. } | SnapError::Corrupt(_)),
            "{err:?}"
        );
    }

    #[test]
    fn delta_parent_must_be_older() {
        let mut cw = ContainerWriter::new();
        cw.frame(1, b"x");
        let bytes = cw.commit(5, Some(5));
        assert!(matches!(
            Container::open(&bytes),
            Err(SnapError::Mismatch { .. })
        ));
    }

    #[test]
    fn empty_container_commits_and_opens() {
        let bytes = ContainerWriter::new().commit(1, None);
        let c = Container::open(&bytes).unwrap();
        assert!(c.frames.is_empty());
        assert_eq!(c.parent, None);
    }
}
