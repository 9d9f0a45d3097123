//! The workspace's integrity checksum and its one FNV-1a.
//!
//! [`Checksum`] guards every file the workspace writes and later trusts:
//! graph snapshots (`uic_graph::snapshot`) and warm-arena spill files
//! (`uic_serve::spill`). It is an integrity check against torn writes
//! and bit rot, not a cryptographic hash.
//!
//! [`fnv1a64`] is a tiny string hash for *names*, not an integrity
//! check: it keys snapshot-cache file names and separates failpoint
//! random streams. Both uses depend on its exact bits.

/// A 64-bit multiply-xor word fold (FxHash-style) over **four**
/// independent lanes consuming 32 bytes per round. Four serial multiply
/// chains give the instruction-level parallelism that keeps a
/// ~140 MB snapshot verify in the low tens of milliseconds (a
/// byte-at-a-time hash costs more than the rest of the load), while the
/// odd-multiplier bijections still carry every single-bit flip into
/// [`Checksum::finish`].
///
/// Run boundaries are part of the definition: each [`Checksum::update`]
/// call zero-pads and length-tags its sub-round tail, so a writer and a
/// reader must feed identical byte runs. Callers that stream a run in
/// pieces use [`Checksum::fold32`] for every full round and
/// [`Checksum::fold_tail`] once for the run's remainder.
///
/// The constants are frozen: snapshot format v2 stores this value, so
/// changing any of them would orphan every snapshot on disk.
#[derive(Clone, Copy, Debug)]
pub struct Checksum([u64; 4]);

impl Checksum {
    const MULS: [u64; 4] = [
        0x517c_c1b7_2722_0a95,
        0x2545_f491_4f6c_dd1d,
        0x9e6c_63d0_985b_4c63,
        0xff51_afd7_ed55_8ccd,
    ];

    /// The initial state.
    pub fn new() -> Self {
        Checksum([
            0x9e37_79b9_7f4a_7c15,
            0xc2b2_ae3d_27d4_eb4f,
            0x6a09_e667_f3bc_c909,
            0xbb67_ae85_84ca_a73b,
        ])
    }

    /// The checksum of `bytes` fed as a single run.
    pub fn of(bytes: &[u8]) -> u64 {
        let mut h = Checksum::new();
        h.update(bytes);
        h.finish()
    }

    /// Folds one 32-byte round, one little-endian word per lane.
    #[inline]
    pub fn fold32(&mut self, c: &[u8; 32]) {
        const ROTS: [u32; 4] = [5, 7, 11, 13];
        for i in 0..4 {
            let w = u64::from_le_bytes(c[i * 8..i * 8 + 8].try_into().expect("chunk of 8"));
            self.0[i] = (self.0[i].rotate_left(ROTS[i]) ^ w).wrapping_mul(Self::MULS[i]);
        }
    }

    /// Folds a short (< 32 byte) run tail: zero-padded plus a length
    /// tag, so padding cannot collide with real zeros. An empty tail
    /// folds nothing.
    #[inline]
    pub fn fold_tail(&mut self, rem: &[u8]) {
        if rem.is_empty() {
            return;
        }
        let mut tail = [0u8; 32];
        tail[..rem.len()].copy_from_slice(rem);
        self.fold32(&tail);
        self.0[0] = self.0[0].wrapping_add(rem.len() as u64);
    }

    /// Folds `bytes` as one run: full rounds, then the tail.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(32);
        for c in &mut words {
            self.fold32(c.try_into().expect("chunk of 32"));
        }
        self.fold_tail(words.remainder());
    }

    /// Collapses the four lanes into the 64-bit checksum.
    pub fn finish(self) -> u64 {
        let a = (self.0[0] ^ self.0[1].rotate_left(32)).wrapping_mul(Self::MULS[0]);
        let b = (self.0[2] ^ self.0[3].rotate_left(32)).wrapping_mul(Self::MULS[1]);
        a ^ b.rotate_left(32)
    }
}

impl Default for Checksum {
    fn default() -> Self {
        Checksum::new()
    }
}

/// 64-bit FNV-1a of `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streamed_rounds_equal_one_update() {
        // fold32 per full round plus one fold_tail is exactly update().
        let bytes: Vec<u8> = (0..100u8).collect();
        let mut streamed = Checksum::new();
        let mut rounds = bytes.chunks_exact(32);
        for c in &mut rounds {
            streamed.fold32(c.try_into().unwrap());
        }
        streamed.fold_tail(rounds.remainder());
        assert_eq!(streamed.finish(), Checksum::of(&bytes));
        // The length tag separates a short tail from its zero padding.
        assert_ne!(Checksum::of(&[1, 0]), Checksum::of(&[1]));
    }
}
