//! The one 64-bit hash writer behind every fingerprint and digest of the
//! workspace: graph fingerprints, platform and calibration fingerprints,
//! schedule content digests and serving-history digests.
//!
//! It is an FNV-style xor-multiply hash with the FNV-64 offset basis but
//! the prime `0x1000_0000_01b3`, **not** the standard FNV-64 prime
//! `0x100_0000_01b3`.  The prime stays: schedule-cache keys, persisted
//! plan keys and pinned history digests are all values of this hash, and
//! changing the prime would move every one of them.  (The plan store's
//! on-disk frame checksum is a separate, standard FNV-1a.)

/// Offset basis (the standard FNV-64 one).
const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Multiplier (deliberately non-standard; see the module docs).
const PRIME: u64 = 0x1000_0000_01b3;

/// Incremental hash writer with two mixing grains: [`HashWriter::word`]
/// folds a whole `u64` in one step, [`HashWriter::bytes`] one byte per
/// step (so byte input may arrive in any chunking).  Each fingerprint
/// sticks to one grain.
#[derive(Clone, Copy, Debug)]
pub struct HashWriter(u64);

impl Default for HashWriter {
    fn default() -> Self {
        HashWriter::new()
    }
}

impl HashWriter {
    /// A writer at the offset basis.
    #[inline]
    pub const fn new() -> Self {
        HashWriter(OFFSET)
    }

    /// Folds `x` as one word.
    #[inline]
    pub fn word(&mut self, x: u64) {
        self.0 ^= x;
        self.0 = self.0.wrapping_mul(PRIME);
    }

    /// Folds `bytes` one byte at a time.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.word(u64::from(b));
        }
    }

    /// Folds the little-endian bytes of `x`.
    #[inline]
    pub fn le(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    /// The hash of everything written so far.
    #[inline]
    pub fn finish(self) -> u64 {
        self.0
    }
}
