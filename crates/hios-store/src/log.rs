//! Log file framing: header, checksummed record frames, prefix scan.
//!
//! Layout:
//!
//! ```text
//! header:  "HIOSPLAN"  u32 version  u32 reserved          (16 bytes)
//! frame*:  "HREC"      u32 payload_len  u64 fnv64(payload)  payload
//! ```
//!
//! All integers are little-endian.  The scanner walks frames from the
//! start and stops at the first violation — bad magic, impossible
//! length, truncated body or checksum mismatch — returning the byte
//! length of the valid prefix.  It deliberately does *not* try to
//! resync past a bad frame: a flipped length byte can make arbitrary
//! garbage look frame-shaped, and prefix semantics is the only stance
//! that can never launder corrupted bytes into a "valid" record.

/// File magic leading every plan-store log.
pub(crate) const FILE_MAGIC: [u8; 8] = *b"HIOSPLAN";

/// Record-frame magic.
pub(crate) const REC_MAGIC: [u8; 4] = *b"HREC";

/// Byte length of the file header.
pub(crate) const HEADER_LEN: usize = 16;

/// Byte length of a frame header (magic + len + checksum).
pub(crate) const FRAME_HEADER_LEN: usize = 4 + 4 + 8;

/// Hard cap on a single payload; anything larger in a length field is
/// treated as corruption rather than attempted as an allocation.
pub(crate) const MAX_PAYLOAD_LEN: usize = 64 << 20;

/// Standard FNV-1a (prime `0x100_0000_01b3`) over a byte slice; the
/// frame checksum.  Part of the on-disk format, so it is not the
/// workspace's `hios_graph::HashWriter`, whose prime differs.
pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Renders the 16-byte file header for `version`.
pub(crate) fn encode_header(version: u32) -> [u8; HEADER_LEN] {
    let mut out = [0u8; HEADER_LEN];
    out[..8].copy_from_slice(&FILE_MAGIC);
    out[8..12].copy_from_slice(&version.to_le_bytes());
    out
}

/// Frames one payload: magic, length, checksum, payload bytes.
pub(crate) fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&REC_MAGIC);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Outcome of scanning a log image.
pub(crate) enum LogScan {
    /// Header is missing or mangled: nothing in the file can be
    /// trusted, quarantine it wholesale and start fresh.
    Corrupt,
    /// Header is intact but written by a newer build.
    Incompatible {
        /// Version found in the header.
        found: u32,
    },
    /// Header ok; frames scanned.
    Ok(ScanResult),
}

/// The valid prefix of a log image.
pub(crate) struct ScanResult {
    /// Checksum-valid payloads, in log order.
    pub payloads: Vec<Vec<u8>>,
    /// Bytes of header + valid frames; the file's content beyond this
    /// is torn or corrupt.
    pub valid_len: usize,
    /// Whether any tail bytes had to be dropped.
    pub torn: bool,
}

/// Scans a whole log image against `supported_version`.
pub(crate) fn scan(bytes: &[u8], supported_version: u32) -> LogScan {
    if bytes.len() < HEADER_LEN || bytes[..8] != FILE_MAGIC {
        return LogScan::Corrupt;
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version == 0 {
        return LogScan::Corrupt;
    }
    if version > supported_version {
        return LogScan::Incompatible { found: version };
    }
    let mut payloads = Vec::new();
    let mut pos = HEADER_LEN;
    loop {
        if pos == bytes.len() {
            return LogScan::Ok(ScanResult {
                payloads,
                valid_len: pos,
                torn: false,
            });
        }
        let rest = &bytes[pos..];
        if rest.len() < FRAME_HEADER_LEN || rest[..4] != REC_MAGIC {
            break;
        }
        let len = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes")) as usize;
        if len > MAX_PAYLOAD_LEN || rest.len() < FRAME_HEADER_LEN + len {
            break;
        }
        let sum = u64::from_le_bytes(rest[8..16].try_into().expect("8 bytes"));
        let payload = &rest[FRAME_HEADER_LEN..FRAME_HEADER_LEN + len];
        if fnv64(payload) != sum {
            break;
        }
        payloads.push(payload.to_vec());
        pos += FRAME_HEADER_LEN + len;
    }
    LogScan::Ok(ScanResult {
        payloads,
        valid_len: pos,
        torn: true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image(payloads: &[&[u8]]) -> Vec<u8> {
        let mut bytes = encode_header(1).to_vec();
        for p in payloads {
            bytes.extend_from_slice(&encode_frame(p));
        }
        bytes
    }

    #[test]
    fn clean_image_scans_fully() {
        let bytes = image(&[b"alpha", b"", b"gamma"]);
        match scan(&bytes, 1) {
            LogScan::Ok(r) => {
                assert_eq!(
                    r.payloads,
                    vec![b"alpha".to_vec(), vec![], b"gamma".to_vec()]
                );
                assert_eq!(r.valid_len, bytes.len());
                assert!(!r.torn);
            }
            _ => panic!("clean image must scan"),
        }
    }

    #[test]
    fn truncation_yields_prefix() {
        let full = image(&[b"alpha", b"beta"]);
        let first_end = HEADER_LEN + FRAME_HEADER_LEN + 5;
        for cut in first_end + 1..full.len() {
            match scan(&full[..cut], 1) {
                LogScan::Ok(r) => {
                    assert_eq!(r.payloads, vec![b"alpha".to_vec()]);
                    assert_eq!(r.valid_len, first_end);
                    assert!(r.torn);
                }
                _ => panic!("truncated image must still yield its prefix"),
            }
        }
    }

    #[test]
    fn any_single_bit_flip_never_corrupts_a_served_payload() {
        let full = image(&[b"alpha", b"beta"]);
        for byte in HEADER_LEN..full.len() {
            for bit in 0..8 {
                let mut bad = full.clone();
                bad[byte] ^= 1 << bit;
                match scan(&bad, 1) {
                    LogScan::Ok(r) => {
                        for p in &r.payloads {
                            assert!(
                                p == b"alpha" || p == b"beta",
                                "flip at {byte}.{bit} surfaced a corrupt payload"
                            );
                        }
                    }
                    _ => panic!("body flips must not invalidate the header"),
                }
            }
        }
    }

    #[test]
    fn header_damage_is_wholesale_corrupt() {
        let mut bytes = image(&[b"alpha"]);
        bytes[0] ^= 0xff;
        assert!(matches!(scan(&bytes, 1), LogScan::Corrupt));
        assert!(matches!(scan(&[], 1), LogScan::Corrupt));
        assert!(matches!(scan(&encode_header(1)[..12], 1), LogScan::Corrupt));
    }

    #[test]
    fn newer_file_version_is_typed_incompatible() {
        let bytes = image(&[b"alpha"]);
        match scan(&bytes, 1) {
            LogScan::Ok(_) => {}
            _ => panic!("current version must scan"),
        }
        let mut newer = bytes;
        newer[8..12].copy_from_slice(&2u32.to_le_bytes());
        assert!(matches!(
            scan(&newer, 1),
            LogScan::Incompatible { found: 2 }
        ));
    }

    #[test]
    fn oversized_length_field_is_corruption_not_allocation() {
        let mut bytes = encode_header(1).to_vec();
        bytes.extend_from_slice(&REC_MAGIC);
        bytes.extend_from_slice(&(u32::MAX).to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        match scan(&bytes, 1) {
            LogScan::Ok(r) => {
                assert!(r.payloads.is_empty());
                assert!(r.torn);
                assert_eq!(r.valid_len, HEADER_LEN);
            }
            _ => panic!("bad length is a torn tail"),
        }
    }
}
