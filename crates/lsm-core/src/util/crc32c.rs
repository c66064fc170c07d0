//! CRC-32C (Castagnoli) with LevelDB's masking, used by the WAL and the
//! SSTable block trailers. Safe software implementation, sliced by 16:
//! each step folds 16 input bytes through 16 lookup tables, which are
//! built at compile time.

/// Castagnoli polynomial, reflected.
const POLY: u32 = 0x82F63B78;

/// Slicing-by-16 tables. `TABLES[0]` is the classic bytewise table: the
/// raw (init 0, no xor-out) CRC of each single-byte message. `TABLES[k]`
/// advances `TABLES[k - 1]` by one further zero byte, so one step can
/// fold byte `i` of a 16-byte chunk through `TABLES[15 - i]`.
pub(crate) static TABLES: [[u32; 256]; 16] = build_tables();

const fn build_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut s = 1;
    while s < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[s - 1][i];
            t[s][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        s += 1;
    }
    t
}

/// CRC-32C of `data`.
pub fn crc32c(data: &[u8]) -> u32 {
    extend(0, data)
}

/// Extends a running CRC-32C with more data.
pub fn extend(crc: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = !crc;
    let mut chunks = data.chunks_exact(16);
    for chunk in &mut chunks {
        let c: &[u8; 16] = chunk.try_into().expect("16-byte chunk");
        let v = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[15][(v & 0xFF) as usize]
            ^ t[14][((v >> 8) & 0xFF) as usize]
            ^ t[13][((v >> 16) & 0xFF) as usize]
            ^ t[12][(v >> 24) as usize]
            ^ t[11][c[4] as usize]
            ^ t[10][c[5] as usize]
            ^ t[9][c[6] as usize]
            ^ t[8][c[7] as usize]
            ^ t[7][c[8] as usize]
            ^ t[6][c[9] as usize]
            ^ t[5][c[10] as usize]
            ^ t[4][c[11] as usize]
            ^ t[3][c[12] as usize]
            ^ t[2][c[13] as usize]
            ^ t[1][c[14] as usize]
            ^ t[0][c[15] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

const MASK_DELTA: u32 = 0xa282ead8;

/// LevelDB's CRC masking: stored CRCs are masked so that computing the
/// CRC of a string containing embedded CRCs stays well-behaved.
pub fn mask(crc: u32) -> u32 {
    crc.rotate_right(15).wrapping_add(MASK_DELTA)
}

/// Inverse of [`mask`].
pub fn unmask(masked: u32) -> u32 {
    masked.wrapping_sub(MASK_DELTA).rotate_left(15)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::rng::XorShift64;

    /// Bitwise reference: one polynomial division step per input bit.
    fn reference(crc: u32, data: &[u8]) -> u32 {
        let mut crc = !crc;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut rng = XorShift64::new(seed);
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn standard_vectors() {
        // From RFC 3720 (iSCSI) test vectors.
        assert_eq!(crc32c(&[0u8; 32]), 0x8A9136AA);
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8AB43);
        let ascending: Vec<u8> = (0u8..32).collect();
        assert_eq!(crc32c(&ascending), 0x46DD794E);
        let descending: Vec<u8> = (0u8..32).rev().collect();
        assert_eq!(crc32c(&descending), 0x113FDB5C);
        // An iSCSI read command PDU.
        let mut pdu = [0u8; 48];
        pdu[0] = 0x01;
        pdu[1] = 0xC0;
        pdu[16] = 0x14;
        pdu[22] = 0x04;
        pdu[27] = 0x14;
        pdu[31] = 0x18;
        pdu[32] = 0x28;
        pdu[40] = 0x02;
        assert_eq!(crc32c(&pdu), 0xD9963A56);
        assert_eq!(crc32c(b"123456789"), 0xE3069283);
    }

    #[test]
    fn sliced_matches_reference_at_every_length_and_alignment() {
        let buf = random_bytes(0x5EA1DB, 300 + 16);
        for start in 0..16 {
            for len in 0..=300 {
                let s = &buf[start..start + len];
                assert_eq!(crc32c(s), reference(0, s), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn extend_split_anywhere_equals_whole() {
        let buf = random_bytes(0xC0FFEE, 1024);
        let whole = crc32c(&buf);
        assert_eq!(whole, reference(0, &buf));
        for split in 0..=buf.len() {
            let (a, b) = buf.split_at(split);
            assert_eq!(extend(crc32c(a), b), whole, "split at {split}");
        }
    }

    #[test]
    fn table_zero_is_the_bytewise_table() {
        for (i, &entry) in TABLES[0].iter().enumerate() {
            assert_eq!(entry, !reference(!0, &[i as u8]), "entry {i}");
        }
    }

    #[test]
    fn mask_roundtrip() {
        for crc in [0u32, 1, 0xDEADBEEF, u32::MAX] {
            assert_eq!(unmask(mask(crc)), crc);
            assert_ne!(mask(crc), crc, "mask must change the value");
        }
    }

    #[test]
    fn different_data_different_crc() {
        assert_ne!(crc32c(b"a"), crc32c(b"b"));
        assert_ne!(crc32c(b"ab"), crc32c(b"ba"));
    }
}
