//! CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the checksum
//! guarding every WAL record, checkpoint artifact and network frame.
//! In-tree and table-driven (the workspace takes no external
//! dependencies), eight bytes to a step: recovery checksums every byte it
//! reads, so the loop is slicing-by-8 over eight 1 KiB const tables
//! rather than one lookup per byte.

/// `TABLES[0]` is the bytewise table; `TABLES[k][b]` is the CRC of byte
/// `b` followed by `k` zero bytes.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 of `bytes` (standard init/final XOR of `0xFFFFFFFF`).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][(lo >> 8 & 0xFF) as usize]
            ^ TABLES[5][(lo >> 16 & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][(hi >> 8 & 0xFF) as usize]
            ^ TABLES[1][(hi >> 16 & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // the canonical check value for this CRC variant
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"penguin"), crc32(b"penguin"));
    }

    #[test]
    fn eight_at_a_time_equals_the_bytewise_loop() {
        fn bytewise(bytes: &[u8]) -> u32 {
            let mut c = 0xFFFF_FFFFu32;
            for &b in bytes {
                c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
            }
            c ^ 0xFFFF_FFFF
        }
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let data: Vec<u8> = (0..4099)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect();
        // every length, so every remainder, and every alignment of the tail
        for len in 0..=data.len() {
            assert_eq!(crc32(&data[..len]), bytewise(&data[..len]), "len {len}");
            let from = data.len() - len;
            assert_eq!(crc32(&data[from..]), bytewise(&data[from..]), "tail {len}");
        }
    }

    #[test]
    fn single_bit_flip_changes_checksum() {
        let mut payload = b"{\"lsn\":1,\"ops\":[]}".to_vec();
        let clean = crc32(&payload);
        for i in 0..payload.len() {
            payload[i] ^= 0x40;
            assert_ne!(crc32(&payload), clean, "flip at byte {i} undetected");
            payload[i] ^= 0x40;
        }
    }
}
