//! Seeded input generation. Everything the program receives — records,
//! request mixes, payloads — is drawn here from the workload seed, so
//! the same seed gives the same inputs and a different seed different
//! ones. The generator is a local SplitMix64, independent of any crate's
//! RNG, so inputs stay fixed when dependencies change.

use bridge_tools::KEY_LEN;
use bytes::Bytes;

/// The largest payload one Bridge block carries.
pub const MAX_RECORD: usize = 960;

/// Smallest generated record: the key plus a few body bytes.
pub const MIN_RECORD: usize = KEY_LEN + 8;

/// SplitMix64: a small, fast, well-mixed deterministic generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `stream` under `seed` (distinct streams of one
    /// seed are independent).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

/// A payload of seeded length in `MIN_RECORD..=MAX_RECORD` whose first
/// [`KEY_LEN`] bytes are `key` big-endian and whose body is seeded noise.
pub fn record(rng: &mut Rng, key: u64) -> Bytes {
    let len = MIN_RECORD + rng.below((MAX_RECORD - MIN_RECORD + 1) as u64) as usize;
    let mut data = Vec::with_capacity(len);
    data.extend_from_slice(&key.to_be_bytes());
    while data.len() < len {
        data.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    data.truncate(len);
    Bytes::from(data)
}

/// What reading `data` back returns: a Bridge block's data area is
/// always [`MAX_RECORD`] bytes, shorter writes zero-padded.
pub fn block_image(data: &[u8]) -> Bytes {
    let mut block = data.to_vec();
    block.resize(MAX_RECORD, 0);
    Bytes::from(block)
}

/// `n` records whose keys are a seeded shuffle of `0..n` (all distinct,
/// so a sort has exactly one correct output).
pub fn shuffled_records(seed: u64, n: u64) -> Vec<Bytes> {
    let mut rng = Rng::new(seed, 1);
    let mut keys: Vec<u64> = (0..n).collect();
    rng.shuffle(&mut keys);
    keys.into_iter().map(|k| record(&mut rng, k)).collect()
}

/// The key of a generated record.
pub fn key(data: &[u8]) -> u64 {
    u64::from_be_bytes(bridge_tools::key_of(data))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_are_seeded_permutations_of_variable_length() {
        let a = shuffled_records(7, 500);
        assert_eq!(a, shuffled_records(7, 500));
        assert_ne!(a, shuffled_records(8, 500));
        let mut keys: Vec<u64> = a.iter().map(|r| key(r)).collect();
        keys.sort_unstable();
        assert_eq!(keys, (0..500).collect::<Vec<_>>());
        assert!(a
            .iter()
            .all(|r| (MIN_RECORD..=MAX_RECORD).contains(&r.len())));
        assert!(a.iter().any(|r| r.len() != a[0].len()));
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = Rng::new(1, 2);
        assert!((0..10_000).all(|_| rng.below(3) < 3));
    }
}
