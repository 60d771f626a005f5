//! Deterministic random-number plumbing.
//!
//! Every simulation is seeded by a single `u64`. Each component (link,
//! host agent, …) receives its own [`csig_rng::StdRng`], seeded from
//! the master seed and a stream id, so adding a host or reordering link
//! creation does not perturb unrelated components' randomness.
//! `csig-rng` pins the words of `stream_rng(0, 0)`; the test below ties
//! that pin to [`derive_seed`].

use csig_rng::StdRng;

/// SplitMix64 finalizer — a strong 64-bit mixing function used to derive
/// independent stream seeds from `(master, stream)` pairs.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Derive the seed for stream `stream` of master seed `master`.
#[inline]
pub fn derive_seed(master: u64, stream: u64) -> u64 {
    splitmix64(master ^ splitmix64(stream.wrapping_add(0xA076_1D64_78BD_642F)))
}

/// A `StdRng` for the given component stream.
pub fn stream_rng(master: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(derive_seed(master, stream))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_0_0_has_the_seed_csig_rng_pins() {
        assert_eq!(derive_seed(0, 0), 0xb1a6_d212_199b_7394);
    }

    #[test]
    fn streams_are_deterministic() {
        let mut a = stream_rng(42, 7);
        let mut b = stream_rng(42, 7);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_streams_differ() {
        let mut a = stream_rng(42, 7);
        let mut b = stream_rng(42, 8);
        let same = (0..100)
            .filter(|_| a.gen::<u64>() == b.gen::<u64>())
            .count();
        assert_eq!(same, 0);
    }

    #[test]
    fn different_masters_differ() {
        let mut a = stream_rng(1, 0);
        let mut b = stream_rng(2, 0);
        assert_ne!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn splitmix_is_not_identity_and_spreads_bits() {
        assert_ne!(splitmix64(0), 0);
        assert_ne!(splitmix64(1), splitmix64(2));
        // Hamming distance between outputs of adjacent inputs should be
        // substantial (avalanche).
        let d = (splitmix64(100) ^ splitmix64(101)).count_ones();
        assert!(d > 16, "weak avalanche: {d}");
    }
}
