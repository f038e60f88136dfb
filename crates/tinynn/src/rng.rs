//! Seeded RNG helpers.
//!
//! Every stochastic component in this workspace takes an explicit RNG (or
//! seed) so that experiments are reproducible run-to-run and so the
//! round-based simulator and the gossip network can be compared under
//! identical randomness.

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// A fast, seedable RNG for simulation workloads (not cryptographic).
pub type Rng = SmallRng;

/// Construct the workspace-standard RNG from a `u64` seed.
pub fn seeded(seed: u64) -> Rng {
    SmallRng::seed_from_u64(seed)
}

/// Derive a child seed from a parent seed and a stream index.
///
/// Used to give each node / round / worker an independent, reproducible
/// stream: `derive(seed, node_id)` differs from `derive(seed, node_id + 1)`
/// in an avalanche fashion (SplitMix64 finalizer).
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt as _;

    #[test]
    fn seeded_is_deterministic() {
        let mut a = seeded(7);
        let mut b = seeded(7);
        for _ in 0..32 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = seeded(7);
        let mut b = seeded(8);
        let xs: Vec<u64> = (0..8).map(|_| a.random()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.random()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn derive_spreads_streams() {
        let s = 1234;
        let a = derive(s, 0);
        let b = derive(s, 1);
        let c = derive(s, 2);
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_ne!(a, c);
        // stable across calls
        assert_eq!(a, derive(s, 0));
    }
}
