//! Deterministic inputs for the bit-for-bit differential tests.

/// The next draw of a 64-bit LCG, as a value in roughly [-1, 1].
fn next(state: &mut u64) -> f32 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    ((*state >> 33) as i32 as f32) / (i32::MAX as f32)
}

/// Deterministic values in roughly [-1, 1]; every 5th is +0.0 and every
/// 7th −0.0, so signed-zero arithmetic is exercised.
pub(crate) fn values(seed: u64, len: usize) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|i| {
            let v = next(&mut state);
            match i % 35 {
                0 | 5 | 10 | 15 | 20 | 25 | 30 => 0.0,
                7 | 14 | 21 | 28 => -0.0,
                _ => v,
            }
        })
        .collect()
}

/// Deterministic values of which about half come from a small palette —
/// ±0.0, NaN, ±∞, ±1 — so neighbours often tie and every special case of
/// a comparison shows up; the rest lie in roughly [-1, 1].
pub(crate) fn special_values(seed: u64, len: usize) -> Vec<f32> {
    const PALETTE: [f32; 7] = [
        0.0,
        -0.0,
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        1.0,
        -1.0,
    ];
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            let v = next(&mut state);
            let pick = (state >> 20) as usize % (2 * PALETTE.len());
            PALETTE.get(pick).copied().unwrap_or(v)
        })
        .collect()
}

/// The bit patterns of `v`, so that `assert_eq!` tells −0.0 from +0.0 and
/// matches NaN payloads.
pub(crate) fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}
