//! Property-based tests of the tensor/parameter machinery.

use proptest::prelude::*;
use tinynn::{gemm, ParamVec, Tensor};

/// Random rank-2 tensor strategy: dims in 1..=8, finite values.
fn mat(max: usize) -> impl Strategy<Value = Tensor> {
    (1..=max, 1..=max).prop_flat_map(|(r, c)| {
        prop::collection::vec(-10.0f32..10.0, r * c)
            .prop_map(move |v| Tensor::from_vec(vec![r, c], v))
    })
}

/// GEMM shape strategy biased toward block-boundary pathologies: each dim
/// drawn from hostile values (1, primes, exact block multiples, ±1 around
/// them, up to the NC = 128 column panel) as well as a uniform range — so
/// packed-edge handling, tall/skinny and single-element cases are all hit
/// every run.
fn gemm_dim() -> impl Strategy<Value = usize> {
    (0usize..14, 1usize..=80).prop_map(|(pick, uniform)| {
        const HOSTILE: [usize; 13] = [1, 2, 3, 5, 7, 13, 31, 63, 64, 65, 127, 128, 129];
        if pick < HOSTILE.len() {
            HOSTILE[pick]
        } else {
            uniform
        }
    })
}

fn gemm_dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (gemm_dim(), gemm_dim(), gemm_dim())
}

/// Assert two GEMM outputs agree to ≤1 ulp per element (they are expected
/// to be bit-identical; the ulp slack documents the contract without
/// over-pinning).
fn assert_ulp_close(got: &[f32], want: &[f32]) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let ulp = (g.to_bits() as i64 - w.to_bits() as i64).abs();
        prop_assert!(
            g == w || ulp <= 1,
            "element {i}: {g} vs {w} ({ulp} ulps apart)"
        );
    }
    Ok(())
}

/// Blocked GEMM with no transposes: `gemm` output must match the retained
/// naive reference bit-for-bit on hostile shapes.
#[test]
fn gemm_empty_and_degenerate_shapes_no_panic() {
    // (m, n, k) with zeros and singletons: must not panic, must agree with
    // the reference (k = 0 means every output is exactly +0.0).
    for &(m, n, k) in &[
        (0usize, 0usize, 0usize),
        (0, 5, 3),
        (5, 0, 3),
        (5, 3, 0),
        (1, 1, 1),
        (1, 64, 1),
        (64, 1, 256),
    ] {
        let a: Vec<f32> = (0..m * k).map(|i| (i as f32 * 0.37).sin()).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i as f32 * 0.53).cos()).collect();
        let mut got = vec![f32::NAN; m * n];
        let mut want = vec![f32::NAN; m * n];
        gemm::gemm(m, n, k, &a, false, &b, false, &mut got);
        gemm::reference::matmul(m, n, k, &a, false, &b, false, &mut want);
        assert_eq!(
            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "shape ({m},{n},{k})"
        );
        if k == 0 && m * n > 0 {
            assert!(got.iter().all(|v| v.to_bits() == 0), "k=0 must zero-fill");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Blocked/packed GEMM agrees with the naive reference on all three
    /// used transpose variants (plus both-transposed, reachable through the
    /// public API), across block-boundary shapes. Exact bitwise agreement
    /// is the design goal; ≤1 ulp is the asserted contract.
    #[test]
    fn gemm_blocked_matches_naive_reference(
        dims in gemm_dims(),
        seed in any::<u64>(),
    ) {
        let (m, n, k) = dims;
        let mut rng = tinynn::rng::seeded(seed);
        use rand::RngExt as _;
        let a: Vec<f32> = (0..m * k).map(|_| rng.random_range(-3.0f32..3.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.random_range(-3.0f32..3.0)).collect();
        for &(ta, tb) in &[(false, false), (false, true), (true, false), (true, true)] {
            let mut got = vec![0.0f32; m * n];
            let mut want = vec![0.0f32; m * n];
            gemm::gemm(m, n, k, &a, ta, &b, tb, &mut got);
            gemm::reference::matmul(m, n, k, &a, ta, &b, tb, &mut want);
            assert_ulp_close(&got, &want)?;
        }
    }

    /// The accumulating entry point chains onto pre-filled output exactly
    /// like the naive accumulating reference.
    #[test]
    fn gemm_accum_matches_naive_reference(
        dims in gemm_dims(),
        seed in any::<u64>(),
    ) {
        let (m, n, k) = dims;
        let mut rng = tinynn::rng::seeded(seed);
        use rand::RngExt as _;
        let a: Vec<f32> = (0..m * k).map(|_| rng.random_range(-3.0f32..3.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.random_range(-3.0f32..3.0)).collect();
        let init: Vec<f32> = (0..m * n).map(|_| rng.random_range(-3.0f32..3.0)).collect();
        let mut got = init.clone();
        let mut want = init;
        gemm::gemm_accum(m, n, k, &a, false, &b, false, &mut got);
        gemm::reference::matmul_accum(m, n, k, &a, false, &b, false, &mut want);
        assert_ulp_close(&got, &want)?;
    }

    /// (A·B)·C == A·(B·C) up to f32 noise, on compatible shapes.
    #[test]
    fn matmul_associative(
        a in mat(6),
        bv in prop::collection::vec(-10.0f32..10.0, 36),
        cv in prop::collection::vec(-10.0f32..10.0, 36),
    ) {
        let k = a.shape()[1];
        let b = Tensor::from_vec(vec![k, 6], bv[..k * 6].to_vec());
        let c = Tensor::from_vec(vec![6, 4], cv[..24].to_vec());
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            prop_assert!((x - y).abs() < 1e-2 * (1.0 + x.abs()), "{x} vs {y}");
        }
    }

    /// matmul_bt(a, b) == a · bᵀ computed via explicit transpose.
    #[test]
    fn matmul_bt_consistent(a in mat(6), bv in prop::collection::vec(-5.0f32..5.0, 48)) {
        let k = a.shape()[1];
        let n = 4;
        let b = Tensor::from_vec(vec![n, k], bv[..n * k].to_vec());
        // explicit transpose
        let mut bt = vec![0.0f32; k * n];
        for i in 0..n {
            for j in 0..k {
                bt[j * n + i] = b.as_slice()[i * k + j];
            }
        }
        let bt = Tensor::from_vec(vec![k, n], bt);
        let fast = a.matmul_bt(&b);
        let slow = a.matmul(&bt);
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    /// matmul_at(a, b) == aᵀ · b computed via explicit transpose.
    #[test]
    fn matmul_at_consistent(bv in prop::collection::vec(-5.0f32..5.0, 60)) {
        let (k, m, n) = (5, 3, 4);
        let a = Tensor::from_vec(vec![k, m], bv[..k * m].to_vec());
        let b = Tensor::from_vec(vec![k, n], bv[k * m..k * m + k * n].to_vec());
        let mut at = vec![0.0f32; m * k];
        for i in 0..k {
            for j in 0..m {
                at[j * k + i] = a.as_slice()[i * m + j];
            }
        }
        let at = Tensor::from_vec(vec![m, k], at);
        let fast = a.matmul_at(&b);
        let slow = at.matmul(&b);
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    /// slice_batch concatenation reconstructs the tensor.
    #[test]
    fn slice_batch_partition(a in mat(8), cut in 0usize..8) {
        let rows = a.shape()[0];
        let cut = cut.min(rows);
        let head = a.slice_batch(0, cut);
        let tail = a.slice_batch(cut, rows);
        let mut joined = head.as_slice().to_vec();
        joined.extend_from_slice(tail.as_slice());
        prop_assert_eq!(joined, a.as_slice().to_vec());
    }

    /// softmax-CE loss is non-negative and its gradient rows sum to ~0.
    #[test]
    fn ce_loss_gradient_rows_sum_zero(
        logits in mat(6),
        tseed in any::<u64>(),
    ) {
        let (rows, classes) = (logits.shape()[0], logits.shape()[1]);
        let targets: Vec<u32> = (0..rows).map(|i| ((tseed as usize + i) % classes) as u32).collect();
        let (loss, grad) = tinynn::loss::softmax_cross_entropy(&logits, &targets);
        prop_assert!(loss >= 0.0);
        for i in 0..rows {
            let s: f32 = grad.as_slice()[i * classes..(i + 1) * classes].iter().sum();
            prop_assert!(s.abs() < 1e-5, "row {i} sums to {s}");
        }
    }

    /// Full-precision wire codec roundtrips arbitrary payload sizes.
    #[test]
    fn wire_roundtrip(v in prop::collection::vec(-1e5f32..1e5, 0..300)) {
        let p = ParamVec(v);
        prop_assert_eq!(tinynn::wire::decode(&tinynn::wire::encode(&p)).unwrap(), p);
    }

    /// weighted_average with equal weights equals average.
    #[test]
    fn weighted_equals_plain_for_equal_weights(
        a in prop::collection::vec(-10f32..10.0, 1..64),
        b in prop::collection::vec(-10f32..10.0, 1..64),
    ) {
        let n = a.len().min(b.len());
        let pa = ParamVec(a[..n].to_vec());
        let pb = ParamVec(b[..n].to_vec());
        let plain = ParamVec::average(&[&pa, &pb]);
        let weighted = ParamVec::weighted_average(&[&pa, &pb], &[3.0, 3.0]);
        for (x, y) in plain.as_slice().iter().zip(weighted.as_slice()) {
            prop_assert!((x - y).abs() < 1e-5);
        }
    }

    /// Parameter flatten/assign roundtrips through a fresh model.
    #[test]
    fn param_roundtrip_preserves_prediction(seed in any::<u64>(), x in prop::collection::vec(-2f32..2.0, 6)) {
        let mut rng = tinynn::rng::seeded(seed);
        let src = tinynn::zoo::mlp(6, &[5], 3, &mut rng);
        let mut dst = tinynn::zoo::mlp(6, &[5], 3, &mut tinynn::rng::seeded(seed ^ 1));
        ParamVec::from_model(&src).assign_to(&mut dst);
        let xt = Tensor::from_vec(vec![1, 6], x);
        let a = src.predict(&xt);
        let b = dst.predict(&xt);
        prop_assert_eq!(a.as_slice(), b.as_slice());
    }
}
