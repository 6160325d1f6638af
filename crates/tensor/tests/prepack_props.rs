//! Property tests for the weight-stationary path: prepacked GEMM/GEMV
//! entry points, the persistent-pool determinism guarantee, and the
//! SIMD-vs-scalar kernel identity.
//!
//! The invariant under test everywhere is **bit-identity**: packing a
//! weight matrix once ([`tensor::prepack::PackedMat`]), changing the
//! worker count, or swapping the scalar kernels for the AVX2
//! microkernels must never change a single output bit relative to the
//! per-call-packed kernels and the naive references.
//!
//! The override hooks ([`par::set_thread_override`],
//! [`simd::set_simd_override`]) are process-global; the tests that flip
//! them restore the ambient state before returning, and flipping them
//! concurrently with the other tests in this binary is harmless
//! *because* of the very bit-identity they assert.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use tensor::prepack::{self, PackedI8, PackedMat};
use tensor::{gemm, init, par, simd, Mat};

fn bits(m: &Mat<f32>) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn check_prepacked_f32(m: usize, k: usize, n: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let a = init::uniform(&mut rng, m, k, -2.0, 2.0);
    let b = init::uniform(&mut rng, k, n, -2.0, 2.0);
    let packed = PackedMat::from_f32(&b);
    let want = gemm::matmul_ref(&a, &b).unwrap();
    assert_eq!(
        bits(&gemm::matmul(&a, &b).unwrap()),
        bits(&want),
        "matmul ({m},{k},{n})"
    );
    assert_eq!(
        bits(&prepack::matmul_prepacked(&a, &packed).unwrap()),
        bits(&want),
        "prepacked ({m},{k},{n})"
    );
    for t in [1usize, 2, 3, 8] {
        let got = prepack::matmul_prepacked_with_threads(&a, &packed, t).unwrap();
        assert_eq!(bits(&got), bits(&want), "prepacked ({m},{k},{n}) t={t}");
    }
}

fn check_prepacked_i8(m: usize, k: usize, n: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let a = init::uniform_i8(&mut rng, m, k);
    let b = init::uniform_i8(&mut rng, k, n);
    let packed = PackedI8::from_i8(&b);
    let want = gemm::matmul_i8_ref(&a, &b).unwrap();
    assert_eq!(
        gemm::matmul_i8(&a, &b).unwrap(),
        want,
        "matmul_i8 ({m},{k},{n})"
    );
    assert_eq!(
        prepack::matmul_i8_prepacked(&a, &packed).unwrap(),
        want,
        "prepacked_i8 ({m},{k},{n})"
    );
    for t in [1usize, 2, 3, 8] {
        let got = prepack::matmul_i8_prepacked_with_threads(&a, &packed, t).unwrap();
        assert_eq!(got, want, "prepacked_i8 ({m},{k},{n}) t={t}");
    }
}

/// The column-range fused GEMM (`cols = c0 .. c0 + width` of the
/// resident pack, identity epilogue) against a per-call GEMM of the
/// copied column slice, for the auto-threaded entry point and several
/// explicit worker counts.
fn check_prepacked_cols_i8(m: usize, k: usize, n: usize, c0: usize, width: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let a = init::uniform_i8(&mut rng, m, k);
    let b = init::uniform_i8(&mut rng, k, n);
    let packed = PackedI8::from_i8(&b);
    let want = gemm::matmul_i8(&a, &b.submatrix(0, c0, k, width).unwrap()).unwrap();
    let copy = |_r: usize, acc: &[i32], out: &mut [i32]| out.copy_from_slice(acc);
    let cols = c0..c0 + width;
    let got = prepack::matmul_i8_prepacked_fused_cols(&a, &packed, cols.clone(), copy).unwrap();
    assert_eq!(got, want, "cols ({m},{k},{n}) {cols:?}");
    for t in [1usize, 2, 3] {
        let got =
            prepack::matmul_i8_prepacked_cols_epilogue(&a, &packed, cols.clone(), t, copy).unwrap();
        assert_eq!(got, want, "cols ({m},{k},{n}) {cols:?} t={t}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prepacked_f32_bit_identical((m, k, n) in (1usize..24, 1usize..48, 1usize..40), seed in 0u64..1000) {
        check_prepacked_f32(m, k, n, seed);
    }

    #[test]
    fn prepacked_i8_bit_identical((m, k, n) in (1usize..24, 1usize..48, 1usize..40), seed in 0u64..1000) {
        check_prepacked_i8(m, k, n, seed);
    }

    #[test]
    fn prepacked_gemv_bit_identical((k, n) in (1usize..96, 1usize..80), seed in 0u64..1000) {
        // The m = 1 decode shape takes the dedicated GEMV kernel.
        check_prepacked_i8(1, k, n, seed);
        check_prepacked_f32(1, k, n, seed);
    }

    #[test]
    fn prepacked_cols_i8_bit_identical(
        (m, k, n) in (1usize..20, 1usize..72, 1usize..80),
        (c0, width) in (0usize..80, 0usize..80),
        seed in 0u64..1000,
    ) {
        // Any non-empty range of `0 .. n`: `c0` lands on or off a
        // 16-lane tile boundary and the range may end in the ragged
        // last tile.
        let c0 = c0 % n;
        let width = 1 + width % (n - c0);
        check_prepacked_cols_i8(m, k, n, c0, width, seed);
        check_prepacked_cols_i8(1, k, n, c0, width, seed);
    }
}

/// Shapes that straddle the microkernel boundaries: NR = 16 lanes,
/// MR = 4 rows, and the GEMV tile-pair loop (odd/even tile counts).
#[test]
fn prepacked_pinned_boundary_shapes() {
    let shapes = [
        (1usize, 1usize, 1usize),
        (1, 512, 64),   // batch-1 decode projection
        (1, 64, 512),   // wide GEMV, even tile count
        (1, 64, 48),    // odd tile count with full last tile
        (1, 64, 17),    // two tiles, ragged last
        (1, 64, 16),    // exactly one tile
        (1, 64, 15),    // single ragged tile
        (4, 512, 64),   // one full MR quad
        (5, 37, 33),    // quad + remainder row, ragged tiles
        (16, 512, 512), // issue's decode-batch upper shape
    ];
    for (i, &(m, k, n)) in shapes.iter().enumerate() {
        let seed = 100 + i as u64;
        check_prepacked_i8(m, k, n, seed);
        check_prepacked_f32(m, k, n, seed);
    }
}

/// Column ranges at the partition shapes the ISA interpreter runs:
/// aligned `64`-wide panels of the paper's `512 x 2048` FFN weight,
/// `d_k = 8` head panels off the 16-lane tile grid, a ragged last panel
/// of a 300-wide weight, an empty range, and ranges that leave `0 .. n`.
#[test]
fn prepacked_cols_partition_shapes() {
    let cases = [
        (8usize, 512usize, 2048usize, 0usize, 64usize),
        (64, 512, 2048, 1984, 64),
        (1, 512, 512, 448, 64),
        (8, 32, 32, 8, 8),
        (8, 32, 32, 24, 8),
        (1, 30, 32, 8, 8),
        (5, 100, 300, 256, 44),
        (9, 300, 100, 64, 36),
    ];
    for (i, &(m, k, n, c0, width)) in cases.iter().enumerate() {
        check_prepacked_cols_i8(m, k, n, c0, width, 300 + i as u64);
    }
    let packed = PackedI8::from_i8(&Mat::<i8>::zeros(8, 20));
    let a = Mat::<i8>::zeros(3, 8);
    let copy = |_r: usize, acc: &[i32], out: &mut [i32]| out.copy_from_slice(acc);
    let empty = prepack::matmul_i8_prepacked_fused_cols(&a, &packed, 7..7, copy).unwrap();
    assert_eq!(empty.shape(), (3, 0));
    assert!(prepack::matmul_i8_prepacked_fused_cols(&a, &packed, 16..21, copy).is_err());
    assert!(
        prepack::matmul_i8_prepacked_fused_cols(&Mat::zeros(3, 7), &packed, 0..4, copy).is_err()
    );
}

/// The same workloads, run with the pool pinned to 1, 2 and 7 workers
/// through the `ACCEL_THREADS` override hook, must agree bit for bit —
/// the issue's pool-determinism requirement.
#[test]
fn pool_is_deterministic_across_thread_counts() {
    let mut rng = StdRng::seed_from_u64(42);
    // Big enough to clear SERIAL_CUTOFF_MACS so auto-threaded entry
    // points actually hit the pool.
    let a = init::uniform(&mut rng, 96, 128, -2.0, 2.0);
    let b = init::uniform(&mut rng, 128, 80, -2.0, 2.0);
    let ai = init::uniform_i8(&mut rng, 96, 128);
    let bi = init::uniform_i8(&mut rng, 128, 80);
    let packed_f = PackedMat::from_f32(&b);
    let packed_i = PackedI8::from_i8(&bi);
    let items: Vec<u64> = (0..100).collect();

    let run = || {
        (
            bits(&gemm::matmul(&a, &b).unwrap()),
            gemm::matmul_i8(&ai, &bi).unwrap(),
            bits(&prepack::matmul_prepacked(&a, &packed_f).unwrap()),
            prepack::matmul_i8_prepacked(&ai, &packed_i).unwrap(),
            par::par_map(&items, |x| x.wrapping_mul(0x9e37_79b9).rotate_left(13)),
        )
    };

    par::set_thread_override(Some(1));
    let baseline = run();
    for t in [2usize, 7] {
        par::set_thread_override(Some(t));
        let got = run();
        assert_eq!(got.0, baseline.0, "f32 GEMM diverged at {t} threads");
        assert_eq!(got.1, baseline.1, "i8 GEMM diverged at {t} threads");
        assert_eq!(got.2, baseline.2, "prepacked f32 diverged at {t} threads");
        assert_eq!(got.3, baseline.3, "prepacked i8 diverged at {t} threads");
        assert_eq!(got.4, baseline.4, "par_map diverged at {t} threads");
    }
    par::set_thread_override(None);
}

/// Forcing the scalar kernels and forcing the SIMD kernels (where the
/// hardware has them) must produce bit-identical INT8 results, GEMM and
/// GEMV alike.
#[test]
fn simd_and_scalar_kernels_agree() {
    let mut rng = StdRng::seed_from_u64(77);
    for &(m, k, n) in &[
        (1usize, 512usize, 512usize),
        (1, 33, 17),
        (8, 512, 64),
        (13, 96, 130),
    ] {
        let a = init::uniform_i8(&mut rng, m, k);
        let b = init::uniform_i8(&mut rng, k, n);
        let packed = PackedI8::from_i8(&b);

        simd::set_simd_override(Some(false));
        let scalar_plain = gemm::matmul_i8(&a, &b).unwrap();
        let scalar_packed = prepack::matmul_i8_prepacked(&a, &packed).unwrap();

        simd::set_simd_override(Some(true));
        let simd_plain = gemm::matmul_i8(&a, &b).unwrap();
        let simd_packed = prepack::matmul_i8_prepacked(&a, &packed).unwrap();

        simd::set_simd_override(None);
        let want = gemm::matmul_i8_ref(&a, &b).unwrap();
        assert_eq!(scalar_plain, want, "scalar ({m},{k},{n})");
        assert_eq!(scalar_packed, want, "scalar prepacked ({m},{k},{n})");
        assert_eq!(simd_plain, want, "simd ({m},{k},{n})");
        assert_eq!(simd_packed, want, "simd prepacked ({m},{k},{n})");
    }
}
