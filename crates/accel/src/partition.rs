//! The Fig. 4 matrix-partitioning scheme.
//!
//! Table I's structural pattern (`d_model = 64h`, `d_ff = 256h`) means
//! the three large weight matrices split exactly into 64-column panels:
//!
//! * `W_G  (d_model × d_model)` → `h` panels `W_G1..W_Gh`;
//! * `W_1  (d_model × d_ff)`    → `4h` panels `W_11..W_1,4h`;
//! * `W_2  (d_ff × d_model)`    → `h` panels `W_21..W_2h`;
//!
//! so every GEMM in both ResBlocks fits the one `s × 64` systolic array.
//! The only exception is `Q_i K_i^T`, whose output has `s` columns:
//! zero-pad `K_i` when `s < 64`, tile the output into `ceil(s/64)`
//! passes when `s > 64` (Section III).

use tensor::{gemm, Mat, ShapeError};

/// Width of every weight panel (= systolic-array columns = `d_k`).
pub const PANEL_COLS: usize = 64;

/// Splits a weight matrix into 64-column panels (Fig. 4).
///
/// # Example
///
/// ```
/// use accel::partition::weight_panels;
/// // Transformer-base W_1 (512 x 2048) -> 4h = 32 panels
/// let w1 = tensor::Mat::<i8>::zeros(512, 2048);
/// assert_eq!(weight_panels(&w1).len(), 32);
/// ```
///
/// # Panics
///
/// Panics if the width is not a multiple of 64 — the Table-I pattern the
/// partitioning method relies on.
pub fn weight_panels<T: Copy + Default>(w: &Mat<T>) -> Vec<Mat<T>> {
    assert_eq!(
        w.cols() % PANEL_COLS,
        0,
        "weight width {} is not a multiple of {PANEL_COLS}; \
         the Fig. 4 partitioning requires the d_model = 64h pattern",
        w.cols()
    );
    w.col_panels(PANEL_COLS)
}

/// Expected panel counts for the three large matrices of a model with
/// `h` heads: `(W_G, W_1, W_2) = (h, 4h, h)`.
pub fn expected_panel_counts(h: usize) -> (usize, usize, usize) {
    (h, 4 * h, h)
}

/// Computes `x · w` panel-by-panel with `i32` accumulation, exactly as
/// the systolic array sweeps Fig. 4's panels, and reassembles the
/// result. Bit-identical to the monolithic GEMM (verified by property
/// tests).
///
/// # Errors
///
/// Returns [`ShapeError`] if `x.cols() != w.rows()`.
///
/// # Panics
///
/// Panics if `w.cols()` is not a multiple of 64.
pub fn partitioned_matmul_i8(x: &Mat<i8>, w: &Mat<i8>) -> Result<Mat<i32>, ShapeError> {
    if x.cols() != w.rows() {
        return Err(ShapeError::new(
            "partitioned_matmul_i8",
            x.shape(),
            w.shape(),
        ));
    }
    let panels = weight_panels(w);
    let mut outs = Vec::with_capacity(panels.len());
    for p in &panels {
        outs.push(gemm::matmul_i8(x, p)?);
    }
    Mat::hconcat(&outs)
}

/// The execution plan for `Q_i K_i^T` on an `s × 64` array
/// (Section III's padding/tiling rule).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QkPlan {
    /// Rows of `K_i` after zero-padding (only when `s < 64`).
    pub padded_k_rows: usize,
    /// Number of array passes (output-column tiles of width ≤ 64).
    pub tiles: usize,
}

/// Plans the `Q_i K_i^T` operation for sequence length `s`.
///
/// # Panics
///
/// Panics if `s == 0`.
///
/// # Example
///
/// ```
/// use accel::partition::qk_plan;
/// assert_eq!(qk_plan(16).padded_k_rows, 64); // zero-pad K_i
/// assert_eq!(qk_plan(128).tiles, 2);         // two output tiles
/// ```
pub fn qk_plan(s: usize) -> QkPlan {
    assert!(s > 0, "sequence length must be positive");
    if s <= PANEL_COLS {
        QkPlan {
            padded_k_rows: PANEL_COLS,
            tiles: 1,
        }
    } else {
        QkPlan {
            padded_k_rows: s,
            tiles: s.div_ceil(PANEL_COLS),
        }
    }
}

/// Executes `q · kᵀ` according to [`qk_plan`]: pads `k` with zero rows
/// when `s < 64`, tiles the output columns when `s > 64`, and returns
/// the exact `s × s` score accumulators (padding columns discarded).
///
/// # Errors
///
/// Returns [`ShapeError`] if `q.cols() != k.cols()`.
pub fn qk_matmul_i8(q: &Mat<i8>, k: &Mat<i8>) -> Result<Mat<i32>, ShapeError> {
    if q.cols() != k.cols() {
        return Err(ShapeError::new("qk_matmul_i8", q.shape(), k.shape()));
    }
    let tiles = (0..qk_plan(k.rows()).tiles)
        .map(|t| gemm::matmul_i8_nt(q, &qk_tile(k, t)))
        .collect::<Result<Vec<_>, _>>()?;
    Mat::hconcat(&tiles)?.submatrix(0, 0, q.rows(), k.rows())
}

/// The key rows score tile `tile` of [`qk_plan`]`(k.rows())` streams:
/// all of `k` zero-padded to 64 rows when `s < 64` (the extra output
/// columns are zero products, cropped by the caller), otherwise the
/// tile's own rows, at most 64.
///
/// # Panics
///
/// Panics if `tile` is outside the plan.
pub fn qk_tile(k: &Mat<i8>, tile: usize) -> Mat<i8> {
    let plan = qk_plan(k.rows());
    assert!(tile < plan.tiles, "tile {tile} out of plan");
    if plan.padded_k_rows > k.rows() {
        return k.padded(plan.padded_k_rows, k.cols());
    }
    let r0 = tile * PANEL_COLS;
    let rows = PANEL_COLS.min(k.rows() - r0);
    k.submatrix(r0, 0, rows, k.cols()).expect("tile in range")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use transformer::config::ModelConfig;

    #[test]
    fn panel_counts_match_fig4_for_table1() {
        for cfg in ModelConfig::table1() {
            let (wg, w1, w2) = expected_panel_counts(cfg.h);
            let wg_m = Mat::<i8>::zeros(cfg.d_model, cfg.d_model);
            let w1_m = Mat::<i8>::zeros(cfg.d_model, cfg.d_ff);
            let w2_m = Mat::<i8>::zeros(cfg.d_ff, cfg.d_model);
            assert_eq!(weight_panels(&wg_m).len(), wg, "{} W_G", cfg.name);
            assert_eq!(weight_panels(&w1_m).len(), w1, "{} W_1", cfg.name);
            assert_eq!(weight_panels(&w2_m).len(), w2, "{} W_2", cfg.name);
        }
    }

    #[test]
    fn partitioned_gemm_is_bit_identical() {
        let mut rng = StdRng::seed_from_u64(1);
        let x = tensor::init::uniform_i8(&mut rng, 16, 128);
        let w = tensor::init::uniform_i8(&mut rng, 128, 256);
        let full = gemm::matmul_i8(&x, &w).unwrap();
        let parts = partitioned_matmul_i8(&x, &w).unwrap();
        assert_eq!(full, parts);
    }

    #[test]
    #[should_panic(expected = "multiple of 64")]
    fn non_64h_width_rejected() {
        let w = Mat::<i8>::zeros(8, 100);
        let _ = weight_panels(&w);
    }

    #[test]
    fn qk_plan_pads_small_sequences() {
        assert_eq!(
            qk_plan(16),
            QkPlan {
                padded_k_rows: 64,
                tiles: 1
            }
        );
        assert_eq!(
            qk_plan(64),
            QkPlan {
                padded_k_rows: 64,
                tiles: 1
            }
        );
    }

    #[test]
    fn qk_plan_tiles_long_sequences() {
        assert_eq!(
            qk_plan(65),
            QkPlan {
                padded_k_rows: 65,
                tiles: 2
            }
        );
        assert_eq!(
            qk_plan(128),
            QkPlan {
                padded_k_rows: 128,
                tiles: 2
            }
        );
        assert_eq!(
            qk_plan(200),
            QkPlan {
                padded_k_rows: 200,
                tiles: 4
            }
        );
    }

    #[test]
    fn qk_matmul_matches_direct_for_all_regimes() {
        let mut rng = StdRng::seed_from_u64(2);
        for &s in &[1usize, 7, 63, 64, 65, 100, 128, 130] {
            let q = tensor::init::uniform_i8(&mut rng, s, 64);
            let k = tensor::init::uniform_i8(&mut rng, s, 64);
            let direct = gemm::matmul_i8_nt(&q, &k).unwrap();
            let planned = qk_matmul_i8(&q, &k).unwrap();
            assert_eq!(direct, planned, "s={s}");
        }
    }

    #[test]
    fn qk_matmul_rejects_width_mismatch() {
        let q = Mat::<i8>::zeros(4, 64);
        let k = Mat::<i8>::zeros(4, 32);
        assert!(qk_matmul_i8(&q, &k).is_err());
    }
}
