use std::fmt;
use std::ops::{Index, IndexMut};

use serde::{Deserialize, Serialize};

use crate::ShapeError;

/// An owned, row-major, two-dimensional array.
///
/// `Mat` is deliberately simple: contiguous storage, shape carried at
/// runtime, and shape-checked fallible operations. It is the common
/// currency between the floating-point reference model, the INT8
/// quantized datapath and the cycle-level accelerator simulator.
///
/// # Example
///
/// ```
/// use tensor::Mat;
///
/// let m = Mat::from_fn(2, 2, |r, c| (r + c) as i32);
/// assert_eq!(m[(1, 1)], 2);
/// assert_eq!(m.row(0), &[0, 1]);
/// ```
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Mat<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Copy + Default> Mat<T> {
    /// Creates a `rows x cols` matrix filled with `T::default()`.
    ///
    /// # Example
    ///
    /// ```
    /// let z = tensor::Mat::<f32>::zeros(3, 4);
    /// assert_eq!(z.shape(), (3, 4));
    /// assert_eq!(z[(2, 3)], 0.0);
    /// ```
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![T::default(); rows * cols],
        }
    }

    /// Creates a matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: T) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a matrix from a generator called as `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Returns a copy of column `c` as a `Vec`.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.cols()`.
    pub fn col(&self, c: usize) -> Vec<T> {
        assert!(c < self.cols, "column {c} out of bounds ({})", self.cols);
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Returns the transpose as a new matrix.
    pub fn transposed(&self) -> Self {
        Mat::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Copies the rectangle starting at (`r0`, `c0`) with shape
    /// `rows x cols` into a new matrix.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the rectangle does not fit.
    pub fn submatrix(
        &self,
        r0: usize,
        c0: usize,
        rows: usize,
        cols: usize,
    ) -> Result<Self, ShapeError> {
        if r0 + rows > self.rows || c0 + cols > self.cols {
            return Err(ShapeError::new(
                "submatrix",
                (self.rows, self.cols),
                (r0 + rows, c0 + cols),
            ));
        }
        Ok(Mat::from_fn(rows, cols, |r, c| self[(r0 + r, c0 + c)]))
    }

    /// Splits the matrix into consecutive column panels of width
    /// `panel_cols`; the final panel may be narrower if the width does not
    /// divide evenly.
    ///
    /// This is the primitive behind the paper's Fig. 4 weight partitioning.
    pub fn col_panels(&self, panel_cols: usize) -> Vec<Self> {
        assert!(panel_cols > 0, "panel width must be positive");
        let mut out = Vec::new();
        let mut c0 = 0;
        while c0 < self.cols {
            let w = panel_cols.min(self.cols - c0);
            out.push(
                self.submatrix(0, c0, self.rows, w)
                    .expect("panel must be in range"),
            );
            c0 += w;
        }
        out
    }

    /// Concatenates matrices left-to-right. All inputs must share a row
    /// count.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `parts` is empty or row counts differ.
    pub fn hconcat(parts: &[Self]) -> Result<Self, ShapeError> {
        let first = parts
            .first()
            .ok_or(ShapeError::new("hconcat", (0, 0), (0, 0)))?;
        let rows = first.rows;
        let mut cols = 0;
        for p in parts {
            if p.rows != rows {
                return Err(ShapeError::new("hconcat", (rows, first.cols), p.shape()));
            }
            cols += p.cols;
        }
        let mut out = Mat::zeros(rows, cols);
        let mut c0 = 0;
        for p in parts {
            for r in 0..rows {
                for c in 0..p.cols {
                    out[(r, c0 + c)] = p[(r, c)];
                }
            }
            c0 += p.cols;
        }
        Ok(out)
    }

    /// Concatenates matrices top-to-bottom. All inputs must share a column
    /// count.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `parts` is empty or column counts differ.
    pub fn vconcat(parts: &[Self]) -> Result<Self, ShapeError> {
        let first = parts
            .first()
            .ok_or(ShapeError::new("vconcat", (0, 0), (0, 0)))?;
        let cols = first.cols;
        let mut rows = 0;
        for p in parts {
            if p.cols != cols {
                return Err(ShapeError::new("vconcat", (first.rows, cols), p.shape()));
            }
            rows += p.rows;
        }
        let mut out = Mat::zeros(rows, cols);
        let mut r0 = 0;
        for p in parts {
            for r in 0..p.rows {
                out.row_mut(r0 + r).copy_from_slice(p.row(r));
            }
            r0 += p.rows;
        }
        Ok(out)
    }

    /// Returns a copy zero-padded (with `T::default()`) to `rows x cols`.
    ///
    /// # Panics
    ///
    /// Panics if the target shape is smaller than the current shape.
    pub fn padded(&self, rows: usize, cols: usize) -> Self {
        assert!(
            rows >= self.rows && cols >= self.cols,
            "padded target {rows}x{cols} smaller than {}x{}",
            self.rows,
            self.cols
        );
        let mut out = Mat::zeros(rows, cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(r, c)] = self[(r, c)];
            }
        }
        out
    }
}

impl<T> Mat<T> {
    /// Creates a matrix from a row-major `Vec`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Result<Self, ShapeError> {
        if data.len() != rows * cols {
            return Err(ShapeError::new("from_vec", (rows, cols), (data.len(), 1)));
        }
        Ok(Self { rows, cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow of row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[T] {
        assert!(r < self.rows, "row {r} out of bounds ({})", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [T] {
        assert!(r < self.rows, "row {r} out of bounds ({})", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row-major view of the whole backing storage.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable row-major view of the whole backing storage.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consumes the matrix, returning the backing `Vec` in row-major order.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Iterates over rows as slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[T]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Applies `f` elementwise, producing a new matrix.
    pub fn map<U>(&self, f: impl FnMut(&T) -> U) -> Mat<U> {
        Mat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(f).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn apply(&mut self, mut f: impl FnMut(&mut T)) {
        for v in &mut self.data {
            f(v);
        }
    }
}

impl<T> Index<(usize, usize)> for Mat<T> {
    type Output = T;

    fn index(&self, (r, c): (usize, usize)) -> &T {
        debug_assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl<T> IndexMut<(usize, usize)> for Mat<T> {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut T {
        debug_assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

impl<T: fmt::Debug> fmt::Debug for Mat<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mat {}x{} [", self.rows, self.cols)?;
        const MAX_SHOWN: usize = 8;
        for r in 0..self.rows.min(MAX_SHOWN) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(MAX_SHOWN) {
                write!(f, "{:?} ", self.data[r * self.cols + c])?;
            }
            if self.cols > MAX_SHOWN {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if self.rows > MAX_SHOWN {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

impl<T: Copy + Default> Default for Mat<T> {
    fn default() -> Self {
        Mat::zeros(0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = Mat::<f32>::zeros(3, 5);
        assert_eq!(m.shape(), (3, 5));
        assert_eq!(m.len(), 15);
        assert!(!m.is_empty());
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_fn_layout_is_row_major() {
        let m = Mat::from_fn(2, 3, |r, c| r * 10 + c);
        assert_eq!(m.as_slice(), &[0, 1, 2, 10, 11, 12]);
        assert_eq!(m[(1, 2)], 12);
    }

    #[test]
    fn from_vec_rejects_bad_len() {
        assert!(Mat::from_vec(2, 2, vec![1, 2, 3]).is_err());
        assert!(Mat::from_vec(2, 2, vec![1, 2, 3, 4]).is_ok());
    }

    #[test]
    fn transpose_involution() {
        let m = Mat::from_fn(3, 4, |r, c| (r * 4 + c) as i32);
        assert_eq!(m.transposed().transposed(), m);
        assert_eq!(m.transposed()[(2, 1)], m[(1, 2)]);
    }

    #[test]
    fn row_and_col_access() {
        let m = Mat::from_fn(2, 3, |r, c| (r * 3 + c) as i32);
        assert_eq!(m.row(1), &[3, 4, 5]);
        assert_eq!(m.col(2), vec![2, 5]);
    }

    #[test]
    fn submatrix_extracts_rectangle() {
        let m = Mat::from_fn(4, 4, |r, c| (r * 4 + c) as i32);
        let s = m.submatrix(1, 2, 2, 2).unwrap();
        assert_eq!(s.as_slice(), &[6, 7, 10, 11]);
        assert!(m.submatrix(3, 3, 2, 2).is_err());
    }

    #[test]
    fn col_panels_cover_matrix() {
        let m = Mat::from_fn(2, 10, |r, c| (r * 10 + c) as i32);
        let panels = m.col_panels(4);
        assert_eq!(panels.len(), 3);
        assert_eq!(panels[0].cols(), 4);
        assert_eq!(panels[2].cols(), 2);
        let back = Mat::hconcat(&panels).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn hconcat_checks_rows() {
        let a = Mat::<i32>::zeros(2, 2);
        let b = Mat::<i32>::zeros(3, 2);
        assert!(Mat::hconcat(&[a, b]).is_err());
        assert!(Mat::<i32>::hconcat(&[]).is_err());
    }

    #[test]
    fn vconcat_stacks() {
        let a = Mat::from_fn(1, 3, |_, c| c as i32);
        let b = Mat::from_fn(2, 3, |r, c| 10 + (r * 3 + c) as i32);
        let v = Mat::vconcat(&[a, b]).unwrap();
        assert_eq!(v.shape(), (3, 3));
        assert_eq!(v.row(0), &[0, 1, 2]);
        assert_eq!(v.row(2), &[13, 14, 15]);
    }

    #[test]
    fn padded_adds_zeros() {
        let m = Mat::from_fn(2, 2, |r, c| (r + c) as i32 + 1);
        let p = m.padded(3, 4);
        assert_eq!(p.shape(), (3, 4));
        assert_eq!(p[(0, 0)], 1);
        assert_eq!(p[(2, 3)], 0);
    }

    #[test]
    #[should_panic(expected = "smaller")]
    fn padded_panics_when_shrinking() {
        Mat::<i32>::zeros(3, 3).padded(2, 4);
    }

    #[test]
    fn map_and_apply() {
        let m = Mat::from_fn(2, 2, |r, c| (r * 2 + c) as i32);
        let d = m.map(|&x| x * 2);
        assert_eq!(d.as_slice(), &[0, 2, 4, 6]);
        let mut m2 = m.clone();
        m2.apply(|x| *x += 1);
        assert_eq!(m2.as_slice(), &[1, 2, 3, 4]);
    }

    #[test]
    fn rows_iter_yields_each_row() {
        let m = Mat::from_fn(3, 2, |r, c| (r * 2 + c) as i32);
        let rows: Vec<&[i32]> = m.rows_iter().collect();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2], &[4, 5]);
    }

    #[test]
    fn debug_is_nonempty() {
        let m = Mat::<i32>::zeros(0, 0);
        assert!(!format!("{m:?}").is_empty());
    }

    #[test]
    fn mat_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Mat<f32>>();
        assert_send_sync::<Mat<i8>>();
    }
}
