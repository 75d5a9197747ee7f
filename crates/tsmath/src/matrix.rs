//! Row-major dense matrix with the handful of operations the forecasting
//! stack needs: multiplication, transpose, LU solve, Cholesky, and least
//! squares. Not a general linear-algebra library — just the substrate the
//! ARIMA / regression / neural-net code sits on.

use crate::vector;

/// A dense row-major `rows × cols` matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Matrix filled with a constant.
    pub fn filled(rows: usize, cols: usize, v: f64) -> Self {
        Self { rows, cols, data: vec![v; rows * cols] }
    }

    /// Build from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "from_vec: buffer size mismatch");
        Self { rows, cols, data }
    }

    /// Build from a slice of equal-length rows.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "from_rows: ragged rows");
            data.extend_from_slice(row);
        }
        Self { rows: r, cols: c, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow the raw row-major buffer.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Borrow row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index out of range");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r` as a slice.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row index out of range");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Transpose into a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// Matrix product `self * other`.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul: inner dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                // exact-zero sparsity skip: axpy with a == ±0 is a no-op, an epsilon would change results
                if a == 0.0 {
                    continue;
                }
                let orow = &other.data[k * other.cols..(k + 1) * other.cols];
                let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
                vector::axpy(a, orow, out_row);
            }
        }
        out
    }

    /// Matrix-vector product `self * x`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, x.len(), "matvec: dimension mismatch");
        (0..self.rows).map(|r| vector::dot(self.row(r), x)).collect()
    }

    /// Solve `A x = b` via LU decomposition with partial pivoting.
    ///
    /// Returns `None` when the matrix is (numerically) singular.
    pub fn solve(&self, b: &[f64]) -> Option<Vec<f64>> {
        assert_eq!(self.rows, self.cols, "solve: matrix must be square");
        assert_eq!(self.rows, b.len(), "solve: rhs dimension mismatch");
        let n = self.rows;
        let mut a = self.clone();
        let mut x: Vec<f64> = b.to_vec();

        for col in 0..n {
            // Partial pivoting: find the row with the largest magnitude pivot.
            let mut pivot_row = col;
            let mut pivot_val = a[(col, col)].abs();
            for r in col + 1..n {
                let v = a[(r, col)].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val < 1e-300 {
                return None;
            }
            if pivot_row != col {
                for c in 0..n {
                    let tmp = a[(col, c)];
                    a[(col, c)] = a[(pivot_row, c)];
                    a[(pivot_row, c)] = tmp;
                }
                x.swap(col, pivot_row);
            }
            let pivot = a[(col, col)];
            for r in col + 1..n {
                let factor = a[(r, col)] / pivot;
                // exact-zero elimination skip: a zero factor row-op is a no-op, an epsilon would change results
                if factor == 0.0 {
                    continue;
                }
                a[(r, col)] = 0.0;
                for c in col + 1..n {
                    let v = a[(col, c)];
                    a[(r, c)] -= factor * v;
                }
                x[r] -= factor * x[col];
            }
        }
        // Back substitution.
        for col in (0..n).rev() {
            let mut s = x[col];
            for c in col + 1..n {
                s -= a[(col, c)] * x[c];
            }
            x[col] = s / a[(col, col)];
        }
        Some(x)
    }

    /// Ordinary least squares: minimise `‖A x − b‖₂` via the normal equations
    /// with a small ridge term `lambda` on the diagonal for conditioning.
    ///
    /// Returns `None` when even the regularised system is singular.
    pub fn least_squares(&self, b: &[f64], lambda: f64) -> Option<Vec<f64>> {
        assert_eq!(self.rows, b.len(), "least_squares: rhs dimension mismatch");
        let at = self.transpose();
        let mut ata = at.matmul(self);
        for i in 0..ata.rows() {
            ata[(i, i)] += lambda;
        }
        let atb = at.matvec(b);
        ata.solve(&atb)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols, "matrix index out of range");
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols, "matrix index out of range");
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[vec![7.0, 8.0], vec![9.0, 10.0], vec![11.0, 12.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[vec![58.0, 64.0], vec![139.0, 154.0]]));
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().rows(), 3);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(a.matvec(&[5.0, 6.0]), vec![17.0, 39.0]);
    }

    #[test]
    fn solve_recovers_solution() {
        let a = Matrix::from_rows(&[vec![2.0, 1.0, -1.0], vec![-3.0, -1.0, 2.0], vec![-2.0, 1.0, 2.0]]);
        let x = a.solve(&[8.0, -11.0, -3.0]).unwrap();
        let expect = [2.0, 3.0, -1.0];
        for (xi, ei) in x.iter().zip(&expect) {
            assert!((xi - ei).abs() < 1e-10, "{x:?}");
        }
    }

    #[test]
    fn solve_needs_pivoting() {
        // Zero on the initial pivot position forces a row swap.
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let x = a.solve(&[3.0, 4.0]).unwrap();
        assert!((x[0] - 4.0).abs() < 1e-12 && (x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solve_singular_returns_none() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert!(a.solve(&[1.0, 2.0]).is_none());
    }

    #[test]
    fn least_squares_fits_line() {
        // y = 2x + 1 exactly; design matrix [x, 1].
        let a = Matrix::from_rows(&[
            vec![0.0, 1.0],
            vec![1.0, 1.0],
            vec![2.0, 1.0],
            vec![3.0, 1.0],
        ]);
        let b = [1.0, 3.0, 5.0, 7.0];
        let beta = a.least_squares(&b, 0.0).unwrap();
        assert!((beta[0] - 2.0).abs() < 1e-10);
        assert!((beta[1] - 1.0).abs() < 1e-10);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_dim_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
