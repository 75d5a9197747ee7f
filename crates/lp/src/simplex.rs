//! Two-phase primal simplex on a dense tableau, with Bland's rule to
//! prevent cycling.

use crate::problem::{LpProblem, Relation};

/// Solver failure modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpError {
    /// No feasible point exists.
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
    /// Iteration limit hit (should not happen with Bland's rule; kept as a
    /// defensive backstop).
    IterationLimit,
}

impl std::fmt::Display for LpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LpError::Infeasible => write!(f, "problem is infeasible"),
            LpError::Unbounded => write!(f, "objective is unbounded"),
            LpError::IterationLimit => write!(f, "simplex iteration limit exceeded"),
        }
    }
}

impl std::error::Error for LpError {}

/// An optimal solution.
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    /// Optimal objective value.
    pub objective: f64,
    /// Optimal assignment of the original decision variables.
    pub x: Vec<f64>,
}

const EPS: f64 = 1e-9;
const MAX_ITERS: usize = 100_000;

/// Dense simplex tableau. Rows: one per constraint plus the objective row
/// at the bottom. Columns: structural vars, slack/surplus vars, artificial
/// vars, then the RHS.
struct Tableau {
    rows: usize,
    cols: usize, // includes RHS column
    a: Vec<f64>,
    basis: Vec<usize>,
}

impl Tableau {
    #[inline]
    fn at(&self, r: usize, c: usize) -> f64 {
        self.a[r * self.cols + c]
    }

    #[inline]
    fn at_mut(&mut self, r: usize, c: usize) -> &mut f64 {
        &mut self.a[r * self.cols + c]
    }

    /// Pivot on (row, col): scale the pivot row, eliminate elsewhere.
    fn pivot(&mut self, row: usize, col: usize) {
        let p = self.at(row, col);
        debug_assert!(p.abs() > EPS, "pivot on ~zero element");
        let inv = 1.0 / p;
        for c in 0..self.cols {
            *self.at_mut(row, c) *= inv;
        }
        for r in 0..self.rows {
            if r == row {
                continue;
            }
            let f = self.at(r, col);
            if f.abs() < EPS {
                continue;
            }
            for c in 0..self.cols {
                let v = self.at(row, c);
                *self.at_mut(r, c) -= f * v;
            }
        }
        self.basis[row] = col;
    }

    /// Run simplex on the current objective row (last row), minimising.
    /// `allowed_cols` restricts entering columns.
    fn run(&mut self, allowed_cols: usize) -> Result<(), LpError> {
        let obj = self.rows - 1;
        let mut iters = 0;
        loop {
            // Bland's rule: smallest-index column with negative reduced cost.
            let mut enter = None;
            for c in 0..allowed_cols {
                if self.at(obj, c) < -EPS {
                    enter = Some(c);
                    break;
                }
            }
            let Some(col) = enter else { return Ok(()) };

            // Ratio test, Bland tie-break on basis index.
            let mut leave: Option<(usize, f64)> = None;
            for r in 0..obj {
                let a = self.at(r, col);
                if a > EPS {
                    let ratio = self.at(r, self.cols - 1) / a;
                    match leave {
                        None => leave = Some((r, ratio)),
                        Some((lr, lratio)) => {
                            if ratio < lratio - EPS
                                || (ratio < lratio + EPS && self.basis[r] < self.basis[lr])
                            {
                                leave = Some((r, ratio));
                            }
                        }
                    }
                }
            }
            let Some((row, _)) = leave else { return Err(LpError::Unbounded) };
            self.pivot(row, col);
            iters += 1;
            if iters > MAX_ITERS {
                return Err(LpError::IterationLimit);
            }
        }
    }
}

/// Solve an [`LpProblem`] with the two-phase primal simplex method.
///
/// ```
/// use rpas_lp::{solve, LpProblem, Relation};
/// // min x + y  s.t.  x + 2y ≥ 4,  3x + y ≥ 6.
/// let p = LpProblem::minimize(vec![1.0, 1.0])
///     .constraint(vec![1.0, 2.0], Relation::Ge, 4.0)
///     .constraint(vec![3.0, 1.0], Relation::Ge, 6.0);
/// let s = solve(&p).expect("this LP is feasible and bounded by construction");
/// assert!((s.objective - 2.8).abs() < 1e-7);
/// ```
///
/// # Errors
/// [`LpError::Infeasible`] when no feasible point exists,
/// [`LpError::Unbounded`] when the objective diverges.
pub fn solve(p: &LpProblem) -> Result<LpSolution, LpError> {
    let n = p.n_vars();
    let m = p.constraints().len();

    // Count extra columns.
    let mut n_slack = 0;
    let mut n_art = 0;
    for c in p.constraints() {
        // Normalise rhs >= 0 first (flips the relation).
        let rel = if c.rhs < 0.0 { flip(c.relation) } else { c.relation };
        match rel {
            Relation::Le => n_slack += 1,
            Relation::Ge => {
                n_slack += 1;
                n_art += 1;
            }
            Relation::Eq => n_art += 1,
        }
    }

    let cols = n + n_slack + n_art + 1; // + RHS
    let rows = m + 1; // + objective row
    let mut t = Tableau { rows, cols, a: vec![0.0; rows * cols], basis: vec![usize::MAX; m] };

    let mut slack_idx = n;
    let mut art_idx = n + n_slack;
    let mut art_cols = Vec::new();

    for (r, c) in p.constraints().iter().enumerate() {
        let (coeffs, rhs, rel): (Vec<f64>, f64, Relation) = if c.rhs < 0.0 {
            (c.coeffs.iter().map(|v| -v).collect(), -c.rhs, flip(c.relation))
        } else {
            (c.coeffs.clone(), c.rhs, c.relation)
        };
        for (j, v) in coeffs.iter().enumerate() {
            *t.at_mut(r, j) = *v;
        }
        *t.at_mut(r, cols - 1) = rhs;
        match rel {
            Relation::Le => {
                *t.at_mut(r, slack_idx) = 1.0;
                t.basis[r] = slack_idx;
                slack_idx += 1;
            }
            Relation::Ge => {
                *t.at_mut(r, slack_idx) = -1.0; // surplus
                slack_idx += 1;
                *t.at_mut(r, art_idx) = 1.0;
                t.basis[r] = art_idx;
                art_cols.push(art_idx);
                art_idx += 1;
            }
            Relation::Eq => {
                *t.at_mut(r, art_idx) = 1.0;
                t.basis[r] = art_idx;
                art_cols.push(art_idx);
                art_idx += 1;
            }
        }
    }


    // Phase 1: minimise the sum of artificial variables.
    if n_art > 0 {
        let obj = rows - 1;
        for &ac in &art_cols {
            *t.at_mut(obj, ac) = 1.0;
        }
        // Make the objective row consistent with the basic artificials:
        // subtract each artificial's row.
        for r in 0..m {
            if art_cols.contains(&t.basis[r]) {
                for c in 0..cols {
                    let v = t.at(r, c);
                    *t.at_mut(obj, c) -= v;
                }
            }
        }
        t.run(cols - 1)?;
        let phase1_obj = -t.at(rows - 1, cols - 1);
        if phase1_obj > 1e-7 {
            return Err(LpError::Infeasible);
        }
        // Drive any artificial still in the basis out (degenerate zero row).
        for r in 0..m {
            if art_cols.contains(&t.basis[r]) {
                // Find a non-artificial column with nonzero coefficient.
                let mut pivoted = false;
                for c in 0..n + n_slack {
                    if t.at(r, c).abs() > EPS {
                        t.pivot(r, c);
                        pivoted = true;
                        break;
                    }
                }
                if !pivoted {
                    // Whole row is zero: the constraint was redundant.
                    // Leave the artificial basic at value 0; it cannot
                    // re-enter because phase 2 restricts entering columns.
                    debug_assert!(t.at(r, cols - 1).abs() < 1e-7);
                }
            }
        }
        // Reset the objective row for phase 2.
        for c in 0..cols {
            *t.at_mut(rows - 1, c) = 0.0;
        }
    }

    // Phase 2: install the real objective, reduced by the current basis.
    {
        let obj = rows - 1;
        for (j, &cj) in p.objective().iter().enumerate() {
            *t.at_mut(obj, j) = cj;
        }
        for r in 0..m {
            let b = t.basis[r];
            if b == usize::MAX {
                continue;
            }
            let cb = if b < n { p.objective()[b] } else { 0.0 };
            // exact-zero cost skip: adding a zero objective coefficient is a no-op, an epsilon would change reduced costs
            if cb != 0.0 {
                for c in 0..cols {
                    let v = t.at(r, c);
                    *t.at_mut(obj, c) -= cb * v;
                }
            }
        }
        // Entering columns restricted to structural + slack (no artificials).
        t.run(n + n_slack)?;
    }

    // Read off the solution.
    let mut x = vec![0.0; n];
    for r in 0..m {
        let b = t.basis[r];
        if b < n {
            x[b] = t.at(r, cols - 1);
        }
    }
    let objective = p.objective().iter().zip(&x).map(|(c, v)| c * v).sum();
    Ok(LpSolution { objective, x })
}

fn flip(r: Relation) -> Relation {
    match r {
        Relation::Le => Relation::Ge,
        Relation::Ge => Relation::Le,
        Relation::Eq => Relation::Eq,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{LpProblem, Relation::*};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-7, "{a} vs {b}");
    }

    #[test]
    fn simple_ge_problem() {
        // min x + y s.t. x + 2y >= 4, 3x + y >= 6  =>  x=1.6, y=1.2, obj=2.8.
        let p = LpProblem::minimize(vec![1.0, 1.0])
            .constraint(vec![1.0, 2.0], Ge, 4.0)
            .constraint(vec![3.0, 1.0], Ge, 6.0);
        let s = solve(&p).expect("this LP is feasible and bounded by construction");
        assert_close(s.objective, 2.8);
        assert_close(s.x[0], 1.6);
        assert_close(s.x[1], 1.2);
    }

    #[test]
    fn le_only_problem_trivially_zero() {
        // min x + y s.t. x ≤ 5, y ≤ 3: optimum at the origin.
        let p = LpProblem::minimize(vec![1.0, 1.0])
            .constraint(vec![1.0, 0.0], Le, 5.0)
            .constraint(vec![0.0, 1.0], Le, 3.0);
        let s = solve(&p).expect("this LP is feasible and bounded by construction");
        assert_close(s.objective, 0.0);
    }

    #[test]
    fn maximisation_via_negated_costs() {
        // max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18 (classic Dantzig):
        // optimum (2, 6), value 36.
        let p = LpProblem::minimize(vec![-3.0, -5.0])
            .constraint(vec![1.0, 0.0], Le, 4.0)
            .constraint(vec![0.0, 2.0], Le, 12.0)
            .constraint(vec![3.0, 2.0], Le, 18.0);
        let s = solve(&p).expect("this LP is feasible and bounded by construction");
        assert_close(s.objective, -36.0);
        assert_close(s.x[0], 2.0);
        assert_close(s.x[1], 6.0);
    }

    #[test]
    fn equality_constraints() {
        // min 2x + 3y s.t. x + y = 10, x >= 2  =>  x = 10, y = 0? cost 2x+3y,
        // prefer all x: x=10,y=0 satisfies x>=2, obj=20.
        let p = LpProblem::minimize(vec![2.0, 3.0])
            .constraint(vec![1.0, 1.0], Eq, 10.0)
            .constraint(vec![1.0, 0.0], Ge, 2.0);
        let s = solve(&p).expect("this LP is feasible and bounded by construction");
        assert_close(s.objective, 20.0);
        assert_close(s.x[0], 10.0);
    }

    #[test]
    fn infeasible_detected() {
        // x ≤ 1 and x ≥ 2 cannot hold.
        let p = LpProblem::minimize(vec![1.0])
            .constraint(vec![1.0], Le, 1.0)
            .constraint(vec![1.0], Ge, 2.0);
        assert_eq!(solve(&p).unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        // min −x with only x ≥ 1: objective → −∞.
        let p = LpProblem::minimize(vec![-1.0]).constraint(vec![1.0], Ge, 1.0);
        assert_eq!(solve(&p).unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn negative_rhs_normalised() {
        // −x ≤ −3 is x ≥ 3.
        let p = LpProblem::minimize(vec![1.0]).constraint(vec![-1.0], Le, -3.0);
        let s = solve(&p).expect("this LP is feasible and bounded by construction");
        assert_close(s.x[0], 3.0);
    }

    #[test]
    fn redundant_constraints_ok() {
        let p = LpProblem::minimize(vec![1.0, 1.0])
            .constraint(vec![1.0, 1.0], Ge, 2.0)
            .constraint(vec![2.0, 2.0], Ge, 4.0) // same halfspace
            .constraint(vec![1.0, 1.0], Ge, 1.0); // dominated
        let s = solve(&p).expect("this LP is feasible and bounded by construction");
        assert_close(s.objective, 2.0);
    }

    #[test]
    fn autoscaling_shaped_problem() {
        // The Eq. 6 shape: min Σ c_t  s.t.  θ c_t ≥ w_t for each t
        // (equivalently w_t/c_t ≤ θ). Continuous optimum: c_t = w_t/θ.
        let w = [30.0, 75.0, 120.0, 45.0];
        let theta = 60.0;
        let mut p = LpProblem::minimize(vec![1.0; 4]);
        for (t, &wt) in w.iter().enumerate() {
            let mut row = vec![0.0; 4];
            row[t] = theta;
            p = p.constraint(row, Ge, wt);
        }
        let s = solve(&p).expect("this LP is feasible and bounded by construction");
        for (t, &wt) in w.iter().enumerate() {
            assert_close(s.x[t], wt / theta);
        }
        assert_close(s.objective, w.iter().sum::<f64>() / theta);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Multiple constraints active at the optimum (degeneracy) — Bland's
        // rule must still terminate.
        let p = LpProblem::minimize(vec![1.0, 1.0, 1.0])
            .constraint(vec![1.0, 1.0, 0.0], Ge, 1.0)
            .constraint(vec![1.0, 0.0, 1.0], Ge, 1.0)
            .constraint(vec![0.0, 1.0, 1.0], Ge, 1.0)
            .constraint(vec![1.0, 1.0, 1.0], Ge, 1.5);
        let s = solve(&p).expect("this LP is feasible and bounded by construction");
        assert_close(s.objective, 1.5);
    }
}
