//! Linear-program description: `min c'x` subject to linear constraints and
//! non-negative variables.

/// Constraint relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `≤ rhs`
    Le,
    /// `≥ rhs`
    Ge,
    /// `= rhs`
    Eq,
}

/// One linear constraint `coeffs · x  (≤ | ≥ | =)  rhs`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Constraint {
    /// Coefficients, one per variable.
    pub coeffs: Vec<f64>,
    /// Relation to the right-hand side.
    pub relation: Relation,
    /// Right-hand side.
    pub rhs: f64,
}

/// A minimisation LP over non-negative variables.
#[derive(Debug, Clone, PartialEq)]
pub struct LpProblem {
    n_vars: usize,
    objective: Vec<f64>,
    constraints: Vec<Constraint>,
}

impl LpProblem {
    /// New problem minimising `objective · x` over `x ≥ 0`.
    ///
    /// # Panics
    /// Panics if the objective is empty or contains non-finite entries.
    pub fn minimize(objective: Vec<f64>) -> Self {
        assert!(!objective.is_empty(), "objective must not be empty");
        assert!(objective.iter().all(|c| c.is_finite()), "non-finite objective");
        Self { n_vars: objective.len(), objective, constraints: Vec::new() }
    }

    /// Add a constraint; builder style.
    ///
    /// # Panics
    /// Panics on dimension mismatch or non-finite data.
    pub fn constraint(mut self, coeffs: Vec<f64>, relation: Relation, rhs: f64) -> Self {
        assert_eq!(coeffs.len(), self.n_vars, "constraint width mismatch");
        assert!(coeffs.iter().all(|c| c.is_finite()) && rhs.is_finite(), "non-finite constraint");
        self.constraints.push(Constraint { coeffs, relation, rhs });
        self
    }

    /// Number of decision variables.
    pub(crate) fn n_vars(&self) -> usize {
        self.n_vars
    }

    /// Objective coefficients.
    pub(crate) fn objective(&self) -> &[f64] {
        &self.objective
    }

    /// The constraints.
    pub(crate) fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_constraints() {
        let p = LpProblem::minimize(vec![1.0, 2.0])
            .constraint(vec![1.0, 0.0], Relation::Ge, 3.0)
            .constraint(vec![0.0, 1.0], Relation::Le, 5.0);
        assert_eq!(p.n_vars(), 2);
        assert_eq!(p.constraints().len(), 2);
        assert_eq!(p.constraints()[0].relation, Relation::Ge);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn rejects_wrong_width() {
        let _ = LpProblem::minimize(vec![1.0]).constraint(vec![1.0, 2.0], Relation::Eq, 0.0);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn rejects_nan_rhs() {
        let _ = LpProblem::minimize(vec![1.0]).constraint(vec![1.0], Relation::Eq, f64::NAN);
    }
}
