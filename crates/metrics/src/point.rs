//! Point-forecast metric: MSE (Table I's supplementary column).

/// Mean squared error.
///
/// # Panics
/// Panics on length mismatch; returns `NaN` for empty inputs.
pub fn mse(actuals: &[f64], preds: &[f64]) -> f64 {
    assert_eq!(actuals.len(), preds.len(), "mse: length mismatch");
    if actuals.is_empty() {
        return f64::NAN;
    }
    actuals.iter().zip(preds).map(|(y, p)| (y - p) * (y - p)).sum::<f64>() / actuals.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_known_value() {
        assert_eq!(mse(&[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0]), 0.0);
        assert_eq!(mse(&[0.0, 0.0], &[1.0, -1.0]), 1.0);
        assert_eq!(mse(&[0.0], &[3.0]), 9.0);
    }

    #[test]
    fn empty_is_nan() {
        assert!(mse(&[], &[]).is_nan());
    }
}
