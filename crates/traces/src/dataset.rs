//! Windowing: turn a series into supervised forecasting examples and into
//! the rolling evaluation grid.

/// Windows over a series, each pairing a `context`-length input with the
/// `horizon`-length target right after it, window starts `stride` apart.
///
/// At stride 1 ([`WindowDataset::new`]) these are the training examples of
/// the window models. At stride = horizon ([`WindowDataset::rolling`]) they
/// are the paper's rolling-origin evaluation grid: window `k` forecasts
/// `[c + k·h, c + (k+1)·h)` from the `c` samples before it, and the targets
/// tile the series without overlap.
#[derive(Debug, Clone)]
pub struct WindowDataset<'a> {
    series: &'a [f64],
    context: usize,
    horizon: usize,
    stride: usize,
}

impl<'a> WindowDataset<'a> {
    /// Every window, stride 1.
    pub fn new(series: &'a [f64], context: usize, horizon: usize) -> Self {
        Self::with_stride(series, context, horizon, 1)
    }

    /// The non-overlapping rolling grid, stride = `horizon`.
    pub fn rolling(series: &'a [f64], context: usize, horizon: usize) -> Self {
        Self::with_stride(series, context, horizon, horizon)
    }

    /// Windows `stride` apart.
    ///
    /// # Panics
    /// Panics on zero context/horizon/stride.
    fn with_stride(series: &'a [f64], context: usize, horizon: usize, stride: usize) -> Self {
        assert!(context > 0 && horizon > 0 && stride > 0, "degenerate window spec");
        Self { series, context, horizon, stride }
    }

    /// Number of complete windows.
    pub fn len(&self) -> usize {
        let need = self.context + self.horizon;
        if self.series.len() < need {
            0
        } else {
            (self.series.len() - need) / self.stride + 1
        }
    }

    /// Whether there are no complete windows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th `(context, target)` window.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    pub fn window(&self, i: usize) -> (&'a [f64], &'a [f64]) {
        assert!(i < self.len(), "window index out of range");
        let start = i * self.stride;
        let mid = start + self.context;
        (&self.series[start..mid], &self.series[mid..mid + self.horizon])
    }

    /// Every window, in order.
    pub fn iter(&self) -> impl Iterator<Item = (&'a [f64], &'a [f64])> + '_ {
        (0..self.len()).map(move |i| self.window(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_count_and_contents() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ds = WindowDataset::new(&xs, 3, 2);
        assert_eq!(ds.len(), 6);
        let (c, t) = ds.window(0);
        assert_eq!(c, &[0.0, 1.0, 2.0]);
        assert_eq!(t, &[3.0, 4.0]);
        let (c, t) = ds.window(5);
        assert_eq!(c, &[5.0, 6.0, 7.0]);
        assert_eq!(t, &[8.0, 9.0]);
    }

    #[test]
    fn stride_skips_windows() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ds = WindowDataset::with_stride(&xs, 3, 2, 2);
        assert_eq!(ds.len(), 3);
        let (c, _) = ds.window(1);
        assert_eq!(c, &[2.0, 3.0, 4.0]);
    }

    #[test]
    fn too_short_series_yields_empty() {
        let xs = [1.0, 2.0];
        let ds = WindowDataset::new(&xs, 3, 2);
        assert!(ds.is_empty());
    }

    #[test]
    fn rolling_windows_are_disjoint_targets() {
        let xs: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let rw = WindowDataset::rolling(&xs, 4, 3);
        assert_eq!(rw.len(), 5);
        let mut covered = Vec::new();
        for (ctx, act) in rw.iter() {
            assert_eq!(ctx.len(), 4);
            assert_eq!(act.len(), 3);
            covered.extend_from_slice(act);
        }
        // Targets tile [4, 19) without overlap.
        let expect: Vec<f64> = (4..19).map(|i| i as f64).collect();
        assert_eq!(covered, expect);
    }

    #[test]
    fn rolling_context_precedes_target() {
        let xs: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let rw = WindowDataset::rolling(&xs, 3, 3);
        let (ctx, act) = rw.window(1);
        assert_eq!(ctx, &[3.0, 4.0, 5.0]);
        assert_eq!(act, &[6.0, 7.0, 8.0]);
    }
}
