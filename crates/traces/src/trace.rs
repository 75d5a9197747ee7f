//! The core `Trace` type: a named, regularly-sampled workload series.


/// Which resource a trace measures. The paper's traces carry CPU, memory,
/// and (for Alibaba) disk usage; CPU is the scaling metric in §IV-C.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceKind {
    /// CPU usage (aggregated across the sampled machines/tasks).
    Cpu,
    /// Memory usage.
    Memory,
    /// Disk I/O usage.
    Disk,
}

impl std::fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResourceKind::Cpu => write!(f, "cpu"),
            ResourceKind::Memory => write!(f, "memory"),
            ResourceKind::Disk => write!(f, "disk"),
        }
    }
}

/// A regularly-sampled, non-negative workload time series.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Human-readable name (e.g. `"alibaba-cpu"`).
    pub name: String,
    /// Sampling interval in seconds.
    pub interval_secs: u64,
    /// The series values.
    pub values: Vec<f64>,
}

impl Trace {
    /// Construct a trace.
    ///
    /// # Panics
    /// Panics if `interval_secs == 0` or any value is non-finite.
    pub fn new(name: impl Into<String>, interval_secs: u64, values: Vec<f64>) -> Self {
        assert!(interval_secs > 0, "Trace: interval must be positive");
        assert!(values.iter().all(|v| v.is_finite()), "Trace: non-finite value");
        Self { name: name.into(), interval_secs, values }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Split into `(head, tail)` at `at` samples; the head keeps the name.
    ///
    /// # Panics
    /// Panics if `at > len`.
    pub fn split_at(&self, at: usize) -> (Trace, Trace) {
        assert!(at <= self.len(), "Trace::split_at out of range");
        let head = Trace::new(self.name.clone(), self.interval_secs, self.values[..at].to_vec());
        let tail =
            Trace::new(format!("{}-tail", self.name), self.interval_secs, self.values[at..].to_vec());
        (head, tail)
    }

    /// Train/test split by fraction (train gets the floor); `Err` for a
    /// fraction outside `[0, 1]`, NaN included.
    pub fn train_test_split(&self, train_frac: f64) -> Result<(Trace, Trace), String> {
        if !(0.0..=1.0).contains(&train_frac) {
            return Err(format!("train fraction must be in [0,1], got {train_frac}"));
        }
        Ok(self.split_at((self.len() as f64 * train_frac).floor() as usize))
    }

    /// Borrow the values.
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(values: Vec<f64>) -> Trace {
        Trace::new("t", 600, values)
    }

    #[test]
    fn basic_accessors() {
        let tr = t(vec![1.0, 2.0, 3.0]);
        assert_eq!(tr.len(), 3);
        assert!(!tr.is_empty());
        assert_eq!(tr.as_slice(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn split_preserves_all_samples() {
        let tr = t(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        let (a, b) = tr.split_at(2);
        assert_eq!(a.values, vec![1.0, 2.0]);
        assert_eq!(b.values, vec![3.0, 4.0, 5.0]);
    }

    #[test]
    fn train_test_split_fraction() {
        let tr = t((0..10).map(|i| i as f64).collect());
        let (train, test) = tr.train_test_split(0.7).unwrap();
        assert_eq!(train.len(), 7);
        assert_eq!(test.len(), 3);
        let (train, test) = tr.train_test_split(0.0).unwrap();
        assert_eq!((train.len(), test.len()), (0, 10));
        let (train, test) = tr.train_test_split(1.0).unwrap();
        assert_eq!((train.len(), test.len()), (10, 0));
    }

    #[test]
    fn train_test_split_refuses_every_fraction_outside_the_unit_interval() {
        let tr = t(vec![1.0, 2.0]);
        let cases: [(f64, &str); 7] = [
            (-0.1, "-0.1"),
            (1.5, "1.5"),
            (1.0 + f64::EPSILON, "1.0000000000000002"),
            (-1e-9, "-0.000000001"),
            (f64::NAN, "NaN"),
            (f64::INFINITY, "inf"),
            (f64::NEG_INFINITY, "-inf"),
        ];
        for (frac, shown) in cases {
            assert_eq!(
                tr.train_test_split(frac),
                Err(format!("train fraction must be in [0,1], got {shown}")),
            );
        }
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn rejects_nan() {
        t(vec![f64::NAN]);
    }

    #[test]
    fn resource_kind_display() {
        assert_eq!(ResourceKind::Cpu.to_string(), "cpu");
        assert_eq!(ResourceKind::Memory.to_string(), "memory");
        assert_eq!(ResourceKind::Disk.to_string(), "disk");
    }
}
