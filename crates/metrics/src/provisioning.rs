//! Scaling-quality metrics: under-provisioning and over-provisioning rates
//! (§IV-C of the paper, Figs. 9–12).
//!
//! Given an allocation of compute nodes `c_t`, the realised workload `w_t`,
//! and the scaling threshold `θ`, a period is:
//!
//! * **under-provisioned** when the average per-node workload exceeds the
//!   threshold: `w_t / c_t > θ` — i.e. fewer nodes than the minimum
//!   `ceil(w_t / θ)` required;
//! * **over-provisioned** when more nodes are allocated than that minimum.

/// Summary of a scaling run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProvisioningReport {
    /// Fraction of periods with too few nodes (SLO at risk).
    pub under_rate: f64,
    /// Fraction of periods with more nodes than the minimum required.
    pub over_rate: f64,
    /// Mean allocated nodes per period.
    pub avg_allocated: f64,
    /// Total node-periods allocated beyond the minimum (wasted capacity).
    pub excess_node_steps: f64,
    /// Total node-periods short of the minimum (capacity deficit).
    pub deficit_node_steps: f64,
}

/// The one rule for a scaling threshold `θ`, wherever it is configured:
/// positive and finite.
///
/// `required_nodes` asserts it on every simulated step, so the test is
/// inlined, written as two compares (`0 < θ < ∞`; `is_finite` there
/// compiled to a bit classification of ~25 instructions), and the message
/// is built out of line, on refusal only.
#[inline]
pub fn validate_theta(theta: f64) -> Result<(), String> {
    if theta > 0.0 && theta < f64::INFINITY {
        return Ok(());
    }
    Err(theta_refusal(theta))
}

#[cold]
#[inline(never)]
fn theta_refusal(theta: f64) -> String {
    format!("theta must be positive and finite, got {theta}")
}

/// Minimum nodes that keep per-node workload at or below `theta`.
/// At least `min_nodes` (a cluster cannot scale to zero while serving).
///
/// # Panics
/// Panics on a `theta` [`validate_theta`] refuses or a negative workload.
#[inline]
pub fn required_nodes(workload: f64, theta: f64, min_nodes: u32) -> u32 {
    assert!(validate_theta(theta).is_ok(), "invalid theta");
    assert!(workload >= 0.0, "workload must be non-negative");
    ceil_u32(workload / theta).max(min_nodes)
}

/// `q.ceil() as u32` for every `q`, in integer arithmetic: the saturating
/// truncation, plus one (saturating) when it fell short of `q`.
/// `f64::ceil` is an out-of-line libm call on the baseline x86-64 target
/// (no SSE4.1 `roundsd`), and [`required_nodes`] runs on every simulated
/// step.
#[inline]
fn ceil_u32(q: f64) -> u32 {
    let t = q as u32;
    if f64::from(t) < q {
        t.saturating_add(1)
    } else {
        t
    }
}

/// Compute under/over-provisioning rates for an allocation against the
/// realised workload.
///
/// # Panics
/// Panics on length mismatch, empty input, or a `theta` [`validate_theta`]
/// refuses.
pub fn provisioning_rates(
    allocations: &[u32],
    actual_workload: &[f64],
    theta: f64,
    min_nodes: u32,
) -> ProvisioningReport {
    assert_eq!(allocations.len(), actual_workload.len(), "provisioning: length mismatch");
    provisioning_rates_over(
        allocations.iter().copied().zip(actual_workload.iter().copied()),
        theta,
        min_nodes,
    )
}

/// [`provisioning_rates`] over `(allocation, realised workload)` pairs,
/// for a caller whose two series are not slices of their own.
///
/// # Panics
/// Panics on empty input or a `theta` [`validate_theta`] refuses.
pub fn provisioning_rates_over(
    periods: impl Iterator<Item = (u32, f64)>,
    theta: f64,
    min_nodes: u32,
) -> ProvisioningReport {
    let mut periods_seen = 0usize;
    let mut under = 0usize;
    let mut over = 0usize;
    let mut alloc_sum = 0.0;
    let mut excess = 0.0;
    let mut deficit = 0.0;

    for (c, w) in periods {
        let req = required_nodes(w, theta, min_nodes);
        periods_seen += 1;
        alloc_sum += c as f64;
        use std::cmp::Ordering::*;
        match c.cmp(&req) {
            Less => {
                under += 1;
                deficit += (req - c) as f64;
            }
            Greater => {
                over += 1;
                excess += (c - req) as f64;
            }
            Equal => {}
        }
    }

    assert!(periods_seen > 0, "provisioning: empty input");
    let n = periods_seen as f64;
    ProvisioningReport {
        under_rate: under as f64 / n,
        over_rate: over as f64 / n,
        avg_allocated: alloc_sum / n,
        excess_node_steps: excess,
        deficit_node_steps: deficit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpas_tsmath::prop_assert;
    use rpas_tsmath::propcheck::forall;

    /// `ceil_u32` against `f64::ceil(q) as u32` on one quotient.
    fn agrees_with_libm(q: f64) -> Result<(), String> {
        let (got, want) = (ceil_u32(q), q.ceil() as u32);
        prop_assert!(got == want, "q = {q:e} ({:#018x}): {got} vs {want}", q.to_bits());
        Ok(())
    }

    #[test]
    fn integer_ceiling_agrees_with_libm() {
        let u32_max = f64::from(u32::MAX);
        let next_up = |v: f64| f64::from_bits(v.to_bits() + 1);
        let next_down = |v: f64| f64::from_bits(v.to_bits() - 1);
        let mut planted = vec![
            0.0,
            -0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE,
            next_down(f64::MIN_POSITIVE),
            0.5,
            1.0 - f64::EPSILON / 2.0,
            u32_max,
            next_up(u32_max),
            next_down(u32_max),
            4_294_967_296.0,
            f64::MAX,
            f64::INFINITY,
        ];
        for n in [1.0, 2.0, 3.0, 59.0, 60.0, 61.0, 1_000_000.0, 2_147_483_648.0] {
            planted.extend([n, next_up(n), next_down(n)]);
        }
        for q in planted {
            agrees_with_libm(q).unwrap();
        }
        forall("integer_ceiling_agrees_with_libm", 4096, |g| {
            // Small node counts, the whole `u32` range with a fraction, then
            // any non-negative bit pattern (subnormals, ∞ and NaN included).
            let q = match g.u8() {
                0..128 => g.f64_in(0.0, 64.0),
                128..192 => f64::from(g.u64() as u32) + f64::from(g.u8()) / 256.0,
                _ => f64::from_bits(g.u64() & !(1 << 63)),
            };
            agrees_with_libm(q)
        });
    }

    #[test]
    fn required_nodes_ceiling() {
        assert_eq!(required_nodes(100.0, 60.0, 1), 2);
        assert_eq!(required_nodes(120.0, 60.0, 1), 2);
        assert_eq!(required_nodes(121.0, 60.0, 1), 3);
        assert_eq!(required_nodes(0.0, 60.0, 1), 1);
        assert_eq!(required_nodes(0.0, 60.0, 0), 0);
    }

    #[test]
    fn validate_theta_pins_every_refusal() {
        for theta in [f64::MIN_POSITIVE, 60.0, f64::MAX] {
            assert_eq!(validate_theta(theta), Ok(()));
        }
        let cases = [
            (0.0, "0"),
            (-0.0, "-0"),
            (-1.0, "-1"),
            (f64::NAN, "NaN"),
            (f64::INFINITY, "inf"),
            (f64::NEG_INFINITY, "-inf"),
        ];
        for (theta, shown) in cases {
            let want = format!("theta must be positive and finite, got {shown}");
            assert_eq!(validate_theta(theta), Err(want));
        }
    }

    #[test]
    #[should_panic(expected = "invalid theta")]
    fn required_nodes_refuses_an_infinite_theta() {
        required_nodes(100.0, f64::INFINITY, 1);
    }

    #[test]
    fn rates_sum_to_one() {
        let alloc = [1, 2, 3, 4];
        let work = [100.0, 100.0, 100.0, 100.0]; // requires 2 @ θ=60
        let r = provisioning_rates(&alloc, &work, 60.0, 1);
        assert!((1.0 - r.under_rate - r.over_rate - 0.25).abs() < 1e-12); // alloc=2 is exact
        assert!((r.under_rate - 0.25).abs() < 1e-12); // alloc=1
        assert!((r.over_rate - 0.5).abs() < 1e-12); // alloc=3,4
    }

    #[test]
    fn perfect_allocation() {
        let work = [30.0, 90.0, 150.0];
        let alloc = [1, 2, 3];
        let r = provisioning_rates(&alloc, &work, 60.0, 1);
        assert_eq!(r.under_rate, 0.0);
        assert_eq!(r.over_rate, 0.0);
        assert_eq!(r.excess_node_steps, 0.0);
        assert_eq!(r.deficit_node_steps, 0.0);
    }

    #[test]
    fn excess_and_deficit_counting() {
        let work = [120.0, 120.0]; // requires 2 @ θ=60
        let r = provisioning_rates(&[4, 1], &work, 60.0, 1);
        assert_eq!(r.excess_node_steps, 2.0);
        assert_eq!(r.deficit_node_steps, 1.0);
        assert!((r.avg_allocated - 2.5).abs() < 1e-12);
    }

    #[test]
    fn boundary_workload_exactly_at_threshold() {
        // w/c == θ exactly is NOT under-provisioned (constraint is ≤).
        let r = provisioning_rates(&[2], &[120.0], 60.0, 1);
        assert_eq!(r.under_rate, 0.0);
        assert_eq!(r.over_rate, 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        provisioning_rates(&[1], &[1.0, 2.0], 60.0, 1);
    }
}
