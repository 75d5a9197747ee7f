//! Property-based tests for the numerical substrate: distribution identities,
//! matrix-algebra laws, and statistics invariants that must hold for *any*
//! input, not just hand-picked examples.

use rpas_tsmath::propcheck::forall;
use rpas_tsmath::special;
use rpas_tsmath::stats;
use rpas_tsmath::{prop_assert, prop_assert_eq, Distribution, Matrix, Normal, StudentT};

#[test]
fn normal_cdf_is_monotone() {
    forall("normal_cdf_is_monotone", 64, |g| {
        let mu = g.f64_in(-100.0, 100.0);
        let sigma = g.f64_in(0.1, 50.0);
        let a = g.f64_in(-500.0, 500.0);
        let b = g.f64_in(-500.0, 500.0);
        let n = Normal::new(mu, sigma);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(n.cdf(lo) <= n.cdf(hi) + 1e-12);
        Ok(())
    });
}

#[test]
fn normal_quantile_inverts_cdf() {
    forall("normal_quantile_inverts_cdf", 64, |g| {
        let mu = g.f64_in(-100.0, 100.0);
        let sigma = g.f64_in(0.1, 50.0);
        let p = g.f64_in(0.001, 0.999);
        let n = Normal::new(mu, sigma);
        let x = n.quantile(p);
        prop_assert!((n.cdf(x) - p).abs() < 1e-7, "cdf(quantile({p})) = {}", n.cdf(x));
        Ok(())
    });
}

#[test]
fn studentt_quantile_inverts_cdf() {
    forall("studentt_quantile_inverts_cdf", 64, |g| {
        let mu = g.f64_in(-50.0, 50.0);
        let sigma = g.f64_in(0.1, 20.0);
        let nu = g.f64_in(1.0, 60.0);
        let p = g.f64_in(0.01, 0.99);
        let t = StudentT::new(mu, sigma, nu);
        let x = t.quantile(p);
        prop_assert!((t.cdf(x) - p).abs() < 1e-6, "cdf(quantile({p})) = {}", t.cdf(x));
        Ok(())
    });
}

#[test]
fn studentt_quantiles_monotone_in_level() {
    forall("studentt_quantiles_monotone_in_level", 64, |g| {
        let nu = g.f64_in(1.0, 40.0);
        let p1 = g.f64_in(0.02, 0.5);
        let p2 = g.f64_in(0.5, 0.98);
        let t = StudentT::new(0.0, 1.0, nu);
        prop_assert!(t.quantile(p1) <= t.quantile(p2) + 1e-9);
        Ok(())
    });
}

#[test]
fn beta_inc_is_monotone_in_x() {
    forall("beta_inc_is_monotone_in_x", 64, |g| {
        let a = g.f64_in(0.2, 20.0);
        let b = g.f64_in(0.2, 20.0);
        let x1 = g.f64_in(0.0, 1.0);
        let x2 = g.f64_in(0.0, 1.0);
        let (lo, hi) = if x1 <= x2 { (x1, x2) } else { (x2, x1) };
        prop_assert!(special::beta_inc(a, b, lo) <= special::beta_inc(a, b, hi) + 1e-9);
        Ok(())
    });
}

#[test]
fn matrix_transpose_involution() {
    forall("matrix_transpose_involution", 64, |g| {
        let rows = g.usize_in(1, 6);
        let cols = g.usize_in(1, 6);
        let data: Vec<f64> = (0..rows * cols).map(|_| g.f64_in(-5.0, 5.0)).collect();
        let m = Matrix::from_vec(rows, cols, data);
        prop_assert_eq!(m.transpose().transpose(), m);
        Ok(())
    });
}

#[test]
fn matmul_associates_with_vectors() {
    forall("matmul_associates_with_vectors", 64, |g| {
        // (A B) x == A (B x)
        let n = g.usize_in(1, 5);
        let a = Matrix::from_vec(n, n, (0..n * n).map(|_| g.f64_in(-0.5, 0.5)).collect());
        let b = Matrix::from_vec(n, n, (0..n * n).map(|_| g.f64_in(-0.5, 0.5)).collect());
        let x: Vec<f64> = (0..n).map(|_| g.f64_in(-0.5, 0.5)).collect();
        let lhs = a.matmul(&b).matvec(&x);
        let rhs = a.matvec(&b.matvec(&x));
        for (l, r) in lhs.iter().zip(&rhs) {
            prop_assert!((l - r).abs() < 1e-9, "{l} vs {r}");
        }
        Ok(())
    });
}

#[test]
fn solve_produces_residual_zero() {
    forall("solve_produces_residual_zero", 64, |g| {
        // Diagonally dominant => nonsingular.
        let n = g.usize_in(1, 6);
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = g.f64_in(-0.5, 0.5);
            }
            a[(i, i)] += n as f64 + 1.0;
        }
        let b: Vec<f64> = (0..n).map(|_| g.f64_in(-2.5, 2.5)).collect();
        let x = a.solve(&b).expect("diag-dominant must solve");
        let r = a.matvec(&x);
        for (ri, bi) in r.iter().zip(&b) {
            prop_assert!((ri - bi).abs() < 1e-8, "residual {}", ri - bi);
        }
        Ok(())
    });
}

#[test]
fn quantile_bounded_by_min_max() {
    forall("quantile_bounded_by_min_max", 64, |g| {
        let xs = g.vec_f64(-1e6, 1e6, 1, 64);
        let p = g.f64_in(0.0, 1.0);
        let q = stats::quantile(&xs, p);
        let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(q >= lo - 1e-9 && q <= hi + 1e-9, "quantile {q} outside [{lo}, {hi}]");
        Ok(())
    });
}

#[test]
fn standardizer_roundtrips() {
    forall("standardizer_roundtrips", 64, |g| {
        let xs = g.vec_f64(-1e6, 1e6, 2, 64);
        let st = stats::Standardizer::fit(&xs);
        for &x in &xs {
            let back = st.inverse(st.transform(x));
            prop_assert!((back - x).abs() < 1e-6 * (1.0 + x.abs()), "{back} vs {x}");
        }
        Ok(())
    });
}

#[test]
fn difference_shrinks_length() {
    forall("difference_shrinks_length", 64, |g| {
        let d = g.usize_in(1, 3);
        let xs = g.vec_f64(-1e6, 1e6, d + 1, 32);
        let v = stats::difference(&xs, d);
        prop_assert_eq!(v.len(), xs.len() - d);
        Ok(())
    });
}
