//! `rpas_tsmath::elementary` against the host's libm, the bits a port to
//! another target must reproduce, and the row forms against the scalar
//! functions.

use rpas_tsmath::elementary::{exp, sigmoid, sigmoid_in_place, tanh, tanh_in_place};
use rpas_tsmath::prop_assert;
use rpas_tsmath::propcheck::{forall, Gen};

/// Distance in units in the last place, counting across zero; 0 when both
/// are NaN.
fn ulps(a: f64, b: f64) -> u64 {
    if a.is_nan() && b.is_nan() {
        return 0;
    }
    // Map the bit patterns onto one monotone integer line.
    let line = |v: f64| {
        let i = v.to_bits() as i64;
        if i < 0 {
            i64::MIN - i
        } else {
            i
        }
    };
    (i128::from(line(a)) - i128::from(line(b))).unsigned_abs() as u64
}

/// The logistic function as libm gives it, in the stable two-branch form.
#[expect(clippy::disallowed_methods, reason = "std oracle")]
fn std_sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// One argument in `[lo, hi)`: uniform over the whole range, uniform over
/// the gate range [−8, 8), or a log-uniform magnitude in [2⁻⁸⁰, 1) with
/// either sign, one third of the draws each.
fn draw(g: &mut Gen, lo: f64, hi: f64) -> f64 {
    match g.usize_in(0, 3) {
        0 => g.f64_in(lo, hi),
        1 => g.f64_in(-8.0, 8.0),
        _ => {
            let m = g.f64_in(1.0, 2.0) * 2f64.powi(-(g.usize_in(1, 81) as i32));
            if g.u8() < 128 {
                m
            } else {
                -m
            }
        }
    }
}

type Unary = fn(f64) -> f64;

/// (name, ours, libm's, lower and upper end of the drawn domain, bound in ULP).
#[expect(clippy::disallowed_methods, reason = "std oracle")]
const AGAINST_LIBM: [(&str, Unary, Unary, f64, f64, u64); 3] = [
    ("exp", exp, f64::exp, -746.0, 710.0, 1),
    ("tanh", tanh, f64::tanh, -25.0, 25.0, 2),
    ("sigmoid", sigmoid, std_sigmoid, -800.0, 800.0, 2),
];

#[test]
fn ulp_distance_to_libm_is_bounded() {
    // 256 cases × 8192 draws: ~2.1 M arguments per function.
    for (name, ours, libm, lo, hi, bound) in AGAINST_LIBM {
        forall(name, 256, |g| {
            for _ in 0..8192 {
                let x = draw(g, lo, hi);
                let d = ulps(ours(x), libm(x));
                prop_assert!(
                    d <= bound,
                    "{name}({x:e}) = {:e}, libm {:e}: {d} ulp",
                    ours(x),
                    libm(x)
                );
            }
            Ok(())
        });
    }
}

#[test]
fn special_values() {
    for (name, f, _, _, _, _) in AGAINST_LIBM {
        assert!(f(f64::NAN).is_nan(), "{name}(NaN)");
    }
    assert_eq!(tanh(-0.0).to_bits(), (-0.0f64).to_bits(), "tanh keeps the sign of zero");
    assert_eq!(tanh(0.0).to_bits(), 0);
    // Odd to the bit.
    for x in [1e-300, 0.3, 0.625, 2.0, 30.0] {
        assert_eq!(tanh(-x).to_bits(), (-tanh(x)).to_bits(), "tanh odd at {x}");
    }
}

/// `(argument, to_bits of the result)`. These are the definition of
/// "same bits everywhere": a port runs this table. NaN is checked by
/// [`special_values`], since a NaN's payload is the target's choice.
const EXP_BITS: [(f64, u64); 30] = [
    (0.0, 0x3ff0_0000_0000_0000),
    (-0.0, 0x3ff0_0000_0000_0000),
    (f64::INFINITY, 0x7ff0_0000_0000_0000),
    (f64::NEG_INFINITY, 0x0000_0000_0000_0000),
    (1e-300, 0x3ff0_0000_0000_0000),
    (-1e-300, 0x3ff0_0000_0000_0000),
    (1e-8, 0x3ff0_0000_02af_31dc),
    (-1e-8, 0x3fef_ffff_faa1_9c48),
    (0.5, 0x3ffa_6129_8e1e_069c),
    (-0.5, 0x3fe3_68b2_fc6f_960a),
    (std::f64::consts::LN_2 / 2.0, 0x3ff6_a09e_667f_3bcc),
    (std::f64::consts::LN_2, 0x4000_0000_0000_0000),
    (1.0, 0x4005_bf0a_8b14_576a),
    (-1.0, 0x3fd7_8b56_362c_ef38),
    (2.5, 0x4028_5d6f_d931_e0bb),
    (-2.5, 0x3fb5_0385_c094_f425),
    (10.0, 0x40d5_829d_cf95_0560),
    (-10.0, 0x3f07_cd79_b564_7c9a),
    (88.0, 0x47df_1056_dc7b_f22d),
    (100.0, 0x48f3_494a_9b17_1bf5),
    (-100.0, 0x36ea_8c1f_14e2_af5d),
    (700.0, 0x7f0d_945d_f4f8_ec8e),
    (709.782712893384, 0x7fef_ffff_ffff_ff2a),
    (709.79, 0x7ff0_0000_0000_0000),
    (-708.3964185322641, 0x0010_0000_0000_007c),
    (-720.0, 0x0000_0009_93b4_dc95),
    (-740.0, 0x0000_0000_0000_0055),
    (-745.1332191019411, 0x0000_0000_0000_0001),
    (-745.1332191019412, 0x0000_0000_0000_0000),
    (-800.0, 0x0000_0000_0000_0000),
];

const TANH_BITS: [(f64, u64); 21] = [
    (0.0, 0x0000_0000_0000_0000),
    (-0.0, 0x8000_0000_0000_0000),
    (f64::INFINITY, 0x3ff0_0000_0000_0000),
    (f64::NEG_INFINITY, 0xbff0_0000_0000_0000),
    (1e-300, 0x01a5_6e1f_c2f8_f359),
    (-1e-300, 0x81a5_6e1f_c2f8_f359),
    (1e-8, 0x3e45_798e_e230_8c3a),
    (0.1, 0x3fb9_83d7_795f_413a),
    (-0.3, 0xbfd2_a4dd_a7d9_14fa),
    (0.5, 0x3fdd_9353_d756_8af3),
    (0.6249999999999999, 0x3fe1_bf47_eabb_8f94),
    (0.625, 0x3fe1_bf47_eabb_8f96),
    (-0.625, 0xbfe1_bf47_eabb_8f96),
    (1.0, 0x3fe8_5efa_b514_f394),
    (-2.0, 0xbfee_d950_5e1b_c3d4),
    (3.0, 0x3fef_d77d_111a_0b00),
    (5.0, 0x3fef_ff41_9668_df11),
    (-8.0, 0xbfef_ffff_872a_91f8),
    (19.0, 0x3fef_ffff_ffff_ffff),
    (20.0, 0x3ff0_0000_0000_0000),
    (400.0, 0x3ff0_0000_0000_0000),
];

const SIGMOID_BITS: [(f64, u64); 21] = [
    (0.0, 0x3fe0_0000_0000_0000),
    (-0.0, 0x3fe0_0000_0000_0000),
    (f64::INFINITY, 0x3ff0_0000_0000_0000),
    (f64::NEG_INFINITY, 0x0000_0000_0000_0000),
    (1e-300, 0x3fe0_0000_0000_0000),
    (0.1, 0x3fe0_cca1_2729_afb8),
    (-0.1, 0x3fde_66bd_b1ac_a090),
    (1.0, 0x3fe7_64d4_f5d5_a2bd),
    (-1.0, 0x3fd1_3656_1454_ba86),
    (2.5, 0x3fed_9291_ddb5_96f8),
    (-2.5, 0x3fb3_6b71_1253_4848),
    (5.0, 0x3fef_c92c_1305_38e2),
    (-5.0, 0x3f7b_69f6_7d63_8f8f),
    (36.0, 0x3fef_ffff_ffff_fffe),
    (37.0, 0x3ff0_0000_0000_0000),
    (-40.0, 0x3c53_9792_499b_1a24),
    (-700.0, 0x00d1_4f2b_0fb9_307f),
    (-709.8, 0x0003_ee73_3bec_11c5),
    (-745.2, 0x0000_0000_0000_0000),
    (800.0, 0x3ff0_0000_0000_0000),
    (-800.0, 0x0000_0000_0000_0000),
];

#[test]
fn bits_table_is_reproduced() {
    let tables: [&[(f64, u64)]; 3] = [&EXP_BITS, &TANH_BITS, &SIGMOID_BITS];
    let mut moved = Vec::new();
    for ((name, f, libm, _, _, bound), rows) in AGAINST_LIBM.into_iter().zip(tables) {
        for &(x, bits) in rows {
            let y = f(x);
            assert!(ulps(y, libm(x)) <= bound, "{name}({x:e}) = {y:e} is off libm's {:e}", libm(x));
            if y.to_bits() != bits {
                moved.push(format!(
                    "{name}({x:e}) = {y:e} ({:#018x}), table {bits:#018x}",
                    y.to_bits()
                ));
            }
        }
    }
    assert!(moved.is_empty(), "bits moved:\n{}", moved.join("\n"));
}

/// Arguments planted in the row sweeps: both zeros, subnormals, and on
/// both signs `tanh`'s regime switch (0.625) and the two fast-path bounds
/// (354 for `tanh`, 708 for `sigmoid`) with their neighbours, then the
/// infinities and NaN.
fn planted() -> Vec<f64> {
    let mut xs = vec![0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310];
    for edge in [0.625f64, 354.0, 708.0] {
        for x in [edge.next_down(), edge, edge.next_up()] {
            xs.extend([x, -x]);
        }
    }
    xs.extend([f64::INFINITY, f64::NEG_INFINITY, f64::NAN]);
    xs
}

type InPlace = fn(&mut [f64]);

/// (name, row form, its scalar function, the drawn domain of
/// [`AGAINST_LIBM`]).
const ROW_FORMS: [(&str, InPlace, Unary, f64, f64); 2] = [
    ("sigmoid_in_place", sigmoid_in_place, sigmoid, -800.0, 800.0),
    ("tanh_in_place", tanh_in_place, tanh, -25.0, 25.0),
];

/// `draws` arguments of [`draw`] cut into rows of 0–67 elements, a quarter
/// of them with one to three [`planted`] values in, each row run through
/// `row` and compared, element by element, with `scalar`: the same bits,
/// or NaN for NaN.
fn rows_match_scalar(
    g: &mut Gen,
    (name, row, scalar, lo, hi): (&str, InPlace, Unary, f64, f64),
    draws: usize,
) -> Result<(), String> {
    let planted = planted();
    let mut left = draws;
    while left > 0 {
        let n = g.usize_in(0, 68).min(left);
        let mut xs: Vec<f64> = (0..n).map(|_| draw(g, lo, hi)).collect();
        if n > 0 && g.u8() < 64 {
            for _ in 0..g.usize_in(1, 4) {
                xs[g.usize_in(0, n)] = planted[g.usize_in(0, planted.len())];
            }
        }
        let want: Vec<f64> = xs.iter().map(|&x| scalar(x)).collect();
        let args = xs.clone();
        row(&mut xs);
        for ((x, w), y) in args.iter().zip(want).zip(&xs) {
            prop_assert!(
                w.to_bits() == y.to_bits() || (w.is_nan() && y.is_nan()),
                "{name} on a row of {n}: at {x:e} {y:e}, scalar {w:e}"
            );
        }
        left -= n.max(1);
    }
    Ok(())
}

#[test]
fn row_forms_match_the_scalar_functions() {
    for form in ROW_FORMS {
        forall(form.0, 32, |g| rows_match_scalar(g, form, 512));
    }
}

/// The ULP test's ~2.1 M arguments per function, in rows; `#[ignore]`d
/// in the workspace run, run in release by `scripts/verify.sh`.
#[test]
#[ignore = "~4 M arguments; run in release by scripts/verify.sh"]
fn sweep_row_forms_match_the_scalar_functions() {
    for form in ROW_FORMS {
        forall(form.0, 256, |g| rows_match_scalar(g, form, 8192));
    }
}
