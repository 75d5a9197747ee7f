//! Property-based tests for the neural substrate: invariants that must hold
//! for arbitrary shapes, seeds, and inputs.

use rpas_nn::loss;
use rpas_nn::{
    Activation, Adam, Dense, GatedResidualNetwork, GruCell, Layer, LstmCell, Mlp,
    MultiHeadAttention, Param,
};
use rpas_tsmath::Matrix;
use rpas_tsmath::propcheck::{forall, prop_discard};
use rpas_tsmath::rng::seeded;
use rpas_tsmath::{prop_assert, prop_assert_eq};

#[test]
fn dense_forward_is_affine() {
    forall("dense_forward_is_affine", 48, |g| {
        // f(a·x) − f(0) = a · (f(x) − f(0)) for a linear layer.
        let mut r = seeded(g.u64());
        let a = g.f64_in(-3.0, 3.0);
        let d = Dense::new(3, 2, &mut r);
        let x = [0.3, -0.7, 1.1];
        let zero = d.apply(&[0.0; 3]);
        let fx = d.apply(&x);
        let ax: Vec<f64> = x.iter().map(|v| a * v).collect();
        let fax = d.apply(&ax);
        for i in 0..2 {
            let lhs = fax[i] - zero[i];
            let rhs = a * (fx[i] - zero[i]);
            prop_assert!((lhs - rhs).abs() < 1e-9, "{lhs} vs {rhs}");
        }
        Ok(())
    });
}

#[test]
fn gru_state_stays_bounded() {
    forall("gru_state_stays_bounded", 48, |g| {
        let mut r = seeded(g.u64());
        let steps = g.usize_in(1, 30);
        let gru = GruCell::new(1, 4, &mut r);
        let mut h = gru.init_state();
        for t in 0..steps {
            h = gru.apply(&[(t as f64).sin() * 3.0], &h);
        }
        // h is always a convex combination of tanh outputs and 0-init state.
        prop_assert!(h.iter().all(|v| v.abs() <= 1.0 + 1e-12));
        Ok(())
    });
}

#[test]
fn gru_stepper_matches_apply_bit_for_bit() {
    // The stepper reorders loops, not sums: every hidden size — below,
    // at, and off a multiple of either instance's row block (8, or 16 on
    // an AVX2 host) — must reproduce the plain reference cell exactly,
    // over several chained steps.
    const HIDDEN: [usize; 12] = [1, 3, 7, 8, 9, 15, 16, 17, 31, 33, 48, 67];
    forall("gru_stepper_matches_apply_bit_for_bit", 96, |g| {
        let mut r = seeded(g.u64());
        let hidden = HIDDEN[g.usize_in(0, HIDDEN.len())];
        let input = g.usize_in(1, 4);
        let mut gru = GruCell::new(input, hidden, &mut r);
        gru.visit_params(&mut |p| {
            for w in &mut p.data {
                *w = g.f64_in(-1.5, 1.5);
            }
        });
        // A signed zero in the weights exercises the sums' `-0.0` start.
        gru.uz.data[0] = -0.0;
        gru.wh.data[0] = 0.0;

        let mut h = g.vec_f64(-1.0, 1.0, hidden, hidden + 1);
        let form = gru.kmajor();
        let mut stepper = form.stepper();
        prop_assert!(stepper.state().iter().all(|v| v.to_bits() == 0), "fresh state is +0.0");
        stepper.set_state(&h);
        for step in 0..g.usize_in(1, 7) {
            let x = g.vec_f64(-3.0, 3.0, input, input + 1);
            h = gru.apply(&x, &h);
            let fast = stepper.step(&x);
            for (i, (a, b)) in h.iter().zip(fast).enumerate() {
                prop_assert!(
                    a.to_bits() == b.to_bits(),
                    "hidden {hidden} input {input} step {step} unit {i}: {a:e} vs {b:e}"
                );
            }
        }
        Ok(())
    });
}

#[test]
fn lstm_hidden_bounded_by_one() {
    forall("lstm_hidden_bounded_by_one", 48, |g| {
        let mut r = seeded(g.u64());
        let steps = g.usize_in(1, 20);
        let l = LstmCell::new(2, 3, &mut r);
        let mut s = l.init_state();
        for t in 0..steps {
            s = l.apply(&[t as f64 * 0.1, -(t as f64) * 0.05], &s);
        }
        // h = o ∘ tanh(c), |o| ≤ 1, |tanh| ≤ 1.
        prop_assert!(s.h.iter().all(|v| v.abs() <= 1.0));
        Ok(())
    });
}

#[test]
fn lstm_stepper_matches_apply_bit_for_bit() {
    // Same kernel, same contract as the GRU stepper: every hidden size —
    // below, at, and off a multiple of either row block — reproduces the
    // plain reference cell exactly, over several chained steps, one
    // `step` at a time and as multi-row `run` passes of any length (whole
    // passes, a short last one, a sequence shorter than one pass).
    const HIDDEN: [usize; 12] = [1, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 67];
    forall("lstm_stepper_matches_apply_bit_for_bit", 96, |g| {
        let mut r = seeded(g.u64());
        let hidden = HIDDEN[g.usize_in(0, HIDDEN.len())];
        let input = if g.u8() < 128 { g.usize_in(1, 4) } else { g.usize_in(1, 40) };
        let mut lstm = LstmCell::new(input, hidden, &mut r);
        lstm.visit_params(&mut |p| {
            for w in &mut p.data {
                *w = g.f64_in(-1.5, 1.5);
            }
        });
        // A signed zero in the weights exercises the sums' `-0.0` start.
        lstm.uf.data[0] = -0.0;
        lstm.wg.data[0] = 0.0;

        let steps = g.usize_in(2, 40);
        let xs = g.vec_f64(-3.0, 3.0, steps * input, steps * input + 1);
        let pass_rows = g.usize_in(1, 20);
        let form = lstm.kmajor();
        let mut stepper = form.stepper(pass_rows);
        prop_assert!(stepper.hidden().iter().all(|v| v.to_bits() == 0), "fresh state is +0.0");
        let mut runner = form.stepper(pass_rows);
        let mut hs = vec![f64::NAN; steps * hidden];
        runner.run(&xs, &mut hs);

        let mut state = lstm.init_state();
        for (step, (x, run_h)) in xs.chunks_exact(input).zip(hs.chunks_exact(hidden)).enumerate() {
            state = lstm.apply(x, &state);
            let fast = stepper.step(x);
            for (i, ((a, b), c)) in state.h.iter().zip(fast).zip(run_h).enumerate() {
                prop_assert!(
                    a.to_bits() == b.to_bits() && a.to_bits() == c.to_bits(),
                    "hidden {hidden} input {input} pass {pass_rows} step {step} unit {i}: \
                     apply {a:e}, step {b:e}, run {c:e}"
                );
            }
        }
        prop_assert!(runner.hidden() == stepper.hidden(), "run leaves the last state");
        Ok(())
    });
}

#[test]
fn attend_last_matches_last_row_of_forward_bit_for_bit() {
    const HEADS: [usize; 3] = [1, 2, 4];
    const LEN: [usize; 4] = [1, 2, 5, 72];
    forall("attend_last_matches_last_row_of_forward_bit_for_bit", 64, |g| {
        let mut r = seeded(g.u64());
        let heads = HEADS[g.usize_in(0, HEADS.len())];
        let d = heads * g.usize_in(1, 9);
        let t = LEN[g.usize_in(0, LEN.len())];
        let causal = g.u8() % 2 == 0;
        let mut attn = MultiHeadAttention::new(d, heads, causal, &mut r);
        // From soft attention rows to saturated ones (weights of exactly 0).
        let amp = g.f64_in(0.1, 40.0);
        let x = Matrix::from_vec(t, d, g.vec_f64(-amp, amp, t * d, t * d + 1));

        let fast = attn.kmajor().attend_last(&x);
        let full = attn.forward(&x);
        attn.clear_cache();
        prop_assert_eq!(fast.len(), d);
        for (i, (a, b)) in fast.iter().zip(full.row(t - 1)).enumerate() {
            prop_assert!(
                a.to_bits() == b.to_bits(),
                "d {d} heads {heads} T {t} causal {causal} col {i}: {a:e} vs {b:e}"
            );
        }
        Ok(())
    });
}

/// FNV-1a over the little-endian bytes of `values`.
fn fnv1a_f64(values: impl IntoIterator<Item = f64>) -> u64 {
    values.into_iter().flat_map(f64::to_le_bytes).fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One backward pass of a loss that reads row `T − 1` only (what TFT
/// trains on): the gradients it leaves in `wq`, `wk`, `wv`, `wo`, then `dX`.
fn last_row_gradients(attn: &mut MultiHeadAttention, x: &Matrix, dy_last: &[f64]) -> Vec<f64> {
    let _ = attn.forward_last(x);
    let dx = attn.backward_last(dy_last);
    let mut out = Vec::new();
    attn.visit_params(&mut |p| out.extend_from_slice(&p.grad));
    out.extend_from_slice(dx.data());
    out
}

#[test]
fn attention_last_row_gradients_match_golden_hash() {
    // Committed at the parent of the last-row training pair, from the
    // all-rows `forward` + `backward`: the pair must reproduce every bit.
    // Re-pinned once, when softmax's `exp` left the host's libm.
    const GOLDEN: u64 = 0x8e99_1634_d3da_6710;
    const HEADS: [usize; 3] = [1, 2, 4];
    const LEN: [usize; 4] = [1, 2, 5, 72];
    // Soft attention rows to saturated ones (softmax weights of exactly 0).
    const AMP: [f64; 3] = [0.3, 4.0, 40.0];
    let mut r = seeded(0x00a7_7e57);
    let mut grads = Vec::new();
    for heads in HEADS {
        for t in LEN {
            for causal in [false, true] {
                for amp in AMP {
                    let d = heads * (1 + rpas_tsmath::rng::uniform_index(&mut r, 8));
                    let mut attn = MultiHeadAttention::new(d, heads, causal, &mut r);
                    let x: Vec<f64> = (0..t * d)
                        .map(|_| amp * (2.0 * rpas_tsmath::rng::uniform(&mut r) - 1.0))
                        .collect();
                    let dy_last: Vec<f64> =
                        (0..d).map(|_| rpas_tsmath::rng::standard_normal(&mut r)).collect();
                    let x = Matrix::from_vec(t, d, x);
                    grads.extend(last_row_gradients(&mut attn, &x, &dy_last));
                }
            }
        }
    }
    assert_eq!(fnv1a_f64(grads), GOLDEN, "attention gradients moved");
}

#[test]
fn forward_last_matches_last_row_of_forward_bit_for_bit() {
    const HEADS: [usize; 3] = [1, 2, 4];
    const LEN: [usize; 4] = [1, 2, 5, 72];
    forall("forward_last_matches_last_row_of_forward_bit_for_bit", 64, |g| {
        let mut r = seeded(g.u64());
        let heads = HEADS[g.usize_in(0, HEADS.len())];
        let d = heads * g.usize_in(1, 9);
        let t = LEN[g.usize_in(0, LEN.len())];
        let causal = g.u8() % 2 == 0;
        let mut attn = MultiHeadAttention::new(d, heads, causal, &mut r);
        // From soft attention rows to saturated ones (weights of exactly 0).
        let amp = g.f64_in(0.1, 40.0);
        let x = Matrix::from_vec(t, d, g.vec_f64(-amp, amp, t * d, t * d + 1));

        let last = attn.forward_last(&x);
        let full = attn.forward(&x);
        attn.clear_cache();
        prop_assert_eq!(last.len(), d);
        for (i, (a, b)) in last.iter().zip(full.row(t - 1)).enumerate() {
            prop_assert!(
                a.to_bits() == b.to_bits(),
                "d {d} heads {heads} T {t} causal {causal} col {i}: {a:e} vs {b:e}"
            );
        }
        Ok(())
    });
}

#[test]
fn grn_view_matches_forward_bit_for_bit() {
    // Hidden and output widths below, at and off a multiple of the
    // k-major kernel's row blocks; row counts below, at and past a pass.
    forall("grn_view_matches_forward_bit_for_bit", 64, |g| {
        let mut r = seeded(g.u64());
        let in_dim = g.usize_in(1, 20);
        let hidden = g.usize_in(1, 20);
        // Equal widths take the identity skip, unequal ones the projection.
        let out_dim = if g.u8() % 2 == 0 { in_dim } else { in_dim + g.usize_in(1, 10) };
        let mut grn = GatedResidualNetwork::new(in_dim, hidden, out_dim, &mut r);
        grn.visit_params(&mut |p| {
            for w in &mut p.data {
                *w = g.f64_in(-1.5, 1.5);
            }
        });

        // One view across calls, as TFT applies it to every pass.
        let form = grn.kmajor();
        let pass_rows = g.usize_in(1, 20);
        let mut view = form.view(pass_rows);
        let calls: Vec<Vec<f64>> = (0..2)
            .map(|_| {
                let rows = g.usize_in(1, 40);
                g.vec_f64(-3.0, 3.0, rows * in_dim, rows * in_dim + 1)
            })
            .collect();
        for xs in &calls {
            let mut ys = vec![f64::NAN; xs.len() / in_dim * out_dim];
            view.apply_rows(xs, &mut ys);
            for (row, (x, fast)) in
                xs.chunks_exact(in_dim).zip(ys.chunks_exact(out_dim)).enumerate()
            {
                let reference = grn.forward(x);
                grn.clear_cache();
                for (i, (a, b)) in fast.iter().zip(&reference).enumerate() {
                    prop_assert!(
                        a.to_bits() == b.to_bits(),
                        "dims {in_dim}/{hidden}/{out_dim} pass {pass_rows} row {row} unit {i}: \
                         {a:e} vs {b:e}"
                    );
                }
            }
        }
        Ok(())
    });
}

#[test]
fn pinball_loss_nonnegative() {
    forall("pinball_loss_nonnegative", 48, |g| {
        let pred = g.f64_in(-100.0, 100.0);
        let target = g.f64_in(-100.0, 100.0);
        let tau = g.f64_in(0.01, 0.99);
        let (l, _) = loss::pinball(pred, target, tau);
        prop_assert!(l >= 0.0);
        // Zero exactly when pred == target.
        let (l0, _) = loss::pinball(target, target, tau);
        // pinball(y, y, tau) is exactly zero by construction (tau * (y - y)); the test pins that identity
        prop_assert!(l0 == 0.0);
        Ok(())
    });
}

#[test]
fn pinball_grid_nonnegative() {
    forall("pinball_grid_nonnegative", 48, |g| {
        let target = g.f64_in(-50.0, 50.0);
        let taus = [0.1, 0.5, 0.9];
        let preds = [g.f64_in(-10.0, 10.0), g.f64_in(-10.0, 10.0), g.f64_in(-10.0, 10.0)];
        let (l, grad) = loss::pinball_grid(&preds, target, &taus);
        prop_assert!(l >= 0.0);
        prop_assert_eq!(grad.len(), 3);
        Ok(())
    });
}

#[test]
fn gaussian_nll_decreases_toward_truth() {
    forall("gaussian_nll_decreases_toward_truth", 48, |g| {
        // Moving mu toward y cannot increase the NLL (fixed sigma).
        let y = g.f64_in(-5.0, 5.0);
        let off = g.f64_in(0.5, 3.0);
        let (far, _, _) = loss::gaussian_nll(y + off, 0.0, y);
        let (near, _, _) = loss::gaussian_nll(y + off / 2.0, 0.0, y);
        let (at, _, _) = loss::gaussian_nll(y, 0.0, y);
        prop_assert!(at <= near + 1e-12);
        prop_assert!(near <= far + 1e-12);
        Ok(())
    });
}

#[test]
fn student_t_nll_finite_everywhere() {
    forall("student_t_nll_finite_everywhere", 48, |g| {
        let mu = g.f64_in(-10.0, 10.0);
        let sraw = g.f64_in(-5.0, 5.0);
        let nraw = g.f64_in(-5.0, 5.0);
        let y = g.f64_in(-10.0, 10.0);
        let (l, dmu, dsr, dnr) = loss::student_t_nll(mu, sraw, nraw, y);
        prop_assert!(l.is_finite());
        prop_assert!(dmu.is_finite() && dsr.is_finite() && dnr.is_finite());
        Ok(())
    });
}

#[test]
fn adam_step_magnitude_bounded_by_lr() {
    forall("adam_step_magnitude_bounded_by_lr", 48, |g| {
        let grad = g.f64_in(-1e3, 1e3);
        let lr = g.f64_in(1e-4, 0.1);
        if grad.abs() <= 1e-6 {
            return prop_discard();
        }
        let mut p = Param::from_vec(vec![0.0]);
        p.grad = vec![grad];
        let mut opt = Adam::new(lr);
        opt.begin_step();
        opt.update(&mut p);
        // First-step Adam update is ~lr regardless of gradient scale.
        prop_assert!(p.data[0].abs() <= lr * 1.01, "step {} > lr {lr}", p.data[0]);
        Ok(())
    });
}

#[test]
fn clip_grad_norm_enforces_bound() {
    forall("clip_grad_norm_enforces_bound", 48, |g| {
        let mut r = seeded(g.u64());
        let max_norm = g.f64_in(0.1, 5.0);
        let mut m = Mlp::new(&[2, 4, 1], Activation::Tanh, &mut r);
        // Accumulate a big gradient.
        let y = m.forward(&[1.0, -1.0]);
        let dy = vec![1e4 * (y[0] + 1.0)];
        let _ = m.backward(&dy);
        m.clip_grad_norm(max_norm);
        let mut sq = 0.0;
        m.visit_params(&mut |p| sq += p.grad.iter().map(|gr| gr * gr).sum::<f64>());
        prop_assert!(sq.sqrt() <= max_norm * (1.0 + 1e-9), "norm {} > {max_norm}", sq.sqrt());
        Ok(())
    });
}

#[test]
fn weight_snapshot_roundtrips_any_mlp_shape() {
    forall("weight_snapshot_roundtrips_any_mlp_shape", 32, |g| {
        use rpas_nn::{load_weights, save_weights};
        let seed = g.u64();
        let inp = g.usize_in(1, 6);
        let hid = g.usize_in(1, 8);
        let out = g.usize_in(1, 5);
        let mut r1 = seeded(seed);
        let mut r2 = seeded(seed ^ 0xdead_beef);
        let mut a = Mlp::new(&[inp, hid, out], Activation::Tanh, &mut r1);
        let mut b = Mlp::new(&[inp, hid, out], Activation::Tanh, &mut r2);
        let snap = save_weights(&mut [&mut a], &[42.0]);
        let extras = load_weights(&mut [&mut b], &snap).expect("same shape must load");
        prop_assert_eq!(extras, vec![42.0]);
        let x: Vec<f64> = (0..inp).map(|i| i as f64 * 0.3 - 0.5).collect();
        prop_assert_eq!(a.apply(&x), b.apply(&x));
        Ok(())
    });
}

#[test]
fn snapshot_never_panics_on_arbitrary_bytes() {
    forall("snapshot_never_panics_on_arbitrary_bytes", 32, |g| {
        use rpas_nn::load_weights;
        let data = g.vec_u8(0, 256);
        let mut r = seeded(1);
        let mut m = Mlp::new(&[2, 3, 1], Activation::Relu, &mut r);
        // Must return an error (or in freak cases succeed), never panic.
        let _ = load_weights(&mut [&mut m], &data);
        Ok(())
    });
}
