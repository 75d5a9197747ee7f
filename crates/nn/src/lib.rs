//! # rpas-nn
//!
//! A small, dependency-light neural-network substrate with hand-written
//! forward/backward passes — the engine under the probabilistic workload
//! forecasters (MLP, DeepAR-style GRU, TFT-style attention model).
//!
//! Design notes:
//!
//! * **No autograd.** Every layer caches what its backward pass needs on an
//!   internal stack, so the same layer instance can be unrolled over a
//!   sequence (weight sharing for BPTT) and then back-propagated in reverse
//!   order. [`gradcheck`] validates every layer — and, from
//!   `rpas-forecast`'s tests, the whole TFT — against central finite
//!   differences.
//! * **Parameter-owned optimizer state.** Each [`Param`] carries its value,
//!   its accumulated gradient, and its Adam moment buffers; the optimizer is
//!   just hyperparameters plus a shared step counter.
//! * **Inference takes `&self`.** `forward`/`backward` (attention's
//!   training pair is `forward_last`/`backward_last`, for the one row its
//!   loss reads) push and pop caches; `apply`/`apply_into`, `stepper()`,
//!   the GRN's `view()` and `attend_last` cache nothing, so a fitted net is
//!   shared, not cloned. The steppers, the GRN view and attention's K/V
//!   projections run on one k-major kernel, and each path is pinned bit for
//!   bit against its `forward` twin (`tests/properties.rs`); attention's
//!   all-rows `forward` caches nothing and is the reference for both
//!   last-row paths.
//! * **`f64` everywhere.** The workloads are small time series; determinism
//!   and debuggability beat raw speed.

#![warn(missing_docs)]
// Library-code rules P1 / O1 (DESIGN.md §9); an exemption is a per-site `#[expect]`.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::print_stdout)]
#![cfg_attr(not(test), deny(clippy::float_cmp))] // F1

mod activation;
mod adam;
mod attention;
pub mod gradcheck;
mod grn;
mod gru;
mod kmajor;
mod linear;
pub mod loss;
mod lstm;
mod param;
mod serialize;
mod sequential;

pub use activation::Activation;
pub use adam::Adam;
pub use attention::MultiHeadAttention;
pub use grn::{GatedResidualNetwork, GrnView};
pub use gru::{GruCell, GruStepper};
pub use linear::Dense;
pub use lstm::{LstmCell, LstmStepper};
pub use param::Param;
pub use serialize::{load as load_weights, save as save_weights, SerializeError};
pub use sequential::Mlp;

/// Trait implemented by everything that owns trainable parameters.
///
/// `visit_params` hands each [`Param`] to the callback; the optimizer uses it
/// to step, and helpers use it for gradient clipping and zeroing.
pub trait Layer {
    /// Visit every trainable parameter (mutably).
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Zero all accumulated gradients.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.grad.iter_mut().for_each(|g| *g = 0.0));
    }

    /// Drop cached activations (call between unrelated forward passes if a
    /// backward pass was skipped).
    fn clear_cache(&mut self);

    /// Global L2 norm of every accumulated gradient, without modifying
    /// them (what training-loop instrumentation records per epoch).
    fn grad_norm(&mut self) -> f64 {
        let mut sq = 0.0;
        self.visit_params(&mut |p| sq += p.grad.iter().map(|g| g * g).sum::<f64>());
        sq.sqrt()
    }

    /// Global-norm gradient clipping across every parameter of the layer.
    /// Returns the pre-clip global norm.
    fn clip_grad_norm(&mut self, max_norm: f64) -> f64 {
        let norm = self.grad_norm();
        if norm > max_norm && norm > 0.0 {
            let s = max_norm / norm;
            self.visit_params(&mut |p| p.grad.iter_mut().for_each(|g| *g *= s));
        }
        norm
    }
}
