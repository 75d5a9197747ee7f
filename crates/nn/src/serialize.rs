//! Model-weight persistence: a small self-describing binary format for
//! snapshotting and restoring the parameters of any [`Layer`] stack, plus a
//! slot for model-level scalars (input scalers etc.).
//!
//! Layout (all little-endian):
//!
//! ```text
//! magic  u32  = 0x5250_4E4E ("RPNN")
//! ver    u16  = 1
//! extras u16  count, then extras × f64
//! layers u16  count, then per layer:
//!   params u16 count, then per param: len u32, len × f64
//! ```
//!
//! Shapes are validated on load: restoring into a layer stack with a
//! different architecture fails instead of silently corrupting weights.

use crate::Layer;

const MAGIC: u32 = 0x5250_4E4E; // "RPNN"
const VERSION: u16 = 1;

/// Little-endian reader over a byte slice with explicit bounds checks, so
/// corrupt snapshots surface as [`SerializeError::Truncated`], never panics.
struct Cursor<'a> {
    buf: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf }
    }

    fn remaining(&self) -> usize {
        self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SerializeError> {
        if self.buf.len() < n {
            return Err(SerializeError::Truncated);
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn get_u16_le(&mut self) -> Result<u16, SerializeError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn get_u32_le(&mut self) -> Result<u32, SerializeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    #[expect(clippy::expect_used, reason = "take(8) returned eight bytes or Err")]
    fn get_f64_le(&mut self) -> Result<f64, SerializeError> {
        let b = self.take(8)?;
        Ok(f64::from_le_bytes(b.try_into().expect("take(8) returns 8 bytes")))
    }
}

/// Errors restoring a weight snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SerializeError {
    /// The buffer does not start with the expected magic number.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u16),
    /// The buffer ended before all declared data was read.
    Truncated,
    /// Layer/param structure in the snapshot does not match the target.
    ShapeMismatch {
        /// What was expected (from the live layers).
        expected: String,
        /// What the snapshot declared.
        found: String,
    },
    /// Trailing bytes after all declared data (likely a corrupt file).
    TrailingData(usize),
}

impl std::fmt::Display for SerializeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SerializeError::BadMagic => write!(f, "not an RPNN weight snapshot"),
            SerializeError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SerializeError::Truncated => write!(f, "snapshot truncated"),
            SerializeError::ShapeMismatch { expected, found } => {
                write!(f, "snapshot shape mismatch: expected {expected}, found {found}")
            }
            SerializeError::TrailingData(n) => write!(f, "{n} trailing bytes after snapshot"),
        }
    }
}

impl std::error::Error for SerializeError {}

/// Snapshot the parameters of a layer stack (in `visit_params` order) plus
/// model-level scalar `extras`.
pub fn save(layers: &mut [&mut dyn Layer], extras: &[f64]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(1024);
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&(extras.len() as u16).to_le_bytes());
    for &e in extras {
        buf.extend_from_slice(&e.to_le_bytes());
    }
    buf.extend_from_slice(&(layers.len() as u16).to_le_bytes());
    for layer in layers.iter_mut() {
        let mut params: Vec<Vec<f64>> = Vec::new();
        layer.visit_params(&mut |p| params.push(p.data.clone()));
        buf.extend_from_slice(&(params.len() as u16).to_le_bytes());
        for p in params {
            buf.extend_from_slice(&(p.len() as u32).to_le_bytes());
            for v in p {
                buf.extend_from_slice(&v.to_le_bytes());
            }
        }
    }
    buf
}

/// Restore a snapshot into a layer stack with the same architecture.
/// Returns the model-level extras stored by [`save`].
///
/// # Errors
/// Fails on bad magic/version, truncation, or any shape mismatch; on error
/// the layers may be partially updated and should be discarded.
pub fn load(layers: &mut [&mut dyn Layer], data: &[u8]) -> Result<Vec<f64>, SerializeError> {
    let mut buf = Cursor::new(data);

    if buf.get_u32_le()? != MAGIC {
        return Err(SerializeError::BadMagic);
    }
    let ver = buf.get_u16_le()?;
    if ver != VERSION {
        return Err(SerializeError::BadVersion(ver));
    }
    let n_extras = buf.get_u16_le()? as usize;
    let mut extras = Vec::with_capacity(n_extras);
    for _ in 0..n_extras {
        extras.push(buf.get_f64_le()?);
    }

    let n_layers = buf.get_u16_le()? as usize;
    if n_layers != layers.len() {
        return Err(SerializeError::ShapeMismatch {
            expected: format!("{} layers", layers.len()),
            found: format!("{n_layers} layers"),
        });
    }

    for (li, layer) in layers.iter_mut().enumerate() {
        let n_params = buf.get_u16_le()? as usize;
        let mut expected_params = 0;
        layer.visit_params(&mut |_| expected_params += 1);
        if n_params != expected_params {
            return Err(SerializeError::ShapeMismatch {
                expected: format!("layer {li}: {expected_params} params"),
                found: format!("layer {li}: {n_params} params"),
            });
        }
        // Read all params for this layer first (the closure cannot early-
        // return), then validate and write.
        let mut incoming: Vec<Vec<f64>> = Vec::with_capacity(n_params);
        for _ in 0..n_params {
            let len = buf.get_u32_le()? as usize;
            let mut values = Vec::with_capacity(len);
            for _ in 0..len {
                values.push(buf.get_f64_le()?);
            }
            incoming.push(values);
        }
        let mut idx = 0;
        let mut mismatch: Option<(usize, usize, usize)> = None;
        layer.visit_params(&mut |p| {
            let inc = &incoming[idx];
            if inc.len() != p.data.len() {
                mismatch.get_or_insert((idx, p.data.len(), inc.len()));
            } else {
                p.data.copy_from_slice(inc);
            }
            idx += 1;
        });
        if let Some((pi, want, got)) = mismatch {
            return Err(SerializeError::ShapeMismatch {
                expected: format!("layer {li} param {pi}: {want} values"),
                found: format!("layer {li} param {pi}: {got} values"),
            });
        }
    }

    if buf.remaining() > 0 {
        return Err(SerializeError::TrailingData(buf.remaining()));
    }
    Ok(extras)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Activation, Dense, GruCell, Mlp};
    use rpas_tsmath::rng::seeded;

    #[test]
    fn roundtrip_dense() {
        let mut r = seeded(1);
        let mut a = Dense::new(3, 2, &mut r);
        let mut b = Dense::new(3, 2, &mut r); // different init
        assert_ne!(a.w.data, b.w.data);
        let snap = save(&mut [&mut a], &[1.5, -2.0]);
        let extras = load(&mut [&mut b], &snap).unwrap();
        assert_eq!(extras, vec![1.5, -2.0]);
        assert_eq!(a.w.data, b.w.data);
        assert_eq!(a.b.data, b.b.data);
        // Forecast-identical behaviour.
        assert_eq!(a.apply(&[0.1, 0.2, 0.3]), b.apply(&[0.1, 0.2, 0.3]));
    }

    #[test]
    fn roundtrip_multi_layer_stack() {
        let mut r = seeded(2);
        let mut g1 = GruCell::new(1, 4, &mut r);
        let mut h1 = Dense::new(4, 3, &mut r);
        let mut g2 = GruCell::new(1, 4, &mut r);
        let mut h2 = Dense::new(4, 3, &mut r);
        let snap = save(&mut [&mut g1, &mut h1], &[]);
        load(&mut [&mut g2, &mut h2], &snap).unwrap();
        let s = g1.init_state();
        let s1 = g1.apply(&[0.4], &s);
        let s2 = g2.apply(&[0.4], &s);
        assert_eq!(s1, s2);
        assert_eq!(h1.apply(&s1), h2.apply(&s2));
    }

    #[test]
    fn wrong_architecture_rejected() {
        let mut r = seeded(3);
        let mut a = Dense::new(3, 2, &mut r);
        let mut wrong_dims = Dense::new(4, 2, &mut r);
        let mut wrong_count = Mlp::new(&[3, 4, 2], Activation::Relu, &mut r);
        let snap = save(&mut [&mut a], &[]);
        assert!(matches!(
            load(&mut [&mut wrong_dims], &snap),
            Err(SerializeError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            load(&mut [&mut wrong_count], &snap),
            Err(SerializeError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn corrupt_inputs_rejected() {
        let mut r = seeded(4);
        let mut a = Dense::new(2, 2, &mut r);
        let snap = save(&mut [&mut a], &[]);
        // Bad magic.
        let mut bad = snap.to_vec();
        bad[0] ^= 0xFF;
        assert_eq!(load(&mut [&mut a], &bad), Err(SerializeError::BadMagic));
        // Truncated.
        assert_eq!(load(&mut [&mut a], &snap[..snap.len() - 3]), Err(SerializeError::Truncated));
        // Trailing garbage.
        let mut long = snap.to_vec();
        long.extend_from_slice(&[0, 1, 2]);
        assert_eq!(load(&mut [&mut a], &long), Err(SerializeError::TrailingData(3)));
        // Empty.
        assert_eq!(load(&mut [&mut a], &[]), Err(SerializeError::Truncated));
    }

    #[test]
    fn error_display_strings() {
        assert!(SerializeError::BadMagic.to_string().contains("RPNN"));
        assert!(SerializeError::BadVersion(9).to_string().contains('9'));
    }
}
