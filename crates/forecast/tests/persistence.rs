//! Weight-persistence integration tests: train a model, export, restore
//! into a fresh instance, and require bit-identical forecasts.

use rpas_forecast::{
    DeepAr, DeepArConfig, DistKind, ForecastError, Forecaster, MlpProb, MlpProbConfig, Tft,
    TftConfig,
};
use rpas_tsmath::rng::{seeded, standard_normal};

fn series(n: usize, seed: u64) -> Vec<f64> {
    let mut r = seeded(seed);
    (0..n)
        .map(|t| {
            70.0 + 12.0 * (2.0 * std::f64::consts::PI * t as f64 / 12.0).sin()
                + 1.5 * standard_normal(&mut r)
        })
        .collect()
}

fn deepar_cfg() -> DeepArConfig {
    DeepArConfig {
        context: 12,
        train_window: 24,
        hidden: 10,
        epochs: 6,
        lr: 2e-3,
        windows_per_epoch: 24,
        num_samples: 40,
        seed: 5,
    }
}

#[test]
fn deepar_roundtrip_identical_forecasts() {
    let data = series(300, 1);
    let mut trained = DeepAr::new(deepar_cfg());
    Forecaster::fit(&mut trained, &data).unwrap();
    let snap = trained.export_weights().expect("fitted model exports");

    let mut restored = DeepAr::new(deepar_cfg());
    assert!(restored.export_weights().is_none(), "unfitted model has no weights");
    restored.import_weights(&snap).unwrap();

    let a = trained.forecast_quantiles(&data[..12], 6, &[0.1, 0.5, 0.9]).unwrap();
    let b = restored.forecast_quantiles(&data[..12], 6, &[0.1, 0.5, 0.9]).unwrap();
    assert_eq!(a, b);
}

#[test]
fn mlp_roundtrip_identical_forecasts() {
    let cfg = MlpProbConfig {
        context: 12,
        horizon: 4,
        hidden: vec![16],
        dist: DistKind::StudentT,
        epochs: 10,
        lr: 2e-3,
        windows_per_epoch: 24,
        seed: 2,
    };
    let data = series(300, 2);
    let mut trained = MlpProb::new(cfg.clone());
    Forecaster::fit(&mut trained, &data).unwrap();
    let snap = trained.export_weights().expect("fitted model exports");

    let mut restored = MlpProb::new(cfg);
    restored.import_weights(&snap).unwrap();
    let a = trained.forecast_quantiles(&data[..12], 4, &[0.5, 0.9]).unwrap();
    let b = restored.forecast_quantiles(&data[..12], 4, &[0.5, 0.9]).unwrap();
    assert_eq!(a, b);
}

#[test]
fn tft_roundtrip_identical_forecasts() {
    let cfg = TftConfig {
        context: 12,
        horizon: 4,
        d_model: 8,
        heads: 2,
        quantiles: vec![0.1, 0.5, 0.9],
        epochs: 6,
        lr: 2e-3,
        windows_per_epoch: 16,
        seed: 3,
    };
    let data = series(300, 3);
    let mut trained = Tft::new(cfg.clone());
    Forecaster::fit(&mut trained, &data).unwrap();
    let snap = trained.export_weights().expect("fitted model exports");

    let mut restored = Tft::new(cfg);
    restored.import_weights(&snap).unwrap();
    let a = trained.forecast_quantiles(&data[..12], 4, &[0.1, 0.5, 0.9]).unwrap();
    let b = restored.forecast_quantiles(&data[..12], 4, &[0.1, 0.5, 0.9]).unwrap();
    assert_eq!(a, b);
}

/// Fit `a` and `b` of one config on different series, then import `b`'s
/// snapshot into the fitted `a`: `a` must forecast `b`'s bits, not its
/// own. The fast inference paths run on a k-major copy of the weights
/// built with the fitted model, so this fails if an import keeps the old
/// copy.
fn import_into_a_fitted_model_forecasts_the_import<F: Forecaster>(
    mut a: F,
    mut b: F,
    import: impl Fn(&mut F, &[u8]),
    context: usize,
) {
    let bits = |m: &F, ctx: &[f64]| -> Vec<u64> {
        let f = m.forecast_quantiles(ctx, 4, &[0.1, 0.5, 0.9]).unwrap();
        f.values().data().iter().map(|v| v.to_bits()).collect()
    };
    let (data_a, data_b) = (series(300, 11), series(300, 12));
    a.fit(&data_a).unwrap();
    b.fit(&data_b).unwrap();
    let ctx = &data_a[100..100 + context];
    let own = bits(&a, ctx);
    let theirs = bits(&b, ctx);
    assert_ne!(own, theirs, "the two fits must differ for the test to mean anything");

    import(&mut a, &b.export_weights().expect("fitted model exports"));
    assert_eq!(bits(&a, ctx), theirs, "{}: the import kept the old inference form", a.name());
}

#[test]
fn import_into_a_fitted_model_rebuilds_its_inference_form() {
    let tft = || {
        Tft::new(TftConfig {
            context: 12,
            horizon: 4,
            d_model: 8,
            heads: 2,
            quantiles: vec![0.1, 0.5, 0.9],
            epochs: 3,
            lr: 2e-3,
            windows_per_epoch: 16,
            seed: 3,
        })
    };
    import_into_a_fitted_model_forecasts_the_import(
        tft(),
        tft(),
        |m, snap| m.import_weights(snap).unwrap(),
        12,
    );
    // Same seed on both sides: DeepAR's sampling stream is the model seed's.
    let deepar = || DeepAr::new(deepar_cfg());
    import_into_a_fitted_model_forecasts_the_import(
        deepar(),
        deepar(),
        |m, snap| m.import_weights(snap).unwrap(),
        12,
    );
}

#[test]
fn cross_architecture_import_rejected() {
    let data = series(300, 4);
    let mut trained = DeepAr::new(deepar_cfg());
    Forecaster::fit(&mut trained, &data).unwrap();
    let snap = trained.export_weights().unwrap();

    // Different hidden size must be rejected.
    let mut other = DeepAr::new(DeepArConfig { hidden: 12, ..deepar_cfg() });
    assert!(matches!(other.import_weights(&snap), Err(ForecastError::InvalidConfig(_))));

    // A TFT cannot import DeepAR weights either.
    let mut tft = Tft::new(TftConfig {
        context: 12,
        horizon: 4,
        d_model: 8,
        heads: 2,
        quantiles: vec![0.5],
        epochs: 1,
        lr: 1e-3,
        windows_per_epoch: 8,
        seed: 1,
    });
    assert!(matches!(tft.import_weights(&snap), Err(ForecastError::InvalidConfig(_))));
}

#[test]
fn corrupt_snapshot_rejected() {
    let data = series(300, 5);
    let mut trained = DeepAr::new(deepar_cfg());
    Forecaster::fit(&mut trained, &data).unwrap();
    let mut snap = trained.export_weights().unwrap();
    snap.truncate(snap.len() / 2);
    let mut restored = DeepAr::new(deepar_cfg());
    assert!(restored.import_weights(&snap).is_err());
}

// ---------------------------------------------------------------------
// Cross-commit identity pin. `tests/determinism.rs` shows a fit repeats
// run to run; this shows it repeats commit to commit: the trained
// weights, the per-epoch audit numbers and one forecast of every
// window-trained model, down to the bit. The constants were generated
// before the training loops were folded into one and re-pinned once, when
// the neural activations left the host's libm for
// `rpas_tsmath::elementary`; they are not to be edited by a change that
// claims to leave training alone.
// ---------------------------------------------------------------------

use rpas_forecast::{MlpQuantile, MlpQuantileConfig, PointForecaster, Qb5000, Qb5000Config};
use rpas_obs::catalog::{self, EventName};
use rpas_obs::{MemorySink, Obs, Value};

/// 64-bit FNV-1a.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

fn fnv1a_f64(values: impl IntoIterator<Item = f64>) -> u64 {
    fnv1a(values.into_iter().flat_map(f64::to_le_bytes))
}

/// The `loss` and `grad_norm` of every `epoch` event, in emit order.
fn epoch_audit(mem: &MemorySink, epoch: EventName, epochs: usize) -> Vec<f64> {
    let mut out = Vec::new();
    for e in mem.events().iter().filter(|e| e.is(epoch)) {
        for key in ["loss", "grad_norm"] {
            match e.get(key) {
                Some(Value::F64(v)) => out.push(v),
                other => panic!("{epoch} field {key}: {other:?}"),
            }
        }
    }
    assert_eq!(out.len(), 2 * epochs, "{epoch}: one event per epoch");
    out
}

/// What one fitted quantile model is pinned by: its exported bytes, its
/// epoch audit, and a forecast at two trained and two off-grid levels.
fn fingerprint(
    model: &dyn Forecaster,
    export: Vec<u8>,
    mem: &MemorySink,
    epoch: EventName,
    epochs: usize,
    context: &[f64],
) -> [u64; 3] {
    let qf = model.forecast_quantiles(context, 4, &[0.1, 0.3, 0.5, 0.95]).expect("forecast");
    [
        fnv1a(export),
        fnv1a_f64(epoch_audit(mem, epoch, epochs)),
        fnv1a_f64(qf.values().data().iter().copied()),
    ]
}

#[test]
fn golden_weights_epoch_audit_and_forecast_bits() {
    let data = series(300, 11);
    // Longer than any context below, so the tail slice is exercised too.
    let context = &data[200..230];
    let sink = || {
        let mem = MemorySink::new();
        (Obs::with_sink(Box::new(mem.clone())), mem)
    };
    let mut got: Vec<(&str, [u64; 3])> = Vec::new();

    let heads = [("mlp-gaussian", DistKind::Gaussian), ("mlp-student-t", DistKind::StudentT)];
    for (label, dist) in heads {
        let (obs, mem) = sink();
        let mut m = MlpProb::new(MlpProbConfig {
            context: 12,
            horizon: 4,
            hidden: vec![10, 6],
            dist,
            epochs: 4,
            lr: 3e-3,
            windows_per_epoch: 9,
            seed: 21,
        })
        .with_obs(obs);
        Forecaster::fit(&mut m, &data).unwrap();
        let bytes = m.export_weights().expect("fitted");
        let epoch = catalog::TRAIN_MLP_EPOCH;
        got.push((label, fingerprint(&m, bytes, &mem, epoch, 4, context)));
    }

    let (obs, mem) = sink();
    let mut m = MlpQuantile::new(MlpQuantileConfig {
        context: 12,
        horizon: 4,
        hidden: vec![10],
        quantiles: vec![0.1, 0.5, 0.9],
        epochs: 4,
        lr: 3e-3,
        windows_per_epoch: 9,
        seed: 22,
    })
    .with_obs(obs);
    Forecaster::fit(&mut m, &data).unwrap();
    let bytes = m.export_weights().expect("fitted");
    let epoch = catalog::TRAIN_MLP_QUANTILE_EPOCH;
    got.push(("mlp-quantile", fingerprint(&m, bytes, &mem, epoch, 4, context)));

    let (obs, mem) = sink();
    let cfg = DeepArConfig { epochs: 3, windows_per_epoch: 7, seed: 23, ..deepar_cfg() };
    let mut m = DeepAr::new(cfg).with_obs(obs);
    Forecaster::fit(&mut m, &data).unwrap();
    let bytes = m.export_weights().expect("fitted");
    got.push(("deepar", fingerprint(&m, bytes, &mem, catalog::TRAIN_DEEPAR_EPOCH, 3, context)));

    let (obs, mem) = sink();
    let mut m = Tft::new(TftConfig {
        context: 12,
        horizon: 4,
        d_model: 8,
        heads: 2,
        quantiles: vec![0.1, 0.5, 0.9],
        epochs: 3,
        lr: 3e-3,
        windows_per_epoch: 5,
        seed: 24,
    })
    .with_obs(obs);
    Forecaster::fit(&mut m, &data).unwrap();
    let bytes = m.export_weights().expect("fitted");
    got.push(("tft", fingerprint(&m, bytes, &mem, catalog::TRAIN_TFT_EPOCH, 3, context)));

    // QB5000 exports nothing and emits nothing: its forecast is the pin.
    let mut qb = Qb5000::new(Qb5000Config {
        context: 12,
        horizon: 4,
        hidden: 6,
        epochs: 3,
        lr: 3e-3,
        windows_per_epoch: 7,
        kernel_pairs: 32,
        seed: 25,
    });
    PointForecaster::fit(&mut qb, &data).unwrap();
    let point = PointForecaster::forecast(&qb, context, 4).unwrap();
    let qb_bits: Vec<u64> = point.iter().map(|v| v.to_bits()).collect();

    let golden: [(&str, [u64; 3]); 5] = [
        ("mlp-gaussian", [0xf8e1_dff1_a58e_977d, 0x18b3_dfec_ce84_3d4d, 0x156a_a58c_940a_139e]),
        ("mlp-student-t", [0x145d_31f7_422c_1863, 0x4706_005a_7e14_07f9, 0x2238_a533_8fe0_dced]),
        ("mlp-quantile", [0x16e7_64a5_57af_cc95, 0x4405_4108_d82d_b685, 0x8d8a_aa97_cfd9_4f05]),
        ("deepar", [0x1aa7_3ec7_4afd_7c32, 0xa0ef_2eda_1460_a84a, 0x4b4c_2686_0457_780d]),
        ("tft", [0x1126_b7be_e055_3f1c, 0x61b9_9b72_ca86_7936, 0xa474_a3f1_0490_e6d9]),
    ];
    let golden_qb: [u64; 4] = [
        0x4052_5aa4_1a07_07a2,
        0x4052_a89f_ad06_0c32,
        0x4052_8eb8_adec_b7c3,
        0x4052_4951_2fcf_191e,
    ];
    assert_eq!(got, golden, "[weights, epoch audit, forecast] moved: {got:#018x?}");
    assert_eq!(qb_bits, golden_qb, "qb5000 forecast moved: {qb_bits:#018x?}");
}
