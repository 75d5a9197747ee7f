//! The paper's shape claims, asserted: EXPERIMENTS.md's "Shape
//! assessment" verdicts are the claims each experiment's
//! `Report::shapes` checks on its own typed result — the same method the
//! `experiments` bin prints. One test per experiment at `quick` (dev
//! profile, seconds); every experiment at `full` behind `#[ignore]`
//! (`cargo test --release -p rpas-bench --test shapes -- --ignored`, ~6
//! min; `scripts/verify.sh` runs it under `RPAS_VERIFY_PARALLEL=1`). A
//! claim scoped to one profile (`Scope::Quick` / `Scope::Full`) is
//! asserted only there, because the other profile measures otherwise.

use rpas_bench::experiments::EXPERIMENTS;
use rpas_bench::ExperimentProfile;

/// Every claim the selected experiments (all, for `None`) expect at `p`'s
/// profile holds.
fn assert_shapes(only: Option<&str>, p: &ExperimentProfile) {
    let selected: Vec<_> =
        EXPERIMENTS.iter().filter(|(name, _)| only.is_none_or(|o| o == *name)).collect();
    assert!(!selected.is_empty(), "no experiment is called {only:?}");
    let mut broken = Vec::new();
    for (name, run) in selected {
        let shapes = run(p).shapes();
        assert!(!shapes.is_empty(), "{name} checks no claim");
        broken.extend(
            shapes.into_iter().filter(|s| s.expected(p.profile) && !s.holds).map(|s| s.claim),
        );
    }
    assert!(broken.is_empty(), "shape claims broken at {:?}:\n{}", p.profile, broken.join("\n"));
}

macro_rules! at_quick {
    ($($name:ident)+) => {$(
        #[test]
        fn $name() {
            assert_shapes(Some(stringify!($name)), &ExperimentProfile::quick());
        }
    )+};
}

at_quick!(
    table1 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 ablation_grid ablation_staircase table2_3
);

#[test]
#[ignore = "paper scale: ~6 min in release; scripts/verify.sh runs it under RPAS_VERIFY_PARALLEL=1"]
fn every_shape_holds_at_full() {
    assert_shapes(None, &ExperimentProfile::full());
}
