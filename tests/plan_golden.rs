//! Golden plans: `FeatAug::fit` with the fast search and the gradient-boosted
//! model returns, byte for byte, the plan text recorded before the tree
//! grower moved to a per-fit rank presort (`tests/golden/*.plan`). Every
//! candidate's validation loss comes from a boosted model, so any change to a
//! split, a threshold or a leaf weight moves a loss and, with it, the plan.

use feataug::{FeatAug, FeatAugConfig};
use feataug_datagen::GenConfig;
use feataug_ml::ModelKind;
use feataug_repro::to_aug_task;

fn fitted_plan_text(seed: u64) -> String {
    let ds = feataug_datagen::generate_by_name(
        "tmall",
        &GenConfig {
            n_entities: 160,
            fanout: 6,
            n_noise_cols: 1,
            seed,
        },
    )
    .unwrap();
    FeatAug::new(FeatAugConfig::fast(ModelKind::GradientBoosting))
        .fit(&to_aug_task(&ds))
        .unwrap()
        .plan()
        .to_plan_text()
}

#[test]
fn gbdt_fit_reproduces_golden_plan_seed_11() {
    assert_eq!(
        fitted_plan_text(11),
        include_str!("golden/tmall_gbdt_seed11.plan")
    );
}

#[test]
fn gbdt_fit_reproduces_golden_plan_seed_12() {
    assert_eq!(
        fitted_plan_text(12),
        include_str!("golden/tmall_gbdt_seed12.plan")
    );
}
