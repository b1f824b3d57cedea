//! Micro-benchmark for the downstream model that dominates a GBDT feature search: one
//! `GradientBoosting::fit` on the input a candidate evaluation trains on — the 400-row train
//! half of a seeded 500-entity tmall task (binary labels) with one candidate column appended.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use feataug::evaluation::{FeatureEvaluator, SPLIT};
use feataug_bench::datasets::build_task_with;
use feataug_datagen::GenConfig;
use feataug_ml::gbdt::GradientBoosting;
use feataug_ml::{Model, ModelKind};

fn bench_gbdt(c: &mut Criterion) {
    let ds = build_task_with(
        "tmall",
        &GenConfig {
            n_entities: 500,
            fanout: 10,
            n_noise_cols: 2,
            seed: 1,
        },
    );
    let labels = ds.task.labels().expect("generated task has labels");
    let candidate: Vec<f64> = labels
        .iter()
        .enumerate()
        .map(|(i, &y)| y + ((i * 17) % 13) as f64 * 0.25)
        .collect();
    let evaluator = FeatureEvaluator::new(&ds.task, ModelKind::GradientBoosting, 42);
    let (train, _valid) = evaluator
        .base_dataset()
        .with_feature("candidate", &candidate)
        .split2(SPLIT.0 + SPLIT.1, 42);

    c.bench_function(
        &format!("gbdt/fit_{}x{}", train.len(), train.n_features()),
        |b| {
            b.iter(|| {
                let mut model = GradientBoosting::default();
                model.fit(black_box(&train));
                model
            })
        },
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_gbdt
}
criterion_main!(benches);
