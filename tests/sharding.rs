//! Shard-conformance suite: a key-sharded router must be indistinguishable —
//! bit for bit — from the unsharded engine it partitions, across every
//! serving surface.
//!
//! The suite pins, over randomized datasets and query pools:
//!
//! * `transform` through a [`ShardRouter`] at shard counts 1 / 2 / 7 against
//!   the unsharded serial (`workers = 1`) and default-worker paths (CI runs
//!   the whole suite under `FEATAUG_THREADS=1` *and* the default, so both
//!   engine worker regimes are covered);
//! * `lookup` for every training key, plus unseen and NULL adversaries
//!   (which must answer NULL on every shard count, exactly like the
//!   unsharded engine);
//! * serve through the [`ServingHandle`] [`ShardRouter::prepare`] builds —
//!   point, batch and panic-contained batch lookups — against the unsharded
//!   `AugModel::serve` reference path;
//! * `append_relevant` — the router splits the batch by the routing hash and
//!   publishes per-shard epochs; post-append answers must match the
//!   unsharded engine after the same batch (which existing suites pin to a
//!   full refit);
//! * the shard-count-1 router as a degenerate case of today's path.

use std::sync::Arc;

use proptest::prelude::*;
use rand::SeedableRng;

use feataug::pipeline::AugModel;
use feataug::{
    AugPlan, PlannedQuery, PredicateQuery, QueryCodec, QueryEngine, QueryTemplate, ServingHandle,
    ServingTier, ShardRouter, TierConfig,
};
use feataug_datagen::GenConfig;
use feataug_repro::to_aug_task;
use feataug_tabular::{AggFunc, Table, Value};

/// A randomized query pool over one generated dataset's codec, adjusted so
/// every query groups by the first key column — the router needs at least
/// one key column common to every query's `group_keys`, and forcing one in
/// keeps the rest of the sampled subsets (and everything else about the
/// queries) random.
fn random_pool(
    ds: &feataug_datagen::SyntheticDataset,
    seed: u64,
    n_queries: usize,
) -> Vec<PredicateQuery> {
    let template = QueryTemplate::new(
        AggFunc::all().to_vec(),
        ds.agg_columns.clone(),
        ds.predicate_attrs.clone(),
        ds.key_columns.clone(),
    );
    let codec = QueryCodec::build(&template, &ds.relevant).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let anchor = &ds.key_columns[0];
    (0..n_queries)
        .map(|_| {
            let mut query = codec.decode(&codec.space().sample(&mut rng));
            if !query.group_keys.contains(anchor) {
                query.group_keys.insert(0, anchor.clone());
            }
            query
        })
        .collect()
}

fn dataset(seed: u64, dataset_idx: usize) -> feataug_datagen::SyntheticDataset {
    let name = feataug_datagen::one_to_many_names()[dataset_idx];
    feataug_datagen::generate_by_name(name, &GenConfig::tiny().with_seed(seed)).unwrap()
}

fn bits(values: &[Option<f64>]) -> Vec<Option<u64>> {
    values.iter().map(|v| v.map(f64::to_bits)).collect()
}

/// The key a train row presents for `query`, aligned with its `group_keys`.
fn row_key(train: &Table, row: usize, keys: &[String]) -> Vec<Value> {
    keys.iter().map(|k| train.value(row, k).unwrap()).collect()
}

/// `handle`'s batch surfaces — `lookup_batch` and the per-request
/// `try_lookup_batch` — answer every key with exactly the bits of the
/// unsharded `AugModel::serve` reference.
fn assert_batches_serve_like(
    model: &AugModel,
    handle: &ServingHandle,
    keys: &[Vec<Value>],
    label: &str,
) {
    let batch = handle.lookup_batch(keys).unwrap();
    let tried = handle.try_lookup_batch(keys);
    assert_eq!(batch.len(), keys.len());
    assert_eq!(tried.len(), keys.len());
    for ((key, got), tried) in keys.iter().zip(&batch).zip(tried) {
        let want = bits(&model.serve(key).unwrap());
        assert_eq!(want, bits(got), "lookup_batch, {label}");
        assert_eq!(want, bits(&tried.unwrap()), "try_lookup_batch, {label}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `transform` and `lookup` through the router are bit-identical to the
    /// unsharded engine at shard counts 1 / 2 / 7, for seen, unseen and NULL
    /// keys alike — and the unsharded serial and default-worker transforms
    /// agree with each other, so the sharded outputs match *both* regimes.
    #[test]
    fn sharded_transform_and_lookup_are_bit_identical(
        seed in 0u64..10_000,
        dataset_idx in 0usize..4,
        n_queries in 1usize..6,
    ) {
        let ds = dataset(seed, dataset_idx);
        let task = to_aug_task(&ds);
        let pool = random_pool(&ds, seed ^ 0x5a4d, n_queries);

        let baseline = QueryEngine::new(&ds.train, &ds.relevant);
        let serial = baseline.transform_threads(&pool, &ds.train, 1).unwrap();
        let default = baseline.transform(&pool, &ds.train).unwrap();
        for (want, got) in serial.iter().zip(&default) {
            prop_assert_eq!(bits(want), bits(got), "serial vs default workers");
        }

        for n_shards in [1usize, 2, 7] {
            let router = ShardRouter::build(
                task.train.clone(),
                &ds.relevant,
                &ds.key_columns,
                &pool,
                n_shards,
            )
            .unwrap();
            prop_assert_eq!(router.n_shards(), n_shards);

            let sharded = router.transform(&pool, &ds.train).unwrap();
            prop_assert_eq!(sharded.len(), serial.len());
            for (i, (got, want)) in sharded.iter().zip(&serial).enumerate() {
                prop_assert_eq!(
                    bits(got), bits(want),
                    "transform, n_shards={} query {}", n_shards, i
                );
            }

            for (qi, query) in pool.iter().enumerate() {
                for row in 0..ds.train.num_rows().min(12) {
                    let key = row_key(&ds.train, row, &query.group_keys);
                    let want = baseline.lookup(query, &key).unwrap();
                    let got = router.lookup(query, &key).unwrap();
                    prop_assert_eq!(
                        want.map(f64::to_bits), got.map(f64::to_bits),
                        "lookup, n_shards={} query {} row {}", n_shards, qi, row
                    );
                }
                // Unseen and NULL keys answer NULL whichever shard the hash
                // probes — the unsharded unseen-key semantics, unchanged.
                for key in [
                    query.group_keys.iter().map(|_| Value::Str("##never##".into())).collect::<Vec<_>>(),
                    query.group_keys.iter().map(|_| Value::Null).collect::<Vec<_>>(),
                ] {
                    prop_assert_eq!(router.lookup(query, &key).unwrap(), None);
                }
            }
        }
    }

    /// Post-append conformance: the router splits a batch across shards
    /// (per-shard epochs, one router generation); answers afterwards are
    /// bit-identical to the unsharded engine fed the same batch.
    #[test]
    fn sharded_append_is_bit_identical_to_unsharded(
        seed in 0u64..10_000,
        dataset_idx in 0usize..4,
        n_queries in 1usize..5,
    ) {
        let ds = dataset(seed, dataset_idx);
        let task = to_aug_task(&ds);
        let pool = random_pool(&ds, seed ^ 0xa99e, n_queries);

        // Fit on the first two thirds of the relevant rows, stream the rest.
        let n = ds.relevant.num_rows();
        let split = (n * 2 / 3).max(1).min(n);
        let base_rows: Vec<usize> = (0..split).collect();
        let batch_rows: Vec<usize> = (split..n).collect();
        let base = ds.relevant.take(&base_rows);
        let batch = ds.relevant.take(&batch_rows);

        let unsharded = QueryEngine::new(&ds.train, &base);
        unsharded.append_relevant(&batch).unwrap();
        let want = unsharded.transform(&pool, &ds.train).unwrap();

        for n_shards in [1usize, 2, 7] {
            let router = ShardRouter::build(
                task.train.clone(),
                &base,
                &ds.key_columns,
                &pool,
                n_shards,
            )
            .unwrap();
            prop_assert_eq!(router.generation(), 0);
            let epoch = router.append_relevant(&batch).unwrap();
            prop_assert_eq!(epoch.generation, 1);
            prop_assert_eq!(epoch.appended_rows, batch.num_rows());
            prop_assert_eq!(router.generation(), 1);
            // Every appended row landed on exactly one shard.
            let landed: usize = epoch.shard_epochs.iter().map(|(_, e)| e.appended_rows).sum();
            prop_assert_eq!(landed, batch.num_rows());

            let got = router.transform(&pool, &ds.train).unwrap();
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                prop_assert_eq!(
                    bits(g), bits(w),
                    "post-append transform, n_shards={} query {}", n_shards, i
                );
            }
            for query in &pool {
                for row in 0..ds.train.num_rows().min(8) {
                    let key = row_key(&ds.train, row, &query.group_keys);
                    prop_assert_eq!(
                        unsharded.lookup(query, &key).unwrap().map(f64::to_bits),
                        router.lookup(query, &key).unwrap().map(f64::to_bits),
                        "post-append lookup, n_shards={}", n_shards
                    );
                }
            }
        }
    }

    /// Serve conformance: a prepared sharded [`ServingHandle`] answers every
    /// key with exactly the bits the unsharded `AugModel::serve` reference
    /// path produces — before *and* after a live append (each shard's handle
    /// follows its shard's epochs by itself; no swap anywhere).
    #[test]
    fn sharded_serve_is_bit_identical_to_unsharded(
        seed in 0u64..10_000,
        dataset_idx in 0usize..4,
        n_queries in 1usize..5,
    ) {
        let ds = dataset(seed, dataset_idx);
        let task = to_aug_task(&ds);
        let pool = random_pool(&ds, seed ^ 0x3e12, n_queries);
        let plan = AugPlan::new(
            ds.relevant.name(),
            ds.key_columns.clone(),
            pool.iter().map(|q| PlannedQuery { query: q.clone(), loss: 0.0 }).collect(),
        );

        // Hold back a third of the relevant rows as a live batch.
        let n = ds.relevant.num_rows();
        let split = (n * 2 / 3).max(1).min(n);
        let base = ds.relevant.take(&(0..split).collect::<Vec<_>>());
        let batch = ds.relevant.take(&(split..n).collect::<Vec<_>>());

        let keys: Vec<Vec<Value>> = (0..ds.train.num_rows().min(12))
            .map(|row| row_key(&ds.train, row, &plan.key_columns))
            .chain([
                plan.key_columns.iter().map(|_| Value::Str("##never##".into())).collect(),
                plan.key_columns.iter().map(|_| Value::Null).collect(),
            ])
            .collect();

        for n_shards in [1usize, 2, 7] {
            // Fresh unsharded reference per shard count: the live append
            // below advances its epochs.
            let model = AugModel::compile_shared(
                plan.clone(),
                task.train.clone(),
                Arc::new(base.clone()),
            )
            .expect("plan compiles");
            let router = ShardRouter::build_for_plan(
                task.train.clone(),
                &base,
                &plan,
                n_shards,
            )
            .unwrap();
            let handle = router.prepare(&plan).unwrap();
            prop_assert_eq!(handle.n_shards(), n_shards);
            prop_assert_eq!(handle.feature_names(), plan.feature_names().as_slice());
            prop_assert_eq!(handle.key_columns(), plan.key_columns.as_slice());

            let mut out = Vec::with_capacity(handle.num_features());
            for key in &keys {
                let want = model.serve(key).unwrap();
                handle.lookup(key, &mut out).unwrap();
                prop_assert_eq!(bits(&want), bits(&out), "serve, n_shards={}", n_shards);
            }
            assert_batches_serve_like(&model, &handle, &keys, &format!("n_shards={n_shards}"));

            // Live append: both sides ingest the same batch; the handles
            // follow their engines' epochs without any reinstall.
            if batch.num_rows() > 0 {
                model.append_relevant(&batch).unwrap();
                router.append_relevant(&batch).unwrap();
                for key in &keys {
                    let want = model.serve(key).unwrap();
                    handle.lookup(key, &mut out).unwrap();
                    prop_assert_eq!(
                        bits(&want), bits(&out),
                        "post-append serve, n_shards={}", n_shards
                    );
                }
                assert_batches_serve_like(
                    &model,
                    &handle,
                    &keys,
                    &format!("post-append, n_shards={n_shards}"),
                );
            }
        }
    }
}

/// The one-shard router is today's path in a thin coat: it accepts pools a
/// multi-shard router must reject (disjoint group keys — nothing can
/// straddle when there is one shard), routes everything to shard 0, and
/// degenerates `transform` to a direct engine call.
#[test]
fn single_shard_router_degenerates_to_the_unsharded_path() {
    let ds = dataset(17, 0);
    let task = to_aug_task(&ds);
    // A disjoint pool: no key column common to every query.
    let keys = &ds.key_columns;
    assert!(keys.len() >= 2, "dataset 0 has a multi-column key");
    let agg = &ds.agg_columns[0];
    let disjoint = vec![
        PredicateQuery {
            agg: AggFunc::Sum,
            agg_column: agg.clone(),
            predicate: feataug_tabular::Predicate::True,
            group_keys: vec![keys[0].clone()],
        },
        PredicateQuery {
            agg: AggFunc::Avg,
            agg_column: agg.clone(),
            predicate: feataug_tabular::Predicate::True,
            group_keys: vec![keys[1].clone()],
        },
    ];
    let err = ShardRouter::build(task.train.clone(), &ds.relevant, keys, &disjoint, 2)
        .expect_err("a multi-shard router must reject a disjoint pool");
    assert!(err.to_string().contains("straddle"), "{err}");

    let router = ShardRouter::build(task.train.clone(), &ds.relevant, keys, &disjoint, 1).unwrap();
    assert_eq!(router.n_shards(), 1);
    let baseline = QueryEngine::new(&ds.train, &ds.relevant);
    let want = baseline.transform(&disjoint, &ds.train).unwrap();
    let got = router.transform(&disjoint, &ds.train).unwrap();
    for (w, g) in want.iter().zip(&got) {
        assert_eq!(bits(w), bits(g));
    }
    for query in &disjoint {
        for row in 0..ds.train.num_rows().min(8) {
            let key = row_key(&ds.train, row, &query.group_keys);
            assert_eq!(
                baseline.lookup(query, &key).unwrap().map(f64::to_bits),
                router.lookup(query, &key).unwrap().map(f64::to_bits),
            );
        }
    }
}

/// The tier serves whatever handle is installed: hot-swapping a 4-shard
/// handle over a 1-shard one and back again changes no answer, bit for bit.
#[test]
fn tier_hot_swaps_between_one_and_four_shards_bit_identically() {
    let ds = dataset(29, 1);
    let task = to_aug_task(&ds);
    let pool = random_pool(&ds, 0x71e2, 4);
    let plan = AugPlan::new(
        ds.relevant.name(),
        ds.key_columns.clone(),
        pool.iter()
            .map(|q| PlannedQuery {
                query: q.clone(),
                loss: 0.0,
            })
            .collect(),
    );
    let model = AugModel::compile_shared(plan.clone(), task.train.clone(), task.relevant.clone())
        .expect("plan compiles");
    let router = ShardRouter::build_for_plan(task.train.clone(), &ds.relevant, &plan, 4).unwrap();
    let keys: Vec<Vec<Value>> = (0..ds.train.num_rows().min(16))
        .map(|row| row_key(&ds.train, row, &plan.key_columns))
        .chain([plan.key_columns.iter().map(|_| Value::Null).collect()])
        .collect();
    let want: Vec<_> = keys
        .iter()
        .map(|k| bits(&model.serve(k).unwrap()))
        .collect();

    let tier = ServingTier::new(model.prepare().unwrap(), TierConfig::default());
    let check = |tier: &ServingTier, shards: usize| {
        assert_eq!(tier.model().n_shards(), shards);
        for (key, want) in keys.iter().zip(&want) {
            assert_eq!(&bits(&tier.lookup(key).unwrap()), want, "{shards} shard(s)");
        }
    };
    check(&tier, 1);
    assert_eq!(tier.install(router.prepare(&plan).unwrap()), 1);
    check(&tier, 4);
    assert_eq!(tier.install(model.prepare().unwrap()), 2);
    check(&tier, 1);
    assert_eq!(tier.stats().cancelled, 0);
}
