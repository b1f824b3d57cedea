//! Micro-benchmark for live ingest: one 512-row `append_relevant` into a
//! compiled, warmed model serving a 16-query plan over the full tmall key
//! (8 aggregations × 2 numeric columns; a quarter without a predicate, the
//! rest filtered on brand, action, or brand plus a timestamp window), at
//! about 10k and about 100k relevant rows. Each iteration appends to a
//! freshly compiled model, so the table size stays fixed; compiling and
//! warming the model is not timed. `ingest/concat_*` times the relevant
//! table's copy on its own, the one phase of an append outside the engine.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use feataug::{AugModel, AugPlan, PlannedQuery, PredicateQuery};
use feataug_datagen::{tmall, GenConfig};
use feataug_tabular::{AggFunc, Predicate, Table, Value};

const BATCH_ROWS: usize = 512;
const FANOUT: usize = 25;
const AGGS: [AggFunc; 8] = [
    AggFunc::Sum,
    AggFunc::Avg,
    AggFunc::Count,
    AggFunc::Max,
    AggFunc::Min,
    AggFunc::Var,
    AggFunc::Median,
    AggFunc::CountDistinct,
];
const COLUMNS: [&str; 2] = ["pprice", "quantity"];

/// The served plan: every (column, aggregation) pair, with the predicate
/// cycling through none / brand / action / brand and a quarter-year window.
fn plan(relevant: &Table, keys: &[String], rng: &mut StdRng) -> AugPlan {
    let window = tmall::WINDOW_LEN / 4;
    let queries = COLUMNS
        .iter()
        .flat_map(|c| AGGS.iter().map(move |a| (*a, *c)))
        .enumerate()
        .map(|(i, (agg, column))| {
            let brand = Predicate::eq(
                "brand",
                tmall::BRANDS[rng.gen_range(0..tmall::BRANDS.len())],
            );
            let action = Predicate::eq(
                "action",
                tmall::ACTIONS[rng.gen_range(0..tmall::ACTIONS.len())],
            );
            let from = tmall::WINDOW_START + rng.gen_range(0..tmall::WINDOW_LEN - window);
            let in_window = Predicate::between(
                "timestamp",
                Value::DateTime(from),
                Value::DateTime(from + window),
            );
            let predicate = match i % 4 {
                0 => Predicate::True,
                1 => brand,
                2 => action,
                _ => Predicate::And(vec![brand, in_window]),
            };
            PlannedQuery {
                query: PredicateQuery {
                    agg,
                    agg_column: column.to_string(),
                    predicate,
                    group_keys: keys.to_vec(),
                },
                loss: 0.0,
            }
        })
        .collect();
    AugPlan::new(relevant.name(), keys.to_vec(), queries)
}

fn bench_ingest_at(c: &mut Criterion, n_entities: usize) {
    let ds = tmall::generate(&GenConfig {
        n_entities,
        fanout: FANOUT,
        n_noise_cols: 2,
        seed: 7,
    });
    let mut rng = StdRng::seed_from_u64(11);
    let plan = plan(&ds.relevant, &ds.key_columns, &mut rng);
    let rows = ds.relevant.num_rows();
    let picks: Vec<usize> = (0..BATCH_ROWS).map(|_| rng.gen_range(0..rows)).collect();
    let batch = ds.relevant.take(&picks);
    let train = Arc::new(ds.train);
    let relevant = Arc::new(ds.relevant);
    let label = format!("{}k", (rows + 500) / 1000);

    c.bench_function(&format!("ingest/append_{BATCH_ROWS}_into_{label}"), |b| {
        b.iter_batched(
            || {
                let model = AugModel::compile_shared(plan.clone(), train.clone(), relevant.clone())
                    .expect("the plan matches the generated tables");
                // Preparing the handle materialises every planned feature, so
                // the append delta-updates a warm memo as a serving model does.
                let handle = model.prepare().expect("prepare");
                (model, handle)
            },
            |(model, handle)| {
                let epoch = model.append_relevant(&batch).expect("append");
                black_box(epoch.touched_groups + epoch.new_groups);
                (model, handle)
            },
            BatchSize::PerIteration,
        )
    });

    c.bench_function(&format!("ingest/concat_{BATCH_ROWS}_onto_{label}"), |b| {
        b.iter(|| {
            black_box(
                relevant
                    .concat_absorbing(&batch)
                    .expect("same schema")
                    .num_rows(),
            )
        })
    });
}

fn bench_ingest(c: &mut Criterion) {
    bench_ingest_at(c, 400);
    bench_ingest_at(c, 4000);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_ingest
}
criterion_main!(benches);
