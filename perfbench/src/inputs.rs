//! Seeded benchmark inputs. Everything the program sees is generated here
//! from the run's seed; the program receives only the generated tables.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use feataug::{AugPlan, AugTask, PlannedQuery, PredicateQuery};
use feataug_datagen::{tmall, GenConfig, SyntheticDataset};
use feataug_ml::Task;
use feataug_tabular::{AggFunc, Predicate, Table, Value};

/// The search's training scale: the experiment harness's "small" tmall
/// (500 entities, fan-out 10, about 5k relevant rows).
const FIT_ENTITIES: usize = 500;
const FIT_FANOUT: usize = 10;
/// Independent fit datasets per run. A fit's cost depends on the data
/// (the search follows it), so a run times fits of several datasets in
/// turn, and `fit_s` varies less between seeds than one dataset's would.
pub const FIT_DATASETS: usize = 3;
/// The serving scale: 4000 entities, fan-out 25, about 100k relevant rows.
const SERVE_ENTITIES: usize = 4000;
const SERVE_FANOUT: usize = 25;
const NOISE_COLUMNS: usize = 2;

/// Distinct lookup keys the clients cycle through.
const LOOKUP_KEYS: usize = 4096;
/// One lookup key in this many names an entity the tables never saw.
const UNSEEN_EVERY: usize = 8;
/// Rows per `append_relevant` batch, and distinct batches prepared.
pub const BATCH_ROWS: usize = 512;
const BATCHES: usize = 16;
/// Rows of the transformed table, as a multiple of the training rows.
const TRANSFORM_SCALE: usize = 10;
/// Aggregations of the served plan, each applied to both numeric columns:
/// streaming, moment and order-statistic kernels.
const PLAN_AGGS: [AggFunc; 8] = [
    AggFunc::Sum,
    AggFunc::Avg,
    AggFunc::Count,
    AggFunc::Max,
    AggFunc::Min,
    AggFunc::Var,
    AggFunc::Median,
    AggFunc::CountDistinct,
];
const PLAN_COLUMNS: [&str; 2] = ["pprice", "quantity"];
/// Width of the served plan's timestamp windows: a quarter of the log window.
const PLAN_WINDOW_S: i64 = tmall::WINDOW_LEN / 4;

pub struct Inputs {
    /// The table pairs the search runs on.
    pub fit: Vec<SyntheticDataset>,
    /// The table pair the serving plan is compiled onto and served from,
    /// and the held-out tables the fitted plans are scored on.
    pub serve: SyntheticDataset,
    /// Lookup keys (one value per key column), seen and unseen mixed.
    pub keys: Vec<Vec<Value>>,
    /// Relevant-table batches for `append_relevant`.
    pub batches: Vec<Table>,
    /// The serving training table repeated to 10x its rows.
    pub wide: Table,
    /// The 16-query plan served and ingested into.
    pub plan: AugPlan,
}

pub fn task_from(ds: &SyntheticDataset) -> AugTask {
    AugTask::new(
        ds.train.clone(),
        ds.relevant.clone(),
        ds.key_columns.clone(),
        ds.label_column.clone(),
        Task::BinaryClassification,
    )
    .with_agg_columns(ds.agg_columns.clone())
    .with_predicate_attrs(ds.predicate_attrs.clone())
}

impl Inputs {
    pub fn generate(seed: u64) -> Inputs {
        let gen = |n_entities, fanout, seed| {
            tmall::generate(&GenConfig {
                n_entities,
                fanout,
                n_noise_cols: NOISE_COLUMNS,
                seed,
            })
        };
        // Distinct streams of the one seed: the served tables are not a
        // superset of the searched ones.
        let fit = (0..FIT_DATASETS as u64)
            .map(|d| gen(FIT_ENTITIES, FIT_FANOUT, seed ^ (d << 40)))
            .collect();
        let serve = gen(SERVE_ENTITIES, SERVE_FANOUT, seed ^ 0x5e4e_5e4e);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xbe);

        let train_rows = serve.train.num_rows();
        let keys = (0..LOOKUP_KEYS)
            .map(|i| {
                let row = rng.gen_range(0..train_rows);
                serve
                    .key_columns
                    .iter()
                    .enumerate()
                    .map(|(k, column)| {
                        if k == 0 && i % UNSEEN_EVERY == UNSEEN_EVERY - 1 {
                            Value::Str(format!("unseen-{i}"))
                        } else {
                            serve.train.value(row, column).expect("key column")
                        }
                    })
                    .collect()
            })
            .collect();

        let relevant_rows = serve.relevant.num_rows();
        let batches = (0..BATCHES)
            .map(|_| {
                let rows: Vec<usize> = (0..BATCH_ROWS)
                    .map(|_| rng.gen_range(0..relevant_rows))
                    .collect();
                serve.relevant.take(&rows)
            })
            .collect();

        let wide_rows: Vec<usize> = (0..train_rows * TRANSFORM_SCALE)
            .map(|i| i % train_rows)
            .collect();
        let wide = serve.train.take(&wide_rows);
        let plan = serving_plan(&serve, &mut rng);
        Inputs {
            fit,
            serve,
            keys,
            batches,
            wide,
            plan,
        }
    }
}

/// A plan of fixed shape whose predicate values come from the seed, so its
/// serving cost does not depend on what a search happened to select. Every
/// query groups by the full key; a quarter have no predicate, the rest
/// filter on a uniform categorical (brand or action), and some also on a
/// timestamp window of fixed width.
fn serving_plan(ds: &SyntheticDataset, rng: &mut StdRng) -> AugPlan {
    let mut queries = Vec::with_capacity(PLAN_AGGS.len() * PLAN_COLUMNS.len());
    for (i, (agg, column)) in PLAN_COLUMNS
        .iter()
        .flat_map(|c| PLAN_AGGS.iter().map(move |a| (*a, *c)))
        .enumerate()
    {
        let brand = Predicate::eq(
            "brand",
            tmall::BRANDS[rng.gen_range(0..tmall::BRANDS.len())],
        );
        let action = Predicate::eq(
            "action",
            tmall::ACTIONS[rng.gen_range(0..tmall::ACTIONS.len())],
        );
        let from = tmall::WINDOW_START + rng.gen_range(0..tmall::WINDOW_LEN - PLAN_WINDOW_S);
        let window = Predicate::between(
            "timestamp",
            Value::DateTime(from),
            Value::DateTime(from + PLAN_WINDOW_S),
        );
        let predicate = match i % 4 {
            0 => Predicate::True,
            1 => brand,
            2 => action,
            _ => Predicate::And(vec![brand, window]),
        };
        queries.push(PlannedQuery {
            query: PredicateQuery {
                agg,
                agg_column: column.to_string(),
                predicate,
                group_keys: ds.key_columns.clone(),
            },
            loss: 0.0,
        });
    }
    AugPlan::new(ds.relevant.name(), ds.key_columns.clone(), queries)
}
