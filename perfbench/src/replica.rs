//! A traced replica of [`FeatAug::fit`].
//!
//! Spans cannot wrap calls made inside `FeatAug::fit`, so the replica drives
//! the search through the same public pieces, in the same order, and opens a
//! span around each call into a layer:
//!
//! | span | call |
//! |---|---|
//! | `pipeline.fit` | the whole fit (self: evaluator and engine set-up, plan assembly) |
//! | `template_id.identify` | `TemplateIdentifier::identify` |
//! | `generation.warmup`, `generation.search` | one template's two phases (self: codec, decoding, top-k dedup, ranking) |
//! | `hpo.suggest`, `hpo.observe` | `Tpe::suggest`, `Tpe::observe` / `warm_start` |
//! | `exec.feature` | `QueryEngine::feature` |
//! | `proxy.loss` | `LowCostProxy::loss` |
//! | `evaluation.train` | `FeatureEvaluator::loss_with_feature` and the first `base_loss` |
//!
//! The replica must yield a plan byte-identical to `FeatAug::fit`; the
//! benchmark fails the run otherwise, and the tests below pin it on small
//! tasks so a change to the pipeline or generation code breaks loudly instead
//! of silently skewing the breakdown.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::SeedableRng;

use feataug::evaluation::FeatureEvaluator;
use feataug::generation::SqlGenConfig;
use feataug::template_id::{ScoredTemplate, TemplateIdentifier};
use feataug::{
    AugPlan, AugTask, AugTaskError, EngineStats, FeatAugConfig, PlannedQuery, PredicateQuery,
    QueryCodec, QueryEngine, QueryTemplate,
};
use feataug_hpo::{Config, Optimizer, Tpe};

use crate::trace::Tracer;

/// What a replica fit produced.
pub struct ReplicaFit {
    pub plan: AugPlan,
    pub engine_stats: EngineStats,
    /// `loss_with_feature` calls made.
    pub trainings: usize,
    /// Distinct feature names among those calls.
    pub distinct_trained: usize,
}

/// A candidate the real model scored: (query, loss, feature name).
type Scored = (PredicateQuery, f64, String);

/// One warm-up proxy trial: (config, proxy loss, query, feature name, feature values).
type ProxyTrial = (Config, f64, PredicateQuery, String, Vec<f64>);

/// Counts real-model trainings across the whole fit.
#[derive(Default)]
struct Trainings {
    calls: usize,
    names: HashSet<String>,
}

/// Replicate `FeatAug::new(cfg.clone()).fit(task)`, tracing every layer call.
pub fn fit(
    task: &AugTask,
    cfg: &FeatAugConfig,
    tracer: &mut Tracer,
) -> Result<ReplicaFit, AugTaskError> {
    let root = tracer.begin("pipeline.fit");
    let result = fit_inner(task, cfg, tracer);
    tracer.end(root);
    result
}

fn fit_inner(
    task: &AugTask,
    cfg: &FeatAugConfig,
    tracer: &mut Tracer,
) -> Result<ReplicaFit, AugTaskError> {
    task.validate()?;
    let evaluator = FeatureEvaluator::new(task, cfg.model, cfg.seed);
    let engine = QueryEngine::new_shared(task.train.clone(), task.relevant.clone());

    let templates: Vec<ScoredTemplate> = if cfg.enable_qti {
        let mut ti_cfg = cfg.template_id.clone();
        ti_cfg.n_templates = cfg.n_templates;
        ti_cfg.proxy = cfg.proxy;
        let identifier = TemplateIdentifier::with_engine(
            task,
            &evaluator,
            cfg.agg_funcs.clone(),
            ti_cfg,
            engine.clone(),
        );
        tracer.scope("template_id.identify", || identifier.identify().0)
    } else {
        vec![ScoredTemplate {
            template: QueryTemplate::new(
                cfg.agg_funcs.clone(),
                task.resolved_agg_columns(),
                task.resolved_predicate_attrs(),
                task.key_columns.clone(),
            ),
            effectiveness: f64::NAN,
        }]
    };

    let mut sql_cfg = cfg.sqlgen.clone();
    sql_cfg.enable_warmup = cfg.enable_warmup;
    sql_cfg.proxy = cfg.proxy;
    // Mirrors the pipeline's per-template budget: NoQTI's single template
    // must yield the whole feature budget.
    let per_template = if cfg.enable_qti {
        cfg.queries_per_template
    } else {
        cfg.n_templates * cfg.queries_per_template
    };

    let mut trainings = Trainings::default();
    let mut queries: Vec<Scored> = Vec::new();
    let mut seen: HashSet<String> = HashSet::new();
    for scored in &templates {
        let generated = generate(
            task,
            &evaluator,
            &engine,
            &sql_cfg,
            &scored.template,
            per_template,
            tracer,
            &mut trainings,
        );
        for g in generated {
            if seen.insert(g.2.clone()) {
                queries.push(g);
            }
        }
    }

    let plan = AugPlan::new(
        task.relevant.name(),
        task.key_columns.clone(),
        queries
            .into_iter()
            .map(|(query, loss, _)| PlannedQuery { query, loss })
            .collect(),
    );
    Ok(ReplicaFit {
        plan,
        engine_stats: engine.stats(),
        trainings: trainings.calls,
        distinct_trained: trainings.names.len(),
    })
}

/// `QueryGenerator::materialize`: the feature, or `None` when the query
/// failed or matched nothing.
fn materialize(
    engine: &QueryEngine<'static>,
    query: &PredicateQuery,
    tracer: &mut Tracer,
) -> Option<(String, Vec<f64>)> {
    let (name, values) = tracer
        .scope("exec.feature", || engine.feature(query))
        .ok()?;
    if values.iter().all(|v| !v.is_finite()) {
        return None;
    }
    Some((name, values))
}

fn train(
    evaluator: &FeatureEvaluator,
    name: &str,
    feature: &[f64],
    tracer: &mut Tracer,
    trainings: &mut Trainings,
) -> f64 {
    trainings.calls += 1;
    trainings.names.insert(name.to_string());
    tracer.scope("evaluation.train", || {
        evaluator.loss_with_feature(name, feature)
    })
}

/// `QueryGenerator::generate` for one template, with spans.
#[allow(clippy::too_many_arguments)]
fn generate(
    task: &AugTask,
    evaluator: &FeatureEvaluator,
    engine: &QueryEngine<'static>,
    cfg: &SqlGenConfig,
    template: &QueryTemplate,
    n_queries: usize,
    tracer: &mut Tracer,
    trainings: &mut Trainings,
) -> Vec<Scored> {
    let warmup = tracer.begin("generation.warmup");
    let Ok(codec) = QueryCodec::build(template, &task.relevant) else {
        tracer.end(warmup);
        return Vec::new();
    };
    let Ok(labels) = task.labels() else {
        tracer.end(warmup);
        return Vec::new();
    };
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut evaluated: Vec<Scored> = Vec::new();
    let record = |evaluated: &mut Vec<Scored>, query: PredicateQuery, name: String, loss: f64| {
        if !evaluated.iter().any(|g| g.2 == name) {
            evaluated.push((query, loss, name));
        }
    };

    // Phase 1: TPE on the low-cost proxy, then the top-k proxy queries
    // scored by the real model seed phase 2.
    let mut warm_observations: Vec<(Config, f64)> = Vec::new();
    if cfg.enable_warmup {
        let mut proxy_tpe = Tpe::new(codec.space().clone(), cfg.tpe.clone());
        let mut proxy_trials: Vec<ProxyTrial> = Vec::new();
        for _ in 0..cfg.warmup_iters {
            let config = tracer.scope("hpo.suggest", || proxy_tpe.suggest(&mut rng));
            let query = codec.decode(&config);
            let proxy_loss = match materialize(engine, &query, tracer) {
                Some((name, feature)) => {
                    let loss = tracer.scope("proxy.loss", || {
                        cfg.proxy.loss(&feature, &labels, evaluator.task())
                    });
                    proxy_trials.push((config.clone(), loss, query, name, feature));
                    loss
                }
                None => 0.0,
            };
            tracer.scope("hpo.observe", || proxy_tpe.observe(config, proxy_loss));
        }
        for (config, _, query, name, feature) in warmup_top_k(proxy_trials, cfg.warmup_top_k) {
            let loss = train(evaluator, &name, &feature, tracer, trainings);
            warm_observations.push((config, loss));
            record(&mut evaluated, query, name, loss);
        }
    }
    tracer.end(warmup);

    // Phase 2: warm-started TPE on the real validation loss.
    let search = tracer.begin("generation.search");
    let mut tpe = Tpe::new(codec.space().clone(), cfg.tpe.clone());
    tracer.scope("hpo.observe", || tpe.warm_start(warm_observations));
    let real_iters = if cfg.enable_warmup {
        cfg.search_iters
    } else {
        cfg.search_iters + cfg.warmup_top_k
    };
    for _ in 0..real_iters {
        let config = tracer.scope("hpo.suggest", || tpe.suggest(&mut rng));
        let query = codec.decode(&config);
        let loss = match materialize(engine, &query, tracer) {
            Some((name, feature)) => {
                let loss = train(evaluator, &name, &feature, tracer, trainings);
                record(&mut evaluated, query, name, loss);
                loss
            }
            None => tracer.scope("evaluation.train", || evaluator.base_loss()),
        };
        tracer.scope("hpo.observe", || tpe.observe(config, loss));
    }
    evaluated.sort_by(|a, b| a.1.total_cmp(&b.1));
    evaluated.truncate(n_queries);
    tracer.end(search);
    evaluated
}

/// Copy of the generator's private warm-up selection: rank proxy trials by
/// ascending proxy loss and keep the best `k` with distinct feature names.
fn warmup_top_k(mut trials: Vec<ProxyTrial>, k: usize) -> Vec<ProxyTrial> {
    trials.sort_by(|a, b| a.1.total_cmp(&b.1));
    let mut out: Vec<ProxyTrial> = Vec::with_capacity(k.min(trials.len()));
    for trial in trials {
        if out.len() >= k {
            break;
        }
        if !out.iter().any(|kept| kept.3 == trial.3) {
            out.push(trial);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use std::time::Instant;

    use super::*;
    use feataug::FeatAug;
    use feataug_ml::ModelKind;

    fn tiny_task(seed: u64) -> AugTask {
        crate::inputs::task_from(&feataug_datagen::tmall::generate(
            &feataug_datagen::GenConfig {
                n_entities: 160,
                fanout: 6,
                n_noise_cols: 1,
                seed,
            },
        ))
    }

    fn tiny_cfg(seed: u64) -> FeatAugConfig {
        let mut cfg = FeatAugConfig::fast(ModelKind::Linear).with_seed(seed);
        cfg.n_templates = 3;
        cfg.template_id.n_templates = 3;
        cfg.template_id.pool_samples = 8;
        cfg.sqlgen.warmup_iters = 16;
        cfg.sqlgen.warmup_top_k = 4;
        cfg.sqlgen.search_iters = 8;
        cfg
    }

    fn assert_replica_matches_fit(task: &AugTask, cfg: &FeatAugConfig) {
        let fitted = FeatAug::new(cfg.clone()).fit(task).expect("fit");
        let mut tracer = Tracer::new(Instant::now());
        let replica = fit(task, cfg, &mut tracer).expect("replica fit");
        assert!(!fitted.plan().queries.is_empty());
        assert_eq!(
            replica.plan.to_plan_text(),
            fitted.plan().to_plan_text(),
            "the traced replica drifted from FeatAug::fit"
        );
        assert!(replica.trainings >= replica.distinct_trained);
        // Self times tile the root span exactly.
        let spans = tracer.spans();
        let total: u64 = crate::trace::self_times(spans).iter().sum();
        assert_eq!(total, spans[0].duration_ns());
    }

    #[test]
    fn replica_plan_matches_fit_at_two_seeds() {
        for seed in [3, 11] {
            assert_replica_matches_fit(&tiny_task(seed), &tiny_cfg(seed));
        }
    }

    /// A pool of about 40 queries: the warm-up's TPE resamples the same
    /// queries, so the top-k dedup and the phase-2 warm start are exercised.
    #[test]
    fn replica_plan_matches_fit_when_the_warmup_resamples_queries() {
        for seed in [2, 7] {
            let mut task = tiny_task(seed).with_predicate_attrs(vec!["action".into()]);
            task.agg_columns = vec!["pprice".into(), "quantity".into()];
            let mut cfg = tiny_cfg(seed).with_qti(false);
            cfg.sqlgen.warmup_iters = 30;
            cfg.sqlgen.warmup_top_k = 6;
            cfg.sqlgen.search_iters = 12;
            assert_replica_matches_fit(&task, &cfg);
        }
    }

    #[test]
    fn replica_plan_matches_fit_without_qti_or_warmup() {
        let task = tiny_task(5);
        let cfg = tiny_cfg(5).with_qti(false).with_warmup(false);
        assert_replica_matches_fit(&task, &cfg);
    }
}
