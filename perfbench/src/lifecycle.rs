//! The benchmark's one lifecycle: set up a task and the served model, then
//! interleave fits, serve windows (lookups and transforms) and ingest rounds
//! (appends beside a reading client), and finally score the fitted plans on
//! held-out tables. Workloads differ only in the fit configuration and in
//! how the run's seconds are shared between the fit, serve and ingest steps,
//! so every workload measures every metric.
//!
//! An untraced run measures the end-to-end metrics. A traced run repeats the
//! lifecycle with spans around every call the benchmark makes into a layer
//! and reports the per-layer breakdown, plus the tracing overhead against
//! untraced samples taken in the same run.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use feataug::evaluation::evaluate_table;
use feataug::{
    AugModel, AugPlan, AugTask, FeatAug, FeatAugConfig, OwnedAugModel, PredicateQuery,
    ServingHandle, ServingTier, TierConfig,
};
use feataug_tabular::{Column, Table, Value};

use crate::inputs::{task_from, Inputs, FIT_DATASETS};
use crate::reference::HandOff;
use crate::replica;
use crate::stats::{median, percentile, sorted, tail, Tail};
use crate::trace::{self, durations_us, Tracer};

/// How a workload spends its seconds across the fit, serve and ingest
/// phases.
#[derive(Debug, Clone, Copy)]
pub struct Shares {
    pub fit: f64,
    pub serve: f64,
    pub ingest: f64,
}

/// Share of every run spent repeating the set-up, beside the workload's
/// shares (which add up to 1): 1.5 s of a 50 s run, about 35 repeats.
/// Spread over the run like the other phases, the repeats see the host's
/// slow spells in the same measure as the other steps, not just the state
/// the host is in when the run starts.
const SETUP_SHARE: f64 = 0.03;
/// Fewest repeats of each set-up step; `setup_s` reports their medians.
const MIN_SETUPS: usize = 15;
/// Share of every run spent measuring the host's hand-off latency
/// (`reference.rs`), beside the workload's shares: 2.5 s of a 50 s run.
const HANDOFF_SHARE: f64 = 0.05;
/// Length of one hand-off measuring step.
const HANDOFF_STEP: Duration = Duration::from_millis(100);
/// Fewest hand-off samples (of 100 round trips each) a run takes.
const MIN_HANDOFF_SAMPLES: usize = 200;
/// Fewest fits a run times: each dataset twice, so repeated fits can be
/// checked to agree on the plan.
const MIN_FITS: usize = 2 * FIT_DATASETS;
/// Fewest serve windows a run measures.
const MIN_WINDOWS: usize = 3;
/// Share of the serve phase spent on lookups; transforms get the rest.
const LOOKUP_SHARE: f64 = 0.7;
/// Batches appended to one compiled model before the next round starts
/// over from a freshly compiled one, so the relevant table stays within
/// 4% of its served size however long the phase runs.
const BATCHES_PER_ROUND: usize = 8;
/// Fewest batches a run appends, so the tail percentile of visibility has
/// at least ten samples beyond it.
const MIN_BATCHES: usize = 48;
/// Keys sampled for the bit-identity checks.
const CHECK_EVERY: usize = 16;
/// The serve phase alternates lookups and transforms in windows of this
/// length, each after its settling lookups. Lookup throughput and latency
/// percentiles are taken per window and reported as the median window,
/// which discounts a transient stall of the machine.
const SERVE_WINDOW: Duration = Duration::from_millis(500);
/// Untimed tier lookups at the start of each serve window, on the window's
/// fresh tier. A window follows another step; the measured lookups start
/// only after the client and the tier workers have been trading requests
/// for this long, as they would in back-to-back windows.
const SERVE_SETTLE: Duration = Duration::from_millis(100);
/// Largest share of a traced replica fit's wall-clock that may fall outside
/// every layer span (the root span's self time). Past it the breakdown does
/// not explain the fit, and the run fails.
const MAX_OUTSIDE_LAYERS: f64 = 0.05;
/// Spans kept per traced lookup slice.
const WINDOW_SPANS: usize = 5_000;
/// Sleep between checks for a published epoch becoming visible.
const VISIBILITY_POLL: Duration = Duration::from_micros(20);
/// Longest wait for a reader to observe a published epoch.
const VISIBILITY_TIMEOUT: Duration = Duration::from_secs(10);

/// Everything a run measured. Sample vectors are in seconds unless named
/// otherwise.
#[derive(Default)]
pub struct Measured {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness check failures.
    pub mismatches: Vec<String>,

    pub task_setup: Vec<f64>,
    pub compile_setup: Vec<f64>,
    pub fit: Vec<f64>,
    /// Mean over the fit datasets.
    pub fit_test_auc: f64,
    pub plan_queries: Vec<usize>,

    pub lookup_us: Vec<f64>,
    /// Per lookup window: answered lookups per second, and the p50, p90 and
    /// p99 latency in microseconds.
    pub lookup_rate: Vec<f64>,
    pub lookup_p50_us: Vec<f64>,
    pub lookup_p90_us: Vec<f64>,
    pub lookup_p99_us: Vec<f64>,
    pub transform: Vec<f64>,
    pub transform_rows: usize,
    pub serve_windows: usize,

    pub append: Vec<f64>,
    pub visible: Vec<f64>,
    pub follow: Vec<f64>,
    pub ingest_lookup_us: Vec<f64>,

    pub shed: u64,
    pub degraded: u64,
    pub cancelled: u64,

    /// The host's thread hand-off latency, measured between steps.
    pub handoff: HandOff,

    /// Traced runs only.
    pub traced: Option<TracedLayers>,
}

/// Per-layer figures of a traced run.
#[derive(Default)]
pub struct TracedLayers {
    /// Per traced replica fit: span name -> (self seconds, span count).
    pub fit_self: Vec<BTreeMap<&'static str, (f64, usize)>>,
    pub replica_wall: Vec<f64>,
    /// Wall-clock of replica fits run with a tracer that records nothing:
    /// the baseline of the fit's tracing overhead.
    pub untraced_replica_wall: Vec<f64>,
    /// Per traced replica fit: the share of its wall-clock outside every
    /// layer span.
    pub outside_layers: Vec<f64>,
    pub trainings: Vec<f64>,
    pub distinct_ratio: Vec<f64>,
    pub cache_hit_ratio: Vec<f64>,
    pub untraced_lookup_us: Vec<f64>,
    pub handle_lookup_us: Vec<f64>,
    pub exec_transform: Vec<f64>,
    pub attach: Vec<f64>,
    pub prepare: Vec<f64>,
    pub compile: Vec<f64>,
    pub spans: usize,
}

impl Measured {
    pub fn success_rate(&self) -> f64 {
        1.0 - self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Per fit dataset, the median of its timed fits. Fits take the
    /// datasets in turn, so fit `i` is of dataset `i % FIT_DATASETS`.
    pub fn fit_medians(&self) -> Vec<f64> {
        (0..FIT_DATASETS)
            .map(|d| {
                let fits: Vec<f64> = self
                    .fit
                    .iter()
                    .skip(d)
                    .step_by(FIT_DATASETS)
                    .copied()
                    .collect();
                median(&fits)
            })
            .collect()
    }

    /// The mean over the fit datasets of each one's median fit. The
    /// datasets' fits differ in cost (the search follows the data), so a
    /// median over all fits would fall between their clusters and jump
    /// from one to another as the host's speed changes.
    pub fn fit_s(&self) -> f64 {
        let medians = self.fit_medians();
        medians.iter().sum::<f64>() / medians.len() as f64
    }

    pub fn setup_s(&self) -> f64 {
        median(&self.task_setup) + median(&self.compile_setup)
    }

    pub fn visible_tail(&self) -> Option<Tail> {
        tail(&sorted(self.visible.clone()))
    }
}

pub struct Lifecycle<'a> {
    inputs: &'a Inputs,
    cfg: FeatAugConfig,
    /// Run one untimed fit first, so one-time costs of a process's first
    /// fit stay out of `fit_s`.
    warmup_fit: bool,
    seconds: f64,
    shares: Shares,
    /// The serving tables, shared by every compiled model so that set-up
    /// times compile and prepare, not table copies.
    serve_train: Arc<Table>,
    serve_relevant: Arc<Table>,
    tracer: Option<Tracer>,
    /// Per fit dataset, the first fit's plan and its text; every later fit
    /// of that dataset must match it.
    references: Vec<Option<(AugPlan, String)>>,
    m: Measured,
}

impl<'a> Lifecycle<'a> {
    pub fn new(
        inputs: &'a Inputs,
        cfg: FeatAugConfig,
        warmup_fit: bool,
        seconds: f64,
        shares: Shares,
        traced: bool,
    ) -> Lifecycle<'a> {
        Lifecycle {
            inputs,
            cfg,
            warmup_fit,
            seconds,
            shares,
            serve_train: Arc::new(inputs.serve.train.clone()),
            serve_relevant: Arc::new(inputs.serve.relevant.clone()),
            tracer: traced.then(|| Tracer::new(Instant::now())),
            references: vec![None; FIT_DATASETS],
            m: Measured {
                traced: traced.then(TracedLayers::default),
                ..Measured::default()
            },
        }
    }

    /// Run every phase. After set-up, a deficit scheduler interleaves fit
    /// steps (one fit), serve windows, ingest rounds, set-up repeats and
    /// hand-off measurements in proportion to their shares until the run's
    /// seconds are spent, so a burst of load on the machine lands on every
    /// metric alike instead of on whichever phase it overlaps. No thread of
    /// the program outlives a step. An `Err` is an operation the lifecycle
    /// cannot go on without; correctness mismatches are collected in
    /// [`Measured::mismatches`] instead.
    pub fn run(mut self) -> Result<(Measured, Option<Tracer>), String> {
        let inputs = self.inputs;
        let plan = &inputs.plan;
        let mut tasks = vec![self.setup_task()];
        tasks.extend(inputs.fit[1..].iter().map(task_from));
        if self.warmup_fit {
            let (model, _) = self.fit_once(&tasks[0])?;
            let text = model.plan().to_plan_text();
            self.references[0] = Some((model.plan().clone(), text));
        }
        let (served, handle) = self.compile_setup(plan)?;
        // The first transform is an untimed warm-up and the reference every
        // later one must match.
        self.m.attempted += 1;
        let reference_table = served.transform(&inputs.wide).map_err(|e| {
            self.m.failed += 1;
            format!("transform failed: {e}")
        })?;
        self.m.transform_rows = inputs.wide.num_rows();

        let shares = [
            self.shares.fit,
            self.shares.serve,
            self.shares.ingest,
            SETUP_SHARE,
            HANDOFF_SHARE,
        ];
        let mut used = [0.0f64; 5];
        let mut last_round = None;
        let budget = Duration::from_secs_f64(self.seconds);
        let start = Instant::now();
        loop {
            let due = [
                self.m.fit.len() < MIN_FITS,
                self.m.serve_windows < MIN_WINDOWS,
                self.m.append.len() < MIN_BATCHES,
                self.m.task_setup.len() < MIN_SETUPS,
                self.m.handoff.round_trip_us.len() < MIN_HANDOFF_SAMPLES,
            ];
            let over = start.elapsed() >= budget;
            let Some(phase) = (0..5)
                .filter(|&p| shares[p] > 0.0 && (!over || due[p]))
                .min_by(|&a, &b| (used[a] / shares[a]).total_cmp(&(used[b] / shares[b])))
            else {
                break;
            };
            let t = Instant::now();
            match phase {
                0 => self.fit_step(&tasks)?,
                1 => self.serve_window(&served, &handle, &reference_table)?,
                2 => last_round = Some(self.ingest_round(plan, self.m.append.len())?),
                3 => {
                    self.setup_task();
                    self.compile_setup(plan)?;
                }
                _ => self.m.handoff.measure(HANDOFF_STEP)?,
            }
            used[phase] += t.elapsed().as_secs_f64();
        }

        self.check_served(&served, &handle);
        drop((served, handle));
        if let Some((model, handle, batches)) = last_round {
            self.check_ingested(plan, &model, &handle, &batches);
        }
        let fitted: Vec<AugPlan> = std::mem::take(&mut self.references)
            .into_iter()
            .map(|r| r.expect("every fit dataset fitted").0)
            .collect();
        self.m.plan_queries = fitted.iter().map(|p| p.queries.len()).collect();
        let mut auc = Vec::with_capacity(fitted.len());
        for plan in &fitted {
            auc.push(self.held_out_auc(plan)?);
        }
        self.m.fit_test_auc = auc.iter().sum::<f64>() / auc.len() as f64;
        if let (Some(tracer), Some(layers)) = (&self.tracer, &mut self.m.traced) {
            layers.spans = tracer.spans().len();
        }
        Ok((self.m, self.tracer))
    }

    fn traced(&self) -> bool {
        self.tracer.is_some()
    }

    fn layers(&mut self) -> &mut TracedLayers {
        self.m.traced.as_mut().expect("traced run")
    }

    fn mismatch(&mut self, what: String) {
        eprintln!("perfbench: correctness check failed: {what}");
        self.m.mismatches.push(what);
    }

    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        match &mut self.tracer {
            Some(tracer) => tracer.scope(name, f),
            None => f(),
        }
    }

    /// One timed task build and validation.
    fn setup_task(&mut self) -> AugTask {
        let inputs = self.inputs;
        if let Some(tracer) = &mut self.tracer {
            tracer.next_request();
        }
        let start = Instant::now();
        let (task, valid) = self.span("pipeline.task", || {
            let t = task_from(&inputs.fit[0]);
            let valid = t.validate();
            (t, valid)
        });
        self.m.task_setup.push(start.elapsed().as_secs_f64());
        if let Err(e) = valid {
            self.mismatch(format!("generated task fails validation: {e}"));
        }
        task
    }

    fn fit_once(&mut self, task: &AugTask) -> Result<(OwnedAugModel, f64), String> {
        self.m.attempted += 1;
        let start = Instant::now();
        match FeatAug::new(self.cfg.clone()).fit(task) {
            Ok(model) => Ok((model, start.elapsed().as_secs_f64())),
            Err(e) => {
                self.m.failed += 1;
                Err(format!("fit failed: {e}"))
            }
        }
    }

    fn check_plan(&mut self, reference: &str, plan: &AugPlan, what: &str) {
        if plan.to_plan_text() != reference {
            self.mismatch(format!(
                "{what} produced a different plan than the first fit"
            ));
        }
    }

    /// One timed fit of the next dataset in turn, checked against that
    /// dataset's first plan. Traced runs follow it with a replica fit,
    /// recording spans on every other step, so that each dataset gets both
    /// a traced and an untraced replica fit within the first `MIN_FITS`
    /// steps.
    fn fit_step(&mut self, tasks: &[AugTask]) -> Result<(), String> {
        let d = self.m.fit.len() % tasks.len();
        let task = &tasks[d];
        let (model, secs) = self.fit_once(task)?;
        self.m.fit.push(secs);
        let reference = match &self.references[d] {
            Some((_, text)) => {
                let text = text.clone();
                self.check_plan(&text, model.plan(), "a repeated fit");
                text
            }
            None => {
                let text = model.plan().to_plan_text();
                self.references[d] = Some((model.plan().clone(), text.clone()));
                text
            }
        };
        if self.traced() {
            if self.m.fit.len() % 2 == 1 {
                self.replica_fit(task, &reference);
            } else {
                self.untraced_replica_fit(task, &reference);
            }
        }
        Ok(())
    }

    /// Search quality: the fitted plan compiled onto the serving tables,
    /// which the search never saw, and scored by `evaluate_table` on their
    /// training table (8x the searched rows, so the test split is large
    /// enough for a steady AUC).
    fn held_out_auc(&mut self, plan: &AugPlan) -> Result<f64, String> {
        let serve = &self.inputs.serve;
        self.m.attempted += 1;
        let augmented = AugModel::compile_shared(
            plan.clone(),
            Arc::clone(&self.serve_train),
            Arc::clone(&self.serve_relevant),
        )
        .map_err(|e| e.to_string())
        .and_then(|model| model.transform(&serve.train).map_err(|e| e.to_string()));
        match augmented {
            Ok(augmented) => Ok(evaluate_table(
                &augmented,
                &serve.label_column,
                &serve.key_columns,
                feataug_ml::Task::BinaryClassification,
                self.cfg.model,
                self.cfg.seed,
            )
            .value),
            Err(e) => {
                self.m.failed += 1;
                Err(format!(
                    "applying the fitted plan to held-out tables failed: {e}"
                ))
            }
        }
    }

    fn replica_fit(&mut self, task: &AugTask, reference: &str) {
        let tracer = self.tracer.as_mut().expect("traced run");
        tracer.next_request();
        let first = tracer.spans().len();
        let start = Instant::now();
        let replica = replica::fit(task, &self.cfg, tracer);
        let wall = start.elapsed().as_secs_f64();
        let spans = &tracer.spans()[first..];
        // Ids in the slice start after `first`; rebase them so parent links
        // index into the slice.
        let rebased: Vec<trace::Span> = spans
            .iter()
            .map(|s| trace::Span {
                id: s.id - first as u32,
                parent: if s.parent == 0 {
                    0
                } else {
                    s.parent - first as u32
                },
                ..*s
            })
            .collect();
        let by_name = trace::self_by_name(&rebased);
        let outside = by_name.get("pipeline.fit").map_or(0.0, |&(s, _)| s) / wall;
        if outside > MAX_OUTSIDE_LAYERS {
            self.mismatch(format!(
                "{:.1}% of the traced replica fit fell outside every layer span (limit {:.0}%)",
                100.0 * outside,
                100.0 * MAX_OUTSIDE_LAYERS
            ));
        }
        match replica {
            Ok(replica) => {
                self.check_plan(reference, &replica.plan, "the traced replica");
                let stats = replica.engine_stats;
                let layers = self.layers();
                layers.fit_self.push(by_name);
                layers.replica_wall.push(wall);
                layers.outside_layers.push(outside);
                layers.trainings.push(replica.trainings as f64);
                layers
                    .distinct_ratio
                    .push(replica.distinct_trained as f64 / replica.trainings.max(1) as f64);
                layers
                    .cache_hit_ratio
                    .push(stats.feature_cache_hits as f64 / stats.evaluations.max(1) as f64);
            }
            Err(e) => self.mismatch(format!(
                "the traced replica failed where fit succeeded: {e}"
            )),
        }
    }

    /// The replica fit with a tracer that records nothing, checked like the
    /// traced one.
    fn untraced_replica_fit(&mut self, task: &AugTask, reference: &str) {
        let start = Instant::now();
        let replica = replica::fit(task, &self.cfg, &mut Tracer::off());
        let wall = start.elapsed().as_secs_f64();
        match replica {
            Ok(replica) => {
                self.check_plan(reference, &replica.plan, "the untraced replica");
                self.layers().untraced_replica_wall.push(wall);
            }
            Err(e) => self.mismatch(format!(
                "the untraced replica failed where fit succeeded: {e}"
            )),
        }
    }

    /// One timed `compile_shared` + `prepare` of the serving plan on the
    /// serving tables.
    fn compile_setup(
        &mut self,
        plan: &AugPlan,
    ) -> Result<(OwnedAugModel, Arc<ServingHandle<'static>>), String> {
        if let Some(tracer) = &mut self.tracer {
            tracer.next_request();
        }
        let start = Instant::now();
        let built = self.compile(plan);
        self.m.compile_setup.push(start.elapsed().as_secs_f64());
        built
    }

    fn compile(
        &mut self,
        plan: &AugPlan,
    ) -> Result<(OwnedAugModel, Arc<ServingHandle<'static>>), String> {
        let train = Arc::clone(&self.serve_train);
        let relevant = Arc::clone(&self.serve_relevant);
        let compile_start = Instant::now();
        let model = self
            .span("pipeline.compile", || {
                AugModel::compile_shared(plan.clone(), train, relevant)
            })
            .map_err(|e| format!("compiling the serving plan failed: {e}"))?;
        let prepare_start = Instant::now();
        let handle = self
            .span("serving.prepare", || model.prepare())
            .map_err(|e| format!("preparing the serving handle failed: {e}"))?;
        if self.traced() {
            let layers = self.layers();
            layers
                .compile
                .push((prepare_start - compile_start).as_secs_f64());
            layers.prepare.push(prepare_start.elapsed().as_secs_f64());
        }
        Ok((model, Arc::new(handle)))
    }

    /// One serve window: untimed settling lookups, closed-loop lookups
    /// through the tier, then transforms of a table 10x the serving training
    /// rows for the rest of the window. Each window has a tier of its own,
    /// so that no tier worker is alive while the hand-off latency is
    /// measured.
    fn serve_window(
        &mut self,
        model: &OwnedAugModel,
        handle: &Arc<ServingHandle<'static>>,
        reference: &Table,
    ) -> Result<(), String> {
        let tier = &ServingTier::new(Arc::clone(handle), TierConfig::default());
        let tier_lookup = |key: &[Value], out: &mut Vec<Option<f64>>| match tier.lookup(key) {
            Ok(row) => {
                *out = row;
                true
            }
            Err(_) => false,
        };
        let settle = self.closed_loop(&tier_lookup, SERVE_SETTLE, None);
        self.count(settle.answered, settle.failed);
        let lookups = SERVE_WINDOW.mul_f64(LOOKUP_SHARE);
        if self.traced() {
            // Untraced tier lookups (the overhead baseline), traced tier
            // lookups, and traced direct handle lookups on the same keys.
            let direct =
                |key: &[Value], out: &mut Vec<Option<f64>>| handle.lookup(key, out).is_ok();
            let slice = lookups / 3;
            let plain = self.closed_loop(&tier_lookup, slice, None);
            self.count(plain.answered, plain.failed);
            self.layers().untraced_lookup_us.extend(plain.latency_us);
            let run = self.closed_loop(&tier_lookup, slice, Some("tier.lookup"));
            self.record_lookups(run);
            let run = self.closed_loop(&direct, slice, Some("serving.lookup"));
            self.count(run.answered, run.failed);
            self.layers().handle_lookup_us.extend(run.latency_us);
        } else {
            let run = self.closed_loop(&tier_lookup, lookups, None);
            self.record_lookups(run);
        }

        let wide = &self.inputs.wide;
        let features = model.feature_names();
        let start = Instant::now();
        loop {
            self.m.attempted += 1;
            let t = Instant::now();
            let out = if self.traced() {
                self.traced_transform(model, wide)
            } else {
                model.transform(wide).map_err(|e| e.to_string())
            };
            let secs = t.elapsed().as_secs_f64();
            match out {
                Ok(table) => {
                    self.m.transform.push(secs);
                    if !same_features(&table, reference, &features) {
                        self.mismatch("a repeated transform differs from the first".into());
                    }
                }
                Err(e) => {
                    self.m.failed += 1;
                    return Err(format!("transform failed: {e}"));
                }
            }
            if start.elapsed() >= SERVE_WINDOW - lookups {
                break;
            }
        }
        self.add_tier_stats(tier);
        self.m.serve_windows += 1;
        Ok(())
    }

    /// `AugModel::transform` through its public pieces: the engine's
    /// transform, then attaching the finite values as columns.
    fn traced_transform(&mut self, model: &OwnedAugModel, table: &Table) -> Result<Table, String> {
        let tracer = self.tracer.as_mut().expect("traced run");
        tracer.next_request();
        let outer = tracer.begin("pipeline.transform");
        let start = Instant::now();
        let queries: Vec<PredicateQuery> = model
            .plan()
            .queries
            .iter()
            .map(|p| p.query.clone())
            .collect();
        let exec_start = Instant::now();
        let features = tracer.scope("exec.transform", || {
            model.engine().transform(&queries, table)
        });
        let exec_secs = exec_start.elapsed().as_secs_f64();
        let out = features.map(|features| {
            let mut augmented = table.clone();
            for (query, values) in queries.iter().zip(features) {
                let finite: Vec<Option<f64>> = values
                    .into_iter()
                    .map(|v| v.filter(|x| x.is_finite()))
                    .collect();
                // Like AugModel::transform: a name already present is skipped.
                let _ = augmented.add_column(query.feature_name(), Column::from_opt_f64s(&finite));
            }
            augmented
        });
        let total = start.elapsed().as_secs_f64();
        tracer.end(outer);
        let layers = self.layers();
        layers.exec_transform.push(exec_secs);
        layers.attach.push(total - exec_secs);
        out.map_err(|e| e.to_string())
    }

    fn count(&mut self, answered: u64, failed: u64) {
        self.m.attempted += answered + failed;
        self.m.failed += failed;
    }

    fn record_lookups(&mut self, run: LoopRun) {
        self.count(run.answered, run.failed);
        self.m.lookup_rate.push(run.answered as f64 / run.wall);
        if !run.latency_us.is_empty() {
            let window = sorted(run.latency_us);
            self.m.lookup_p50_us.push(percentile(&window, 50.0));
            self.m.lookup_p90_us.push(percentile(&window, 90.0));
            self.m.lookup_p99_us.push(percentile(&window, 99.0));
            self.m.lookup_us.extend(window);
        }
    }

    fn add_tier_stats(&mut self, tier: &ServingTier) {
        let stats = tier.stats();
        // A degraded lookup comes back as an all-NULL row, not an error;
        // it still counts as failed. Shed lookups are already counted as
        // failed by the client that saw the error.
        self.m.failed += stats.degraded as u64;
        self.m.shed += stats.shed as u64;
        self.m.degraded += stats.degraded as u64;
        self.m.cancelled += stats.cancelled as u64;
    }

    /// One closed-loop client on this thread, sending its next lookup when
    /// the previous one returns, cycling through the seeded keys. One client,
    /// though the tier has two workers: with two clients on a 2-CPU machine,
    /// four runnable threads contend for the CPUs, and the spread of p50 and
    /// p99 latency between runs grew from 0.06 and 0.10 to 0.16 and 0.25
    /// (quartile distance over median, five seeds). With a span name, each
    /// lookup is a span and its latency is the span's duration; the loop
    /// stops early after `WINDOW_SPANS` spans.
    fn closed_loop(
        &mut self,
        lookup: &Lookup<'_>,
        duration: Duration,
        span: Option<&'static str>,
    ) -> LoopRun {
        let keys = &self.inputs.keys;
        let first_span = self.tracer.as_ref().map_or(0, |t| t.spans().len());
        let mut run = LoopRun::default();
        let mut out = Vec::new();
        let start = Instant::now();
        while start.elapsed() < duration {
            let key = &keys[run.answered as usize % keys.len()];
            let ok = match (&mut self.tracer, span) {
                (Some(tracer), Some(name)) => {
                    if tracer.spans().len() - first_span >= WINDOW_SPANS {
                        break;
                    }
                    tracer.next_request();
                    tracer.scope(name, || lookup(key, &mut out))
                }
                _ => {
                    let t = Instant::now();
                    let ok = lookup(key, &mut out);
                    run.latency_us.push(t.elapsed().as_nanos() as f64 / 1e3);
                    ok
                }
            };
            std::hint::black_box(&out);
            if ok {
                run.answered += 1;
            } else {
                run.failed += 1;
            }
        }
        run.wall = start.elapsed().as_secs_f64();
        if let (Some(tracer), Some(name)) = (&self.tracer, span) {
            run.latency_us = durations_us(&tracer.spans()[first_span..], name);
        }
        run
    }

    /// Served rows must be bit-identical to transform rows for sampled keys.
    fn check_served(&mut self, model: &OwnedAugModel, handle: &Arc<ServingHandle<'static>>) {
        let inputs = self.inputs;
        let tier = ServingTier::new(Arc::clone(handle), TierConfig::default());
        let sampled: Vec<&Vec<Value>> = inputs.keys.iter().step_by(CHECK_EVERY).collect();
        let table = match key_table(&inputs.serve.train, &inputs.serve.key_columns, &sampled) {
            Ok(t) => t,
            Err(e) => return self.mismatch(format!("building the key table failed: {e}")),
        };
        let features = match model.transform_features(&table) {
            Ok(f) => f,
            Err(e) => return self.mismatch(format!("transform of sampled keys failed: {e}")),
        };
        for (row, key) in sampled.iter().enumerate() {
            let expected: Vec<Option<f64>> = features.iter().map(|(_, v)| v[row]).collect();
            match tier.lookup(key) {
                Ok(served) if same_bits(&served, &expected) => {}
                Ok(_) => {
                    return self
                        .mismatch(format!("served row for key {key:?} differs from transform"))
                }
                Err(e) => return self.mismatch(format!("check lookup for {key:?} failed: {e}")),
            }
        }
    }

    /// One ingest round: `BATCHES_PER_ROUND` appends to a freshly compiled
    /// model while one client keeps looking up through a tier over its
    /// handle. Returns the model, its handle and the indices of the batches
    /// appended.
    fn ingest_round(&mut self, plan: &AugPlan, first: usize) -> Result<IngestRound, String> {
        let (model, handle) = self.compile(plan)?;
        let tier = ServingTier::new(Arc::clone(&handle), TierConfig::default());
        let used = self.ingest_batches(&model, &handle, &tier, first)?;
        self.add_tier_stats(&tier);
        Ok((model, handle, used))
    }

    fn ingest_batches(
        &mut self,
        model: &OwnedAugModel,
        handle: &ServingHandle<'static>,
        tier: &ServingTier,
        first: usize,
    ) -> Result<Vec<usize>, String> {
        let inputs = self.inputs;
        let keys = &inputs.keys;
        let batches = &inputs.batches;
        let stop = AtomicBool::new(false);
        let mut used = Vec::with_capacity(BATCHES_PER_ROUND);
        let mut result = Ok(());
        let (latency_us, answered, failed) = std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                let mut latency_us = Vec::new();
                let (mut answered, mut failed) = (0u64, 0u64);
                let mut i = first * 7;
                while !stop.load(Ordering::Acquire) {
                    let t = Instant::now();
                    match tier.lookup(&keys[i % keys.len()]) {
                        Ok(row) => {
                            std::hint::black_box(row);
                            answered += 1;
                        }
                        Err(_) => failed += 1,
                    }
                    latency_us.push(t.elapsed().as_nanos() as f64 / 1e3);
                    i += 1;
                }
                (latency_us, answered, failed)
            });
            for b in first..first + BATCHES_PER_ROUND {
                let index = b % batches.len();
                if let Some(tracer) = &mut self.tracer {
                    tracer.next_request();
                }
                self.m.attempted += 1;
                let t0 = Instant::now();
                let appended = match &mut self.tracer {
                    Some(tracer) => {
                        tracer.scope("exec.append", || model.append_relevant(&batches[index]))
                    }
                    None => model.append_relevant(&batches[index]),
                };
                let t1 = Instant::now();
                let epoch = match appended {
                    Ok(epoch) => epoch.epoch,
                    Err(e) => {
                        self.m.failed += 1;
                        result = Err(format!("append_relevant failed: {e}"));
                        break;
                    }
                };
                used.push(index);
                // The handle follows the engine lazily, on the reader's next
                // lookup through the tier. Poll with short sleeps rather than
                // spinning: a spinning poller takes a CPU from the reader and
                // the tier worker that make the epoch visible.
                let follow = self.tracer.as_mut().map(|t| t.begin("serving.follow"));
                while handle.epoch() < epoch {
                    if t1.elapsed() > VISIBILITY_TIMEOUT {
                        break;
                    }
                    std::thread::sleep(VISIBILITY_POLL);
                }
                let t2 = Instant::now();
                if let (Some(tracer), Some(span)) = (&mut self.tracer, follow) {
                    tracer.end(span);
                }
                if handle.epoch() < epoch {
                    self.m.failed += 1;
                    result = Err(format!(
                        "epoch {epoch} not visible to readers after {VISIBILITY_TIMEOUT:?}"
                    ));
                    break;
                }
                self.m.append.push((t1 - t0).as_secs_f64());
                self.m.follow.push((t2 - t1).as_secs_f64());
                self.m.visible.push((t2 - t0).as_secs_f64());
            }
            stop.store(true, Ordering::Release);
            reader.join().expect("ingest reader panicked")
        });
        self.count(answered, failed);
        self.m.ingest_lookup_us.extend(latency_us);
        result.map(|()| used)
    }

    /// After ingest, lookups must equal a fresh compile over the relevant
    /// table concatenated with the appended batches, for sampled keys.
    fn check_ingested(
        &mut self,
        plan: &AugPlan,
        model: &OwnedAugModel,
        handle: &ServingHandle<'static>,
        used: &[usize],
    ) {
        let inputs = self.inputs;
        let mut appended = inputs.batches[used[0]].clone();
        for &i in &used[1..] {
            appended = appended
                .concat(&inputs.batches[i])
                .expect("batches share a schema");
        }
        let full = match inputs.serve.relevant.concat(&appended) {
            Ok(t) => t,
            Err(e) => {
                return self.mismatch(format!("concatenating the relevant table failed: {e}"))
            }
        };
        if model.epoch() != used.len() as u64 {
            return self.mismatch(format!(
                "model at epoch {} after {} appends",
                model.epoch(),
                used.len()
            ));
        }
        let fresh = match AugModel::compile_shared(
            plan.clone(),
            Arc::clone(&self.serve_train),
            Arc::new(full),
        ) {
            Ok(m) => m,
            Err(e) => return self.mismatch(format!("fresh compile failed: {e}")),
        };
        let fresh_handle = match fresh.prepare() {
            Ok(h) => h,
            Err(e) => return self.mismatch(format!("fresh prepare failed: {e}")),
        };
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for key in inputs.keys.iter().step_by(CHECK_EVERY) {
            let ok =
                handle.lookup(key, &mut got).is_ok() && fresh_handle.lookup(key, &mut want).is_ok();
            if !ok || !same_bits(&got, &want) {
                return self.mismatch(format!(
                    "after ingest, lookup of {key:?} differs from a fresh compile over the concatenated table"
                ));
            }
        }
    }
}

type IngestRound = (OwnedAugModel, Arc<ServingHandle<'static>>, Vec<usize>);

/// One lookup into `out`; `false` when it failed.
type Lookup<'a> = dyn Fn(&[Value], &mut Vec<Option<f64>>) -> bool + 'a;

#[derive(Default)]
struct LoopRun {
    latency_us: Vec<f64>,
    answered: u64,
    failed: u64,
    wall: f64,
}

/// Whether two transform outputs hold bit-identical feature columns.
fn same_features(a: &Table, b: &Table, features: &[String]) -> bool {
    a.schema() == b.schema()
        && features
            .iter()
            .all(|name| match (a.column(name), b.column(name)) {
                (Ok(x), Ok(y)) => same_bits(&x.to_f64_vec(), &y.to_f64_vec()),
                _ => false,
            })
}

fn same_bits(a: &[Option<f64>], b: &[Option<f64>]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.map(f64::to_bits) == y.map(f64::to_bits))
}

/// A table holding just the key columns, one row per key.
fn key_table(
    like: &Table,
    key_columns: &[String],
    keys: &[&Vec<Value>],
) -> feataug_tabular::Result<Table> {
    let mut table = Table::new(like.name());
    for (k, name) in key_columns.iter().enumerate() {
        let mut column = Column::empty(like.dtype(name)?);
        for key in keys {
            column.push(key[k].clone())?;
        }
        table.add_column(name.clone(), column)?;
    }
    Ok(table)
}
