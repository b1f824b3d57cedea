//! End-to-end benchmark of FeatAug: fit, served lookups and transforms, and
//! live ingest, each with a wall-clock figure, plus a traced run that breaks
//! the time down by layer. See README.md for the workloads and metrics.
//!
//! ```text
//! perfbench --workload <fit_gbdt|fit_lr> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`, with the
//! end-to-end metrics when `--trace 0` and the per-layer metrics when
//! `--trace 1`. A failed correctness check still prints it, with
//! `"correct": false`, and exits with code 1. Its timings are scaled to a
//! reference thread hand-off latency of the host (see `reference.rs`); the
//! lines before it print them as measured too.

mod inputs;
mod lifecycle;
mod reference;
mod replica;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use feataug::FeatAugConfig;
use feataug_ml::ModelKind;

use inputs::{Inputs, BATCH_ROWS};
use lifecycle::{Lifecycle, Measured, Shares, TracedLayers};
use stats::{median, pct};

struct Workload {
    name: &'static str,
    /// The search configuration, with its default search seed: the run's
    /// seed varies the data, not the search.
    config: fn() -> FeatAugConfig,
    warmup_fit: bool,
    shares: Shares,
}

/// The fast search with a gradient-boosted downstream model: model training
/// is nearly all of the fit.
fn gbdt_fast() -> FeatAugConfig {
    FeatAugConfig::fast(ModelKind::GradientBoosting)
}

/// Paper defaults with a linear model: 15 aggregation functions, 8
/// templates, beam-search template identification.
fn linear_paper() -> FeatAugConfig {
    FeatAugConfig::new(ModelKind::Linear)
}

const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "fit_gbdt",
        config: gbdt_fast,
        // Each fit takes seconds; a warm-up fit would cost a twentieth of the run.
        warmup_fit: false,
        // Fits of seconds each: half the run, for about nine of them. Ingest
        // gets 0.3 so that the visibility tail (p90) has 20 or more batches
        // beyond it; at 0.2 it had 14-17 and spread 0.11 between runs.
        shares: Shares {
            fit: 0.5,
            serve: 0.2,
            ingest: 0.3,
        },
    },
    Workload {
        name: "fit_lr",
        config: linear_paper,
        warmup_fit: true,
        // Fits of under a second: a smaller share still times dozens, and
        // serving and ingest get the larger shares here.
        shares: Shares {
            fit: 0.4,
            serve: 0.3,
            ingest: 0.3,
        },
    },
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 50.0f64, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| bad("unknown workload"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("expected a positive number"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    Ok(Args {
        workload: workload
            .ok_or_else(|| format!("--workload is required: {}", names.join(", ")))?,
        seed,
        seconds,
        trace,
    })
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Total and stolen CPU time so far (`/proc/stat`, in clock ticks). Steal is
/// time the hypervisor ran other guests while this machine's CPUs had work;
/// a run with high steal is not comparable with a run without.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((ticks.iter().sum(), *ticks.get(7)?))
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Metrics at the reference hand-off latency: times multiplied by `scale`,
/// rates divided by it. Counts, ratios, AUC and memory stay as measured.
fn at_reference(metrics: &Metrics, scale: f64) -> Metrics {
    metrics
        .iter()
        .map(|&(name, value, unit)| {
            let value = match unit {
                "s" | "ms" | "us" => value * scale,
                "rows/s" | "1/s" => value / scale,
                _ => value,
            };
            (name, value, unit)
        })
        .collect()
}

fn end_to_end(m: &Measured) -> Result<Metrics, String> {
    let tail = m
        .visible_tail()
        .ok_or("too few ingest batches for a visibility tail")?;
    Ok(vec![
        ("setup_s", m.setup_s(), "s"),
        ("fit_s", m.fit_s(), "s"),
        ("fit_test_auc", m.fit_test_auc, "auc"),
        ("lookup_p50_us", median(&m.lookup_p50_us), "us"),
        (
            "transform_rows_per_s",
            m.transform_rows as f64 / median(&m.transform),
            "rows/s",
        ),
        (
            "ingest_rows_per_s",
            BATCH_ROWS as f64 / median(&m.append),
            "rows/s",
        ),
        ("visible_p50_ms", median(&m.visible) * 1e3, "ms"),
        ("visible_tail_ms", tail.value * 1e3, "ms"),
        ("success_rate", m.success_rate(), "ratio"),
        ("peak_rss_mb", peak_rss_mb()?, "MB"),
    ])
}

/// Median over replica fits of one span name's summed self time, or of its
/// span count.
fn fit_self_median(t: &TracedLayers, name: &str, count: bool) -> f64 {
    let per_fit: Vec<f64> = t
        .fit_self
        .iter()
        .map(|by_name| {
            by_name
                .get(name)
                .map_or(0.0, |&(s, n)| if count { n as f64 } else { s })
        })
        .collect();
    median(&per_fit)
}

fn per_layer(m: &Measured, t: &TracedLayers) -> Metrics {
    let fit_layer = |name: &str, count: bool| fit_self_median(t, name, count);
    let tier_p50 = median(&m.lookup_us);
    let handle_p50 = median(&t.handle_lookup_us);
    vec![
        (
            "evaluation.train_s",
            fit_layer("evaluation.train", false),
            "s",
        ),
        ("evaluation.train_calls", median(&t.trainings), "count"),
        (
            "evaluation.distinct_ratio",
            median(&t.distinct_ratio),
            "ratio",
        ),
        ("exec.feature_s", fit_layer("exec.feature", false), "s"),
        (
            "exec.feature_calls",
            fit_layer("exec.feature", true),
            "count",
        ),
        ("exec.cache_hit_ratio", median(&t.cache_hit_ratio), "ratio"),
        ("proxy.loss_s", fit_layer("proxy.loss", false), "s"),
        ("hpo.suggest_s", fit_layer("hpo.suggest", false), "s"),
        ("hpo.observe_s", fit_layer("hpo.observe", false), "s"),
        (
            "template_id.identify_s",
            fit_layer("template_id.identify", false),
            "s",
        ),
        (
            "generation.warmup_s",
            fit_layer("generation.warmup", false),
            "s",
        ),
        (
            "generation.search_s",
            fit_layer("generation.search", false),
            "s",
        ),
        ("pipeline.fit_self_s", fit_layer("pipeline.fit", false), "s"),
        ("pipeline.task_s", median(&m.task_setup), "s"),
        ("pipeline.compile_s", median(&t.compile), "s"),
        ("serving.prepare_s", median(&t.prepare), "s"),
        ("serving.lookup_p50_us", handle_p50, "us"),
        ("tier.handoff_us", tier_p50 - handle_p50, "us"),
        ("tier.lookups_per_s", median(&m.lookup_rate), "1/s"),
        ("tier.lookup_p90_us", median(&m.lookup_p90_us), "us"),
        ("tier.lookup_p99_us", median(&m.lookup_p99_us), "us"),
        ("tier.shed", m.shed as f64, "count"),
        ("tier.degraded", m.degraded as f64, "count"),
        ("tier.cancelled", m.cancelled as f64, "count"),
        ("exec.transform_s", median(&t.exec_transform), "s"),
        ("pipeline.attach_s", median(&t.attach), "s"),
        ("exec.append_p50_ms", median(&m.append) * 1e3, "ms"),
        ("serving.follow_us", median(&m.follow) * 1e6, "us"),
        ("ingest.lookup_p50_us", median(&m.ingest_lookup_us), "us"),
        ("ingest.batches", m.append.len() as f64, "count"),
        ("error_rate", 1.0 - m.success_rate(), "ratio"),
        (
            "trace.fit_overhead_s",
            median(&t.replica_wall) - median(&t.untraced_replica_wall),
            "s",
        ),
        (
            "trace.lookup_overhead_us",
            tier_p50 - median(&t.untraced_lookup_us),
            "us",
        ),
    ]
}

fn json(correct: bool, m: &Measured, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.attempted,
        m.failed,
        body.join(", ")
    )
}

fn trace_path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{workload}.trace.tsv"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let ticks_before = cpu_ticks();
    let inputs = Inputs::generate(args.seed);
    let lifecycle = Lifecycle::new(
        &inputs,
        (w.config)(),
        w.warmup_fit,
        args.seconds,
        w.shares,
        args.trace,
    );
    let (measured, tracer) = match lifecycle.run() {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} aborted: {e}", w.name);
            return ExitCode::FAILURE;
        }
    };

    let measured_metrics = match (&measured.traced, args.trace) {
        (Some(layers), true) => per_layer(&measured, layers),
        _ => match end_to_end(&measured) {
            Ok(metrics) => metrics,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    let scale = measured.handoff.scale();
    let mut metrics = at_reference(&measured_metrics, scale);
    if args.trace {
        metrics.push(("host.handoff_us", measured.handoff.median_us(), "us"));
    }
    if let Some((name, value, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        eprintln!("perfbench: metric {name} is not finite ({value})");
        return ExitCode::FAILURE;
    }

    println!(
        "workload {} seed {} seconds {} trace {} cpus {} fitted_plan_queries {:?}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        measured.plan_queries
    );
    let handoff = &measured.handoff.round_trip_us;
    println!(
        "  host hand-off round trip: median {:.3} us, p25 {:.3}, p75 {:.3}, over {} samples; scale {scale:.4} (reference {} us)",
        median(handoff),
        pct(handoff, 25.0),
        pct(handoff, 75.0),
        handoff.len(),
        reference::REFERENCE_US
    );
    println!(
        "  {:<26} {:>16} {:>16}",
        "metric", "at reference", "as measured"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let measured = measured_metrics.get(i).map_or(*value, |m| m.1);
        println!("  {name:<26} {value:>16.6} {measured:>16.6} {unit}");
    }
    let samples: BTreeMap<&str, usize> = [
        ("set-ups", measured.task_setup.len()),
        ("fits", measured.fit.len()),
        ("lookups", measured.lookup_us.len()),
        ("transforms", measured.transform.len()),
        ("batches", measured.append.len()),
    ]
    .into_iter()
    .collect();
    println!("  samples {samples:?}");
    for (name, values) in [
        ("fit_s", &measured.fit),
        ("transform_s", &measured.transform),
        ("append_s", &measured.append),
    ] {
        let q = |p| pct(values, p);
        println!(
            "  {name} quartiles as measured: min {:.4} p25 {:.4} p50 {:.4} p75 {:.4} max {:.4}",
            q(0.0),
            q(25.0),
            q(50.0),
            q(75.0),
            q(100.0)
        );
    }
    println!(
        "  fit_s median per fit dataset {:.4?}",
        measured.fit_medians()
    );
    if !measured.lookup_p99_us.is_empty() {
        println!(
            "  lookups {:.0}/s, p90 {:.3} us, p99 {:.3} us (medians over {} serve windows)",
            median(&measured.lookup_rate),
            median(&measured.lookup_p90_us),
            median(&measured.lookup_p99_us),
            measured.lookup_p99_us.len()
        );
    }
    if let (Some((total0, steal0)), Some((total1, steal1))) = (ticks_before, cpu_ticks()) {
        println!(
            "  host steal {:.1}% of CPU time during the run",
            100.0 * (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64
        );
    }
    println!(
        "  tier shed {} degraded {} cancelled {}; operations attempted {} failed {}",
        measured.shed, measured.degraded, measured.cancelled, measured.attempted, measured.failed
    );
    if let Some(tail) = measured.visible_tail() {
        println!(
            "  visible tail = p{} over {} batches ({} beyond)",
            tail.pct, tail.samples, tail.beyond
        );
    }
    if let (Some(tracer), Some(layers)) = (&tracer, &measured.traced) {
        let outside = layers
            .outside_layers
            .iter()
            .fold(0.0f64, |acc, &v| acc.max(v));
        let names: std::collections::BTreeSet<&str> = layers
            .fit_self
            .iter()
            .flat_map(|m| m.keys().copied())
            .collect();
        let largest = names
            .into_iter()
            .map(|name| (name, fit_self_median(layers, name, false)))
            .max_by(|a, b| a.1.total_cmp(&b.1));
        if let Some((name, secs)) = largest {
            println!("  largest fit layer by self time: {name} ({secs:.4} s per fit)");
        }
        println!(
            "  spans {}, replica fits {} traced + {} untraced, at most {:.3}% of a traced fit outside the layer spans",
            layers.spans,
            layers.replica_wall.len(),
            layers.untraced_replica_wall.len(),
            100.0 * outside
        );
        let path = trace_path(w.name);
        match tracer.write_tsv(&path) {
            Ok(()) => println!("  trace written to {}", path.display()),
            Err(e) => {
                eprintln!("perfbench: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }

    let correct = measured.mismatches.is_empty();
    println!("{}", json(correct, &measured, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
