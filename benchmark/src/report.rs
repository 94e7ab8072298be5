//! Rendering of one workload's result: the table a person reads, the detail
//! object a result file stores, and the one-line object the driver reads.

use crate::json::Json;
use crate::metrics::{END_TO_END, SIMULATED};
use crate::stats::Summary;
use crate::workloads::{WorkloadResult, WORKLOADS};

/// The per-layer half of a result: `(name, unit, value)` in table order, and
/// the sample counts behind pooled percentiles.
#[derive(Clone, Debug, Default)]
pub struct LayerSection {
    /// Every per-layer metric.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Sample counts, e.g. `("sim.window_ms", 360)`.
    pub samples: Vec<(&'static str, usize)>,
}

fn summary_json(unit: &str, s: &Summary) -> Json {
    Json::obj([
        ("unit", Json::str(unit)),
        ("median", Json::Num(s.median)),
        ("min", Json::Num(s.min)),
        ("max", Json::Num(s.max)),
        ("n", Json::Num(s.n as f64)),
    ])
}

fn value_json(unit: &str, value: f64) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// `(name, unit, summary)` of every end-to-end metric.
fn end_to_end(
    result: &WorkloadResult,
) -> impl Iterator<Item = (&'static str, &'static str, Summary)> {
    END_TO_END
        .iter()
        .zip(result.end_to_end())
        .map(|(metric, summary)| (metric.name, metric.unit, summary))
}

/// Prints every metric by name with unit, median, min/max and sample count.
pub fn print_table(result: &WorkloadResult, layers: Option<&LayerSection>, divisor: u64) {
    let workload = result.workload;
    let sizes: Vec<String> = workload
        .sizes(divisor)
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!(
        "== {} (jobs={}, {})",
        workload.name(),
        workload.jobs(),
        sizes.join(", ")
    );
    println!(
        "  {:<22} {:>8} {:>14} {:>14} {:>14} {:>4}",
        "metric", "unit", "median", "min", "max", "n"
    );
    for (name, unit, s) in end_to_end(result) {
        println!(
            "  {name:<22} {unit:>8} {:>14.6} {:>14.6} {:>14.6} {:>4}",
            s.median, s.min, s.max, s.n
        );
    }
    let outcome = &result.outcome;
    if let Some(simulated) = &outcome.simulated {
        for ((name, unit), value) in SIMULATED.iter().zip(simulated.values()) {
            println!("  {name:<22} {unit:>8} {value:>14.6}   (simulated, exact on a fixed seed)");
        }
    }
    println!(
        "  failed_frac {} ({} failed / {} attempted), digest {:016x}",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted,
        outcome.digest
    );
    for error in &outcome.errors {
        println!("  FAILED: {error}");
    }
    if let Some(layers) = layers {
        println!("  {:<36} {:>8} {:>16}", "per-layer metric", "unit", "value");
        for (name, unit, value) in &layers.metrics {
            println!("  {name:<36} {unit:>8} {value:>16.6}");
        }
        for (name, n) in &layers.samples {
            println!("  samples behind {name}: {n}");
        }
    }
}

/// One workload's section of a result file.
pub fn detail(result: &WorkloadResult, layers: Option<&LayerSection>, divisor: u64) -> Json {
    let workload = result.workload;
    let why = WORKLOADS
        .iter()
        .find(|(name, _)| *name == workload.name())
        .map_or("", |w| w.1);
    let outcome = &result.outcome;
    let mut pairs = vec![
        ("workload", Json::str(workload.name())),
        ("why", Json::str(why)),
        ("jobs", Json::Num(workload.jobs() as f64)),
        (
            "sizes",
            Json::obj(
                workload
                    .sizes(divisor)
                    .into_iter()
                    .map(|(k, v)| (k, Json::Num(v as f64))),
            ),
        ),
        ("correct", Json::Bool(result.correct())),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        (
            "errors",
            Json::Arr(outcome.errors.iter().map(Json::str).collect()),
        ),
        ("digest", Json::str(format!("{:016x}", outcome.digest))),
        (
            "end_to_end",
            Json::obj(end_to_end(result).map(|(name, unit, s)| (name, summary_json(unit, &s)))),
        ),
    ];
    if let Some(simulated) = &outcome.simulated {
        pairs.push((
            "simulated",
            Json::obj(
                SIMULATED
                    .iter()
                    .zip(simulated.values())
                    .map(|(&(name, unit), value)| (name, value_json(unit, value))),
            ),
        ));
    }
    if let Some(layers) = layers {
        pairs.push((
            "per_layer",
            Json::obj(
                layers
                    .metrics
                    .iter()
                    .map(|&(name, unit, v)| (name, value_json(unit, v))),
            ),
        ));
        pairs.push((
            "samples",
            Json::obj(
                layers
                    .samples
                    .iter()
                    .map(|&(name, n)| (name, Json::Num(n as f64))),
            ),
        ));
    }
    Json::obj(pairs)
}

/// The object the driver reads from the last line of standard output: with
/// tracing off every end-to-end metric (medians), with tracing on every
/// per-layer metric.
pub fn driver_line(result: &WorkloadResult, layers: Option<&LayerSection>) -> Json {
    let metrics = match layers {
        Some(layers) => Json::obj(
            layers
                .metrics
                .iter()
                .map(|&(name, unit, v)| (name, value_json(unit, v))),
        ),
        None => {
            Json::obj(end_to_end(result).map(|(name, unit, s)| (name, value_json(unit, s.median))))
        }
    };
    Json::obj([
        ("correct", Json::Bool(result.correct())),
        ("attempted", Json::Num(result.outcome.attempted as f64)),
        ("failed", Json::Num(result.outcome.failed as f64)),
        ("metrics", metrics),
    ])
}
