//! `swbft-bench compare A.json B.json`: one row per workload x end-to-end
//! metric with both medians, the ratio and its base, and a verdict from the
//! benchmark's own bounds.

use crate::json::Json;
use crate::metrics::{Better, EndToEnd, END_TO_END, PER_LAYER, SIMULATED};
use crate::stats::Summary;

/// How B's metric stands against A's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is better than A's by more than the bound.
    Better,
    /// The medians are within the bound of each other (or, for an exact
    /// metric, bit-for-bit equal).
    Same,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The medians differ by more than the bound, but A's own runs spread
    /// wider than the bound and the two sides' runs overlap.
    Unresolved,
    /// An exact metric (simulated statistic, count, digest) changed.
    Differs,
}

impl Verdict {
    /// Lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Differs => "DIFFERS",
        }
    }

    /// Whether the verdict makes `compare` exit non-zero.
    pub fn fails(self) -> bool {
        matches!(self, Verdict::Worse | Verdict::Differs)
    }
}

/// Judges B against A by `metric`'s bound (a share of A's median, plus the
/// metric's absolute slack).
pub fn judge(metric: &EndToEnd, a: &Summary, b: &Summary) -> Verdict {
    let allowed = a.median.abs() * metric.bound + metric.slack;
    let worsening = match metric.better {
        Better::Lower => b.median - a.median,
        Better::Higher => a.median - b.median,
    };
    let verdict = if worsening > allowed {
        Verdict::Worse
    } else if worsening < -allowed {
        Verdict::Better
    } else {
        return Verdict::Same;
    };
    let overlap = a.min <= b.max && b.min <= a.max;
    if a.max - a.min > allowed && overlap {
        Verdict::Unresolved
    } else {
        verdict
    }
}

fn summary(metric: &Json) -> Option<Summary> {
    Some(Summary {
        median: metric.get("median")?.as_f64()?,
        min: metric.get("min")?.as_f64()?,
        max: metric.get("max")?.as_f64()?,
        n: metric.get("n")?.as_f64()? as usize,
    })
}

fn exact_verdict(a: f64, b: f64) -> Verdict {
    if a.to_bits() == b.to_bits() {
        Verdict::Same
    } else {
        Verdict::Differs
    }
}

struct Table {
    text: String,
    failed: bool,
}

impl Table {
    fn row(&mut self, workload: &str, metric: &str, a: f64, b: f64, verdict: Verdict, note: &str) {
        self.failed |= verdict.fails();
        self.text.push_str(&format!(
            "{workload:<14} {metric:<20} {a:>14.6} {b:>14.6} {:>9.4}  {}{note}\n",
            b / a,
            verdict.name()
        ));
    }

    fn failure(&mut self, workload: &str, what: &str) {
        self.failed = true;
        self.text.push_str(&format!("{workload:<14} {what}\n"));
    }
}

/// Compares two result files; returns the rendered table and whether any
/// row fails. Exact metrics, digests and counts are compared only when both
/// sides ran the same seed at the same sizes (otherwise they are functions
/// of different inputs).
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    let stamp = |doc: &Json, key: &str| doc.get("stamp").and_then(|s| s.get(key)).cloned();
    let same_inputs = ["seed", "smoke"]
        .iter()
        .all(|key| stamp(a, key) == stamp(b, key));
    let mut table = Table {
        text: format!(
            "{:<14} {:<20} {:>14} {:>14} {:>9}  {}\n",
            "workload", "metric", "A median", "B median", "B/A", "verdict"
        ),
        failed: false,
    };
    let workloads_a = a.get("workloads").ok_or("A has no 'workloads' section")?;
    let workloads_b = b.get("workloads").ok_or("B has no 'workloads' section")?;
    for (name, section_a) in workloads_a.members() {
        let section_b = workloads_b
            .get(name)
            .ok_or_else(|| format!("B has no workload '{name}'"))?;
        let same_sizes = same_inputs && section_a.get("sizes") == section_b.get("sizes");
        for metric in &END_TO_END {
            let side = |section: &Json| {
                section
                    .get("end_to_end")
                    .and_then(|m| m.get(metric.name))
                    .and_then(summary)
                    .ok_or_else(|| format!("{name}: no end-to-end metric '{}'", metric.name))
            };
            let (sa, sb) = (side(section_a)?, side(section_b)?);
            let spread = format!(" (A spread {:.1} %)", (sa.max - sa.min) / sa.median * 100.0);
            table.row(
                name,
                metric.name,
                sa.median,
                sb.median,
                judge(metric, &sa, &sb),
                &spread,
            );
        }
        for section in [section_a, section_b] {
            let failures = section
                .get("failed")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN);
            if failures != 0.0 {
                table.failure(name, &format!("failed operations: {failures}"));
            }
        }
        if !same_sizes {
            continue;
        }
        if section_a.get("digest") != section_b.get("digest") {
            table.failure(name, "output digest DIFFERS");
        }
        let value = |section: &Json, group: &str, metric: &str| {
            section.get(group)?.get(metric)?.get("value")?.as_f64()
        };
        for (metric, _) in SIMULATED {
            let sides = (
                value(section_a, "simulated", metric),
                value(section_b, "simulated", metric),
            );
            if let (Some(va), Some(vb)) = sides {
                table.row(
                    name,
                    metric,
                    va,
                    vb,
                    exact_verdict(va, vb),
                    " (simulated, exact)",
                );
            }
        }
        // Exact per-layer counts, when both sides were traced: only the
        // ones that moved get a row.
        for metric in PER_LAYER.iter().filter(|m| m.exact) {
            let sides = (
                value(section_a, "per_layer", metric.name),
                value(section_b, "per_layer", metric.name),
            );
            if let (Some(va), Some(vb)) = sides {
                if exact_verdict(va, vb) == Verdict::Differs {
                    table.row(
                        name,
                        metric.name,
                        va,
                        vb,
                        Verdict::Differs,
                        " (exact count)",
                    );
                }
            }
        }
    }
    if !same_inputs {
        table.text.push_str(
            "exact metrics and digests not compared: the two sets ran different inputs\n",
        );
    }
    Ok((table.text, table.failed))
}
