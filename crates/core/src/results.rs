//! Structured figure results and their text/CSV rendering.

use torus_metrics::SimulationReport;

/// One point of a curve: an x value (traffic rate or number of faults) and the
/// simulation report measured there.
#[derive(Clone, Debug, PartialEq)]
pub struct PointResult {
    /// The x coordinate (traffic rate in messages/node/cycle, or number of
    /// faulty nodes, depending on the figure).
    pub x: f64,
    /// Full metrics report of the simulation at this point.
    pub report: SimulationReport,
    /// True if the point stopped at the cycle cap (a saturated point).
    pub saturated: bool,
}

impl PointResult {
    /// The y value this figure plots at this point.
    pub fn y(&self, metric: Metric) -> f64 {
        match metric {
            Metric::MeanLatency => self.report.mean_latency,
            Metric::Throughput => self.report.throughput,
            Metric::MessagesQueued => self.report.messages_queued as f64,
        }
    }
}

/// The metric a figure plots on its y axis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Metric {
    /// Mean message latency in cycles (Figs. 3, 4, 5).
    MeanLatency,
    /// Delivered messages per node per cycle (Fig. 6).
    Throughput,
    /// Number of messages absorbed into local queues (Fig. 7).
    MessagesQueued,
}

impl Metric {
    /// Axis label used in the rendered tables.
    pub fn label(&self) -> &'static str {
        match self {
            Metric::MeanLatency => "mean latency (cycles)",
            Metric::Throughput => "throughput (messages/node/cycle)",
            Metric::MessagesQueued => "messages queued",
        }
    }
}

/// One curve of a figure panel (for example "M=32, nf=5").
#[derive(Clone, Debug, PartialEq)]
pub struct CurveResult {
    /// Legend label of the curve.
    pub label: String,
    /// Points of the curve, in increasing x.
    pub points: Vec<PointResult>,
}

/// One panel of a figure (one sub-plot, e.g. "Deterministic routing, V=4").
#[derive(Clone, Debug, PartialEq)]
pub struct PanelResult {
    /// Panel title.
    pub title: String,
    /// Label of the x axis.
    pub x_label: String,
    /// Metric plotted on the y axis.
    pub metric: Metric,
    /// The curves of the panel.
    pub curves: Vec<CurveResult>,
}

/// A point that failed to run: its coordinates in the figure and the rendered
/// experiment error. Figures collect failures instead of aborting, so one
/// incompatible point (for example a fault region that does not fit the
/// requested topology) leaves a hole in its curve rather than killing the
/// whole figure.
#[derive(Clone, Debug, PartialEq)]
pub struct PointFailure {
    /// Title of the panel the point belongs to.
    pub panel: String,
    /// Legend label of the curve the point belongs to.
    pub curve: String,
    /// The x coordinate of the failed point.
    pub x: f64,
    /// The rendered [`swbft_core::ExperimentError`](crate::ExperimentError).
    pub error: String,
}

/// A complete reproduced figure.
#[derive(Clone, Debug, PartialEq)]
pub struct FigureResult {
    /// Identifier, e.g. "fig3".
    pub id: String,
    /// Title of the figure (mirrors the paper's caption).
    pub title: String,
    /// Panels of the figure.
    pub panels: Vec<PanelResult>,
    /// Points that failed to run (empty on a fully successful figure).
    pub failures: Vec<PointFailure>,
}

impl FigureResult {
    /// Total number of simulation points contained in the figure.
    pub fn num_points(&self) -> usize {
        self.panels
            .iter()
            .flat_map(|p| p.curves.iter())
            .map(|c| c.points.len())
            .sum()
    }

    /// Renders the figure as aligned text tables, one per panel, with one row
    /// per x value and one column per curve — the same series the paper
    /// plots.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.title));
        for panel in &self.panels {
            out.push_str(&format!("\n-- {} --\n", panel.title));
            out.push_str(&format!("   y = {}\n", panel.metric.label()));
            // Header row.
            out.push_str(&format!("{:>14}", panel.x_label));
            for curve in &panel.curves {
                out.push_str(&format!(" | {:>22}", curve.label));
            }
            out.push('\n');
            // Collect the union of x values (curves of one panel share the
            // grid by construction, but be tolerant).
            let mut xs: Vec<f64> = panel
                .curves
                .iter()
                .flat_map(|c| c.points.iter().map(|p| p.x))
                .collect();
            xs.sort_by(f64::total_cmp);
            xs.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
            for x in xs {
                out.push_str(&format!("{x:>14.5}"));
                for curve in &panel.curves {
                    match curve.points.iter().find(|p| (p.x - x).abs() < 1e-12) {
                        Some(p) => {
                            let sat = if p.saturated { "*" } else { " " };
                            out.push_str(&format!(" | {:>21.3}{}", p.y(panel.metric), sat));
                        }
                        None => out.push_str(&format!(" | {:>22}", "-")),
                    }
                }
                out.push('\n');
            }
        }
        out.push_str("\n(* = the point hit the simulation cycle cap: the network is saturated)\n");
        if !self.failures.is_empty() {
            out.push_str(&format!(
                "\n!! {} point(s) failed to run:\n",
                self.failures.len()
            ));
            for f in &self.failures {
                out.push_str(&format!(
                    "   [{} | {} | x={}] {}\n",
                    f.panel, f.curve, f.x, f.error
                ));
            }
        }
        out
    }

    /// Renders every point of the figure as CSV rows.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "figure,panel,curve,x,mean_latency,throughput,messages_queued,mean_hops,delivered,saturated\n",
        );
        for panel in &self.panels {
            for curve in &panel.curves {
                for p in &curve.points {
                    out.push_str(&format!(
                        "{},{},{},{:.6},{:.3},{:.6},{},{:.3},{},{}\n",
                        self.id,
                        panel.title.replace(',', ";"),
                        curve.label.replace(',', ";"),
                        p.x,
                        p.report.mean_latency,
                        p.report.throughput,
                        p.report.messages_queued,
                        p.report.mean_hops,
                        p.report.delivered_messages,
                        p.saturated,
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use torus_metrics::{MetricsCollector, WarmupPolicy};

    fn dummy_report(latency: f64) -> SimulationReport {
        let mut c = MetricsCollector::new(64, WarmupPolicy::None);
        let m = c.on_generated(0);
        c.on_delivered(0, 0, latency as u64, 32, 4, m);
        c.report(1000, 0)
    }

    fn dummy_figure() -> FigureResult {
        FigureResult {
            id: "figX".to_string(),
            title: "test figure".to_string(),
            panels: vec![PanelResult {
                title: "panel A".to_string(),
                x_label: "Traffic rate".to_string(),
                metric: Metric::MeanLatency,
                curves: vec![
                    CurveResult {
                        label: "M=32, nf=0".to_string(),
                        points: vec![
                            PointResult {
                                x: 0.001,
                                report: dummy_report(50.0),
                                saturated: false,
                            },
                            PointResult {
                                x: 0.002,
                                report: dummy_report(80.0),
                                saturated: true,
                            },
                        ],
                    },
                    CurveResult {
                        label: "M=64, nf=0".to_string(),
                        points: vec![PointResult {
                            x: 0.001,
                            report: dummy_report(90.0),
                            saturated: false,
                        }],
                    },
                ],
            }],
            failures: Vec::new(),
        }
    }

    #[test]
    fn num_points() {
        assert_eq!(dummy_figure().num_points(), 3);
    }

    #[test]
    fn text_rendering_contains_all_series() {
        let text = dummy_figure().render_text();
        assert!(text.contains("figX"));
        assert!(text.contains("panel A"));
        assert!(text.contains("M=32, nf=0"));
        assert!(text.contains("M=64, nf=0"));
        assert!(text.contains("0.00100"));
        assert!(text.contains("*"), "saturated points are marked");
        assert!(text.contains("-"), "missing points are dashed");
    }

    #[test]
    fn failed_points_are_listed_in_the_text_rendering() {
        let mut fig = dummy_figure();
        assert!(!fig.render_text().contains("failed to run"));
        fig.failures.push(PointFailure {
            panel: "panel A".into(),
            curve: "M=32, nf=0".into(),
            x: 0.003,
            error: "fault scenario error: region does not fit".into(),
        });
        let text = fig.render_text();
        assert!(text.contains("1 point(s) failed to run"));
        assert!(text.contains("region does not fit"));
    }

    #[test]
    fn nan_x_values_do_not_panic_the_text_rendering() {
        let mut fig = dummy_figure();
        fig.panels[0].curves[0].points.push(PointResult {
            x: f64::NAN,
            report: dummy_report(1.0),
            saturated: false,
        });
        let _ = fig.render_text();
    }

    #[test]
    fn csv_rendering_has_one_row_per_point() {
        let csv = dummy_figure().to_csv();
        let lines: Vec<&str> = csv.trim().lines().collect();
        assert_eq!(lines.len(), 1 + 3);
        assert!(lines[0].starts_with("figure,panel,curve"));
        assert!(lines[1].contains("figX"));
    }

    #[test]
    fn metric_selection() {
        let p = PointResult {
            x: 1.0,
            report: dummy_report(42.0),
            saturated: false,
        };
        assert!(p.y(Metric::MeanLatency) > 0.0);
        assert_eq!(p.y(Metric::MessagesQueued), 0.0);
        assert_eq!(
            Metric::Throughput.label(),
            "throughput (messages/node/cycle)"
        );
    }
}
