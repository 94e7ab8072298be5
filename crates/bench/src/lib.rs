//! # torus-bench
//!
//! Figure-reproduction and verification binaries for the Software-Based
//! fault-tolerant routing study.
//!
//! * `cargo run -p torus-bench --release --bin fig -- fig3` (… `fig7`)
//!   regenerates the corresponding figure of the paper and prints its series
//!   as aligned text tables (add `--csv <path>` to also write CSV,
//!   `--scale paper` for the full 100,000-message methodology,
//!   `--topology mesh:8x2` / `--routing turnmodel` to regenerate the figure
//!   on another shape or routing algorithm).
//! * `ablation`, `saturation` and `verify` are the other binaries.
//!
//! Performance is measured by the standalone package under `benchmark/`
//! (see `benchmark/README.md`), not here.

use std::path::PathBuf;
use swbft_core::{Figure, FigureOptions, Jobs, RoutingChoice, Scale};
use torus_topology::TopologySpec;

/// Command-line options of the `fig` binary.
#[derive(Clone, Debug, PartialEq)]
pub struct FigureCliOptions {
    /// Measurement scale.
    pub scale: Scale,
    /// Optional path to write the figure's CSV rows to.
    pub csv: Option<PathBuf>,
    /// Optional topology override (`None` = the figure's paper topology).
    pub topology: Option<TopologySpec>,
    /// Optional routing override (`None` = deterministic vs adaptive).
    pub routing: Option<RoutingChoice>,
    /// Worker threads for the experiment pool (default: available
    /// parallelism). Never changes results, only wall clock.
    pub jobs: Jobs,
}

impl FigureCliOptions {
    /// The figure-run options these CLI options describe.
    pub fn figure_options(&self) -> FigureOptions {
        let mut opts = FigureOptions::new(self.scale).with_jobs(self.jobs);
        if let Some(t) = &self.topology {
            opts = opts.with_topology(t.clone());
        }
        if let Some(r) = self.routing {
            opts = opts.with_routing(r);
        }
        opts
    }
}

impl Default for FigureCliOptions {
    fn default() -> Self {
        FigureCliOptions {
            scale: Scale::Quick,
            csv: None,
            topology: None,
            routing: None,
            jobs: Jobs::Auto,
        }
    }
}

/// What a `fig` command line asks for.
#[derive(Clone, Debug, PartialEq)]
pub enum FigureCommand {
    /// Run this figure with these options.
    Run(Figure, FigureCliOptions),
    /// `--help`: print [`usage`] and exit successfully.
    Help,
}

/// Parses the `fig` binary's command-line arguments.
///
/// Exactly one positional argument names the figure (`fig3` … `fig7`).
/// Recognised flags: `--scale smoke|quick|paper` (default `quick`),
/// `--csv <path>`, `--topology <spec>` (a [`TopologySpec::parse`] string such
/// as `mesh:8x2`, `hc:6`, `8x8x4o` or `ft:4,2`),
/// `--routing det|adaptive|turnmodel|turnmodel-det|updown|updown-det` and
/// `--jobs N|auto`
/// (worker threads, default all cores; results are identical for any value).
/// Unknown flags produce an error string listing the usage.
pub fn parse_figure_args<I: IntoIterator<Item = String>>(args: I) -> Result<FigureCommand, String> {
    let mut opts = FigureCliOptions::default();
    let mut figure = None;
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--scale" => {
                let value = iter
                    .next()
                    .ok_or("--scale needs a value (smoke|quick|paper)")?;
                opts.scale = Scale::parse(&value)?;
            }
            "--csv" => {
                let value = iter.next().ok_or("--csv needs a file path")?;
                opts.csv = Some(PathBuf::from(value));
            }
            "--topology" => {
                let value = iter
                    .next()
                    .ok_or("--topology needs a spec (e.g. mesh:8x2, hc:6, 8x8x4o, ft:4,2)")?;
                opts.topology = Some(TopologySpec::parse(&value)?);
            }
            "--routing" => {
                let value = iter
                    .next()
                    .ok_or("--routing needs a value (det|adaptive|turnmodel|turnmodel-det|updown|updown-det)")?;
                opts.routing = Some(RoutingChoice::parse(&value)?);
            }
            "--jobs" => {
                let value = iter
                    .next()
                    .ok_or("--jobs needs a value (a positive integer or 'auto')")?;
                opts.jobs = Jobs::parse(&value)?;
            }
            "--help" | "-h" => return Ok(FigureCommand::Help),
            other => match Figure::from_id(other) {
                Some(f) if figure.is_none() => figure = Some(f),
                _ => return Err(format!("unknown argument '{other}'\n{}", usage())),
            },
        }
    }
    let figure = figure.ok_or_else(|| format!("missing figure (fig3..fig7)\n{}", usage()))?;
    Ok(FigureCommand::Run(figure, opts))
}

/// Usage string of the `fig` binary.
pub fn usage() -> String {
    "usage: fig <fig3|fig4|fig5|fig6|fig7> [--scale smoke|quick|paper] [--csv <path>] \
     [--topology <spec>] \
     [--routing det|adaptive|turnmodel|turnmodel-det|updown|updown-det] \
     [--jobs N|auto]\n\
     topology specs: torus:8x2, mesh:8x2, hypercube:6 (or hc:6), mixed:8,8,4o (or 8x8x4o), \
     fattree:4,2 (or ft:4,2)\n\
     --jobs fans the figure's points over N worker threads (default: all \
     cores); results are bit-identical for any value"
        .to_string()
}

/// Builds a topology and verifies every requested routing algorithm can run
/// on it, producing the error line the CLI binaries print before exiting.
/// Shared by the non-figure binaries (`ablation`, `saturation`) so the
/// rejection message stays identical everywhere.
pub fn validate_topology_routings(
    topology: &TopologySpec,
    routings: &[RoutingChoice],
) -> Result<torus_topology::AnyTopology, String> {
    use torus_routing::RoutingAlgorithm;
    let net = topology
        .build()
        .map_err(|e| format!("topology error: {e}"))?;
    for &r in routings {
        r.algorithm().supported_on(&net).map_err(|e| {
            format!(
                "routing '{}' cannot run on {}: {e}",
                r.label(),
                topology.label()
            )
        })?;
    }
    Ok(net)
}

/// Runs one figure with the given options and returns the text report
/// (writing the CSV file if requested). Figure-level errors (bad topology,
/// routing unsupported on the requested shape) come back as `Err(String)`;
/// individual failed points are listed inside the report text.
pub fn run_figure(figure: Figure, opts: &FigureCliOptions) -> Result<String, String> {
    let result = figure
        .run_with(&opts.figure_options())
        .map_err(|e| e.to_string())?;
    if let Some(path) = &opts.csv {
        std::fs::write(path, result.to_csv())
            .map_err(|e| format!("failed to write CSV to {}: {e}", path.display()))?;
    }
    Ok(result.render_text())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(ToString::to_string).collect()
    }

    /// Parses `fig3` followed by `flags` and returns the options.
    fn parse_fig3(flags: &[&str]) -> Result<FigureCliOptions, String> {
        let mut list = vec!["fig3"];
        list.extend_from_slice(flags);
        match parse_figure_args(args(&list))? {
            FigureCommand::Run(Figure::Fig3, opts) => Ok(opts),
            other => panic!("expected a fig3 run, got {other:?}"),
        }
    }

    #[test]
    fn figure_is_the_one_positional_argument() {
        for figure in Figure::ALL {
            assert_eq!(
                parse_figure_args(args(&["--jobs", "2", figure.id()])),
                Ok(FigureCommand::Run(
                    figure,
                    FigureCliOptions {
                        jobs: Jobs::count(2),
                        ..FigureCliOptions::default()
                    }
                ))
            );
        }
        assert!(parse_figure_args(args(&[])).is_err(), "figure is required");
        assert!(parse_figure_args(args(&["fig3", "fig4"])).is_err());
        assert!(parse_figure_args(args(&["fig8"])).is_err());
    }

    #[test]
    fn help_is_a_command_not_an_error() {
        for argv in [&["--help"][..], &["fig3", "-h"]] {
            assert_eq!(parse_figure_args(args(argv)), Ok(FigureCommand::Help));
        }
    }

    #[test]
    fn default_options() {
        let o = parse_fig3(&[]).unwrap();
        assert_eq!(o.scale, Scale::Quick);
        assert!(o.csv.is_none());
        assert!(o.topology.is_none());
        assert!(o.routing.is_none());
        assert_eq!(o.figure_options(), FigureOptions::new(Scale::Quick));
    }

    #[test]
    fn parses_scale_and_csv() {
        let o = parse_fig3(&["--scale", "paper", "--csv", "/tmp/out.csv"]).unwrap();
        assert_eq!(o.scale, Scale::Paper);
        assert_eq!(o.csv, Some(PathBuf::from("/tmp/out.csv")));
        let o = parse_fig3(&["--scale", "smoke"]).unwrap();
        assert_eq!(o.scale, Scale::Smoke);
    }

    #[test]
    fn parses_topology_and_routing() {
        let o = parse_fig3(&["--topology", "mesh:8x2", "--routing", "turnmodel-det"]).unwrap();
        assert_eq!(o.topology, Some(TopologySpec::mesh(8, 2)));
        assert_eq!(o.routing, Some(RoutingChoice::TurnModelDeterministic));
        let fo = o.figure_options();
        assert_eq!(fo.topology, Some(TopologySpec::mesh(8, 2)));
        assert_eq!(
            fo.routings,
            Some(vec![RoutingChoice::TurnModelDeterministic])
        );
        // The CLI shorthands go straight through the spec parser.
        let o = parse_fig3(&["--topology", "hc:6"]).unwrap();
        assert_eq!(o.topology, Some(TopologySpec::hypercube(6)));
        let o = parse_fig3(&["--topology", "8x8x4o"]).unwrap();
        assert_eq!(
            o.topology,
            Some(TopologySpec::mixed(vec![8, 8, 4], vec![true, true, false]))
        );
    }

    #[test]
    fn parses_jobs() {
        let o = parse_fig3(&["--jobs", "4"]).unwrap();
        assert_eq!(o.jobs, Jobs::count(4));
        assert_eq!(o.figure_options().jobs, Jobs::count(4));
        let o = parse_fig3(&["--jobs", "auto"]).unwrap();
        assert_eq!(o.jobs, Jobs::Auto);
        assert!(parse_fig3(&["--jobs", "0"]).is_err());
        assert!(parse_fig3(&["--jobs", "lots"]).is_err());
        assert!(parse_fig3(&["--jobs"]).is_err());
    }

    #[test]
    fn rejects_unknown_arguments() {
        assert!(parse_fig3(&["--bogus"]).is_err());
        assert!(parse_fig3(&["--scale", "huge"]).is_err());
        assert!(parse_fig3(&["--scale"]).is_err());
        assert!(parse_fig3(&["--topology", "ring:9"]).is_err());
        assert!(parse_fig3(&["--topology"]).is_err());
        assert!(parse_fig3(&["--routing", "magic"]).is_err());
        assert!(parse_fig3(&["--routing"]).is_err());
    }

    #[test]
    fn figure_level_errors_are_strings_not_panics() {
        // Turn-model routing on the default torus topology: rejected with a
        // readable message before any simulation runs.
        let o = FigureCliOptions {
            scale: Scale::Smoke,
            routing: Some(RoutingChoice::TurnModel),
            ..FigureCliOptions::default()
        };
        let err = run_figure(Figure::Fig3, &o).unwrap_err();
        assert!(err.contains("turn-model"), "{err}");
    }
}
