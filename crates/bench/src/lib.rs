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
//! Every binary, and every example that takes flags, reads its command line
//! through one [`Command`], so they share one exit-status convention:
//!
//! * 0 — success, or `--help` / `-h` (the usage goes to stdout);
//! * 1 — a usage or input error: an unknown argument, a flag missing its
//!   value, a value that does not parse, a topology that does not build or
//!   a routing that cannot run on it, a file that cannot be written (the
//!   message goes to stderr, followed by the usage for a usage error);
//! * 2 — only `verify`, when a case fails verification and for its
//!   `--naive-demo` negative control.
//!
//! Performance is measured by the standalone package under `benchmark/`
//! (see `benchmark/README.md`), not here.

use std::process::{ExitCode, Termination};
use swbft_core::{FigureError, FigureOptions, Jobs, RoutingChoice, Scale};
use torus_topology::TopologySpec;

/// A program's command line: its usage text and the arguments it takes.
#[derive(Debug)]
pub struct Command {
    /// Usage text, printed for `--help` and after every usage error.
    pub usage: &'static str,
    /// Flags that take the next argument as their value.
    pub values: &'static [&'static str],
    /// Flags that take no value.
    pub switches: &'static [&'static str],
    /// How many positional arguments (operands) the program takes.
    pub operands: usize,
}

/// Why a command line did not run to completion.
#[derive(Debug, PartialEq, Eq)]
pub enum CliError {
    /// `--help` or `-h`: print the usage on stdout and exit 0.
    Help,
    /// The arguments do not fit the program: the message and the usage on
    /// stderr, exit 1.
    Usage(String),
    /// The arguments parse but the run cannot go ahead with them (a topology
    /// that does not build, a routing it cannot run, a file that cannot be
    /// written): the message on stderr, exit 1.
    Input(String),
}

impl From<FigureError> for CliError {
    fn from(e: FigureError) -> Self {
        CliError::Input(e.to_string())
    }
}

/// The arguments a [`Command`] read, in the order they were given.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Args {
    values: Vec<(&'static str, String)>,
    switches: Vec<&'static str>,
    operands: Vec<String>,
}

impl Command {
    /// Reads `args` (the command line without the program name) in order:
    /// a declared value flag takes the next argument, `--help` / `-h` asks
    /// for the usage, and any other argument that starts with `-`, or an
    /// operand past [`Command::operands`], is unknown.
    pub fn read<I: IntoIterator<Item = String>>(&self, args: I) -> Result<Args, CliError> {
        let mut read = Args::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if let Some(&flag) = self.values.iter().find(|&&f| f == arg) {
                let value = args
                    .next()
                    .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))?;
                read.values.push((flag, value));
            } else if let Some(&flag) = self.switches.iter().find(|&&f| f == arg) {
                read.switches.push(flag);
            } else if arg == "--help" || arg == "-h" {
                return Err(CliError::Help);
            } else if arg.starts_with('-') || read.operands.len() == self.operands {
                return Err(CliError::Usage(format!("unknown argument '{arg}'")));
            } else {
                read.operands.push(arg);
            }
        }
        Ok(read)
    }

    /// Reads the process's arguments, runs `body` on them and turns the
    /// outcome into the exit status of the crate's convention.
    pub fn main<T: Termination>(
        &self,
        body: impl FnOnce(&Args) -> Result<T, CliError>,
    ) -> ExitCode {
        match self
            .read(std::env::args().skip(1))
            .and_then(|args| body(&args))
        {
            Ok(outcome) => outcome.report(),
            Err(CliError::Help) => {
                println!("{}", self.usage);
                ExitCode::SUCCESS
            }
            Err(CliError::Usage(msg)) => {
                eprintln!("{msg}\n{}", self.usage);
                ExitCode::FAILURE
            }
            Err(CliError::Input(msg)) => {
                eprintln!("{msg}");
                ExitCode::FAILURE
            }
        }
    }
}

impl Args {
    /// The last value given for `flag`, if any.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(f, _)| *f == flag)
            .map(|(_, v)| v.as_str())
    }

    /// Every value given for `flag` run through `parse`, in order: the last
    /// one's result, `None` if the flag is absent, or the first error as a
    /// usage error.
    pub fn parse<T>(
        &self,
        flag: &str,
        parse: impl Fn(&str) -> Result<T, String>,
    ) -> Result<Option<T>, CliError> {
        let mut last = None;
        for (_, value) in self.values.iter().filter(|(f, _)| *f == flag) {
            last = Some(parse(value).map_err(CliError::Usage)?);
        }
        Ok(last)
    }

    /// Whether the switch `flag` was given.
    pub fn switch(&self, flag: &str) -> bool {
        self.switches.contains(&flag)
    }

    /// The positional arguments, in order.
    pub fn operands(&self) -> &[String] {
        &self.operands
    }

    /// The figure options the shared flags describe: `--scale`,
    /// `--topology`, `--routing` and `--jobs` override
    /// `FigureOptions::new(Scale::Quick)`.
    pub fn figure_options(&self) -> Result<FigureOptions, CliError> {
        let scale = self.parse("--scale", Scale::parse)?.unwrap_or(Scale::Quick);
        let mut opts = FigureOptions::new(scale);
        opts.topology = self.parse("--topology", TopologySpec::parse)?;
        if let Some(routing) = self.parse("--routing", RoutingChoice::parse)? {
            opts = opts.with_routing(routing);
        }
        if let Some(jobs) = self.parse("--jobs", Jobs::parse)? {
            opts = opts.with_jobs(jobs);
        }
        Ok(opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG_LIKE: Command = Command {
        usage: "usage: test",
        values: &["--scale", "--csv", "--topology", "--routing", "--jobs"],
        switches: &["--smoke"],
        operands: 1,
    };

    fn read(list: &[&str]) -> Result<Args, CliError> {
        FIG_LIKE.read(list.iter().map(ToString::to_string))
    }

    fn options(list: &[&str]) -> Result<FigureOptions, CliError> {
        read(list)?.figure_options()
    }

    #[test]
    fn defaults_are_the_paper_figure() {
        assert_eq!(options(&[]), Ok(FigureOptions::new(Scale::Quick)));
    }

    #[test]
    fn shared_flags_parse_into_figure_options() {
        let o = options(&["--scale", "paper", "--jobs", "4"]).unwrap();
        assert_eq!(o.scale, Scale::Paper);
        assert_eq!(o.jobs, Jobs::count(4));
        let o = options(&["--topology", "mesh:8x2", "--routing", "turnmodel-det"]).unwrap();
        assert_eq!(o.topology, Some(TopologySpec::mesh(8, 2)));
        assert_eq!(
            o.routings,
            Some(vec![RoutingChoice::TurnModelDeterministic])
        );
        // The shorthands go straight through the spec parser.
        let o = options(&["--topology", "8x8x4o"]).unwrap();
        assert_eq!(
            o.topology,
            Some(TopologySpec::mixed(vec![8, 8, 4], vec![true, true, false]))
        );
        assert_eq!(options(&["--jobs", "auto"]).unwrap().jobs, Jobs::Auto);
    }

    #[test]
    fn the_last_value_wins_but_every_value_must_parse() {
        let o = options(&["--scale", "paper", "--scale", "smoke"]).unwrap();
        assert_eq!(o.scale, Scale::Smoke);
        assert!(options(&["--jobs", "0", "--jobs", "2"]).is_err());
        let args = read(&["--csv", "a.csv", "--csv", "b.csv"]).unwrap();
        assert_eq!(args.value("--csv"), Some("b.csv"));
        assert_eq!(args.value("--topology"), None);
    }

    #[test]
    fn operands_and_switches_are_kept_in_order() {
        let args = read(&["--smoke", "fig3", "--jobs", "2"]).unwrap();
        assert!(args.switch("--smoke"));
        assert_eq!(args.operands(), ["fig3"]);
        assert!(!read(&[]).unwrap().switch("--smoke"));
    }

    #[test]
    fn help_is_read_in_order() {
        assert_eq!(read(&["--help"]), Err(CliError::Help));
        assert_eq!(read(&["fig3", "-h"]), Err(CliError::Help));
        // An unknown argument before it is the error; a value flag takes it
        // as its value.
        assert!(matches!(
            read(&["--bogus", "--help"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            options(&["--scale", "--help"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn usage_errors() {
        for argv in [
            &["--bogus"][..],
            &["-x"],
            &["fig3", "fig4"],
            &["--scale"],
            &["--topology"],
            &["--routing"],
            &["--jobs"],
        ] {
            assert!(matches!(read(argv), Err(CliError::Usage(_))), "{argv:?}");
        }
        for argv in [
            &["--scale", "huge"][..],
            &["--topology", "ring:9"],
            &["--routing", "magic"],
            &["--jobs", "0"],
            &["--jobs", "lots"],
        ] {
            assert!(matches!(options(argv), Err(CliError::Usage(_))), "{argv:?}");
        }
    }
}
