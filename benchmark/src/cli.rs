//! The command line: one workload for the driver, all six for a person,
//! `compare` for two result files.

use crate::compare::compare;
use crate::json::Json;
use crate::report::{detail, driver_line, print_table, LayerSection};
use crate::workloads::{
    pool_jobs, run_end_to_end, sweep_jobs, Workload, WorkloadResult, SMOKE_DIVISOR, WORKLOADS,
};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage:
  swbft-bench [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
      run all six workloads, each in a child process; write out/result.json
  swbft-bench --workload NAME [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
      run one workload in this process; the last line of output is one JSON object
  swbft-bench compare A.json B.json
      judge result file B against A by the benchmark's bounds";

/// Line prefix under which a child hands its detail object to the parent.
const DETAIL_PREFIX: &str = "detail ";

/// Parsed run options.
#[derive(Clone, Debug, PartialEq)]
pub struct Options {
    /// `--workload`: run only this one, in-process.
    pub workload: Option<String>,
    /// `--seed`: every generated input derives from it.
    pub seed: u64,
    /// `--seconds`: how long one workload measures.
    pub seconds: f64,
    /// `--trace`: add the per-layer metrics (needs the `trace` feature).
    pub trace: bool,
    /// `--smoke`: 1/20 length.
    pub smoke: bool,
}

impl Options {
    /// Parses the arguments after the program name.
    pub fn parse(args: &[String]) -> Result<Options, String> {
        let mut options = Options {
            workload: None,
            seed: 1,
            seconds: 10.0,
            trace: false,
            smoke: false,
        };
        let mut args = args.iter().peekable();
        while let Some(arg) = args.next() {
            let mut value = |flag: &str| {
                args.next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match arg.as_str() {
                "--workload" => options.workload = Some(value("--workload")?),
                "--seed" => {
                    options.seed = value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?;
                }
                "--seconds" => {
                    options.seconds = value("--seconds")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(options.seconds > 0.0 && options.seconds <= 600.0) {
                        return Err("--seconds must be in (0, 600]".to_string());
                    }
                }
                "--smoke" => options.smoke = true,
                // `--trace 0|1` as the driver passes it, or bare `--trace`.
                "--trace" => match args.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        args.next();
                        options.trace = false;
                    }
                    Some("1") => {
                        args.next();
                        options.trace = true;
                    }
                    _ => options.trace = true,
                },
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        Ok(options)
    }

    fn divisor(&self) -> u64 {
        if self.smoke {
            SMOKE_DIVISOR
        } else {
            1
        }
    }
}

/// The benchmark's output directory, `benchmark/out` next to this manifest.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_out(file: &str, json: &Json) -> Result<PathBuf, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(file);
    std::fs::write(&path, json.to_pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

/// Entry point: dispatches on the arguments and returns the exit code
/// (0 = everything ran and was correct, 1 = a failure, 2 = bad usage).
pub fn main(args: &[String]) -> ExitCode {
    let result = match args.first().map(String::as_str) {
        Some("compare") => run_compare(&args[1..]),
        Some("--help" | "-h") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => match Options::parse(args) {
            Err(e) => {
                eprintln!("error: {e}\n{USAGE}");
                return ExitCode::from(2);
            }
            Ok(options) if options.workload.is_some() => run_one(&options),
            Ok(options) => run_all(&options),
        },
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

type Measured = (WorkloadResult, Option<LayerSection>);

fn measure(workload: Workload, options: &Options) -> Result<Measured, String> {
    if options.trace {
        return measure_traced(workload, options);
    }
    let result = run_end_to_end(workload, options.seed, options.seconds, options.divisor())?;
    Ok((result, None))
}

#[cfg(feature = "trace")]
fn measure_traced(workload: Workload, options: &Options) -> Result<Measured, String> {
    let traced =
        crate::trace::run_traced(workload, options.seed, options.seconds, options.divisor())?;
    let path = write_out(
        &format!("trace-{}.json", workload.name()),
        &traced.root.to_json(),
    )?;
    println!("spans written to {}", path.display());
    let section = LayerSection {
        metrics: traced.layers.in_table_order().collect(),
        samples: traced.samples,
    };
    Ok((traced.end_to_end, Some(section)))
}

#[cfg(not(feature = "trace"))]
fn measure_traced(_: Workload, _: &Options) -> Result<Measured, String> {
    Err("--trace needs a build with `--features trace`".to_string())
}

/// One workload, in this process. The last line of standard output is the
/// object the driver reads; the line before it carries the detail object for
/// a parent `swbft-bench`.
fn run_one(options: &Options) -> Result<bool, String> {
    let name = options.workload.as_deref().unwrap_or_default();
    let workload = Workload::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        format!("unknown workload '{name}' (one of {})", names.join(", "))
    })?;
    let (result, layers) = measure(workload, options)?;
    print_table(&result, layers.as_ref(), options.divisor());
    println!(
        "{DETAIL_PREFIX}{}",
        detail(&result, layers.as_ref(), options.divisor()).to_line()
    );
    println!("{}", driver_line(&result, layers.as_ref()).to_line());
    Ok(result.correct())
}

/// All six workloads, each in a fresh child process so that `VmHWM` is per
/// workload; writes the stamped result set to `out/result.json` (and the
/// merged spans to `out/trace.json` when tracing).
fn run_all(options: &Options) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut sections = Vec::new();
    let mut traces = Vec::new();
    let mut correct = true;
    for (name, _) in WORKLOADS {
        let mut command = Command::new(&exe);
        command
            .args(["--workload", name, "--seed", &options.seed.to_string()])
            .args(["--seconds", &options.seconds.to_string()])
            .args(["--trace", if options.trace { "1" } else { "0" }])
            .stdout(Stdio::piped());
        if options.smoke {
            command.arg("--smoke");
        }
        // `output` waits for the child to end.
        let output = command
            .output()
            .map_err(|e| format!("cannot run {name}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let lines: Vec<&str> = stdout.lines().collect();
        let detail_at = lines.iter().rposition(|l| l.starts_with(DETAIL_PREFIX));
        for line in &lines[..detail_at.unwrap_or(lines.len())] {
            println!("{line}");
        }
        let Some(detail_at) = detail_at else {
            return Err(format!(
                "{name}: the child printed no result ({})",
                output.status
            ));
        };
        sections.push((name, Json::parse(&lines[detail_at][DETAIL_PREFIX.len()..])?));
        correct &= output.status.success();
        if options.trace {
            let path = out_dir().join(format!("trace-{name}.json"));
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            traces.push((name, Json::parse(&text)?));
        }
    }
    let result = Json::obj([
        ("schema", Json::str("swbft-bench-v1")),
        ("stamp", stamp(options)),
        ("workloads", Json::obj(sections)),
    ]);
    println!(
        "result set written to {}",
        write_out("result.json", &result)?.display()
    );
    if options.trace {
        println!(
            "spans written to {}",
            write_out("trace.json", &Json::obj(traces))?.display()
        );
    }
    Ok(correct)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// What a result file says about where it came from.
fn stamp(options: &Options) -> Json {
    let manifest_dir = env!("CARGO_MANIFEST_DIR");
    Json::obj([
        (
            "git_rev",
            Json::str(command_line(
                "git",
                &["-C", manifest_dir, "rev-parse", "HEAD"],
            )),
        ),
        ("rustc", Json::str(command_line("rustc", &["--version"]))),
        (
            "features",
            Json::str(format!(
                "sanitizer=off trace={}",
                if cfg!(feature = "trace") { "on" } else { "off" }
            )),
        ),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("sweep_jobs", Json::Num(sweep_jobs() as f64)),
        ("pool_jobs", Json::Num(pool_jobs() as f64)),
        // A string: a u64 seed need not fit a JSON number.
        ("seed", Json::str(options.seed.to_string())),
        ("seconds", Json::Num(options.seconds)),
        ("traced", Json::Bool(options.trace)),
        ("smoke", Json::Bool(options.smoke)),
    ])
}

fn run_compare(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err(format!("compare takes two result files\n{USAGE}"));
    };
    let load = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (table, failed) = compare(&load(a)?, &load(b)?)?;
    print!("{table}");
    println!(
        "{}",
        if failed {
            "FAIL: B is worse than A"
        } else {
            "OK: B is no worse than A"
        }
    );
    Ok(!failed)
}
