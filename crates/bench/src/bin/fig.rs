//! Regenerates one of Figs. 3–7 of Safaei et al. (IPDPS 2006), by default on
//! the paper's torus; `--topology`/`--routing` regenerate it on meshes,
//! hypercubes, mixed shapes or fat-trees under any routing algorithm.
//!
//! `cargo run -p torus-bench --release --bin fig -- fig3 [--scale paper]
//! [--csv fig3.csv] [--topology mesh:8x2] [--routing turnmodel] [--jobs 8]`
//! — `--jobs` fans the figure's points over N worker threads (default: all
//! cores); output is bit-identical for any value.

use std::process::ExitCode;
use swbft_core::Figure;
use torus_bench::{CliError, Command};

const FIG: Command = Command {
    usage: "usage: fig <fig3|fig4|fig5|fig6|fig7> [--scale smoke|quick|paper] [--csv <path>] \
            [--topology <spec>] \
            [--routing det|adaptive|turnmodel|turnmodel-det|updown|updown-det] \
            [--jobs N|auto]\n\
            topology specs: torus:8x2, mesh:8x2, hypercube:6 (or hc:6), mixed:8,8,4o (or 8x8x4o), \
            fattree:4,2 (or ft:4,2)\n\
            --jobs fans the figure's points over N worker threads (default: all \
            cores); results are bit-identical for any value",
    values: &["--scale", "--csv", "--topology", "--routing", "--jobs"],
    switches: &[],
    operands: 1,
};

fn main() -> ExitCode {
    FIG.main(|args| {
        let [id] = args.operands() else {
            return Err(CliError::Usage("missing figure (fig3..fig7)".into()));
        };
        let figure = Figure::from_id(id)
            .ok_or_else(|| CliError::Usage(format!("unknown argument '{id}'")))?;
        let failed = |e: String| CliError::Input(format!("{id}: {e}"));
        let result = figure
            .run_with(&args.figure_options()?)
            .map_err(|e| failed(e.to_string()))?;
        if let Some(path) = args.value("--csv") {
            std::fs::write(path, result.to_csv())
                .map_err(|e| failed(format!("failed to write CSV to {path}: {e}")))?;
        }
        println!("{}", result.render_text());
        Ok(())
    })
}
