//! Regenerates one of Figs. 3–7 of Safaei et al. (IPDPS 2006), by default on
//! the paper's torus; `--topology`/`--routing` regenerate it on meshes,
//! hypercubes, mixed shapes or fat-trees under any routing algorithm.
//!
//! `cargo run -p torus-bench --release --bin fig -- fig3 [--scale paper]
//! [--csv fig3.csv] [--topology mesh:8x2] [--routing turnmodel] [--jobs 8]`
//! — `--jobs` fans the figure's points over N worker threads (default: all
//! cores); output is bit-identical for any value.

use torus_bench::{parse_figure_args, run_figure, usage, FigureCommand};

fn main() {
    match parse_figure_args(std::env::args().skip(1)) {
        Ok(FigureCommand::Help) => println!("{}", usage()),
        Ok(FigureCommand::Run(figure, opts)) => match run_figure(figure, &opts) {
            Ok(text) => println!("{text}"),
            Err(e) => {
                eprintln!("{}: {e}", figure.id());
                std::process::exit(1);
            }
        },
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    }
}
