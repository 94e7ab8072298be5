//! `swbft-bench`: see `README.md` and `swbft-bench --help`.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    swbft_bench::cli::main(&args)
}
