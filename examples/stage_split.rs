//! Where a simulated cycle's host time goes: the engine's stages, timed by
//! `torus_sim::StageTimer` on the four `sim_*` workloads of the benchmark
//! package (`benchmark/src/workloads.rs`, `SIM_SPECS`; copied here, not
//! imported, so the example builds without that package).
//!
//! Each workload is built as the benchmark builds it at `--seed 1`, stepped
//! through its warm-up untimed and then through its timed cycles under the
//! timer. The table gives microseconds per timed cycle for each stage, the
//! best of `--reps` repetitions, and `step` is the best repetition's sum.
//! Routing with VC allocation and switching with traversal run in one walk
//! over the busy routers, router by router, so they are reported together as
//! `route+switch`. The timer reads the clock six times a cycle, which the
//! unobserved engine does not pay. The last column is the FNV-1a digest of
//! the end-of-run report: at the default cycle counts it equals the digest
//! the benchmark prints for the workload at seed 1.
//!
//! ```text
//! cargo run --release --example stage_split
//!     [-- --cycles N] [-- --reps N]
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;
use swbft::core::RoutingChoice;
use swbft::faults::{FaultScenario, FaultSet, RegionShape};
use swbft::sim::{SimConfig, Simulation, Stage, StageTimer};
use swbft::topology::TopologySpec;
use torus_bench::{CliError, Command};

const SPLIT: Command = Command {
    usage: "usage: stage_split [--cycles N] [--reps N]\n\
            \x20 --cycles N  timed cycles of every workload (default: each workload's own)\n\
            \x20 --reps N    repetitions per workload; each stage reports its best (default: 5)",
    values: &["--cycles", "--reps"],
    switches: &[],
    operands: 0,
};

/// One `sim_*` workload, as the benchmark package declares it.
struct Workload {
    name: &'static str,
    topology: &'static str,
    routing: &'static str,
    virtual_channels: usize,
    message_length: u32,
    rate: f64,
    /// The Fig. 5 concave region (U-8), centred.
    faulted: bool,
    warmup_cycles: u64,
    timed_cycles: u64,
}

const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "sim_lowload",
        topology: "torus:8x3",
        routing: "adaptive",
        virtual_channels: 4,
        message_length: 32,
        rate: 0.001,
        faulted: false,
        warmup_cycles: 1_250,
        timed_cycles: 15_000,
    },
    Workload {
        name: "sim_oversat",
        topology: "torus:8x2",
        routing: "adaptive",
        virtual_channels: 4,
        message_length: 32,
        rate: 0.024,
        faulted: false,
        warmup_cycles: 1_250,
        timed_cycles: 15_000,
    },
    Workload {
        name: "sim_faulted",
        topology: "torus:8x2",
        routing: "det",
        virtual_channels: 4,
        message_length: 32,
        rate: 0.006,
        faulted: true,
        warmup_cycles: 1_250,
        timed_cycles: 50_000,
    },
    Workload {
        name: "sim_fattree",
        topology: "ft:4,3",
        routing: "updown",
        virtual_channels: 2,
        message_length: 32,
        rate: 0.005,
        faulted: false,
        warmup_cycles: 1_250,
        timed_cycles: 30_000,
    },
];

/// The benchmark's `--seed`.
const SEED: u64 = 1;

/// The benchmark's seed derivation (SplitMix64 finaliser).
fn mix_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed.wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a of `bytes`, the benchmark's digest.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One repetition of `w`: its stage timer over `cycles` timed cycles and the
/// digest of the report at the end.
fn repetition(w: &Workload, cycles: u64) -> Result<(StageTimer, u64), String> {
    let topology = TopologySpec::parse(w.topology)?;
    let faults = if w.faulted {
        let net = topology.build().map_err(|e| e.to_string())?;
        let grid = net.grid().ok_or("fault regions need a grid topology")?;
        FaultScenario::centered_region(grid, RegionShape::paper_u_8())
            .realize(&net, &mut StdRng::seed_from_u64(SEED))
            .map_err(|e| e.to_string())?
    } else {
        FaultSet::new()
    };
    let mut config =
        SimConfig::paper_topology(topology, w.virtual_channels, w.message_length, w.rate);
    config.seed = mix_seed(SEED, 1);
    let algo = RoutingChoice::parse(w.routing)?.algorithm();
    let timer = StageTimer::from_cycle(w.warmup_cycles);
    let mut sim =
        Simulation::with_observer(config, faults, algo, timer).map_err(|e| e.to_string())?;
    for _ in 0..w.warmup_cycles + cycles {
        sim.step();
    }
    let digest = fnv1a(format!("{:?}", sim.report()).as_bytes());
    Ok((sim.into_observer(), digest))
}

fn positive(flag: &'static str) -> impl Fn(&str) -> Result<u64, String> {
    move |s| {
        s.parse::<u64>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| format!("{flag} needs a positive integer, not '{s}'"))
    }
}

fn main() -> ExitCode {
    SPLIT.main(|args| {
        let cycles = args.parse("--cycles", positive("--cycles"))?;
        let reps = args.parse("--reps", positive("--reps"))?.unwrap_or(5);
        println!("µs per timed cycle, best of {reps} repetitions, seed {SEED}");
        print!("{:<12} {:>7}", "workload", "cycles");
        for stage in Stage::ALL {
            print!(" {:>16}", stage.label());
        }
        println!(" {:>8}  digest", "step");
        for w in &WORKLOADS {
            let cycles = cycles.unwrap_or(w.timed_cycles);
            let mut best = [f64::INFINITY; 5];
            let mut best_step = f64::INFINITY;
            let mut digest = 0;
            for _ in 0..reps {
                let (timer, d) = repetition(w, cycles).map_err(CliError::Input)?;
                let split = Stage::ALL.map(|stage| timer.micros_per_cycle(stage));
                for (best, us) in best.iter_mut().zip(split) {
                    *best = best.min(us);
                }
                best_step = best_step.min(split.iter().sum());
                digest = d;
            }
            print!("{:<12} {cycles:>7}", w.name);
            for us in best {
                print!(" {us:>16.3}");
            }
            println!(" {best_step:>8.3}  {digest:016x}");
        }
        Ok(())
    })
}
