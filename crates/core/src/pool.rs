//! Shared-cursor experiment pool.
//!
//! Every figure grid cell, ablation variant and saturation probe is an
//! independent fixed-seed simulation, so a whole figure suite is
//! embarrassingly parallel — the only requirements are that (a) the caller
//! controls the worker count (`--jobs N` on the binaries), and (b) results
//! come back **in input order** so parallel output is bit-identical to
//! sequential output at any thread count.
//!
//! Workers take the next unclaimed index from one shared atomic cursor, so an
//! idle worker always picks up the next item and the pool stays balanced to
//! within one item however unevenly the costs fall (a saturated 16-ary 2-cube
//! point runs ~100× longer than an unloaded 4-ary point). Items cost
//! milliseconds to seconds, so one `fetch_add` per item is all the scheduling
//! they need. Each worker keeps its `(index, result)` pairs; after the join
//! they are put back into input order, so the failure-tolerant collection
//! paths downstream observe the same sequence regardless of scheduling.

use std::num::NonZeroUsize;
use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Worker-thread count for a parallel sweep: a fixed count or the machine's
/// available parallelism. The default (`Auto`) uses every core.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Jobs {
    /// Use the machine's available parallelism.
    #[default]
    Auto,
    /// Use exactly this many worker threads.
    Count(NonZeroUsize),
}

impl Jobs {
    /// A fixed worker count of at least one (`count(0)` is clamped to 1, so
    /// CLI plumbing can stay total; use [`Jobs::parse`] to reject `0` with a
    /// message instead).
    pub fn count(n: usize) -> Jobs {
        Jobs::Count(NonZeroUsize::new(n.max(1)).expect("clamped to >= 1"))
    }

    /// Serial execution (`--jobs 1`).
    pub fn serial() -> Jobs {
        Jobs::count(1)
    }

    /// The concrete worker count this setting resolves to on this machine.
    pub fn effective(self) -> usize {
        match self {
            Jobs::Auto => thread::available_parallelism().map_or(1, NonZeroUsize::get),
            Jobs::Count(n) => n.get(),
        }
    }

    /// Parses a `--jobs` value: a positive integer or `auto`.
    pub fn parse(s: &str) -> Result<Jobs, String> {
        if s == "auto" {
            return Ok(Jobs::Auto);
        }
        s.parse::<usize>()
            .ok()
            .and_then(NonZeroUsize::new)
            .map(Jobs::Count)
            .ok_or_else(|| format!("jobs must be a positive integer or 'auto', got '{s}'"))
    }
}

impl std::fmt::Display for Jobs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Jobs::Auto => write!(f, "auto"),
            Jobs::Count(n) => write!(f, "{n}"),
        }
    }
}

/// Runs `work` over every item of `inputs` on a pool of `jobs` threads
/// sharing one cursor and returns the results in input order.
///
/// The closure must be deterministic per item; the output is then
/// bit-identical for every `jobs` value (including `Jobs::Auto` on any
/// machine), because results are reassembled by input index. The thread
/// count never exceeds the number of items, and one item (or one thread)
/// degenerates to a plain sequential map on the calling thread. A panic in
/// `work` reaches the caller with its own payload once every worker has
/// stopped.
pub fn run_pool<T, R, F>(inputs: Vec<T>, jobs: Jobs, work: F) -> Vec<R>
where
    T: Send + Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = jobs.effective().min(inputs.len());
    if threads <= 1 {
        return inputs.iter().map(&work).collect();
    }

    let cursor = AtomicUsize::new(0);
    let worker = || {
        let mut done = Vec::new();
        loop {
            let idx = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = inputs.get(idx) else {
                return done;
            };
            done.push((idx, work(item)));
        }
    };
    let mut pairs: Vec<(usize, R)> = thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
        handles
            .into_iter()
            .flat_map(|h| {
                h.join()
                    .unwrap_or_else(|payload| panic::resume_unwind(payload))
            })
            .collect()
    });
    pairs.sort_unstable_by_key(|&(idx, _)| idx);
    debug_assert!(
        pairs.iter().enumerate().all(|(i, &(idx, _))| i == idx),
        "every index is claimed exactly once"
    );
    pairs.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    #[test]
    fn jobs_parsing_and_display() {
        assert_eq!(Jobs::parse("auto"), Ok(Jobs::Auto));
        assert_eq!(Jobs::parse("4"), Ok(Jobs::count(4)));
        assert_eq!(Jobs::parse("1"), Ok(Jobs::serial()));
        assert!(Jobs::parse("0").is_err());
        assert!(Jobs::parse("-2").is_err());
        assert!(Jobs::parse("many").is_err());
        assert_eq!(Jobs::count(4).to_string(), "4");
        assert_eq!(Jobs::Auto.to_string(), "auto");
        assert_eq!(Jobs::default(), Jobs::Auto);
    }

    #[test]
    fn jobs_effective_counts() {
        assert_eq!(Jobs::serial().effective(), 1);
        assert_eq!(Jobs::count(7).effective(), 7);
        assert_eq!(Jobs::count(0).effective(), 1, "count(0) clamps to serial");
        assert!(Jobs::Auto.effective() >= 1);
    }

    #[test]
    fn results_come_back_in_input_order() {
        let inputs: Vec<u64> = (0..500).collect();
        for jobs in [Jobs::serial(), Jobs::count(2), Jobs::count(7), Jobs::Auto] {
            let out = run_pool(inputs.clone(), jobs, |&x| x * x);
            assert_eq!(out, inputs.iter().map(|x| x * x).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let out: Vec<u32> = run_pool(Vec::<u32>::new(), Jobs::count(8), |&x| x);
        assert!(out.is_empty());
        let out = run_pool(vec![41u32], Jobs::count(8), |&x| x + 1);
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn every_item_processed_exactly_once_under_skewed_costs() {
        // Skewed costs keep some workers on the slow front items while the
        // others take the rest; every index must still be claimed exactly
        // once.
        let claimed = Mutex::new(HashSet::new());
        let inputs: Vec<usize> = (0..257).collect();
        let out = run_pool(inputs, Jobs::count(4), |&x| {
            if x < 16 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            assert!(claimed.lock().unwrap().insert(x), "index {x} ran twice");
            x
        });
        assert_eq!(out.len(), 257);
        assert_eq!(claimed.lock().unwrap().len(), 257);
    }

    #[test]
    fn more_jobs_than_items_is_fine() {
        let counter = AtomicUsize::new(0);
        let out = run_pool(vec![1u32, 2, 3], Jobs::count(64), |&x| {
            counter.fetch_add(1, Ordering::Relaxed);
            x * 10
        });
        assert_eq!(out, vec![10, 20, 30]);
        assert_eq!(counter.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn parallel_matches_sequential_for_seeded_work() {
        // Each item owns its seed, so any jobs value must be bit-identical to
        // the sequential map — the invariant the figure digests pin.
        let inputs: Vec<u64> = (0..48).collect();
        let f = |&seed: &u64| {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            (0..200).map(|_| rng.gen_range(0..1000u32)).sum::<u32>()
        };
        let sequential: Vec<u32> = inputs.iter().map(f).collect();
        for jobs in [Jobs::serial(), Jobs::count(3), Jobs::count(16)] {
            assert_eq!(run_pool(inputs.clone(), jobs, f), sequential);
        }
    }

    #[test]
    #[should_panic(expected = "item 13 failed")]
    fn a_worker_panic_reaches_the_caller_with_its_payload() {
        let inputs: Vec<u32> = (0..40).collect();
        run_pool(inputs, Jobs::count(4), |&x| {
            assert_ne!(x, 13, "item {x} failed");
            x
        });
    }
}
