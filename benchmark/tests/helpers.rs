//! Percentile/median helpers, the JSON reader/writer, the argument parser and
//! `compare`'s verdict rule against hand-computed cases.

use swbft_bench::cli::Options;
use swbft_bench::compare::{compare, judge, Verdict};
use swbft_bench::json::Json;
use swbft_bench::metrics::END_TO_END;
use swbft_bench::stats::{median, percentile, Summary};

#[test]
fn percentiles_match_hand_computed_vectors() {
    // Odd count: the middle sample. Even count: mean of the two middle ones.
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[7.0]), 7.0);
    assert_eq!(median(&[]), 0.0);
    // rank = p * (n - 1), linear interpolation: ten samples 10..=100.
    let tens: Vec<f64> = (1..=10).map(|i| f64::from(i) * 10.0).collect();
    assert_eq!(percentile(&tens, 0.0), 10.0);
    assert_eq!(percentile(&tens, 1.0), 100.0);
    assert!((percentile(&tens, 0.90) - 91.0).abs() < 1e-9); // rank 8.1
    assert!((percentile(&tens, 0.95) - 95.5).abs() < 1e-9); // rank 8.55
    assert!((percentile(&tens, 0.25) - 32.5).abs() < 1e-9); // rank 2.25
                                                            // Order of the input does not matter; out-of-range p is clamped.
    assert_eq!(percentile(&[5.0, 1.0, 9.0], 0.5), 5.0);
    assert_eq!(percentile(&[5.0, 1.0, 9.0], 7.0), 9.0);
}

#[test]
fn summary_reports_median_extremes_and_count() {
    let s = Summary::of(&[1.5, 0.5, 2.5, 9.5]);
    assert_eq!(
        s,
        Summary {
            median: 2.0,
            min: 0.5,
            max: 9.5,
            n: 4
        }
    );
    assert_eq!(
        Summary::of(&[]),
        Summary {
            median: 0.0,
            min: 0.0,
            max: 0.0,
            n: 0
        }
    );
    assert_eq!(
        Summary::exact(3.25),
        Summary {
            median: 3.25,
            min: 3.25,
            max: 3.25,
            n: 1
        }
    );
}

#[test]
fn json_round_trips_bit_for_bit() {
    let doc = Json::obj([
        ("text", Json::str("a \"quoted\" \\ line\nbreak \u{1} é")),
        ("count", Json::Num(3_079_566.0)),
        ("time", Json::Num(1.0 / 3.0)),
        ("tiny", Json::Num(1.4e-5)),
        ("negative", Json::Num(-0.006_216)),
        ("flag", Json::Bool(true)),
        ("nothing", Json::Null),
        (
            "list",
            Json::Arr(vec![Json::Num(1.0), Json::obj([("k", Json::Arr(vec![]))])]),
        ),
        ("empty", Json::Obj(vec![])),
    ]);
    assert_eq!(Json::parse(&doc.to_line()).unwrap(), doc);
    assert_eq!(Json::parse(&doc.to_pretty()).unwrap(), doc);
    assert!(!doc.to_line().contains('\n'));
    assert_eq!(Json::Num(25038.0).to_line(), "25038");
    assert_eq!(doc.get("count").and_then(Json::as_f64), Some(3_079_566.0));
    assert_eq!(doc.get("flag"), Some(&Json::Bool(true)));
    assert!(doc.get("missing").is_none());
    for bad in ["", "{", "[1,]", "{\"a\" 1}", "tru", "1 2", "\"open"] {
        assert!(Json::parse(bad).is_err(), "'{bad}' must not parse");
    }
}

#[test]
fn arguments_parse_as_the_driver_passes_them() {
    let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let o = Options::parse(&args(
        "--workload sim_oversat --seed 42 --seconds 10 --trace 0",
    ))
    .unwrap();
    assert_eq!(o.workload.as_deref(), Some("sim_oversat"));
    assert_eq!(
        (o.seed, o.seconds, o.trace, o.smoke),
        (42, 10.0, false, false)
    );
    assert!(
        Options::parse(&args("--workload x --trace 1"))
            .unwrap()
            .trace
    );
    // Bare `--trace` (no 0|1) switches tracing on and eats nothing.
    let o = Options::parse(&args("--trace --smoke --seed 18446744073709551615")).unwrap();
    assert!(o.trace && o.smoke && o.workload.is_none());
    assert_eq!(o.seed, u64::MAX);
    for bad in [
        "--seed",
        "--seed x",
        "--seconds 0",
        "--seconds -1",
        "--seconds nan",
        "--bogus",
    ] {
        assert!(
            Options::parse(&args(bad)).is_err(),
            "'{bad}' must be rejected"
        );
    }
}

fn runs(median: f64, min: f64, max: f64) -> Summary {
    Summary {
        median,
        min,
        max,
        n: 5,
    }
}

#[test]
fn verdicts_follow_the_bounds() {
    let wall = END_TO_END.iter().find(|m| m.name == "wall_s").unwrap(); // lower, 25 %
    let rate = END_TO_END.iter().find(|m| m.name == "work_per_s").unwrap(); // higher, 25 %
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap(); // lower, 25 % + 0.02 s
    let a = runs(1.00, 0.99, 1.02);
    assert_eq!(judge(wall, &a, &runs(1.05, 1.04, 1.06)), Verdict::Same);
    assert_eq!(judge(wall, &a, &runs(0.95, 0.94, 0.96)), Verdict::Same);
    assert_eq!(judge(wall, &a, &runs(1.40, 1.39, 1.41)), Verdict::Worse);
    assert_eq!(judge(wall, &a, &runs(0.60, 0.59, 0.61)), Verdict::Better);
    // Direction flips for a higher-is-better metric.
    assert_eq!(judge(rate, &a, &runs(1.40, 1.39, 1.41)), Verdict::Better);
    assert_eq!(judge(rate, &a, &runs(0.60, 0.59, 0.61)), Verdict::Worse);
    // A's own runs spread wider than the bound and the two sides overlap.
    let noisy = runs(1.00, 0.90, 1.30);
    assert_eq!(
        judge(wall, &noisy, &runs(1.40, 1.25, 1.45)),
        Verdict::Unresolved
    );
    // ... but disjoint runs resolve even when A is noisy.
    assert_eq!(judge(wall, &noisy, &runs(1.50, 1.40, 1.60)), Verdict::Worse);
    // The absolute slack: a 1 ms set-up may triple without counting.
    let tiny = runs(0.001, 0.001, 0.001);
    assert_eq!(
        judge(setup, &tiny, &runs(0.003, 0.003, 0.003)),
        Verdict::Same
    );
    assert_eq!(
        judge(setup, &runs(1.0, 1.0, 1.0), &runs(1.3, 1.3, 1.3)),
        Verdict::Worse
    );
    assert!(Verdict::Worse.fails() && Verdict::Differs.fails());
    assert!(!Verdict::Unresolved.fails() && !Verdict::Better.fails() && !Verdict::Same.fails());
}

fn result_set(seed: &str, wall: f64, latency: f64, digest: &str, route_calls: f64) -> Json {
    let summary = |v: f64| {
        Json::obj([
            ("unit", Json::str("x")),
            ("median", Json::Num(v)),
            ("min", Json::Num(v * 0.99)),
            ("max", Json::Num(v * 1.01)),
            ("n", Json::Num(5.0)),
        ])
    };
    let end_to_end = Json::obj(END_TO_END.iter().map(|m| {
        let value = match m.name {
            "wall_s" => wall,
            "work_per_s" => 1000.0 / wall,
            _ => 1.0,
        };
        (m.name, summary(value))
    }));
    let simulated = Json::obj([(
        "sim_latency_cycles",
        Json::obj([("value", Json::Num(latency)), ("unit", Json::str("cycles"))]),
    )]);
    let per_layer = Json::obj([(
        "routing.route_calls",
        Json::obj([
            ("value", Json::Num(route_calls)),
            ("unit", Json::str("count")),
        ]),
    )]);
    let section = Json::obj([
        ("sizes", Json::obj([("timed_cycles", Json::Num(750.0))])),
        ("failed", Json::Num(0.0)),
        ("digest", Json::str(digest)),
        ("end_to_end", end_to_end),
        ("simulated", simulated),
        ("per_layer", per_layer),
    ]);
    Json::obj([
        (
            "stamp",
            Json::obj([("seed", Json::str(seed)), ("smoke", Json::Bool(true))]),
        ),
        ("workloads", Json::obj([("sim_lowload", section)])),
    ])
}

#[test]
fn compare_judges_whole_result_sets() {
    let a = result_set("1", 1.0, 42.25, "abc", 54_425.0);
    let (table, failed) = compare(&a, &a).unwrap();
    assert!(!failed, "{table}");
    assert!(table.contains("sim_lowload") && table.contains("wall_s") && table.contains("same"));

    // Host time within the bound, simulated statistics identical: no failure.
    let (_, failed) = compare(&a, &result_set("1", 1.05, 42.25, "abc", 54_425.0)).unwrap();
    assert!(!failed);
    // Slower than the bound.
    let (table, failed) = compare(&a, &result_set("1", 1.4, 42.25, "abc", 54_425.0)).unwrap();
    assert!(failed && table.contains("worse"), "{table}");
    // An exact metric, the digest or an exact count moved on the same seed.
    for b in [
        result_set("1", 1.0, 42.26, "abc", 54_425.0),
        result_set("1", 1.0, 42.25, "abd", 54_425.0),
        result_set("1", 1.0, 42.25, "abc", 54_426.0),
    ] {
        let (table, failed) = compare(&a, &b).unwrap();
        assert!(failed && table.contains("DIFFERS"), "{table}");
    }
    // A different seed: exact metrics are not comparable and are skipped.
    let (table, failed) = compare(&a, &result_set("2", 1.0, 50.0, "xyz", 60_000.0)).unwrap();
    assert!(!failed && table.contains("different inputs"), "{table}");
    // A missing workload is an error, not a pass.
    let empty = Json::obj([
        ("stamp", Json::Obj(vec![])),
        ("workloads", Json::Obj(vec![])),
    ]);
    assert!(compare(&a, &empty).is_err());
}
