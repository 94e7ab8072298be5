//! `/BENCHMARK.json` says what the code measures: same workloads, same
//! metrics, same units, directions and bounds as the tables in `metrics.rs`.

use swbft_bench::json::Json;
use swbft_bench::metrics::{END_TO_END, PER_LAYER};
use swbft_bench::workloads::{Workload, WORKLOADS};

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn items(doc: &Json, key: &str) -> Vec<Json> {
    match doc.get(key) {
        Some(Json::Arr(items)) => items.clone(),
        other => panic!("'{key}' must be an array, got {other:?}"),
    }
}

fn text<'a>(item: &'a Json, key: &str) -> &'a str {
    item.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no string '{key}' in {item:?}"))
}

#[test]
fn manifest_matches_the_metric_tables() {
    let doc = manifest();
    let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(items(&doc, "paths"), [Json::str("benchmark")]);

    let workloads = items(&doc, "workloads");
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (item, (name, why)) in workloads.iter().zip(WORKLOADS) {
        assert_eq!(text(item, "name"), name);
        assert_eq!(text(item, "why"), why);
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "{name}: why is one line of <= 200 chars"
        );
        assert!(Workload::by_name(name).is_some(), "{name} is runnable");
    }

    let end_to_end = items(&doc, "end_to_end");
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (item, metric) in end_to_end.iter().zip(&END_TO_END) {
        assert_eq!(text(item, "name"), metric.name);
        assert_eq!(text(item, "unit"), metric.unit);
        assert_eq!(text(item, "better"), metric.better.name());
        assert_eq!(
            item.get("bound").and_then(Json::as_f64),
            Some(metric.bound),
            "{}",
            metric.name
        );
        assert!(metric.bound <= 0.25);
    }
    let setup = &END_TO_END[0];
    assert_eq!((setup.name, setup.unit), ("setup_s", "s"));
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );

    let per_layer = items(&doc, "per_layer");
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for (item, metric) in per_layer.iter().zip(&PER_LAYER) {
        assert_eq!(text(item, "name"), metric.name);
        assert_eq!(text(item, "unit"), metric.unit);
        assert_eq!(text(item, "better"), metric.better.name());
    }
}

#[test]
fn names_and_units_fit_the_contract() {
    let name_ok = |s: &str| {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |s: &str| {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
    names.extend(END_TO_END.iter().map(|m| m.name));
    names.extend(PER_LAYER.iter().map(|m| m.name));
    for name in &names {
        assert!(name_ok(name), "bad name '{name}'");
    }
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "every name is used once");
    for unit in END_TO_END
        .iter()
        .map(|m| m.unit)
        .chain(PER_LAYER.iter().map(|m| m.unit))
    {
        assert!(unit_ok(unit), "bad unit '{unit}'");
    }
}
