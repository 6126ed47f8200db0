//! `BENCHMARK.json` at the repository root names exactly the workloads
//! and metrics this benchmark reports.

use qac_perfbench::{Workload, END_TO_END, PER_LAYER};
use qac_telemetry::json::{parse, Json};

fn benchmark() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json exists");
    parse(&text).expect("BENCHMARK.json parses")
}

fn names_and_units(list: &Json) -> Vec<(String, String)> {
    list.as_array()
        .expect("a list")
        .iter()
        .map(|m| {
            let field = |key| m.get(key).and_then(Json::as_str).expect(key).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn expected(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn metrics_match_the_tables() {
    let json = benchmark();
    let end_to_end = json.get("end_to_end").expect("end_to_end");
    assert_eq!(names_and_units(end_to_end), expected(&END_TO_END));
    let per_layer = json.get("per_layer").expect("per_layer");
    assert_eq!(names_and_units(per_layer), expected(&PER_LAYER));
}

#[test]
fn workloads_match() {
    let json = benchmark();
    let names: Vec<&str> = json
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
}
