//! The result line carries exactly the metrics `BENCHMARK.json` lists, in
//! its order, so a renamed or dropped metric fails here rather than in a
//! run.

use tvnep_perfbench::report::{END_TO_END, PER_LAYER};
use tvnep_telemetry::Json;

fn names(manifest: &Json, key: &str) -> Vec<String> {
    manifest
        .get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("a {key} entry has no name"))
                .to_string()
        })
        .collect()
}

#[test]
fn result_metrics_match_the_manifest() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let manifest = Json::parse(&text).expect("BENCHMARK.json parses");
    assert_eq!(names(&manifest, "end_to_end"), END_TO_END);
    assert_eq!(names(&manifest, "per_layer"), PER_LAYER);
}
