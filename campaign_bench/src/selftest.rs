//! Self-tests of the benchmark at a tiny size: the metric names and units
//! match `BENCHMARK.json`, the output check catches a corrupted rerun,
//! and a served campaign reproduces the library's artifact.
//!
//! Run with `cargo test --release --manifest-path campaign_bench/Cargo.toml`.

use std::path::{Path, PathBuf};

use pgss_serve::json;

use crate::campaigns::{check, check_rerun, iterate, Workload};
use crate::grid::{Grid, Kind};
use crate::sys::ScratchDir;
use crate::{run, Args, Profile};

/// One short program, two or three techniques, one iteration.
fn tiny() -> Profile {
    Profile {
        sample_suite: vec!["300.twolf"],
        sample_kinds: vec![Kind::Smarts, Kind::Pgss],
        checkpoint_suite: vec!["300.twolf"],
        checkpoint_kinds: vec![Kind::Smarts, Kind::TurboSmarts, Kind::Pgss],
        probe_suite: vec!["300.twolf"],
        min_iters: 1,
    }
}

fn scratch(name: &str) -> ScratchDir {
    ScratchDir::new(Path::new(".bench_runs"), name).expect("create a test scratch dir")
}

/// `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(json::Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(json::Value::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_named_metric_is_printed_with_its_unit() {
    let dir = scratch("test-metrics");
    for workload in [Workload::Sample, Workload::Checkpointed, Workload::Serve] {
        for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
            let args = Args {
                workload,
                seed: 3,
                seconds: 0.0,
                trace,
            };
            let out = run(&args, &tiny(), dir.path()).expect("tiny run");
            assert!(out.correct, "{workload:?}: {:?}", out.problems);
            let printed: Vec<(String, String)> = out
                .metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_string()))
                .collect();
            assert_eq!(printed, declared(list), "{workload:?} trace={trace}");

            let line = json::parse(&out.json()).expect("the result line is JSON");
            let json::Value::Obj(keys) = &line else {
                panic!("the result line is an object")
            };
            let keys: Vec<&str> = keys.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert!(out.attempted >= 1 && out.failed == 0);
        }
    }
}

#[test]
fn ground_truth_matches_full_detailed() {
    let w = pgss_workloads::twolf(crate::grid::SCALE);
    let truth = crate::full_detailed(&w, &pgss::SimContext::none());
    let oracle = pgss::FullDetailed::new().ground_truth(&w);
    assert_eq!((truth.ipc, truth.ops), (oracle.ipc, oracle.total_ops));
}

#[test]
fn output_check_fails_on_a_corrupted_rerun() {
    let dir = scratch("test-corrupt");
    let profile = tiny();
    let grid = Grid::generate(
        5,
        &profile.checkpoint_suite,
        &profile.checkpoint_kinds,
        false,
    );
    let mut it = iterate(Workload::Checkpointed, &grid, dir.path()).expect("iteration");
    assert!(check(&grid, &it).is_empty());

    // Change one digit of one estimate in the rerun's artifact.
    let at = it.rerun_canonical.find("\"ipc\":").expect("a cell line") + 7;
    let mut bytes = it.rerun_canonical.clone().into_bytes();
    bytes[at] = if bytes[at] == b'1' { b'2' } else { b'1' };
    it.rerun_canonical = String::from_utf8(bytes).expect("still UTF-8");
    assert!(check_rerun(&it.canonical, &it.rerun_canonical).is_err());
    let problems = check(&grid, &it);
    assert_eq!(problems.len(), 1, "{problems:?}");

    // A dropped cell fails the completeness check too.
    let mut short = it.canonical.lines().collect::<Vec<_>>();
    let cell = short
        .iter()
        .position(|l| l.contains("\"kind\":\"cell\""))
        .expect("a cell");
    short.remove(cell);
    it.canonical = short.join("\n");
    assert!(!check(&grid, &it).is_empty());
}

#[test]
fn serve_report_equals_library_artifact() {
    let dir = scratch("test-serve");
    let profile = tiny();
    let grid = Grid::generate(
        7,
        &profile.checkpoint_suite,
        &profile.checkpoint_kinds,
        false,
    );
    let library = iterate(Workload::Checkpointed, &grid, dir.path()).expect("library");
    let served = iterate(Workload::Serve, &grid, dir.path()).expect("server");
    assert!(check(&grid, &served).is_empty());
    assert_eq!(served.canonical, library.canonical);
    assert!(!dir.path().join("store").exists() && !dir.path().join("serve").exists());
}
