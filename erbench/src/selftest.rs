//! The benchmark's own tests: metric names against `BENCHMARK.json`,
//! every output check on small corpora, cache counter sums, and blocking
//! quality on a hand-built table. Run with
//! `cargo test --release --manifest-path erbench/Cargo.toml`.

use crate::nntrace::NnTrace;
use crate::probe::{gold_pairs, BlockingQuality};
use crate::workloads::Outcome;
use crate::{run, Args, END_TO_END};
use hiergat_blocking::Candidate;
use hiergat_runtime::HierGatPairwise;
use std::path::PathBuf;

const WORKLOADS: [&str; 3] = ["resolve_corpus", "resolve_band", "score_repeat"];

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The metric names of one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let json =
        std::fs::read_to_string(manifest_dir().join("../BENCHMARK.json")).expect("BENCHMARK.json");
    let start = json.find(&format!("\"{section}\"")).expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_string())
        .collect()
}

/// A small, fast run: 5% of the workload sizes (never under 300 records).
fn small_run(workload: &str, trace: bool) -> Outcome {
    let args = Args {
        workload: workload.into(),
        seed: 3,
        seconds: 0.0,
        trace,
        model: manifest_dir().join("model"),
        spans: Some(std::env::temp_dir().join(format!("erbench-selftest-{workload}.json"))),
        scale: 0.05,
    };
    run(&args).expect("workload runs")
}

fn assert_clean(workload: &str, out: &Outcome) {
    for (name, ok) in &out.checks {
        assert!(ok, "{workload}: check failed: {name}");
    }
    assert_eq!(out.failed, 0, "{workload}");
    assert!(out.attempted > 0, "{workload}");
}

fn metric(out: &Outcome, name: &str) -> f64 {
    out.metrics.iter().find(|m| m.0 == name).unwrap_or_else(|| panic!("metric {name}")).1
}

#[test]
fn end_to_end_names_match_benchmark_json() {
    assert_eq!(declared("end_to_end"), END_TO_END);
    for w in WORKLOADS {
        let out = small_run(w, false);
        assert_clean(w, &out);
        for (name, value, _) in &out.metrics {
            assert!(*value > 0.0, "{w}: end-to-end metric {name} must be positive");
        }
    }
}

/// Every traced run passes its checks — among them hits + misses =
/// lookups for both caches, the `nn` trace matching the session bitwise,
/// and render calls = 2n + 2 * model-scored pairs — and reports exactly
/// the declared per-layer metrics.
#[test]
fn traced_runs_pass_their_checks_and_report_every_layer() {
    let mut want = declared("per_layer");
    want.sort();
    for w in WORKLOADS {
        let out = small_run(w, true);
        assert_clean(w, &out);
        let mut got: Vec<String> = out.metrics.iter().map(|m| m.0.to_string()).collect();
        got.sort();
        assert_eq!(got, want, "{w}");
        assert_eq!(metric(&out, "nn.trace_valid"), 1.0, "{w}");
        match w {
            "resolve_corpus" => {
                assert_eq!(metric(&out, "runtime.model_scored"), 0.0);
                assert_eq!(metric(&out, "data.render_calls_per_record"), 2.0);
            }
            "resolve_band" => assert!(metric(&out, "runtime.model_scored") > 0.0),
            _ => assert!(metric(&out, "nn.plan_cache_hit_rate") >= 0.95),
        }
    }
}

#[test]
fn nn_trace_cache_counters_add_up_and_warm_pass_hits() {
    let model = HierGatPairwise(hiergat::load_model(manifest_dir().join("model")).expect("model"));
    let c = crate::common::corpus(600, 5);
    let pairs: Vec<_> =
        (0..8).map(|i| crate::common::labelled_pair(&c, (3 * i, 3 * i + 1))).collect();
    let mut nn = NnTrace::new();
    let calls = [&pairs[..]];
    let (cold_scores, cold) = nn.run(&model, &calls);
    let (warm_scores, warm) = nn.run(&model, &calls);
    for st in [&cold, &warm] {
        assert!(st.counters_consistent(), "{st:?}");
        assert_eq!(st.opt_calls, 8);
    }
    assert!(cold.plan_misses > 0);
    assert_eq!(warm.plan_hits, 8);
    assert_eq!(warm.opt_hits, 8);
    assert_eq!(cold_scores, warm_scores);
}

/// Records 0-2 are one entity, 3-4 another, 5 a singleton: 4 gold pairs.
#[test]
fn pair_completeness_and_quality_on_a_hand_built_table() {
    let gold = [0, 0, 0, 3, 3, 5];
    assert_eq!(gold_pairs(&gold), 4);
    let mut q = BlockingQuality::new(&gold, 0.8);
    let cand = |id, score| Candidate { id, score };
    // Query 0 finds 1 (match, accepted) and 3 (non-match, accepted);
    // query 1 finds 0 again (same pair) and 2 (match, below accept);
    // query 4 finds 3 (match, accepted) and itself (ignored).
    for (query, c) in [
        (0, cand(1, 0.9)),
        (0, cand(3, 0.85)),
        (1, cand(0, 0.9)),
        (1, cand(2, 0.5)),
        (4, cand(3, 0.95)),
        (4, cand(4, 1.0)),
    ] {
        q.observe(query, &c);
    }
    // Distinct pairs {0,1} {0,3} {1,2} {3,4}; matches {0,1} {1,2} {3,4}.
    assert!((q.pair_completeness() - 3.0 / 4.0).abs() < 1e-12);
    assert!((q.pair_quality() - 3.0 / 4.0).abs() < 1e-12);
    // Accepted {0,1} {0,3} {3,4}: two of three are matches.
    assert!((q.accept_precision() - 2.0 / 3.0).abs() < 1e-12);
}
