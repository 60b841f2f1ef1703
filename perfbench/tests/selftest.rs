//! Benchmark self-test: a small run of every workload prints every metric
//! of `BENCHMARK.json` with its unit, passes its output checks on the
//! default and the held-out seed, and counts a deliberately wrong
//! reference as a failure instead of ignoring it.

use std::process::Command;

const WORKLOADS: [&str; 4] = ["sim_paper", "sweep_paper", "serve_light", "serve_saturated"];
/// The workloads `BENCHMARK.json` leaves out, and the per-layer metrics
/// only they move, which their traced runs print after the declared ones.
const UNGATED: [&str; 2] = ["sweep_paper", "serve_light"];
const UNGATED_LAYERS: [(&str, &str); 7] = [
    ("exec.trace_capture_s", "s"),
    ("exec.trace_captures", "count"),
    ("core.hash_s", "s"),
    ("core.replay_s", "s"),
    ("core.live_s", "s"),
    ("serve.round_busy_frac", "ratio"),
    ("serve.offered_shortfall", "ratio"),
];
/// The default seed and the held-out seed (see README.md).
const SEEDS: [u64; 2] = [1, 0x5EED_2024];

const SPEC: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let start = SPEC
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &SPEC[start..];
    let body = &body[..body.find(']').expect("section ends")];
    body.split("{\"name\": \"")
        .skip(1)
        .map(|entry| {
            let (name, rest) = entry.split_once('"').expect("name");
            let unit = rest
                .split_once("\"unit\": \"")
                .and_then(|(_, u)| u.split_once('"'))
                .expect("unit")
                .0;
            (name.to_string(), unit.to_string())
        })
        .collect()
}

struct Outcome {
    result: String,
    correct: bool,
    failed: u64,
}

fn run(workload: &str, seed: u64, trace: bool, flip: bool) -> Outcome {
    let mut command = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    command.args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        "1",
    ]);
    command.args(["--trace", if trace { "1" } else { "0" }, "--small"]);
    if flip {
        command.arg("--flip-reference");
    }
    let output = command.output().expect("the benchmark runs");
    assert!(output.status.success(), "{workload}: {output:?}");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let result = stdout.lines().last().expect("a result line").to_string();
    assert!(result.starts_with("{\"correct\": "), "{workload}: {result}");
    let field = |key: &str| -> String {
        let at = result.find(&format!("\"{key}\": ")).expect(key) + key.len() + 4;
        result[at..]
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric())
            .collect()
    };
    assert!(field("attempted").parse::<u64>().expect("attempted") >= 1);
    Outcome {
        correct: field("correct") == "true",
        failed: field("failed").parse().expect("failed count"),
        result,
    }
}

fn assert_prints(result: &str, metrics: &[(String, String)], workload: &str) {
    assert_eq!(
        result.matches("\"value\": ").count(),
        metrics.len(),
        "{workload} prints exactly the declared metrics: {result}"
    );
    for (name, unit) in metrics {
        let at = result
            .find(&format!("\"{name}\": {{\"value\": "))
            .unwrap_or_else(|| panic!("{workload} does not print {name}: {result}"));
        let entry = &result[at..];
        let entry = &entry[..entry.find('}').expect("entry ends")];
        assert!(
            entry.ends_with(&format!("\"unit\": \"{unit}\"")),
            "{workload}: {name} is not in {unit}: {entry}"
        );
    }
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let (end_to_end, per_layer) = (declared("end_to_end"), declared("per_layer"));
    assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    for workload in WORKLOADS {
        let gated = !UNGATED.contains(&workload);
        assert_eq!(
            SPEC.contains(&format!("{{\"name\": \"{workload}\"")),
            gated,
            "{workload}: BENCHMARK.json lists exactly the gated workloads"
        );
        let untraced = run(workload, SEEDS[0], false, false);
        assert!(untraced.correct, "{workload}: {}", untraced.result);
        assert_prints(&untraced.result, &end_to_end, workload);
        let traced = run(workload, SEEDS[0], true, false);
        assert!(traced.correct, "{workload} traced: {}", traced.result);
        let mut layers = per_layer.clone();
        if !gated {
            layers.extend(UNGATED_LAYERS.map(|(n, u)| (n.to_string(), u.to_string())));
        }
        assert_prints(&traced.result, &layers, workload);
    }
}

#[test]
fn output_checks_pass_on_the_held_out_seed() {
    for workload in WORKLOADS {
        let outcome = run(workload, SEEDS[1], false, false);
        assert!(outcome.correct, "{workload}: {}", outcome.result);
        assert_eq!(outcome.failed, 0);
    }
}

#[test]
fn a_wrong_reference_counts_as_a_failure() {
    for workload in WORKLOADS {
        let outcome = run(workload, SEEDS[0], false, true);
        assert!(!outcome.correct, "{workload}: {}", outcome.result);
        assert!(outcome.failed >= 1, "{workload}: {}", outcome.result);
    }
}
