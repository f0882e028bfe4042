//! Runs every workload path once on the small `b09` circuit and checks the
//! result line against `BENCHMARK.json`, and that the output checks fail
//! the run when a job's output is corrupted.

use std::process::{Command, Output};

use pdf_telemetry::Json;

const WORKLOADS: [&str; 3] = ["enrich", "enrich-2t", "grade"];

fn run(args: &[&str], env: &[(&str, &str)]) -> Output {
    let out_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.args(args)
        .args(["--seed", "7", "--seconds", "0"])
        .arg("--out-dir")
        .arg(&out_dir);
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output().expect("the benchmark binary runs")
}

fn last_line(out: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().expect("a result line");
    Json::parse(line).unwrap_or_else(|e| panic!("result line is not JSON ({e:?}): {line}"))
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Json::as_arr)
        .expect("a metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

fn assert_metrics(result: &Json, section: &str) {
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("no metrics object in {result:?}");
    };
    let declared = declared(section);
    assert_eq!(metrics.len(), declared.len(), "{section}: metric count");
    for (name, unit) in declared {
        let m = result
            .get("metrics")
            .and_then(|ms| ms.get(&name))
            .unwrap_or_else(|| panic!("{section} metric {name} missing"));
        assert!(
            m.get("value").and_then(Json::as_num).is_some(),
            "{name} value"
        );
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{name} unit"
        );
    }
}

#[test]
fn every_workload_reports_every_declared_metric() {
    for workload in WORKLOADS {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = run(
                &["--scale", "smoke", "--workload", workload, "--trace", trace],
                &[],
            );
            assert!(
                out.status.success(),
                "{workload} trace {trace}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let result = last_line(&out);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(result.get("failed").and_then(Json::as_num), Some(0.0));
            assert_metrics(&result, section);
        }
    }
}

#[test]
fn a_corrupted_output_fails_the_checks_and_the_run() {
    for workload in WORKLOADS {
        let out = run(
            &[
                "--scale",
                "smoke",
                "--workload",
                workload,
                "--trace",
                "0",
                "--corrupt",
            ],
            &[],
        );
        assert_eq!(out.status.code(), Some(1), "{workload} must exit 1");
        let result = last_line(&out);
        assert_eq!(result.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(result.get("failed").and_then(Json::as_num), Some(1.0));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("check failed"), "{workload}: {stderr}");
    }
}

#[test]
fn stray_program_variables_are_cleared() {
    // Both would abort or alter the run if the program saw them.
    let out = run(
        &["--scale", "smoke", "--workload", "grade", "--trace", "0"],
        &[("PDF_SIM_THREADS", "bogus"), ("PDF_FAILPOINTS", "bogus")],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let context = Json::parse(stdout.lines().next().unwrap()).unwrap();
    let cleared: Vec<&str> = context
        .get("context")
        .and_then(|c| c.get("env_cleared"))
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert!(cleared.contains(&"PDF_SIM_THREADS") && cleared.contains(&"PDF_FAILPOINTS"));
}

#[test]
fn a_circuit_without_a_second_target_set_is_refused() {
    // Circuit seed 4 of the s9234* profile puts every fault in P0.
    let out = run(
        &[
            "--workload",
            "enrich",
            "--trace",
            "0",
            "--circuit-seed",
            "4",
        ],
        &[],
    );
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("|P1| = 0"));
}
