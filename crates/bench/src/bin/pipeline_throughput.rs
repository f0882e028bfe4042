//! Measures test-generation wall-clock time on the largest bundled
//! stand-in and writes the result to `BENCH_pipeline.json`.
//!
//! The figure of merit is the end-to-end enrichment-generation time over
//! one fault population. The report also records the auto-selected
//! packed tile width alongside a per-width coverage timing of the
//! generated test set, so the width calibration is auditable from the
//! same artifact.
//! Run with `--release` (ideally `RUSTFLAGS="-C target-cpu=native"`);
//! circuit and workload can be overridden via `PDF_BENCH_CIRCUIT`,
//! `PDF_BENCH_NP`, `PDF_BENCH_NP0`.

use std::time::Instant;

use pdf_atpg::{AtpgConfig, BudgetSpec, EnrichmentAtpg, RunBudget, SimOptions, SimWidth};
use pdf_bench::setup;
use pdf_experiments::json::Json;

/// The optional `PDF_TIME_BUDGET` bound on the sampling loops. The budget
/// gates *harness repetitions*, never the generation itself: an exhausted
/// budget means fewer samples, not different outcomes.
fn bench_budget() -> RunBudget {
    match BudgetSpec::from_env().unwrap_or_else(|e| panic!("{e}")) {
        Some(spec) => {
            let now = Instant::now();
            RunBudget::with_deadline(spec.deadline_for("bench", now, now))
        }
        None => RunBudget::unlimited(),
    }
}

/// One warm-up, then the best of up to two timed runs; the budget only
/// trims the extra sample.
fn measure<R>(budget: &RunBudget, f: impl Fn() -> R) -> (f64, R) {
    let mut result = f();
    let mut best = f64::INFINITY;
    for sample in 0..2 {
        if sample > 0 && budget.exhausted() {
            eprintln!("warning: time budget exhausted after {sample} sample(s)");
            break;
        }
        let start = Instant::now();
        result = f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    (best, result)
}

fn main() {
    // Honor PDF_FAILPOINTS so chaos drills cover the bench binaries too.
    pdf_chaos::install_from_env().unwrap_or_else(|e| panic!("{e}"));
    let _telemetry = pdf_telemetry::Guard::from_env();
    let circuit_name = std::env::var("PDF_BENCH_CIRCUIT").unwrap_or_else(|_| "s9234*".to_owned());
    let n_p: usize = pdf_experiments::env_parse("PDF_BENCH_NP").unwrap_or(2_000);
    let n_p0: usize = pdf_experiments::env_parse("PDF_BENCH_NP0").unwrap_or(200);

    pdf_experiments::preflight_lint(&[circuit_name.as_str()]);
    let s = setup(&circuit_name, n_p, n_p0);
    let budget = bench_budget();

    let config = AtpgConfig::default();
    let (generate_s, reference) = measure(&budget, || {
        EnrichmentAtpg::new(&s.circuit)
            .with_config(config.clone())
            .run(&s.split)
    });

    // Width calibration row: coverage of the generated test set at every
    // packed tile width, plus the width `auto` resolved to.
    let tests = reference.tests();
    let mut per_width = Json::object();
    for width in SimWidth::ALL {
        let o = SimOptions::default().with_width(width);
        let (seconds, det) = measure(&budget, || {
            tests
                .coverage_with(o, &s.circuit, &s.faults)
                .detected_count()
        });
        assert_eq!(det, reference.detected_total(), "width {width} disagrees");
        per_width = per_width.field(width.label(), Json::object().field("seconds", seconds));
    }

    println!(
        "pipeline_throughput {circuit_name}: {} faults, {} tests; generate {generate_s:.3}s, \
         auto width {}",
        s.faults.len(),
        tests.len(),
        SimWidth::auto().lanes(),
    );

    let report = Json::object()
        .field("schema", "pdf-bench-pipeline")
        .field("circuit", circuit_name.as_str())
        .field("lines", s.circuit.line_count())
        .field("faults", s.faults.len())
        .field("tests", tests.len())
        .field("detected", reference.detected_total())
        .field("generate_seconds", generate_s)
        .field("auto_width", SimWidth::auto().lanes())
        .field("width", config.sim.width.lanes())
        .field("per_width", per_width);
    std::fs::write("BENCH_pipeline.json", report.to_pretty())
        .expect("cannot write BENCH_pipeline.json");
}
