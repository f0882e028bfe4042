//! Measures scalar vs packed fault-simulation throughput on the largest
//! bundled stand-in and writes the result to `BENCH_sim.json`.
//!
//! The figure of merit is *checks per second*: one check is one
//! (test, fault) requirement evaluation, so a full coverage pass performs
//! `tests × faults` of them. The packed engine is measured at every tile
//! width (64/256/512 lanes); the headline `packed` row uses the width
//! [`SimWidth::auto`] picks for the CPU, and a `thread_scaling` row sweeps that
//! configuration over the real worker counts (1, 2, 4, … up to the
//! machine's fan-out) to expose the scaling curve. Run with
//! `--release` (ideally `RUSTFLAGS="-C target-cpu=native"` so the wide
//! tiles vectorize); circuit and workload can be overridden via
//! `PDF_BENCH_CIRCUIT`, `PDF_BENCH_TESTS`.

use std::time::Instant;

use pdf_atpg::{BudgetSpec, Justifier, RunBudget, SimBackend, SimOptions, SimWidth, TestSet};
use pdf_bench::setup;
use pdf_experiments::json::Json;

/// The optional `PDF_TIME_BUDGET` bound on the sampling loops. The budget
/// gates *harness repetitions*, never the simulation itself, so the
/// determinism cross-checks stay meaningful: an exhausted budget means
/// fewer samples, not different outcomes.
fn bench_budget() -> RunBudget {
    match BudgetSpec::from_env().unwrap_or_else(|e| panic!("{e}")) {
        Some(spec) => {
            let now = Instant::now();
            RunBudget::with_deadline(spec.deadline_for("bench", now, now))
        }
        None => RunBudget::unlimited(),
    }
}

fn measure(budget: &RunBudget, f: impl Fn() -> usize) -> (f64, usize) {
    // One warm-up, then the median-ish best of three timed runs. At least
    // one timed run always happens; the budget only trims extra samples.
    let detected = f();
    let mut best = f64::INFINITY;
    for sample in 0..3 {
        if sample > 0 && budget.exhausted() {
            eprintln!("warning: time budget exhausted after {sample} sample(s)");
            break;
        }
        let start = Instant::now();
        let again = f();
        assert_eq!(again, detected, "nondeterministic coverage");
        best = best.min(start.elapsed().as_secs_f64());
    }
    (best, detected)
}

fn main() {
    // Honor PDF_FAILPOINTS so chaos drills cover the bench binaries too.
    pdf_chaos::install_from_env().unwrap_or_else(|e| panic!("{e}"));
    let _telemetry = pdf_telemetry::Guard::from_env();
    let circuit_name = std::env::var("PDF_BENCH_CIRCUIT").unwrap_or_else(|_| "s9234*".to_owned());
    // Default workload: four full 512-lane blocks, so the widest tile is
    // measured saturated rather than half-empty.
    let n_tests: usize = pdf_experiments::env_parse("PDF_BENCH_TESTS").unwrap_or(2048);

    // Abort on structural defects before the sampling loops spend any
    // budget (PDF_LINT=off skips, =warn reports without aborting).
    pdf_experiments::preflight_lint(&[circuit_name.as_str()]);
    let s = setup(&circuit_name, 2_000, 200);
    let mut justifier = Justifier::new(&s.circuit, 3).with_attempts(2);
    let base: Vec<_> = s
        .faults
        .iter()
        .filter_map(|e| justifier.justify(&e.assignments))
        .map(|j| j.test)
        .collect();
    assert!(!base.is_empty(), "no justifiable faults on {circuit_name}");
    let tests: TestSet = (0..n_tests).map(|i| base[i % base.len()].clone()).collect();

    let checks = (tests.len() * s.faults.len()) as f64;
    let budget = bench_budget();
    let coverage = |o: SimOptions| {
        tests
            .coverage_with(o, &s.circuit, &s.faults)
            .detected_count()
    };
    let (scalar_s, scalar_det) = measure(&budget, || coverage(SimBackend::Scalar.into()));

    // Every tile width, full fan-out.
    let mut widths = Json::object();
    let mut width_rates = Vec::new();
    for width in SimWidth::ALL {
        let o = SimOptions::default().with_width(width);
        let (seconds, det) = measure(&budget, || coverage(o));
        assert_eq!(det, scalar_det, "width {width} disagrees with scalar");
        width_rates.push((width, checks / seconds));
        widths = widths.field(
            width.label(),
            Json::object()
                .field("seconds", seconds)
                .field("checks_per_sec", checks / seconds)
                .field("speedup_vs_scalar", scalar_s / seconds),
        );
    }

    // The headline packed row: the auto-selected width.
    let packed_opts = SimOptions::default();
    let (packed_s, packed_det) = measure(&budget, || coverage(packed_opts));
    assert_eq!(scalar_det, packed_det, "backends disagree on coverage");

    // Thread scaling: the same configuration swept over the actual
    // worker counts (1, 2, 4, … up to the machine's full fan-out), each
    // measured with `PDF_SIM_THREADS` pinned. The kernel re-reads the
    // variable on every fan-out, so the pin scopes to one measurement.
    let threads = pdf_sim::max_threads();
    let mut counts: Vec<usize> = std::iter::successors(Some(1_usize), |n| n.checked_mul(2))
        .take_while(|&n| n < threads)
        .collect();
    counts.push(threads);
    let saved_threads = std::env::var("PDF_SIM_THREADS").ok();
    let mut curve = Json::object();
    let mut curve_rates = Vec::new();
    let mut single_s = packed_s;
    let mut full_s = packed_s;
    for &n in &counts {
        std::env::set_var("PDF_SIM_THREADS", n.to_string());
        let (seconds, det) = measure(&budget, || coverage(packed_opts));
        assert_eq!(det, packed_det, "{n} thread(s) changed coverage");
        if n == 1 {
            single_s = seconds;
        }
        if n == threads {
            full_s = seconds;
        }
        curve_rates.push((n, checks / seconds));
        curve = curve.field(
            &n.to_string(),
            Json::object()
                .field("seconds", seconds)
                .field("checks_per_sec", checks / seconds)
                .field("scaling_vs_single", single_s / seconds),
        );
    }
    match saved_threads {
        Some(v) => std::env::set_var("PDF_SIM_THREADS", v),
        None => std::env::remove_var("PDF_SIM_THREADS"),
    }
    // Schema self-check: the headline `threads` count must be a point on
    // the emitted curve, so the row can never go stale against the
    // machine again.
    assert!(
        counts.contains(&threads),
        "thread_scaling curve omits the full fan-out ({threads} threads)"
    );

    let speedup = scalar_s / packed_s;
    println!(
        "sim_throughput {circuit_name}: {} tests x {} faults; scalar {:.3e} checks/s, \
         packed {:.3e} checks/s @ width {} ({} threads), speedup {speedup:.1}x, \
         thread scaling {:.1}x",
        tests.len(),
        s.faults.len(),
        checks / scalar_s,
        checks / packed_s,
        packed_opts.width.lanes(),
        threads,
        single_s / full_s,
    );
    for (width, rate) in &width_rates {
        println!("  width {:>3}: {rate:.3e} checks/s", width.lanes());
    }
    for (n, rate) in &curve_rates {
        println!("  threads {n:>3}: {rate:.3e} checks/s");
    }

    let report = Json::object()
        .field("circuit", circuit_name.as_str())
        .field("lines", s.circuit.line_count())
        .field("tests", tests.len())
        .field("faults", s.faults.len())
        .field("detected", packed_det)
        .field(
            "scalar",
            Json::object()
                .field("seconds", scalar_s)
                .field("checks_per_sec", checks / scalar_s),
        )
        .field(
            "packed",
            Json::object()
                .field("seconds", packed_s)
                .field("checks_per_sec", checks / packed_s),
        )
        .field("width", packed_opts.width.lanes())
        .field("widths", widths)
        .field("speedup", speedup)
        .field("threads", threads)
        .field(
            "thread_scaling",
            Json::object()
                .field("threads", threads)
                .field("curve", curve)
                .field("scaling", single_s / full_s),
        );
    std::fs::write("BENCH_sim.json", report.to_pretty()).expect("cannot write BENCH_sim.json");
}
