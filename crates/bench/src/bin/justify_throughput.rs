//! Measures scalar vs packed *justification* throughput on the largest
//! bundled stand-in and writes the result to `BENCH_justify.json`.
//!
//! The completion figure of merit is *attempts per second*: one attempt
//! is one fully specified random completion of the necessary-value
//! fixpoint, evaluated through the requirement cone. The packed backend
//! evaluates up to its tile width of them per cone simulation (the width
//! `SimWidth::auto` picks for the CPU); the scalar oracle simulates
//! each individually (stopping early at the first hit, which the count
//! reflects). Both engines draw identical random fill words, so they find
//! the same tests for the same faults — asserted below, test by test.
//!
//! The necessary-value fixpoint is the other backend-dependent layer: the
//! scalar oracle probes one slot at a time, the packed backend probes up
//! to half its tile width of slots per bit-plane pass. The `fixpoint`
//! block reports both engines' fixpoint time next to the end-to-end
//! `total_seconds`.
//!
//! Propagation is event-driven: each completion pass re-evaluates only
//! the lines whose input rails actually changed; the `events` block
//! reports how small that slice of the circuit is.
//!
//! Run with `--release`; circuit and workload can be overridden via
//! `PDF_BENCH_CIRCUIT`, `PDF_BENCH_TESTS` (justification calls here).

use std::time::Instant;

use pdf_atpg::{BudgetSpec, Justifier, JustifyStats, RunBudget, SimBackend, SimOptions};
use pdf_bench::setup;
use pdf_experiments::json::Json;
use pdf_netlist::TwoPattern;

/// The optional `PDF_TIME_BUDGET` bound on the sampling loops. The budget
/// gates *harness repetitions*, never the justifier itself, so the
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

/// One full run: the test of every call (`None` where it failed), the
/// justifier's counters and its phase timers.
struct Run {
    tests: Vec<Option<TwoPattern>>,
    stats: JustifyStats,
    completion_seconds: f64,
    fixpoint_seconds: f64,
}

struct Measured {
    /// Wall time of the best full run.
    total_seconds: f64,
    /// That run.
    run: Run,
}

impl Measured {
    fn found(&self) -> usize {
        self.run.tests.iter().flatten().count()
    }
}

fn measure(budget: &RunBudget, mut f: impl FnMut() -> Run) -> Measured {
    // One warm-up, then the best of three timed runs. At least one timed
    // run always happens; the budget only trims the extra samples.
    let warm = f();
    let mut best: Option<Measured> = None;
    for sample in 0..3 {
        if sample > 0 && budget.exhausted() {
            eprintln!("warning: time budget exhausted after {sample} sample(s)");
            break;
        }
        let start = Instant::now();
        let run = f();
        let total_seconds = start.elapsed().as_secs_f64();
        assert_eq!(run.tests, warm.tests, "nondeterministic justification");
        if best
            .as_ref()
            .is_none_or(|b| total_seconds < b.total_seconds)
        {
            best = Some(Measured { total_seconds, run });
        }
    }
    best.expect("at least one timed run")
}

fn main() {
    // Honor PDF_FAILPOINTS so chaos drills cover the bench binaries too.
    pdf_chaos::install_from_env().unwrap_or_else(|e| panic!("{e}"));
    let _telemetry = pdf_telemetry::Guard::from_env();
    let circuit_name = std::env::var("PDF_BENCH_CIRCUIT").unwrap_or_else(|_| "s9234*".to_owned());
    let n_calls: usize = pdf_experiments::env_parse("PDF_BENCH_TESTS").unwrap_or(256);

    // Abort on structural defects before the sampling loops spend any
    // budget (PDF_LINT=off skips, =warn reports without aborting).
    pdf_experiments::preflight_lint(&[circuit_name.as_str()]);
    let s = setup(&circuit_name, 2_000, 200);
    let entries: Vec<_> = s.faults.iter().collect();
    assert!(!entries.is_empty(), "no faults on {circuit_name}");
    let run = |o: SimOptions| {
        let entries = &entries;
        let circuit = &s.circuit;
        move || {
            let mut justifier = Justifier::new(circuit, 3).with_attempts(4).with_options(o);
            let tests = (0..n_calls)
                .map(|call| {
                    // Every requirement set is visited twice in a row: the
                    // repeat call finds its cone's planes already settled,
                    // which the event counters show.
                    let entry = entries[call / 2 % entries.len()];
                    justifier.justify(&entry.assignments).map(|r| r.test)
                })
                .collect();
            Run {
                tests,
                stats: justifier.stats(),
                completion_seconds: justifier.completion_seconds(),
                fixpoint_seconds: justifier.fixpoint_seconds(),
            }
        }
    };

    let packed_opts = SimOptions::default();
    let budget = bench_budget();
    let scalar = measure(&budget, run(SimBackend::Scalar.into()));
    let packed = measure(&budget, run(packed_opts));
    assert_eq!(
        scalar.run.tests, packed.run.tests,
        "backends disagree on the justified tests"
    );

    // Attempts/sec of the completion engines themselves; the fixpoint is
    // reported in its own block and the guided fallback is excluded.
    let scalar_rate = scalar.run.stats.completion_attempts as f64 / scalar.run.completion_seconds;
    let packed_rate = packed.run.stats.completion_attempts as f64 / packed.run.completion_seconds;
    let speedup = packed_rate / scalar_rate;
    let fixpoint_speedup = scalar.run.fixpoint_seconds / packed.run.fixpoint_seconds;
    // Event economy: lines actually evaluated per completion pass, as an
    // absolute count and as a fraction of the whole circuit. Narrow-cone
    // calls with most pins frozen should keep the fraction well under
    // one even though passes repeat over the same cone.
    let blocks = packed.run.stats.packed_blocks.max(1) as f64;
    let events_per_block = packed.run.stats.events_propagated as f64 / blocks;
    let lines_fraction = events_per_block / s.circuit.line_count() as f64;
    println!(
        "justify_throughput {circuit_name}: {n_calls} calls, {} justified; \
         scalar {scalar_rate:.3e} attempts/s, packed {packed_rate:.3e} attempts/s \
         @ width {}, speedup {speedup:.1}x, \
         {events_per_block:.0} lines/block ({:.1}% of circuit), \
         fixpoint {:.2}s -> {:.2}s ({fixpoint_speedup:.1}x), \
         end-to-end {:.2}s -> {:.2}s",
        packed.found(),
        packed_opts.width.lanes(),
        lines_fraction * 100.0,
        scalar.run.fixpoint_seconds,
        packed.run.fixpoint_seconds,
        scalar.total_seconds,
        packed.total_seconds,
    );

    let backend_json = |m: &Measured| {
        Json::object()
            .field("seconds", m.run.completion_seconds)
            .field("total_seconds", m.total_seconds)
            .field("attempts", m.run.stats.completion_attempts)
            .field(
                "attempts_per_sec",
                m.run.stats.completion_attempts as f64 / m.run.completion_seconds,
            )
    };
    let report = Json::object()
        .field("circuit", circuit_name.as_str())
        .field("lines", s.circuit.line_count())
        .field("calls", n_calls)
        .field("justified", packed.found())
        .field("scalar", backend_json(&scalar))
        .field(
            "packed",
            backend_json(&packed).field("blocks", packed.run.stats.packed_blocks),
        )
        .field("width", packed_opts.width.lanes())
        .field("speedup", speedup)
        .field(
            "fixpoint",
            Json::object()
                .field("passes", packed.run.stats.fixpoint_passes)
                .field("scalar_seconds", scalar.run.fixpoint_seconds)
                .field("packed_seconds", packed.run.fixpoint_seconds)
                .field("speedup", fixpoint_speedup),
        )
        .field(
            "events",
            Json::object()
                .field("events_propagated", packed.run.stats.events_propagated)
                .field("lines_skipped", packed.run.stats.lines_skipped)
                .field("events_per_block", events_per_block)
                .field("lines_fraction", lines_fraction),
        );
    std::fs::write("BENCH_justify.json", report.to_pretty())
        .expect("cannot write BENCH_justify.json");
}
