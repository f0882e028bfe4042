//! Measures scalar vs packed *justification* throughput on the largest
//! bundled stand-in and writes the result to `BENCH_justify.json`.
//!
//! The figure of merit is *attempts per second*: one attempt is one fully
//! specified random completion of the necessary-value fixpoint, evaluated
//! through the requirement cone. The packed backend evaluates up to its
//! tile width of them per cone simulation (the width `SimWidth::auto`
//! picks for the CPU); the scalar oracle simulates
//! each individually (stopping early at the first hit, which the count
//! reflects). Both engines draw identical random fill words, so they find
//! the same tests for the same faults — asserted below.
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

struct Measured {
    /// Wall time of the best full run.
    total_seconds: f64,
    /// Completion-phase time within that run.
    completion_seconds: f64,
    found: usize,
    stats: JustifyStats,
}

fn measure(budget: &RunBudget, mut f: impl FnMut() -> (usize, JustifyStats, f64)) -> Measured {
    // One warm-up, then the best of three timed runs. At least one timed
    // run always happens; the budget only trims the extra samples.
    let (found, _, _) = f();
    let mut best = Measured {
        total_seconds: f64::INFINITY,
        completion_seconds: f64::INFINITY,
        found,
        stats: JustifyStats::default(),
    };
    for sample in 0..3 {
        if sample > 0 && budget.exhausted() {
            eprintln!("warning: time budget exhausted after {sample} sample(s)");
            break;
        }
        let start = Instant::now();
        let (again, stats, completion_seconds) = f();
        assert_eq!(again, found, "nondeterministic justification");
        let total_seconds = start.elapsed().as_secs_f64();
        if total_seconds < best.total_seconds {
            best = Measured {
                total_seconds,
                completion_seconds,
                found,
                stats,
            };
        }
    }
    best
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
            let mut found = 0usize;
            for call in 0..n_calls {
                // Every requirement set is visited twice in a row: the
                // repeat call finds its cone's planes already settled,
                // which the event counters show.
                let entry = entries[call / 2 % entries.len()];
                found += usize::from(justifier.justify(&entry.assignments).is_some());
            }
            (found, justifier.stats(), justifier.completion_seconds())
        }
    };

    let packed_opts = SimOptions::default();
    let budget = bench_budget();
    let scalar = measure(&budget, run(SimBackend::Scalar.into()));
    let packed = measure(&budget, run(packed_opts));
    assert_eq!(scalar.found, packed.found, "backends disagree on outcomes");

    // Attempts/sec of the completion engines themselves; the phases
    // around them (necessary-value fixpoint, guided fallback) are
    // backend-independent and would only dilute the comparison.
    let scalar_rate = scalar.stats.completion_attempts as f64 / scalar.completion_seconds;
    let packed_rate = packed.stats.completion_attempts as f64 / packed.completion_seconds;
    let speedup = packed_rate / scalar_rate;
    // Event economy: lines actually evaluated per completion pass, as an
    // absolute count and as a fraction of the whole circuit. Narrow-cone
    // calls with most pins frozen should keep the fraction well under
    // one even though passes repeat over the same cone.
    let blocks = packed.stats.packed_blocks.max(1) as f64;
    let events_per_block = packed.stats.events_propagated as f64 / blocks;
    let lines_fraction = events_per_block / s.circuit.line_count() as f64;
    println!(
        "justify_throughput {circuit_name}: {n_calls} calls, {} justified; \
         scalar {scalar_rate:.3e} attempts/s, packed {packed_rate:.3e} attempts/s \
         @ width {}, speedup {speedup:.1}x, \
         {events_per_block:.0} lines/block ({:.1}% of circuit), \
         end-to-end {:.2}s -> {:.2}s",
        packed.found,
        packed_opts.width.lanes(),
        lines_fraction * 100.0,
        scalar.total_seconds,
        packed.total_seconds,
    );

    let backend_json = |m: &Measured| {
        Json::object()
            .field("seconds", m.completion_seconds)
            .field("total_seconds", m.total_seconds)
            .field("attempts", m.stats.completion_attempts)
            .field(
                "attempts_per_sec",
                m.stats.completion_attempts as f64 / m.completion_seconds,
            )
    };
    let report = Json::object()
        .field("circuit", circuit_name.as_str())
        .field("lines", s.circuit.line_count())
        .field("calls", n_calls)
        .field("justified", packed.found)
        .field("scalar", backend_json(&scalar))
        .field(
            "packed",
            backend_json(&packed).field("blocks", packed.stats.packed_blocks),
        )
        .field("width", packed_opts.width.lanes())
        .field("speedup", speedup)
        .field(
            "events",
            Json::object()
                .field("events_propagated", packed.stats.events_propagated)
                .field("lines_skipped", packed.stats.lines_skipped)
                .field("events_per_block", events_per_block)
                .field("lines_fraction", lines_fraction),
        );
    std::fs::write("BENCH_justify.json", report.to_pretty())
        .expect("cannot write BENCH_justify.json");
}
