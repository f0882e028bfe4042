//! Profiling aid for the packed kernel: splits coverage time into the
//! propagation (`load`) half and the requirement-check
//! (`satisfied_lanes`) half at every tile width, and times
//! the steady-state identical re-load (input transpose + skip sweep
//! alone). Not part of the published bench schemas — use it to see where
//! a width stops paying on a given machine.

use std::time::Instant;

use pdf_atpg::{Justifier, TestSet};
use pdf_bench::setup;
use pdf_sim::{PackedBlock, SimWord};

fn profile<W: SimWord>(s: &pdf_bench::BenchSetup, tests: &TestSet) {
    let tests = tests.tests();
    let faults: Vec<_> = s.faults.iter().collect();
    let blocks: Vec<&[pdf_netlist::TwoPattern]> = tests.chunks(W::LANES).collect();

    // Load (propagation) only.
    let mut block = PackedBlock::<W>::new();
    let t0 = Instant::now();
    let mut reps = 0u32;
    while t0.elapsed().as_secs_f64() < 1.0 {
        for b in &blocks {
            block.load(&s.circuit, b);
        }
        reps += 1;
    }
    let load_s = t0.elapsed().as_secs_f64() / reps as f64;

    // Load + satisfied_lanes over every fault.
    let mut block = PackedBlock::<W>::new();
    let t0 = Instant::now();
    let mut reps = 0u32;
    let mut sink = 0u64;
    while t0.elapsed().as_secs_f64() < 1.0 {
        for b in &blocks {
            block.load(&s.circuit, b);
            for f in &faults {
                sink =
                    sink.wrapping_add(u64::from(!block.satisfied_lanes(&f.assignments).is_zero()));
            }
        }
        reps += 1;
    }
    let full_s = t0.elapsed().as_secs_f64() / reps as f64;
    let checks = (tests.len() * faults.len()) as f64;
    println!(
        "width {:>3}: load {:>8.2} ms, checks {:>8.2} ms, total {:>8.2} ms, {:.3e} checks/s (sink {sink})",
        W::LANES,
        load_s * 1e3,
        (full_s - load_s) * 1e3,
        full_s * 1e3,
        checks / full_s,
    );
}

/// Times a steady-state identical re-load: propagation skips
/// every line, so this is input rebuild + the stamp sweep alone.
fn reload<W: SimWord>(s: &pdf_bench::BenchSetup, tests: &TestSet) {
    let tests = tests.tests();
    let block_tests = &tests[..W::LANES.min(tests.len())];
    let mut block = PackedBlock::<W>::new();
    block.load(&s.circuit, block_tests);
    let t0 = Instant::now();
    let mut reps = 0u32;
    while t0.elapsed().as_secs_f64() < 1.0 {
        block.load(&s.circuit, block_tests);
        reps += 1;
    }
    let per = t0.elapsed().as_secs_f64() / reps as f64;
    println!(
        "width {:>3} identical reload: {:>10.2} us/block ({:.2} us per 64-lane group)",
        W::LANES,
        per * 1e6,
        per * 1e6 * 64.0 / W::LANES as f64,
    );
}

fn main() {
    // Honor PDF_FAILPOINTS so chaos drills cover the bench binaries too.
    pdf_chaos::install_from_env().unwrap_or_else(|e| panic!("{e}"));
    let circuit_name = std::env::var("PDF_BENCH_CIRCUIT").unwrap_or_else(|_| "s9234*".to_owned());
    let n_tests: usize = pdf_experiments::env_parse("PDF_BENCH_TESTS").unwrap_or(2048);
    let s = setup(&circuit_name, 2_000, 200);
    let mut justifier = Justifier::new(&s.circuit, 3).with_attempts(2);
    let base: Vec<_> = s
        .faults
        .iter()
        .filter_map(|e| justifier.justify(&e.assignments))
        .map(|j| j.test)
        .collect();
    let tests: TestSet = (0..n_tests).map(|i| base[i % base.len()].clone()).collect();
    println!(
        "{circuit_name}: {} lines, {} tests, {} faults",
        s.circuit.line_count(),
        tests.len(),
        s.faults.len()
    );
    reload::<u64>(&s, &tests);
    reload::<[u64; 4]>(&s, &tests);
    reload::<[u64; 8]>(&s, &tests);
    profile::<u64>(&s, &tests);
    profile::<[u64; 4]>(&s, &tests);
    profile::<[u64; 8]>(&s, &tests);
}
