//! Differential oracle for the justifier's engines: for equal seeds the
//! scalar oracle (sequential necessary-value sweep, per-lane completion)
//! and the packed bit-plane kernel (lane-batched probe passes, packed
//! completion) — at every tile width (64/256/512 lanes) — must return
//! byte-identical witnesses for every fault, and every packed witness
//! must pass the scalar requirement re-check.

use proptest::prelude::*;

use pdf_atpg::Justifier;
use pdf_faults::{Assignments, FaultList};
use pdf_logic::{Triple, Value};
use pdf_netlist::{simulate_triples, Circuit, LineId, SynthProfile, TwoPattern};
use pdf_paths::PathEnumerator;
use pdf_sim::{SimBackend, SimOptions, SimWidth};

fn arb_circuit() -> impl Strategy<Value = Circuit> {
    // `redundant` injects the `+r` stand-in redundancy gadgets, giving the
    // justifier a population of unjustifiable requirement sets too.
    (3usize..8, 10usize..60, 3usize..8, 0usize..3, any::<u64>()).prop_map(
        |(inputs, gates, levels, redundant, seed)| {
            SynthProfile::new("diff", seed)
                .with_inputs(inputs)
                .with_gates(gates)
                .with_levels(levels)
                .with_redundant_gadgets(redundant)
                .generate()
                .to_circuit()
                .expect("generated netlists are valid")
        },
    )
}

/// Every backend × width combination the justifier offers.
fn all_option_blocks() -> Vec<SimOptions> {
    let mut blocks = vec![SimOptions::default().with_backend(SimBackend::Scalar)];
    for width in SimWidth::ALL {
        blocks.push(SimOptions::default().with_width(width));
    }
    blocks
}

/// Justifies every detectable fault of `c` under every option block with
/// the same seed and cross-checks witnesses and stats.
fn check_engines_agree(c: &Circuit, seed: u64, attempts: u32) {
    let paths = PathEnumerator::new(c).with_cap(300).enumerate();
    let (faults, _) = FaultList::build(c, &paths.store);
    let blocks = all_option_blocks();
    let mut engines: Vec<Justifier> = blocks
        .iter()
        .map(|&opts| {
            Justifier::new(c, seed)
                .with_attempts(attempts)
                .with_options(opts)
        })
        .collect();
    for entry in faults.iter() {
        let results: Vec<Option<pdf_atpg::Justified>> = engines
            .iter_mut()
            .map(|j| j.justify(&entry.assignments))
            .collect();
        let (oracle, rest) = results.split_first().expect("scalar oracle first");
        for (r, opts) in rest.iter().zip(&blocks[1..]) {
            assert_eq!(
                oracle.is_some(),
                r.is_some(),
                "{opts:?} disagrees on {} (seed {seed})",
                entry.fault
            );
            if let (Some(s), Some(p)) = (oracle, r) {
                // Byte-identical witnesses, and every packed witness
                // passes the scalar re-check: the full-circuit waveforms
                // neither violate nor miss any requirement.
                assert_eq!(
                    s.test, p.test,
                    "witness mismatch under {opts:?} on {} (seed {seed})",
                    entry.fault
                );
                assert!(
                    !entry.assignments.violated_by(&p.waves),
                    "witness violates {} under {opts:?} (seed {seed})",
                    entry.fault
                );
                assert!(
                    entry.assignments.satisfied_by(&p.waves),
                    "witness does not satisfy {} under {opts:?} (seed {seed})",
                    entry.fault
                );
            }
        }
    }
    let oracle_stats = engines[0].stats();
    for (j, opts) in engines.iter().zip(&blocks) {
        let stats = j.stats();
        assert_eq!(oracle_stats.successes, stats.successes, "{opts:?}");
        assert_eq!(oracle_stats.conflicts, stats.conflicts, "{opts:?}");
        assert_eq!(oracle_stats.unsatisfied, stats.unsatisfied, "{opts:?}");
        assert_eq!(oracle_stats.lane_hits, stats.lane_hits, "{opts:?}");
    }
}

/// Does the state `justify_seeded` enters with — `pins` on their inputs,
/// every other input `x` — already violate `req`? Inputs outside the
/// requirement cone cannot reach a requirement line, so simulating the
/// whole circuit gives the cone's entry values.
fn entry_state_violates(c: &Circuit, req: &Assignments, pins: &[(LineId, Value, Value)]) -> bool {
    let inputs: Vec<Triple> = c
        .inputs()
        .iter()
        .map(|&pi| match pins.iter().find(|p| p.0 == pi) {
            Some(&(_, v1, v2)) => Triple::from_patterns(v1, v2),
            None => Triple::UNKNOWN,
        })
        .collect();
    req.violated_by(&simulate_triples(c, &inputs))
}

/// The freeze-values path: each engine justifies fault `k`, then
/// justifies `A(k) ∪ A(m)` seeded with its own witness's committed
/// inputs, `m` half the fault list away. The pins often leave the entry state violating a requirement
/// line, which is the case the packed fixpoint's entry-violation rule
/// must resolve exactly as the sequential sweep does. Returns how many
/// seeded calls entered with a violated requirement.
fn check_seeded_engines_agree(c: &Circuit, seed: u64, attempts: u32) -> usize {
    let paths = PathEnumerator::new(c).with_cap(300).enumerate();
    let (faults, _) = FaultList::build(c, &paths.store);
    let entries: Vec<_> = faults.iter().collect();
    let blocks = all_option_blocks();
    let mut engines: Vec<Justifier> = blocks
        .iter()
        .map(|&opts| {
            Justifier::new(c, seed)
                .with_attempts(attempts)
                .with_options(opts)
        })
        .collect();
    let mut violated_entries = 0usize;
    for (idx, &entry) in entries.iter().enumerate() {
        let pair = [entry, entries[(idx + entries.len() / 2) % entries.len()]];
        let Some(merged) = pair[0].assignments.merged(&pair[1].assignments) else {
            continue;
        };
        let firsts: Vec<Option<pdf_atpg::Justified>> = engines
            .iter_mut()
            .map(|j| j.justify(&pair[0].assignments))
            .collect();
        let results: Vec<Option<pdf_atpg::Justified>> = engines
            .iter_mut()
            .zip(&firsts)
            .map(|(j, first)| {
                let pins = first.as_ref().map_or(&[][..], |r| &r.assignment[..]);
                j.justify_seeded(&merged, pins)
            })
            .collect();
        if let Some(first) = &firsts[0] {
            violated_entries += usize::from(entry_state_violates(c, &merged, &first.assignment));
        }
        for (k, opts) in blocks.iter().enumerate().skip(1) {
            for (oracle, r, what) in [
                (&firsts[0], &firsts[k], "first"),
                (&results[0], &results[k], "seeded"),
            ] {
                assert_eq!(
                    oracle.is_some(),
                    r.is_some(),
                    "{opts:?} disagrees on the {what} call for {} + {} (seed {seed})",
                    pair[0].fault,
                    pair[1].fault
                );
                if let (Some(s), Some(p)) = (oracle, r) {
                    assert_eq!(
                        s.test, p.test,
                        "{what} witness mismatch under {opts:?} on {} + {} (seed {seed})",
                        pair[0].fault, pair[1].fault
                    );
                }
            }
            if let Some(p) = &results[k] {
                assert!(merged.satisfied_by(&p.waves), "{opts:?} (seed {seed})");
            }
        }
    }
    let oracle_stats = engines[0].stats();
    for (j, opts) in engines.iter().zip(&blocks) {
        let stats = j.stats();
        assert_eq!(oracle_stats.successes, stats.successes, "{opts:?}");
        assert_eq!(oracle_stats.conflicts, stats.conflicts, "{opts:?}");
        assert_eq!(oracle_stats.unsatisfied, stats.unsatisfied, "{opts:?}");
    }
    violated_entries
}

#[test]
fn engines_agree_on_s27_across_seeds() {
    let c = pdf_netlist::iscas::s27();
    for seed in [1, 2, 7, 2002, 0xDEAD_BEEF] {
        check_engines_agree(&c, seed, 2);
    }
}

#[test]
fn seeded_engines_agree_on_s27_across_seeds() {
    let c = pdf_netlist::iscas::s27();
    let mut violated_entries = 0;
    for seed in [1, 2, 7, 2002, 0xDEAD_BEEF] {
        violated_entries += check_seeded_engines_agree(&c, seed, 2);
    }
    assert!(
        violated_entries > 0,
        "the pins must sometimes violate the merged requirements on entry"
    );
}

#[test]
fn seeded_engines_agree_on_a_redundant_stand_in() {
    let c = pdf_netlist::stand_in_profile("b03+r")
        .expect("known stand-in")
        .generate()
        .to_circuit()
        .expect("combinational");
    let violated_entries = check_seeded_engines_agree(&c, 2002, 1);
    assert!(violated_entries > 0, "no seeded call entered violated");
}

#[test]
fn engines_agree_on_a_redundant_stand_in() {
    // A `+r` profile: redundancy gadgets make part of the fault
    // population unjustifiable, exercising the Miss path of every engine.
    let c = pdf_netlist::stand_in_profile("b03+r")
        .expect("known stand-in")
        .generate()
        .to_circuit()
        .expect("combinational");
    check_engines_agree(&c, 2002, 1);
}

#[test]
fn wide_event_driven_generation_matches_the_default_width() {
    // End-to-end: a whole enrichment run produces identical test sets at
    // every width, because the justifier's witnesses are.
    let c = pdf_netlist::stand_in_profile("b09")
        .expect("known stand-in")
        .generate()
        .to_circuit()
        .expect("combinational");
    let paths = PathEnumerator::new(&c).with_cap(400).enumerate();
    let (faults, _) = FaultList::build(&c, &paths.store);
    let split = pdf_atpg::TargetSplit::by_cumulative_length(&faults, faults.len() / 4);
    let run = |opts: SimOptions| {
        pdf_atpg::EnrichmentAtpg::new(&c)
            .with_config(pdf_atpg::AtpgConfig {
                sim: opts,
                ..pdf_atpg::AtpgConfig::default()
            })
            .run(&split)
    };
    let baseline: Vec<TwoPattern> = run(SimOptions::default().with_width(SimWidth::W64))
        .tests()
        .tests()
        .to_vec();
    for opts in all_option_blocks() {
        let outcome = run(opts);
        assert_eq!(outcome.tests().tests(), &baseline[..], "{opts:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engines_agree_on_synth_circuits(c in arb_circuit(), seed in any::<u64>()) {
        check_engines_agree(&c, seed, 1);
    }

    #[test]
    fn seeded_engines_agree_on_synth_circuits(c in arb_circuit(), seed in any::<u64>()) {
        check_seeded_engines_agree(&c, seed, 1);
    }
}
