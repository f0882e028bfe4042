//! Differential oracle: the packed bit-plane kernel must be bit-for-bit
//! equivalent to the scalar triple simulator on random circuits — same
//! waveforms, same satisfied requirements, same coverage flags — at every
//! tile width (64/256/512 lanes).

use proptest::prelude::*;

use pdf_faults::FaultList;
use pdf_logic::Value;
use pdf_netlist::{simulate_triples, Circuit, SynthProfile, TwoPattern};
use pdf_paths::PathEnumerator;
use pdf_sim::{PackedBlock, SimBackend, SimOptions, SimWidth, SimWord, LANES};

fn arb_circuit() -> impl Strategy<Value = Circuit> {
    // `redundant` injects the `+r` stand-in redundancy gadgets: untestable
    // stuck-structures that real benchmarks contain and that exercise the
    // kernel's never-satisfied requirement paths.
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

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![Just(Value::Zero), Just(Value::One), Just(Value::X)]
}

fn arb_tests(inputs: usize) -> impl Strategy<Value = Vec<TwoPattern>> {
    proptest::collection::vec(
        proptest::collection::vec((arb_value(), arb_value()), inputs),
        1..(LANES + 10),
    )
    .prop_map(|tests| {
        tests
            .into_iter()
            .map(|pairs| {
                TwoPattern::new(
                    pairs.iter().map(|p| p.0).collect(),
                    pairs.iter().map(|p| p.1).collect(),
                )
            })
            .collect()
    })
}

/// Loads `tests` into a `W`-tile block (chunked) and checks every lane's
/// waveforms against the scalar simulator.
fn check_waveforms<W: SimWord>(c: &Circuit, tests: &[TwoPattern]) -> Result<(), TestCaseError> {
    let mut block: PackedBlock<W> = PackedBlock::new();
    for chunk in tests.chunks(W::LANES) {
        block.load(c, chunk);
        for (lane, t) in chunk.iter().enumerate() {
            let waves = simulate_triples(c, &t.to_triples());
            for (id, _) in c.iter() {
                prop_assert_eq!(
                    block.triple(id, lane),
                    waves[id.index()],
                    "line {} lane {} width {}",
                    id,
                    lane,
                    W::LANES
                );
            }
        }
    }
    Ok(())
}

/// Loads `tests` into a `W`-tile block (chunked) and checks, per lane,
/// `violated_lanes` against the scalar `violated_by` for every fault's
/// requirements. Lanes beyond a partial chunk must never report a
/// violation.
fn check_violated_lanes<W: SimWord>(
    c: &Circuit,
    tests: &[TwoPattern],
    faults: &FaultList,
) -> Result<(), TestCaseError> {
    let mut block: PackedBlock<W> = PackedBlock::new();
    for chunk in tests.chunks(W::LANES) {
        block.load(c, chunk);
        let waves: Vec<_> = chunk
            .iter()
            .map(|t| simulate_triples(c, &t.to_triples()))
            .collect();
        for entry in faults.iter() {
            let lanes = block.violated_lanes(&entry.assignments);
            for lane in 0..W::LANES {
                let expected = waves
                    .get(lane)
                    .is_some_and(|w| entry.assignments.violated_by(w));
                prop_assert_eq!(
                    lanes.lane(lane),
                    expected,
                    "lane {} width {} requirements {}",
                    lane,
                    W::LANES,
                    &entry.assignments
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn packed_waveforms_equal_scalar_waveforms(
        (c, tests) in arb_circuit().prop_flat_map(|c| {
            let n = c.inputs().len();
            (Just(c), arb_tests(n))
        })
    ) {
        check_waveforms::<u64>(&c, &tests)?;
        check_waveforms::<[u64; 4]>(&c, &tests)?;
        check_waveforms::<[u64; 8]>(&c, &tests)?;
    }

    #[test]
    fn packed_coverage_equals_scalar_coverage(
        (c, tests) in arb_circuit().prop_flat_map(|c| {
            let n = c.inputs().len();
            (Just(c), arb_tests(n))
        })
    ) {
        // Real robust fault populations of the random circuit.
        let paths = PathEnumerator::new(&c).with_cap(200).enumerate();
        let (faults, _) = FaultList::build(&c, &paths.store);
        prop_assume!(!faults.is_empty());

        let scalar = pdf_sim::coverage_flags(
            SimBackend::Scalar, &c, &tests, faults.entries());
        let scalar_per = pdf_sim::per_test_detections(
            SimBackend::Scalar, &c, &tests, faults.entries());

        // Every tile width must reproduce the oracle exactly.
        for width in SimWidth::ALL {
            let opts = SimOptions::default().with_width(width);
            let packed = pdf_sim::coverage_flags(
                opts, &c, &tests, faults.entries());
            prop_assert_eq!(&scalar, &packed, "coverage, width {}", width);
            let packed_per = pdf_sim::per_test_detections(
                opts, &c, &tests, faults.entries());
            prop_assert_eq!(&scalar_per, &packed_per, "per-test, width {}", width);
        }
    }

    #[test]
    fn satisfied_lanes_agrees_with_scalar_requirement_check(
        (c, tests) in arb_circuit().prop_flat_map(|c| {
            let n = c.inputs().len();
            (Just(c), arb_tests(n))
        })
    ) {
        let paths = PathEnumerator::new(&c).with_cap(64).enumerate();
        let (faults, _) = FaultList::build(&c, &paths.store);
        prop_assume!(!faults.is_empty());

        let mut block: PackedBlock = PackedBlock::new();
        let chunk = &tests[..tests.len().min(LANES)];
        block.load(&c, chunk);
        for entry in faults.iter() {
            let lanes = block.satisfied_lanes(&entry.assignments);
            for (lane, t) in chunk.iter().enumerate() {
                let waves = simulate_triples(&c, &t.to_triples());
                prop_assert_eq!(
                    lanes >> lane & 1 == 1,
                    entry.assignments.satisfied_by(&waves)
                );
            }
        }
    }

    #[test]
    fn wide_satisfied_lanes_agree_with_scalar_requirement_check(
        (c, tests) in arb_circuit().prop_flat_map(|c| {
            let n = c.inputs().len();
            (Just(c), arb_tests(n))
        })
    ) {
        let paths = PathEnumerator::new(&c).with_cap(64).enumerate();
        let (faults, _) = FaultList::build(&c, &paths.store);
        prop_assume!(!faults.is_empty());

        let mut block: PackedBlock<[u64; 8]> = PackedBlock::new();
        block.load(&c, &tests);
        for entry in faults.iter() {
            let lanes = block.satisfied_lanes(&entry.assignments);
            for (lane, t) in tests.iter().enumerate() {
                let waves = simulate_triples(&c, &t.to_triples());
                prop_assert_eq!(
                    lanes.lane(lane),
                    entry.assignments.satisfied_by(&waves),
                    "lane {}", lane
                );
            }
        }
    }

    #[test]
    fn violated_lanes_agree_with_scalar_violated_by_at_every_width(
        (c, tests) in arb_circuit().prop_flat_map(|c| {
            let n = c.inputs().len();
            (Just(c), arb_tests(n))
        })
    ) {
        // Partially specified lanes (the generator mixes in `x`) are where
        // violated and not-satisfied differ.
        let paths = PathEnumerator::new(&c).with_cap(64).enumerate();
        let (faults, _) = FaultList::build(&c, &paths.store);
        prop_assume!(!faults.is_empty());
        check_violated_lanes::<u64>(&c, &tests, &faults)?;
        check_violated_lanes::<[u64; 4]>(&c, &tests, &faults)?;
        check_violated_lanes::<[u64; 8]>(&c, &tests, &faults)?;
    }
}
