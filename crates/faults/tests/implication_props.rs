//! Property tests for the implicator's undo-trail probe: on random
//! synthetic circuits (with and without the `+r` redundancy gadgets, with
//! and without a learned table), probing a candidate on a requirement
//! union's implicator must give the verdict of a fresh implicator seeded
//! with the merged sets, and must leave every line value as it was.

use proptest::prelude::*;

use pdf_faults::{Assignments, FaultList, Implicator, LearnedImplications, Literal};
use pdf_logic::{Triple, Value};
use pdf_netlist::{simulate_triples, Circuit, LineId, SynthProfile};
use pdf_paths::PathEnumerator;

fn arb_circuit() -> impl Strategy<Value = Circuit> {
    (3usize..8, 10usize..60, 3usize..8, 0usize..3, any::<u64>()).prop_map(
        |(inputs, gates, levels, redundant, seed)| {
            SynthProfile::new("implication", seed)
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

/// A sound learned table by exhaustive single-pattern simulation: `l = v
/// ⇒ m = w` is recorded (for both outer components) whenever every input
/// pattern that sets `l` to `v` also sets `m` to `w`. The outer
/// components of a two-pattern waveform are single-pattern values, so
/// each pair holds for every test. Only backward pairs (`m` before `l`)
/// of a sparse sample are kept, so propagation stays cheap in debug
/// builds.
fn exhaustive_table(c: &Circuit) -> LearnedImplications {
    let n = c.inputs().len();
    assert!(n <= 7, "pattern sets are u128 bitmasks");
    let all: u128 = if n == 7 {
        u128::MAX
    } else {
        (1u128 << (1 << n)) - 1
    };
    // Bit p of ones[line]: the line is 1 under input pattern p.
    let mut ones = vec![0u128; c.line_count()];
    for p in 0..1usize << n {
        let inputs: Vec<Triple> = (0..n)
            .map(|i| {
                let v = Value::from(p >> i & 1 == 1);
                Triple::new(v, v, v)
            })
            .collect();
        for (line, wave) in simulate_triples(c, &inputs).iter().enumerate() {
            if wave.last() == Value::One {
                ones[line] |= 1 << p;
            }
        }
    }
    let support = |line: usize, v: Value| match v {
        Value::One => ones[line],
        _ => all & !ones[line],
    };
    let mut table = LearnedImplications::new(c.line_count());
    for l in 0..c.line_count() {
        for m in (0..l).filter(|m| (l + m) % 3 == 0) {
            for v in [Value::Zero, Value::One] {
                for w in [Value::Zero, Value::One] {
                    let when = support(l, v);
                    if when != 0 && when & !support(m, w) == 0 {
                        for slot in [0, 2] {
                            table.add(
                                Literal::new(LineId::new(l), slot, v),
                                Literal::new(LineId::new(m), slot, w),
                            );
                        }
                    }
                }
            }
        }
    }
    table
}

/// Requirement sets to combine: every robust fault condition of the
/// circuit plus a few random sets of specified-component triples.
fn requirement_sets(c: &Circuit, seed: u64) -> Vec<Assignments> {
    let paths = PathEnumerator::new(c).with_cap(24).enumerate();
    let (faults, _) = FaultList::build(c, &paths.store);
    let mut sets: Vec<Assignments> = faults.iter().map(|e| e.assignments.clone()).collect();
    let triples = [
        Triple::STABLE0,
        Triple::STABLE1,
        Triple::RISING,
        Triple::FALLING,
        Triple::new(Value::Zero, Value::X, Value::X),
        Triple::new(Value::X, Value::X, Value::One),
    ];
    let mut rng = pdf_netlist::SplitMix64::new(seed);
    for _ in 0..8 {
        let mut a = Assignments::new();
        for _ in 0..1 + rng.next_below(3) {
            let line = LineId::new(rng.next_below(c.line_count()));
            let _ = a.require(line, triples[rng.next_below(triples.len())]);
        }
        sets.push(a);
    }
    sets
}

/// For every (union, candidate) pair: the trail probe on the union's
/// implicator must equal a fresh implicator on the merge, and must leave
/// the union's values untouched.
fn check_probes(
    c: &Circuit,
    sets: &[Assignments],
    learned: Option<&LearnedImplications>,
) -> Result<usize, TestCaseError> {
    let mut conflicts = 0usize;
    for (k, base) in sets.iter().enumerate() {
        // Unions of one and of two sets, as the generator grows them.
        let partner = &sets[(k + 1) % sets.len()];
        for union in [Some(base.clone()), base.merged(partner)]
            .into_iter()
            .flatten()
        {
            let Ok(mut imp) = Implicator::from_assignments_with(c, &union, learned) else {
                continue;
            };
            let before = imp.values().to_vec();
            for candidate in sets {
                let probed = imp.conflicts_with(candidate);
                let fresh = match union.merged(candidate) {
                    Some(merged) => Implicator::from_assignments_with(c, &merged, learned).is_err(),
                    // Directly contradictory requirements: the probe's
                    // first assignment must already fail.
                    None => true,
                };
                prop_assert_eq!(probed, fresh, "union {} candidate {}", &union, candidate);
                prop_assert_eq!(imp.values(), &before[..], "values changed by {}", candidate);
                conflicts += usize::from(probed);
            }
        }
    }
    Ok(conflicts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn trail_probe_matches_a_fresh_implicator(c in arb_circuit(), seed in any::<u64>()) {
        let sets = requirement_sets(&c, seed);
        prop_assume!(sets.len() > 1);
        check_probes(&c, &sets, None)?;
        let table = exhaustive_table(&c);
        check_probes(&c, &sets, Some(&table))?;
    }
}

#[test]
fn trail_probe_sees_conflicts_on_a_redundant_stand_in() {
    // The `+r` gadgets make some merges contradictory only through deeper
    // implications; the probe must find those conflicts and recover.
    let c = pdf_netlist::stand_in_profile("b03+r")
        .expect("known stand-in")
        .generate()
        .to_circuit()
        .expect("combinational");
    let sets = requirement_sets(&c, 7);
    let conflicts = check_probes(&c, &sets[..sets.len().min(60)], None).expect("probes agree");
    assert!(conflicts > 0, "no conflicting probe exercised");
}
