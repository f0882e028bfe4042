//! Differential oracle for the justifier's engines: for equal seeds the
//! scalar oracle (sequential necessary-value sweep, per-lane completion)
//! and the packed bit-plane kernel (lane-batched probe passes, packed
//! completion) must return byte-identical witnesses for every fault, and
//! every packed witness must pass the scalar requirement re-check.

use proptest::prelude::*;

use pdf_atpg::{Justifier, JustifyStats};
use pdf_faults::{Assignments, FaultList};
use pdf_logic::{GateKind, Triple, Value};
use pdf_netlist::{simulate_triples, Circuit, CircuitBuilder, LineId, SynthProfile};
use pdf_paths::PathEnumerator;
use pdf_runctl::{CancelToken, RunBudget};
use pdf_sim::SimBackend;

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

/// Justifies every detectable fault of `c` on both backends with the
/// same seed and cross-checks witnesses and stats.
fn check_engines_agree(c: &Circuit, seed: u64, attempts: u32) {
    let paths = PathEnumerator::new(c).with_cap(300).enumerate();
    let (faults, _) = FaultList::build(c, &paths.store);
    let backends = SimBackend::ALL;
    let mut engines: Vec<Justifier> = backends
        .iter()
        .map(|&backend| {
            Justifier::new(c, seed)
                .with_attempts(attempts)
                .with_backend(backend)
        })
        .collect();
    for entry in faults.iter() {
        let results: Vec<Option<pdf_atpg::Justified>> = engines
            .iter_mut()
            .map(|j| j.justify(&entry.assignments))
            .collect();
        let (oracle, rest) = results.split_first().expect("scalar oracle first");
        for (r, backend) in rest.iter().zip(&backends[1..]) {
            assert_eq!(
                oracle.is_some(),
                r.is_some(),
                "{backend} disagrees on {} (seed {seed})",
                entry.fault
            );
            if let (Some(s), Some(p)) = (oracle, r) {
                // Byte-identical witnesses, and every packed witness
                // passes the scalar re-check: the full-circuit waveforms
                // neither violate nor miss any requirement.
                assert_eq!(
                    s.test, p.test,
                    "witness mismatch under {backend} on {} (seed {seed})",
                    entry.fault
                );
                assert!(
                    !entry.assignments.violated_by(&p.waves),
                    "witness violates {} under {backend} (seed {seed})",
                    entry.fault
                );
                assert!(
                    entry.assignments.satisfied_by(&p.waves),
                    "witness does not satisfy {} under {backend} (seed {seed})",
                    entry.fault
                );
            }
        }
    }
    let oracle_stats = engines[0].stats();
    for (j, backend) in engines.iter().zip(&backends) {
        let stats = j.stats();
        assert_eq!(oracle_stats.successes, stats.successes, "{backend}");
        assert_eq!(oracle_stats.conflicts, stats.conflicts, "{backend}");
        assert_eq!(oracle_stats.unsatisfied, stats.unsatisfied, "{backend}");
        assert_eq!(oracle_stats.lane_hits, stats.lane_hits, "{backend}");
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
    let backends = SimBackend::ALL;
    let mut engines: Vec<Justifier> = backends
        .iter()
        .map(|&backend| {
            Justifier::new(c, seed)
                .with_attempts(attempts)
                .with_backend(backend)
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
        for (k, backend) in backends.iter().enumerate().skip(1) {
            for (oracle, r, what) in [
                (&firsts[0], &firsts[k], "first"),
                (&results[0], &results[k], "seeded"),
            ] {
                assert_eq!(
                    oracle.is_some(),
                    r.is_some(),
                    "{backend} disagrees on the {what} call for {} + {} (seed {seed})",
                    pair[0].fault,
                    pair[1].fault
                );
                if let (Some(s), Some(p)) = (oracle, r) {
                    assert_eq!(
                        s.test, p.test,
                        "{what} witness mismatch under {backend} on {} + {} (seed {seed})",
                        pair[0].fault, pair[1].fault
                    );
                }
            }
            if let Some(p) = &results[k] {
                assert!(merged.satisfied_by(&p.waves), "{backend} (seed {seed})");
            }
        }
    }
    let oracle_stats = engines[0].stats();
    for (j, backend) in engines.iter().zip(&backends) {
        let stats = j.stats();
        assert_eq!(oracle_stats.successes, stats.successes, "{backend}");
        assert_eq!(oracle_stats.conflicts, stats.conflicts, "{backend}");
        assert_eq!(oracle_stats.unsatisfied, stats.unsatisfied, "{backend}");
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

/// z = AND of three 2-input XOR pairs: the necessary-value fixpoint
/// assigns nothing, and a completion candidate satisfies `z` stable 1
/// with probability (1/8)^3 (both inputs of a pair stable and
/// different), so hits land in random groups of a multi-group call, on
/// any pass.
fn sparse_parity() -> (Circuit, Assignments) {
    let mut b = CircuitBuilder::new("sparse");
    let mut pairs = Vec::new();
    for k in 0..3 {
        let x = b.input(format!("x{k}"));
        let y = b.input(format!("y{k}"));
        pairs.push(b.gate(format!("p{k}"), GateKind::Xor, &[x, y]));
    }
    let z = b.gate("z", GateKind::And, &pairs);
    b.mark_output(z);
    let c = b.finish().unwrap();
    let mut req = Assignments::new();
    req.require(z, Triple::STABLE1).unwrap();
    (c, req)
}

/// The completion counters one packed call must report, derived from the
/// scalar oracle's counters for the same call. The scalar engine stops at
/// the first satisfying candidate `c` (`completion_attempts` = `c + 1`)
/// or walks all `64 · groups` candidates on a miss; the packed engine
/// evaluates 4 groups per pass and stops after the pass holding `c`.
fn packed_completion_counts(scalar: &JustifyStats, groups: usize) -> (usize, usize) {
    if scalar.completion_attempts == 0 {
        return (0, 0);
    }
    let groups_run = if scalar.lane_hits == 1 {
        let group = (scalar.completion_attempts - 1) / 64;
        (group / 4 + 1) * 4
    } else {
        assert_eq!(scalar.completion_attempts, 64 * groups, "a full miss");
        groups
    };
    let groups_run = groups_run.min(groups);
    (groups_run.div_ceil(4), 64 * groups_run)
}

#[test]
fn multi_pass_completion_agrees_with_the_scalar_oracle() {
    // attempts 1: one pass; 4: one full pass; 5: a full pass plus a
    // partial one whose unused groups are masked; 9: three passes.
    let (sparse, sparse_req) = sparse_parity();
    let s27 = pdf_netlist::iscas::s27();
    let paths = PathEnumerator::new(&s27).with_cap(300).enumerate();
    let (faults, _) = FaultList::build(&s27, &paths.store);
    let mut cases: Vec<(&Circuit, &Assignments)> = vec![(&sparse, &sparse_req)];
    cases.extend(faults.iter().map(|e| (&s27, &e.assignments)));
    let mut late_hits = 0usize;
    for attempts in [1u32, 4, 5, 9] {
        for seed in 0..40u64 {
            for &(c, req) in &cases {
                let mut scalar = Justifier::new(c, seed)
                    .with_attempts(attempts)
                    .with_backend(SimBackend::Scalar);
                let mut packed = Justifier::new(c, seed).with_attempts(attempts);
                let s = scalar.justify(req);
                let p = packed.justify(req);
                assert_eq!(
                    s.as_ref().map(|r| &r.test),
                    p.as_ref().map(|r| &r.test),
                    "witness, attempts {attempts}, seed {seed}"
                );
                assert_eq!(scalar.rng_state(), packed.rng_state());
                let (ss, ps) = (scalar.stats(), packed.stats());
                assert_eq!(
                    (ss.lane_hits, ss.conflicts, ss.unsatisfied),
                    (ps.lane_hits, ps.conflicts, ps.unsatisfied)
                );
                assert_eq!(ss.packed_blocks, 0);
                let (blocks, candidates) = packed_completion_counts(&ss, attempts as usize);
                assert_eq!(
                    (ps.packed_blocks, ps.completion_attempts),
                    (blocks, candidates),
                    "packed passes, attempts {attempts}, seed {seed}"
                );
                late_hits += usize::from(ss.lane_hits == 1 && ss.completion_attempts > 256);
            }
        }
    }
    assert!(late_hits > 0, "some call must hit after its first pass");
}

#[test]
fn a_budget_exhausted_between_passes_aborts_both_engines() {
    // z = AND(XOR(x, y), XNOR(x, y)) stable 1 is unsatisfiable, yet no
    // single input value violates it: the fixpoint leaves every slot
    // open and every completion candidate misses. Polls 1 and 2 are the
    // call entry and the completion start; poll 3 is the first one
    // between groups (scalar) or passes (packed), and fires.
    let mut b = CircuitBuilder::new("never");
    let x = b.input("x");
    let y = b.input("y");
    let (x1, x2) = (b.branch("x1", x), b.branch("x2", x));
    let (y1, y2) = (b.branch("y1", y), b.branch("y2", y));
    let p = b.gate("p", GateKind::Xor, &[x1, y1]);
    let q = b.gate("q", GateKind::Xnor, &[x2, y2]);
    let z = b.gate("z", GateKind::And, &[p, q]);
    b.mark_output(z);
    let c = b.finish().unwrap();
    let mut req = Assignments::new();
    req.require(z, Triple::STABLE1).unwrap();
    let mut states = Vec::new();
    for (backend, groups_run) in [(SimBackend::Scalar, 1), (SimBackend::Packed, 4)] {
        let budget = RunBudget::unlimited().and_cancel(CancelToken::cancel_after_polls(3));
        let mut j = Justifier::new(&c, 7)
            .with_attempts(9)
            .with_backend(backend)
            .with_budget(budget.clone());
        assert!(j.justify(&req).is_none(), "{backend}");
        assert!(budget.already_exhausted(), "{backend}");
        let stats = j.stats();
        // Aborted, not a fixpoint conflict or a failed final check, and
        // cut after the first group (scalar) or pass (packed).
        assert_eq!((stats.conflicts, stats.unsatisfied), (0, 0), "{backend}");
        assert_eq!(stats.completion_attempts, 64 * groups_run, "{backend}");
        states.push(j.rng_state());
    }
    assert_eq!(
        states[0], states[1],
        "both engines drew the same fill words"
    );
}

/// 90 inputs `x0..x89` into `g = AND(..)` and `h = OR(..)`, plus
/// `y = NOR(x85, x86)`. A requirement on `g` or `h` has all 90 inputs in
/// its cone: 180 open slots, more than one 128-slot probe pass.
fn wide_cone() -> (Circuit, [LineId; 3]) {
    let mut b = CircuitBuilder::new("wide");
    let inputs: Vec<LineId> = (0..90).map(|k| b.input(format!("x{k}"))).collect();
    let mut to_g = Vec::new();
    let mut to_h = Vec::new();
    let mut to_y = Vec::new();
    for (k, &x) in inputs.iter().enumerate() {
        to_g.push(b.branch(format!("x{k}g"), x));
        to_h.push(b.branch(format!("x{k}h"), x));
        if k == 85 || k == 86 {
            to_y.push(b.branch(format!("x{k}y"), x));
        }
    }
    let g = b.gate("g", GateKind::And, &to_g);
    let h = b.gate("h", GateKind::Or, &to_h);
    let y = b.gate("y", GateKind::Nor, &to_y);
    for out in [g, h, y] {
        b.mark_output(out);
    }
    (b.finish().unwrap(), [g, h, y])
}

#[test]
fn probe_fixpoint_spans_several_passes_and_agrees_with_the_oracle() {
    let (c, [g, h, y]) = wide_cone();
    let req = |items: &[(LineId, Triple)]| {
        let mut a = Assignments::new();
        for &(line, t) in items {
            a.require(line, t).unwrap();
        }
        a
    };
    // (requirement, fixpoint passes on scalar, on packed; None = unchecked)
    let cases = [
        // Nothing is forced: one sweep, two probe passes.
        (req(&[(g, Triple::STABLE0)]), Some((1, 2))),
        (req(&[(h, Triple::STABLE1)]), Some((1, 2))),
        // Every slot is forced, across both passes of the first sweep.
        (req(&[(g, Triple::STABLE1)]), None),
        (req(&[(h, Triple::STABLE0)]), None),
        (req(&[(g, Triple::RISING)]), None),
        // x85 = 1 is forced by `g` and x85 = 0 by `y`: a conflict in the
        // second pass.
        (req(&[(g, Triple::STABLE1), (y, Triple::STABLE1)]), None),
        // Compatible: `y` pins x85 and x86 to 0, `h` falls.
        (req(&[(h, Triple::FALLING), (y, Triple::STABLE1)]), None),
    ];
    let mut multi_pass_sweeps = 0;
    for seed in [1u64, 7, 2002] {
        for (a, passes) in &cases {
            let mut scalar = Justifier::new(&c, seed).with_backend(SimBackend::Scalar);
            let mut packed = Justifier::new(&c, seed);
            let s = scalar.justify(a);
            let p = packed.justify(a);
            assert_eq!(s.is_some(), p.is_some(), "{a} (seed {seed})");
            assert_eq!(
                s.as_ref().map(|r| &r.test),
                p.as_ref().map(|r| &r.test),
                "{a} (seed {seed})"
            );
            if let Some(p) = &p {
                assert!(a.satisfied_by(&p.waves), "{a} (seed {seed})");
            }
            let (ss, ps) = (scalar.stats(), packed.stats());
            assert_eq!(
                (ss.conflicts, ss.unsatisfied),
                (ps.conflicts, ps.unsatisfied),
                "{a} (seed {seed})"
            );
            assert!(
                ps.fixpoint_passes >= 2,
                "{a}: {} passes",
                ps.fixpoint_passes
            );
            if let Some(want) = passes {
                assert_eq!((ss.fixpoint_passes, ps.fixpoint_passes), *want, "{a}");
                multi_pass_sweeps += 1;
            }
        }
    }
    assert!(multi_pass_sweeps > 0);
    // The conflicting pair really conflicts.
    let mut j = Justifier::new(&c, 1);
    assert!(j.justify(&cases[5].0).is_none());
    assert_eq!(j.stats().conflicts, 1);
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
