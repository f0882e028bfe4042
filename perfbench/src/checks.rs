//! Output checks. Every claimed detection is re-simulated by the scalar
//! oracle, the packed kernel is cross-checked against it, and each job's
//! output is digested so repeats and thread counts can be compared byte
//! for byte.

use std::sync::atomic::{AtomicUsize, Ordering};

use pdf_atpg::{AtpgOutcome, SimBackend, TestSet};
use pdf_faults::{FaultEntry, FaultList};
use pdf_netlist::{Circuit, TwoPattern};

use crate::inputs::Inputs;
use crate::pipeline::JobOutput;

/// What one job's checked output amounts to.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Verified {
    /// FNV-1a digest of the emitted test-set text (generation) or of the
    /// detection flags (grading).
    pub digest: u64,
    /// Tests in the final set.
    pub tests: usize,
    /// `P0` faults detected, as re-simulated.
    pub p0: usize,
    /// `P1` faults detected, as re-simulated.
    pub p1: usize,
    /// (aborted primaries + quarantined faults) / primaries targeted.
    pub failed_share: f64,
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Flips the first pattern bit (test by test, input by input, first
/// pattern before second) whose flip changes what the set detects in
/// `faults`, so the corruption is one the checks can observe.
fn corrupt_one_bit(tests: &TestSet, circuit: &Circuit, faults: &FaultList) -> TestSet {
    let before = tests.coverage_with(SimBackend::Scalar, circuit, faults);
    for t in 0..tests.len() {
        for second in [false, true] {
            for k in 0..circuit.inputs().len() {
                let mut all = tests.tests().to_vec();
                let (mut v1, mut v2) = (all[t].first().to_vec(), all[t].second().to_vec());
                let v = if second { &mut v2 } else { &mut v1 };
                v[k] = !v[k];
                all[t] = TwoPattern::new(v1, v2);
                let flipped = TestSet::from_tests(all);
                let after = flipped.coverage_with(SimBackend::Scalar, circuit, faults);
                if after.detected() != before.detected() {
                    return flipped;
                }
            }
        }
    }
    tests.clone()
}

/// Checks a generation job: parses the emitted text back, re-simulates it
/// per target set with the scalar oracle, and requires the oracle, the
/// generator's bookkeeping and the packed coverage to agree fault by
/// fault.
pub fn verify_generated(out: &JobOutput, corrupt: bool) -> Result<Verified, String> {
    let outcome = out.outcome.as_ref().ok_or("no generation outcome")?;
    if outcome.budget_exhausted() {
        return Err("generation stopped on its budget".to_owned());
    }
    let text = if corrupt {
        corrupt_one_bit(outcome.tests(), &out.circuit, out.split.p0()).to_text()
    } else {
        outcome.tests().to_text()
    };
    let emitted = TestSet::from_text(&text).map_err(|e| format!("emitted test set: {e}"))?;
    let mut offset = 0;
    let mut confirmed = Vec::new();
    for (i, set) in out.split.sets().iter().enumerate() {
        let oracle = emitted.coverage_with(SimBackend::Scalar, &out.circuit, set);
        let claimed = &outcome.detected()[offset..offset + set.len()];
        if oracle.detected() != claimed {
            return Err(format!(
                "set {i}: the scalar oracle confirms {} detections, the generator claims {}",
                oracle.detected_count(),
                outcome.detected_in_set(i)
            ));
        }
        if out.coverage[i].detected() != oracle.detected() {
            return Err(format!(
                "set {i}: packed coverage ({}) disagrees with the scalar oracle ({})",
                out.coverage[i].detected_count(),
                oracle.detected_count()
            ));
        }
        confirmed.push(oracle.detected_count());
        offset += set.len();
    }
    Ok(Verified {
        digest: fnv1a(text.bytes()),
        tests: outcome.tests().len(),
        p0: confirmed.first().copied().unwrap_or(0),
        p1: confirmed.get(1).copied().unwrap_or(0),
        failed_share: failed_share(outcome),
    })
}

/// (aborted primaries + quarantined faults) / primaries targeted, where
/// every primary either yields a test or aborts.
pub fn failed_share(outcome: &AtpgOutcome) -> f64 {
    let s = outcome.stats();
    crate::stats::ratio(
        (s.aborted_primaries + s.faults_quarantined) as f64,
        (outcome.tests().len() + s.aborted_primaries) as f64,
    )
}

/// Patterns per chunk of the scalar re-grade: small enough that the
/// chunk copies add nothing visible to the run's peak resident set.
const REGRADE_CHUNK: usize = 2048;

/// Leading patterns the scalar oracle grades against every fault; past
/// them it grades only the detections still to confirm, in blocks this
/// size. A scalar grade of every fault over `grade`'s 131,072 patterns
/// would take about 30 s on two cores, most of it on the faults nothing
/// detects.
const REGRADE_SLICE: usize = 4096;

/// The scalar oracle's detection flags for `faults` over `tests`, graded
/// in chunks on `nproc` threads.
fn scalar_flags(circuit: &Circuit, tests: &[TwoPattern], faults: &FaultList) -> Vec<bool> {
    let chunks: Vec<&[TwoPattern]> = tests.chunks(REGRADE_CHUNK).collect();
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let next = AtomicUsize::new(0);
    let mut detected = vec![false; faults.len()];
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.min(chunks.len()))
            .map(|_| {
                scope.spawn(|| {
                    let mut flags = vec![false; faults.len()];
                    while let Some(chunk) = chunks.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let chunk = TestSet::from_tests(chunk.to_vec());
                        let cov = chunk.coverage_with(SimBackend::Scalar, circuit, faults);
                        for (f, &d) in flags.iter_mut().zip(cov.detected()) {
                            *f |= d;
                        }
                    }
                    flags
                })
            })
            .collect();
        for worker in workers {
            let flags = worker.join().expect("a re-grade worker panicked");
            for (f, d) in detected.iter_mut().zip(flags) {
                *f |= d;
            }
        }
    });
    detected
}

/// A grading job's packed detection flags, one vector per target set.
/// `corrupt` turns the first undetected fault into a claimed detection.
pub fn graded_flags(out: &JobOutput, corrupt: bool) -> Vec<Vec<bool>> {
    let mut flags: Vec<Vec<bool>> = out.coverage.iter().map(|c| c.detected().to_vec()).collect();
    if corrupt {
        if let Some(f) = flags.iter_mut().flatten().find(|f| !**f) {
            *f = true;
        }
    }
    flags
}

/// Digests a grading job's flags. Their correctness is settled once per
/// run by [`regrade_scalar`] on the first job; every later job must
/// repeat the first job's digest.
pub fn verify_graded(out: &JobOutput, inputs: &Inputs, flags: &[Vec<bool>]) -> Verified {
    let count = |s: usize| flags.get(s).map_or(0, |f| f.iter().filter(|&&d| d).count());
    Verified {
        digest: fnv1a(flags.iter().flatten().map(|&d| u8::from(d))),
        tests: out.test_count(inputs),
        p0: count(0),
        p1: count(1),
        failed_share: 0.0,
    }
}

/// Checks packed detection flags against the scalar oracle: every fault
/// they claim must be detected by some pattern of the whole set, and on
/// the first `REGRADE_SLICE` patterns they must claim every fault the
/// oracle finds.
pub fn regrade_scalar(
    out: &JobOutput,
    patterns: &TestSet,
    flags: &[Vec<bool>],
) -> Result<(), String> {
    // Every fault with its set and its index in the set.
    let labelled: Vec<(usize, usize, &FaultEntry)> = out
        .split
        .sets()
        .iter()
        .enumerate()
        .flat_map(|(s, set)| set.iter().enumerate().map(move |(i, e)| (s, i, e)))
        .collect();
    let list = |faults: &[(usize, usize, &FaultEntry)]| {
        FaultList::from_iter(faults.iter().map(|(_, _, e)| (*e).clone()))
    };
    let (head, rest) = patterns.tests().split_at(patterns.len().min(REGRADE_SLICE));
    let mut unconfirmed = Vec::new();
    for (fault, found) in labelled
        .iter()
        .zip(scalar_flags(&out.circuit, head, &list(&labelled)))
    {
        let (s, i, _) = *fault;
        match (found, flags[s][i]) {
            (true, false) => {
                return Err(format!(
                    "set {s}: fault {i} is detected by the first {} patterns under the \
                     scalar oracle, but the packed kernel does not claim it",
                    head.len()
                ))
            }
            (false, true) => unconfirmed.push(*fault),
            _ => {}
        }
    }
    for block in rest.chunks(REGRADE_SLICE) {
        if unconfirmed.is_empty() {
            break;
        }
        let mut found = scalar_flags(&out.circuit, block, &list(&unconfirmed)).into_iter();
        unconfirmed.retain(|_| !found.next().unwrap_or(false));
    }
    match unconfirmed.first() {
        None => Ok(()),
        Some((s, i, _)) => Err(format!(
            "set {s}: the packed kernel claims fault {i} detected ({} unconfirmed claims in \
             all), but no pattern detects it under the scalar oracle",
            unconfirmed.len()
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_differ_on_one_byte() {
        assert_ne!(fnv1a(*b"a"), fnv1a(*b"b"));
    }

    #[test]
    fn the_scalar_regrade_catches_missed_and_false_detections() {
        use crate::args::{Scale, Workload};
        let params = Scale::Smoke.params();
        let inputs = crate::inputs::synthesize(&params, params.stand_in_seed, Workload::Grade, 1);
        let out = crate::pipeline::run_job(
            &inputs,
            &params,
            Workload::Grade,
            &pdf_atpg::AtpgConfig::default(),
            &mut crate::trace::Tracer::new(),
            0,
        )
        .unwrap();
        let patterns = inputs.patterns.as_ref().unwrap();
        let flags = graded_flags(&out, false);
        regrade_scalar(&out, patterns, &flags).unwrap();
        for claim in [true, false] {
            let mut wrong = flags.clone();
            let f = wrong.iter_mut().flatten().find(|f| **f != claim).unwrap();
            *f = claim;
            assert!(
                regrade_scalar(&out, patterns, &wrong).is_err(),
                "claim {claim}"
            );
        }
    }
}
