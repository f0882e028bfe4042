//! Cross-cell invariant checkers.
//!
//! Each checker consumes the full observation list and yields
//! [`Violation`]s naming the witnesses. The five families:
//!
//! * **ident** — cells that differ only in throughput axes (backend, tile
//!   width, an unexhausted budget, run mode) must produce byte-identical
//!   test text and detection totals.
//! * **kmono** — under the uncompacted heuristic the generated tests are a
//!   function of set 0 alone, so cells differing only in `k` must produce
//!   identical test text and detection totals. (For compacted heuristics
//!   the paper's claim is statistical, not exact — checking it as an
//!   invariant would make the harness flaky, so it is not checked.)
//! * **resume** — a cancelled-at-a-checkpoint run, resumed, must equal the
//!   uninterrupted run byte for byte.
//! * **learning** — static learning only removes proven-untestable faults:
//!   the learning-off population must be a superset of the learning-on
//!   population, and the off-only faults must go undetected.
//! * **chaos** — a cell run under injected I/O faults (transient errors,
//!   torn checkpoint writes) must heal through retries and recovery and
//!   finish byte-identical to its clean twin, with no run-level error.
//! * **sensitize** — the static sensitizability pass only pre-eliminates
//!   provably false faults: the off population ⊇ the on population, the
//!   off-only faults go undetected in the off cell, and the in-cell
//!   exact-search audit found no eliminated-but-testable fault.

use std::collections::BTreeMap;

use pdf_atpg::Compaction;

use crate::cell::{CellConfig, CellObservation, RunMode};

/// The invariant families.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Invariant {
    /// Throughput axes never change results.
    Ident,
    /// Uncompacted generation is independent of the set count `k`.
    KMonotonic,
    /// Cancel + checkpoint + resume equals uninterrupted.
    Resume,
    /// Learning removes only proven-untestable faults.
    Learning,
    /// Injected I/O faults heal without changing results.
    Chaos,
    /// Sensitizability pre-elimination removes only provably false faults.
    Sensitize,
}

impl Invariant {
    /// All families, report order.
    pub const ALL: [Invariant; 6] = [
        Invariant::Ident,
        Invariant::KMonotonic,
        Invariant::Resume,
        Invariant::Learning,
        Invariant::Chaos,
        Invariant::Sensitize,
    ];

    /// Stable lowercase label
    /// (`ident`/`kmono`/`resume`/`learning`/`chaos`/`sensitize`).
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            Invariant::Ident => "ident",
            Invariant::KMonotonic => "kmono",
            Invariant::Resume => "resume",
            Invariant::Learning => "learning",
            Invariant::Chaos => "chaos",
            Invariant::Sensitize => "sensitize",
        }
    }

    /// Resolves a family from its label.
    #[must_use]
    pub fn from_label(label: &str) -> Option<Invariant> {
        Invariant::ALL.into_iter().find(|i| i.label() == label)
    }
}

/// One invariant failure with its witness cells.
#[derive(Clone, Debug)]
pub struct Violation {
    /// The family that failed.
    pub invariant: Invariant,
    /// Human-readable description of the mismatch.
    pub detail: String,
    /// The cells whose observations disagree (re-running exactly these
    /// cells reproduces the failure).
    pub cells: Vec<CellConfig>,
}

/// The faults-axis component shared by every grouping key: cells under
/// injected faults are compared by the dedicated chaos family, never
/// pooled with clean cells.
fn faults_component(c: &CellConfig) -> &str {
    c.faults.as_deref().unwrap_or("none")
}

/// The grouping key for the identity family: everything that is allowed
/// to change the results.
fn ident_key(c: &CellConfig) -> String {
    format!(
        "{}|{}|k={}|np={}|np0={}|learn={}|sens={}|seed={}|faults={}",
        c.circuit,
        c.compaction.label(),
        c.k,
        c.n_p,
        c.n_p0,
        c.learning,
        c.sensitize,
        c.seed,
        faults_component(c)
    )
}

/// The grouping key for the k family: everything but `k`, restricted to
/// uncompacted cells by the caller.
fn kmono_key(c: &CellConfig) -> String {
    format!(
        "{}|{}|np={}|np0={}|learn={}|sens={}|seed={}|{}|{}|faults={}",
        c.circuit,
        c.compaction.label(),
        c.n_p,
        c.n_p0,
        c.learning,
        c.sensitize,
        c.seed,
        c.sim_options().label(),
        c.run_mode.label(),
        faults_component(c)
    )
}

/// The grouping key for the learning family: everything but the learning
/// switch.
fn learning_key(c: &CellConfig) -> String {
    format!(
        "{}|{}|k={}|np={}|np0={}|sens={}|seed={}|{}|{}|budget={:?}|faults={}",
        c.circuit,
        c.compaction.label(),
        c.k,
        c.n_p,
        c.n_p0,
        c.sensitize,
        c.seed,
        c.sim_options().label(),
        c.run_mode.label(),
        c.budget_minutes,
        faults_component(c)
    )
}

/// The grouping key for the sensitize family: everything but the
/// sensitize switch.
fn sensitize_key(c: &CellConfig) -> String {
    format!(
        "{}|{}|k={}|np={}|np0={}|learn={}|seed={}|{}|{}|budget={:?}|faults={}",
        c.circuit,
        c.compaction.label(),
        c.k,
        c.n_p,
        c.n_p0,
        c.learning,
        c.seed,
        c.sim_options().label(),
        c.run_mode.label(),
        c.budget_minutes,
        faults_component(c)
    )
}

fn groups<F>(observations: &[CellObservation], key: F) -> BTreeMap<String, Vec<&CellObservation>>
where
    F: Fn(&CellConfig) -> String,
{
    let mut map: BTreeMap<String, Vec<&CellObservation>> = BTreeMap::new();
    for o in observations {
        map.entry(key(&o.config)).or_default().push(o);
    }
    map
}

/// ident: every cell in a throughput group must match the group's first
/// cell byte for byte.
#[must_use]
pub fn check_ident(observations: &[CellObservation]) -> Vec<Violation> {
    let mut violations = Vec::new();
    for (key, group) in groups(observations, ident_key) {
        let Some((reference, rest)) = group.split_first() else {
            continue;
        };
        for o in rest {
            if o.tests_text != reference.tests_text {
                violations.push(Violation {
                    invariant: Invariant::Ident,
                    detail: format!(
                        "group `{key}`: tests differ between [{}] ({} tests) and [{}] ({} tests)",
                        reference.config.label(),
                        reference.tests_text.lines().count(),
                        o.config.label(),
                        o.tests_text.lines().count()
                    ),
                    cells: vec![reference.config.clone(), o.config.clone()],
                });
            } else if o.detected_total != reference.detected_total {
                violations.push(Violation {
                    invariant: Invariant::Ident,
                    detail: format!(
                        "group `{key}`: detected_total {} vs {} with identical tests",
                        reference.detected_total, o.detected_total
                    ),
                    cells: vec![reference.config.clone(), o.config.clone()],
                });
            }
        }
    }
    violations
}

/// kmono: uncompacted cells differing only in `k` must agree exactly.
#[must_use]
pub fn check_kmono(observations: &[CellObservation]) -> Vec<Violation> {
    let uncompacted: Vec<CellObservation> = observations
        .iter()
        .filter(|o| o.config.compaction == Compaction::Uncompacted)
        .cloned()
        .collect();
    let mut violations = Vec::new();
    for (key, mut group) in groups(&uncompacted, kmono_key) {
        group.sort_by_key(|o| o.config.k);
        let Some((reference, rest)) = group.split_first() else {
            continue;
        };
        for o in rest {
            if o.tests_text != reference.tests_text || o.detected_total != reference.detected_total
            {
                violations.push(Violation {
                    invariant: Invariant::KMonotonic,
                    detail: format!(
                        "group `{key}`: uncompacted generation depends on k — \
                         k={} gives {} tests / {} detected, k={} gives {} tests / {} detected",
                        reference.config.k,
                        reference.tests_text.lines().count(),
                        reference.detected_total,
                        o.config.k,
                        o.tests_text.lines().count(),
                        o.detected_total
                    ),
                    cells: vec![reference.config.clone(), o.config.clone()],
                });
            }
        }
    }
    violations
}

/// resume: per-cell, the cancelled-then-resumed composite must equal the
/// uninterrupted run. Run-level errors (resume rejection, unreadable
/// checkpoint) are violations too.
#[must_use]
pub fn check_resume(observations: &[CellObservation]) -> Vec<Violation> {
    let mut violations = Vec::new();
    for o in observations {
        if let Some(error) = &o.error {
            violations.push(Violation {
                invariant: Invariant::Resume,
                detail: format!("[{}]: {error}", o.config.label()),
                cells: vec![o.config.clone()],
            });
            continue;
        }
        if !matches!(o.config.run_mode, RunMode::CheckpointResume { .. }) {
            continue;
        }
        let resumed_matches = o.resume_tests_text.as_deref() == Some(o.tests_text.as_str())
            && o.resume_detected_total == Some(o.detected_total);
        if !resumed_matches {
            violations.push(Violation {
                invariant: Invariant::Resume,
                detail: format!(
                    "[{}]: resumed run diverges from uninterrupted run \
                     ({} vs {} tests, {:?} vs {} detected)",
                    o.config.label(),
                    o.resume_tests_text
                        .as_deref()
                        .map_or(0, |t| t.lines().count()),
                    o.tests_text.lines().count(),
                    o.resume_detected_total,
                    o.detected_total
                ),
                cells: vec![o.config.clone()],
            });
        }
    }
    violations
}

/// learning: within a pair differing only in the learning switch, the
/// off population ⊇ on population, and every fault learning eliminated
/// must go undetected in the off cell (learning only ever removes
/// proven-untestable faults).
#[must_use]
pub fn check_learning(observations: &[CellObservation]) -> Vec<Violation> {
    let mut violations = Vec::new();
    for (key, group) in groups(observations, learning_key) {
        let off = group.iter().find(|o| !o.config.learning);
        let on = group.iter().find(|o| o.config.learning);
        let (Some(off), Some(on)) = (off, on) else {
            continue;
        };
        let off_keys: std::collections::BTreeSet<&str> =
            off.fault_keys.iter().map(String::as_str).collect();
        let missing: Vec<&str> = on
            .fault_keys
            .iter()
            .map(String::as_str)
            .filter(|k| !off_keys.contains(k))
            .collect();
        if !missing.is_empty() {
            violations.push(Violation {
                invariant: Invariant::Learning,
                detail: format!(
                    "group `{key}`: learning *added* {} fault(s) absent without it \
                     (first: {})",
                    missing.len(),
                    missing[0]
                ),
                cells: vec![off.config.clone(), on.config.clone()],
            });
            continue;
        }
        let on_keys: std::collections::BTreeSet<&str> =
            on.fault_keys.iter().map(String::as_str).collect();
        let falsely_eliminated: Vec<&str> = off
            .fault_keys
            .iter()
            .enumerate()
            .filter(|(i, k)| !on_keys.contains(k.as_str()) && off.detected[*i])
            .map(|(_, k)| k.as_str())
            .collect();
        if !falsely_eliminated.is_empty() {
            violations.push(Violation {
                invariant: Invariant::Learning,
                detail: format!(
                    "group `{key}`: learning eliminated {} fault(s) the learning-off \
                     cell detects (first: {}) — they are testable, not untestable",
                    falsely_eliminated.len(),
                    falsely_eliminated[0]
                ),
                cells: vec![off.config.clone(), on.config.clone()],
            });
        }
    }
    violations
}

/// chaos: a cell run under injected I/O faults must finish without a
/// run-level error and byte-match its clean twin (the observation whose
/// config differs only by `faults: None`). The matrix restricts the
/// faults axis to healing kinds — transient errors absorbed by retries
/// and torn writes absorbed by previous-generation recovery — so any
/// divergence means the durability machinery leaked into results.
#[must_use]
pub fn check_chaos(observations: &[CellObservation]) -> Vec<Violation> {
    let mut clean: BTreeMap<String, &CellObservation> = BTreeMap::new();
    for o in observations {
        if o.config.faults.is_none() {
            clean.insert(o.config.label(), o);
        }
    }
    let mut violations = Vec::new();
    for o in observations {
        if o.config.faults.is_none() {
            continue;
        }
        if let Some(error) = &o.error {
            violations.push(Violation {
                invariant: Invariant::Chaos,
                detail: format!(
                    "[{}]: injected faults caused a run-level error: {error}",
                    o.config.label()
                ),
                cells: vec![o.config.clone()],
            });
            continue;
        }
        let Some(reference) = clean.get(&o.config.clean_twin().label()) else {
            // The sampler did not land on the clean twin; nothing to
            // compare against (the runner injects twins for sampled
            // chaos cells, so this only happens for hand-built lists).
            continue;
        };
        if o.tests_text != reference.tests_text || o.detected_total != reference.detected_total {
            violations.push(Violation {
                invariant: Invariant::Chaos,
                detail: format!(
                    "[{}]: results diverge from the clean twin under injected faults \
                     ({} vs {} tests, {} vs {} detected)",
                    o.config.label(),
                    o.tests_text.lines().count(),
                    reference.tests_text.lines().count(),
                    o.detected_total,
                    reference.detected_total
                ),
                cells: vec![reference.config.clone(), o.config.clone()],
            });
        }
    }
    violations
}

/// sensitize: the pre-elimination filter may only drop provably false
/// (untestable) faults. Three checks:
///
/// * the in-cell exact-search audit found no eliminated fault that
///   complete search can satisfy ([`CellObservation::sensitize_testable`]);
/// * within a pair differing only in the sensitize switch, the off
///   population ⊇ the on population (filtering is contractive);
/// * every fault the filter eliminated goes undetected in the off cell —
///   a detected elimination means a testable fault was thrown away.
#[must_use]
pub fn check_sensitize(observations: &[CellObservation]) -> Vec<Violation> {
    let mut violations = Vec::new();
    for o in observations {
        if !o.sensitize_testable.is_empty() {
            violations.push(Violation {
                invariant: Invariant::Sensitize,
                detail: format!(
                    "[{}]: exact search proved {} eliminated fault(s) testable (first: {})",
                    o.config.label(),
                    o.sensitize_testable.len(),
                    o.sensitize_testable[0]
                ),
                cells: vec![o.config.clone()],
            });
        }
    }
    for (key, group) in groups(observations, sensitize_key) {
        let off = group.iter().find(|o| !o.config.sensitize);
        let on = group.iter().find(|o| o.config.sensitize);
        let (Some(off), Some(on)) = (off, on) else {
            continue;
        };
        let off_keys: std::collections::BTreeSet<&str> =
            off.fault_keys.iter().map(String::as_str).collect();
        let grown: Vec<&str> = on
            .fault_keys
            .iter()
            .map(String::as_str)
            .filter(|k| !off_keys.contains(k))
            .collect();
        if !grown.is_empty() {
            violations.push(Violation {
                invariant: Invariant::Sensitize,
                detail: format!(
                    "group `{key}`: the sensitize filter *added* {} fault(s) absent \
                     without it (first: {})",
                    grown.len(),
                    grown[0]
                ),
                cells: vec![off.config.clone(), on.config.clone()],
            });
            continue;
        }
        let on_keys: std::collections::BTreeSet<&str> =
            on.fault_keys.iter().map(String::as_str).collect();
        let falsely_eliminated: Vec<&str> = off
            .fault_keys
            .iter()
            .enumerate()
            .filter(|(i, k)| !on_keys.contains(k.as_str()) && off.detected[*i])
            .map(|(_, k)| k.as_str())
            .collect();
        if !falsely_eliminated.is_empty() {
            violations.push(Violation {
                invariant: Invariant::Sensitize,
                detail: format!(
                    "group `{key}`: the sensitize filter eliminated {} fault(s) the \
                     off cell detects (first: {}) — they are testable, not false",
                    falsely_eliminated.len(),
                    falsely_eliminated[0]
                ),
                cells: vec![off.config.clone(), on.config.clone()],
            });
        }
    }
    violations
}

/// Runs all six families over the observations, report order.
#[must_use]
pub fn check_all(observations: &[CellObservation]) -> Vec<Violation> {
    let mut violations = check_ident(observations);
    violations.extend(check_kmono(observations));
    violations.extend(check_resume(observations));
    violations.extend(check_learning(observations));
    violations.extend(check_chaos(observations));
    violations.extend(check_sensitize(observations));
    violations
}
