//! The test generation procedures: the basic single-set generator with its
//! compaction heuristics (paper Sec. 2.2) and the multi-set enrichment
//! procedure (paper Sec. 3.2).
//!
//! Both share one engine. A test is built around a **primary target
//! fault** taken from `P_0`; **secondary target faults** are then folded
//! into the same test one at a time — a secondary candidate is accepted if
//! the justification procedure finds a test satisfying the union of the
//! necessary assignments of everything accepted so far. Under enrichment,
//! candidates are drawn from `P_0` first and only then from `P_1` (or the
//! further sets of a k-set split), so the number of tests stays determined
//! by `P_0` alone while `P_1` detections come for free.
//!
//! # Sequential generation
//!
//! The fault loop follows the paper one primary at a time: make one
//! counted budget poll, pick the next eligible primary, build a test
//! around it against the committed state, then commit the result — sweep
//! the finished test over every fault and drop what it detects. Each
//! build runs a fresh justifier seeded from `(seed, primary)`, so a
//! resumed run re-derives the same builds from the committed flags alone.
//! A build that observes an exhausted budget ends the run without being
//! committed: the finalized set is a prefix of the uninterrupted run's.

use std::cmp::Reverse;
use std::panic::{catch_unwind, AssertUnwindSafe};

use pdf_faults::{Assignments, FaultEntry, FaultList, ImplicationConflict, Implicator};
use pdf_logic::Value;
use pdf_netlist::{Circuit, LineId, SplitMix64};
use pdf_runctl::{Checkpoint, CheckpointPolicy, RunBudget, CHECKPOINT_VERSION};

use pdf_sim::SimBackend;

use crate::testset::ParseTestSetError;
use crate::{BranchGuide, Justified, Justifier, JustifyStats, TargetSplit, TestSet};

/// The compaction heuristic used to order primary and secondary targets
/// (paper Sec. 2.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Compaction {
    /// No secondary targets at all: one primary per test (the paper's
    /// `uncomp` baseline).
    Uncompacted,
    /// Primary and secondary targets in fault-list order. Our fault lists
    /// are sorted longest-first by construction, so to keep this order
    /// genuinely arbitrary it is a deterministic seeded shuffle (the
    /// paper's lists carry enumeration order, which is likewise
    /// uncorrelated by intent).
    Arbitrary,
    /// Longest path first, for both primary and secondary targets.
    LengthBased,
    /// Longest path first for the primary; secondaries minimize the number
    /// of new value components `n_Δ(p_i)` the test must additionally
    /// satisfy. The paper's choice, and the default.
    #[default]
    ValueBased,
}

impl Compaction {
    /// All heuristics, in the paper's table order.
    pub const ALL: [Compaction; 4] = [
        Compaction::Uncompacted,
        Compaction::Arbitrary,
        Compaction::LengthBased,
        Compaction::ValueBased,
    ];

    /// The short name used in the paper's tables.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            Compaction::Uncompacted => "uncomp",
            Compaction::Arbitrary => "arbit",
            Compaction::LengthBased => "length",
            Compaction::ValueBased => "values",
        }
    }
}

/// How an accepted test is revised when a secondary target is added.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SecondaryMode {
    /// Regenerate the test from scratch for the grown requirement union —
    /// the paper's choice (Sec. 2.2): "new values can be specified under
    /// t ... if they are more suitable for detecting p_i".
    #[default]
    Regenerate,
    /// Freeze the input values committed so far and only specify further
    /// ones — the classical dynamic-compaction style of Goel & Rosales
    /// (the paper's reference [8]), kept as an ablation: the paper argues
    /// regeneration detects more secondary targets.
    FreezeValues,
}

impl SecondaryMode {
    /// A short label for reports.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            SecondaryMode::Regenerate => "regenerate",
            SecondaryMode::FreezeValues => "freeze",
        }
    }
}

/// Configuration shared by the basic and enrichment generators.
#[derive(Clone, Debug)]
pub struct AtpgConfig {
    /// Seed for every random choice (justification decisions, the
    /// arbitrary order, leftover input filling). Equal seeds give
    /// bit-identical outcomes.
    pub seed: u64,
    /// The compaction heuristic.
    pub compaction: Compaction,
    /// Randomized 64-candidate completion groups per justification call
    /// (the paper uses one attempt; a few more groups trade run time for
    /// fewer random misses).
    pub justify_attempts: u32,
    /// How secondary targets extend the test under construction.
    pub secondary_mode: SecondaryMode,
    /// The simulation backend the justifier evaluates probes and
    /// completion blocks with. The default is the packed engine; tests set
    /// the scalar oracle here. Both produce identical tests and coverage
    /// for a fixed seed.
    pub sim: SimBackend,
    /// Ignored: the justifier keeps no cone cache. Kept so callers that
    /// still set it compile; it is not part of the checkpoint fingerprint.
    pub cone_cache: usize,
    /// Cooperative time/cancellation budget. An exhausted budget makes the
    /// run stop targeting new faults, drop the build in flight uncommitted,
    /// and finalize the partial test set with
    /// [`AtpgOutcome::budget_exhausted`] set. The run makes one counted
    /// exhaustion poll per primary; builds observe the budget through
    /// non-consuming peek views, so the poll sequence depends only on how
    /// many primaries were targeted.
    pub budget: RunBudget,
    /// Crash-safe checkpointing: when set, run state is persisted
    /// atomically to the policy's file after every primary that brings the
    /// completed-test count at least `every` past the last write (plus
    /// once when the run ends). Feed the file back through a
    /// `run_resumed` call to continue an interrupted run.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Per-fault panic quarantine. When on (the default), a panic raised
    /// while processing one fault — justification, the implication
    /// pre-filter, free-acceptance checks, or the per-test fault
    /// simulation sweep — is caught, attributed to the offending fault,
    /// and recorded in [`AtpgOutcome::quarantined`]; the run continues
    /// with the remaining faults. When off, such panics propagate.
    pub quarantine: bool,
    /// Statically learned implications consulted by the secondary-target
    /// conflict pre-filter. Learned conflicts are real conflicts, so
    /// attaching a table only rejects merge candidates whose justification
    /// was doomed anyway — coverage is never lost, the doomed candidates
    /// just skip the randomized justification attempt (which can shift
    /// later random draws, so equal seeds with and without a table need
    /// not produce identical sets). The checkpoint fingerprint records
    /// the table size when one is set.
    pub learned: Option<std::sync::Arc<pdf_faults::LearnedImplications>>,
    /// SCOAP testability guide. When set, every build's justifier runs
    /// its guided decision search deterministically (hardest line first,
    /// easier value — see [`BranchGuide`]), and the session orders primary
    /// targets hardest-first by summed assignment cost (a stable sort, so
    /// it composes with the compaction heuristics). Changes the random
    /// stream, so the checkpoint fingerprint records the guide's presence.
    pub guide: Option<std::sync::Arc<BranchGuide>>,
    /// Ignored by generation, which builds one test at a time on the
    /// caller's thread. Kept so callers that still set it compile; it is
    /// not part of the checkpoint fingerprint.
    pub threads: usize,
}

impl Default for AtpgConfig {
    fn default() -> AtpgConfig {
        AtpgConfig {
            seed: 2002,
            compaction: Compaction::ValueBased,
            justify_attempts: 1,
            secondary_mode: SecondaryMode::default(),
            sim: SimBackend::default(),
            cone_cache: 0,
            budget: RunBudget::unlimited(),
            checkpoint: None,
            quarantine: true,
            learned: None,
            guide: None,
            threads: 1,
        }
    }
}

/// The configuration facets a checkpoint pins: resuming under a different
/// compaction heuristic, secondary mode, attempt count or backend would
/// silently diverge from the interrupted run, so resume refuses them.
#[must_use]
pub fn config_fingerprint(config: &AtpgConfig) -> String {
    let mut fp = format!(
        "{}:{}:{}:{}",
        config.compaction.label(),
        config.secondary_mode.label(),
        config.justify_attempts,
        config.sim,
    );
    if let Some(table) = &config.learned {
        // A learned table changes which secondaries reach justification
        // (and therefore the random stream); resuming without the same
        // table would diverge. Plain configs keep the historical shape.
        fp.push_str(&format!(":learned={}", table.len()));
    }
    if config.guide.is_some() {
        // The guide reorders primaries and replaces random guided-search
        // decisions; resuming without it would diverge.
        fp.push_str(":scoap");
    }
    fp
}

/// Counters describing a generation run.
#[derive(Clone, Copy, Debug, Default)]
pub struct AtpgStats {
    /// Primary targets that failed justification (not retried).
    pub aborted_primaries: usize,
    /// Secondary candidates accepted via a justification run.
    pub secondary_accepts: usize,
    /// Secondary candidates accepted for free (already satisfied by the
    /// test built so far).
    pub free_accepts: usize,
    /// Secondary candidates rejected by a failed justification.
    pub secondary_rejects: usize,
    /// Secondary candidates rejected because their requirements conflict
    /// with the accumulated union (no justification attempted).
    pub conflict_rejects: usize,
    /// Faults quarantined after panicking mid-processing.
    pub faults_quarantined: usize,
    /// Checkpoint files written (including the final one).
    pub checkpoints_written: usize,
    /// Always 0: builds run one at a time against the committed state, so
    /// none is ever discarded. Kept for callers that still read it and as
    /// a checkpoint counter.
    pub builds_discarded: usize,
    /// Justifier counters.
    pub justify: JustifyStats,
}

impl AtpgStats {
    /// Merges the delta counters a committed build accumulated. The
    /// session-owned counters (`faults_quarantined`,
    /// `checkpoints_written`) are never merged from builds — quarantine
    /// transitions are counted at commit and checkpoints are written
    /// between builds.
    fn absorb_build(&mut self, build: &AtpgStats) {
        self.aborted_primaries += build.aborted_primaries;
        self.secondary_accepts += build.secondary_accepts;
        self.free_accepts += build.free_accepts;
        self.secondary_rejects += build.secondary_rejects;
        self.conflict_rejects += build.conflict_rejects;
        self.justify.absorb(&build.justify);
    }
}

/// A checkpoint refused by a `run_resumed` call: the file does not match
/// the run it is being fed into, or its carried tests do not parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ResumeError {
    /// A pinned facet of the checkpoint disagrees with the current run.
    Mismatch {
        /// Which facet ("circuit", "seed", "fingerprint", ...).
        field: &'static str,
        /// The checkpoint's value.
        expected: String,
        /// The current run's value.
        found: String,
    },
    /// The carried test lines do not parse back into a test set.
    BadTests(ParseTestSetError),
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::Mismatch {
                field,
                expected,
                found,
            } => write!(
                f,
                "checkpoint does not match this run: {field} is `{expected}` in the checkpoint \
                 but `{found}` here"
            ),
            ResumeError::BadTests(e) => write!(f, "checkpoint carries malformed tests: {e}"),
        }
    }
}

impl std::error::Error for ResumeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ResumeError::BadTests(e) => Some(e),
            ResumeError::Mismatch { .. } => None,
        }
    }
}

/// The result of a generation run over one or more target sets.
#[derive(Clone, Debug)]
pub struct AtpgOutcome {
    test_set: TestSet,
    detected: Vec<bool>,
    aborted: Vec<bool>,
    quarantined: Vec<bool>,
    set_sizes: Vec<usize>,
    stats: AtpgStats,
    budget_exhausted: bool,
}

impl AtpgOutcome {
    /// The generated tests.
    #[must_use]
    pub fn tests(&self) -> &TestSet {
        &self.test_set
    }

    /// Per-fault detection flags over the concatenation of the target
    /// sets (set 0 first).
    #[must_use]
    pub fn detected(&self) -> &[bool] {
        &self.detected
    }

    /// Per-fault abort flags (only primaries can abort).
    #[must_use]
    pub fn aborted(&self) -> &[bool] {
        &self.aborted
    }

    /// Per-fault quarantine flags: faults skipped after panicking
    /// mid-processing (the reported skip-list).
    #[must_use]
    pub fn quarantined(&self) -> &[bool] {
        &self.quarantined
    }

    /// Whether the run stopped because its time budget or cancellation
    /// token fired. The test set is then a valid partial result: every
    /// test in it is complete and its detections are real, but undetected
    /// faults were simply never reached.
    #[must_use]
    pub fn budget_exhausted(&self) -> bool {
        self.budget_exhausted
    }

    /// The sizes of the target sets, in order.
    #[must_use]
    pub fn set_sizes(&self) -> &[usize] {
        &self.set_sizes
    }

    /// Number of faults detected within target set `set`.
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range.
    #[must_use]
    pub fn detected_in_set(&self, set: usize) -> usize {
        let (lo, hi) = self.set_range(set);
        self.detected[lo..hi].iter().filter(|&&d| d).count()
    }

    /// Total detected faults across all sets.
    #[must_use]
    pub fn detected_total(&self) -> usize {
        self.detected.iter().filter(|&&d| d).count()
    }

    /// Run counters.
    #[must_use]
    pub fn stats(&self) -> &AtpgStats {
        &self.stats
    }

    fn set_range(&self, set: usize) -> (usize, usize) {
        let lo: usize = self.set_sizes[..set].iter().sum();
        (lo, lo + self.set_sizes[set])
    }
}

/// The basic test generation procedure over a single target set
/// (paper Sec. 2).
///
/// # Example
///
/// ```
/// use pdf_atpg::{AtpgConfig, BasicAtpg, Compaction};
/// use pdf_faults::FaultList;
/// use pdf_netlist::iscas::s27;
/// use pdf_paths::PathEnumerator;
///
/// let circuit = s27();
/// let paths = PathEnumerator::new(&circuit).enumerate();
/// let (faults, _) = FaultList::build(&circuit, &paths.store);
///
/// let outcome = BasicAtpg::new(&circuit)
///     .with_config(AtpgConfig { compaction: Compaction::ValueBased, ..Default::default() })
///     .run(&faults);
/// assert!(outcome.detected_in_set(0) > 0);
/// assert!(outcome.tests().len() <= faults.len());
/// ```
#[derive(Clone, Debug)]
pub struct BasicAtpg<'c> {
    circuit: &'c Circuit,
    config: AtpgConfig,
}

impl<'c> BasicAtpg<'c> {
    /// Creates a generator with the default configuration.
    #[must_use]
    pub fn new(circuit: &'c Circuit) -> BasicAtpg<'c> {
        BasicAtpg {
            circuit,
            config: AtpgConfig::default(),
        }
    }

    /// Replaces the configuration.
    #[must_use]
    pub fn with_config(mut self, config: AtpgConfig) -> BasicAtpg<'c> {
        self.config = config;
        self
    }

    /// Convenience: replaces just the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> BasicAtpg<'c> {
        self.config.seed = seed;
        self
    }

    /// Runs test generation for `targets`.
    #[must_use]
    pub fn run(&self, targets: &FaultList) -> AtpgOutcome {
        Session::new(self.circuit, self.config.clone(), &[targets])
            .run(None)
            .expect("a fresh run cannot fail on resume validation")
    }

    /// Runs test generation for `targets`, continuing from `checkpoint` —
    /// the crash-recovery entry point. For a fixed seed the resumed run
    /// produces the identical test set an uninterrupted run would have.
    ///
    /// # Errors
    ///
    /// [`ResumeError`] when the checkpoint does not belong to this
    /// circuit/configuration/target-set combination.
    pub fn run_resumed(
        &self,
        targets: &FaultList,
        checkpoint: &Checkpoint,
    ) -> Result<AtpgOutcome, ResumeError> {
        Session::new(self.circuit, self.config.clone(), &[targets]).run(Some(checkpoint))
    }
}

/// The proposed test enrichment procedure over a multi-set target split
/// (paper Sec. 3): primaries come from `P_0` only, secondaries from `P_0`
/// first and then from the following sets, so the test count stays
/// determined by `P_0`.
///
/// The compaction heuristic of the underlying generation is the value-based
/// one by default, as selected in the paper.
///
/// # Example
///
/// ```
/// use pdf_atpg::{EnrichmentAtpg, TargetSplit};
/// use pdf_faults::FaultList;
/// use pdf_netlist::iscas::s27;
/// use pdf_paths::PathEnumerator;
///
/// let circuit = s27();
/// let paths = PathEnumerator::new(&circuit).enumerate();
/// let (faults, _) = FaultList::build(&circuit, &paths.store);
/// let split = TargetSplit::by_cumulative_length(&faults, 10);
///
/// let outcome = EnrichmentAtpg::new(&circuit).with_seed(2002).run(&split);
/// // P1 detections come on top of P0's, with tests driven by P0 alone.
/// assert!(outcome.detected_total() >= outcome.detected_in_set(0));
/// ```
#[derive(Clone, Debug)]
pub struct EnrichmentAtpg<'c> {
    circuit: &'c Circuit,
    config: AtpgConfig,
}

impl<'c> EnrichmentAtpg<'c> {
    /// Creates an enrichment generator with the default configuration.
    #[must_use]
    pub fn new(circuit: &'c Circuit) -> EnrichmentAtpg<'c> {
        EnrichmentAtpg {
            circuit,
            config: AtpgConfig::default(),
        }
    }

    /// Replaces the configuration.
    #[must_use]
    pub fn with_config(mut self, config: AtpgConfig) -> EnrichmentAtpg<'c> {
        self.config = config;
        self
    }

    /// Convenience: replaces just the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> EnrichmentAtpg<'c> {
        self.config.seed = seed;
        self
    }

    /// Runs enrichment over the split's sets.
    #[must_use]
    pub fn run(&self, split: &TargetSplit) -> AtpgOutcome {
        let _phase = pdf_telemetry::Span::enter("enrich");
        let sets: Vec<&FaultList> = split.sets().iter().collect();
        Session::new(self.circuit, self.config.clone(), &sets)
            .run(None)
            .expect("a fresh run cannot fail on resume validation")
    }

    /// Runs enrichment over the split's sets, continuing from
    /// `checkpoint` — the crash-recovery entry point. For a fixed seed the
    /// resumed run produces the identical test set an uninterrupted run
    /// would have.
    ///
    /// # Errors
    ///
    /// [`ResumeError`] when the checkpoint does not belong to this
    /// circuit/configuration/target-split combination.
    pub fn run_resumed(
        &self,
        split: &TargetSplit,
        checkpoint: &Checkpoint,
    ) -> Result<AtpgOutcome, ResumeError> {
        let _phase = pdf_telemetry::Span::enter("enrich");
        let sets: Vec<&FaultList> = split.sets().iter().collect();
        Session::new(self.circuit, self.config.clone(), &sets).run(Some(checkpoint))
    }
}

/// The read-only run context: circuit, configuration and the fault
/// population. Nothing in here changes after construction.
struct SessionCtx<'c, 'f> {
    circuit: &'c Circuit,
    config: AtpgConfig,
    /// All faults, set 0 first.
    faults: Vec<&'f FaultEntry>,
    /// First index of each set in `faults` (plus a final sentinel).
    set_starts: Vec<usize>,
    /// Primary (and arbit/length secondary) order over set-0 indices.
    primary_order: Vec<usize>,
}

impl SessionCtx<'_, '_> {
    fn set_sizes(&self) -> Vec<usize> {
        self.set_starts.windows(2).map(|w| w[1] - w[0]).collect()
    }
}

/// The committed run state. Mutated only between builds, when one build
/// result is committed; those boundaries are the checkpointable points.
struct SessionState {
    detected: Vec<bool>,
    aborted: Vec<bool>,
    quarantined: Vec<bool>,
    stats: AtpgStats,
    /// Tests pushed so far (checkpoint interval anchor).
    completed: usize,
    /// `completed` as of the last checkpoint write.
    last_checkpoint_at: usize,
    /// A checkpoint write already failed and was reported (warn once).
    checkpoint_warned: bool,
    /// Generation of the last checkpoint written (or resumed from); the
    /// next save stamps `generation + 1`.
    checkpoint_generation: u64,
}

/// Internal engine shared by both public procedures.
struct Session<'c, 'f> {
    ctx: SessionCtx<'c, 'f>,
    state: SessionState,
}

/// What one build produced.
enum BuildOutcome {
    /// A finished test (to be swept and pushed at commit).
    Test(Justified),
    /// The primary failed justification: abort it.
    Aborted,
    /// The primary panicked mid-justification and quarantined itself;
    /// the detail is in the build's quarantine log.
    PrimaryQuarantined,
    /// The build observed an exhausted budget (through its peek view)
    /// and stopped early. It ends the run uncommitted: a truncated build
    /// says nothing reproducible about its primary.
    Cut,
}

/// A build's result, committed only if it is not [`BuildOutcome::Cut`].
struct BuildResult {
    primary: usize,
    outcome: BuildOutcome,
    /// Delta counters this build accumulated.
    stats: AtpgStats,
    /// Faults this build saw panic, with the context string the commit
    /// reports.
    quarantined: Vec<(usize, String)>,
}

/// Decorrelated per-primary justifier seed: every build draws from its
/// own stream, so a build's randomness depends only on the run seed and
/// its primary — never on which builds ran before it.
fn build_seed(seed: u64, primary: usize) -> u64 {
    seed ^ (primary as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// One build: the per-fault pipeline (primary justification, secondary
/// folding) evaluated against the committed state. Local flag copies let
/// a cut build leave the committed state untouched.
struct Build<'a, 'c, 'f> {
    ctx: &'a SessionCtx<'c, 'f>,
    /// Committed abort flags (builds never abort other faults).
    aborted: &'a [bool],
    detected: Vec<bool>,
    quarantined: Vec<bool>,
    justifier: Justifier<'c>,
    /// Non-consuming peek view of the run budget.
    budget: RunBudget,
    stats: AtpgStats,
    /// Locally observed fault panics, in observation order.
    quarantine_log: Vec<(usize, String)>,
    /// The peeked budget fired mid-build: the result must become `Cut`.
    cut: bool,
    /// The implication pre-filter's engine for the current requirement
    /// union (`Err` if the union itself conflicts), built on first use.
    /// Reset to `None` whenever the union changes; candidates are probed
    /// on it and undone, instead of seeding a fresh engine each.
    prefilter: Option<Result<Implicator<'a>, ImplicationConflict>>,
}

/// Builds a test around `primary`. The result depends only on `ctx`,
/// the committed flags in `state` and `primary`.
fn run_build<'c>(ctx: &SessionCtx<'c, '_>, state: &SessionState, primary: usize) -> BuildResult {
    let mut build = Build::new(ctx, state, primary);
    let outcome = build.run(primary);
    let mut stats = build.stats;
    stats.justify = build.justifier.stats();
    BuildResult {
        primary,
        outcome,
        stats,
        quarantined: build.quarantine_log,
    }
}

impl<'a, 'c, 'f> Build<'a, 'c, 'f> {
    /// A build around `primary` against the committed `state`.
    fn new(ctx: &'a SessionCtx<'c, 'f>, state: &'a SessionState, primary: usize) -> Self {
        let budget = ctx.config.budget.peek_view();
        // A fresh justifier per build: its RNG stream is a function of the
        // primary alone.
        let mut justifier = Justifier::new(ctx.circuit, build_seed(ctx.config.seed, primary))
            .with_attempts(ctx.config.justify_attempts)
            .with_backend(ctx.config.sim)
            .with_budget(budget.clone());
        if let Some(guide) = &ctx.config.guide {
            justifier = justifier.with_guide(guide.clone());
        }
        Build {
            ctx,
            aborted: &state.aborted,
            detected: state.detected.clone(),
            quarantined: state.quarantined.clone(),
            justifier,
            budget,
            stats: AtpgStats::default(),
            quarantine_log: Vec::new(),
            cut: false,
            prefilter: None,
        }
    }
}

impl<'c> Build<'_, 'c, '_> {
    fn run(&mut self, primary: usize) -> BuildOutcome {
        let req = self.ctx.faults[primary].assignments.clone();
        let Some(justified) = self.justify_guarded(primary, &req, None) else {
            if self.quarantined[primary] {
                return BuildOutcome::PrimaryQuarantined;
            }
            if self.budget.exhausted() {
                // A budget-truncated search says nothing about the
                // fault: the build is dropped and the fault stays
                // unaborted for the resumed run.
                return BuildOutcome::Cut;
            }
            self.stats.aborted_primaries += 1;
            return BuildOutcome::Aborted;
        };
        let mut union = req;
        // Under the freeze-values mode, input values committed so far
        // are pinned for every later secondary (Goel-Rosales style).
        let mut frozen: Vec<(LineId, Value, Value)> =
            if matches!(self.ctx.config.secondary_mode, SecondaryMode::FreezeValues) {
                justified.assignment.clone()
            } else {
                Vec::new()
            };
        let mut current = justified;

        if !matches!(self.ctx.config.compaction, Compaction::Uncompacted) {
            self.extend_with_secondaries(primary, &mut union, &mut current, &mut frozen);
        }
        if self.cut || self.budget.exhausted() {
            return BuildOutcome::Cut;
        }
        BuildOutcome::Test(current)
    }

    /// Marks fault `i` quarantined for the rest of this build and logs it
    /// for the commit, which owns the transition (counter, warning line).
    fn quarantine_fault(&mut self, i: usize, context: &str) {
        if self.quarantined[i] {
            return;
        }
        self.quarantined[i] = true;
        self.quarantine_log.push((i, context.to_owned()));
    }

    /// A justification call attributable to fault `i`: under quarantine,
    /// a panic inside the justifier quarantines the fault and reads as a
    /// failed call.
    fn justify_guarded(
        &mut self,
        i: usize,
        req: &Assignments,
        frozen: Option<&[(LineId, Value, Value)]>,
    ) -> Option<Justified> {
        let run = |justifier: &mut Justifier<'c>| match frozen {
            None => justifier.justify(req),
            Some(pins) => justifier.justify_seeded(req, pins),
        };
        if !self.ctx.config.quarantine {
            return run(&mut self.justifier);
        }
        let justifier = &mut self.justifier;
        match catch_unwind(AssertUnwindSafe(|| {
            // The `pool.build` failpoint, keyed by fault index: an
            // injected panic quarantines exactly that fault. Feeds the
            // regular quarantine path below.
            if pdf_chaos::evaluate_keyed(pdf_chaos::sites::POOL_BUILD, i as u64).is_some() {
                pdf_telemetry::count(pdf_telemetry::counters::FAILPOINTS_HIT, 1);
                panic!("injected failpoint {}@{i}", pdf_chaos::sites::POOL_BUILD);
            }
            run(justifier)
        })) {
            Ok(result) => result,
            Err(payload) => {
                let message = pdf_sim::panic_message(payload.as_ref()).to_owned();
                self.quarantine_fault(i, &format!("justification ({message})"));
                None
            }
        }
    }

    /// Folds secondary targets into the current test, set by set.
    fn extend_with_secondaries(
        &mut self,
        primary: usize,
        union: &mut Assignments,
        current: &mut Justified,
        frozen: &mut Vec<(LineId, Value, Value)>,
    ) {
        let set_count = self.ctx.set_starts.len() - 1;
        for set in 0..set_count {
            // Per the paper, faults of a later set are considered only
            // after all faults of the earlier sets.
            match self.ctx.config.compaction {
                Compaction::Uncompacted => unreachable!("checked by caller"),
                Compaction::Arbitrary | Compaction::LengthBased => {
                    self.ordered_pass(set, primary, union, current, frozen);
                }
                Compaction::ValueBased => {
                    self.value_based_pass(set, primary, union, current, frozen);
                }
            }
        }
    }

    /// Secondary candidates in a fixed order (fault-list order for the
    /// length-based heuristic, the shuffled order for the arbitrary one).
    fn ordered_pass(
        &mut self,
        set: usize,
        primary: usize,
        union: &mut Assignments,
        current: &mut Justified,
        frozen: &mut Vec<(LineId, Value, Value)>,
    ) {
        let (lo, hi) = (self.ctx.set_starts[set], self.ctx.set_starts[set + 1]);
        let order: Vec<usize> = if set == 0 {
            self.ctx.primary_order.clone()
        } else {
            (lo..hi).collect()
        };
        for i in order {
            if self.budget.exhausted() {
                self.cut = true; // the build is dropped uncommitted
                return;
            }
            if self.eligible_secondary(i, primary) {
                self.try_candidate(i, union, current, frozen);
            }
        }
    }

    /// The value-based heuristic: repeatedly take the compatible candidate
    /// with the fewest new value components `n_Δ`; Δ-sets stay valid
    /// between accepts because the union only changes on accept.
    fn value_based_pass(
        &mut self,
        set: usize,
        primary: usize,
        union: &mut Assignments,
        current: &mut Justified,
        frozen: &mut Vec<(LineId, Value, Value)>,
    ) {
        let (lo, hi) = (self.ctx.set_starts[set], self.ctx.set_starts[set + 1]);
        let mut considered = vec![false; hi - lo];
        loop {
            if self.budget.exhausted() {
                self.cut = true; // the build is dropped uncommitted
                return;
            }
            // Rank all unconsidered candidates by n_Δ against the current
            // union; conflicting candidates are rejected outright.
            let mut ranked: Vec<(usize, usize)> = Vec::new();
            for i in lo..hi {
                if considered[i - lo] || !self.eligible_secondary(i, primary) {
                    continue;
                }
                match union.delta_count(&self.ctx.faults[i].assignments) {
                    Some(delta) => ranked.push((delta, i)),
                    None => {
                        considered[i - lo] = true;
                        self.stats.conflict_rejects += 1;
                    }
                }
            }
            ranked.sort_unstable();
            let mut accepted = false;
            for (_, i) in ranked {
                considered[i - lo] = true;
                if self.try_candidate(i, union, current, frozen) {
                    accepted = true;
                    break; // union changed: recompute the Δ ranking
                }
            }
            if !accepted {
                break;
            }
        }
    }

    /// Do `union` and candidate requirements `a` imply a contradiction?
    /// Probes `a` on the union's kept implicator — built on first use
    /// after every union change — and undoes it; the verdict equals that
    /// of a fresh implicator seeded with `union ∪ a`.
    fn prefilter_conflicts(&mut self, union: &Assignments, a: &Assignments) -> bool {
        pdf_telemetry::count(pdf_telemetry::counters::PREFILTER_PROBES, 1);
        let (circuit, learned) = (self.ctx.circuit, self.ctx.config.learned.as_deref());
        match self
            .prefilter
            .get_or_insert_with(|| Implicator::from_assignments_with(circuit, union, learned))
        {
            Ok(implicator) => implicator.conflicts_with(a),
            // Every superset of a contradictory union contradicts too.
            Err(_) => true,
        }
    }

    fn eligible_secondary(&self, i: usize, primary: usize) -> bool {
        i != primary && !self.detected[i] && !self.aborted[i] && !self.quarantined[i]
    }

    /// Attempts to add fault `i` to the current test. Returns `true` when
    /// the union of requirements changed (the test was regenerated).
    fn try_candidate(
        &mut self,
        i: usize,
        union: &mut Assignments,
        current: &mut Justified,
        frozen: &mut Vec<(LineId, Value, Value)>,
    ) -> bool {
        let entry = self.ctx.faults[i];
        let a = &entry.assignments;
        // Free acceptance: the test built so far already detects it. Its
        // requirements still join the union so that later regenerations
        // keep detecting it; if that grows the union, the caller must
        // recompute its Δ ranking (the paper recomputes Δ per selection).
        let satisfied = if self.ctx.config.quarantine {
            let waves = &current.waves;
            match catch_unwind(AssertUnwindSafe(|| a.satisfied_by(waves))) {
                Ok(satisfied) => satisfied,
                Err(payload) => {
                    let message = pdf_sim::panic_message(payload.as_ref()).to_owned();
                    self.quarantine_fault(i, &format!("the free-acceptance check ({message})"));
                    return false;
                }
            }
        } else {
            a.satisfied_by(&current.waves)
        };
        if satisfied {
            let mut grew = false;
            if let Some(merged) = union.merged(a) {
                grew = merged != *union;
                *union = merged;
            }
            if grew {
                self.prefilter = None;
            }
            self.detected[i] = true;
            self.stats.free_accepts += 1;
            pdf_telemetry::count(pdf_telemetry::counters::SECONDARY_DETECTED, 1);
            return grew;
        }
        let Some(merged) = union.merged(a) else {
            self.stats.conflict_rejects += 1;
            return false;
        };
        // Implication pre-filter: a contradiction proves no test exists
        // for the merged requirements, so the (much costlier) randomized
        // justification is skipped. Sound — it only rejects candidates
        // justification could never accept.
        let conflicting = if self.ctx.config.quarantine {
            match catch_unwind(AssertUnwindSafe(|| self.prefilter_conflicts(union, a))) {
                Ok(conflicting) => conflicting,
                Err(payload) => {
                    // The probe stopped mid-trail: the engine is unusable.
                    self.prefilter = None;
                    let message = pdf_sim::panic_message(payload.as_ref()).to_owned();
                    self.quarantine_fault(i, &format!("the implication pre-filter ({message})"));
                    return false;
                }
            }
        } else {
            self.prefilter_conflicts(union, a)
        };
        if conflicting {
            self.stats.conflict_rejects += 1;
            return false;
        }
        let result = match self.ctx.config.secondary_mode {
            SecondaryMode::Regenerate => self.justify_guarded(i, &merged, None),
            SecondaryMode::FreezeValues => self.justify_guarded(i, &merged, Some(frozen)),
        };
        match result {
            Some(justified) => {
                if matches!(self.ctx.config.secondary_mode, SecondaryMode::FreezeValues) {
                    // Pin the newly committed input values for the rest of
                    // this test's construction.
                    for &(line, v1, v2) in &justified.assignment {
                        if !frozen.iter().any(|&(l, _, _)| l == line) {
                            frozen.push((line, v1, v2));
                        }
                    }
                }
                *union = merged;
                self.prefilter = None;
                *current = justified;
                self.detected[i] = true;
                self.stats.secondary_accepts += 1;
                pdf_telemetry::count(pdf_telemetry::counters::SECONDARY_DETECTED, 1);
                true
            }
            None => {
                // A quarantine mid-call is not a justification verdict.
                if !self.quarantined[i] {
                    self.stats.secondary_rejects += 1;
                }
                false
            }
        }
    }
}

impl<'c, 'f> Session<'c, 'f> {
    fn new(circuit: &'c Circuit, config: AtpgConfig, sets: &[&'f FaultList]) -> Session<'c, 'f> {
        let mut faults = Vec::new();
        let mut set_starts = vec![0usize];
        for set in sets {
            faults.extend(set.iter());
            set_starts.push(faults.len());
        }
        // Decorrelate the shuffle stream from the justifier's streams.
        let mut rng = SplitMix64::new(config.seed ^ 0x0A1B_2C3D_4E5F_6071);
        let mut primary_order: Vec<usize> = (0..set_starts[1]).collect();
        if matches!(config.compaction, Compaction::Arbitrary) {
            // Fisher-Yates with the deterministic generator.
            for i in (1..primary_order.len()).rev() {
                let j = rng.next_below(i + 1);
                primary_order.swap(i, j);
            }
        }
        if let Some(guide) = &config.guide {
            // SCOAP selection: hardest primaries first (largest summed
            // assignment cost). The sort is stable, so within equal
            // difficulty the compaction heuristic's order survives — the
            // shuffle above still draws the same RNG either way.
            primary_order
                .sort_by_cached_key(|&i| Reverse(guide.assignment_cost(&faults[i].assignments)));
        }
        let n = faults.len();
        Session {
            ctx: SessionCtx {
                circuit,
                config,
                faults,
                set_starts,
                primary_order,
            },
            state: SessionState {
                detected: vec![false; n],
                aborted: vec![false; n],
                quarantined: vec![false; n],
                stats: AtpgStats::default(),
                completed: 0,
                last_checkpoint_at: 0,
                checkpoint_warned: false,
                checkpoint_generation: 0,
            },
        }
    }

    fn run(self, resume: Option<&Checkpoint>) -> Result<AtpgOutcome, ResumeError> {
        let _phase = pdf_telemetry::Span::enter("generate");
        let Session { ctx, mut state } = self;
        let mut test_set = match resume {
            Some(checkpoint) => apply_resume(&ctx, &mut state, checkpoint)?,
            None => TestSet::new(),
        };
        state.last_checkpoint_at = state.completed;

        let mut stopped = false;
        loop {
            // One counted budget poll per primary: the only place the run
            // consumes polls.
            if ctx.config.budget.exhausted() {
                stopped = true;
                break;
            }
            let Some(primary) = next_primary(&ctx, &state) else {
                break; // natural end: nothing left to target
            };
            pdf_telemetry::count(pdf_telemetry::counters::FAULTS_TARGETED, 1);
            let result = run_build(&ctx, &state, primary);
            if matches!(result.outcome, BuildOutcome::Cut) {
                // The build hit the budget: nothing of it is committed, so
                // the finalized prefix is exactly what an uninterrupted run
                // would have committed by now.
                stopped = true;
                break;
            }
            commit_result(&ctx, &mut state, &mut test_set, result);
            if let Some(policy) = &ctx.config.checkpoint {
                if state.completed - state.last_checkpoint_at >= policy.every {
                    write_checkpoint(&ctx, &mut state, &test_set, false);
                    state.last_checkpoint_at = state.completed;
                }
            }
        }

        if stopped && !ctx.config.budget.already_exhausted() {
            // The cut was observed through a non-latching peek view (a
            // deadline expiring mid-build); consume one counted poll so
            // the outcome and final checkpoint record the exhaustion.
            let _ = ctx.config.budget.exhausted();
        }
        let budget_exhausted = ctx.config.budget.already_exhausted();
        if ctx.config.checkpoint.is_some() {
            write_checkpoint(&ctx, &mut state, &test_set, !budget_exhausted);
        }
        let set_sizes = ctx.set_sizes();
        Ok(AtpgOutcome {
            test_set,
            detected: state.detected,
            aborted: state.aborted,
            quarantined: state.quarantined,
            set_sizes,
            stats: state.stats,
            budget_exhausted,
        })
    }
}

/// The next set-0 fault to build a test around: undetected, not yet
/// tried as a primary, not quarantined; longest-first except under the
/// arbitrary order.
fn next_primary(ctx: &SessionCtx<'_, '_>, state: &SessionState) -> Option<usize> {
    ctx.primary_order
        .iter()
        .copied()
        .find(|&i| !state.detected[i] && !state.aborted[i] && !state.quarantined[i])
}

/// Applies one finished build result to the committed state.
fn commit_result(
    ctx: &SessionCtx<'_, '_>,
    state: &mut SessionState,
    test_set: &mut TestSet,
    result: BuildResult,
) {
    let BuildResult {
        primary,
        outcome,
        stats,
        quarantined,
    } = result;
    for (i, context) in &quarantined {
        commit_quarantine(ctx, state, *i, context);
    }
    state.stats.absorb_build(&stats);
    match outcome {
        BuildOutcome::Cut => unreachable!("cut results end the run before commit"),
        BuildOutcome::Aborted => state.aborted[primary] = true,
        BuildOutcome::PrimaryQuarantined => {}
        BuildOutcome::Test(current) => {
            // Drop every fault the finished test detects (the paper's
            // per-test fault simulation), fanned out over fault chunks.
            commit_sweep(ctx, state, &current.waves);
            debug_assert!(state.detected[primary], "primary must be detected");
            test_set.push(current.test);
            state.completed += 1;
        }
    }
}

/// Marks fault `i` quarantined in the committed state: it panicked
/// mid-processing and is skipped (never targeted, never offered as a
/// secondary, never swept) for the rest of the run. Only the first
/// observation counts and warns.
fn commit_quarantine(ctx: &SessionCtx<'_, '_>, state: &mut SessionState, i: usize, context: &str) {
    if state.quarantined[i] {
        return;
    }
    state.quarantined[i] = true;
    state.stats.faults_quarantined += 1;
    pdf_telemetry::count(pdf_telemetry::counters::FAULTS_QUARANTINED, 1);
    eprintln!(
        "warning: quarantined fault {} after a panic during {context}",
        ctx.faults[i].fault
    );
}

/// The per-test fault simulation sweep at commit, fault panics
/// quarantined.
fn commit_sweep(ctx: &SessionCtx<'_, '_>, state: &mut SessionState, waves: &[pdf_logic::Triple]) {
    if !ctx.config.quarantine {
        for i in pdf_sim::newly_satisfied(waves, &ctx.faults, &state.detected) {
            state.detected[i] = true;
        }
        return;
    }
    let skip: Vec<bool> = state
        .detected
        .iter()
        .zip(&state.quarantined)
        .map(|(&d, &q)| d || q)
        .collect();
    let swept = pdf_sim::newly_satisfied_guarded(waves, &ctx.faults, &skip);
    for i in swept.satisfied {
        state.detected[i] = true;
    }
    for i in swept.panicked {
        commit_quarantine(ctx, state, i, "fault simulation");
    }
}

/// Validates `checkpoint` against this run and installs its state: flags,
/// counters and the completed-test count. Returns the carried test set.
/// Since version 2 no RNG position is carried: every build's stream is
/// re-derived from `(seed, primary)`, so the committed flags alone
/// determine the continuation.
fn apply_resume(
    ctx: &SessionCtx<'_, '_>,
    state: &mut SessionState,
    checkpoint: &Checkpoint,
) -> Result<TestSet, ResumeError> {
    let mismatch = |field: &'static str, expected: String, found: String| {
        Err(ResumeError::Mismatch {
            field,
            expected,
            found,
        })
    };
    if checkpoint.version != CHECKPOINT_VERSION {
        return mismatch(
            "version",
            checkpoint.version.to_string(),
            CHECKPOINT_VERSION.to_string(),
        );
    }
    if checkpoint.circuit != ctx.circuit.name() {
        return mismatch(
            "circuit",
            checkpoint.circuit.clone(),
            ctx.circuit.name().to_owned(),
        );
    }
    if checkpoint.seed != ctx.config.seed {
        return mismatch(
            "seed",
            format!("{:#018x}", checkpoint.seed),
            format!("{:#018x}", ctx.config.seed),
        );
    }
    let fingerprint = config_fingerprint(&ctx.config);
    if checkpoint.fingerprint != fingerprint {
        return mismatch("fingerprint", checkpoint.fingerprint.clone(), fingerprint);
    }
    let set_sizes = ctx.set_sizes();
    if checkpoint.set_sizes != set_sizes {
        return mismatch(
            "set_sizes",
            format!("{:?}", checkpoint.set_sizes),
            format!("{set_sizes:?}"),
        );
    }
    let n = ctx.faults.len();
    for (field, flags) in [
        ("detected", &checkpoint.detected),
        ("aborted", &checkpoint.aborted),
        ("quarantined", &checkpoint.quarantined),
    ] {
        if flags.len() != n {
            return mismatch(
                field,
                format!("{} flags", flags.len()),
                format!("{n} faults"),
            );
        }
    }
    let test_set =
        TestSet::from_text(&checkpoint.tests.join("\n")).map_err(ResumeError::BadTests)?;
    let width = ctx.circuit.inputs().len();
    if let Some(t) = test_set.tests().iter().find(|t| t.len() != width) {
        return mismatch(
            "test width",
            t.len().to_string(),
            format!("{width} circuit inputs"),
        );
    }
    if test_set.len() != checkpoint.completed {
        return mismatch(
            "completed",
            checkpoint.completed.to_string(),
            format!("{} carried tests", test_set.len()),
        );
    }
    state.detected.copy_from_slice(&checkpoint.detected);
    state.aborted.copy_from_slice(&checkpoint.aborted);
    state.quarantined.copy_from_slice(&checkpoint.quarantined);
    state.completed = checkpoint.completed;
    state.checkpoint_generation = checkpoint.generation;
    state.stats.aborted_primaries = checkpoint.counter("aborted_primaries") as usize;
    state.stats.secondary_accepts = checkpoint.counter("secondary_accepts") as usize;
    state.stats.free_accepts = checkpoint.counter("free_accepts") as usize;
    state.stats.secondary_rejects = checkpoint.counter("secondary_rejects") as usize;
    state.stats.conflict_rejects = checkpoint.counter("conflict_rejects") as usize;
    state.stats.faults_quarantined = checkpoint.counter("faults_quarantined") as usize;
    state.stats.checkpoints_written = checkpoint.counter("checkpoints_written") as usize;
    Ok(test_set)
}

/// Writes a checkpoint of the committed state through the configured
/// policy. A
/// refused write is reported once and the run continues — losing
/// crash-recoverability must not fail the run itself.
fn write_checkpoint(
    ctx: &SessionCtx<'_, '_>,
    state: &mut SessionState,
    test_set: &TestSet,
    complete: bool,
) {
    let Some(policy) = &ctx.config.checkpoint else {
        return;
    };
    let checkpoint = Checkpoint {
        version: CHECKPOINT_VERSION,
        generation: state.checkpoint_generation + 1,
        circuit: ctx.circuit.name().to_owned(),
        seed: ctx.config.seed,
        fingerprint: config_fingerprint(&ctx.config),
        set_sizes: ctx.set_sizes(),
        completed: state.completed,
        // Vestigial since version 2: resume re-derives every build's
        // stream from (seed, primary) instead of a carried RNG position.
        rng_state: 0,
        detected: state.detected.clone(),
        aborted: state.aborted.clone(),
        quarantined: state.quarantined.clone(),
        tests: test_set
            .tests()
            .iter()
            .map(crate::testset::test_line)
            .collect(),
        counters: vec![
            (
                "aborted_primaries".to_owned(),
                state.stats.aborted_primaries as u64,
            ),
            (
                "secondary_accepts".to_owned(),
                state.stats.secondary_accepts as u64,
            ),
            ("free_accepts".to_owned(), state.stats.free_accepts as u64),
            (
                "secondary_rejects".to_owned(),
                state.stats.secondary_rejects as u64,
            ),
            (
                "conflict_rejects".to_owned(),
                state.stats.conflict_rejects as u64,
            ),
            (
                "faults_quarantined".to_owned(),
                state.stats.faults_quarantined as u64,
            ),
            (
                "checkpoints_written".to_owned(),
                (state.stats.checkpoints_written + 1) as u64,
            ),
            // Always 0; kept so the checkpoint format is unchanged.
            (
                "builds_discarded".to_owned(),
                state.stats.builds_discarded as u64,
            ),
        ],
        complete,
    };
    match checkpoint.save(&policy.path) {
        Ok(()) => {
            state.stats.checkpoints_written += 1;
            state.checkpoint_generation += 1;
        }
        Err(e) => {
            if !state.checkpoint_warned {
                eprintln!("warning: checkpoint write failed, continuing without: {e}");
                state.checkpoint_warned = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use pdf_netlist::iscas::s27;
    use pdf_paths::PathEnumerator;
    use pdf_sim::SimBackend;

    fn s27_faults() -> (Circuit, FaultList) {
        let c = s27();
        let paths = PathEnumerator::new(&c).enumerate();
        let (faults, _) = FaultList::build(&c, &paths.store);
        (c, faults)
    }

    fn config(compaction: Compaction) -> AtpgConfig {
        AtpgConfig {
            compaction,
            ..AtpgConfig::default()
        }
    }

    #[test]
    fn all_heuristics_complete_and_agree_on_coverage_frontier() {
        let (c, faults) = s27_faults();
        let mut counts = Vec::new();
        for h in Compaction::ALL {
            let outcome = BasicAtpg::new(&c).with_config(config(h)).run(&faults);
            // Every reported detection must be real: re-simulate.
            let cov = outcome.tests().coverage(&c, &faults);
            assert_eq!(
                cov.detected(),
                outcome.detected(),
                "{}: fault simulation must agree with bookkeeping",
                h.label()
            );
            counts.push((h, outcome.tests().len(), outcome.detected_total()));
        }
        // Compaction reduces the number of tests vs uncompacted.
        let uncomp_tests = counts[0].1;
        for &(h, tests, _) in &counts[1..] {
            assert!(
                tests <= uncomp_tests,
                "{}: {tests} tests vs uncomp {uncomp_tests}",
                h.label()
            );
        }
    }

    #[test]
    fn uncompacted_builds_one_test_per_undetected_primary() {
        let (c, faults) = s27_faults();
        let outcome = BasicAtpg::new(&c)
            .with_config(config(Compaction::Uncompacted))
            .run(&faults);
        // Each test corresponds to exactly one successful primary attempt.
        assert_eq!(
            outcome.tests().len() + outcome.stats().aborted_primaries,
            outcome.stats().justify.calls
        );
        assert_eq!(outcome.stats().secondary_accepts, 0);
        assert_eq!(outcome.stats().secondary_rejects, 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let (c, faults) = s27_faults();
        let a = BasicAtpg::new(&c).with_seed(7).run(&faults);
        let b = BasicAtpg::new(&c).with_seed(7).run(&faults);
        assert_eq!(a.tests().len(), b.tests().len());
        assert_eq!(a.detected(), b.detected());
        for (ta, tb) in a.tests().tests().iter().zip(b.tests().tests()) {
            assert_eq!(ta, tb);
        }
    }

    #[test]
    fn scoap_guide_pins_fingerprint_and_stays_deterministic() {
        let (c, faults) = s27_faults();
        let mut cfg = config(Compaction::ValueBased);
        assert!(!config_fingerprint(&cfg).contains(":scoap"));
        cfg.guide = Some(Arc::new(BranchGuide::new(
            vec![1; c.line_count()],
            vec![1; c.line_count()],
        )));
        assert!(config_fingerprint(&cfg).ends_with(":scoap"));

        let a = BasicAtpg::new(&c).with_config(cfg.clone()).run(&faults);
        let b = BasicAtpg::new(&c).with_config(cfg).run(&faults);
        assert_eq!(a.tests().to_text(), b.tests().to_text());
        assert_eq!(a.detected(), b.detected());
        // Guided detections are real: re-simulation agrees.
        let cov = a.tests().coverage(&c, &faults);
        assert_eq!(cov.detected(), a.detected());
    }

    #[test]
    fn scoap_guide_orders_primaries_hardest_first() {
        let (c, faults) = s27_faults();
        // A guide with genuinely uneven costs: line index as its own cost
        // (arbitrary but fixed), so assignment costs differ across faults.
        let costs: Vec<u32> = (0..c.line_count() as u32).collect();
        let guide = BranchGuide::new(costs.clone(), costs);
        let mut cfg = config(Compaction::ValueBased);
        cfg.guide = Some(Arc::new(guide.clone()));
        let session = Session::new(&c, cfg, &[&faults]);
        let order = &session.ctx.primary_order;
        assert_eq!(order.len(), faults.len());
        for pair in order.windows(2) {
            let hard = guide.assignment_cost(&session.ctx.faults[pair[0]].assignments);
            let easy = guide.assignment_cost(&session.ctx.faults[pair[1]].assignments);
            assert!(hard >= easy, "primaries must be ordered hardest-first");
        }
    }

    #[test]
    fn enrichment_detects_p1_without_more_tests_than_basic_scale() {
        let (c, faults) = s27_faults();
        let split = TargetSplit::by_cumulative_length(&faults, 10);
        assert!(!split.p1().is_empty());

        let basic = BasicAtpg::new(&c)
            .with_config(config(Compaction::ValueBased))
            .run(split.p0());
        let enriched = EnrichmentAtpg::new(&c)
            .with_config(config(Compaction::ValueBased))
            .run(&split);

        // Test counts are close (identical targets drive both).
        let delta = enriched.tests().len().abs_diff(basic.tests().len());
        assert!(
            delta <= 2,
            "basic {} vs enriched {}",
            basic.tests().len(),
            enriched.tests().len()
        );

        // Enrichment must detect at least one P1 fault on this circuit.
        let p1_detected = enriched.detected_total() - enriched.detected_in_set(0);
        assert!(p1_detected > 0);
    }

    #[test]
    fn enrichment_p0_detection_not_sacrificed() {
        let (c, faults) = s27_faults();
        let split = TargetSplit::by_cumulative_length(&faults, 10);
        let basic = BasicAtpg::new(&c).run(split.p0());
        let enriched = EnrichmentAtpg::new(&c).run(&split);
        let basic_p0 = basic.detected_in_set(0);
        let enriched_p0 = enriched.detected_in_set(0);
        // Small random variation allowed (the paper observes the same).
        assert!(
            enriched_p0 + 2 >= basic_p0,
            "enriched {enriched_p0} vs basic {basic_p0}"
        );
    }

    #[test]
    fn enrichment_coverage_is_backend_independent() {
        // Both completion engines draw the same random fill words per
        // block, so for equal seeds the whole multi-set run — tests,
        // per-set detections, everything — is independent of the backend.
        // The acceptance bar is per-set
        // coverage; test identity is stronger and currently holds.
        let synth = pdf_netlist::stand_in_profile("b09")
            .expect("known stand-in")
            .generate()
            .to_circuit()
            .expect("combinational");
        for c in [s27(), synth] {
            let paths = PathEnumerator::new(&c).with_cap(400).enumerate();
            let (faults, _) = FaultList::build(&c, &paths.store);
            let split = TargetSplit::by_cumulative_length(&faults, faults.len() / 4);
            let run = |sim: SimBackend| {
                EnrichmentAtpg::new(&c)
                    .with_config(AtpgConfig {
                        sim,
                        justify_attempts: 2,
                        ..AtpgConfig::default()
                    })
                    .run(&split)
            };
            let scalar = run(SimBackend::Scalar);
            let packed = run(SimBackend::Packed);
            for set in 0..2 {
                assert_eq!(
                    scalar.detected_in_set(set),
                    packed.detected_in_set(set),
                    "set {set}"
                );
            }
            assert_eq!(scalar.detected(), packed.detected());
            assert_eq!(scalar.tests().tests(), packed.tests().tests());
        }
    }

    #[test]
    fn freeze_values_and_basic_runs_are_backend_independent() {
        // The freeze-values mode seeds every secondary justification with
        // committed pins, so the packed fixpoint meets entry states that
        // already violate a requirement; the basic (P0-only) run takes
        // the plain justify path. Both must be identical under the scalar
        // oracle's sequential sweep and the packed lane-batched one.
        let synth = pdf_netlist::stand_in_profile("b09")
            .expect("known stand-in")
            .generate()
            .to_circuit()
            .expect("combinational");
        for c in [s27(), synth] {
            let paths = PathEnumerator::new(&c).with_cap(400).enumerate();
            let (faults, _) = FaultList::build(&c, &paths.store);
            let split = TargetSplit::by_cumulative_length(&faults, faults.len() / 4);
            let config = |sim: SimBackend| AtpgConfig {
                sim,
                justify_attempts: 2,
                secondary_mode: SecondaryMode::FreezeValues,
                ..AtpgConfig::default()
            };
            let runs = |sim: SimBackend| {
                [
                    EnrichmentAtpg::new(&c).with_config(config(sim)).run(&split),
                    BasicAtpg::new(&c)
                        .with_config(AtpgConfig {
                            sim,
                            ..AtpgConfig::default()
                        })
                        .run(split.p0()),
                ]
            };
            let scalar = runs(SimBackend::Scalar);
            let packed = runs(SimBackend::Packed);
            for (s, p) in scalar.iter().zip(&packed) {
                assert_eq!(s.tests().tests(), p.tests().tests());
                assert_eq!(s.detected(), p.detected());
                assert_eq!(s.aborted(), p.aborted());
                let (ss, ps) = (s.stats(), p.stats());
                assert_eq!(ss.secondary_accepts, ps.secondary_accepts);
                assert_eq!(ss.secondary_rejects, ps.secondary_rejects);
                assert_eq!(ss.conflict_rejects, ps.conflict_rejects);
                assert_eq!(ss.justify.successes, ps.justify.successes);
                assert_eq!(ss.justify.conflicts, ps.justify.conflicts);
                assert_eq!(ss.justify.unsatisfied, ps.justify.unsatisfied);
            }
        }
    }

    #[test]
    fn kept_prefilter_agrees_with_fresh_implicators_as_the_union_grows() {
        // Before every candidate, the build's kept union implicator must
        // give the verdict of a fresh implicator seeded with the merged
        // requirements, while accepts and free accepts grow the union
        // (and must invalidate the kept engine).
        let c = pdf_netlist::stand_in_profile("b09")
            .expect("known stand-in")
            .generate()
            .to_circuit()
            .expect("combinational");
        let paths = PathEnumerator::new(&c).with_cap(400).enumerate();
        let (faults, _) = FaultList::build(&c, &paths.store);
        let split = TargetSplit::by_cumulative_length(&faults, faults.len() / 4);
        for mode in [SecondaryMode::Regenerate, SecondaryMode::FreezeValues] {
            let config = AtpgConfig {
                secondary_mode: mode,
                ..AtpgConfig::default()
            };
            let session = Session::new(&c, config, &[split.p0(), split.p1()]);
            let (ctx, state) = (&session.ctx, &session.state);
            let (mut probes, mut conflicts, mut changes) = (0, 0, 0);
            for primary in 0..ctx.set_starts[1] {
                let mut build = Build::new(ctx, state, primary);
                let mut union = ctx.faults[primary].assignments.clone();
                let Some(mut current) = build.justifier.justify(&union) else {
                    continue;
                };
                let mut frozen = match mode {
                    SecondaryMode::FreezeValues => current.assignment.clone(),
                    SecondaryMode::Regenerate => Vec::new(),
                };
                for i in 0..ctx.faults.len() {
                    if !build.eligible_secondary(i, primary) {
                        continue;
                    }
                    let a = &ctx.faults[i].assignments;
                    if let Some(merged) = union.merged(a) {
                        let fresh = Implicator::from_assignments(&c, &merged).is_err();
                        assert_eq!(build.prefilter_conflicts(&union, a), fresh, "fault {i}");
                        probes += 1;
                        conflicts += usize::from(fresh);
                    }
                    changes +=
                        usize::from(build.try_candidate(i, &mut union, &mut current, &mut frozen));
                }
            }
            assert!(
                probes > 0 && conflicts > 0 && changes > 0,
                "{probes}/{conflicts}/{changes}"
            );
        }
    }

    #[test]
    fn aborted_primaries_are_not_retried() {
        let (c, faults) = s27_faults();
        let outcome = BasicAtpg::new(&c).run(&faults);
        // Aborted flags only on undetected faults.
        for (i, &a) in outcome.aborted().iter().enumerate() {
            if a {
                assert!(!outcome.detected()[i]);
            }
        }
        assert_eq!(
            outcome.stats().aborted_primaries,
            outcome.aborted().iter().filter(|&&a| a).count()
        );
    }

    #[test]
    fn freeze_values_mode_runs_and_detects() {
        let (c, faults) = s27_faults();
        let mut cfg = config(Compaction::ValueBased);
        cfg.secondary_mode = SecondaryMode::FreezeValues;
        let frozen = BasicAtpg::new(&c).with_config(cfg).run(&faults);
        // Bookkeeping still matches post-hoc simulation.
        let cov = frozen.tests().coverage(&c, &faults);
        assert_eq!(cov.detected(), frozen.detected());
        // The paper's argument for regeneration: it detects at least as
        // many secondary targets per test (s27 is tiny, so equality can
        // occur; the margin claim is validated at benchmark scale in the
        // `secondary_mode` experiment).
        let regen = BasicAtpg::new(&c)
            .with_config(config(Compaction::ValueBased))
            .run(&faults);
        assert!(regen.detected_total() + 3 >= frozen.detected_total());
    }

    #[test]
    fn freeze_values_mode_is_deterministic() {
        let (c, faults) = s27_faults();
        let mut cfg = config(Compaction::ValueBased);
        cfg.secondary_mode = SecondaryMode::FreezeValues;
        let a = BasicAtpg::new(&c).with_config(cfg.clone()).run(&faults);
        let b = BasicAtpg::new(&c).with_config(cfg).run(&faults);
        assert_eq!(a.detected(), b.detected());
        assert_eq!(a.tests().len(), b.tests().len());
    }

    #[test]
    fn free_accepts_happen() {
        let (c, faults) = s27_faults();
        let outcome = BasicAtpg::new(&c)
            .with_config(config(Compaction::ValueBased))
            .run(&faults);
        // On s27, tests routinely detect several faults at once.
        assert!(outcome.stats().free_accepts + outcome.stats().secondary_accepts > 0);
    }

    /// Replaces the entry at `slot` with one whose assignments constrain
    /// a line the circuit does not have: simulation lookups, cone
    /// construction and implication all panic on it.
    fn poison(faults: &FaultList, slot: usize) -> FaultList {
        let mut entries: Vec<FaultEntry> = faults.iter().cloned().collect();
        let mut bad = pdf_faults::Assignments::new();
        bad.require(LineId::new(9_999), pdf_logic::Triple::RISING)
            .unwrap();
        entries[slot].assignments = bad;
        entries.into_iter().collect()
    }

    #[test]
    fn poisoned_secondary_is_quarantined_and_the_run_continues() {
        let (c, faults) = s27_faults();
        let slot = faults.len() / 2;
        let poisoned = poison(&faults, slot);
        let outcome = BasicAtpg::new(&c)
            .with_config(config(Compaction::ValueBased))
            .run(&poisoned);
        assert_eq!(outcome.stats().faults_quarantined, 1);
        assert!(outcome.quarantined()[slot]);
        assert_eq!(outcome.quarantined().iter().filter(|&&q| q).count(), 1);
        assert!(!outcome.detected()[slot]);
        assert!(!outcome.aborted()[slot], "quarantine is not an abort");
        // The rest of the population is unaffected.
        assert!(!outcome.tests().is_empty());
        assert!(outcome.detected_total() > 0);
    }

    #[test]
    fn poisoned_primary_is_quarantined_at_justification() {
        let (c, faults) = s27_faults();
        // Slot 0 is the first primary under the length-based order.
        let poisoned = poison(&faults, 0);
        let outcome = BasicAtpg::new(&c)
            .with_config(config(Compaction::ValueBased))
            .run(&poisoned);
        assert!(outcome.quarantined()[0]);
        assert_eq!(outcome.stats().faults_quarantined, 1);
        assert!(!outcome.tests().is_empty());
    }

    #[test]
    fn poisoned_fault_is_quarantined_by_the_sweep_without_compaction() {
        let (c, faults) = s27_faults();
        let slot = faults.len() / 2;
        let poisoned = poison(&faults, slot);
        // Uncompacted: no secondary pass, so the guarded per-test fault
        // simulation sweep is what trips over the poison.
        let outcome = BasicAtpg::new(&c)
            .with_config(config(Compaction::Uncompacted))
            .run(&poisoned);
        assert!(outcome.quarantined()[slot]);
        assert_eq!(outcome.stats().faults_quarantined, 1);
    }

    #[test]
    fn budget_exhaustion_finalizes_a_partial_prefix() {
        let (c, faults) = s27_faults();
        let full = BasicAtpg::new(&c)
            .with_config(config(Compaction::ValueBased))
            .run(&faults);
        assert!(!full.budget_exhausted());
        let mut cfg = config(Compaction::ValueBased);
        cfg.budget =
            RunBudget::unlimited().and_cancel(pdf_runctl::CancelToken::cancel_after_polls(5));
        let partial = BasicAtpg::new(&c).with_config(cfg).run(&faults);
        assert!(partial.budget_exhausted());
        assert!(partial.tests().len() < full.tests().len());
        // Every finalized test is real and a prefix of the full run's.
        let cov = partial.tests().coverage(&c, &faults);
        assert_eq!(cov.detected(), partial.detected());
        for (a, b) in partial.tests().tests().iter().zip(full.tests().tests()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn interrupted_resumed_run_reproduces_the_uninterrupted_set() {
        let (c, faults) = s27_faults();
        let full = BasicAtpg::new(&c)
            .with_config(config(Compaction::ValueBased))
            .run(&faults);
        let path =
            std::env::temp_dir().join(format!("pdf_generator_resume_{}.json", std::process::id()));
        for polls in [1u64, 3, 17, 61, 301] {
            let mut cfg = config(Compaction::ValueBased);
            cfg.budget = RunBudget::unlimited()
                .and_cancel(pdf_runctl::CancelToken::cancel_after_polls(polls));
            cfg.checkpoint = Some(pdf_runctl::CheckpointPolicy::new(&path, 1));
            let partial = BasicAtpg::new(&c).with_config(cfg).run(&faults);
            let checkpoint = pdf_runctl::Checkpoint::load(&path).unwrap();
            assert_eq!(checkpoint.complete, !partial.budget_exhausted());
            let resumed = BasicAtpg::new(&c)
                .with_config(config(Compaction::ValueBased))
                .run_resumed(&faults, &checkpoint)
                .unwrap();
            assert_eq!(
                resumed.tests().to_text(),
                full.tests().to_text(),
                "polls={polls}"
            );
            assert_eq!(resumed.detected(), full.detected(), "polls={polls}");
            assert_eq!(resumed.aborted(), full.aborted(), "polls={polls}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_rejects_a_foreign_checkpoint() {
        let (c, faults) = s27_faults();
        let path =
            std::env::temp_dir().join(format!("pdf_generator_reject_{}.json", std::process::id()));
        let mut cfg = config(Compaction::ValueBased);
        cfg.checkpoint = Some(pdf_runctl::CheckpointPolicy::new(&path, 4));
        let _ = BasicAtpg::new(&c).with_config(cfg).run(&faults);
        let checkpoint = pdf_runctl::Checkpoint::load(&path).unwrap();
        std::fs::remove_file(&path).ok();

        let err = BasicAtpg::new(&c)
            .with_config(config(Compaction::ValueBased))
            .with_seed(999)
            .run_resumed(&faults, &checkpoint)
            .unwrap_err();
        assert!(matches!(err, ResumeError::Mismatch { field: "seed", .. }));

        let err = BasicAtpg::new(&c)
            .with_config(config(Compaction::Arbitrary))
            .run_resumed(&faults, &checkpoint)
            .unwrap_err();
        assert!(
            matches!(
                err,
                ResumeError::Mismatch {
                    field: "fingerprint",
                    ..
                }
            ),
            "{err}"
        );

        // Checkpoints that pin a round batch size came from speculative
        // rounds, whose state a sequential run cannot continue.
        let mut foreign = checkpoint.clone();
        foreign.fingerprint = "values:regenerate:1:packed:batch=8".to_owned();
        let err = BasicAtpg::new(&c)
            .with_config(config(Compaction::ValueBased))
            .run_resumed(&faults, &foreign)
            .unwrap_err();
        assert!(matches!(
            err,
            ResumeError::Mismatch {
                field: "fingerprint",
                ..
            }
        ));
    }
}
