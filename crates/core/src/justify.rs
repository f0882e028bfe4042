//! The simulation-based justification procedure (paper Sec. 2.1).
//!
//! Given a requirement set (the union of the `A(p)` of all faults a test
//! under construction must detect), the justifier searches for a fully
//! specified two-pattern test satisfying it:
//!
//! 1. every primary input starts as `β = xxx`;
//! 2. **necessary values**: for every input and every pattern position,
//!    trial-assign `0` and `1`; if one value makes the simulated waveforms
//!    *violate* a requirement (specified-vs-specified mismatch), the other
//!    value is assigned permanently; if both conflict, justification
//!    fails. The packed backend probes every open slot of a sweep at
//!    once — slot `k` of a pass on lanes `2k` (value 0) and `2k + 1`
//!    (value 1) of one bit-plane pass, `tile width / 2` slots per pass —
//!    and applies the forced values together; the scalar oracle probes
//!    slot by slot and applies each forced value at once. Ternary
//!    simulation is monotone, so both schedules reach the same fixpoint
//!    or fail on the same calls (`DESIGN.md` §10);
//! 3. **random completion**: the surviving free positions are filled with
//!    random values in groups of [`pdf_sim::LANES`] (= 64) complete
//!    candidate tests, all groups drawn up front. The packed backend
//!    simulates up to `tile width / 64` groups per bit-plane pass (one
//!    pass at width 64, fewer passes as the tile widens); the scalar
//!    oracle walks the same candidates one cone simulation each. The
//!    lowest-numbered candidate whose waveforms satisfy every requirement
//!    (hazard-freeness included) becomes the witness, so every backend
//!    and tile width returns the same test;
//! 4. if no completion block hits, the paper's **guided decision search**
//!    runs as a fallback: an input with exactly one specified pattern
//!    value is stabilized, else a random unspecified position of a random
//!    input is set to a random value — then step 2 repeats until the test
//!    is fully specified or a conflict proves the union unjustifiable.
//!
//! The implementation restricts simulation to the fanin cone of the
//! constrained lines — a pure optimization: inputs outside the cone cannot
//! produce or resolve conflicts, exactly as in the paper where they end up
//! randomly specified.

use pdf_faults::Assignments;
use pdf_logic::{Triple, Value};
use pdf_netlist::{Circuit, LineId, LineKind, SplitMix64, TwoPattern};
use pdf_runctl::RunBudget;
use pdf_sim::{PackedBlock, SimBackend, SimOptions, SimWidth, SimWord, LANES};

/// Per-line branching costs guiding the justifier's decision search —
/// plain data, so the core stays independent of how the costs are
/// computed. `pdf-analyze`'s SCOAP pass
/// (`Testability::cc0_table`/`cc1_table`) is the canonical producer;
/// drivers construct the guide with [`BranchGuide::new`] and attach it
/// via [`Justifier::with_guide`] or `AtpgConfig::guide`.
///
/// With a guide attached, the guided search's random decision (paper
/// step 3's fallback) becomes deterministic: the *hardest* open input
/// (largest `max(cost0, cost1)`) is decided first, at its *easier*
/// value — and no RNG is drawn for the decision.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BranchGuide {
    cost0: Vec<u32>,
    cost1: Vec<u32>,
}

impl BranchGuide {
    /// Builds a guide from per-line 0/1 controllability costs, indexed by
    /// [`LineId::index`].
    ///
    /// # Panics
    ///
    /// Panics if the tables differ in length.
    #[must_use]
    pub fn new(cost0: Vec<u32>, cost1: Vec<u32>) -> BranchGuide {
        assert_eq!(
            cost0.len(),
            cost1.len(),
            "branch guide cost tables must cover the same lines"
        );
        BranchGuide { cost0, cost1 }
    }

    /// How hard `line` is to control at all: `max(cost0, cost1)`. Lines
    /// beyond the tables cost 0 (never preferred).
    #[must_use]
    pub fn difficulty(&self, line: LineId) -> u32 {
        let i = line.index();
        match (self.cost0.get(i), self.cost1.get(i)) {
            (Some(&c0), Some(&c1)) => c0.max(c1),
            _ => 0,
        }
    }

    /// The cheaper value to set `line` to (ties break to 0, the SCOAP
    /// convention).
    #[must_use]
    pub fn easier_value(&self, line: LineId) -> Value {
        let i = line.index();
        match (self.cost0.get(i), self.cost1.get(i)) {
            (Some(&c0), Some(&c1)) if c1 < c0 => Value::One,
            _ => Value::Zero,
        }
    }

    /// The summed cost of controlling every steady (second-pattern) value
    /// an assignment set requires — a fault-difficulty key for
    /// generation-order heuristics.
    #[must_use]
    pub fn assignment_cost(&self, assignments: &Assignments) -> u32 {
        assignments.iter().fold(0u32, |acc, (line, triple)| {
            let i = line.index();
            let cost = match triple.last() {
                Value::Zero => self.cost0.get(i).copied().unwrap_or(0),
                Value::One => self.cost1.get(i).copied().unwrap_or(0),
                Value::X => 0,
            };
            acc.saturating_add(cost)
        })
    }
}

/// A successful justification: a fully specified two-pattern test plus the
/// full-circuit waveforms it induces.
#[derive(Clone, Debug)]
pub struct Justified {
    /// The fully specified two-pattern test.
    pub test: TwoPattern,
    /// Simulated waveform of every line under `test`, indexed by
    /// [`LineId::index`]. Reusable for fault simulation.
    pub waves: Vec<Triple>,
    /// The (input line, first-pattern value, second-pattern value)
    /// assignments the search actually committed — the requirement cone's
    /// inputs only. Everything else in [`Justified::test`] is random
    /// filler. Used by the freeze-values secondary-target mode.
    pub assignment: Vec<(LineId, Value, Value)>,
}

/// Counters accumulated by a [`Justifier`] across calls.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JustifyStats {
    /// Total justification calls.
    pub calls: usize,
    /// Calls that produced a test.
    pub successes: usize,
    /// Calls that failed on a both-values conflict.
    pub conflicts: usize,
    /// Calls that failed the final hazard/satisfaction check.
    pub unsatisfied: usize,
    /// Cone simulations performed. A packed pass counts as one, whatever
    /// its tile width: a completion pass, or a necessary-value probe pass
    /// covering up to `tile width / 2` slots.
    pub simulations: usize,
    /// Random completions evaluated. The packed backend evaluates whole
    /// passes (up to its tile width in lanes) at once; the scalar oracle
    /// stops at the first satisfying lane, so its count can be lower for
    /// the same calls.
    pub completion_attempts: usize,
    /// Bit-plane completion passes simulated (packed backend). A pass
    /// covers up to `tile width` candidate lanes, so this count shrinks
    /// as the width grows. Necessary-value probe passes are counted in
    /// [`JustifyStats::fixpoint_passes`] instead.
    pub packed_blocks: usize,
    /// Calls resolved by a random-completion lane rather than the guided
    /// decision search.
    pub lane_hits: usize,
    /// Always 0: every call builds its cone topology directly. Kept so
    /// callers that still read it compile.
    pub cone_hits: usize,
    /// Always 0, like [`JustifyStats::cone_hits`].
    pub cone_misses: usize,
    /// Lines actually (re-)evaluated by packed completion passes — far
    /// fewer than `order length × passes`, because propagation is
    /// event-driven and frozen-pin regions settle once and stay settled.
    pub events_propagated: u64,
    /// Lines packed completion passes visited but skipped because no
    /// fanin rail changed since the previous pass.
    pub lines_skipped: u64,
    /// Guided-search decisions taken deterministically by an attached
    /// [`BranchGuide`] instead of the random pick. Always 0 without a
    /// guide.
    pub scoap_guided_branches: usize,
    /// Necessary-value fixpoint passes: bit-plane probe passes on the
    /// packed backend (each probes up to `tile width / 2` open slots),
    /// whole sequential sweeps on the scalar oracle.
    pub fixpoint_passes: usize,
}

impl JustifyStats {
    /// Adds another engine's counters into this one. The generator gives
    /// every build its own justifier and absorbs the per-build deltas at
    /// commit, so a build cut by the budget leaves the totals untouched.
    pub fn absorb(&mut self, other: &JustifyStats) {
        self.calls += other.calls;
        self.successes += other.successes;
        self.conflicts += other.conflicts;
        self.unsatisfied += other.unsatisfied;
        self.simulations += other.simulations;
        self.completion_attempts += other.completion_attempts;
        self.packed_blocks += other.packed_blocks;
        self.lane_hits += other.lane_hits;
        self.events_propagated += other.events_propagated;
        self.lines_skipped += other.lines_skipped;
        self.scoap_guided_branches += other.scoap_guided_branches;
        self.fixpoint_passes += other.fixpoint_passes;
    }
}

/// The simulation-based justification engine.
///
/// The engine owns a deterministic RNG: two engines created with the same
/// seed and fed the same call sequence produce identical tests. Both
/// [`SimBackend`]s reach the same necessary-value fixpoint (by different
/// probe schedules) and draw the completion phase's random fill words
/// identically, so for a fixed seed the scalar oracle and the packed
/// kernel also agree call by call — on justifiability always, and on the
/// witness itself in the current implementation (only the former is
/// contractual; see `DESIGN.md` §10).
///
/// # Example
///
/// ```
/// use pdf_atpg::Justifier;
/// use pdf_faults::{robust_assignments, PathDelayFault, Polarity};
/// use pdf_netlist::{iscas::s27, LineId};
/// use pdf_paths::Path;
///
/// let circuit = s27();
/// let path: Path = [2usize, 9, 10, 15].iter().map(|&k| LineId::new(k - 1)).collect();
/// let fault = PathDelayFault::new(path, Polarity::SlowToRise);
/// let a = robust_assignments(&circuit, &fault)?;
///
/// let mut justifier = Justifier::new(&circuit, 2002);
/// let result = justifier.justify(&a).expect("the paper's example fault is testable");
/// assert!(result.test.is_fully_specified());
/// # Ok::<(), pdf_faults::ConditionError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Justifier<'c> {
    circuit: &'c Circuit,
    rng: SplitMix64,
    attempts: u32,
    opts: SimOptions,
    stats: JustifyStats,
    /// Scratch waveform buffer, one slot per line.
    scratch: Vec<Triple>,
    /// Reusable bit-plane arena for packed probe and completion passes, at
    /// the width selected by [`Justifier::with_options`].
    packed: PackedArena,
    /// Optional SCOAP branch guide for the guided decision search.
    guide: Option<std::sync::Arc<BranchGuide>>,
    /// Wall time spent inside completion blocks (phase 2 only).
    completion: std::time::Duration,
    /// Wall time spent in the necessary-value fixpoint (phase 1 and every
    /// fixpoint rerun of the guided search).
    fixpoint: std::time::Duration,
    /// Cooperative time/cancellation budget polled at call entry, per
    /// completion block and per guided-search decision.
    budget: RunBudget,
}

impl<'c> Justifier<'c> {
    /// Creates a justifier with the given RNG seed, a single completion
    /// block per call and the default packed backend.
    #[must_use]
    pub fn new(circuit: &'c Circuit, seed: u64) -> Justifier<'c> {
        let opts = SimOptions::default();
        Justifier {
            circuit,
            rng: SplitMix64::new(seed),
            attempts: 1,
            opts,
            stats: JustifyStats::default(),
            scratch: vec![Triple::UNKNOWN; circuit.line_count()],
            packed: PackedArena::new(opts.width),
            guide: None,
            completion: std::time::Duration::ZERO,
            fixpoint: std::time::Duration::ZERO,
            budget: RunBudget::unlimited(),
        }
    }

    /// Sets the number of 64-candidate random-completion groups per call
    /// (≥ 1). More groups trade run time for fewer random misses — the
    /// paper notes such misses as the source of its run-to-run variation.
    /// The RNG draws every group's fill words up front, so the witness
    /// (and the RNG stream) depends only on this count, never on the
    /// backend or tile width evaluating the groups.
    #[must_use]
    pub fn with_attempts(mut self, attempts: u32) -> Justifier<'c> {
        self.attempts = attempts.max(1);
        self
    }

    /// Selects the engine evaluating necessary-value probes and completion
    /// passes: the packed bit-plane kernel (default) or the scalar oracle.
    /// Both agree on justifiability for equal seeds.
    #[must_use]
    pub fn with_backend(mut self, backend: SimBackend) -> Justifier<'c> {
        self.opts.backend = backend;
        self
    }

    /// Installs a full simulation option block: backend and packed tile
    /// width. Replaces the packed arena, so call it before the first
    /// `justify`. All combinations produce byte-identical witnesses for
    /// equal seeds.
    #[must_use]
    pub fn with_options(mut self, opts: impl Into<SimOptions>) -> Justifier<'c> {
        let opts = opts.into();
        self.opts = opts;
        self.packed = PackedArena::new(opts.width);
        self
    }

    /// Does nothing: the justifier keeps no cone cache and builds every
    /// cone topology directly. Kept so callers that still set a capacity
    /// compile.
    #[must_use]
    pub fn with_cone_cache(self, _capacity: usize) -> Justifier<'c> {
        self
    }

    /// Attaches a [`BranchGuide`]: the guided search's random decision is
    /// replaced by a deterministic hardest-line-first, easier-value pick
    /// that draws no RNG. Drivers map `PDF_SCOAP` here (the guide built
    /// from `pdf-analyze`'s SCOAP controllability tables).
    #[must_use]
    pub fn with_guide(mut self, guide: std::sync::Arc<BranchGuide>) -> Justifier<'c> {
        self.guide = Some(guide);
        self
    }

    /// Attaches a cooperative run budget. An exhausted budget makes
    /// justification calls return `None` early — at call entry, between
    /// completion blocks and between guided-search decisions — without
    /// consuming further RNG beyond the aborted phase.
    #[must_use]
    pub fn with_budget(mut self, budget: RunBudget) -> Justifier<'c> {
        self.budget = budget;
        self
    }

    /// The RNG's current internal state — checkpoint material. Feeding it
    /// back through [`Justifier::set_rng_state`] on a fresh justifier
    /// resumes the random stream exactly where this one stands.
    #[must_use]
    pub fn rng_state(&self) -> u64 {
        self.rng.state()
    }

    /// Restores the RNG to a state previously captured with
    /// [`Justifier::rng_state`].
    pub fn set_rng_state(&mut self, state: u64) {
        self.rng = SplitMix64::from_state(state);
    }

    /// Accumulated counters.
    #[must_use]
    pub fn stats(&self) -> JustifyStats {
        self.stats
    }

    /// Wall time spent evaluating random-completion blocks, across all
    /// calls. [`JustifyStats::completion_attempts`] divided by this is the
    /// completion engine's throughput; the necessary-value fixpoint is
    /// timed separately ([`Justifier::fixpoint_seconds`]).
    #[must_use]
    pub fn completion_seconds(&self) -> f64 {
        self.completion.as_secs_f64()
    }

    /// Wall time spent in the necessary-value fixpoint, across all calls:
    /// phase 1 plus every rerun after a guided-search decision. Probe
    /// passes on the packed backend, sequential sweeps on the scalar
    /// oracle ([`JustifyStats::fixpoint_passes`] counts either).
    #[must_use]
    pub fn fixpoint_seconds(&self) -> f64 {
        self.fixpoint.as_secs_f64()
    }

    /// Searches for a fully specified two-pattern test satisfying `req`.
    ///
    /// Returns `None` when the (randomized) search fails; the requirements
    /// may or may not be satisfiable in that case.
    pub fn justify(&mut self, req: &Assignments) -> Option<Justified> {
        self.justify_seeded(req, &[])
    }

    /// Like [`Justifier::justify`], but input values listed in `frozen`
    /// are pinned before the search starts — the Goel–Rosales style of
    /// dynamic compaction (the paper's reference \[8\]) where a secondary
    /// target may only *specify unspecified values* of the test under
    /// construction, never revise committed ones.
    ///
    /// Entries of `frozen` whose line is outside the requirements' cone
    /// are ignored (they cannot influence the constrained lines).
    pub fn justify_seeded(
        &mut self,
        req: &Assignments,
        frozen: &[(LineId, Value, Value)],
    ) -> Option<Justified> {
        let _span = pdf_telemetry::Span::enter("justify");
        self.stats.calls += 1;
        if self.budget.exhausted() {
            return None;
        }
        let cone = Cone::project(ConeTopo::build(self.circuit, req), req);
        let n = cone.topo.pis.len();
        // (first, last) value per cone PI.
        let mut state: Vec<(Value, Value)> = vec![(Value::X, Value::X); n];
        for &(line, v1, v2) in frozen {
            if let Some(k) = cone.topo.pis.iter().position(|&p| p == line) {
                state[k] = (v1, v2);
            }
        }
        // Establish the scratch invariant: scratch = simulation of `state`.
        self.sim_cone(&cone, &state);
        self.stats.simulations += 1;

        // Phase 1 — the necessary-value fixpoint. Purely deterministic;
        // both backends reach the same fixpoint (or fail on the same
        // calls), by different probe schedules.
        if !self.fixpoint(req, &cone, &mut state) {
            self.stats.conflicts += 1;
            return None;
        }
        if fully_specified(&state) {
            if req.satisfied_by(&self.scratch) {
                self.stats.successes += 1;
                return Some(self.finish(&cone, &state));
            }
            self.stats.unsatisfied += 1;
            return None;
        }

        // Phase 2 — random completion in groups of 64 candidates. Every
        // group's fill words are drawn up front, group-major (group `g`,
        // open slot `k` is draw `g·|open| + k`; bit `j` of a word is
        // candidate `g·64 + j`'s value for that slot), so the RNG stream
        // and the first satisfying candidate — the witness — are
        // identical for every backend and tile width. Wider tiles merely
        // evaluate more groups per propagation pass.
        let open: Vec<(usize, usize)> = (0..n)
            .flat_map(|i| (0..2).map(move |pos| (i, pos)))
            .filter(|&(i, pos)| !pick(&state[i], pos).is_specified())
            .collect();
        if self.budget.exhausted() {
            return None;
        }
        let groups = self.attempts as usize;
        let mut fills = vec![0u64; groups * open.len()];
        for w in &mut fills {
            *w = self.rng.next_u64();
        }
        let start = std::time::Instant::now();
        let outcome = self.completion_groups(req, &cone, &state, &open, &fills, groups);
        self.completion += start.elapsed();
        match outcome {
            PassOutcome::Aborted => return None,
            PassOutcome::Hit(candidate) => {
                let g = candidate / LANES;
                if g > 0 {
                    pdf_telemetry::count(pdf_telemetry::counters::JUSTIFY_RETRIES, g as u64);
                }
                pdf_telemetry::count(pdf_telemetry::counters::JUSTIFY_LANE_HITS, 1);
                self.stats.lane_hits += 1;
                let mut full = state;
                for (k, &(i, pos)) in open.iter().enumerate() {
                    let bit = fills[g * open.len() + k] >> (candidate % LANES) & 1 == 1;
                    set(&mut full[i], pos, Value::from(bit));
                }
                self.stats.successes += 1;
                return Some(self.finish(&cone, &full));
            }
            PassOutcome::Miss => {
                if groups > 1 {
                    pdf_telemetry::count(
                        pdf_telemetry::counters::JUSTIFY_RETRIES,
                        (groups - 1) as u64,
                    );
                }
            }
        }

        // Phase 3 — the paper's guided decision search, resumed from the
        // fixpoint state: insurance for requirements whose satisfying set
        // is too sparse for random completion to hit.
        self.sim_cone(&cone, &state); // restore the scratch invariant
        self.stats.simulations += 1;
        self.guided(req, &cone, state)
    }

    /// Runs the necessary-value analysis to its fixpoint. Returns `false`
    /// on a both-values conflict (the requirements are unjustifiable).
    /// Maintains the scratch invariant.
    fn fixpoint(&mut self, req: &Assignments, cone: &Cone, state: &mut [(Value, Value)]) -> bool {
        let start = std::time::Instant::now();
        let ok = if self.opts.backend == SimBackend::Scalar {
            self.sequential_fixpoint(cone, state)
        } else {
            self.batched_fixpoint(req, cone, state)
        };
        self.fixpoint += start.elapsed();
        ok
    }

    /// The scalar oracle's schedule (Gauss–Seidel): probe one slot at a
    /// time and apply a forced value before probing the next slot.
    fn sequential_fixpoint(&mut self, cone: &Cone, state: &mut [(Value, Value)]) -> bool {
        let n = cone.topo.pis.len();
        loop {
            self.stats.fixpoint_passes += 1;
            pdf_telemetry::count(pdf_telemetry::counters::FIXPOINT_PASSES, 1);
            let mut assigned = false;
            for i in 0..n {
                for pos in 0..2 {
                    if pick(&state[i], pos).is_specified() {
                        continue;
                    }
                    let zero_bad = self.violates(cone, state, i, pos, Value::Zero);
                    let one_bad = self.violates(cone, state, i, pos, Value::One);
                    match (zero_bad, one_bad) {
                        (true, true) => return false,
                        (true, false) => {
                            set(&mut state[i], pos, Value::One);
                            self.apply(cone, state, i);
                            assigned = true;
                        }
                        (false, true) => {
                            set(&mut state[i], pos, Value::Zero);
                            self.apply(cone, state, i);
                            assigned = true;
                        }
                        (false, false) => {}
                    }
                }
            }
            if !assigned {
                return true;
            }
        }
    }

    /// The packed backend's schedule (Jacobi): probe up to
    /// `tile width / 2` open slots per bit-plane pass against the same
    /// committed state, then apply every forced value of the pass. Both
    /// schedules reach the same least fixpoint, and fail on the same
    /// calls, because ternary simulation is monotone (`DESIGN.md` §10).
    fn batched_fixpoint(
        &mut self,
        req: &Assignments,
        cone: &Cone,
        state: &mut [(Value, Value)],
    ) -> bool {
        // The entry-violation rule. Frozen pins can make the entry state
        // violate a requirement line already. The sequential sweep only
        // checks the lines a probed input reaches, so such a line fails
        // the call iff some open slot reaches it (both trial values keep
        // it violated); otherwise it is never looked at, and the lane and
        // post-apply checks must ignore it too.
        let violated: Vec<LineId> = req
            .iter()
            .filter(|&(line, r)| !self.scratch[line.index()].is_compatible(r))
            .map(|(line, _)| line)
            .collect();
        let trimmed;
        let check = if violated.is_empty() {
            req
        } else {
            let reaches_violated = state.iter().zip(&cone.reach_req).any(|(s, reach)| {
                !(s.0.is_specified() && s.1.is_specified())
                    && reach.iter().any(|(line, _)| violated.contains(line))
            });
            if reaches_violated {
                return false;
            }
            let mut kept = Assignments::new();
            for (line, r) in req.iter().filter(|(line, _)| !violated.contains(line)) {
                kept.require(line, r).expect("a subset of a consistent set");
            }
            trimmed = kept;
            &trimmed
        };
        let slots_per_pass = self.opts.width.lanes() / 2;
        let mut open: Vec<(usize, usize)> = Vec::new();
        let mut forced: Vec<(usize, usize, Value)> = Vec::new();
        loop {
            open.clear();
            open.extend(
                (0..state.len())
                    .flat_map(|i| (0..2).map(move |pos| (i, pos)))
                    .filter(|&(i, pos)| !pick(&state[i], pos).is_specified()),
            );
            let mut assigned = false;
            for slots in open.chunks(slots_per_pass) {
                forced.clear();
                let Justifier {
                    circuit,
                    packed,
                    stats,
                    ..
                } = self;
                let ok = match packed {
                    PackedArena::W64(b) => {
                        probe_pass(b, circuit, check, cone, state, slots, &mut forced, stats)
                    }
                    PackedArena::W256(b) => {
                        probe_pass(b, circuit, check, cone, state, slots, &mut forced, stats)
                    }
                    PackedArena::W512(b) => {
                        probe_pass(b, circuit, check, cone, state, slots, &mut forced, stats)
                    }
                };
                if !ok {
                    return false;
                }
                if forced.is_empty() {
                    continue;
                }
                for &(i, pos, v) in &forced {
                    set(&mut state[i], pos, v);
                }
                // `forced` is in slot order, so both slots of one input
                // are adjacent: one re-simulation per changed input.
                let mut last = usize::MAX;
                for &(i, _, _) in &forced {
                    if i != last {
                        self.apply(cone, state, i);
                        last = i;
                    }
                }
                // Values forced together may jointly violate a
                // requirement; the sequential sweep then finds the later
                // slot both-bad.
                if check.violated_by(&self.scratch) {
                    return false;
                }
                assigned = true;
            }
            if !assigned {
                return true;
            }
        }
    }

    /// Evaluates every random-completion group of the call (free slots
    /// filled from `fills`, group-major: bit `j` of
    /// `fills[g·|open| + k]` is candidate `g·64 + j`'s value for
    /// `open[k]`). Dispatches to the backend/width the justifier was
    /// configured with; the outcome is identical across all of them.
    fn completion_groups(
        &mut self,
        req: &Assignments,
        cone: &Cone,
        state: &[(Value, Value)],
        open: &[(usize, usize)],
        fills: &[u64],
        groups: usize,
    ) -> PassOutcome {
        if self.opts.backend == SimBackend::Scalar {
            return self.scalar_groups(req, cone, state, open, fills, groups);
        }
        let Justifier {
            circuit,
            packed,
            stats,
            budget,
            ..
        } = self;
        match packed {
            PackedArena::W64(b) => packed_passes(
                b, circuit, req, cone, state, open, fills, groups, stats, budget,
            ),
            PackedArena::W256(b) => packed_passes(
                b, circuit, req, cone, state, open, fills, groups, stats, budget,
            ),
            PackedArena::W512(b) => packed_passes(
                b, circuit, req, cone, state, open, fills, groups, stats, budget,
            ),
        }
    }

    /// The oracle: the same candidates in the same global order, one cone
    /// simulation each, stopping at the first satisfying one.
    fn scalar_groups(
        &mut self,
        req: &Assignments,
        cone: &Cone,
        state: &[(Value, Value)],
        open: &[(usize, usize)],
        fills: &[u64],
        groups: usize,
    ) -> PassOutcome {
        let mut lane_state = state.to_vec();
        for g in 0..groups {
            if g > 0 && self.budget.exhausted() {
                return PassOutcome::Aborted;
            }
            for bit in 0..LANES {
                for (k, &(i, pos)) in open.iter().enumerate() {
                    set(
                        &mut lane_state[i],
                        pos,
                        Value::from(fills[g * open.len() + k] >> bit & 1 == 1),
                    );
                }
                self.sim_cone(cone, &lane_state);
                self.stats.simulations += 1;
                self.stats.completion_attempts += 1;
                if req.satisfied_by(&self.scratch) {
                    return PassOutcome::Hit(g * LANES + bit);
                }
            }
        }
        PassOutcome::Miss
    }

    /// The guided decision search (paper steps 2–4), entered with the
    /// necessary-value fixpoint already reached and the scratch invariant
    /// holding for `state`.
    fn guided(
        &mut self,
        req: &Assignments,
        cone: &Cone,
        mut state: Vec<(Value, Value)>,
    ) -> Option<Justified> {
        let n = cone.topo.pis.len();
        loop {
            if self.budget.exhausted() {
                return None;
            }
            // Decision: stabilize a half-specified input if one exists...
            let decided = if let Some(i) = state
                .iter()
                .position(|s| s.0.is_specified() != s.1.is_specified())
            {
                let v = if state[i].0.is_specified() {
                    state[i].0
                } else {
                    state[i].1
                };
                state[i] = (v, v);
                i
            } else {
                // ...else a random value on a random unspecified position —
                // or, with a guide attached, the hardest open input at its
                // easier value, deterministically and without drawing RNG.
                let open: Vec<(usize, usize)> = (0..n)
                    .flat_map(|i| (0..2).map(move |pos| (i, pos)))
                    .filter(|&(i, pos)| !pick(&state[i], pos).is_specified())
                    .collect();
                debug_assert!(!open.is_empty());
                let (i, pos, v) = if let Some(guide) = &self.guide {
                    // First-wins max keeps ties in slot order, so the pick
                    // is independent of how `open` was discovered.
                    let mut best = open[0];
                    let mut best_cost = guide.difficulty(cone.topo.pis[open[0].0]);
                    for &slot in &open[1..] {
                        let cost = guide.difficulty(cone.topo.pis[slot.0]);
                        if cost > best_cost {
                            best = slot;
                            best_cost = cost;
                        }
                    }
                    self.stats.scoap_guided_branches += 1;
                    pdf_telemetry::count(pdf_telemetry::counters::SCOAP_GUIDED_BRANCHES, 1);
                    (best.0, best.1, guide.easier_value(cone.topo.pis[best.0]))
                } else {
                    let &(i, pos) = self.rng.pick(&open);
                    (i, pos, Value::from(self.rng.next_bool()))
                };
                set(&mut state[i], pos, v);
                i
            };
            self.apply(cone, &state, decided);
            // Early exit: a decision that already violates the
            // requirements can never be completed into a satisfying test
            // (simulation values only get more specified).
            if req.violated_by(&self.scratch) {
                self.stats.conflicts += 1;
                return None;
            }
            if !self.fixpoint(req, cone, &mut state) {
                self.stats.conflicts += 1;
                return None;
            }
            if fully_specified(&state) {
                if req.satisfied_by(&self.scratch) {
                    self.stats.successes += 1;
                    return Some(self.finish(cone, &state));
                }
                self.stats.unsatisfied += 1;
                return None;
            }
        }
    }

    /// Would assigning `value` at (`pi`, `pos`) violate `req`?
    ///
    /// Incremental: only the lines reachable from that input inside the
    /// cone are re-evaluated, then rolled back. Requirements on
    /// unreachable lines keep their (non-violating) status, so checking
    /// the reachable requirement lines suffices.
    fn violates(
        &mut self,
        cone: &Cone,
        state: &mut [(Value, Value)],
        pi: usize,
        pos: usize,
        value: Value,
    ) -> bool {
        let saved = state[pi];
        set(&mut state[pi], pos, value);
        self.stats.simulations += 1;

        let pi_line = cone.topo.pis[pi];
        let mut undo: Vec<(u32, Triple)> = Vec::with_capacity(16);
        let old = self.scratch[pi_line.index()];
        let new = Triple::from_patterns(state[pi].0, state[pi].1);
        undo.push((pi_line.index() as u32, old));
        self.scratch[pi_line.index()] = new;
        for &id in &cone.topo.reach[pi] {
            let line = self.circuit.line(id);
            let new = match line.kind() {
                LineKind::Input => unreachable!("reach lists exclude inputs"),
                LineKind::Branch { stem } => self.scratch[stem.index()],
                LineKind::Gate(kind) => {
                    kind.eval_triples(line.fanin().iter().map(|f| self.scratch[f.index()]))
                }
            };
            let slot = &mut self.scratch[id.index()];
            if *slot != new {
                undo.push((id.index() as u32, *slot));
                *slot = new;
            }
        }
        let bad = cone.reach_req[pi]
            .iter()
            .any(|&(line, r)| !self.scratch[line.index()].is_compatible(r));
        for (raw, old) in undo.into_iter().rev() {
            self.scratch[raw as usize] = old;
        }
        state[pi] = saved;
        bad
    }

    /// Commits the scratch waveforms to the current `state` after input
    /// `pi` changed.
    fn apply(&mut self, cone: &Cone, state: &[(Value, Value)], pi: usize) {
        self.stats.simulations += 1;
        let pi_line = cone.topo.pis[pi];
        self.scratch[pi_line.index()] = Triple::from_patterns(state[pi].0, state[pi].1);
        for &id in &cone.topo.reach[pi] {
            let line = self.circuit.line(id);
            self.scratch[id.index()] = match line.kind() {
                LineKind::Input => unreachable!("reach lists exclude inputs"),
                LineKind::Branch { stem } => self.scratch[stem.index()],
                LineKind::Gate(kind) => {
                    kind.eval_triples(line.fanin().iter().map(|f| self.scratch[f.index()]))
                }
            };
        }
    }

    /// Simulates the whole cone into the scratch buffer (out-of-cone lines
    /// stay unknown).
    fn sim_cone(&mut self, cone: &Cone, state: &[(Value, Value)]) {
        for (k, &pi) in cone.topo.pis.iter().enumerate() {
            self.scratch[pi.index()] = Triple::from_patterns(state[k].0, state[k].1);
        }
        for &id in &cone.topo.order {
            let line = self.circuit.line(id);
            self.scratch[id.index()] = match line.kind() {
                LineKind::Input => continue,
                LineKind::Branch { stem } => self.scratch[stem.index()],
                LineKind::Gate(kind) => {
                    kind.eval_triples(line.fanin().iter().map(|f| self.scratch[f.index()]))
                }
            };
        }
    }

    /// Builds the final fully specified test and full-circuit waveforms.
    fn finish(&mut self, cone: &Cone, state: &[(Value, Value)]) -> Justified {
        let inputs = self.circuit.inputs();
        let mut v1 = vec![Value::X; inputs.len()];
        let mut v2 = vec![Value::X; inputs.len()];
        for (slot, &input) in inputs.iter().enumerate() {
            if let Some(k) = cone.topo.pis.iter().position(|&p| p == input) {
                v1[slot] = state[k].0;
                v2[slot] = state[k].1;
            } else {
                v1[slot] = Value::from(self.rng.next_bool());
                v2[slot] = Value::from(self.rng.next_bool());
            }
        }
        let test = TwoPattern::new(v1, v2);
        let waves = pdf_netlist::simulate_triples(self.circuit, &test.to_triples());
        let assignment = cone
            .topo
            .pis
            .iter()
            .zip(state)
            .map(|(&pi, s)| (pi, s.0, s.1))
            .collect();
        Justified {
            test,
            waves,
            assignment,
        }
    }
}

#[inline]
fn pick(s: &(Value, Value), pos: usize) -> Value {
    if pos == 0 {
        s.0
    } else {
        s.1
    }
}

#[inline]
fn set(s: &mut (Value, Value), pos: usize, v: Value) {
    if pos == 0 {
        s.0 = v;
    } else {
        s.1 = v;
    }
}

#[inline]
fn fully_specified(state: &[(Value, Value)]) -> bool {
    state
        .iter()
        .all(|s| s.0.is_specified() && s.1.is_specified())
}

/// A committed value as `(zero_rail, one_rail)` tiles broadcast across
/// every lane of the word type.
#[inline]
fn splat_rails<W: SimWord>(v: Value) -> (W, W) {
    match v {
        Value::Zero => (W::ONES, W::ZERO),
        Value::One => (W::ZERO, W::ONES),
        Value::X => (W::ZERO, W::ZERO),
    }
}

/// The justifier's reusable bit-plane arena, monomorphized at the tile
/// width selected via [`Justifier::with_options`]. Keeping the width in a
/// closed enum (rather than a type parameter on [`Justifier`]) leaves the
/// engine's public type width-independent — the width is picked at run
/// time, by [`SimWidth::auto`] unless a caller pins one.
#[derive(Clone, Debug)]
enum PackedArena {
    W64(PackedBlock<u64>),
    W256(PackedBlock<[u64; 4]>),
    W512(PackedBlock<[u64; 8]>),
}

impl PackedArena {
    fn new(width: SimWidth) -> PackedArena {
        match width {
            SimWidth::W64 => PackedArena::W64(PackedBlock::new()),
            SimWidth::W256 => PackedArena::W256(PackedBlock::new()),
            SimWidth::W512 => PackedArena::W512(PackedBlock::new()),
        }
    }
}

/// Result of evaluating a call's completion groups.
enum PassOutcome {
    /// The lowest-numbered satisfying candidate (global index:
    /// `group · 64 + lane`).
    Hit(usize),
    /// No candidate satisfied the requirements.
    Miss,
    /// The run budget expired between passes.
    Aborted,
}

/// Evaluates completion groups on the packed kernel, up to `W::WORDS`
/// groups per bit-plane pass. Lane numbering within a pass is
/// sub-block-major — lane `g_local · 64 + bit` is global candidate
/// `(pass_start + g_local) · 64 + bit` — matching the scalar oracle's
/// scan order, so the first satisfying lane is the same witness.
#[allow(clippy::too_many_arguments)]
fn packed_passes<W: SimWord>(
    block: &mut PackedBlock<W>,
    circuit: &Circuit,
    req: &Assignments,
    cone: &Cone,
    state: &[(Value, Value)],
    open: &[(usize, usize)],
    fills: &[u64],
    groups: usize,
    stats: &mut JustifyStats,
    budget: &RunBudget,
) -> PassOutcome {
    pdf_telemetry::record_max(pdf_telemetry::counters::SIM_WIDTH, W::LANES as u64);
    let mut pass_start = 0usize;
    while pass_start < groups {
        if pass_start > 0 && budget.exhausted() {
            return PassOutcome::Aborted;
        }
        let here = (groups - pass_start).min(W::WORDS);
        stats.packed_blocks += 1;
        stats.completion_attempts += here * LANES;
        stats.simulations += 1;
        pdf_telemetry::count(pdf_telemetry::counters::JUSTIFY_PACKED_BLOCKS, 1);
        // Broadcast the committed values across all lanes, then overwrite
        // the free slots with their per-lane fill rails (one 64-candidate
        // group per 64-bit word of the tile).
        let mut first: Vec<(W, W)> = state.iter().map(|s| splat_rails(s.0)).collect();
        let mut last: Vec<(W, W)> = state.iter().map(|s| splat_rails(s.1)).collect();
        for (k, &(i, pos)) in open.iter().enumerate() {
            let mut zero = W::ZERO;
            let mut one = W::ZERO;
            for g in 0..here {
                let w = fills[(pass_start + g) * open.len() + k];
                zero.set_word(g, !w);
                one.set_word(g, w);
            }
            if pos == 0 {
                first[i] = (zero, one);
            } else {
                last[i] = (zero, one);
            }
        }
        block.begin_block(circuit);
        for (k, &pi) in cone.topo.pis.iter().enumerate() {
            block.set_input_rails(pi, first[k], last[k]);
        }
        block.propagate_over(circuit, &cone.topo.order);
        let kernel = block.take_kernel_stats();
        stats.events_propagated += kernel.events_propagated;
        stats.lines_skipped += kernel.lines_skipped;
        pdf_telemetry::count(
            pdf_telemetry::counters::EVENTS_PROPAGATED,
            kernel.events_propagated,
        );
        pdf_telemetry::count(pdf_telemetry::counters::LINES_SKIPPED, kernel.lines_skipped);
        // Unused tile groups of a partial pass carry broadcast-only lanes
        // that may spuriously satisfy the requirements — mask them off.
        let lanes = block.satisfied_lanes(req).and(W::low_lanes(here * LANES));
        if let Some(lane) = lanes.first_lane() {
            return PassOutcome::Hit(pass_start * LANES + lane);
        }
        pass_start += here;
    }
    PassOutcome::Miss
}

/// One necessary-value probe pass on the packed kernel: slot `k` of
/// `slots` is trial-assigned `0` on lane `2k` and `1` on lane `2k + 1`;
/// every other lane carries the committed state. Pushes each slot whose
/// trial values split (exactly one violates `req`) onto `forced` with the
/// surviving value; returns `false` if some slot's two values both
/// violate.
///
/// The kernel's event counters are drained and dropped: they describe
/// completion passes only.
#[allow(clippy::too_many_arguments)]
fn probe_pass<W: SimWord>(
    block: &mut PackedBlock<W>,
    circuit: &Circuit,
    req: &Assignments,
    cone: &Cone,
    state: &[(Value, Value)],
    slots: &[(usize, usize)],
    forced: &mut Vec<(usize, usize, Value)>,
    stats: &mut JustifyStats,
) -> bool {
    debug_assert!(slots.len() <= W::LANES / 2);
    stats.fixpoint_passes += 1;
    stats.simulations += 1;
    pdf_telemetry::count(pdf_telemetry::counters::FIXPOINT_PASSES, 1);
    block.begin_block(circuit);
    // `slots` is in (input, position) order, so one cursor walks it
    // alongside the inputs.
    let mut slot_lanes = slots.iter().enumerate().peekable();
    for (i, &pi) in cone.topo.pis.iter().enumerate() {
        let mut rails = [splat_rails::<W>(state[i].0), splat_rails::<W>(state[i].1)];
        while let Some((k, &(_, pos))) = slot_lanes.next_if(|(_, slot)| slot.0 == i) {
            // An open slot is `x`, so both of its rails are still all-zero.
            rails[pos].0.set_lane(2 * k);
            rails[pos].1.set_lane(2 * k + 1);
        }
        block.set_input_rails(pi, rails[0], rails[1]);
    }
    debug_assert!(slot_lanes.next().is_none(), "slots must be in input order");
    block.propagate_over(circuit, &cone.topo.order);
    let _ = block.take_kernel_stats();
    let bad = block.violated_lanes(req);
    for (k, &(i, pos)) in slots.iter().enumerate() {
        match (bad.lane(2 * k), bad.lane(2 * k + 1)) {
            (true, true) => return false,
            (true, false) => forced.push((i, pos, Value::One)),
            (false, true) => forced.push((i, pos, Value::Zero)),
            (false, false) => {}
        }
    }
    true
}

/// The requirement-independent topology of a fanin cone: the lines of
/// the fanin cone of a requirement line-set, its inputs and what each
/// input reaches.
#[derive(Debug)]
struct ConeTopo {
    /// Cone lines in circuit topological order (inputs included).
    order: Vec<LineId>,
    /// The cone's primary inputs, in input order.
    pis: Vec<LineId>,
    /// For each cone input: the non-input cone lines it reaches, in
    /// topological order.
    reach: Vec<Vec<LineId>>,
}

impl ConeTopo {
    fn build(circuit: &Circuit, req: &Assignments) -> ConeTopo {
        let mut member = vec![false; circuit.line_count()];
        let mut stack: Vec<LineId> = req.lines().collect();
        for &l in &stack {
            member[l.index()] = true;
        }
        while let Some(l) = stack.pop() {
            for &f in circuit.line(l).fanin() {
                if !member[f.index()] {
                    member[f.index()] = true;
                    stack.push(f);
                }
            }
        }
        let order: Vec<LineId> = circuit
            .topo_order()
            .iter()
            .copied()
            .filter(|l| member[l.index()])
            .collect();
        let pis: Vec<LineId> = circuit
            .inputs()
            .iter()
            .copied()
            .filter(|l| member[l.index()])
            .collect();

        // Topological position of each cone line, for ordering reach sets.
        let mut pos = vec![usize::MAX; circuit.line_count()];
        for (k, &l) in order.iter().enumerate() {
            pos[l.index()] = k;
        }

        let mut reach = Vec::with_capacity(pis.len());
        let mut seen = vec![false; circuit.line_count()];
        for &pi in &pis {
            let mut lines: Vec<LineId> = Vec::new();
            let mut stack = vec![pi];
            seen[pi.index()] = true;
            while let Some(l) = stack.pop() {
                for &f in circuit.line(l).fanout() {
                    if member[f.index()] && !seen[f.index()] {
                        seen[f.index()] = true;
                        lines.push(f);
                        stack.push(f);
                    }
                }
            }
            for &l in &lines {
                seen[l.index()] = false;
            }
            seen[pi.index()] = false;
            lines.sort_unstable_by_key(|l| pos[l.index()]);
            reach.push(lines);
        }
        ConeTopo { order, pis, reach }
    }
}

/// A cone instantiated for one requirement set: the topology plus the
/// requirement triples projected onto each input's reachability list.
#[derive(Debug)]
struct Cone {
    topo: ConeTopo,
    /// For each cone input: the requirement lines it reaches, paired with
    /// their required triples.
    reach_req: Vec<Vec<(LineId, Triple)>>,
}

impl Cone {
    fn project(topo: ConeTopo, req: &Assignments) -> Cone {
        let reach_req = topo
            .pis
            .iter()
            .zip(&topo.reach)
            .map(|(&pi, lines)| {
                std::iter::once(pi)
                    .chain(lines.iter().copied())
                    .filter_map(|l| req.get(l).map(|r| (l, r)))
                    .collect()
            })
            .collect();
        Cone { topo, reach_req }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdf_faults::{robust_assignments, PathDelayFault, Polarity};
    use pdf_netlist::iscas::s27;
    use pdf_paths::Path;

    fn line(k: usize) -> LineId {
        LineId::new(k - 1)
    }

    fn s27_fault(ids: &[usize], pol: Polarity) -> PathDelayFault {
        let path: Path = ids.iter().map(|&k| line(k)).collect();
        PathDelayFault::new(path, pol)
    }

    #[test]
    fn justifies_paper_example() {
        let c = s27();
        let f = s27_fault(&[2, 9, 10, 15], Polarity::SlowToRise);
        let a = robust_assignments(&c, &f).unwrap();
        let mut j = Justifier::new(&c, 42);
        let r = j.justify(&a).expect("testable fault");
        assert!(r.test.is_fully_specified());
        assert!(a.satisfied_by(&r.waves));
        assert_eq!(j.stats().successes, 1);
    }

    #[test]
    fn justified_test_is_deterministic_per_seed() {
        let c = s27();
        let f = s27_fault(
            &[1, 8, 13, 14, 16, 19, 20, 21, 22, 25],
            Polarity::SlowToRise,
        );
        let a = robust_assignments(&c, &f).unwrap();
        for backend in SimBackend::ALL {
            let r1 = Justifier::new(&c, 7)
                .with_backend(backend)
                .justify(&a)
                .unwrap();
            let r2 = Justifier::new(&c, 7)
                .with_backend(backend)
                .justify(&a)
                .unwrap();
            assert_eq!(r1.test, r2.test, "{backend}");
        }
    }

    #[test]
    fn justify_seeded_is_deterministic_per_seed_and_backend() {
        // The freeze-values entry point: same seed + same frozen pins must
        // reproduce the same witness, per backend.
        let c = s27();
        let f1 = s27_fault(&[2, 9, 10, 15], Polarity::SlowToRise);
        let f2 = s27_fault(&[1, 8, 12, 25], Polarity::SlowToRise);
        let a1 = robust_assignments(&c, &f1).unwrap();
        let a2 = robust_assignments(&c, &f2).unwrap();
        let merged = a1.merged(&a2).expect("compatible requirements");
        for backend in SimBackend::ALL {
            let run = || {
                let mut j = Justifier::new(&c, 11).with_backend(backend);
                let first = j.justify(&a1)?;
                let r = j.justify_seeded(&merged, &first.assignment)?;
                Some((first.test, r.test))
            };
            assert_eq!(run(), run(), "{backend}");
        }
    }

    #[test]
    fn backends_agree_on_justifiability_and_witness() {
        // Equal seeds draw equal completion fill words, so the scalar
        // oracle and the packed kernel resolve every call identically.
        let c = s27();
        let paths = pdf_paths::PathEnumerator::new(&c)
            .with_cap(100_000)
            .enumerate();
        let (faults, _) = pdf_faults::FaultList::build(&c, &paths.store);
        let mut scalar = Justifier::new(&c, 19).with_backend(SimBackend::Scalar);
        let mut packed = Justifier::new(&c, 19).with_backend(SimBackend::Packed);
        for e in faults.iter() {
            let s = scalar.justify(&e.assignments);
            let p = packed.justify(&e.assignments);
            assert_eq!(s.is_some(), p.is_some(), "{}", e.fault);
            if let (Some(s), Some(p)) = (s, p) {
                assert_eq!(s.test, p.test, "{}", e.fault);
                // Every packed witness passes the scalar re-check.
                assert!(!e.assignments.violated_by(&p.waves));
                assert!(e.assignments.satisfied_by(&p.waves));
            }
        }
        assert_eq!(scalar.stats().successes, packed.stats().successes);
        assert!(packed.stats().packed_blocks > 0);
        assert_eq!(scalar.stats().packed_blocks, 0);
    }

    #[test]
    fn entry_violation_rule_matches_the_sequential_sweep() {
        // z = AND(a, b) must be stable 1, y = OR(c, d) stable 0. Pinning
        // a = 0 violates z on entry. With b open, b reaches the violated
        // line: a fixpoint conflict. With b pinned too, no open slot
        // reaches it: the fixpoint forces c = d = 0, the test is fully
        // specified, and only the final check fails (unsatisfied). Every
        // backend and width must reach the same two verdicts.
        let mut b = pdf_netlist::CircuitBuilder::new("entry");
        let (a, bb, c, d) = (b.input("a"), b.input("b"), b.input("c"), b.input("d"));
        let z = b.gate("z", pdf_logic::GateKind::And, &[a, bb]);
        let y = b.gate("y", pdf_logic::GateKind::Or, &[c, d]);
        b.mark_output(z);
        b.mark_output(y);
        let circuit = b.finish().unwrap();
        let mut req = pdf_faults::Assignments::new();
        req.require(z, Triple::STABLE1).unwrap();
        req.require(y, Triple::STABLE0).unwrap();
        let reached = [(a, Value::Zero, Value::Zero)];
        let unreached = [(a, Value::Zero, Value::Zero), (bb, Value::One, Value::One)];
        let mut engines = vec![Justifier::new(&circuit, 5).with_backend(SimBackend::Scalar)];
        engines.extend(SimWidth::ALL.into_iter().map(|w| {
            Justifier::new(&circuit, 5).with_options(SimOptions::default().with_width(w))
        }));
        for j in &mut engines {
            assert!(j.justify_seeded(&req, &reached).is_none());
            assert_eq!((j.stats().conflicts, j.stats().unsatisfied), (1, 0));
            assert!(j.justify_seeded(&req, &unreached).is_none());
            assert_eq!((j.stats().conflicts, j.stats().unsatisfied), (1, 1));
        }
    }

    #[test]
    fn unsatisfiable_requirements_fail() {
        let c = s27();
        // Two requirements that no test satisfies: line 8 = NOT(1) must be
        // stable 1 while line 1 is stable 1 as well.
        let mut req = pdf_faults::Assignments::new();
        req.require(line(1), Triple::STABLE1).unwrap();
        req.require(line(8), Triple::STABLE1).unwrap();
        let mut j = Justifier::new(&c, 3);
        assert!(j.justify(&req).is_none());
        assert!(j.stats().conflicts > 0);
    }

    #[test]
    fn every_testable_s27_fault_justifies_with_retries() {
        // With a handful of completion blocks, the randomized engine
        // should find a test for every robustly testable fault of this
        // tiny circuit.
        let c = s27();
        let paths = pdf_paths::PathEnumerator::new(&c)
            .with_cap(100_000)
            .enumerate();
        let (faults, _) = pdf_faults::FaultList::build(&c, &paths.store);
        let mut j = Justifier::new(&c, 11).with_attempts(8);
        let mut found = 0usize;
        for e in faults.iter() {
            if let Some(r) = j.justify(&e.assignments) {
                assert!(e.assignments.satisfied_by(&r.waves), "{}", e.fault);
                found += 1;
            }
        }
        // s27's robustly testable fault population is well over half the
        // candidates; exact counts are pinned by integration tests.
        assert!(found > faults.len() / 2, "found {found}/{}", faults.len());
    }

    #[test]
    fn merged_requirements_detect_both_faults() {
        let c = s27();
        let f1 = s27_fault(&[2, 9, 10, 15], Polarity::SlowToRise);
        let f2 = s27_fault(&[1, 8, 12, 25], Polarity::SlowToRise);
        let a1 = robust_assignments(&c, &f1).unwrap();
        let a2 = robust_assignments(&c, &f2).unwrap();
        if let Some(merged) = a1.merged(&a2) {
            let mut j = Justifier::new(&c, 5).with_attempts(4);
            if let Some(r) = j.justify(&merged) {
                assert!(a1.satisfied_by(&r.waves));
                assert!(a2.satisfied_by(&r.waves));
            }
        }
    }

    #[test]
    fn out_of_cone_inputs_are_randomized_but_test_complete() {
        let c = s27();
        // The fault on (3,15): cone involves inputs 2, 3, 7 only.
        let f = s27_fault(&[3, 15], Polarity::SlowToRise);
        let a = robust_assignments(&c, &f).unwrap();
        let r = Justifier::new(&c, 9).justify(&a).unwrap();
        assert!(r.test.is_fully_specified());
        assert_eq!(r.test.len(), 7);
    }

    #[test]
    fn exhausted_budget_fails_justification_without_drawing_rng() {
        let c = s27();
        let f = s27_fault(&[2, 9, 10, 15], Polarity::SlowToRise);
        let a = robust_assignments(&c, &f).unwrap();
        let cancel = pdf_runctl::CancelToken::new();
        cancel.cancel();
        let mut j = Justifier::new(&c, 42).with_budget(RunBudget::unlimited().and_cancel(cancel));
        let before = j.rng_state();
        assert!(j.justify(&a).is_none());
        assert_eq!(j.stats().calls, 1);
        assert_eq!(
            j.rng_state(),
            before,
            "an entry-poll abort must not draw RNG"
        );
    }

    #[test]
    fn rng_state_round_trips_across_justifiers() {
        let c = s27();
        let f1 = s27_fault(&[2, 9, 10, 15], Polarity::SlowToRise);
        let f2 = s27_fault(&[1, 8, 12, 25], Polarity::SlowToRise);
        let a1 = robust_assignments(&c, &f1).unwrap();
        let a2 = robust_assignments(&c, &f2).unwrap();
        // One justifier runs both calls; a second is rebuilt mid-stream
        // from the first's snapshot and must produce the same second test.
        let mut full = Justifier::new(&c, 77);
        let _ = full.justify(&a1);
        let snapshot = full.rng_state();
        let t_full = full.justify(&a2).map(|r| r.test);
        let mut resumed = Justifier::new(&c, 0);
        resumed.set_rng_state(snapshot);
        let t_resumed = resumed.justify(&a2).map(|r| r.test);
        assert_eq!(t_full, t_resumed);
    }

    #[test]
    fn stats_accumulate() {
        let c = s27();
        let f = s27_fault(&[2, 9, 10, 15], Polarity::SlowToRise);
        let a = robust_assignments(&c, &f).unwrap();
        let mut j = Justifier::new(&c, 1);
        let _ = j.justify(&a);
        let _ = j.justify(&a);
        assert_eq!(j.stats().calls, 2);
        assert!(j.stats().simulations > 0);
        assert!(j.stats().fixpoint_passes > 0);
        assert!(j.fixpoint_seconds() > 0.0);
    }

    #[test]
    fn branch_guide_costs() {
        let guide = BranchGuide::new(vec![1, 5, 3], vec![2, 4, 3]);
        assert_eq!(guide.difficulty(LineId::new(0)), 2);
        assert_eq!(guide.difficulty(LineId::new(1)), 5);
        assert_eq!(guide.difficulty(LineId::new(9)), 0, "beyond the tables");
        assert_eq!(guide.easier_value(LineId::new(0)), Value::Zero);
        assert_eq!(guide.easier_value(LineId::new(1)), Value::One);
        assert_eq!(guide.easier_value(LineId::new(2)), Value::Zero, "tie → 0");

        let mut a = pdf_faults::Assignments::new();
        a.require(LineId::new(0), Triple::STABLE1).unwrap();
        a.require(LineId::new(1), Triple::RISING).unwrap();
        // STABLE1 on line 0 costs CC1 = 2; RISING's steady value on
        // line 1 costs CC1 = 4.
        assert_eq!(guide.assignment_cost(&a), 6);
    }

    #[test]
    #[should_panic(expected = "same lines")]
    fn branch_guide_rejects_mismatched_tables() {
        let _ = BranchGuide::new(vec![1], vec![1, 2]);
    }

    /// A uniform guide for a circuit (every line cost 1/1) — enough to
    /// flip the justifier onto the deterministic decision path.
    fn flat_guide(c: &Circuit) -> std::sync::Arc<BranchGuide> {
        std::sync::Arc::new(BranchGuide::new(
            vec![1; c.line_count()],
            vec![1; c.line_count()],
        ))
    }

    #[test]
    fn guide_leaves_completion_phase_witnesses_unchanged() {
        // The guide only replaces guided-search decisions; a call resolved
        // by a random-completion lane must return the same witness with
        // and without it.
        let c = s27();
        let f = s27_fault(&[2, 9, 10, 15], Polarity::SlowToRise);
        let a = robust_assignments(&c, &f).unwrap();
        let mut plain = Justifier::new(&c, 42);
        let mut guided = Justifier::new(&c, 42).with_guide(flat_guide(&c));
        let rp = plain.justify(&a).unwrap();
        let rg = guided.justify(&a).unwrap();
        assert_eq!(rp.test, rg.test);
        assert_eq!(guided.stats().scoap_guided_branches, 0, "lane hit");
    }

    /// z = AND of five 2-input XOR pairs: the necessary-value fixpoint
    /// assigns nothing (one XOR input alone never violates), and a
    /// satisfying completion is a ≈(1/4)^5 event per candidate, so a
    /// single 64-lane block almost surely misses and the guided decision
    /// search must run.
    fn sparse_parity_circuit() -> Circuit {
        let mut b = pdf_netlist::CircuitBuilder::new("sparse");
        let mut pairs = Vec::new();
        for k in 0..5 {
            let x = b.input(format!("x{k}"));
            let y = b.input(format!("y{k}"));
            pairs.push(b.gate(format!("p{k}"), pdf_logic::GateKind::Xor, &[x, y]));
        }
        let z = b.gate("z", pdf_logic::GateKind::And, &pairs);
        b.mark_output(z);
        b.finish().unwrap()
    }

    #[test]
    fn guide_drives_the_decision_search_deterministically() {
        let c = sparse_parity_circuit();
        let z = c.find_line("z").unwrap();
        let mut req = pdf_faults::Assignments::new();
        req.require(z, Triple::STABLE1).unwrap();
        let run = || {
            let mut j = Justifier::new(&c, 2002).with_guide(flat_guide(&c));
            let witness = j.justify(&req).map(|r| r.test);
            (witness, j.stats())
        };
        let (w1, s1) = run();
        let (w2, s2) = run();
        assert_eq!(w1, w2, "guided decisions must be deterministic");
        assert_eq!(s1, s2);
        assert!(
            s1.scoap_guided_branches > 0,
            "the sparse requirement must reach the guided decision search"
        );
        if let Some(test) = w1 {
            assert!(test.is_fully_specified());
        }
    }
}
