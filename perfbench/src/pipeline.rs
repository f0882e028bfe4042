//! One job: `.bench` text to a verified test set, through the public API
//! of each layer, with a span around every layer call.

use std::time::Instant;

use pdf_atpg::{AtpgConfig, AtpgOutcome, Coverage, EnrichmentAtpg, TargetSplit, TestSet};
use pdf_faults::{FaultList, FaultListStats};
use pdf_netlist::Circuit;
use pdf_paths::PathEnumerator;

use crate::args::{Params, Workload};
use crate::inputs::Inputs;
use crate::stats::process_cpu_seconds;
use crate::trace::Tracer;

/// Everything a job produced, kept for the checks and the per-layer
/// counts.
pub struct JobOutput {
    /// Wall time of the whole job.
    pub wall_s: f64,
    /// Process CPU time (all threads) over the job.
    pub cpu_s: f64,
    /// The parsed circuit.
    pub circuit: Circuit,
    /// Paths the enumerator kept.
    pub stored_paths: usize,
    /// Elimination counters.
    pub build: FaultListStats,
    /// The fault population `P`.
    pub faults: FaultList,
    /// `P0`, `P1`.
    pub split: TargetSplit,
    /// The generation result (generation workloads only).
    pub outcome: Option<AtpgOutcome>,
    /// Packed-kernel coverage of the final test set, one per target set.
    pub coverage: Vec<Coverage>,
}

impl JobOutput {
    /// The test set the job ends with: generated, or the graded patterns.
    pub fn test_count(&self, inputs: &Inputs) -> usize {
        match (&self.outcome, &inputs.patterns) {
            (Some(o), _) => o.tests().len(),
            (None, Some(p)) => p.len(),
            (None, None) => 0,
        }
    }
}

/// Runs one job. `job` labels its spans; nothing is recorded unless the
/// tracer is enabled.
pub fn run_job(
    inputs: &Inputs,
    params: &Params,
    workload: Workload,
    config: &AtpgConfig,
    tracer: &mut Tracer,
    job: usize,
) -> Result<JobOutput, String> {
    let (n_p, n_p0) = if workload.generates() {
        (params.enrich_np, params.enrich_np0)
    } else {
        (params.grade_np, params.grade_np0)
    };
    let cpu0 = process_cpu_seconds();
    let t0 = Instant::now();
    let root = tracer.begin("job", job, None);

    let circuit = tracer.span("parse", job, root, || {
        pdf_netlist::parse_bench(&inputs.bench, &inputs.name)
            .map_err(|e| format!("parse: {e}"))
            .and_then(|n| n.to_circuit().map_err(|e| format!("to_circuit: {e}")))
    })?;
    let enumeration = tracer.span("enumerate", job, root, || {
        PathEnumerator::new(&circuit).with_cap(n_p).enumerate()
    });
    let (faults, build) = tracer.span("faults", job, root, || {
        FaultList::build(&circuit, &enumeration.store)
    });
    let split = tracer.span("split", job, root, || {
        TargetSplit::by_cumulative_length(&faults, n_p0)
    });
    if split.sets().get(1).is_none_or(FaultList::is_empty) {
        return Err(format!(
            "|P1| = 0 at N_P {n_p}, N_P0 {n_p0}: refused, the workload needs two target sets"
        ));
    }
    let outcome = workload.generates().then(|| {
        tracer.span("generate", job, root, || {
            EnrichmentAtpg::new(&circuit)
                .with_config(config.clone())
                .run(&split)
        })
    });
    let graded = match (&outcome, &inputs.patterns) {
        (Some(o), _) => o.tests(),
        (None, Some(p)) => p,
        (None, None) => return Err("grade job without a pattern set".to_owned()),
    };
    let coverage = tracer.span("coverage", job, root, || {
        coverage_per_set(graded, &circuit, &split)
    });

    tracer.end(root);
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = process_cpu_seconds() - cpu0;
    Ok(JobOutput {
        wall_s,
        cpu_s,
        circuit,
        stored_paths: enumeration.store.len(),
        build,
        faults,
        split,
        outcome,
        coverage,
    })
}

fn coverage_per_set(tests: &TestSet, circuit: &Circuit, split: &TargetSplit) -> Vec<Coverage> {
    split
        .sets()
        .iter()
        .map(|set| tests.coverage(circuit, set))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Scale;
    use crate::checks::verify_generated;

    #[test]
    fn the_workload_seed_leaves_the_work_unchanged() {
        let params = Scale::Smoke.params();
        let config = AtpgConfig::default();
        let job = |seed| {
            let inputs =
                crate::inputs::synthesize(&params, params.stand_in_seed, Workload::Enrich, seed);
            let out = run_job(
                &inputs,
                &params,
                Workload::Enrich,
                &config,
                &mut Tracer::new(),
                0,
            )
            .unwrap();
            let stats = out.outcome.as_ref().unwrap().stats().justify;
            (inputs.bench, verify_generated(&out, false).unwrap(), stats)
        };
        let (text1, verified1, stats1) = job(1);
        let (text2, verified2, stats2) = job(2);
        assert_ne!(text1, text2);
        assert_eq!(verified1, verified2);
        assert_eq!(stats1, stats2);
    }
}
