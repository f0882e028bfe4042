//! The traced run's replay probes and per-layer metrics, and the JSON
//! lines the benchmark prints.

use std::hint::black_box;
use std::time::Instant;

use pdf_atpg::{AtpgConfig, Justifier};
use pdf_faults::Implicator;
use pdf_telemetry::Json;

use crate::args::Workload;
use crate::inputs::Inputs;
use crate::pipeline::JobOutput;
use crate::stats::{median, percentile, ratio};
use crate::trace::{children, unattributed_share, Span, Tracer};

/// A named metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// A job whose layer spans cover less of it than this is flagged.
const MIN_COVERED_SHARE: f64 = 0.95;

/// Per-call timings of the two replay probes.
pub struct Probes {
    implicate_ms: Vec<f64>,
    justify_ms: Vec<f64>,
    justify_s: f64,
    completion_s: f64,
}

/// Replays, on the first job's circuit, `Implicator::from_assignments`
/// over every fault's `A(p)` and (generation workloads) a fresh
/// `Justifier` over every `P0` fault, each under its own root span.
pub fn replay(
    tracer: &mut Tracer,
    first: &JobOutput,
    config: &AtpgConfig,
    workload: Workload,
) -> Probes {
    let id = tracer.begin("replay.implicate", 0, None);
    let implicate_ms = first
        .faults
        .iter()
        .map(|e| {
            let t = Instant::now();
            black_box(Implicator::from_assignments(&first.circuit, &e.assignments).is_ok());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    tracer.end(id);

    let mut probes = Probes {
        implicate_ms,
        justify_ms: Vec::new(),
        justify_s: 0.0,
        completion_s: 0.0,
    };
    if workload.generates() {
        let id = tracer.begin("replay.justify", 0, None);
        let start = Instant::now();
        let mut justifier = Justifier::new(&first.circuit, config.seed)
            .with_attempts(config.justify_attempts)
            .with_options(config.sim)
            .with_cone_cache(config.cone_cache);
        for e in first.split.p0().iter() {
            let t = Instant::now();
            black_box(justifier.justify(&e.assignments).is_some());
            probes.justify_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        probes.justify_s = start.elapsed().as_secs_f64();
        probes.completion_s = justifier.completion_seconds();
        tracer.end(id);
    }
    probes
}

/// The layers, named after the crates, and the job spans each owns.
const LAYERS: [(&str, &[&str]); 5] = [
    ("netlist.share", &["parse"]),
    ("paths.share", &["enumerate"]),
    ("faults.share", &["faults"]),
    ("generator.share", &["split", "generate"]),
    ("sim.share", &["coverage"]),
];

/// Every per-layer metric of the traced run. Timings are medians over the
/// traced jobs; counts come from the first job (later jobs are checked
/// to repeat it). `job_times` holds every timed job's `(wall, cpu,
/// traced)`.
pub fn layer_metrics(
    spans: &[Span],
    first: &JobOutput,
    inputs: &Inputs,
    probes: &Probes,
    job_times: &[(f64, f64, bool)],
    workload: Workload,
) -> Vec<Metric> {
    let jobs: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].name == "job")
        .collect();
    let child_s = |job: usize, names: &[&str]| -> f64 {
        children(spans, job)
            .filter(|c| names.contains(&c.name))
            .map(Span::seconds)
            .fold(0.0, |a, b| a + b)
    };
    let span_s = |name: &str| {
        median(
            &jobs
                .iter()
                .map(|&j| child_s(j, &[name]))
                .collect::<Vec<_>>(),
        )
    };
    let unattributed: Vec<f64> = jobs.iter().map(|&j| unattributed_share(spans, j)).collect();
    let low_coverage = unattributed
        .iter()
        .filter(|&&u| 1.0 - u < MIN_COVERED_SHARE)
        .count();
    for (&j, u) in jobs.iter().zip(&unattributed) {
        if 1.0 - u < MIN_COVERED_SHARE {
            eprintln!(
                "perfbench: FLAG job {} of {}: layer spans cover only {:.1}% of it",
                spans[j].job,
                workload.name(),
                100.0 * (1.0 - u)
            );
        }
    }

    let n = |x: usize| x as f64;
    let faults = n(first.faults.len());
    let tests = n(first.test_count(inputs));
    let generate_s = span_s("generate");
    let coverage_s = span_s("coverage");
    let outcome = first.outcome.as_ref();
    let s = outcome.map(|o| *o.stats()).unwrap_or_default();
    let justify = s.justify;
    let detected = |set: usize| n(outcome.map_or(0, |o| o.detected_in_set(set)));
    let primaries = outcome.map_or(0, |o| o.tests().len()) + s.aborted_primaries;
    let times = |traced: bool, pick: fn(&(f64, f64, bool)) -> f64| {
        let v: Vec<f64> = job_times
            .iter()
            .filter(|t| t.2 == traced)
            .map(pick)
            .collect();
        median(&v)
    };
    let considered =
        s.secondary_accepts + s.free_accepts + s.secondary_rejects + s.conflict_rejects;

    let mut m: Vec<Metric> = vec![
        ("netlist.parse_s", span_s("parse"), "s"),
        ("netlist.lines", n(first.circuit.line_count()), "count"),
        ("paths.enumerate_s", span_s("enumerate"), "s"),
        ("paths.stored", n(first.stored_paths), "count"),
        ("faults.build_s", span_s("faults"), "s"),
        ("faults.candidates", n(first.build.candidates), "count"),
        ("faults.kept", faults, "count"),
        (
            "faults.kept_ratio",
            ratio(faults, n(first.build.candidates)),
            "ratio",
        ),
        (
            "faults.implicate_calls",
            n(probes.implicate_ms.len()),
            "count",
        ),
        (
            "faults.implicate_ms.p50",
            percentile(&probes.implicate_ms, 50.0),
            "ms",
        ),
        (
            "faults.implicate_ms.p90",
            percentile(&probes.implicate_ms, 90.0),
            "ms",
        ),
        ("generator.generate_s", generate_s, "s"),
        ("generator.p0", detected(0), "count"),
        ("generator.p1", detected(1), "count"),
        ("generator.primaries", n(primaries), "count"),
        ("generator.aborted", n(s.aborted_primaries), "count"),
        (
            "generator.secondary_accepts",
            n(s.secondary_accepts),
            "count",
        ),
        ("generator.free_accepts", n(s.free_accepts), "count"),
        (
            "generator.secondary_rejects",
            n(s.secondary_rejects),
            "count",
        ),
        ("generator.conflict_rejects", n(s.conflict_rejects), "count"),
        (
            "generator.accept_ratio",
            ratio(n(s.secondary_accepts + s.free_accepts), n(considered)),
            "ratio",
        ),
        (
            "generator.failed_share",
            outcome.map_or(0.0, crate::checks::failed_share),
            "ratio",
        ),
        ("justify.calls", n(justify.calls), "count"),
        (
            "justify.success_ratio",
            ratio(n(justify.successes), n(justify.calls)),
            "ratio",
        ),
        ("justify.simulations", n(justify.simulations), "count"),
        (
            "justify.completion_attempts",
            n(justify.completion_attempts),
            "count",
        ),
        ("justify.lane_hits", n(justify.lane_hits), "count"),
        (
            "justify.cone_hit_ratio",
            ratio(
                n(justify.cone_hits),
                n(justify.cone_hits + justify.cone_misses),
            ),
            "ratio",
        ),
        (
            "justify.events_propagated",
            justify.events_propagated as f64,
            "count",
        ),
        ("justify.replay_s", probes.justify_s, "s"),
        (
            "justify.call_ms.p50",
            percentile(&probes.justify_ms, 50.0),
            "ms",
        ),
        (
            "justify.call_ms.p90",
            percentile(&probes.justify_ms, 90.0),
            "ms",
        ),
        (
            "justify.completion_share",
            ratio(probes.completion_s, probes.justify_s),
            "ratio",
        ),
        ("sim.coverage_s", coverage_s, "s"),
        ("sim.checks", tests * faults, "count"),
        ("sim.checks_per_s", ratio(tests * faults, coverage_s), "1/s"),
        ("pool.builds_discarded", n(s.builds_discarded), "count"),
        (
            "pool.discard_ratio",
            ratio(n(s.builds_discarded), n(primaries + s.builds_discarded)),
            "ratio",
        ),
        (
            "pool.cpu_per_wall",
            ratio(times(true, |t| t.1), generate_s),
            "ratio",
        ),
        (
            "trace.overhead_s",
            times(true, |t| t.0) - times(false, |t| t.0),
            "s",
        ),
        ("trace.unattributed_share", median(&unattributed), "ratio"),
        ("trace.low_coverage_jobs", n(low_coverage), "count"),
    ];
    for (name, owned) in LAYERS {
        let shares: Vec<f64> = jobs
            .iter()
            .map(|&j| ratio(child_s(j, owned), spans[j].seconds()))
            .collect();
        m.push((name, median(&shares), "ratio"));
    }
    m
}

/// Renders a value on one line.
pub fn one_line(json: &Json) -> String {
    json.to_pretty().lines().map(str::trim_start).collect()
}

/// The result line the benchmark ends its output with.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> Json {
    let body = metrics
        .iter()
        .fold(Json::object(), |o, (name, value, unit)| {
            o.field(
                name,
                Json::object().field("value", *value).field("unit", *unit),
            )
        });
    Json::object()
        .field("correct", correct)
        .field("attempted", attempted)
        .field("failed", failed)
        .field("metrics", body)
}
