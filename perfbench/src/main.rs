//! The repository's benchmark: netlist-to-test-set pipeline jobs run in a
//! closed loop, one at a time, from one process.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload enrich|enrich-2t|grade --seed <n> --seconds <s> --trace 0|1
//! ```
//!
//! Each job runs parse → enumerate → `FaultList::build` → split →
//! generate (generation workloads) → per-set coverage on freshly parsed
//! `.bench` text. Every job's output is checked (see `checks`). The last
//! line of standard output is one JSON object: with `--trace 0` the
//! end-to-end metrics, with `--trace 1` the per-layer metrics, taken from
//! spans recorded around each layer call (written to
//! `.bench_out/spans-<workload>-<seed>.json`). The exit code is 0 when
//! every check passed, 1 when a check failed, 2 on bad usage or a refused
//! input.
//!
//! Extra options: `--circuit-seed <n>` rebuilds the circuit from another
//! profile seed (circuit seed 1 is the held-out circuit for claims);
//! `--scale smoke` runs a small circuit; `--corrupt` flips one bit of
//! every job's output so the checks must fail; `--out-dir <dir>` moves
//! the span file. `--setup-probe` sets up, prints the set-up time and
//! exits: `setup_s` is measured over many processes started so.

mod args;
mod checks;
mod inputs;
mod pipeline;
mod report;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use pdf_atpg::{AtpgConfig, SimWidth};
use pdf_telemetry::Json;

use args::{Args, Workload};
use checks::Verified;
use pipeline::JobOutput;
use trace::Tracer;

/// `setup_s` is the median over `SETUP_GROUPS` groups of the mean set-up
/// time of fresh processes, each group adding processes until their
/// set-ups have taken `SETUP_GROUP_S` (at most `SETUP_GROUP_MAX`). A
/// single set-up of the small circuit takes a few milliseconds, so one
/// process samples the host's momentary speed; a group spans enough of
/// it to settle.
const SETUP_GROUPS: usize = 5;
const SETUP_GROUP_S: f64 = 0.4;
const SETUP_GROUP_MAX: usize = 128;

/// Removes every `PDF_*` variable so a stray setting cannot change the
/// program under test. Returns the names removed.
fn pin_environment() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("PDF_"))
        .collect();
    for name in &names {
        // The process is still single-threaded here.
        std::env::remove_var(name);
    }
    names
}

/// The commit under test, when the benchmark runs from a git checkout.
fn commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".to_owned();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".to_owned(), |s| s.trim().to_owned())
}

/// Runs the set-up (`main` up to the first timed job) in a fresh process
/// of this binary and returns its set-up time. Fresh processes repeat the
/// once-per-process initialisation, which an in-process loop cannot.
fn setup_probe(exe: &std::path::Path, argv: &[String]) -> Result<f64, String> {
    let out = std::process::Command::new(exe)
        .args(argv)
        .arg("--setup-probe")
        .stdin(std::process::Stdio::null())
        .output()
        .map_err(|e| format!("set-up probe: {e}"))?;
    match String::from_utf8_lossy(&out.stdout).trim().parse::<f64>() {
        Ok(s) if out.status.success() => Ok(s),
        _ => Err(format!(
            "set-up probe exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}

/// The mean set-up time of each group of probes (see `SETUP_GROUPS`),
/// and the number of probes run.
fn setup_groups() -> Result<(Vec<f64>, usize), String> {
    let exe = std::env::current_exe().map_err(|e| format!("set-up probe: {e}"))?;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut groups = Vec::new();
    let mut probes = 0;
    for _ in 0..SETUP_GROUPS {
        let mut samples = Vec::new();
        while samples.is_empty()
            || (samples.iter().sum::<f64>() < SETUP_GROUP_S && samples.len() < SETUP_GROUP_MAX)
        {
            samples.push(setup_probe(&exe, &argv)?);
        }
        probes += samples.len();
        groups.push(samples.iter().sum::<f64>() / samples.len() as f64);
    }
    Ok((groups, probes))
}

/// One timed job's record.
struct JobRecord {
    wall_s: f64,
    cpu_s: f64,
    traced: bool,
    verdict: Result<Verified, String>,
}

fn main() -> ExitCode {
    let t0 = Instant::now();
    let cleared = pin_environment();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The program's once-per-process initialisation: the tile-width
    // calibration probe every packed simulation goes through.
    let width = SimWidth::auto();
    let params = args.scale.params();
    let inputs = inputs::synthesize(&params, args.circuit_seed, args.workload, args.seed);
    if args.setup_probe {
        println!("{}", t0.elapsed().as_secs_f64());
        return ExitCode::SUCCESS;
    }
    let (setup, setup_probes) = match setup_groups() {
        Ok(groups) => groups,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };

    let mut run_errors = Vec::new();
    if args.circuit_seed == params.stand_in_seed {
        if let Err(e) = inputs::check_stand_in(&params) {
            run_errors.push(e);
        }
    }

    let config = AtpgConfig {
        threads: args.workload.threads(),
        ..AtpgConfig::default()
    };
    let mut tracer = Tracer::new();
    let mut records: Vec<JobRecord> = Vec::new();
    let mut first: Option<JobOutput> = None;
    let mut first_flags = Vec::new();
    let min_jobs = if args.trace { 2 } else { 1 };
    let loop_start = Instant::now();
    loop {
        let job = records.len();
        // The traced run alternates traced and untraced jobs so the
        // tracing overhead is measured in the same process.
        let traced = args.trace && job.is_multiple_of(2);
        tracer.set_enabled(traced);
        let result = pipeline::run_job(&inputs, &params, args.workload, &config, &mut tracer, job);
        tracer.set_enabled(false);
        let out = match result {
            Ok(out) => out,
            Err(e) => {
                eprintln!("perfbench: circuit seed {:#x}: {e}", args.circuit_seed);
                return ExitCode::from(2);
            }
        };
        let verdict = if args.workload.generates() {
            checks::verify_generated(&out, args.corrupt)
        } else {
            let flags = checks::graded_flags(&out, args.corrupt);
            let verified = checks::verify_graded(&out, &inputs, &flags);
            if job == 0 {
                first_flags = flags;
            }
            Ok(verified)
        };
        let verdict = match (&verdict, records.first()) {
            (
                Ok(v),
                Some(JobRecord {
                    verdict: Ok(v0), ..
                }),
            ) if v != v0 => Err(format!(
                "job {job} output differs from job 0 (digest {:016x} vs {:016x})",
                v.digest, v0.digest
            )),
            _ => verdict,
        };
        if let Err(e) = &verdict {
            eprintln!("perfbench: job {job} check failed: {e}");
        }
        records.push(JobRecord {
            wall_s: out.wall_s,
            cpu_s: out.cpu_s,
            traced,
            verdict,
        });
        if first.is_none() {
            first = Some(out);
        }
        if loop_start.elapsed().as_secs_f64() >= args.seconds && records.len() >= min_jobs {
            break;
        }
    }
    let first = first.expect("at least one job ran");

    // The scalar oracle re-grades the first job's packed grade; later
    // jobs repeat its digest.
    if let Some(patterns) = &inputs.patterns {
        if let Err(e) = checks::regrade_scalar(&first, patterns, &first_flags) {
            run_errors.push(e);
        }
    }

    // The two-thread test set must equal the one-thread one byte for byte.
    if args.workload == Workload::Enrich2t {
        let serial = AtpgConfig {
            threads: 1,
            ..config.clone()
        };
        let mut quiet = Tracer::new();
        match pipeline::run_job(&inputs, &params, args.workload, &serial, &mut quiet, 0) {
            Ok(reference) => match (
                checks::verify_generated(&reference, false),
                &records[0].verdict,
            ) {
                (Ok(r), Ok(v)) if r.digest != v.digest => run_errors.push(format!(
                    "the 2-thread test set (digest {:016x}) differs from the 1-thread one \
                     ({:016x})",
                    v.digest, r.digest
                )),
                (Err(e), _) => run_errors.push(format!("1-thread reference: {e}")),
                _ => {}
            },
            Err(e) => run_errors.push(format!("1-thread reference: {e}")),
        }
    }

    let mut layer = None;
    if args.trace {
        tracer.set_enabled(true);
        let probes = report::replay(&mut tracer, &first, &config, args.workload);
        tracer.set_enabled(false);
        if let Err(e) = trace::reconcile(tracer.spans()) {
            run_errors.push(format!("trace: {e}"));
        }
        let path = args
            .out_dir
            .join(format!("spans-{}-{}.json", args.workload.name(), args.seed));
        if let Err(e) = std::fs::create_dir_all(&args.out_dir)
            .and_then(|()| std::fs::write(&path, tracer.to_json().to_pretty()))
        {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
        layer = Some(report::layer_metrics(
            tracer.spans(),
            &first,
            &inputs,
            &probes,
            &records
                .iter()
                .map(|r| (r.wall_s, r.cpu_s, r.traced))
                .collect::<Vec<_>>(),
            args.workload,
        ));
    }

    // A failed run-level check fails every job.
    let failed = if run_errors.is_empty() {
        records.iter().filter(|r| r.verdict.is_err()).count()
    } else {
        for e in &run_errors {
            eprintln!("perfbench: check failed: {e}");
        }
        records.len()
    };
    let verified: Vec<&Verified> = records
        .iter()
        .filter_map(|r| r.verdict.as_ref().ok())
        .collect();
    let reference = verified.first().copied();
    let untraced: Vec<&JobRecord> = records.iter().filter(|r| !r.traced).collect();
    let walls: Vec<f64> = untraced.iter().map(|r| r.wall_s).collect();
    let cpus: Vec<f64> = untraced.iter().map(|r| r.cpu_s).collect();
    let failed_share = if run_errors.is_empty() {
        stats::ratio(
            verified.iter().map(|v| v.failed_share).sum::<f64>() + failed as f64,
            records.len() as f64,
        )
    } else {
        1.0
    };

    let mut pipeline = Json::object()
        .field("jobs", walls.len())
        .field("p50", stats::median(&walls));
    if let Some(p) = stats::tail_percentile(walls.len()) {
        pipeline = pipeline.field(&format!("p{p}"), stats::percentile(&walls, f64::from(p)));
    }
    let numbers = |v: Vec<f64>| Json::from(v.into_iter().map(Json::from).collect::<Vec<_>>());
    let context = Json::object()
        .field("workload", args.workload.name())
        .field("seed", args.seed)
        .field("circuit_seed", args.circuit_seed)
        .field("commit", commit())
        .field(
            "nproc",
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        )
        .field("sim_width", width.lanes())
        .field("setup_probes", setup_probes)
        .field("setup_group_means_s", numbers(setup.clone()))
        .field(
            "env_cleared",
            Json::from(cleared.into_iter().map(Json::from).collect::<Vec<_>>()),
        )
        .field(
            "fingerprint",
            Json::object()
                .field("lines", first.circuit.line_count())
                .field("candidates", first.build.candidates)
                .field("P", first.faults.len())
                .field("P0", first.split.p0().len())
                .field("P1", first.split.p1().len()),
        )
        .field("jobs", records.len())
        .field(
            "job_wall_s",
            numbers(records.iter().map(|r| r.wall_s).collect()),
        )
        .field(
            "digest",
            format!("{:016x}", reference.map_or(0, |v| v.digest)),
        )
        .field("failed_share", failed_share)
        .field("pipeline_s", pipeline);
    println!(
        "{}",
        report::one_line(&Json::object().field("context", context))
    );

    let metrics = match layer {
        Some(m) => m,
        None => {
            let pick = |f: fn(&Verified) -> usize| reference.map_or(0.0, |v| f(v) as f64);
            vec![
                ("setup_s", stats::median(&setup), "s"),
                ("pipeline_s", stats::median(&walls), "s"),
                ("cpu_s", stats::median(&cpus), "s"),
                ("peak_rss_mb", stats::peak_rss_mib(), "MiB"),
                ("tests", pick(|v| v.tests), "count"),
                ("p0_detected", pick(|v| v.p0), "count"),
                ("p1_detected", pick(|v| v.p1), "count"),
            ]
        }
    };
    println!(
        "{}",
        report::one_line(&report::result_json(
            failed == 0,
            records.len(),
            failed,
            &metrics
        ))
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
