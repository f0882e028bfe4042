//! Command line: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`,
//! plus the options the benchmark's own tests and held-out claims use.

use std::path::PathBuf;

use pdf_netlist::SynthProfile;

/// The default workload seed.
pub const DEFAULT_SEED: u64 = 0x9234F;

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Enrichment generation on one thread.
    Enrich,
    /// The same generation on two pool threads; must match `Enrich`.
    Enrich2t,
    /// Bulk grading of a low-transition pseudo-random pattern set.
    Grade,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "enrich" => Some(Workload::Enrich),
            "enrich-2t" => Some(Workload::Enrich2t),
            "grade" => Some(Workload::Grade),
            _ => None,
        }
    }

    /// The name the command line and the report use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Enrich => "enrich",
            Workload::Enrich2t => "enrich-2t",
            Workload::Grade => "grade",
        }
    }

    /// Generation threads (`AtpgConfig::threads`).
    pub fn threads(self) -> usize {
        match self {
            Workload::Enrich2t => 2,
            Workload::Enrich | Workload::Grade => 1,
        }
    }

    /// Whether the job generates a test set (as opposed to grading one).
    pub fn generates(self) -> bool {
        self != Workload::Grade
    }
}

/// Input sizes. `Full` is the benchmark; `Smoke` runs every code path on
/// a small circuit in well under a second, for the benchmark's own tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The `s9234*` stand-in at the sizes `BENCHMARK.json` describes.
    Full,
    /// The `b09` stand-in at small caps.
    Smoke,
}

/// The sizes and circuit profile one scale uses.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// The repository stand-in whose profile the circuit is rebuilt from.
    pub stand_in: &'static str,
    /// The stand-in's own profile seed: at this circuit seed the rebuilt
    /// `.bench` text must equal the stand-in's byte for byte.
    pub stand_in_seed: u64,
    /// Path cap `N_P` for the generation workloads.
    pub enrich_np: usize,
    /// Split threshold `N_P0` for the generation workloads.
    pub enrich_np0: usize,
    /// Path cap for `grade`.
    pub grade_np: usize,
    /// Split threshold for `grade`. Large enough that pseudo-random
    /// patterns detect some `P0` faults: at `N_P0 = N_P / 10` they detect
    /// none or one, and a count that can be 0 cannot be bounded.
    pub grade_np0: usize,
    /// Patterns graded per `grade` job.
    pub grade_patterns: usize,
}

impl Scale {
    /// This scale's sizes.
    pub fn params(self) -> Params {
        match self {
            Scale::Full => Params {
                stand_in: "s9234*",
                stand_in_seed: 0x9234F,
                enrich_np: 2_000,
                enrich_np0: 200,
                grade_np: 20_000,
                grade_np0: 6_000,
                grade_patterns: 131_072,
            },
            Scale::Smoke => Params {
                stand_in: "b09",
                stand_in_seed: 0xB09,
                enrich_np: 400,
                enrich_np0: 40,
                grade_np: 1_000,
                grade_np0: 200,
                grade_patterns: 4_096,
            },
        }
    }
}

impl Params {
    /// The stand-in's profile rebuilt from `seed` through the public
    /// builders. The builder values mirror `stand_in_profile`; the
    /// byte-for-byte check at the stand-in's own seed keeps them honest.
    pub fn profile(&self, seed: u64) -> SynthProfile {
        let p = SynthProfile::new(self.stand_in, seed);
        match self.stand_in {
            "s9234*" => p
                .with_inputs(140)
                .with_gates(1200)
                .with_levels(20)
                .with_adjacent_bias(0.3)
                .with_arity3_share(0.20)
                .with_inverter_share(0.10)
                .with_pi_bias(0.5),
            "b09" => p
                .with_inputs(29)
                .with_gates(160)
                .with_levels(10)
                .with_adjacent_bias(0.4)
                .with_arity3_share(0.20)
                .with_inverter_share(0.10)
                .with_pi_bias(0.5),
            other => unreachable!("no builder chain for stand-in {other}"),
        }
    }
}

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// The workload seed: signal names and the order of the graded
    /// patterns.
    pub seed: u64,
    /// How long the timed loop runs, in seconds (at least one job runs).
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
    /// The circuit's profile seed (default: the stand-in's own).
    pub circuit_seed: u64,
    /// Input sizes.
    pub scale: Scale,
    /// Flip one bit of every job's output before the checks, to prove
    /// they fire. Used only by the benchmark's own tests.
    pub corrupt: bool,
    /// Where the traced run writes its spans.
    pub out_dir: PathBuf,
    /// Set up, print the set-up time and exit: the benchmark times its
    /// set-up in fresh processes started with this flag.
    pub setup_probe: bool,
}

fn parse_u64(flag: &str, v: &str) -> Result<u64, String> {
    let parsed = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    };
    parsed.map_err(|_| format!("{flag}: `{v}` is not an unsigned integer"))
}

impl Args {
    /// Parses the arguments after the program name.
    pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = DEFAULT_SEED;
        let mut seconds = 10.0;
        let mut trace = false;
        let mut circuit_seed = None;
        let mut scale = Scale::Full;
        let mut corrupt = false;
        let mut setup_probe = false;
        let mut out_dir = PathBuf::from(".bench_out");
        let mut it = argv.into_iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--corrupt" => {
                    corrupt = true;
                    continue;
                }
                "--setup-probe" => {
                    setup_probe = true;
                    continue;
                }
                _ => {}
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::parse(&value).ok_or_else(|| {
                        format!("--workload: `{value}` is not enrich, enrich-2t or grade")
                    })?);
                }
                "--seed" => seed = parse_u64(&flag, &value)?,
                "--seconds" => {
                    seconds = value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or_else(|| format!("--seconds: `{value}` is not a duration"))?;
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace: `{value}` is not 0 or 1")),
                    };
                }
                "--circuit-seed" => circuit_seed = Some(parse_u64(&flag, &value)?),
                "--scale" => {
                    scale = match value.as_str() {
                        "full" => Scale::Full,
                        "smoke" => Scale::Smoke,
                        _ => return Err(format!("--scale: `{value}` is not full or smoke")),
                    };
                }
                "--out-dir" => out_dir = PathBuf::from(value),
                _ => return Err(format!("unknown option {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
            circuit_seed: circuit_seed.unwrap_or(scale.params().stand_in_seed),
            scale,
            corrupt,
            out_dir,
            setup_probe,
        })
    }
}
