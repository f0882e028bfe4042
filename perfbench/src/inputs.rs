//! Input synthesis: the program under test receives only what is built
//! here — `.bench` text and, for `grade`, a pattern set.

use pdf_atpg::TestSet;
use pdf_logic::Value;
use pdf_netlist::{SplitMix64, TwoPattern};

use crate::args::{Params, Workload};

/// Salt separating the pattern generator's stream from the circuit
/// generator's, which starts from the same circuit seed.
const PATTERN_SALT: u64 = 0x4C42_4953_5450_5247;

/// One input bit in `TOGGLE_ONE_IN` toggles between the two patterns of
/// a graded test. Uniformly random pairs toggle half the inputs, which
/// leaves almost no side input stable and detects almost no long path;
/// low-transition pairs are the usual pseudo-random BIST remedy.
const TOGGLE_ONE_IN: usize = 8;

/// Everything a job reads.
pub struct Inputs {
    /// The circuit name the parser is given.
    pub name: String,
    /// The circuit as `.bench` text.
    pub bench: String,
    /// The graded pattern set (`grade` only).
    pub patterns: Option<TestSet>,
}

/// Builds the inputs for one run.
///
/// The circuit comes from `circuit_seed`. The workload seed changes only
/// what leaves the work unchanged: the signal names in the `.bench` text
/// and the order of the graded patterns. Seeds that change the work do
/// not make a steady benchmark: the generator's own seed moves the same
/// `enrich` job between 4.9 and 9.7 s, the circuit seed between 6 and
/// 55 s, and a fresh pattern pool per seed moves the `P0` detection count
/// by about a fifth. The pool is pinned to the circuit instead, like a
/// hardware PRPG seed; its order still changes what each packed block
/// holds.
pub fn synthesize(params: &Params, circuit_seed: u64, workload: Workload, seed: u64) -> Inputs {
    let netlist = params.profile(circuit_seed).generate();
    let bench = renamed(&pdf_netlist::to_bench_string(&netlist), seed);
    let patterns = (workload == Workload::Grade).then(|| {
        let pool = pattern_pool(
            netlist.input_count(),
            params.grade_patterns,
            circuit_seed ^ PATTERN_SALT,
        );
        TestSet::from_tests(permuted(pool, seed))
    });
    Inputs {
        name: netlist.name().to_owned(),
        bench,
        patterns,
    }
}

/// Rebuilds a `.bench` line with every signal name passed through
/// `rename`; comment and blank lines come back unchanged.
fn rewrite_line(line: &str, mut rename: impl FnMut(&str) -> String) -> String {
    for keyword in ["INPUT", "OUTPUT"] {
        if let Some(inner) = line
            .strip_prefix(keyword)
            .and_then(|r| r.strip_prefix('('))
            .and_then(|r| r.strip_suffix(')'))
        {
            return format!("{keyword}({})", rename(inner.trim()));
        }
    }
    let Some((lhs, rhs)) = line.split_once('=') else {
        return line.to_owned();
    };
    let Some((func, args)) = rhs.trim().split_once('(') else {
        return line.to_owned();
    };
    let out = rename(lhs.trim());
    let args: Vec<String> = args
        .trim_end_matches(')')
        .split(',')
        .map(|a| rename(a.trim()))
        .collect();
    format!("{out} = {}({})", func.trim(), args.join(", "))
}

/// Renames every signal through a seeded bijection onto `n0`, `n1`, ….
/// Declaration order, and with it the parsed circuit, stays the same.
fn renamed(bench: &str, seed: u64) -> String {
    let mut order: Vec<String> = Vec::new();
    let mut index = std::collections::HashMap::new();
    for line in bench.lines() {
        rewrite_line(line, |name| {
            if !index.contains_key(name) {
                index.insert(name.to_owned(), order.len());
                order.push(name.to_owned());
            }
            String::new()
        });
    }
    let slot = permuted((0..order.len()).collect(), seed);
    let mut out = String::with_capacity(bench.len());
    for line in bench.lines() {
        out.push_str(&rewrite_line(line, |name| {
            format!("n{}", slot[index[name]])
        }));
        out.push('\n');
    }
    out
}

/// Checks that the builder chain reproduces the repository's stand-in at
/// its own seed, byte for byte.
pub fn check_stand_in(params: &Params) -> Result<(), String> {
    let ours = pdf_netlist::to_bench_string(&params.profile(params.stand_in_seed).generate());
    let theirs = pdf_netlist::stand_in_profile(params.stand_in)
        .map(|p| pdf_netlist::to_bench_string(&p.generate()))
        .ok_or_else(|| format!("no stand-in named {}", params.stand_in))?;
    if ours == theirs {
        Ok(())
    } else {
        Err(format!(
            "the rebuilt {} profile differs from stand_in_profile at seed {:#x}",
            params.stand_in, params.stand_in_seed
        ))
    }
}

fn pattern_pool(inputs: usize, count: usize, seed: u64) -> Vec<TwoPattern> {
    let mut rng = SplitMix64::new(seed);
    (0..count)
        .map(|_| {
            let v1: Vec<Value> = (0..inputs).map(|_| Value::from(rng.next_bool())).collect();
            let v2 = v1
                .iter()
                .map(|&v| {
                    if rng.next_below(TOGGLE_ONE_IN) == 0 {
                        !v
                    } else {
                        v
                    }
                })
                .collect();
            TwoPattern::new(v1, v2)
        })
        .collect()
}

/// Fisher–Yates shuffle driven by `seed`.
fn permuted<T>(mut items: Vec<T>, seed: u64) -> Vec<T> {
    let mut rng = SplitMix64::new(seed);
    for i in (1..items.len()).rev() {
        items.swap(i, rng.next_below(i + 1));
    }
    items
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Scale;

    #[test]
    fn both_scales_rebuild_their_stand_in() {
        check_stand_in(&Scale::Full.params()).unwrap();
        check_stand_in(&Scale::Smoke.params()).unwrap();
    }

    #[test]
    fn the_seed_permutes_a_pinned_pool() {
        let p = Scale::Smoke.params();
        let a = synthesize(&p, p.stand_in_seed, Workload::Grade, 1);
        let b = synthesize(&p, p.stand_in_seed, Workload::Grade, 2);
        let (a, b) = (a.patterns.unwrap(), b.patterns.unwrap());
        assert_ne!(a.to_text(), b.to_text());
        let sorted = |t: &TestSet| {
            let mut lines: Vec<String> = t.to_text().lines().map(str::to_owned).collect();
            lines.sort();
            lines
        };
        assert_eq!(sorted(&a), sorted(&b));
    }
}
