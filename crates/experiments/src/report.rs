//! Rendering measured results side by side with the paper's tables.
//!
//! Every renderer prints measured values first and the paper's value in
//! parentheses — `123 (130)` reads "we measured 123 where the paper
//! reports 130". Absolute values are not expected to match (the benchmark
//! circuits are synthetic stand-ins, see `DESIGN.md`); the *shape* — which
//! heuristic wins, where enrichment gains, roughly what ratio — is the
//! reproduction target.

use std::fmt::Write as _;

use crate::paper;
use crate::{BasicCircuitResult, EnrichCircuitResult};

fn fmt_pair(measured: usize, paper: Option<usize>) -> String {
    match paper {
        Some(p) => format!("{measured} ({p})"),
        None => format!("{measured} (—)"),
    }
}

/// Renders Table 3: `P_0` faults detected per compaction heuristic.
#[must_use]
pub fn render_table3(rows: &[BasicCircuitResult]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Table 3: basic test generation using P0 (detected faults)"
    );
    let _ = writeln!(s, "measured (paper)");
    let _ = writeln!(
        s,
        "{:<8} {:>8} {:>12} {:>14} {:>14} {:>14} {:>14}",
        "circuit", "i0", "P0 flts", "uncomp", "arbit", "length", "values"
    );
    for r in rows {
        let p = paper::basic_row(&r.circuit);
        let _ = writeln!(
            s,
            "{:<8} {:>8} {:>12} {:>14} {:>14} {:>14} {:>14}",
            r.circuit,
            fmt_pair(r.i0, p.map(|p| p.i0)),
            fmt_pair(r.p0_total, p.map(|p| p.p0_faults)),
            fmt_pair(r.heuristics[0].p0_detected, p.map(|p| p.p0_detected[0])),
            fmt_pair(r.heuristics[1].p0_detected, p.map(|p| p.p0_detected[1])),
            fmt_pair(r.heuristics[2].p0_detected, p.map(|p| p.p0_detected[2])),
            fmt_pair(r.heuristics[3].p0_detected, p.map(|p| p.p0_detected[3])),
        );
    }
    s
}

/// Renders Table 4: numbers of tests per compaction heuristic.
#[must_use]
pub fn render_table4(rows: &[BasicCircuitResult]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Table 4: basic test generation using P0 (numbers of tests)"
    );
    let _ = writeln!(s, "measured (paper)");
    let _ = writeln!(
        s,
        "{:<8} {:>8} {:>14} {:>14} {:>14} {:>14}",
        "circuit", "i0", "uncomp", "arbit", "length", "values"
    );
    for r in rows {
        let p = paper::basic_row(&r.circuit);
        let _ = writeln!(
            s,
            "{:<8} {:>8} {:>14} {:>14} {:>14} {:>14}",
            r.circuit,
            fmt_pair(r.i0, p.map(|p| p.i0)),
            fmt_pair(r.heuristics[0].tests, p.map(|p| p.tests[0])),
            fmt_pair(r.heuristics[1].tests, p.map(|p| p.tests[1])),
            fmt_pair(r.heuristics[2].tests, p.map(|p| p.tests[2])),
            fmt_pair(r.heuristics[3].tests, p.map(|p| p.tests[3])),
        );
    }
    s
}

/// Renders Table 5: accidental `P_0 ∪ P_1` detection by the basic test
/// sets.
#[must_use]
pub fn render_table5(rows: &[BasicCircuitResult]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Table 5: simulation of P0 ∪ P1 under the basic test sets"
    );
    let _ = writeln!(s, "measured (paper)");
    let _ = writeln!(
        s,
        "{:<8} {:>8} {:>13} {:>14} {:>14} {:>14} {:>14}",
        "circuit", "i0", "P0,P1 flts", "uncomp", "arbit", "length", "values"
    );
    for r in rows {
        let p = paper::basic_row(&r.circuit);
        let _ = writeln!(
            s,
            "{:<8} {:>8} {:>13} {:>14} {:>14} {:>14} {:>14}",
            r.circuit,
            fmt_pair(r.i0, p.map(|p| p.i0)),
            fmt_pair(r.p01_total, p.map(|p| p.p01_faults)),
            fmt_pair(r.heuristics[0].p01_detected, p.map(|p| p.p01_detected[0])),
            fmt_pair(r.heuristics[1].p01_detected, p.map(|p| p.p01_detected[1])),
            fmt_pair(r.heuristics[2].p01_detected, p.map(|p| p.p01_detected[2])),
            fmt_pair(r.heuristics[3].p01_detected, p.map(|p| p.p01_detected[3])),
        );
    }
    s
}

/// Renders Table 6: the enrichment procedure.
#[must_use]
pub fn render_table6(rows: &[EnrichCircuitResult]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Table 6: results of test enrichment using P0 and P1");
    let _ = writeln!(s, "measured (paper)");
    let _ = writeln!(
        s,
        "{:<8} {:>8} {:>13} {:>13} {:>13} {:>14} {:>12}",
        "circuit", "i0", "P0 total", "P0 detect", "P0,P1 total", "P0,P1 det", "tests"
    );
    for r in rows {
        let p = paper::enrich_row(&r.circuit);
        let _ = writeln!(
            s,
            "{:<8} {:>8} {:>13} {:>13} {:>13} {:>14} {:>12}",
            r.circuit,
            fmt_pair(r.i0, p.map(|p| p.i0)),
            fmt_pair(r.p0_total, p.map(|p| p.p0_total)),
            fmt_pair(r.p0_detected, p.map(|p| p.p0_detected)),
            fmt_pair(r.p01_total, p.map(|p| p.p01_total)),
            fmt_pair(r.p01_detected, p.map(|p| p.p01_detected)),
            fmt_pair(r.tests, p.map(|p| p.tests)),
        );
    }
    s
}

/// Renders Table 7: run-time ratio `RT_enrich / RT_basic`.
#[must_use]
pub fn render_table7(rows: &[EnrichCircuitResult]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Table 7: run time ratios (RT_enrich / RT_basic, value-based)"
    );
    let _ = writeln!(s, "measured (paper)");
    let _ = writeln!(s, "{:<8} {:>8} {:>16}", "circuit", "i0", "ratio");
    for r in rows {
        let paper_ratio = paper::RUNTIME_RATIOS
            .iter()
            .find(|(c, _)| *c == r.circuit)
            .map(|&(_, ratio)| ratio);
        let shown = match paper_ratio {
            Some(p) => format!("{:.2} ({p:.2})", r.runtime_ratio()),
            None => format!("{:.2} (—)", r.runtime_ratio()),
        };
        let _ = writeln!(
            s,
            "{:<8} {:>8} {:>16}",
            r.circuit,
            fmt_pair(r.i0, paper::enrich_row(&r.circuit).map(|p| p.i0)),
            shown
        );
    }
    s
}

/// Renders the full `EXPERIMENTS.md` document from a complete run.
#[must_use]
pub fn render_experiments_md(
    workload: &crate::Workload,
    basic: &[BasicCircuitResult],
    enrich: &[EnrichCircuitResult],
    table1_text: &str,
    table2_text: &str,
) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "# EXPERIMENTS — paper vs. measured\n");
    let _ = writeln!(
        s,
        "Reproduction of Pomeranz & Reddy, *Test Enrichment for Path Delay \
         Faults Using Multiple Sets of Target Faults* (DATE 2002).\n"
    );
    let _ = writeln!(
        s,
        "* Workload: `N_P = {}`, `N_P0 = {}`, seed `{}`, justification \
         attempts `{}`.",
        workload.n_p, workload.n_p0, workload.seed, workload.attempts
    );
    let _ = writeln!(
        s,
        "* Circuits are deterministic synthetic stand-ins for the ISCAS-89 / \
         ITC-99 originals (see `DESIGN.md`); `s27` is exact. Absolute \
         numbers therefore differ from the paper; the comparison targets \
         are the *shape* claims listed with each table."
    );
    let _ = writeln!(s, "* Format: every cell is `measured (paper)`.\n");
    let _ = writeln!(s, "Regenerate everything with:\n");
    let _ = writeln!(
        s,
        "```console\n$ cargo run --release -p pdf-experiments --bin all_tables\n```\n"
    );

    let _ = writeln!(s, "## Table 1 — s27 enumeration walkthrough\n");
    let _ = writeln!(
        s,
        "Claim reproduced: with `N_P = 20` (path granularity), the first \
         cap event matches the paper's Set 1 **exactly** (all 20 paths and \
         their partial/complete labels); the fourth matches Set 2 in 20 of \
         21 entries. The single difference, `(5,21,24)`, is internally \
         inconsistent in the paper itself: a complete length-3 path cannot \
         survive a removal event whose rule removes minimal-length complete \
         paths, so the paper's Set 2 could not have been produced by the \
         paper's own removal rule. Our final store keeps the paper's 18 \
         paths of lengths 7–10 plus one length-6 survivor.\n"
    );
    let _ = writeln!(s, "```\n{}```\n", table1_text);

    let _ = writeln!(s, "## Table 2 — cumulative length classes of s1423\n");
    let _ = writeln!(
        s,
        "Claim reproduced: lengths are densely packed (`L_i − L_{{i+1}}` is \
         1 line) and the cumulative count `N_p(L_i)` grows smoothly past \
         `N_P0 = 1000` after a few tens of classes, so `P_0` cuts the \
         population mid-spectrum. The stand-in's class count is compared \
         against the paper's profile below.\n"
    );
    let _ = writeln!(s, "```\n{}```\n", table2_text);

    let _ = writeln!(
        s,
        "## Tables 3 & 4 — basic generation, compaction heuristics\n"
    );
    let _ = writeln!(
        s,
        "Claims reproduced: (a) all three compaction heuristics detect \
         essentially the same `P_0` faults as the uncompacted baseline; \
         (b) every compaction heuristic needs far fewer tests than the \
         uncompacted baseline (paper: 1.5×–3.7× fewer); (c) the three \
         compaction heuristics detect within a few percent of one another; \
         their test counts differ by up to about a quarter (paper: under \
         10%).\n"
    );
    let _ = writeln!(s, "```\n{}```\n", render_table3(basic));
    let _ = writeln!(s, "```\n{}```\n", render_table4(basic));

    let _ = writeln!(s, "## Table 5 — accidental P0 ∪ P1 coverage\n");
    let _ = writeln!(
        s,
        "Claim reproduced: test sets generated for `P_0` alone leave a \
         large fraction of `P_1` undetected, and the compact test sets \
         detect fewer `P_1` faults than the much larger uncompacted sets by \
         a margin far smaller than their test-count advantage (up to about \
         14% fewer; paper: up to about 7%).\n"
    );
    let _ = writeln!(s, "```\n{}```\n", render_table5(basic));

    let _ = writeln!(s, "## Table 6 — test enrichment\n");
    let _ = writeln!(
        s,
        "Claims reproduced: (a) enrichment detects more of `P_0 ∪ P_1` \
         than any basic heuristic detects accidentally, on every circuit \
         (compare with Table 5), though on some stand-ins only by a few \
         percent; (b) the number of tests stays essentially \
         equal to the value-based basic procedure's (Table 4, `values` \
         column) — `P_1` detection is free; (c) `P_0` detection is not \
         sacrificed (within the paper's noted random variation).\n"
    );
    let _ = writeln!(s, "```\n{}```\n", render_table6(enrich));

    let _ = writeln!(s, "## Table 7 — run-time ratio\n");
    let _ = writeln!(
        s,
        "Claim partly reproduced: enrichment costs a small constant factor \
         over the basic procedure (paper: 0.94–2.51) on about half the \
         circuits; where the stand-in's `P_1` is much larger than its \
         `P_0`, the ratio grows with `|P_1| / |P_0|` (see Known \
         deviations).\n"
    );
    let _ = writeln!(s, "```\n{}```\n", render_table7(enrich));

    let _ = writeln!(s, "## Known deviations\n");
    let _ = writeln!(
        s,
        "Analysed in detail in `DESIGN.md` §6; in brief:\n\n\
         * the stand-ins' `i0` indices and population sizes differ from \
         the originals' (synthetic length spectra), while `|P_0|` lands in \
         the paper's 1000–1600 band on every circuit;\n\
         * `P_0` detection rates run higher than the paper's (less deep \
         reconvergence in the stand-ins, so fewer aborts);\n\
         * Table 7 ratios exceed the paper's band on circuits whose \
         stand-in `P_1` population is much larger than the original's — \
         the ratio tracks `|P_1| / |P_0|`;\n\
         * Table 1's Set 2 differs in one entry that is internally \
         inconsistent in the paper itself.\n"
    );

    let _ = writeln!(s, "## Figures\n");
    let _ = writeln!(
        s,
        "* **Figure 1** (`s27`): reproduced exactly, line for line, \
         including the paper's numbering — `cargo run -p pdf-experiments \
         --bin figure1` prints the circuit and its DOT rendering; the \
         `A(p)` of the worked example fault `(2,9,10,15)` slow-to-rise is \
         verified in `pdf-faults` unit tests to be `{{2 ↦ 0x1, 7 ↦ 000, \
         3 ↦ xx0}}`, matching the paper's text."
    );
    let _ = writeln!(
        s,
        "* **Figure 2** (distance bound): `len(p) = delay(p) + d(g)` is \
         implemented as `Path::max_extension_delay`; `cargo run -p \
         pdf-experiments --bin figure2` demonstrates the bound and the \
         property tests in `tests/` verify it is tight on every circuit."
    );
    s
}

/// Serializes a complete run to JSON (for archival/diffing).
///
/// # Errors
///
/// Returns any I/O error from writing `path`.
pub fn save_json(
    path: &std::path::Path,
    workload: &crate::Workload,
    basic: &[BasicCircuitResult],
    enrich: &[EnrichCircuitResult],
) -> std::io::Result<()> {
    use crate::json::Json;

    let workload_json = Json::object()
        .field("n_p", workload.n_p)
        .field("n_p0", workload.n_p0)
        .field("seed", workload.seed)
        .field("attempts", workload.attempts);
    let basic_json: Vec<Json> = basic
        .iter()
        .map(|r| {
            let heuristics: Vec<Json> = r
                .heuristics
                .iter()
                .map(|h| {
                    Json::object()
                        .field("heuristic", h.heuristic.as_str())
                        .field("p0_detected", h.p0_detected)
                        .field("tests", h.tests)
                        .field("p01_detected", h.p01_detected)
                        .field("seconds", h.seconds)
                })
                .collect();
            Json::object()
                .field("circuit", r.circuit.as_str())
                .field("i0", r.i0)
                .field("p0_total", r.p0_total)
                .field("p01_total", r.p01_total)
                .field("heuristics", heuristics)
        })
        .collect();
    let enrich_json: Vec<Json> = enrich
        .iter()
        .map(|r| {
            Json::object()
                .field("circuit", r.circuit.as_str())
                .field("i0", r.i0)
                .field("p0_total", r.p0_total)
                .field("p0_detected", r.p0_detected)
                .field("p01_total", r.p01_total)
                .field("p01_detected", r.p01_detected)
                .field("tests", r.tests)
                .field("seconds", r.seconds)
                .field("basic_seconds", r.basic_seconds)
        })
        .collect();
    let dump = Json::object()
        .field("workload", workload_json)
        .field("basic", basic_json)
        .field("enrich", enrich_json);
    std::fs::write(path, dump.to_pretty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HeuristicResult, Workload};

    fn fake_basic() -> BasicCircuitResult {
        BasicCircuitResult {
            circuit: "b03".into(),
            i0: 17,
            p0_total: 1072,
            p01_total: 1273,
            heuristics: ["uncomp", "arbit", "length", "values"]
                .iter()
                .map(|h| HeuristicResult {
                    heuristic: (*h).to_owned(),
                    p0_detected: 1000,
                    tests: 100,
                    p01_detected: 1200,
                    seconds: 1.0,
                })
                .collect(),
        }
    }

    fn fake_enrich() -> EnrichCircuitResult {
        EnrichCircuitResult {
            circuit: "b03".into(),
            i0: 17,
            p0_total: 1072,
            p0_detected: 1060,
            p01_total: 1273,
            p01_detected: 1250,
            tests: 98,
            seconds: 2.0,
            basic_seconds: 1.0,
        }
    }

    #[test]
    fn tables_render_with_paper_references() {
        let basic = [fake_basic()];
        let enrich = [fake_enrich()];
        let t3 = render_table3(&basic);
        assert!(t3.contains("b03"));
        assert!(t3.contains("(869)"), "{t3}");
        let t4 = render_table4(&basic);
        assert!(t4.contains("(299)"), "{t4}");
        let t5 = render_table5(&basic);
        assert!(t5.contains("(1450)"), "{t5}");
        let t6 = render_table6(&enrich);
        assert!(t6.contains("(1178)"), "{t6}");
        let t7 = render_table7(&enrich);
        assert!(t7.contains("2.00 (1.13)"), "{t7}");
    }

    #[test]
    fn unknown_circuit_renders_dashes() {
        let mut b = fake_basic();
        b.circuit = "mystery".into();
        let t3 = render_table3(&[b]);
        assert!(t3.contains("(—)"));
    }

    #[test]
    fn experiments_md_contains_all_sections() {
        let md = render_experiments_md(
            &Workload::default(),
            &[fake_basic()],
            &[fake_enrich()],
            "T1\n",
            "T2\n",
        );
        for section in [
            "## Table 1",
            "## Table 2",
            "## Tables 3 & 4",
            "## Table 5",
            "## Table 6",
            "## Table 7",
            "## Figures",
        ] {
            assert!(md.contains(section), "missing {section}");
        }
    }
}
