//! Fail-fast behaviour of the `PDF_*` environment knobs.
//!
//! These tests mutate process-global environment variables, so they live
//! in their own integration-test binary (one process, no library tests
//! racing on the same variables) and serialize on a mutex besides.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError};

use pdf_experiments::{env_parse, filter_circuits, Workload};

static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Runs `body` with `vars` set, restoring the previous state afterwards
/// even when `body` panics.
fn with_env<R>(vars: &[(&str, Option<&str>)], body: impl FnOnce() -> R) -> R {
    let _guard = ENV_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let saved: Vec<(String, Option<String>)> = vars
        .iter()
        .map(|&(k, _)| (k.to_owned(), std::env::var(k).ok()))
        .collect();
    for &(k, v) in vars {
        match v {
            Some(v) => std::env::set_var(k, v),
            None => std::env::remove_var(k),
        }
    }
    let result = catch_unwind(AssertUnwindSafe(body));
    for (k, v) in saved {
        match v {
            Some(v) => std::env::set_var(&k, v),
            None => std::env::remove_var(&k),
        }
    }
    result.unwrap_or_else(|payload| std::panic::resume_unwind(payload))
}

/// The panic message of `body`, which must panic.
fn panic_message(body: impl FnOnce()) -> String {
    let payload = catch_unwind(AssertUnwindSafe(body)).expect_err("expected a panic");
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
        .expect("panic payload must be a string")
}

#[test]
fn env_parse_returns_none_when_unset_and_value_when_parsable() {
    with_env(&[("PDF_TEST_KNOB", None)], || {
        assert_eq!(env_parse::<usize>("PDF_TEST_KNOB"), None);
    });
    with_env(&[("PDF_TEST_KNOB", Some("42"))], || {
        assert_eq!(env_parse::<usize>("PDF_TEST_KNOB"), Some(42));
    });
}

#[test]
fn env_parse_panics_on_garbage_naming_variable_and_value() {
    with_env(&[("PDF_TEST_KNOB", Some("10k"))], || {
        let msg = panic_message(|| {
            let _ = env_parse::<usize>("PDF_TEST_KNOB");
        });
        assert!(msg.contains("PDF_TEST_KNOB"), "{msg}");
        assert!(msg.contains("10k"), "{msg}");
    });
}

#[test]
fn workload_from_env_reads_overrides_and_rejects_garbage() {
    with_env(
        &[
            ("PDF_NP", Some("500")),
            ("PDF_NP0", Some("100")),
            ("PDF_SEED", Some("7")),
            ("PDF_ATTEMPTS", Some("3")),
        ],
        || {
            let w = Workload::from_env();
            assert_eq!((w.n_p, w.n_p0, w.seed, w.attempts), (500, 100, 7, 3));
        },
    );
    with_env(
        &[
            ("PDF_NP", None),
            ("PDF_NP0", None),
            ("PDF_SEED", None),
            ("PDF_ATTEMPTS", None),
        ],
        || {
            let w = Workload::from_env();
            assert_eq!(w.n_p, Workload::default().n_p);
        },
    );
    for (var, bad) in [
        ("PDF_NP", "10k"),
        ("PDF_NP0", "1e3"),
        ("PDF_SEED", "twenty"),
        ("PDF_ATTEMPTS", "-1"),
    ] {
        with_env(
            &[
                ("PDF_NP", None),
                ("PDF_NP0", None),
                ("PDF_SEED", None),
                ("PDF_ATTEMPTS", None),
                (var, Some(bad)),
            ],
            || {
                let msg = panic_message(|| {
                    let _ = Workload::from_env();
                });
                assert!(msg.contains(var), "{var}: {msg}");
                assert!(msg.contains(bad), "{var}: {msg}");
            },
        );
    }
}

#[test]
fn sim_threads_override_is_strict() {
    with_env(&[("PDF_SIM_THREADS", Some("3"))], || {
        assert_eq!(pdf_sim::max_threads(), 3);
    });
    with_env(&[("PDF_SIM_THREADS", None)], || {
        assert!(pdf_sim::max_threads() >= 1);
    });
    for bad in ["0", "many", "-2"] {
        with_env(&[("PDF_SIM_THREADS", Some(bad))], || {
            let msg = panic_message(|| {
                let _ = pdf_sim::max_threads();
            });
            assert!(msg.contains("PDF_SIM_THREADS"), "{bad}: {msg}");
            assert!(msg.contains(bad), "{bad}: {msg}");
        });
    }
}

#[test]
fn filter_circuits_passes_matches_and_errors_on_empty_selection() {
    const NAMES: [&str; 3] = ["s27", "b03", "b09"];
    with_env(&[("PDF_CIRCUITS", None)], || {
        assert_eq!(filter_circuits(&NAMES), NAMES.to_vec());
    });
    with_env(&[("PDF_CIRCUITS", Some("b09, s27"))], || {
        assert_eq!(filter_circuits(&NAMES), vec!["s27", "b09"]);
    });
    // A typo alongside a real name warns but keeps the real one.
    with_env(&[("PDF_CIRCUITS", Some("b09,s1196"))], || {
        assert_eq!(filter_circuits(&NAMES), vec!["b09"]);
    });
    // A selection matching nothing is an error, not an empty experiment.
    with_env(&[("PDF_CIRCUITS", Some("c6288,sqrt32"))], || {
        let msg = panic_message(|| {
            let _ = filter_circuits(&NAMES);
        });
        assert!(msg.contains("c6288"), "{msg}");
        assert!(msg.contains("selects none"), "{msg}");
    });
}
