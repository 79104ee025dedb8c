//! The benchmark's own checks, at small scale: corrupted outputs are
//! counted as failed, seeds are reproducible, the traced run reproduces
//! the untraced one and its critical path equals the profiler's, and
//! `BENCHMARK.json` names exactly the metrics the benchmark prints.

use bridgebench::{run, Outcome, RunConfig, SortMerge, TxnMix, WideCopy, Workload};

const SEED: u64 = 7;

fn small_copy(seed: u64) -> WideCopy {
    WideCopy::scaled(seed, 8, 4)
}

fn small_sort(seed: u64) -> SortMerge {
    SortMerge::scaled(seed, 4, 256)
}

fn small_txn(seed: u64) -> TxnMix {
    TxnMix::scaled(seed, 4, 2, 24, 150)
}

fn once(w: &mut dyn Workload, trace: bool) -> Outcome {
    run(
        w,
        &RunConfig {
            seconds: 0.0,
            trace,
            check_profile: trace,
        },
    )
}

#[test]
fn clean_runs_pass_every_check() {
    for w in [
        &mut small_copy(SEED) as &mut dyn Workload,
        &mut small_sort(SEED),
        &mut small_txn(SEED),
    ] {
        let out = once(w, false);
        assert!(out.checks.attempted > 0);
        assert!(out.correct(), "{:?} {:?}", out.checks, out.violations);
    }
}

#[test]
fn corrupted_copy_is_counted_failed() {
    let mut w = small_copy(SEED);
    w.sabotage = true;
    let out = once(&mut w, false);
    assert_eq!(out.checks.failed, 1, "exactly the corrupted block fails");
    assert!(!out.correct());
}

#[test]
fn misordered_sort_output_is_counted_failed() {
    let mut w = small_sort(SEED);
    w.sabotage = true;
    let out = once(&mut w, false);
    assert_eq!(out.checks.failed, 2, "both swapped records fail");
    assert!(!out.correct());
}

#[test]
fn rogue_writes_fail_the_clients_model_checks() {
    let mut w = small_txn(SEED);
    w.sabotage = true;
    let out = once(&mut w, false);
    assert!(out.checks.failed > 0);
    assert!(!out.correct());
}

#[test]
fn a_seed_reproduces_its_virtual_metrics_and_run_stats() {
    for make in [
        |s| Box::new(small_copy(s)) as Box<dyn Workload>,
        |s| Box::new(small_sort(s)) as Box<dyn Workload>,
        |s| Box::new(small_txn(s)) as Box<dyn Workload>,
    ] {
        let (a, b) = (
            once(make(SEED).as_mut(), false),
            once(make(SEED).as_mut(), false),
        );
        assert_eq!(a.reference, b.reference);
        assert_eq!(a.reference_stats, b.reference_stats);
        let virt = |o: &Outcome| -> Vec<f64> {
            o.end_to_end
                .iter()
                .filter(|m| m.name.starts_with("virt_"))
                .map(|m| m.value)
                .collect()
        };
        assert_eq!(virt(&a), virt(&b));
        let other = once(make(SEED + 1).as_mut(), false);
        assert_ne!(
            a.reference, other.reference,
            "another seed runs other inputs"
        );
    }
}

#[test]
fn another_seed_generates_other_inputs() {
    assert_eq!(small_copy(SEED).input(), small_copy(SEED).input());
    assert_ne!(small_copy(SEED).input(), small_copy(SEED + 1).input());
}

#[test]
fn traced_run_reproduces_the_untraced_run() {
    for w in [
        &mut small_copy(SEED) as &mut dyn Workload,
        &mut small_sort(SEED),
        &mut small_txn(SEED),
    ] {
        let out = once(w, true);
        assert!(out.correct(), "{:?} {:?}", out.checks, out.violations);
        assert!(
            out.profile_checked,
            "the critical path was compared with the profiler's"
        );
        let fracs: f64 = out
            .per_layer
            .iter()
            .filter(|m| m.name.starts_with("profile."))
            .map(|m| m.value)
            .sum();
        assert!(
            (fracs - 1.0).abs() < 1e-9,
            "profile fractions sum to {fracs}"
        );
    }
}

/// The `"name"` values listed under `key` in `BENCHMARK.json`.
fn declared(json: &str, key: &str) -> Vec<String> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let section = &json[start..];
    let section = &section[..section.find(']').expect("list closes")];
    section
        .split("\"name\"")
        .skip(1)
        .map(|rest| rest.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

#[test]
fn benchmark_json_names_exactly_the_printed_metrics() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let out = once(&mut small_txn(SEED), true);
    let names = |ms: &[bridgebench::Metric]| ms.iter().map(|m| m.name.clone()).collect::<Vec<_>>();
    assert_eq!(declared(&json, "end_to_end"), names(&out.end_to_end));
    assert_eq!(declared(&json, "per_layer"), names(&out.per_layer));
    assert_eq!(declared(&json, "workloads"), bridgebench::WORKLOADS);
}

/// The same comparison at benchmark scale. The profiler's own walk takes
/// minutes here, so this runs only on request:
/// `cargo test --release --offline -- --ignored`.
#[test]
#[ignore]
fn full_scale_critical_path_equals_the_profilers() {
    for name in bridgebench::WORKLOADS {
        let mut w = bridgebench::workload(name, bridgebench::DEFAULT_SEED).expect("known");
        let out = once(w.as_mut(), true);
        assert!(
            out.correct(),
            "{name}: {:?} {:?}",
            out.checks,
            out.violations
        );
        assert!(out.profile_checked, "{name}");
        println!("{name}: critical path equals bridge_trace::profile's");
    }
}
