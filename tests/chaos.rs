//! Chaos tests: the headline fault-tolerance invariant, on the `chaos`,
//! `crash` and `atomic` profiles of the fault harness (`tests/faults/`).
//!
//! For any *bounded* fault plan — drop/duplicate/delay rates with a
//! consecutive-drop cap, finite outage windows, transient disk errors
//! under the driver retry limit — a workload run against a Bridge machine
//! with retries enabled produces **exactly** the client-visible replies
//! and final file contents of the fault-free run. Faults may only change
//! timing, never observable behaviour. On the WAL machine (`crash`) a
//! plan may also kill nodes between any two elementary disk writes
//! ([`CrashAt`]), and the transcript closes with a `pfsck --check`
//! verdict; on the 2PC machine (`atomic`) it may also fail-stop the
//! coordinator, and the verdict includes the machine-wide pass.
//!
//! Each profile is exercised by a proptest over random seeds, a soak
//! (`chaos_soak`, `crash_soak`: `FAULT_SEED`/`FAULT_CASES`), the
//! regression corpus (`tests/fault_seeds/*.plans`) and directed plans.
//! `fault_replay` reruns the case `FAULT_REPLAY="<profile> <seed>"`
//! names, for any profile. `conversion_is_pinned` pins the generator,
//! the corpus and every profile's fault-free run.

mod faults;

use bridge_repro::core::BridgeConfig;
use bridge_repro::parsim::{
    mix64, BlockFaultRule, CrashAt, DiskFaults, FaultPlan, MsgFaults, NodeId, Outage, OutageKind,
    RunStats, SimDuration, SimTime,
};
use bridge_repro::trace::{Metrics, TraceCollector};
use faults::{
    check, replay_corpus, soak, Case, Profile, ATOMIC, CHAOS, CRASH, FIRST_LFS_NODE, PROFILES,
    SERVER_NODE,
};
use proptest::prelude::*;

/// Runs a directed plan on `profile` and returns the fault-free and the
/// faulted run's scheduler counters.
fn check_directed(profile: &'static Profile, plan: FaultPlan) -> (RunStats, RunStats) {
    let (base, faulted) = check(&Case::directed(profile, plan));
    (base.stats, faulted.stats)
}

/// The CI soak hook for bounded storms (a quick test when the env is
/// unset).
#[test]
fn chaos_soak() {
    soak(&CHAOS, 6);
}

/// The CI soak hook for storms with node kills on the WAL machine.
#[test]
fn crash_soak() {
    soak(&CRASH, 4);
}

/// Replays the case `FAULT_REPLAY="<profile> <seed>"` names; a no-op
/// when it is unset.
#[test]
fn fault_replay() {
    if let Ok(line) = std::env::var("FAULT_REPLAY") {
        check(&Case::parse(&line));
    }
}

/// Every `chaos` case ever caught in the wild replays clean, forever.
#[test]
fn fault_seed_corpus_replays_clean() {
    replay_corpus(&CHAOS);
}

/// Every `crash` corpus case replays clean on the WAL machine.
#[test]
fn crash_seed_corpus_replays_clean() {
    replay_corpus(&CRASH);
}

/// Every `atomic` corpus case — the crash seeds with a coordinator
/// fail-stop layered on top — replays clean on the 2PC machine.
/// `tests/fault_seeds/two_pc.plans` pins seeds whose kill lands on each
/// BEGIN write: the in-doubt states presumed-abort recovery exists for.
#[test]
fn two_pc_crash_seed_corpus_replays_clean() {
    replay_corpus(&ATOMIC);
}

/// Every generated case's artifact line regenerates exactly the plan
/// that failed, for every profile.
#[test]
fn artifact_lines_replay_the_failing_plan() {
    for &profile in &PROFILES {
        let failed = Case::generated(profile, mix64(profile.soak_base, 7));
        let line = failed.line().expect("a generated case has a line");
        assert_eq!(line, format!("{} {}", profile.name, failed.seed.unwrap()));
        let replayed = Case::parse(&line);
        assert!(std::ptr::eq(replayed.profile, profile));
        assert_eq!(replayed.plan, failed.plan, "{line} regenerates its plan");
    }
    assert_eq!(
        Case::directed(&CHAOS, FaultPlan::none()).line(),
        None,
        "a directed plan has no replay line"
    );
}

/// FNV-1a over `parts`, each followed by a newline.
fn digest<S: AsRef<str>>(parts: impl IntoIterator<Item = S>) -> u64 {
    let text: String = parts
        .into_iter()
        .map(|p| format!("{}\n", p.as_ref()))
        .collect();
    faults::fnv(text.as_bytes())
}

/// The harness replays what the per-kind generators, seed files and
/// workloads it replaced replayed, captured from them: per profile, the
/// digest of its corpus cases' plans (`"<seed> <plan:?>"`, sorted), of
/// its first 32 soak plans, and of its fault-free transcript followed by
/// the run's `RunStats`.
#[test]
fn conversion_is_pinned() {
    #[rustfmt::skip]
    const PINS: [(&str, u64, u64, u64); 6] = [
        // (profile, corpus, soak, fault-free reference)
        ("chaos", 0x813d_ab4a_8a9c_b087, 0xbf51_88ef_c5fc_c404, 0x1717_e343_f789_6bcc),
        ("crash", 0x6a23_d7c4_cefe_13f1, 0x1c5c_3090_d6af_daa1, 0xefb0_cb09_9ca9_de40),
        ("atomic", 0x74e9_1cae_ef1e_b369, 0x1f69_c418_d69a_9a88, 0x2ddb_6c4d_e955_4988),
        ("loss", 0x865d_1b4d_c2d9_53e9, 0xad59_4be2_774e_5231, 0xdbbe_552c_9c34_a730),
        ("sweep", 0xcbf2_9ce4_8422_2325, 0x7df9_89b9_bd12_54f8, 0xa271_4054_3caa_377b),
        ("sweep_atomic", 0xcbf2_9ce4_8422_2325, 0xd0d6_818e_febe_4793, 0x8108_a755_dc1d_3186),
    ];
    let corpus = faults::corpus();
    for (name, corpus_pin, soak_pin, reference_pin) in PINS {
        let profile = Profile::named(name);
        let mut lines: Vec<String> = corpus
            .iter()
            .filter(|case| std::ptr::eq(case.profile, profile))
            .map(|case| format!("{} {:?}", case.seed.unwrap(), case.plan))
            .collect();
        lines.sort();
        assert_eq!(digest(&lines), corpus_pin, "{name}: corpus plans moved");
        let soak =
            (0..32).map(|case| format!("{:?}", profile.plan(mix64(profile.soak_base, case))));
        assert_eq!(digest(soak), soak_pin, "{name}: soak plans moved");
        let reference = profile.reference();
        let stats = format!("{:?}", reference.stats);
        assert_eq!(
            digest(reference.transcript.iter().chain([&stats])),
            reference_pin,
            "{name}: fault-free transcript or RunStats moved"
        );
    }
}

/// Directed plan: heavy drops on every message stream, nothing else.
/// Drops force timeouts, so the faulted run must take strictly longer in
/// virtual time — proof the plan was not inert.
#[test]
fn drop_storm_converges() {
    let (base, faulted) = check_directed(
        &CHAOS,
        FaultPlan {
            seed: 11,
            msg: MsgFaults {
                drop_per_mille: 400,
                max_consecutive_drops: 4,
                ..MsgFaults::default()
            },
            ..FaultPlan::none()
        },
    );
    assert!(
        faulted.end_time > base.end_time,
        "drops must cost retry waits: {:?} vs {:?}",
        faulted.end_time,
        base.end_time
    );
}

/// Directed plan: duplicate and delay without ever dropping — exercises
/// the dedup window and reply-duplicate discard rather than timeouts.
/// Duplicates mean strictly more deliveries than the fault-free run.
#[test]
fn dup_delay_storm_converges() {
    let (base, faulted) = check_directed(
        &CHAOS,
        FaultPlan {
            seed: 12,
            msg: MsgFaults {
                dup_per_mille: 350,
                delay_per_mille: 350,
                delay_max: SimDuration::from_millis(50),
                ..MsgFaults::default()
            },
            ..FaultPlan::none()
        },
    );
    assert!(
        faulted.messages > base.messages,
        "duplicates must inflate deliveries: {} vs {}",
        faulted.messages,
        base.messages
    );
}

/// Directed plan: the Bridge server node crashes right out of the gate
/// and an LFS node pauses shortly after.
#[test]
fn outage_windows_converge() {
    let (base, faulted) = check_directed(
        &CHAOS,
        FaultPlan {
            seed: 13,
            outages: vec![
                Outage {
                    node: NodeId::from_index(SERVER_NODE),
                    from: SimTime::ZERO,
                    until: SimTime::ZERO + SimDuration::from_millis(400),
                    kind: OutageKind::Down,
                },
                Outage {
                    node: NodeId::from_index(FIRST_LFS_NODE + 1),
                    from: SimTime::ZERO + SimDuration::from_millis(300),
                    until: SimTime::ZERO + SimDuration::from_millis(900),
                    kind: OutageKind::Paused,
                },
            ],
            ..FaultPlan::none()
        },
    );
    assert!(
        faulted.end_time > base.end_time,
        "riding out the outages must take longer: {:?} vs {:?}",
        faulted.end_time,
        base.end_time
    );
}

/// Directed plan: disk-only faults — random transients plus targeted
/// block failures; the driver absorbs all of it below the protocol.
#[test]
fn disk_transients_converge() {
    check_directed(
        &CHAOS,
        FaultPlan {
            seed: 14,
            disk: DiskFaults {
                error_per_mille: 200,
                max_consecutive: 6,
                targets: vec![
                    BlockFaultRule {
                        disk: 0,
                        block: 0,
                        fails: 3,
                    },
                    BlockFaultRule {
                        disk: 2,
                        block: 17,
                        fails: 2,
                    },
                ],
            },
            ..FaultPlan::none()
        },
    );
}

/// Arming a crash schedule that never fires must not change anything:
/// the write counting is host-side only, so the run is RunStats-bit-
/// identical to — and transcript-identical with — the same machine with
/// no plan at all.
#[test]
fn inert_crash_plan_is_bit_identical() {
    let reference = CRASH.reference();
    let mut armed = CRASH.machine();
    armed.faults = FaultPlan {
        seed: 16,
        crashes: vec![CrashAt {
            disk: 0,
            after_writes: u64::MAX,
            down: SimDuration::from_secs(1),
        }],
        ..FaultPlan::none()
    };
    let run = CRASH.run(&armed);
    assert_eq!(
        reference.transcript, run.transcript,
        "inert crash plan changed a reply"
    );
    assert_eq!(
        reference.stats, run.stats,
        "inert crash plan changed the event stream"
    );
}

/// Directed plan: a single node kill in the middle of the write stream,
/// nothing else. The downtime must cost virtual time (retries riding out
/// the window), and every acknowledged op must survive recovery.
#[test]
fn crash_mid_run_converges() {
    let (base, faulted) = check_directed(
        &CRASH,
        FaultPlan {
            seed: 17,
            crashes: vec![CrashAt {
                disk: 1,
                after_writes: 40,
                down: SimDuration::from_millis(500),
            }],
            ..FaultPlan::none()
        },
    );
    assert!(
        faulted.end_time > base.end_time,
        "riding out the crash must take longer: {:?} vs {:?}",
        faulted.end_time,
        base.end_time
    );
}

/// Directed plan for the replay path: heavy duplicates and delays *plus*
/// node kills. A delayed duplicate of an operation that committed to the
/// WAL but had not yet been applied when the node died must be answered
/// from the recovered dedup window (seeded from the log), never
/// re-executed against the recovered state.
#[test]
fn crash_with_duplicate_storm_replays_committed_ops() {
    let (base, faulted) = check_directed(
        &CRASH,
        FaultPlan {
            seed: 18,
            msg: MsgFaults {
                dup_per_mille: 350,
                delay_per_mille: 350,
                delay_max: SimDuration::from_millis(50),
                ..MsgFaults::default()
            },
            crashes: vec![
                CrashAt {
                    disk: 0,
                    after_writes: 25,
                    down: SimDuration::from_millis(400),
                },
                CrashAt {
                    disk: 2,
                    after_writes: 60,
                    down: SimDuration::from_millis(300),
                },
            ],
            ..FaultPlan::none()
        },
    );
    assert!(
        faulted.messages > base.messages,
        "duplicates must inflate deliveries: {} vs {}",
        faulted.messages,
        base.messages
    );
}

/// A traced storm run surfaces its fault and recovery activity through
/// the metrics pipeline: resends happened, every one of them recovered
/// (none exhausted), and both message and disk faults were recorded.
#[test]
fn storm_activity_surfaces_in_retry_metrics() {
    let collector = TraceCollector::install();
    let storm = FaultPlan {
        seed: 15,
        msg: MsgFaults {
            drop_per_mille: 200,
            dup_per_mille: 150,
            delay_per_mille: 200,
            delay_max: SimDuration::from_millis(20),
            max_consecutive_drops: 4,
        },
        disk: DiskFaults {
            error_per_mille: 150,
            max_consecutive: 4,
            targets: Vec::new(),
        },
        ..FaultPlan::none()
    };
    let mut config: BridgeConfig = CHAOS.machine().with_faults(storm);
    config.tracer = Some(collector.as_tracer());
    CHAOS.run(&config);
    let metrics = Metrics::from_trace(&collector.snapshot());
    let retry = &metrics.retry;
    assert!(!retry.is_empty(), "storm must leave a trace");
    assert!(retry.resends > 0, "drops must force resends");
    assert!(retry.recovered > 0, "resends must recover");
    assert_eq!(retry.exhausted, 0, "bounded faults never spend the budget");
    assert!(retry.msg_drops > 0, "drop instants recorded");
    assert!(retry.msg_dups > 0, "dup instants recorded");
    assert!(
        retry.disk_transients > 0,
        "disk transient instants recorded"
    );
    assert!(
        retry.recovery.count() > 0,
        "recovery latency histogram populated"
    );
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        .. ProptestConfig::default()
    })]

    /// The headline invariant over random bounded plans.
    #[test]
    fn bounded_faults_preserve_observable_behavior(seed in any::<u64>()) {
        check(&Case::generated(&CHAOS, seed));
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        .. ProptestConfig::default()
    })]

    /// The crash-era invariant over random crash schedules layered on
    /// random bounded plans: acknowledged writes survive, nothing is
    /// half-applied, and pfsck stays clean.
    #[test]
    fn crash_schedules_preserve_acknowledged_writes(seed in any::<u64>()) {
        check(&Case::generated(&CRASH, seed));
    }
}
