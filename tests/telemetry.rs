//! Telemetry determinism and exactness.
//!
//! The live-health subsystem's contract has two halves:
//!
//! 1. **Observation never changes the run.** Arming the registry,
//!    polling it from the host-side virtual-time sampler, or polling
//!    `GetHealth` in-band must leave the workload's observable
//!    behaviour untouched: armed-but-unpolled and sampler-polled runs
//!    are `RunStats`-bit-identical to a disarmed run (same pattern as
//!    the trace-determinism and inert-fault-plan suites), and an
//!    in-band poller may shift timing but never reply contents.
//! 2. **Snapshots are exact.** The end-of-run health snapshot's disk
//!    counters reconcile with zero slack against the `DiskStats` the
//!    devices themselves report, and the sampler's quiescence frame
//!    carries the kernel's own final `RunStats` verbatim.

use bridge_repro::core::{
    BridgeClient, BridgeConfig, BridgeMachine, CreateSpec, DiskLost, FaultPlan, Redundancy,
};
use bridge_repro::efs::{disk_telemetry, install_spare, LfsClient, LfsData, LfsOp, RetryPolicy};
use bridge_repro::parsim::{CrashAt, Ctx, ProcId, RunStats, SimDuration};
use bridge_repro::simdisk;
use bridge_repro::trace::{HealthSnapshot, LfsTelemetry};
use std::fmt::Write as _;

const BREADTH: u32 = 4;
const BLOCKS: u64 = 40;

/// The machine every test drives: machine-wide atomicity and parity
/// redundancy, so the 2PC, WAL, and redundancy gauges all carry weight.
fn config(telemetry: bool) -> BridgeConfig {
    let mut c = BridgeConfig::instant(BREADTH)
        .with_2pc()
        .with_redundancy(Redundancy::parity());
    c.telemetry = telemetry;
    c
}

fn content(i: u64) -> Vec<u8> {
    format!("telemetry record {i:05}").into_bytes()
}

fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Runs the fixed workload; returns the client-visible reply transcript
/// (contents and results, no timing) and the kernel's final counters.
/// With `poll_health`, a `GetHealth` poll is injected between phases —
/// the transcript must not change (the polls themselves are excluded
/// from it; timing is allowed to shift).
fn run_workload(config: &BridgeConfig, poll_health: bool) -> (Vec<String>, RunStats) {
    let (mut sim, machine) = BridgeMachine::build(config);
    let server = machine.server;
    let log = sim.block_on(machine.frontend, "telemetry-client", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let mut log: Vec<String> = Vec::new();
        let file = bridge.create(ctx, CreateSpec::default()).expect("create");
        for i in 0..BLOCKS {
            let n = bridge.seq_write(ctx, file, content(i)).expect("append");
            log.push(format!("append[{i}] -> {n}"));
        }
        if poll_health {
            let h = bridge.get_health(ctx).expect("health");
            assert!(h.server.ops > 0, "mid-run poll saw a live server");
        }
        for at in [0u64, 7, 19, 33] {
            bridge
                .rand_write(ctx, file, at, content(1000 + at))
                .expect("overwrite");
            log.push(format!("overwrite[{at}]"));
        }
        let info = bridge.open(ctx, file).expect("open");
        let mut line = format!("read size={}:", info.size);
        while let Some(block) = bridge.seq_read(ctx, file).expect("read") {
            write!(line, " {:016x}", fnv(&block)).unwrap();
        }
        log.push(line);
        if poll_health {
            let h = bridge.get_health(ctx).expect("health");
            assert_eq!(h.server.txns_in_doubt, 0, "quiescent 2PC at end");
        }
        log
    });
    (log, sim.stats())
}

/// Arming the registry without ever polling it must be invisible to the
/// kernel: bit-identical `RunStats`, identical reply transcript.
#[test]
fn armed_but_unpolled_is_bit_identical_to_disabled() {
    let (log_off, stats_off) = run_workload(&config(false), false);
    let (log_on, stats_on) = run_workload(&config(true), false);
    assert_eq!(
        stats_off, stats_on,
        "arming telemetry changed the kernel counters"
    );
    assert_eq!(
        log_off, log_on,
        "arming telemetry changed the reply transcript"
    );
}

/// Host-side sampler polling is observation-only: the polled run's
/// `RunStats` are bit-identical to the unpolled run's, and the final
/// (quiescence) frame carries those counters verbatim.
#[test]
fn sampler_polling_is_bit_identical_and_final_frame_exact() {
    // Paper-profile disks, so virtual time really advances and the
    // sampler crosses many boundaries (instant machines quiesce at t=0).
    let cfg = BridgeConfig::paper(BREADTH)
        .with_2pc()
        .with_redundancy(Redundancy::parity());
    let (mut sim, machine) = BridgeMachine::build(&cfg);
    let registry = machine.telemetry.clone().expect("armed");
    let frames = std::rc::Rc::new(std::cell::RefCell::new(Vec::<HealthSnapshot>::new()));
    {
        let frames = std::rc::Rc::clone(&frames);
        sim.set_sampler(SimDuration::from_millis(50), move |at, stats| {
            frames
                .borrow_mut()
                .push(registry.snapshot(at, Some(*stats)));
        });
    }
    let server = machine.server;
    sim.block_on(machine.frontend, "telemetry-client", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let file = bridge.create(ctx, CreateSpec::default()).expect("create");
        for i in 0..BLOCKS {
            bridge.seq_write(ctx, file, content(i)).expect("append");
        }
        bridge.open(ctx, file).expect("open");
        while bridge.seq_read(ctx, file).expect("read").is_some() {}
    });
    let polled = sim.stats();

    // Different workload tail than `run_workload` (no overwrites), so
    // only compare the sampled run against itself re-run unpolled.
    let (mut sim2, machine2) = BridgeMachine::build(&cfg);
    let server2 = machine2.server;
    sim2.block_on(machine2.frontend, "telemetry-client", move |ctx| {
        let mut bridge = BridgeClient::new(server2);
        let file = bridge.create(ctx, CreateSpec::default()).expect("create");
        for i in 0..BLOCKS {
            bridge.seq_write(ctx, file, content(i)).expect("append");
        }
        bridge.open(ctx, file).expect("open");
        while bridge.seq_read(ctx, file).expect("read").is_some() {}
    });
    assert_eq!(
        sim2.stats(),
        polled,
        "sampler polling changed the kernel counters"
    );

    let frames = frames.take();
    assert!(frames.len() >= 2, "expected multiple sampled frames");
    let last = frames.last().unwrap();
    assert_eq!(
        last.kernel,
        Some(polled),
        "quiescence frame must carry the run's final RunStats verbatim"
    );
}

/// An in-band `GetHealth` poller is a real client: it consumes virtual
/// time, so timing may shift — but the workload's reply *contents* must
/// be identical with and without it.
#[test]
fn inband_polling_leaves_reply_contents_identical() {
    let (quiet, _) = run_workload(&config(true), false);
    let (polled, _) = run_workload(&config(true), true);
    assert_eq!(
        quiet, polled,
        "in-band GetHealth polling changed reply contents"
    );
}

/// Ground truth, straight from each device and instance: the
/// `DiskStats` every LFS reports via `LfsOp::DiskStats` and its
/// `LfsOp::GetTelemetry` view. These ops touch no media, so the counters a
/// health snapshot taken just before carries cannot move in between.
fn ground_truth(
    ctx: &mut Ctx,
    lfs: &[ProcId],
    retry: RetryPolicy,
) -> Vec<(simdisk::DiskStats, Box<LfsTelemetry>)> {
    let mut client = LfsClient::with_retry(retry);
    lfs.iter()
        .map(|&proc| {
            let stats = match client.call(ctx, proc, LfsOp::DiskStats) {
                Ok(LfsData::DiskCounters(s)) => s,
                other => panic!("DiskStats reply: {other:?}"),
            };
            let telemetry = match client.call(ctx, proc, LfsOp::GetTelemetry) {
                Ok(LfsData::Telemetry(t)) => t,
                other => panic!("GetTelemetry reply: {other:?}"),
            };
            (stats, telemetry)
        })
        .collect()
}

/// Zero slack: every instance's disk section in the snapshot equals its
/// device's own ledger through the one `DiskStats` conversion, and the
/// instance gauges agree with the ground-truth read.
fn assert_reconciles(health: &HealthSnapshot, ground: &[(simdisk::DiskStats, Box<LfsTelemetry>)]) {
    assert_eq!(health.lfs.len(), ground.len());
    for (i, (mirror, (stats, telemetry))) in health.lfs.iter().zip(ground).enumerate() {
        assert_eq!(
            mirror.disk,
            disk_telemetry(stats, mirror.media_lost),
            "lfs {i} disk counters"
        );
        assert_eq!(mirror.disk, telemetry.disk, "lfs {i} disk view");
        assert_eq!(
            mirror.free_blocks, telemetry.free_blocks,
            "lfs {i} free blocks"
        );
        assert_eq!(
            mirror.wal_ring_used, telemetry.wal_ring_used,
            "lfs {i} wal ring"
        );
        assert_eq!(mirror.media_lost, telemetry.media_lost, "lfs {i} media");
        assert_eq!(mirror.crash_down, telemetry.crash_down, "lfs {i} crash");
    }
}

/// End-of-run exactness, driven through the full operational arc
/// (column loss → degraded reads → spare → paced rebuild): the health
/// snapshot's per-instance disk counters must equal the `DiskStats` the
/// devices themselves report, and its gauges must agree with the
/// ground-truth `LfsOp::GetTelemetry` reads.
#[test]
fn end_of_run_snapshot_reconciles_exactly_with_diskstats() {
    let victim = 1u32;
    let cfg = config(true).with_faults(FaultPlan {
        seed: 0x7e1e,
        losses: vec![DiskLost {
            disk: victim,
            after_writes: 25,
        }],
        ..FaultPlan::none()
    });
    let (mut sim, machine) = BridgeMachine::build(&cfg);
    let server = machine.server;
    let spare = machine.lfs[victim as usize];
    let lfs: Vec<_> = machine.lfs.clone();
    let retry = cfg.server.lfs_retry;
    let (health, ground) = sim.block_on(machine.frontend, "telemetry-client", move |ctx| {
        let mut bridge = BridgeClient::with_retry(server, retry);
        let file = bridge.create(ctx, CreateSpec::default()).expect("create");
        for i in 0..BLOCKS {
            bridge.seq_write(ctx, file, content(i)).expect("append");
        }
        bridge.open(ctx, file).expect("open");
        while bridge.seq_read(ctx, file).expect("read").is_some() {}
        assert!(install_spare(ctx, spare), "spare racked in");
        bridge
            .rebuild_paced(ctx, file, 8, SimDuration::from_micros(200))
            .expect("rebuild");
        bridge.open(ctx, file).expect("reopen");
        while bridge.seq_read(ctx, file).expect("final read").is_some() {}

        let health = bridge.get_health(ctx).expect("health");
        (health, ground_truth(ctx, &lfs, retry))
    });
    let _ = sim.stats();

    assert!(health.server.degraded_reads > 0, "the loss was exercised");
    assert_eq!(health.server.rebuilds_started, 1);
    assert_eq!(health.server.rebuilds_done, 1);
    assert!(health.has_event("disk.lost"));
    assert!(health.has_event("redundancy.degraded_onset"));
    assert!(health.has_event("disk.spare_installed"));
    assert!(health.has_event("rebuild.start"));
    assert!(health.has_event("rebuild.done"));
    assert_eq!(health.lfs.len(), BREADTH as usize);
    assert_reconciles(&health, &ground);
    assert!(
        health.lfs.iter().all(|l| !l.media_lost),
        "spare racked in and rebuilt"
    );
}

/// The same zero-slack check on the crash path: a WAL machine whose node
/// is killed mid-stream replays its log on recovery (disk reads outside
/// any service batch) and then publishes; the end-of-run snapshot must
/// still equal every device's own `DiskStats`.
#[test]
fn end_of_run_snapshot_reconciles_exactly_after_crash_recovery() {
    let victim = 1u32;
    let cfg = BridgeConfig::instant(BREADTH)
        .with_wal()
        .with_faults(FaultPlan {
            seed: 0xc4a5,
            crashes: vec![CrashAt {
                disk: victim,
                after_writes: 20,
                down: SimDuration::from_millis(300),
            }],
            ..FaultPlan::none()
        });
    assert!(cfg.telemetry, "instant machines arm telemetry by default");
    let (mut sim, machine) = BridgeMachine::build(&cfg);
    let server = machine.server;
    let lfs: Vec<_> = machine.lfs.clone();
    let retry = cfg.server.lfs_retry;
    let (health, ground) = sim.block_on(machine.frontend, "telemetry-client", move |ctx| {
        let mut bridge = BridgeClient::with_retry(server, retry);
        let file = bridge.create(ctx, CreateSpec::default()).expect("create");
        for i in 0..BLOCKS {
            bridge.seq_write(ctx, file, content(i)).expect("append");
        }
        bridge.open(ctx, file).expect("open");
        while bridge.seq_read(ctx, file).expect("read").is_some() {}
        let health = bridge.get_health(ctx).expect("health");
        (health, ground_truth(ctx, &lfs, retry))
    });
    let _ = sim.stats();

    assert!(health.has_event("node.crash"), "the crash was exercised");
    assert_reconciles(&health, &ground);
    assert!(health.lfs.iter().all(|l| !l.crash_down), "recovered");
}
