//! The Bridge Server's multi-instance mutations, in every
//! [`Durability`] mode. Each mutation is one transaction; only
//! `Atomic` gives it a decision log, the other modes run it as the
//! paper's one-phase fan-out. Three families of checks:
//!
//! - **Delete staging**: a `DeleteMany` that fails validation (unknown
//!   file, in-batch duplicate) must leave the directory untouched — the
//!   surviving files stay fully readable and a corrected batch succeeds.
//!   This holds in every mode, because the server validates the whole
//!   batch before mutating anything.
//! - **Freed-block accounting**: `Deleted { blocks }` must equal exactly
//!   the blocks freed on surviving instances when a node is down and the
//!   batch mixes `Redundancy::None` and `Redundancy::Mirror` files.
//!   Tolerant skips (redundant columns on the dead node) never
//!   under-count the survivors; an intolerable loss (a `None` file
//!   placed on the dead node) errors — and under 2PC removes nothing.
//! - **Fingerprints**: one fixed script per mode × redundancy, pinned
//!   to its reply transcript, freed-block count and kernel `RunStats`.

use bridge_core::{
    BridgeClient, BridgeConfig, BridgeError, BridgeFileId, BridgeMachine, CreateSpec, Durability,
    Redundancy,
};
use bridge_efs::{set_failed, EfsError, LfsClient, LfsData, LfsFileId, LfsOp};
use parsim::{Ctx, ProcId, SimTime, Tracer};
use std::sync::{Arc, Mutex};

/// Companion-id bit for mirrored columns (mirrors `core::server`).
const MIRROR_BIT: u32 = 0x4000_0000;

const BREADTH: u32 = 4;

const MODES: [Durability; 3] = [Durability::Paper, Durability::Wal, Durability::Atomic];

fn config(durability: Durability) -> BridgeConfig {
    BridgeConfig::instant(BREADTH).with_durability(durability)
}

fn record(tag: u32, block: u64) -> Vec<u8> {
    let mut data = vec![0u8; 80];
    data[..4].copy_from_slice(&tag.to_le_bytes());
    data[4..12].copy_from_slice(&block.to_le_bytes());
    for (i, b) in data.iter_mut().enumerate().skip(12) {
        *b = (tag as usize * 7 + block as usize * 13 + i) as u8;
    }
    data
}

fn write_file(
    ctx: &mut Ctx,
    bridge: &mut BridgeClient,
    tag: u32,
    blocks: u64,
    spec: CreateSpec,
) -> BridgeFileId {
    let file = bridge.create(ctx, spec).unwrap();
    for b in 0..blocks {
        assert_eq!(bridge.seq_write(ctx, file, record(tag, b)).unwrap(), b);
    }
    file
}

fn assert_readable(ctx: &mut Ctx, bridge: &mut BridgeClient, file: BridgeFileId, tag: u32) {
    bridge.open(ctx, file).unwrap();
    let mut blocks = 0u64;
    while let Some(block) = bridge.seq_read(ctx, file).unwrap() {
        assert_eq!(&block[..80], &record(tag, blocks)[..], "file {file:?}");
        blocks += 1;
    }
    assert!(blocks > 0, "file {file:?} lost its contents");
}

/// Size in blocks of one column (primary or companion) on one instance;
/// 0 when the instance has no such file.
fn column_blocks(ctx: &mut Ctx, client: &mut LfsClient, lfs: ProcId, id: LfsFileId) -> u64 {
    match client.call(ctx, lfs, LfsOp::Stat { file: id }) {
        Ok(LfsData::Info(info)) => u64::from(info.size),
        Err(EfsError::UnknownFile(_)) => 0,
        other => panic!("stat {id:?}: unexpected {other:?}"),
    }
}

/// Satellite regression: a `DeleteMany` batch that trips validation —
/// an unknown id, or the same id listed twice — must reject the whole
/// batch without removing anything. Before the fix, the server removed
/// directory entries as it scanned, so `[a, bogus]` destroyed `a`'s
/// metadata while its columns survived on the LFS instances.
#[test]
fn failed_delete_many_leaves_directory_intact() {
    for mode in MODES {
        let (mut sim, machine) = BridgeMachine::build(&config(mode));
        let server = machine.server;
        sim.block_on(machine.frontend, "app", move |ctx| {
            let mut bridge = BridgeClient::new(server);
            let spec = |redundancy| CreateSpec {
                redundancy,
                ..CreateSpec::default()
            };
            let a = write_file(ctx, &mut bridge, 1, 6, spec(Redundancy::Mirror));
            let c = write_file(ctx, &mut bridge, 2, 4, spec(Redundancy::None));
            let bogus = BridgeFileId(0xDEAD);

            let err = bridge.delete_many(ctx, vec![a, bogus, c]).unwrap_err();
            assert_eq!(err, BridgeError::UnknownFile(bogus), "{mode:?}");
            assert_readable(ctx, &mut bridge, a, 1);
            assert_readable(ctx, &mut bridge, c, 2);

            let err = bridge.delete_many(ctx, vec![a, a]).unwrap_err();
            assert_eq!(err, BridgeError::UnknownFile(a), "duplicate in batch");
            assert_readable(ctx, &mut bridge, a, 1);

            let freed = bridge.delete_many(ctx, vec![a, c]).unwrap();
            assert!(freed > 0, "corrected batch frees blocks");
            assert_eq!(
                bridge.open(ctx, a).unwrap_err(),
                BridgeError::UnknownFile(a)
            );
            assert_eq!(
                bridge.open(ctx, c).unwrap_err(),
                BridgeError::UnknownFile(c)
            );
        });
    }
}

/// Satellite: `Deleted { blocks }` is exact under a node failure. The
/// batch mixes a mirrored file spanning all instances (the dead node's
/// columns are an expendable loss) with a `None` file placed away from
/// the victim; the reply must equal the stat-derived sum of every
/// surviving column, in every mode.
#[test]
fn delete_many_accounting_is_exact_under_node_failure() {
    for mode in MODES {
        let (mut sim, machine) = BridgeMachine::build(&config(mode));
        let server = machine.server;
        let lfs = machine.lfs.clone();
        sim.block_on(machine.frontend, "app", move |ctx| {
            let mut bridge = BridgeClient::new(server);
            let mut probe = LfsClient::new();
            let victim = 2usize;

            let m = write_file(
                ctx,
                &mut bridge,
                3,
                9,
                CreateSpec {
                    redundancy: Redundancy::Mirror,
                    ..CreateSpec::default()
                },
            );
            let s = write_file(
                ctx,
                &mut bridge,
                4,
                5,
                CreateSpec {
                    nodes: Some(vec![0, 1, 3]),
                    ..CreateSpec::default()
                },
            );

            // Stat every column before the failure; the expected freed
            // count is what the *surviving* instances hold.
            let mut expected = 0u64;
            for (n, &proc) in lfs.iter().enumerate() {
                if n == victim {
                    continue;
                }
                for file in [m, s] {
                    expected += column_blocks(ctx, &mut probe, proc, LfsFileId(file.0));
                    expected +=
                        column_blocks(ctx, &mut probe, proc, LfsFileId(file.0 | MIRROR_BIT));
                }
            }
            assert!(expected > 0, "columns landed on survivors");

            set_failed(ctx, lfs[victim], true);
            let freed = bridge.delete_many(ctx, vec![m, s]).unwrap();
            assert_eq!(
                freed, expected,
                "{mode:?}: tolerant skips must not under-count"
            );
            set_failed(ctx, lfs[victim], false);
            assert_eq!(
                bridge.open(ctx, m).unwrap_err(),
                BridgeError::UnknownFile(m)
            );
        });
    }
}

/// An intolerable loss — a `Redundancy::None` file with a column on the
/// dead node — fails the batch in every mode. Under 2PC the abort rolls
/// back the prepares on the surviving instances: after the node revives,
/// every file in the batch is still whole and a retry deletes all of it.
/// Without a decision log nothing is undone: the survivors' columns are
/// gone while the dead node's column of the `None` file remains.
#[test]
fn vetoed_delete_rolls_back_every_prepare() {
    for mode in MODES {
        let (mut sim, machine) = BridgeMachine::build(&config(mode));
        let server = machine.server;
        let lfs = machine.lfs.clone();
        sim.block_on(machine.frontend, "app", move |ctx| {
            let mut bridge = BridgeClient::new(server);
            let mut probe = LfsClient::new();
            let victim = 1usize;
            let spec = |redundancy| CreateSpec {
                redundancy,
                ..CreateSpec::default()
            };
            let frail = write_file(ctx, &mut bridge, 5, 7, spec(Redundancy::None));
            let sturdy = write_file(ctx, &mut bridge, 6, 6, spec(Redundancy::Mirror));

            set_failed(ctx, lfs[victim], true);
            let err = bridge.delete_many(ctx, vec![frail, sturdy]).unwrap_err();
            assert_eq!(err, BridgeError::Lfs(EfsError::NodeFailed), "{mode:?}");
            set_failed(ctx, lfs[victim], false);

            if mode == Durability::Atomic {
                assert_readable(ctx, &mut bridge, frail, 5);
                assert_readable(ctx, &mut bridge, sturdy, 6);
                assert!(bridge.delete_many(ctx, vec![frail, sturdy]).unwrap() > 0);
            } else {
                let column = LfsFileId(frail.0);
                assert!(column_blocks(ctx, &mut probe, lfs[victim], column) > 0);
                assert_eq!(column_blocks(ctx, &mut probe, lfs[0], column), 0);
            }
        });
    }
}

const REDUNDANCIES: [Redundancy; 3] = [
    Redundancy::None,
    Redundancy::Mirror,
    Redundancy::Parity { group: 0 },
];

/// Records every message the simulation posts, in posting order.
#[derive(Debug, Default)]
struct Sends(Mutex<Vec<(ProcId, ProcId, usize)>>);

impl Tracer for Sends {
    fn enabled(&self) -> bool {
        true
    }

    fn flow_send(&self, _id: u64, from: ProcId, to: ProcId, _at: SimTime, bytes: usize) {
        self.0.lock().unwrap().push((from, to, bytes));
    }
}

/// The fingerprint script on `BridgeConfig::paper(4)`: create, 12
/// appends, 3 overwrites, two more files on custom node sets (one listed
/// out of machine order), and a `DeleteMany` of all three. Returns the
/// reply transcript, the freed-block count, the kernel's `RunStats`, and
/// an FNV-1a digest of the server's send order (destination and size of
/// every message it posts).
fn fingerprint(durability: Durability, redundancy: Redundancy) -> (Vec<String>, u64, String, u64) {
    let sends = Arc::new(Sends::default());
    let mut config = BridgeConfig::paper(BREADTH)
        .with_redundancy(redundancy)
        .with_durability(durability);
    config.tracer = Some(sends.clone());
    let (mut sim, machine) = BridgeMachine::build(&config);
    let server = machine.server;
    let (log, freed) = sim.block_on(machine.frontend, "app", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let mut log = Vec::new();
        let a = bridge.create(ctx, CreateSpec::default()).unwrap();
        log.push(format!("create {a:?}"));
        for i in 0..12 {
            let n = bridge.seq_write(ctx, a, record(1, i));
            log.push(format!("append a[{i}] -> {n:?}"));
        }
        for at in [0u64, 5, 11] {
            let r = bridge.rand_write(ctx, a, at, record(2, at));
            log.push(format!("overwrite a[{at}] -> {r:?}"));
        }
        let on = |nodes: Vec<u32>| CreateSpec {
            nodes: Some(nodes),
            ..CreateSpec::default()
        };
        let b = bridge.create(ctx, on(vec![3, 1])).unwrap();
        log.push(format!("create {b:?}"));
        for i in 0..3 {
            let n = bridge.seq_write(ctx, b, record(3, i));
            log.push(format!("append b[{i}] -> {n:?}"));
        }
        let c = bridge.create(ctx, on(vec![0, 2])).unwrap();
        log.push(format!("create {c:?}"));
        let n = bridge.seq_write(ctx, c, record(4, 0));
        log.push(format!("append c[0] -> {n:?}"));
        let freed = bridge.delete_many(ctx, vec![b, a, c]).unwrap();
        (log, freed)
    });
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for &(from, to, bytes) in sends.0.lock().unwrap().iter() {
        if from == server {
            for word in [to.index() as u64, bytes as u64] {
                digest = (digest ^ word).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    (log, freed, format!("{:?}", sim.stats()), digest)
}

/// `RunStats` of the fingerprint script, by [`MODES`] × [`REDUNDANCIES`].
const FINGERPRINT_STATS: [[&str; 3]; 3] = [
    [
        "RunStats { events: 296, messages: 116, spawned: 10, bytes_sent: 24968, queue_high_water: 10, dispatches: 296, syscalls: 412, wakes_elided: 4, ready_peak: 12, end_time: SimTime(855410000) }",
        "RunStats { events: 497, messages: 186, spawned: 10, bytes_sent: 46208, queue_high_water: 16, dispatches: 497, syscalls: 683, wakes_elided: 20, ready_peak: 20, end_time: SimTime(1017410000) }",
        "RunStats { events: 551, messages: 214, spawned: 10, bytes_sent: 61216, queue_high_water: 16, dispatches: 551, syscalls: 765, wakes_elided: 20, ready_peak: 20, end_time: SimTime(1082960400) }",
    ],
    [
        "RunStats { events: 307, messages: 116, spawned: 10, bytes_sent: 24968, queue_high_water: 10, dispatches: 307, syscalls: 423, wakes_elided: 4, ready_peak: 12, end_time: SimTime(1341410000) }",
        "RunStats { events: 495, messages: 186, spawned: 10, bytes_sent: 46208, queue_high_water: 16, dispatches: 495, syscalls: 681, wakes_elided: 20, ready_peak: 20, end_time: SimTime(1425410000) }",
        "RunStats { events: 549, messages: 214, spawned: 10, bytes_sent: 61216, queue_high_water: 16, dispatches: 549, syscalls: 763, wakes_elided: 20, ready_peak: 20, end_time: SimTime(1820960400) }",
    ],
    [
        "RunStats { events: 363, messages: 132, spawned: 10, bytes_sent: 25728, queue_high_water: 10, dispatches: 363, syscalls: 495, wakes_elided: 0, ready_peak: 10, end_time: SimTime(1485226800) }",
        "RunStats { events: 879, messages: 246, spawned: 10, bytes_sent: 87492, queue_high_water: 10, dispatches: 879, syscalls: 1125, wakes_elided: 0, ready_peak: 10, end_time: SimTime(3568064300) }",
        "RunStats { events: 933, messages: 274, spawned: 10, bytes_sent: 102500, queue_high_water: 10, dispatches: 933, syscalls: 1207, wakes_elided: 0, ready_peak: 10, end_time: SimTime(3787614700) }",
    ],
];

/// Server send-order digests of the fingerprint script, by [`MODES`] ×
/// [`REDUNDANCIES`].
const FINGERPRINT_SENDS: [[u64; 3]; 3] = [
    [
        0x6326_c784_48cf_18ee,
        0xf1e3_07cc_7379_05d6,
        0x5ee0_6682_e772_6c04,
    ],
    [
        0x6326_c784_48cf_18ee,
        0xf1e3_07cc_7379_05d6,
        0x5ee0_6682_e772_6c04,
    ],
    [
        0xdc23_2a77_5fda_819e,
        0x9e43_4c25_9c6d_4cec,
        0x0f8a_7f55_47bd_2d48,
    ],
];

/// Pins every mode's mutation path: the same replies everywhere, the
/// freed-block count of each redundancy, and each combination's
/// `RunStats` and server send order — message for message, event for
/// event.
#[test]
fn mutation_fingerprints_are_pinned() {
    let mut want_log: Vec<String> = vec!["create BridgeFileId(1)".into()];
    want_log.extend((0..12).map(|i| format!("append a[{i}] -> Ok({i})")));
    want_log.extend([0, 5, 11].map(|at| format!("overwrite a[{at}] -> Ok(())")));
    want_log.push("create BridgeFileId(2)".into());
    want_log.extend((0..3).map(|i| format!("append b[{i}] -> Ok({i})")));
    want_log.push("create BridgeFileId(3)".into());
    want_log.push("append c[0] -> Ok(0)".into());
    let mut drift = Vec::new();
    for (d, mode) in MODES.into_iter().enumerate() {
        for (r, redundancy) in REDUNDANCIES.into_iter().enumerate() {
            let (log, freed, stats, sends) = fingerprint(mode, redundancy);
            let label = format!("{mode:?} x {redundancy:?}");
            assert_eq!(log, want_log, "{label}: transcript");
            let want_freed = match redundancy {
                Redundancy::None => 16,
                Redundancy::Mirror => 32,
                Redundancy::Parity { .. } => 24,
            };
            assert_eq!(freed, want_freed, "{label}: freed blocks");
            if stats != FINGERPRINT_STATS[d][r] {
                let want = FINGERPRINT_STATS[d][r];
                drift.push(format!("{label}\n  want {want}\n  got  {stats}"));
            }
            if sends != FINGERPRINT_SENDS[d][r] {
                let want = FINGERPRINT_SENDS[d][r];
                drift.push(format!(
                    "{label} send order\n  want {want:#x}\n  got  {sends:#x}"
                ));
            }
        }
    }
    assert!(drift.is_empty(), "RunStats drifted:\n{}", drift.join("\n"));
}
