//! The one fault harness behind `tests/chaos.rs`, `tests/availability.rs`
//! and the crash sweeps of `tests/crash.rs`.
//!
//! A **case** is a profile plus a fault plan. A **profile** is a data row
//! ([`PROFILES`]): which machine (breadth, [`Durability`], default
//! redundancy), which workload [`Shape`], which closing pfsck
//! [`Verdict`], which generator [`Layer`]s, and its default soak base.
//! The **generator** ([`Profile::plan`]) expands a `u64` seed into a
//! [`FaultPlan`] by applying the profile's layers in order, each drawing
//! from its own `mix64(seed, salt)` stream, so adding a layer to a
//! profile never moves another layer's draws. The **oracle**
//! ([`check`]) runs the case and requires its transcript — every
//! client-visible reply, every read-back hash and the closing pfsck
//! verdict — to equal the profile's fault-free run, computed once per
//! process. Faults may change timing, never observable behaviour.
//!
//! Generated cases are named by one line, `<profile> <seed>`: the corpus
//! (`tests/fault_seeds/*.plans`), the failure artifact
//! (`target/chaos_failures/<profile>-<seed>.plans`) and the replay
//! variable all use it. Three env vars steer the soaks:
//!
//! * `FAULT_SEED` — the soak's seed block (default: the profile's base);
//! * `FAULT_CASES` — how many cases each soak runs;
//! * `FAULT_REPLAY="<profile> <seed>"` — `cargo test --test chaos
//!   fault_replay` reruns exactly that case.
//!
//! A directed plan (built by hand in a test) has no line: its failure
//! report prints the whole plan and writes no artifact, since rerunning
//! the test is its replay.

#![allow(dead_code)]

use bridge_repro::core::{
    BridgeClient, BridgeConfig, BridgeFileId, BridgeMachine, CreateSpec, Durability, PlacementSpec,
    Redundancy,
};
use bridge_repro::efs::{self, LfsClient, LfsData, LfsOp};
use bridge_repro::parsim::{
    mix64, splitmix64, BlockFaultRule, CrashAt, Ctx, DiskLost, FaultPlan, MsgFaults, NodeId,
    Outage, OutageKind, ProcId, RunStats, SimDuration, SimTime, SERVER_DISK,
};
use bridge_repro::tools::{pfsck, FsckOptions};
use std::fmt::Write as _;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::OnceLock;

/// Node indexes in a [`BridgeMachine`] build: the server node is added
/// first, then the frontend, then one node per LFS.
pub const SERVER_NODE: usize = 0;
pub const FIRST_LFS_NODE: usize = 2;

/// Machine-wide mutations in the sweep workload: two Creates and one
/// Delete. On the 2PC machine each costs the coordinator exactly two
/// elementary decision-log writes (BEGIN, COMMIT), which fixes the
/// server-kill ordinal space at `2 * SWEEP_MACHINE_OPS`.
pub const SWEEP_MACHINE_OPS: u64 = 3;

/// The seed every sweep plan carries. Sweep plans hold kills only, so no
/// seeded message or disk stream ever draws from it.
const SWEEP_SEED: u64 = 0x0C4A_0007;

/// A kills-only plan, as the crash sweeps build them.
pub fn kills(crashes: Vec<CrashAt>) -> FaultPlan {
    FaultPlan {
        seed: SWEEP_SEED,
        crashes,
        ..FaultPlan::none()
    }
}

/// One fault kind of the generator.
#[derive(Clone, Copy)]
pub enum Layer {
    /// The bounded envelope: message drop/dup/delay rates with a capped
    /// drop run, up to two short outage windows on the server or an LFS
    /// node (never the client's frontend), and transient disk errors
    /// below the driver's retry limit. Its windows stay far below the
    /// servers' dedup retention.
    Envelope,
    /// One or two crash-at-any-point node kills at write ordinals inside
    /// (or just past) the storm workload's write stream.
    NodeKills,
    /// One fail-stop of the coordinator, addressed by [`SERVER_DISK`].
    /// The storm workload's three machine-wide mutations cost two
    /// decision-log writes each, so an ordinal in `1..=8` lands on any
    /// BEGIN (an in-doubt transaction), any COMMIT, or just past them.
    CoordinatorKill,
    /// Exactly one permanent media loss at any write ordinal — before
    /// anything persists, or past the whole write stream so the spare
    /// wipes a healthy column — under message *delays* only. Drops and
    /// duplicates stay out: the operator's spare rack-in
    /// ([`efs::install_spare`]) is a bare control message with no retry
    /// or dedup identity, by design.
    MediaLoss,
    /// The sweep's 1–3 kills over the fault-free run's write-ordinal
    /// space (a quarter past its end, so some never fire); with
    /// `coordinator`, one kill in three hits the decision log instead.
    SweepKills { coordinator: bool },
}

impl Layer {
    /// Adds this layer's faults to `plan`, drawing from the layer's own
    /// stream of `seed`.
    fn apply(self, profile: &'static Profile, seed: u64, plan: &mut FaultPlan) {
        let salt = match self {
            Layer::Envelope => 0x00C4_A05B,
            Layer::NodeKills => 0x0C4A_511E,
            Layer::CoordinatorKill => 0x7C10_2BC0,
            Layer::MediaLoss => 0x0105_5EED,
            Layer::SweepKills { coordinator: false } => 0x5EED_0C4A,
            Layer::SweepKills { coordinator: true } => 0x5EED_2BC0,
        };
        let mut s = mix64(seed, salt);
        let mut draw = move || splitmix64(&mut s);
        let breadth = u64::from(profile.breadth);
        match self {
            Layer::Envelope => {
                plan.msg = MsgFaults {
                    drop_per_mille: (draw() % 250) as u16,
                    dup_per_mille: (draw() % 250) as u16,
                    delay_per_mille: (draw() % 300) as u16,
                    delay_max: SimDuration::from_micros(1 + draw() % 100_000),
                    max_consecutive_drops: 2 + (draw() % 6) as u32,
                };
                for _ in 0..draw() % 3 {
                    let node = match draw() % (breadth + 1) {
                        0 => SERVER_NODE,
                        pick => FIRST_LFS_NODE + (pick as usize - 1),
                    };
                    let from = SimTime::ZERO + SimDuration::from_millis(draw() % 1_500);
                    let len = SimDuration::from_millis(10 + draw() % 800);
                    plan.outages.push(Outage {
                        node: NodeId::from_index(node),
                        from,
                        until: from + len,
                        kind: if draw() % 2 == 0 {
                            OutageKind::Down
                        } else {
                            OutageKind::Paused
                        },
                    });
                }
                for _ in 0..draw() % 3 {
                    plan.disk.targets.push(BlockFaultRule {
                        disk: (draw() % breadth) as u32,
                        block: (draw() % 256) as u32,
                        fails: 1 + (draw() % 4) as u32,
                    });
                }
                plan.disk.error_per_mille = (draw() % 150) as u16;
                plan.disk.max_consecutive = 1 + (draw() % 6) as u32;
            }
            Layer::NodeKills => {
                for _ in 0..1 + draw() % 2 {
                    plan.crashes.push(CrashAt {
                        disk: (draw() % breadth) as u32,
                        after_writes: 1 + draw() % 256,
                        down: SimDuration::from_millis(200 + draw() % 1_800),
                    });
                }
            }
            Layer::CoordinatorKill => plan.crashes.push(CrashAt {
                disk: SERVER_DISK,
                after_writes: 1 + draw() % 8,
                down: SimDuration::from_millis(200 + draw() % 800),
            }),
            Layer::MediaLoss => {
                plan.msg = MsgFaults {
                    delay_per_mille: (draw() % 300) as u16,
                    delay_max: SimDuration::from_micros(1 + draw() % 50_000),
                    ..MsgFaults::default()
                };
                plan.losses.push(DiskLost {
                    disk: (draw() % breadth) as u32,
                    after_writes: draw() % 600,
                });
            }
            Layer::SweepKills { coordinator } => {
                let writes = &profile.reference().disk_writes;
                let max_writes = writes.iter().copied().max().unwrap_or(1);
                plan.seed = SWEEP_SEED;
                for _ in 0..1 + draw() % 3 {
                    let (disk, span) = if coordinator && draw() % 3 == 0 {
                        (SERVER_DISK, 2 * SWEEP_MACHINE_OPS)
                    } else {
                        ((draw() % breadth) as u32, max_writes)
                    };
                    plan.crashes.push(CrashAt {
                        disk,
                        after_writes: 1 + draw() % (span + span / 4 + 1),
                        down: SimDuration::from_millis(100 + draw() % 1_200),
                    });
                }
            }
        }
    }
}

/// A workload shape. Every shape drives two files, `a` and `b`: appends
/// to each, overwrites in `a`, whole-file reads of both, then (when the
/// plan lost a disk) a spare rack-in with a paced rebuild of both files,
/// an optional delete of `b` followed by more appends to `a`, random
/// reads of `a`, final whole-file reads and the closing pfsck verdict.
pub struct Shape {
    /// Payload `i` is `len.0 + (i % len.1) * 16` bytes.
    len: (usize, usize),
    files: [CreateSpec; 2],
    /// Content tags of `a`'s and `b`'s append streams.
    tags: [u8; 2],
    appends: [u64; 2],
    overwrites: &'static [u64],
    /// Delete `b`, then append `a`'s blocks `from..to`.
    delete_b_then_append: Option<(u64, u64)>,
    rand_reads: &'static [u64],
    /// Whether the final reads cover `b` as well as `a`.
    final_b: bool,
    /// Whether the pfsck line logs the repair count.
    log_repaired: bool,
    /// Whether the run ends by asking every LFS for its disk's write
    /// count — the crash-ordinal space a sweep walks.
    count_writes: bool,
}

impl Shape {
    /// Deterministic payload for append/overwrite `i` of stream `tag`.
    pub fn content(&self, tag: u8, i: u64) -> Vec<u8> {
        vec![tag ^ (i as u8), (i >> 8) as u8, tag, 0x42]
            .into_iter()
            .cycle()
            .take(self.len.0 + (i as usize % self.len.1) * 16)
            .collect()
    }
}

const fn spec(
    placement: PlacementSpec,
    size_hint: Option<u64>,
    redundancy: Redundancy,
) -> CreateSpec {
    CreateSpec {
        placement,
        nodes: None,
        size_hint,
        redundancy,
    }
}

/// The chaos workload: a round-robin and a chunked file on a p=3 machine.
pub static STORM_WORKLOAD: Shape = Shape {
    len: (64, 7),
    files: [
        spec(PlacementSpec::RoundRobin, Some(64), Redundancy::None),
        spec(PlacementSpec::Chunked, Some(32), Redundancy::None),
    ],
    tags: [0xA0, 0xB0],
    appends: [40, 24],
    overwrites: &[3, 17, 29],
    delete_b_then_append: Some((40, 48)),
    rand_reads: &[0, 17, 44, 47],
    final_b: false,
    log_repaired: true,
    count_writes: false,
};

/// The availability workload: `a` takes the machine's default redundancy
/// and `b` pins a mirror, so both modes ride through every plan. The
/// first reads run degraded when the loss has fired; every read after
/// the rebuild must find the spare repopulated.
pub static REBUILD_WORKLOAD: Shape = Shape {
    len: (64, 7),
    files: [
        spec(PlacementSpec::RoundRobin, None, Redundancy::None),
        spec(PlacementSpec::RoundRobin, None, Redundancy::Mirror),
    ],
    tags: [0xA0, 0xB0],
    appends: [40, 24],
    overwrites: &[3, 17, 29],
    delete_b_then_append: None,
    rand_reads: &[0, 17, 39],
    final_b: true,
    log_repaired: false,
    count_writes: false,
};

/// The sweep workload: small on purpose, since a sweep runs it once per
/// elementary write per disk.
pub static SWEEP_WORKLOAD: Shape = Shape {
    len: (48, 5),
    files: [
        spec(PlacementSpec::RoundRobin, Some(16), Redundancy::None),
        spec(PlacementSpec::Chunked, Some(8), Redundancy::None),
    ],
    tags: [0xC0, 0xD0],
    appends: [10, 6],
    overwrites: &[4],
    delete_b_then_append: Some((10, 12)),
    rand_reads: &[],
    final_b: false,
    log_repaired: true,
    count_writes: true,
};

/// The closing consistency check a profile's transcript ends with.
#[derive(Clone, Copy, PartialEq)]
pub enum Verdict {
    /// None: the Paper machine keeps no log to recover from.
    None,
    /// `pfsck --check` over every instance.
    Instances,
    /// Plus the machine-wide pass: the server's directory (and, on a 2PC
    /// machine, its decision log) against every instance.
    Machine,
}

/// One row of the fault space: a machine, a workload and a generator.
pub struct Profile {
    pub name: &'static str,
    pub breadth: u32,
    pub durability: Durability,
    pub redundancy: Redundancy,
    pub workload: &'static Shape,
    pub verdict: Verdict,
    pub layers: &'static [Layer],
    /// The seed block a soak of this profile walks unless `FAULT_SEED`
    /// names another.
    pub soak_base: u64,
}

/// Bounded storms on the paper's machine.
pub static CHAOS: Profile = Profile {
    name: "chaos",
    breadth: 3,
    durability: Durability::Paper,
    redundancy: Redundancy::None,
    workload: &STORM_WORKLOAD,
    verdict: Verdict::None,
    layers: &[Layer::Envelope],
    soak_base: 0x00B2_1D6E,
};

/// Storms plus node kills on the WAL machine.
pub static CRASH: Profile = Profile {
    name: "crash",
    breadth: 3,
    durability: Durability::Wal,
    redundancy: Redundancy::None,
    workload: &STORM_WORKLOAD,
    verdict: Verdict::Instances,
    layers: &[Layer::Envelope, Layer::NodeKills],
    soak_base: 0x00C4_A5F0,
};

/// Storms, node kills and a coordinator kill on the 2PC machine.
pub static ATOMIC: Profile = Profile {
    name: "atomic",
    breadth: 3,
    durability: Durability::Atomic,
    redundancy: Redundancy::None,
    workload: &STORM_WORKLOAD,
    verdict: Verdict::Machine,
    layers: &[Layer::Envelope, Layer::NodeKills, Layer::CoordinatorKill],
    soak_base: 0x002B_C5F0,
};

/// Permanent media loss, degraded service, spare and rebuild on a 2PC
/// machine whose files default to parity (so parity never goes stale
/// across a crash).
pub static LOSS: Profile = Profile {
    name: "loss",
    breadth: 4,
    durability: Durability::Atomic,
    redundancy: Redundancy::Parity { group: 0 },
    workload: &REBUILD_WORKLOAD,
    verdict: Verdict::Machine,
    layers: &[Layer::MediaLoss],
    soak_base: 0x00AB_A11A,
};

/// Seeded multi-kill schedules on the small WAL sweep machine.
pub static SWEEP: Profile = Profile {
    name: "sweep",
    breadth: 2,
    durability: Durability::Wal,
    redundancy: Redundancy::None,
    workload: &SWEEP_WORKLOAD,
    verdict: Verdict::Machine,
    layers: &[Layer::SweepKills { coordinator: false }],
    soak_base: 0x005E_ED0C,
};

/// Seeded schedules mixing coordinator and node kills on the small 2PC
/// sweep machine — in-doubt windows stacked on participant recoveries.
pub static SWEEP_ATOMIC: Profile = Profile {
    name: "sweep_atomic",
    breadth: 2,
    durability: Durability::Atomic,
    redundancy: Redundancy::None,
    workload: &SWEEP_WORKLOAD,
    verdict: Verdict::Machine,
    layers: &[Layer::SweepKills { coordinator: true }],
    soak_base: 0x005E_ED2B,
};

pub static PROFILES: [&Profile; 6] = [&CHAOS, &CRASH, &ATOMIC, &LOSS, &SWEEP, &SWEEP_ATOMIC];

/// What one run of a workload leaves behind.
pub struct Run {
    /// Every client-visible reply and read-back hash, then the pfsck
    /// verdict — no timing.
    pub transcript: Vec<String>,
    pub stats: RunStats,
    /// Each disk's elementary write count at the end of the run (sweep
    /// workload only).
    pub disk_writes: Vec<u64>,
}

impl Profile {
    pub fn named(name: &str) -> &'static Profile {
        PROFILES
            .iter()
            .copied()
            .find(|p| p.name == name)
            .unwrap_or_else(|| panic!("unknown fault profile {name:?}"))
    }

    /// The profile's machine, fault-free.
    pub fn machine(&self) -> BridgeConfig {
        BridgeConfig::instant(self.breadth)
            .with_durability(self.durability)
            .with_redundancy(self.redundancy)
    }

    /// The generator: expands `seed` through the profile's layers.
    pub fn plan(&'static self, seed: u64) -> FaultPlan {
        let mut plan = FaultPlan {
            seed,
            ..FaultPlan::none()
        };
        for layer in self.layers {
            layer.apply(self, seed, &mut plan);
        }
        plan
    }

    /// The fault-free run, computed once per process.
    pub fn reference(&'static self) -> &'static Run {
        static REFERENCES: [OnceLock<Run>; 6] = [const { OnceLock::new() }; 6];
        let index = PROFILES
            .iter()
            .position(|p| std::ptr::eq(*p, self))
            .expect("profile is a PROFILES row");
        REFERENCES[index].get_or_init(|| self.run(&self.machine()))
    }

    /// Runs the profile's workload on `config` (the profile's machine,
    /// perhaps faulted or traced).
    pub fn run(&self, config: &BridgeConfig) -> Run {
        let shape = self.workload;
        let verdict = self.verdict;
        let (mut sim, machine) = BridgeMachine::build(config);
        let server = machine.server;
        let spare = config
            .faults
            .losses
            .first()
            .map(|loss| machine.lfs[loss.disk as usize]);
        let pairs: Vec<(ProcId, NodeId)> = machine
            .lfs
            .iter()
            .copied()
            .zip(machine.lfs_nodes.iter().copied())
            .collect();
        let retry = config.server.lfs_retry;
        let (transcript, disk_writes) =
            sim.block_on(machine.frontend, "fault-client", move |ctx| {
                let mut bridge = BridgeClient::with_retry(server, retry);
                let mut log: Vec<String> = Vec::new();
                let [spec_a, spec_b] = shape.files.clone();
                let a = bridge.create(ctx, spec_a).expect("create a");
                let b = bridge.create(ctx, spec_b).expect("create b");
                log.push(format!("create a={a:?} b={b:?}"));
                for (name, file, tag, n) in [
                    ("a", a, shape.tags[0], shape.appends[0]),
                    ("b", b, shape.tags[1], shape.appends[1]),
                ] {
                    for i in 0..n {
                        let n = bridge
                            .seq_write(ctx, file, shape.content(tag, i))
                            .expect("append");
                        log.push(format!("{name}.append[{i}] -> {n}"));
                    }
                }
                for &at in shape.overwrites {
                    bridge
                        .rand_write(ctx, a, at, shape.content(0xEE, at))
                        .expect("overwrite a");
                    log.push(format!("a.overwrite[{at}]"));
                }
                for (name, file) in [("a", a), ("b", b)] {
                    log.push(read_all(&mut bridge, ctx, name, file, "read"));
                }
                if let Some(victim) = spare {
                    assert!(
                        efs::install_spare(ctx, victim),
                        "device produced a spare medium"
                    );
                    for file in [a, b] {
                        bridge
                            .rebuild_paced(ctx, file, 8, SimDuration::from_micros(200))
                            .expect("rebuild onto the spare");
                    }
                }
                if let Some((from, to)) = shape.delete_b_then_append {
                    let freed = bridge.delete(ctx, b).expect("delete b");
                    log.push(format!("b.delete -> {freed}"));
                    for i in from..to {
                        let n = bridge
                            .seq_write(ctx, a, shape.content(shape.tags[0], i))
                            .expect("append a");
                        log.push(format!("a.append[{i}] -> {n}"));
                    }
                }
                for &at in shape.rand_reads {
                    let block = bridge.rand_read(ctx, a, at).expect("rand read a");
                    log.push(format!("a.rand_read[{at}] -> {:016x}", fnv(&block)));
                }
                log.push(read_all(&mut bridge, ctx, "a", a, "final"));
                if shape.final_b {
                    log.push(read_all(&mut bridge, ctx, "b", b, "final"));
                }
                if verdict != Verdict::None {
                    let verdict = pfsck(
                        ctx,
                        &pairs,
                        &FsckOptions {
                            retry,
                            server: (verdict == Verdict::Machine).then_some(server),
                            ..FsckOptions::default()
                        },
                    )
                    .expect("pfsck");
                    log.push(if shape.log_repaired {
                        format!(
                            "pfsck clean={} repaired={} errors={:?}",
                            verdict.clean(),
                            verdict.repaired,
                            verdict.errors(),
                        )
                    } else {
                        format!(
                            "pfsck clean={} errors={:?}",
                            verdict.clean(),
                            verdict.errors()
                        )
                    });
                }
                let mut writes = Vec::new();
                if shape.count_writes {
                    let mut client = LfsClient::with_retry(retry);
                    for &(proc, _) in &pairs {
                        match client
                            .call(ctx, proc, LfsOp::DiskStats)
                            .expect("disk stats")
                        {
                            LfsData::DiskCounters(stats) => writes.push(stats.writes),
                            other => panic!("unexpected DiskStats reply: {other:?}"),
                        }
                    }
                }
                (log, writes)
            });
        Run {
            transcript,
            stats: sim.stats(),
            disk_writes,
        }
    }
}

/// Reads `file` whole and logs its size and block hashes as `name.what`.
fn read_all(
    bridge: &mut BridgeClient,
    ctx: &mut Ctx,
    name: &str,
    file: BridgeFileId,
    what: &str,
) -> String {
    let info = bridge.open(ctx, file).expect("open");
    let mut line = format!("{name}.{what} size={}:", info.size);
    while let Some(block) = bridge.seq_read(ctx, file).expect("seq read") {
        write!(line, " {:016x}", fnv(&block)).unwrap();
    }
    line
}

/// FNV-1a, to log block contents compactly.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A profile plus the plan to run on its machine.
pub struct Case {
    pub profile: &'static Profile,
    /// The generator seed of a generated case; `None` for a directed
    /// plan built by hand.
    pub seed: Option<u64>,
    pub plan: FaultPlan,
}

impl Case {
    pub fn generated(profile: &'static Profile, seed: u64) -> Case {
        Case {
            profile,
            seed: Some(seed),
            plan: profile.plan(seed),
        }
    }

    pub fn directed(profile: &'static Profile, plan: FaultPlan) -> Case {
        Case {
            profile,
            seed: None,
            plan,
        }
    }

    /// `<profile> <seed>`: a generated case's corpus line, artifact
    /// contents and `FAULT_REPLAY` value.
    pub fn line(&self) -> Option<String> {
        self.seed
            .map(|seed| format!("{} {seed}", self.profile.name))
    }

    /// Parses a `<profile> <seed>` line back into its case.
    pub fn parse(line: &str) -> Case {
        let mut words = line.split_whitespace();
        let (Some(profile), Some(seed), None) = (words.next(), words.next(), words.next()) else {
            panic!("a case line is `<profile> <seed>`, got {line:?}");
        };
        let seed = seed
            .parse()
            .unwrap_or_else(|_| panic!("seed must be a u64 in {line:?}"));
        Case::generated(Profile::named(profile), seed)
    }
}

/// The oracle: runs `case` and requires its transcript to equal the
/// profile's fault-free one. Returns both runs so directed tests can
/// check that their faults fired. On a divergence, a generated case saves
/// its line under `target/chaos_failures/` and names its replay; a
/// directed case prints its plan.
pub fn check(case: &Case) -> (&'static Run, Run) {
    let reference = case.profile.reference();
    let config = case.profile.machine().with_faults(case.plan.clone());
    let base = &reference.transcript;
    let failure = match panic::catch_unwind(AssertUnwindSafe(|| case.profile.run(&config))) {
        Ok(run) if run.transcript == *base => return (reference, run),
        Ok(run) => {
            let got = &run.transcript;
            let at = base
                .iter()
                .zip(got)
                .position(|(b, f)| b != f)
                .unwrap_or_else(|| base.len().min(got.len()));
            format!(
                "first divergence at reply {at}:\n  fault-free: {:?}\n  faulted:    {:?}",
                base.get(at),
                got.get(at)
            )
        }
        Err(_) => "the faulted run panicked (message above)".to_string(),
    };
    let replay = match case.line() {
        Some(line) => {
            record_failure(&line);
            format!("replay with: FAULT_REPLAY=\"{line}\" cargo test --test chaos fault_replay")
        }
        None => "a directed plan: rerun its test to replay it".to_string(),
    };
    panic!(
        "{} invariant violated: {failure}\n{replay}\nplan: {:?}",
        case.profile.name, case.plan
    );
}

/// Saves a failing case's line as `target/chaos_failures/<profile>-<seed>.plans`
/// so CI can upload it (and a developer can move it into
/// `tests/fault_seeds/` to pin the regression).
fn record_failure(line: &str) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("chaos_failures");
    let name = format!("{}.plans", line.replace(' ', "-"));
    if std::fs::create_dir_all(&dir).is_ok() {
        let _ = std::fs::write(dir.join(name), format!("{line}\n"));
    }
}

fn env_u64(name: &str, default: u64) -> u64 {
    match std::env::var(name) {
        Ok(v) => v
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("{name} must be a u64, got {v:?}")),
        Err(_) => default,
    }
}

/// The soak loop: `FAULT_CASES` (default `cases`) generated cases from
/// the `FAULT_SEED` block (default the profile's base).
pub fn soak(profile: &'static Profile, cases: u64) {
    let base = env_u64("FAULT_SEED", profile.soak_base);
    for case in 0..env_u64("FAULT_CASES", cases) {
        check(&Case::generated(profile, mix64(base, case)));
    }
}

/// Every corpus case: the `<profile> <seed>` lines of
/// `tests/fault_seeds/*.plans` (`#` starts a comment line).
pub fn corpus() -> Vec<Case> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fault_seeds");
    let mut cases = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("tests/fault_seeds exists") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().is_none_or(|e| e != "plans") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("readable corpus file");
        for line in text.lines().map(str::trim) {
            if !line.is_empty() && !line.starts_with('#') {
                cases.push(Case::parse(line));
            }
        }
    }
    cases
}

/// Replays every corpus case of `profile`.
pub fn replay_corpus(profile: &'static Profile) {
    let cases: Vec<Case> = corpus()
        .into_iter()
        .filter(|case| std::ptr::eq(case.profile, profile))
        .collect();
    assert!(
        !cases.is_empty(),
        "corpus holds at least one {} case",
        profile.name
    );
    for case in &cases {
        check(case);
    }
}
