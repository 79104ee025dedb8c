//! Property tests for the SimDisk timing model.
//!
//! The batched entry points must be pure batching: `read_many` charges
//! exactly what the equivalent block-at-a-time sequence would, and
//! `write_many` on a single-track run charges one positioning plus one
//! transfer per block. The track buffer must never produce phantom hits —
//! a block the device never transferred can never be served at hit cost.
//! The track-paged block store must be indistinguishable from a dense
//! table: a reference model over a `BTreeMap` agrees with it on every
//! return value, counter and raw image, through crashes, losses and
//! spares.

use bytes::Bytes;
use parsim::{CrashAt, Ctx, DiskLost, SimConfig, SimDuration, SimTime, Simulation};
use proptest::prelude::*;
use simdisk::{
    BlockAddr, BlockDevice, CrashSchedule, DiskError, DiskGeometry, DiskProfile, DiskStats,
    LossSchedule, SimDisk,
};
use std::collections::BTreeMap;
use std::fmt::Debug;

/// A small disk keeps the generated address space dense: 16 tracks of
/// 8 blocks, 16-byte blocks.
const GEO: DiskGeometry = DiskGeometry {
    block_size: 16,
    blocks_per_track: 8,
    tracks: 16,
};

const CAP: u32 = 16 * 8;

fn on_disk<R: Send + 'static>(f: impl FnOnce(&mut Ctx) -> R + Send + 'static) -> R {
    let mut sim = Simulation::new(SimConfig::default());
    let node = sim.add_node("io");
    sim.block_on(node, "driver", f)
}

fn block_of(byte: u8) -> Vec<u8> {
    vec![byte; GEO.block_size]
}

proptest! {
    /// `read_many` over an arbitrary (possibly repetitive, track-hopping)
    /// run charges exactly the block-at-a-time cost, returns the same
    /// data, and lands on the same counters.
    #[test]
    fn read_many_charges_like_block_at_a_time(
        raw in proptest::collection::vec(0u32..CAP, 1..24),
    ) {
        let (run, single, same_data, batched, looped) = on_disk(move |ctx| {
            let mut a = SimDisk::new(GEO, DiskProfile::wren());
            let mut b = SimDisk::new(GEO, DiskProfile::wren());
            for i in 0..CAP {
                a.write_raw(BlockAddr::new(i), &block_of(i as u8));
                b.write_raw(BlockAddr::new(i), &block_of(i as u8));
            }
            let addrs: Vec<BlockAddr> = raw.into_iter().map(BlockAddr::new).collect();
            let t0 = ctx.now();
            let run_data = a.read_many(ctx, &addrs).unwrap();
            let run = ctx.now() - t0;
            let t1 = ctx.now();
            let single_data: Vec<Bytes> = addrs
                .iter()
                .map(|&addr| b.read(ctx, addr).unwrap())
                .collect();
            let single = ctx.now() - t1;
            (run, single, run_data == single_data, a.stats(), b.stats())
        });
        prop_assert_eq!(run, single);
        prop_assert!(same_data);
        prop_assert_eq!(batched.reads, looped.reads);
        prop_assert_eq!(batched.buffer_hits, looped.buffer_hits);
        prop_assert_eq!(batched.track_loads, looped.track_loads);
        prop_assert_eq!(batched.busy, looped.busy);
    }

    /// A single-track `write_many` pays positioning once plus a transfer
    /// per block — the documented run economics — while the equivalent
    /// block-at-a-time sequence pays positioning on every write.
    #[test]
    fn write_many_single_track_pays_one_positioning(
        track in 0u32..GEO.tracks,
        offsets in proptest::collection::vec(0u32..8, 1..8),
    ) {
        let n = offsets.len() as u64;
        let (run, single) = on_disk(move |ctx| {
            let writes: Vec<(BlockAddr, Bytes)> = offsets
                .iter()
                .map(|&o| {
                    (
                        BlockAddr::new(track * GEO.blocks_per_track + o),
                        Bytes::from(block_of(o as u8)),
                    )
                })
                .collect();
            let mut a = SimDisk::new(GEO, DiskProfile::wren());
            let t0 = ctx.now();
            a.write_many(ctx, &writes).unwrap();
            let run = ctx.now() - t0;
            for (addr, data) in &writes {
                assert_eq!(a.read_raw(*addr).unwrap(), data.as_ref());
            }
            let mut b = SimDisk::new(GEO, DiskProfile::wren());
            let t1 = ctx.now();
            for (addr, data) in &writes {
                b.write(ctx, *addr, data).unwrap();
            }
            (run, ctx.now() - t1)
        });
        let wren = DiskProfile::wren();
        prop_assert_eq!(run, wren.positioning + wren.transfer_per_block * n);
        prop_assert_eq!(single, (wren.positioning + wren.transfer_per_block) * n);
    }

    /// One-element runs are indistinguishable from the single-block ops,
    /// wherever the run lands and whatever was buffered before.
    #[test]
    fn single_element_runs_match_single_ops(
        warm in 0u32..CAP,
        addr in 0u32..CAP,
    ) {
        let (run_w, one_w, run_r, one_r) = on_disk(move |ctx| {
            let mut a = SimDisk::new(GEO, DiskProfile::wren());
            let mut b = SimDisk::new(GEO, DiskProfile::wren());
            // Warm both buffers identically before measuring.
            a.write_raw(BlockAddr::new(warm), &block_of(1));
            b.write_raw(BlockAddr::new(warm), &block_of(1));
            a.read(ctx, BlockAddr::new(warm)).unwrap();
            b.read(ctx, BlockAddr::new(warm)).unwrap();

            let t0 = ctx.now();
            a.write_many(ctx, &[(BlockAddr::new(addr), Bytes::from(block_of(2)))])
                .unwrap();
            let run_w = ctx.now() - t0;
            let t1 = ctx.now();
            b.write(ctx, BlockAddr::new(addr), &block_of(2)).unwrap();
            let one_w = ctx.now() - t1;

            let t2 = ctx.now();
            a.read_many(ctx, &[BlockAddr::new(addr)]).unwrap();
            let run_r = ctx.now() - t2;
            let t3 = ctx.now();
            b.read(ctx, BlockAddr::new(addr)).unwrap();
            let one_r = ctx.now() - t3;
            (run_w, one_w, run_r, one_r)
        });
        prop_assert_eq!(run_w, one_w);
        prop_assert_eq!(run_r, one_r);
    }

    /// After any single-track batched write, a same-track block the run
    /// did not touch is a full-price miss (the phantom-hit regression),
    /// while the written blocks themselves still hit.
    #[test]
    fn unwritten_neighbors_never_phantom_hit(
        track in 0u32..GEO.tracks,
        written_raw in proptest::collection::vec(0u32..8, 1..7),
    ) {
        let mut written: Vec<u32> = written_raw;
        written.sort_unstable();
        written.dedup();
        let probe = (0..8u32)
            .find(|o| !written.contains(o))
            .expect("at most 6 of 8 offsets are written");
        let reread = written[0];
        let base = track * GEO.blocks_per_track;
        let (hit_cost, miss_cost) = on_disk(move |ctx| {
            let mut disk = SimDisk::new(GEO, DiskProfile::wren());
            disk.write_raw(BlockAddr::new(base + probe), &block_of(0xEE));
            let writes: Vec<(BlockAddr, Bytes)> = written
                .iter()
                .map(|&o| (BlockAddr::new(base + o), Bytes::from(block_of(o as u8))))
                .collect();
            disk.write_many(ctx, &writes).unwrap();
            // A block the run transferred is buffered...
            let t0 = ctx.now();
            disk.read(ctx, BlockAddr::new(base + reread)).unwrap();
            let hit_cost = ctx.now() - t0;
            // ...but the probe block was never transferred: full miss.
            let t1 = ctx.now();
            disk.read(ctx, BlockAddr::new(base + probe)).unwrap();
            (hit_cost, ctx.now() - t1)
        });
        let wren = DiskProfile::wren();
        prop_assert_eq!(hit_cost, wren.transfer_per_block);
        prop_assert_eq!(
            miss_cost,
            wren.positioning + wren.transfer_per_block * u64::from(GEO.blocks_per_track)
        );
    }

    /// Multi-track batched writes round-trip their data and cost one
    /// positioning per distinct track regardless of interleaving.
    #[test]
    fn write_many_data_survives_and_tracks_amortize(
        raw in proptest::collection::vec(0u32..CAP, 1..24),
    ) {
        // Deduplicate addresses (last write wins would also hold, but a
        // duplicate-free run makes the cost formula exact).
        let mut addrs: Vec<u32> = Vec::new();
        for a in raw {
            if !addrs.contains(&a) {
                addrs.push(a);
            }
        }
        let distinct_tracks = {
            let mut tracks: Vec<u32> = addrs.iter().map(|a| a / GEO.blocks_per_track).collect();
            tracks.sort_unstable();
            tracks.dedup();
            tracks.len() as u64
        };
        let blocks = addrs.len() as u64;
        let elapsed = on_disk(move |ctx| {
            let mut disk = SimDisk::new(GEO, DiskProfile::wren());
            let writes: Vec<(BlockAddr, Bytes)> = addrs
                .iter()
                .map(|&a| (BlockAddr::new(a), Bytes::from(block_of(a as u8))))
                .collect();
            let t0 = ctx.now();
            disk.write_many(ctx, &writes).unwrap();
            let elapsed = ctx.now() - t0;
            for (addr, data) in &writes {
                assert_eq!(disk.read_raw(*addr).unwrap(), data.as_ref());
            }
            elapsed
        });
        let wren = DiskProfile::wren();
        prop_assert_eq!(
            elapsed,
            wren.positioning * distinct_tracks + wren.transfer_per_block * blocks
        );
    }
}

/// The proptest strategies above never charge zero time for a miss; pin
/// the base costs once so the formulas in the properties stay honest.
#[test]
fn wren_base_costs() {
    assert_eq!(
        DiskProfile::wren().positioning,
        SimDuration::from_millis(15)
    );
    assert_eq!(
        DiskProfile::wren().transfer_per_block,
        SimDuration::from_millis(1)
    );
}

/// One step of a random disk workload. Addresses of the single-block
/// operations reach a little past the end of the disk, so out-of-range
/// errors are part of the comparison.
#[derive(Debug, Clone)]
enum Op {
    Write(u32, u8),
    WriteMany(Vec<(u32, u8)>),
    Clear(u32),
    Read(u32),
    ReadMany(Vec<u32>),
    ReadRaw(u32),
    Revive,
    Spare,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let addr = 0u32..CAP + 4;
    prop_oneof![
        (addr.clone(), any::<u8>()).prop_map(|(a, b)| Op::Write(a, b)),
        (addr.clone(), any::<u8>()).prop_map(|(a, b)| Op::Write(a, b)),
        proptest::collection::vec((0u32..CAP, any::<u8>()), 1..12).prop_map(Op::WriteMany),
        proptest::collection::vec((0u32..CAP, any::<u8>()), 1..12).prop_map(Op::WriteMany),
        addr.clone().prop_map(Op::Clear),
        addr.clone().prop_map(Op::Read),
        addr.clone().prop_map(Op::Read),
        proptest::collection::vec(0u32..CAP + 1, 1..12).prop_map(Op::ReadMany),
        proptest::collection::vec(0u32..CAP + 1, 1..12).prop_map(Op::ReadMany),
        addr.prop_map(Op::ReadRaw),
        (0u32..1).prop_map(|_| Op::Revive),
        (0u32..1).prop_map(|_| Op::Spare),
    ]
}

/// The dense reference: a map of written blocks plus the documented
/// timing and fault rules of a synchronous Wren-profile disk.
struct Model {
    blocks: BTreeMap<u32, Bytes>,
    stats: DiskStats,
    buffered: Option<u32>,
    valid: [bool; 8],
    persisted: u64,
    crash_at: Option<u64>,
    loss_at: Option<u64>,
    dead: bool,
    lost: bool,
}

impl Model {
    fn new(crash_at: Option<u64>, loss_at: Option<u64>) -> Self {
        Model {
            blocks: BTreeMap::new(),
            stats: DiskStats::default(),
            buffered: None,
            valid: [false; 8],
            persisted: 0,
            crash_at,
            loss_at,
            dead: false,
            lost: loss_at == Some(0),
        }
    }

    fn alive(&self) -> Result<(), DiskError> {
        if self.lost {
            Err(DiskError::Lost)
        } else if self.dead {
            Err(DiskError::Crashed)
        } else {
            Ok(())
        }
    }

    fn in_range(addr: u32) -> Result<(), DiskError> {
        if addr < CAP {
            Ok(())
        } else {
            Err(DiskError::OutOfRange {
                addr: BlockAddr::new(addr),
                capacity: CAP,
            })
        }
    }

    fn split(addr: u32) -> (u32, usize) {
        (
            addr / GEO.blocks_per_track,
            (addr % GEO.blocks_per_track) as usize,
        )
    }

    /// Reads one block through the track buffer, charging its cost.
    fn read_block(&mut self, addr: u32) {
        let wren = DiskProfile::wren();
        let (track, offset) = Self::split(addr);
        self.stats.reads += 1;
        if self.buffered == Some(track) && self.valid[offset] {
            self.stats.buffer_hits += 1;
            self.stats.busy += wren.transfer_per_block;
        } else {
            self.stats.track_loads += 1;
            self.stats.busy +=
                wren.positioning + wren.transfer_per_block * u64::from(GEO.blocks_per_track);
            self.buffered = Some(track);
            self.valid = [true; 8];
        }
    }

    fn image(&self, addr: u32) -> Result<Bytes, DiskError> {
        self.blocks.get(&addr).cloned().ok_or(DiskError::Unwritten {
            addr: BlockAddr::new(addr),
        })
    }

    /// Persists one block; returns the crash or loss it triggered, if any.
    fn persist(&mut self, addr: u32, data: Bytes) -> Option<DiskError> {
        let (track, offset) = Self::split(addr);
        self.stats.writes += 1;
        self.blocks.insert(addr, data);
        if self.buffered != Some(track) {
            self.buffered = Some(track);
            self.valid = [false; 8];
        }
        self.valid[offset] = true;
        self.persisted += 1;
        let crashed = self.crash_at.is_some_and(|at| self.persisted >= at);
        if crashed {
            self.crash_at = None;
            self.dead = true;
        }
        let lost = !self.lost && self.loss_at.is_some_and(|at| self.persisted >= at);
        self.lost |= lost;
        if crashed {
            Some(DiskError::Crashed)
        } else if lost {
            Some(DiskError::Lost)
        } else {
            None
        }
    }

    fn write(&mut self, addr: u32, data: Bytes) -> Result<(), DiskError> {
        self.alive()?;
        Self::in_range(addr)?;
        let wren = DiskProfile::wren();
        self.stats.busy += wren.positioning + wren.transfer_per_block;
        // A single write that triggers a crash or loss still returns Ok:
        // the block is durable, and the next operation sees the failure.
        self.persist(addr, data);
        Ok(())
    }

    fn write_many(&mut self, writes: &[(u32, Bytes)]) -> Result<(), DiskError> {
        self.alive()?;
        for (addr, _) in writes {
            Self::in_range(*addr)?;
        }
        let mut order: Vec<u32> = Vec::new();
        for (addr, _) in writes {
            let track = addr / GEO.blocks_per_track;
            if !order.contains(&track) {
                order.push(track);
            }
        }
        let wren = DiskProfile::wren();
        let mut busy = SimDuration::ZERO;
        for track in order {
            busy += wren.positioning;
            for (addr, data) in writes
                .iter()
                .filter(|(a, _)| a / GEO.blocks_per_track == track)
            {
                busy += wren.transfer_per_block;
                if let Some(torn) = self.persist(*addr, data.clone()) {
                    return Err(torn);
                }
            }
        }
        self.stats.busy += busy;
        Ok(())
    }

    fn read(&mut self, addr: u32) -> Result<Bytes, DiskError> {
        self.alive()?;
        Self::in_range(addr)?;
        self.read_block(addr);
        self.image(addr)
    }

    fn read_many(&mut self, addrs: &[u32]) -> Result<Vec<Bytes>, DiskError> {
        self.alive()?;
        for &addr in addrs {
            Self::in_range(addr)?;
        }
        for &addr in addrs {
            self.read_block(addr);
        }
        addrs.iter().map(|&addr| self.image(addr)).collect()
    }

    fn read_raw(&self, addr: u32) -> Option<Bytes> {
        if self.lost {
            None
        } else {
            self.blocks.get(&addr).cloned()
        }
    }

    fn revive(&mut self) {
        self.dead = false;
        self.buffered = None;
    }
}

fn same<T: PartialEq + Debug>(step: usize, op: &Op, got: T, want: T) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "step {step} ({op:?}): disk {got:?}, model {want:?}"
        ))
    }
}

/// Runs `ops` on a paged `SimDisk` and on the model side by side,
/// comparing after every step. Returns the first disagreement.
fn run_against_model(crash_at: u64, loss_at: Option<u64>, ops: Vec<Op>) -> Result<(), String> {
    on_disk(move |ctx| {
        let block = |byte: u8| Bytes::from(block_of(byte));
        let mut disk = SimDisk::new(GEO, DiskProfile::wren());
        disk.schedule_crashes(CrashSchedule::from_plan(
            &[CrashAt {
                disk: 0,
                after_writes: crash_at,
                down: SimDuration::from_millis(1),
            }],
            0,
        ));
        disk.schedule_loss(LossSchedule::from_plan(
            &loss_at
                .map(|after_writes| DiskLost {
                    disk: 0,
                    after_writes,
                })
                .into_iter()
                .collect::<Vec<_>>(),
            0,
        ));
        let mut model = Model::new((crash_at > 0).then_some(crash_at), loss_at);
        let mut born: SimTime = ctx.now();
        for (step, op) in ops.iter().enumerate() {
            match op {
                Op::Write(a, b) => same(
                    step,
                    op,
                    disk.write(ctx, BlockAddr::new(*a), &block_of(*b)),
                    model.write(*a, block(*b)),
                )?,
                Op::WriteMany(run) => {
                    let run: Vec<(u32, Bytes)> = run.iter().map(|&(a, b)| (a, block(b))).collect();
                    let addressed: Vec<(BlockAddr, Bytes)> = run
                        .iter()
                        .map(|(a, data)| (BlockAddr::new(*a), data.clone()))
                        .collect();
                    same(
                        step,
                        op,
                        disk.write_many(ctx, &addressed),
                        model.write_many(&run),
                    )?
                }
                Op::Clear(a) => {
                    disk.clear_raw(BlockAddr::new(*a));
                    model.blocks.remove(a);
                }
                Op::Read(a) => same(step, op, disk.read(ctx, BlockAddr::new(*a)), model.read(*a))?,
                Op::ReadMany(addrs) => {
                    let addressed: Vec<BlockAddr> =
                        addrs.iter().copied().map(BlockAddr::new).collect();
                    same(
                        step,
                        op,
                        disk.read_many(ctx, &addressed),
                        model.read_many(addrs),
                    )?
                }
                Op::ReadRaw(a) => same(
                    step,
                    op,
                    disk.read_raw(BlockAddr::new(*a))
                        .map(Bytes::copy_from_slice),
                    model.read_raw(*a),
                )?,
                Op::Revive => {
                    disk.revive();
                    model.revive();
                }
                Op::Spare => {
                    disk = BlockDevice::spare(&disk).expect("a SimDisk can be hot-swapped");
                    model = Model::new(None, None);
                    born = ctx.now();
                    let blank = (0..CAP).all(|a| disk.read_raw(BlockAddr::new(a)).is_none());
                    same(step, op, blank, true)?;
                }
            }
            same(step, op, disk.stats(), model.stats)?;
            same(step, op, disk.blocks_in_use(), model.blocks.len() as u32)?;
            same(step, op, disk.lost(), model.lost)?;
            same(
                step,
                op,
                disk.crash_down().is_some(),
                model.dead && !model.lost,
            )?;
            // A synchronous disk is busy exactly while its caller waits.
            same(step, op, ctx.now() - born, model.stats.busy)?;
        }
        let end = Op::ReadRaw(CAP);
        for a in 0..CAP + 2 {
            same(
                ops.len(),
                &end,
                disk.read_raw(BlockAddr::new(a)).map(Bytes::copy_from_slice),
                model.read_raw(a),
            )?;
        }
        Ok(())
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// The paged store matches the dense reference model over random
    /// workloads, including runs torn by a scheduled crash (`crash_at`
    /// 0 = none) or a permanent loss, and hot-swapped spares.
    #[test]
    fn paged_store_matches_dense_model(
        crash_at in 0u64..40,
        loss_raw in 0u64..120,
        ops in proptest::collection::vec(op_strategy(), 1..80),
    ) {
        let loss_at = (loss_raw < 50).then_some(loss_raw);
        if let Err(diff) = run_against_model(crash_at, loss_at, ops) {
            panic!("{diff}");
        }
    }
}
