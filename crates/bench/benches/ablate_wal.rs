//! Ablation A13a — what crash consistency costs: the per-LFS write-ahead
//! log on and off, and how much of the cost group commit recovers.
//!
//! Three regimes of the same machine (p = 4, Wren disks):
//!
//! 1. **wal-off** — `WalConfig::disabled()`: the pre-crash-era EFS,
//!    write-through directory, no commit barrier.
//! 2. **wal, no batching** — a 64-block ring with `group_commit = 1`:
//!    every mutating op pays its intent append and a commit record
//!    before the ack.
//! 3. **wal, group commit 8** — `WalConfig::standard()`: the server
//!    drains up to 8 queued mutations per commit, amortising the commit
//!    record and the ring's tail seeks across the batch.
//!
//! Measured twice: a single sequential writer (the worst case for group
//! commit — the queue never holds more than one op) and six concurrent
//! writers pipelining appends straight at the LFS instances (the case
//! group commit exists for). The Bridge server services one client
//! request at a time, so the direct path is the only way a bench client
//! can build queue depth at an instance.

use bridge_bench::report::{secs, Table};
use bridge_bench::results::{emit, Metric};
use bridge_bench::{file_blocks, records_per_second, write_workload};
use bridge_core::{BridgeClient, BridgeConfig, BridgeMachine, Durability};
use bridge_efs::{LfsClient, LfsFileId, LfsOp, WalConfig};
use bridge_tools::{run_workers, ToolOptions, WorkerSpec};
use bytes::Bytes;
use parsim::SimDuration;
use std::collections::VecDeque;

const BREADTH: u32 = 4;
const WRITERS: usize = 6;
/// In-flight ops each writer keeps pipelined at its instance.
const WINDOW: usize = 8;

fn single_blocks() -> u64 {
    file_blocks() / 8
}

fn stream_blocks() -> u64 {
    file_blocks() / 32
}

struct Run {
    /// One client writing `single_blocks()` sequentially.
    single_write: SimDuration,
    /// The same client reading the file back.
    single_read: SimDuration,
    /// Six concurrent clients, `stream_blocks()` each: total wall time
    /// until the last writer finishes.
    concurrent: SimDuration,
}

fn measure(wal: WalConfig) -> Run {
    let durability = if wal.is_enabled() {
        Durability::Wal
    } else {
        Durability::Paper
    };
    let mut config = BridgeConfig::paper(BREADTH).with_durability(durability);
    // The ablation's knob: group-commit depth (and ring size) per run.
    config.efs.wal = wal;
    let (mut sim, machine) = BridgeMachine::build(&config);
    let server = machine.server;
    let lfs: Vec<(parsim::ProcId, parsim::NodeId)> = machine
        .lfs
        .iter()
        .copied()
        .zip(machine.lfs_nodes.iter().copied())
        .collect();
    sim.block_on(machine.frontend, "bench", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let t0 = ctx.now();
        let file = write_workload(ctx, &mut bridge, single_blocks(), 8);
        let single_write = ctx.now() - t0;

        bridge.open(ctx, file).expect("open");
        let t0 = ctx.now();
        while bridge.seq_read(ctx, file).expect("read").is_some() {}
        let single_read = ctx.now() - t0;

        // Six writers spread over the four instances, each running on
        // its instance's node and keeping a window of appends pipelined
        // — the queued mutations the server's batch fill drains per
        // group commit.
        let specs: Vec<WorkerSpec<u64>> = (0..WRITERS)
            .map(|w| {
                let (proc, node) = lfs[w % lfs.len()];
                WorkerSpec {
                    node,
                    name: format!("writer{w}"),
                    run: Box::new(move |c| {
                        let mut client = LfsClient::new();
                        let file = LfsFileId(0xA130 + w as u32);
                        client
                            .call(c, proc, LfsOp::Create { file })
                            .expect("create");
                        let mut inflight = VecDeque::new();
                        for i in 0..stream_blocks() {
                            let data = Bytes::from(vec![(w as u8) << 4 | (i as u8 & 0xf); 1000]);
                            let op = LfsOp::Write {
                                file,
                                block: i as u32,
                                data,
                                hint: None,
                            };
                            inflight.push_back(client.send(c, proc, op));
                            if inflight.len() >= WINDOW {
                                let id = inflight.pop_front().expect("nonempty");
                                client.wait(c, proc, id).expect("write");
                            }
                        }
                        while let Some(id) = inflight.pop_front() {
                            client.wait(c, proc, id).expect("write");
                        }
                        Ok(stream_blocks())
                    }),
                }
            })
            .collect();
        let t0 = ctx.now();
        let written = run_workers(ctx, &ToolOptions::default(), specs).expect("writers");
        let concurrent = ctx.now() - t0;
        assert_eq!(
            written.iter().sum::<u64>(),
            WRITERS as u64 * stream_blocks()
        );

        Run {
            single_write,
            single_read,
            concurrent,
        }
    })
}

fn main() {
    println!(
        "## Ablation A13a — WAL overhead and group commit (p = {BREADTH}, \
         {} + {WRITERS}x{} blocks)\n",
        single_blocks(),
        stream_blocks()
    );

    let off = measure(WalConfig::disabled());
    let nobatch = measure(WalConfig {
        log_blocks: 64,
        group_commit: 1,
    });
    let standard = measure(WalConfig::standard());

    let mut t = Table::new(["workload", "wal off", "wal, no batch", "wal, group 8"]);
    for (name, pick) in [
        (
            "single writer",
            &(|r: &Run| r.single_write) as &dyn Fn(&Run) -> SimDuration,
        ),
        ("single reader", &|r: &Run| r.single_read),
        ("6 concurrent writers", &|r: &Run| r.concurrent),
    ] {
        t.row([
            name.to_string(),
            secs(pick(&off)),
            secs(pick(&nobatch)),
            secs(pick(&standard)),
        ]);
    }
    t.print();

    let single_overhead = standard.single_write.as_secs_f64() / off.single_write.as_secs_f64();
    let nobatch_overhead = nobatch.concurrent.as_secs_f64() / off.concurrent.as_secs_f64();
    let standard_overhead = standard.concurrent.as_secs_f64() / off.concurrent.as_secs_f64();
    let recovery = nobatch.concurrent.as_secs_f64() / standard.concurrent.as_secs_f64();

    // Reads never touch the log: the read path must price identically.
    assert_eq!(
        off.single_read, standard.single_read,
        "the WAL must not affect the read path"
    );

    println!(
        "\nsingle-writer WAL overhead: {single_overhead:.2}x; concurrent overhead \
         {nobatch_overhead:.2}x unbatched, {standard_overhead:.2}x with group commit \
         ({recovery:.2}x recovered)"
    );

    emit(
        "ablate_wal",
        &[
            Metric::higher(
                "wal_off.writes_per_s",
                records_per_second(single_blocks(), off.single_write),
            ),
            Metric::higher(
                "wal_on.writes_per_s",
                records_per_second(single_blocks(), standard.single_write),
            ),
            Metric::lower("wal_on.single_overhead", single_overhead),
            Metric::lower("wal_on.concurrent_overhead", standard_overhead),
            Metric::higher("group_commit.recovery", recovery),
        ],
    );

    // Group commit must recover part of the commit cost under load.
    assert!(
        standard.concurrent <= nobatch.concurrent,
        "group commit regressed the concurrent write phase: {} > {}",
        secs(standard.concurrent),
        secs(nobatch.concurrent)
    );
}
