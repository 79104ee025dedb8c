//! Batching ablation: run-based scatter-gather I/O versus the paper's
//! block-at-a-time protocol, for batch depths {1, 2, 8, 32} and machine
//! breadths {4, 16, 32}.
//!
//! Two sweeps:
//!
//! 1. **Server cursors** — a naive client writes then re-reads the 10 MB
//!    file sequentially, with `BridgeServerConfig::batch` controlling the
//!    server's LFS run size (read-ahead and write-behind per cursor).
//! 2. **Copy tool** — the Table 3 workload with `ToolOptions::batch`
//!    controlling the per-worker column streams.
//!
//! Since the simulation is deterministic, per-phase kernel counters come
//! from two-run subtraction: a setup-only run and a setup-plus-phase run
//! with the same seed produce identical setup traffic, so the difference
//! is the measured phase alone.

use bridge_bench::profile::Profiler;
use bridge_bench::report::{count, kernel_stats, secs, Table};
use bridge_bench::results::{emit, Metric};
use bridge_bench::{file_blocks, speedup, write_workload};
use bridge_core::{BatchPolicy, BridgeClient, BridgeConfig, BridgeMachine};
use bridge_tools::{copy, ToolOptions};
use parsim::{Ctx, RunStats, SimDuration, TracerHandle};
use std::sync::mpsc;

const DEPTHS: [u32; 4] = [1, 2, 8, 32];
const PROCESSORS: [u32; 3] = [4, 16, 32];

fn policy(depth: u32) -> BatchPolicy {
    if depth <= 1 {
        BatchPolicy::Off
    } else {
        BatchPolicy::Runs(depth)
    }
}

/// Runs `body` on the paper machine at breadth `p` with the server batch
/// policy set, returning the body's result and the whole run's kernel
/// counters.
fn run_instrumented<R: Send + 'static>(
    p: u32,
    server_batch: BatchPolicy,
    tracer: Option<TracerHandle>,
    body: impl FnOnce(&mut Ctx, &mut BridgeClient) -> R + Send + 'static,
) -> (R, RunStats) {
    let mut config = BridgeConfig::paper(p);
    config.server.batch = server_batch;
    config.tracer = tracer;
    let (mut sim, machine) = BridgeMachine::build(&config);
    let server = machine.server;
    let (tx, rx) = mpsc::channel();
    sim.spawn(machine.frontend, "bench", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let _ = tx.send(body(ctx, &mut bridge));
    });
    let stats = sim.run();
    (rx.try_recv().expect("bench body completed"), stats)
}

/// One phase measurement via two-run subtraction: `(elapsed, messages,
/// events)` attributable to the phase alone.
struct PhaseCost {
    elapsed: SimDuration,
    messages: u64,
    events: u64,
}

fn sweep_cursors(blocks: u64) {
    println!("### Sweep 1 — server cursors (naive sequential write + read, {blocks} blocks)\n");
    let measure = |p: u32, depth: u32| -> (PhaseCost, PhaseCost) {
        let batch = policy(depth);
        // Run A: create only. Run B: create + write. Run C: create +
        // write + read. Subtraction isolates the write and read phases.
        let (_, base) = run_instrumented(p, batch, None, move |ctx, bridge| {
            bridge.create(ctx, Default::default()).expect("create");
        });
        let (write_t, with_write) = run_instrumented(p, batch, None, move |ctx, bridge| {
            let t0 = ctx.now();
            write_workload(ctx, bridge, blocks, 42);
            ctx.now() - t0
        });
        let (read_t, with_read) = run_instrumented(p, batch, None, move |ctx, bridge| {
            let file = write_workload(ctx, bridge, blocks, 42);
            bridge.open(ctx, file).expect("open");
            let t0 = ctx.now();
            let mut read = 0u64;
            while let Some(block) = bridge.seq_read(ctx, file).expect("read") {
                read += block.len().min(1) as u64;
            }
            assert_eq!(read, blocks);
            ctx.now() - t0
        });
        let write = PhaseCost {
            elapsed: write_t,
            messages: with_write.messages - base.messages,
            events: with_write.events - base.events,
        };
        let read = PhaseCost {
            elapsed: read_t,
            messages: with_read.messages - with_write.messages,
            events: with_read.events - with_write.events,
        };
        (write, read)
    };

    for &p in &PROCESSORS {
        let mut table = Table::new([
            "Depth",
            "Write Time",
            "Write Msgs",
            "Read Time",
            "Read Msgs",
            "Read Speedup",
            "Msg Reduction",
        ]);
        let mut baseline: Option<(SimDuration, u64)> = None;
        for &depth in &DEPTHS {
            let (write, read) = measure(p, depth);
            let (t1, m1) = *baseline.get_or_insert((read.elapsed, read.messages));
            table.row([
                if depth == 1 {
                    "1 (Off)".to_string()
                } else {
                    depth.to_string()
                },
                secs(write.elapsed),
                count(write.messages),
                secs(read.elapsed),
                count(read.messages),
                format!("{:.2}x", speedup(t1, read.elapsed)),
                format!("{:.2}x", m1 as f64 / read.messages as f64),
            ]);
            let _ = (write.events, read.events);
        }
        println!("p = {p}:\n");
        table.print();
        println!();
    }
}

fn sweep_copy(blocks: u64, profiler: &mut Profiler) {
    println!("### Sweep 2 — copy tool ({blocks} blocks, per-worker column streams)\n");
    let mut measure = |p: u32, depth: u32| -> (PhaseCost, String) {
        let batch = policy(depth);
        // Setup (write_workload) runs unbatched in both runs so the
        // subtraction isolates the copy phase exactly.
        let (_, base) = run_instrumented(p, BatchPolicy::Off, None, move |ctx, bridge| {
            write_workload(ctx, bridge, blocks, 42);
        });
        // Under --profile, attribute the headline-breadth copies.
        let tracer = if p == 32 && (depth == 1 || depth == 8) {
            profiler.arm(&format!("copy_p{p}_depth{depth}"))
        } else {
            None
        };
        let (elapsed, with_copy) =
            run_instrumented(p, BatchPolicy::Off, tracer, move |ctx, bridge| {
                let src = write_workload(ctx, bridge, blocks, 42);
                let opts = ToolOptions {
                    batch,
                    ..ToolOptions::default()
                };
                let (_, stats) = copy(ctx, bridge, src, &opts).expect("copy");
                assert_eq!(stats.blocks, blocks);
                stats.elapsed
            });
        profiler.capture();
        let cost = PhaseCost {
            elapsed,
            messages: with_copy.messages - base.messages,
            events: with_copy.events - base.events,
        };
        (cost, kernel_stats(&with_copy))
    };

    let mut headline: Option<(u64, u64)> = None;
    let mut tracked: Vec<Metric> = Vec::new();
    for &p in &PROCESSORS {
        let mut table = Table::new([
            "Depth",
            "Copy Time",
            "Messages",
            "Events",
            "Speedup",
            "Msg Reduction",
        ]);
        let mut baseline: Option<(SimDuration, u64)> = None;
        let mut kernel_lines = Vec::new();
        for &depth in &DEPTHS {
            let (cost, kernel) = measure(p, depth);
            let (t1, m1) = *baseline.get_or_insert((cost.elapsed, cost.messages));
            if p == 32 && depth == 8 {
                headline = Some((m1, cost.messages));
            }
            if p == 32 && (depth == 1 || depth == 8) {
                tracked.push(Metric::lower(
                    format!("copy_p32_depth{depth}.secs"),
                    cost.elapsed.as_secs_f64(),
                ));
                tracked.push(Metric::lower(
                    format!("copy_p32_depth{depth}.messages"),
                    cost.messages as f64,
                ));
            }
            table.row([
                if depth == 1 {
                    "1 (Off)".to_string()
                } else {
                    depth.to_string()
                },
                secs(cost.elapsed),
                count(cost.messages),
                count(cost.events),
                format!("{:.2}x", speedup(t1, cost.elapsed)),
                format!("{:.2}x", m1 as f64 / cost.messages as f64),
            ]);
            kernel_lines.push(format!("depth {depth:>2}: {kernel}"));
        }
        println!("p = {p}:\n");
        table.print();
        println!("\nWhole-run kernel counters (setup + copy):");
        for line in kernel_lines {
            println!("  {line}");
        }
        println!();
    }

    // The acceptance bar: Runs(8) at p=32 must deliver ≥5x fewer messages
    // on the copy workload than block-at-a-time.
    let (unbatched, batched) = headline.expect("p=32 depth=8 measured");
    let reduction = unbatched as f64 / batched as f64;
    println!(
        "Headline: copy at p=32 with depth 8 delivers {reduction:.1}x fewer messages \
         ({} -> {})",
        count(unbatched),
        count(batched)
    );
    tracked.push(Metric::higher("copy_p32_depth8.msg_reduction", reduction));
    emit("ablate_batch_io", &tracked);
    assert!(
        reduction >= 5.0,
        "expected >=5x message reduction at p=32 depth=8, got {reduction:.2}x"
    );
}

fn main() {
    let blocks = file_blocks();
    println!(
        "## Batching ablation — run-based scatter-gather I/O ({} blocks ≈ {:.0} MB file)\n",
        blocks,
        blocks as f64 * 1024.0 / (1024.0 * 1024.0)
    );
    let mut profiler = Profiler::new("ablate_batch_io");
    sweep_cursors(blocks);
    sweep_copy(blocks, &mut profiler);
}
