//! Ablation A13b — parallel fsck: checking all p LFS instances at once.
//!
//! A Bridge machine's consistency check decomposes the way everything
//! else in the system does: each LFS audits its own directory, chains,
//! and allocator, so `pfsck` can run the p audits concurrently (one
//! worker per node, tree fan-out) instead of visiting instances one at a
//! time from the controller. This bench populates a p = 32 machine,
//! then runs the identical check in both [`FsckMode`]s on identically
//! populated machines and reports the speedup — the crash-era analogue
//! of the copy tool's O(n/p + log p) claim.

use bridge_bench::report::{secs, Table};
use bridge_bench::results::{emit, Metric};
use bridge_bench::{file_blocks, write_workload};
use bridge_core::{BridgeClient, BridgeConfig, BridgeMachine};
use bridge_tools::{pfsck, FsckMode, FsckOptions, FsckVerdict};
use parsim::{NodeId, ProcId};

const BREADTH: u32 = 32;

fn blocks() -> u64 {
    file_blocks() / 4
}

/// Builds a fresh machine, fills it with `blocks()` striped records, and
/// runs one machine-wide `pfsck --check` in `mode`.
fn measure(mode: FsckMode) -> FsckVerdict {
    let config = BridgeConfig::paper(BREADTH).with_wal();
    let (mut sim, machine) = BridgeMachine::build(&config);
    let server = machine.server;
    let pairs: Vec<(ProcId, NodeId)> = machine
        .lfs
        .iter()
        .copied()
        .zip(machine.lfs_nodes.iter().copied())
        .collect();
    sim.block_on(machine.frontend, "fsck-bench", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        write_workload(ctx, &mut bridge, blocks(), 8);
        pfsck(
            ctx,
            &pairs,
            &FsckOptions {
                mode,
                ..FsckOptions::default()
            },
        )
        .expect("pfsck")
    })
}

fn main() {
    println!(
        "## Ablation A13b — parallel vs serial fsck (p = {BREADTH}, {} blocks)\n",
        blocks()
    );

    let serial = measure(FsckMode::Serial);
    let parallel = measure(FsckMode::Parallel);

    assert!(serial.clean(), "serial check dirty: {:?}", serial.errors());
    assert!(
        parallel.clean(),
        "parallel check dirty: {:?}",
        parallel.errors()
    );
    assert_eq!(
        serial.reports, parallel.reports,
        "both modes must report identical per-instance findings"
    );

    let speedup = serial.elapsed.as_secs_f64() / parallel.elapsed.as_secs_f64();
    let mut t = Table::new(["mode", "elapsed", "speedup"]);
    t.row(["serial".to_string(), secs(serial.elapsed), "1.00x".into()]);
    t.row([
        "parallel".to_string(),
        secs(parallel.elapsed),
        format!("{speedup:.2}x"),
    ]);
    t.print();

    let files: u32 = parallel.reports.iter().map(|r| r.files).sum();
    let audited: u32 = parallel.reports.iter().map(|r| r.blocks).sum();
    println!(
        "\n{files} directory entries, {audited} blocks audited; parallel fsck is \
         {speedup:.2}x faster at p = {BREADTH}"
    );

    emit(
        "fsck_speedup",
        &[
            Metric::lower("fsck.serial_secs", serial.elapsed.as_secs_f64()),
            Metric::lower("fsck.parallel_secs", parallel.elapsed.as_secs_f64()),
            Metric::higher("fsck.speedup_p32", speedup),
        ],
    );

    // The decomposition claim as a hard bar: concurrent instance audits
    // must clearly beat the controller's one-at-a-time visit.
    assert!(
        speedup >= 4.0,
        "parallel fsck speedup collapsed: {speedup:.2}x"
    );
}
