//! `wide_copy`: breadth. The paper's machine at p = 1024 holds a file of
//! about 16 blocks per column; each round copies it with the copy tool,
//! reads the copy back block for block, one client per column, and
//! deletes it.

use crate::gen::{self, Rng};
use crate::measure::{Clock, CostTimer};
use crate::workload::{load_file, verify_and_delete, Checks, Round, RoundVirt, Workload};
use bridge_core::{BridgeClient, BridgeConfig, BridgeFileId, BridgeMachine};
use bridge_tools::{copy, ToolOptions};
use bytes::Bytes;
use parsim::Simulation;
use std::sync::Arc;

/// The `wide_copy` workload.
#[derive(Debug, Clone)]
pub struct WideCopy {
    /// Machine breadth p.
    pub breadth: u32,
    /// Blocks per column; the seed trims up to a quarter of a row.
    pub blocks_per_column: u64,
    /// Input seed.
    pub seed: u64,
    /// Corrupt one block of every copy before it is checked (self-test).
    pub sabotage: bool,
    src: Option<(BridgeFileId, Arc<Vec<Bytes>>)>,
}

impl WideCopy {
    /// The benchmark's scale: p = 1024, 16 blocks per column.
    pub fn new(seed: u64) -> WideCopy {
        WideCopy::scaled(seed, 1024, 16)
    }

    /// A `wide_copy` of any size (tests use small ones).
    pub fn scaled(seed: u64, breadth: u32, blocks_per_column: u64) -> WideCopy {
        WideCopy {
            breadth,
            blocks_per_column,
            seed,
            sabotage: false,
            src: None,
        }
    }

    /// The generated input: about `blocks_per_column` rows of shuffled
    /// records.
    pub fn input(&self) -> Vec<Bytes> {
        let row = u64::from(self.breadth);
        let trim = Rng::new(self.seed, 0).below(row / 4 + 1);
        gen::shuffled_records(self.seed, row * self.blocks_per_column - trim)
    }
}

impl Workload for WideCopy {
    fn config(&self) -> BridgeConfig {
        BridgeConfig {
            seed: self.seed,
            ..BridgeConfig::paper(self.breadth)
        }
    }

    fn load(&mut self, sim: &mut Simulation, machine: &BridgeMachine) -> Checks {
        let records = Arc::new(self.input());
        let (file, checks) = load_file(sim, machine, &records);
        let images = records.iter().map(|r| gen::block_image(r)).collect();
        self.src = Some((file, Arc::new(images)));
        checks
    }

    fn round(
        &mut self,
        sim: &mut Simulation,
        machine: &BridgeMachine,
        clock: Clock,
        _round: u64,
        at_requests: &mut dyn FnMut(&mut Simulation),
    ) -> Round {
        let (src, expected) = self.src.clone().expect("load ran first");
        let (server, sabotage) = (machine.server, self.sabotage);
        let blocks = expected.len() as u64;
        let t0 = sim.now();
        let (copied, tool_host_s) = sim.block_on(machine.frontend, "wide_copy", move |ctx| {
            let mut bridge = BridgeClient::new(server);
            let timer = CostTimer::start(clock);
            let copied = copy(ctx, &mut bridge, src, &ToolOptions::default());
            let tool_host_s = timer.seconds();
            if let (true, Ok((dst, _))) = (sabotage, &copied) {
                let _ = bridge.rand_write(ctx, *dst, blocks / 2, &b"corrupted block"[..]);
            }
            (copied.ok(), tool_host_s)
        });
        let mut virt = RoundVirt::default();
        let Some((dst, stats)) = copied else {
            virt.checks.attempted = blocks + 1;
            virt.checks.failed = blocks + 1;
            return Round { virt, tool_host_s };
        };
        virt.checks.check(stats.blocks == blocks);
        at_requests(sim);
        let (checks, latencies) = verify_and_delete(sim, machine, dst, &expected, self.seed);
        virt.checks.add(checks);
        virt.latencies = latencies;
        virt.work = stats.blocks;
        virt.work_nanos = stats.elapsed.as_nanos();
        virt.copy_nanos = stats.elapsed.as_nanos();
        virt.user_writes = stats.blocks;
        virt.span_nanos = (sim.now() - t0).as_nanos();
        Round { virt, tool_host_s }
    }
}
