//! `sort_merge`: the paper's two-phase parallel sort at p = 16 — local
//! external sorts, then the token-passing merge — of seeded shuffled
//! records. Each round sorts the input, reads the output back, one
//! client per column, to check it is the sorted permutation of the
//! input, and deletes it.

use crate::gen;
use crate::measure::{Clock, CostTimer};
use crate::workload::{load_file, verify_and_delete, Checks, Round, RoundVirt, Workload};
use bridge_core::{BridgeClient, BridgeConfig, BridgeFileId, BridgeMachine};
use bridge_tools::{sort, SortOptions};
use bytes::Bytes;
use parsim::Simulation;
use std::sync::Arc;

/// The `sort_merge` workload.
#[derive(Debug, Clone)]
pub struct SortMerge {
    /// Machine breadth p.
    pub breadth: u32,
    /// Records sorted.
    pub records: u64,
    /// Input seed.
    pub seed: u64,
    /// Swap two output records before they are checked (self-test).
    pub sabotage: bool,
    src: Option<(BridgeFileId, Arc<Vec<Bytes>>)>,
}

impl SortMerge {
    /// The benchmark's scale: p = 16, 16 384 records.
    pub fn new(seed: u64) -> SortMerge {
        SortMerge::scaled(seed, 16, 16 * 1024)
    }

    /// A `sort_merge` of any size (tests use small ones).
    pub fn scaled(seed: u64, breadth: u32, records: u64) -> SortMerge {
        SortMerge {
            breadth,
            records,
            seed,
            sabotage: false,
            src: None,
        }
    }
}

impl Workload for SortMerge {
    fn config(&self) -> BridgeConfig {
        BridgeConfig {
            seed: self.seed,
            ..BridgeConfig::paper(self.breadth)
        }
    }

    fn load(&mut self, sim: &mut Simulation, machine: &BridgeMachine) -> Checks {
        let input = Arc::new(gen::shuffled_records(self.seed, self.records));
        let (file, checks) = load_file(sim, machine, &input);
        // Keys are a permutation of 0..n, so record k belongs at block k.
        let mut sorted: Vec<Bytes> = input.iter().map(|r| gen::block_image(r)).collect();
        sorted.sort_by_key(|r| gen::key(r));
        self.src = Some((file, Arc::new(sorted)));
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
        let records = expected.len() as u64;
        let swapped = (expected.first().cloned(), expected.get(1).cloned());
        let t0 = sim.now();
        let (sorted, tool_host_s) = sim.block_on(machine.frontend, "sort_merge", move |ctx| {
            let mut bridge = BridgeClient::new(server);
            let timer = CostTimer::start(clock);
            let sorted = sort(ctx, &mut bridge, src, &SortOptions::default());
            let tool_host_s = timer.seconds();
            if let (true, Ok((dst, _)), (Some(first), Some(second))) = (sabotage, &sorted, swapped)
            {
                let _ = bridge.rand_write(ctx, *dst, 0, second);
                let _ = bridge.rand_write(ctx, *dst, 1, first);
            }
            (sorted.ok(), tool_host_s)
        });
        let mut virt = RoundVirt::default();
        let Some((dst, stats)) = sorted else {
            virt.checks.attempted = records + 1;
            virt.checks.failed = records + 1;
            return Round { virt, tool_host_s };
        };
        virt.checks.check(stats.records == records);
        at_requests(sim);
        let (checks, latencies) = verify_and_delete(sim, machine, dst, &expected, self.seed);
        virt.checks.add(checks);
        virt.latencies = latencies;
        virt.work = stats.records;
        virt.work_nanos = stats.total.as_nanos();
        virt.user_writes = stats.records;
        virt.sort_local_nanos = stats.local_sort.as_nanos();
        virt.sort_merge_nanos = stats.merge.as_nanos();
        virt.sort_merge_passes = u64::from(stats.merge_passes);
        virt.span_nanos = (sim.now() - t0).as_nanos();
        Round { virt, tool_host_s }
    }
}
