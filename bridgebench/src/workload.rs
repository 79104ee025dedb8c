//! What every workload shares: the trait the runner drives, the record
//! of one measured round, and the request phase — a parallel read-back
//! check, then a delete — that `wide_copy` and `sort_merge` run after
//! their tool.

use crate::gen::Rng;
use crate::measure::Clock;
use bridge_core::{BridgeClient, BridgeConfig, BridgeFileId, BridgeMachine, CreateSpec};
use bytes::Bytes;
use parsim::{Ctx, SimDuration, Simulation};
use std::sync::Arc;

/// Client request classes whose virtual latency the benchmark records,
/// timed from the benchmark's own code around each `BridgeClient` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `BridgeClient::rand_read`.
    RandRead,
    /// `BridgeClient::rand_write`.
    RandWrite,
    /// `BridgeClient::seq_write` at the end of a file.
    Append,
    /// `BridgeClient::create`.
    Create,
    /// `BridgeClient::delete`.
    Delete,
}

impl Class {
    /// Every class, in reporting order.
    pub const ALL: [Class; 5] = [
        Class::RandRead,
        Class::RandWrite,
        Class::Append,
        Class::Create,
        Class::Delete,
    ];

    /// The class's name in metric names (`core.<name>.virt_p50_ms`).
    pub fn name(self) -> &'static str {
        match self {
            Class::RandRead => "rand_read",
            Class::RandWrite => "rand_write",
            Class::Append => "append",
            Class::Create => "create",
            Class::Delete => "delete",
        }
    }
}

/// Virtual latencies per [`Class`], in nanoseconds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Latencies([Vec<u64>; 5]);

impl Latencies {
    /// Records one request of `class` that took `nanos` of virtual time.
    pub fn record(&mut self, class: Class, nanos: u64) {
        self.0[class as usize].push(nanos);
    }

    /// The samples of one class.
    pub fn of(&self, class: Class) -> &[u64] {
        &self.0[class as usize]
    }

    /// Every sample, all classes together.
    pub fn all(&self) -> Vec<u64> {
        self.0.iter().flatten().copied().collect()
    }

    /// Appends `other`'s samples.
    pub fn extend(&mut self, other: &Latencies) {
        for (mine, theirs) in self.0.iter_mut().zip(&other.0) {
            mine.extend_from_slice(theirs);
        }
    }
}

/// Operations checked and operations found failed or wrong.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Checks {
    /// Operations whose outcome was checked.
    pub attempted: u64,
    /// Operations that returned an error or a wrong result.
    pub failed: u64,
}

impl Checks {
    /// Counts one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Adds `other`'s counts.
    pub fn add(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// The deterministic, virtual-clock record of one measured round. Two
/// runs with one seed produce equal values, traced or not.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundVirt {
    /// Output checks.
    pub checks: Checks,
    /// Per-request virtual latencies.
    pub latencies: Latencies,
    /// Units of simulated work: blocks copied, records sorted, or client
    /// requests completed.
    pub work: u64,
    /// Virtual nanoseconds that work took (`virt_ops_per_s` denominator).
    pub work_nanos: u64,
    /// Virtual nanoseconds from the round's start to its end.
    pub span_nanos: u64,
    /// Block writes the workload asked for (the denominator of disk write
    /// amplification).
    pub user_writes: u64,
    /// Kernel messages delivered while the timed client requests ran
    /// (the numerator of messages per request).
    pub request_messages: u64,
    /// `copy` tool: virtual nanoseconds (zero when the round copies nothing).
    pub copy_nanos: u64,
    /// `sort` tool: local-phase virtual nanoseconds.
    pub sort_local_nanos: u64,
    /// `sort` tool: merge-phase virtual nanoseconds.
    pub sort_merge_nanos: u64,
    /// `sort` tool: global merge passes.
    pub sort_merge_passes: u64,
}

/// One measured round: its virtual record and the host cost of its tool
/// calls (copy or sort), timed from inside the simulation.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// The deterministic part.
    pub virt: RoundVirt,
    /// Host seconds spent inside the round's tool calls.
    pub tool_host_s: f64,
}

/// A benchmark workload: a machine configuration, an input load, and a
/// repeatable measured round.
pub trait Workload {
    /// The machine every set-up builds (without a tracer).
    fn config(&self) -> BridgeConfig;

    /// Loads the seeded input into a freshly built machine and keeps what
    /// the next round needs to check outputs. Every round gets its own
    /// machine and load.
    fn load(&mut self, sim: &mut Simulation, machine: &BridgeMachine) -> Checks;

    /// Runs measured round `round` (0-based) on the loaded machine. The
    /// round calls `at_requests` once, between driving the simulation to
    /// the end of its tool call (if it makes one) and starting its timed
    /// client requests, so the runner can count and trace the two phases
    /// apart.
    fn round(
        &mut self,
        sim: &mut Simulation,
        machine: &BridgeMachine,
        clock: Clock,
        round: u64,
        at_requests: &mut dyn FnMut(&mut Simulation),
    ) -> Round;

    /// Whether the live-telemetry sampler polls this workload.
    fn sampled(&self) -> bool {
        false
    }
}

/// Virtual nanoseconds `f` took, with its value.
pub fn timed<T>(ctx: &mut Ctx, f: impl FnOnce(&mut Ctx) -> T) -> (T, u64) {
    let t0 = ctx.now();
    let value = f(ctx);
    (value, (ctx.now() - t0).as_nanos())
}

/// What one read-back reader reports to its controller.
#[derive(Debug)]
struct ReaderDone {
    checks: Checks,
    latencies: Latencies,
}

/// Longest think time a read-back client waits before each request.
pub const THINK_MAX: SimDuration = SimDuration::from_millis(2);

/// The request phase of a tool round: reads `file` back through one
/// closed-loop client per column — the breadth the tools themselves run
/// at, one process per LFS instance — each reading its column front to
/// back, waiting a seeded think time of up to [`THINK_MAX`] before each
/// request, and checking block `i` against `expected[i]`
/// ([`Class::RandRead`]); then deletes the file ([`Class::Delete`]).
pub fn verify_and_delete(
    sim: &mut Simulation,
    machine: &BridgeMachine,
    file: BridgeFileId,
    expected: &Arc<Vec<Bytes>>,
    seed: u64,
) -> (Checks, Latencies) {
    let (server, readers) = (machine.server, machine.lfs.len() as u64);
    let expected = Arc::clone(expected);
    sim.block_on(machine.frontend, "verify", move |ctx| {
        let me = ctx.me();
        let n = expected.len() as u64;
        for r in 0..readers {
            let expected = Arc::clone(&expected);
            let mut rng = Rng::new(seed, (1 << 32) | r);
            let node = ctx.node();
            ctx.spawn(node, format!("verify{r}"), move |ctx| {
                let mut bridge = BridgeClient::new(server);
                let mut done = ReaderDone {
                    checks: Checks::default(),
                    latencies: Latencies::default(),
                };
                for block in (r..n).step_by(readers as usize) {
                    ctx.delay(SimDuration::from_nanos(rng.below(THINK_MAX.as_nanos())));
                    let (reply, nanos) = timed(ctx, |ctx| bridge.rand_read(ctx, file, block));
                    done.latencies.record(Class::RandRead, nanos);
                    done.checks
                        .check(reply.is_ok_and(|data| data == expected[block as usize]));
                }
                ctx.send(me, done);
            });
        }
        let mut checks = Checks::default();
        let mut latencies = Latencies::default();
        for _ in 0..readers {
            let (_, done) = ctx.recv_as::<ReaderDone>();
            checks.add(done.checks);
            latencies.extend(&done.latencies);
        }
        let mut bridge = BridgeClient::new(server);
        let (deleted, nanos) = timed(ctx, |ctx| bridge.delete(ctx, file));
        latencies.record(Class::Delete, nanos);
        checks.check(deleted.is_ok());
        (checks, latencies)
    })
}

/// Creates a default-placement file and appends `records` through one
/// client, checking each block lands at its index.
pub fn load_file(
    sim: &mut Simulation,
    machine: &BridgeMachine,
    records: &Arc<Vec<Bytes>>,
) -> (BridgeFileId, Checks) {
    let (server, records) = (machine.server, Arc::clone(records));
    sim.block_on(machine.frontend, "load", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let mut checks = Checks::default();
        let file = bridge
            .create(ctx, CreateSpec::default())
            .expect("the input file is created");
        for (i, record) in records.iter().enumerate() {
            let landed = bridge.seq_write(ctx, file, record.clone());
            checks.check(landed == Ok(i as u64));
        }
        (file, checks)
    })
}
