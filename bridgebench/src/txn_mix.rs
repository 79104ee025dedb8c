//! `txn_mix`: the per-request path. A p = 8 machine with two-phase
//! commit (and so per-LFS write-ahead logs) and parity redundancy, its
//! live telemetry polled by a sampler. Closed-loop clients each own a
//! preloaded file and issue seeded random reads, random writes and
//! appends against it, with create+delete churn interleaved. Every client
//! keeps its own model of its file: each read must equal the model, each
//! append must land at the model's end, and every create and delete must
//! be acknowledged.

use crate::gen::{self, Rng};
use crate::measure::Clock;
use crate::workload::{timed, Checks, Class, Latencies, Round, RoundVirt, Workload};
use bridge_core::{
    BridgeClient, BridgeConfig, BridgeFileId, BridgeMachine, CreateSpec, Redundancy,
};
use bytes::Bytes;
use parsim::{Ctx, ProcId, Simulation};

/// The `txn_mix` workload.
#[derive(Debug, Clone)]
pub struct TxnMix {
    /// Machine breadth p.
    pub breadth: u32,
    /// Closed-loop clients.
    pub clients: u32,
    /// Blocks preloaded into each client's file.
    pub preload_blocks: u64,
    /// Requests each client issues per round.
    pub requests: u64,
    /// Input seed.
    pub seed: u64,
    /// Overwrite client 0's file behind its back before each round
    /// (self-test: the client's reads must then disagree with its model).
    pub sabotage: bool,
    files: Vec<ClientFile>,
}

/// One client's file and its model of the contents.
#[derive(Debug, Clone)]
struct ClientFile {
    file: BridgeFileId,
    /// Each block as a read returns it ([`gen::block_image`]).
    model: Vec<Bytes>,
    /// The churn file created and not yet deleted.
    temp: Option<BridgeFileId>,
}

/// What a client reports when its round's requests are done.
#[derive(Debug)]
struct ClientDone {
    index: usize,
    state: ClientFile,
    checks: Checks,
    latencies: Latencies,
    writes: u64,
}

impl TxnMix {
    /// The benchmark's scale: p = 8, 4 clients × 3 000 requests a round,
    /// each client's file preloaded with 16 blocks per column — 16 parity
    /// stripes of p − 1 data blocks, the depth `wide_copy` loads.
    pub fn new(seed: u64) -> TxnMix {
        TxnMix::scaled(seed, 8, 4, 16 * (8 - 1), 3000)
    }

    /// A `txn_mix` of any size (tests use small ones).
    pub fn scaled(
        seed: u64,
        breadth: u32,
        clients: u32,
        preload_blocks: u64,
        requests: u64,
    ) -> TxnMix {
        TxnMix {
            breadth,
            clients,
            preload_blocks,
            requests,
            seed,
            sabotage: false,
            files: Vec::new(),
        }
    }
}

impl Workload for TxnMix {
    fn config(&self) -> BridgeConfig {
        BridgeConfig {
            seed: self.seed,
            ..BridgeConfig::paper(self.breadth)
                .with_2pc()
                .with_redundancy(Redundancy::parity())
        }
    }

    fn sampled(&self) -> bool {
        true
    }

    fn load(&mut self, sim: &mut Simulation, machine: &BridgeMachine) -> Checks {
        let (server, seed, clients, blocks) =
            (machine.server, self.seed, self.clients, self.preload_blocks);
        let (files, checks) = sim.block_on(machine.frontend, "load", move |ctx| {
            let mut bridge = BridgeClient::new(server);
            let mut checks = Checks::default();
            let mut files = Vec::new();
            for c in 0..u64::from(clients) {
                let mut rng = Rng::new(seed, 100 + c);
                let file = bridge
                    .create(ctx, CreateSpec::default())
                    .expect("a client file is created");
                let mut model = Vec::new();
                for i in 0..blocks {
                    let data = gen::record(&mut rng, i);
                    model.push(gen::block_image(&data));
                    checks.check(bridge.seq_write(ctx, file, data) == Ok(i));
                }
                files.push(ClientFile {
                    file,
                    model,
                    temp: None,
                });
            }
            (files, checks)
        });
        self.files = files;
        checks
    }

    fn round(
        &mut self,
        sim: &mut Simulation,
        machine: &BridgeMachine,
        _clock: Clock,
        round: u64,
        at_requests: &mut dyn FnMut(&mut Simulation),
    ) -> Round {
        let files = std::mem::take(&mut self.files);
        let (server, seed, requests, sabotage) =
            (machine.server, self.seed, self.requests, self.sabotage);
        at_requests(sim);
        let (files, virt) = sim.block_on(machine.frontend, "txn_mix", move |ctx| {
            let t0 = ctx.now();
            if sabotage {
                let mut bridge = BridgeClient::new(server);
                for block in 0..files[0].model.len() as u64 {
                    let _ = bridge.rand_write(ctx, files[0].file, block, &b"rogue write"[..]);
                }
            }
            let me = ctx.me();
            let clients = files.len();
            for (index, state) in files.into_iter().enumerate() {
                let mut rng = Rng::new(seed, 1_000 + round * 64 + index as u64);
                let node = ctx.node();
                ctx.spawn(node, format!("client{index}"), move |ctx| {
                    let done = run_client(ctx, server, index, state, &mut rng, requests);
                    ctx.send(me, done);
                });
            }
            let mut states: Vec<Option<ClientFile>> = vec![None; clients];
            let mut virt = RoundVirt::default();
            for _ in 0..clients {
                let (_, done) = ctx.recv_as::<ClientDone>();
                virt.checks.add(done.checks);
                virt.latencies.extend(&done.latencies);
                virt.user_writes += done.writes;
                states[done.index] = Some(done.state);
            }
            virt.span_nanos = (ctx.now() - t0).as_nanos();
            virt.work = virt.checks.attempted;
            virt.work_nanos = virt.span_nanos;
            let files: Vec<ClientFile> = states
                .into_iter()
                .map(|s| s.expect("every client reported"))
                .collect();
            (files, virt)
        });
        self.files = files;
        Round {
            virt,
            tool_host_s: 0.0,
        }
    }
}

/// One client's closed loop: `requests` seeded requests, each sent only
/// after the previous one returned. Each request is one of four kinds
/// with equal odds — random read, random write, append, churn — and
/// churn alternates creating and deleting a scratch file.
fn run_client(
    ctx: &mut Ctx,
    server: ProcId,
    index: usize,
    mut state: ClientFile,
    rng: &mut Rng,
    requests: u64,
) -> ClientDone {
    let mut bridge = BridgeClient::new(server);
    let mut checks = Checks::default();
    let mut latencies = Latencies::default();
    let mut writes = 0;
    let file = state.file;
    for _ in 0..requests {
        let size = state.model.len() as u64;
        let (class, ok, nanos) = match rng.below(4) {
            0 => {
                let block = rng.below(size);
                let (reply, nanos) = timed(ctx, |ctx| bridge.rand_read(ctx, file, block));
                let ok = reply.is_ok_and(|data| data == state.model[block as usize]);
                (Class::RandRead, ok, nanos)
            }
            1 => {
                let block = rng.below(size);
                let data = gen::record(rng, block);
                state.model[block as usize] = gen::block_image(&data);
                let (reply, nanos) = timed(ctx, |ctx| bridge.rand_write(ctx, file, block, data));
                writes += 1;
                (Class::RandWrite, reply.is_ok(), nanos)
            }
            2 => {
                let data = gen::record(rng, size);
                state.model.push(gen::block_image(&data));
                let (reply, nanos) = timed(ctx, |ctx| bridge.seq_write(ctx, file, data));
                writes += 1;
                (Class::Append, reply == Ok(size), nanos)
            }
            _ => match state.temp.take() {
                Some(temp) => {
                    let (reply, nanos) = timed(ctx, |ctx| bridge.delete(ctx, temp));
                    (Class::Delete, reply.is_ok(), nanos)
                }
                None => {
                    let (reply, nanos) =
                        timed(ctx, |ctx| bridge.create(ctx, CreateSpec::default()));
                    state.temp = reply.as_ref().ok().copied();
                    (Class::Create, reply.is_ok(), nanos)
                }
            },
        };
        checks.check(ok);
        latencies.record(class, nanos);
    }
    ClientDone {
        index,
        state,
        checks,
        latencies,
        writes,
    }
}
