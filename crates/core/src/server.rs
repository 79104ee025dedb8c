//! The Bridge Server process.
//!
//! "The Bridge Server is the interface between the Bridge file system and
//! user programs. Its function is to glue the local file systems together
//! into a single logical structure. In our implementation the Bridge
//! Server is a single centralized process" — as here. It owns the Bridge
//! directory (file id → constituent LFS files, placement, size), enforces
//! the monitor discipline around Create/Delete/Open, forwards naive
//! requests to the right LFS with disk-address hints, and runs
//! parallel-open jobs in lock-step waves of `p`.

use crate::error::BridgeError;
use crate::header::{decode_payload, encode_payload, BridgeHeader, GlobalPtr, BRIDGE_DATA};
use crate::ids::{BridgeFileId, JobId, LfsIndex};
use crate::placement::{Placement, PlacementCursor, PlacementKind};
use crate::protocol::{
    reply_wire_size, BridgeCmd, BridgeData, BridgeReply, BridgeRequest, CreateSpec, FanoutAck,
    FanoutCreate, JobDeliver, JobRequest, JobSupply, LfsSlice, MachineInfo, MachineManifest,
    ManifestEntry, OpenInfo, PlacementSpec,
};
use crate::redundancy::{xor_into, ParityLayout, Redundancy};
use crate::txlog::{TxLog, TxParticipant};
use bridge_efs::{
    Admission, DedupWindow, EfsError, LfsClient, LfsData, LfsFileId, LfsOp, PrepareIntent,
    RetryPolicy,
};
use bridge_trace::{HealthEvent, HealthSnapshot, TelemetryRegistry};
use bytes::Bytes;
use parsim::{Ctx, NodeId, ProcId, SimDuration, Simulation};
use simdisk::{BlockAddr, SchedPolicy};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// Tuning knobs for the Bridge Server.
///
/// The two `create_*` costs model the serial initiation and completion
/// handling the paper blames for Create's `145 + 17.5p` ms profile:
/// "initiation and termination are sequential, leading to an almost linear
/// increase in overhead for additional processors".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BridgeServerConfig {
    /// CPU time charged to accept and decode any request.
    pub cpu_per_request: SimDuration,
    /// Serial CPU time to initiate one LFS operation during Create.
    pub create_init_cpu: SimDuration,
    /// Serial CPU time to process one LFS completion during Create.
    pub create_ack_cpu: SimDuration,
    /// Rotate the start node of successive round-robin files so block 0
    /// does not always hit LFS 0.
    pub rotate_start: bool,
    /// How Create reaches the LFS instances: the prototype's sequential
    /// initiation (Table 2's `145 + 17.5p`), or the paper's suggested
    /// "embedded binary tree" of per-node agents.
    pub create_fanout: CreateFanout,
    /// Scatter-gather batching of the server's LFS traffic.
    pub batch: BatchPolicy,
    /// Timeout/retry policy for the server's (and agents') internal LFS
    /// clients. [`RetryPolicy::none`] — the default — waits indefinitely,
    /// the pre-retry behaviour; under a fault plan that drops server↔LFS
    /// traffic, install [`RetryPolicy::standard`].
    pub lfs_retry: RetryPolicy,
    /// Redundancy applied to files whose [`CreateSpec`] asks for
    /// [`Redundancy::None`] (the spec default) — the machine-wide mode
    /// installed by [`BridgeConfig::with_redundancy`](crate::BridgeConfig::with_redundancy).
    pub default_redundancy: Redundancy,
}

/// Scatter-gather batching policy for server ↔ LFS traffic.
///
/// `Off` (the default) reproduces the prototype exactly: one LFS message
/// per block. `Runs(d)` lets sequential reads/appends, parallel-open
/// rounds and rebuilds pool up to `d` consecutive blocks per LFS into a
/// single `ReadRun`/`WriteRun` message, cutting both message counts and
/// per-request CPU charges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchPolicy {
    /// One LFS message per block (the prototype's behaviour).
    #[default]
    Off,
    /// Pool up to this many consecutive blocks per LFS message.
    Runs(u32),
}

impl BatchPolicy {
    /// Maximum blocks per LFS message under this policy.
    pub fn depth(self) -> u32 {
        match self {
            BatchPolicy::Off => 1,
            BatchPolicy::Runs(d) => d.max(1),
        }
    }
}

/// Create's fan-out topology (see [`BridgeServerConfig::create_fanout`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CreateFanout {
    /// The server initiates each LFS create itself, serially.
    #[default]
    Serial,
    /// Per-node agents relay the create down a binary tree.
    Tree,
}

impl Default for BridgeServerConfig {
    fn default() -> Self {
        BridgeServerConfig {
            cpu_per_request: SimDuration::from_millis(1),
            create_init_cpu: SimDuration::from_millis(9),
            create_ack_cpu: SimDuration::from_millis(8),
            rotate_start: true,
            create_fanout: CreateFanout::Serial,
            batch: BatchPolicy::Off,
            lfs_retry: RetryPolicy::none(),
            default_redundancy: Redundancy::None,
        }
    }
}

/// LFS file-id bit marking a mirror companion file.
const MIRROR_BIT: u32 = 0x4000_0000;
/// LFS file-id bit marking a parity companion file.
const PARITY_BIT: u32 = 0x2000_0000;

/// Is this LFS error "the column is gone" — its node failed, its disk
/// was lost, or a freshly formatted spare doesn't hold the file yet?
/// Redundant paths degrade through these; everything else is a real
/// error.
fn column_lost(e: &EfsError) -> bool {
    matches!(e, EfsError::NodeFailed | EfsError::UnknownFile(_))
}

/// Per-file directory record.
#[derive(Debug)]
struct FileMeta {
    lfs_file: LfsFileId,
    redundancy: Redundancy,
    /// Machine LFS indexes the file spans, in placement order.
    nodes: Vec<u32>,
    placement: Placement,
    size: u64,
    /// Linked files: chain endpoints (machine-indexed pointers).
    head: Option<GlobalPtr>,
    tail: Option<GlobalPtr>,
    /// Linked files: local size per *position* (next local block to use).
    linked_locals: Vec<u32>,
    /// Hashed placement: memoized locations (position-indexed pointers).
    hashed_cache: Vec<GlobalPtr>,
    hashed_cursor: Option<PlacementCursor>,
    /// Last known disk address per machine LFS index, passed as hints.
    hints: Vec<Option<BlockAddr>>,
}

impl FileMeta {
    /// Position-space location of a strictly placed global block (lfs =
    /// position within `nodes`, not a machine index).
    fn locate_pos(&mut self, block: u64) -> Result<GlobalPtr, BridgeError> {
        if let Redundancy::Parity { group } = self.redundancy {
            return Ok(ParityLayout::grouped(self.placement.breadth(), group).locate(block));
        }
        let pos = match self.placement.kind() {
            PlacementKind::Hashed { .. } => {
                while self.hashed_cache.len() as u64 <= block {
                    let cursor = self
                        .hashed_cursor
                        .get_or_insert_with(|| self.placement.cursor());
                    let ptr = cursor.next().expect("hashed placement is computable");
                    self.hashed_cache.push(ptr);
                }
                self.hashed_cache[block as usize]
            }
            PlacementKind::Linked => {
                return Err(BridgeError::LinkedUnsupported {
                    op: "direct placement",
                })
            }
            _ => self.placement.locate(block).expect("computable placement"),
        };
        Ok(pos)
    }

    /// Translates a position-space pointer to machine indexes.
    fn to_machine(&self, pos: GlobalPtr) -> GlobalPtr {
        GlobalPtr {
            lfs: LfsIndex(self.nodes[pos.lfs.index()]),
            local: pos.local,
        }
    }

    /// Machine-indexed location of a strictly placed global block.
    fn locate(&mut self, block: u64) -> Result<GlobalPtr, BridgeError> {
        let pos = self.locate_pos(block)?;
        Ok(self.to_machine(pos))
    }

    /// The mirror location (position-space) of a data block at `pos`.
    fn mirror_pos(&self, pos: GlobalPtr) -> GlobalPtr {
        GlobalPtr {
            lfs: LfsIndex((pos.lfs.0 + 1) % self.placement.breadth()),
            local: pos.local,
        }
    }

    /// The parity layout of a [`Redundancy::Parity`] file.
    ///
    /// # Panics
    ///
    /// Panics on non-parity files.
    fn parity_layout(&self) -> ParityLayout {
        match self.redundancy {
            Redundancy::Parity { group } => ParityLayout::grouped(self.placement.breadth(), group),
            _ => unreachable!("parity layout of a non-parity file"),
        }
    }

    /// The redundancy companion's LFS file name, if any.
    fn companion(&self, file: BridgeFileId) -> Option<LfsFileId> {
        match self.redundancy {
            Redundancy::None => None,
            Redundancy::Mirror => Some(LfsFileId(file.0 | MIRROR_BIT)),
            Redundancy::Parity { .. } => Some(LfsFileId(file.0 | PARITY_BIT)),
        }
    }
}

/// Per-(client, file) sequential cursor.
#[derive(Debug, Clone, Default)]
struct Cursor {
    next_block: u64,
    /// Linked files: where `next_block` lives, when known.
    linked_pos: Option<GlobalPtr>,
    /// Blocks already fetched by a batched read, `next_block` first.
    prefetch: VecDeque<Bytes>,
}

/// Appends buffered under [`BatchPolicy::Runs`], flushed as per-LFS
/// `WriteRun`s when the buffer fills or any other command arrives.
struct PendingAppends {
    file: BridgeFileId,
    payloads: Vec<Bytes>,
}

/// A planned run: blocks on one LFS with consecutive local numbers, in
/// global order.
struct RunPlan {
    lfs: LfsIndex,
    first: u32,
    globals: Vec<u64>,
}

/// Groups located blocks into per-LFS runs of consecutive locals, at most
/// `depth` long, preserving each LFS's visit order. Strict placements
/// hand consecutive locals to each node, so a window of consecutive
/// globals collapses to one run per LFS.
fn plan_runs(ptrs: &[(u64, GlobalPtr)], depth: u32) -> Vec<RunPlan> {
    let mut runs: Vec<RunPlan> = Vec::new();
    let mut open: HashMap<LfsIndex, usize> = HashMap::new();
    for &(global, ptr) in ptrs {
        let extend = open.get(&ptr.lfs).copied().filter(|&i| {
            runs[i].first + runs[i].globals.len() as u32 == ptr.local
                && (runs[i].globals.len() as u32) < depth
        });
        match extend {
            Some(i) => runs[i].globals.push(global),
            None => {
                open.insert(ptr.lfs, runs.len());
                runs.push(RunPlan {
                    lfs: ptr.lfs,
                    first: ptr.local,
                    globals: vec![global],
                });
            }
        }
    }
    runs
}

/// A Delete names a node once per file it holds there; under two-phase
/// commit each node prepares once per transaction. Merges delete
/// columns per node — files in the columns' (batch) order, tolerant only
/// if every merged column is — and orders the participants by machine
/// index.
fn one_prepare_per_node(
    columns: &[TxParticipant],
    tolerant: &[bool],
) -> (Vec<TxParticipant>, Vec<bool>) {
    let mut per_node: BTreeMap<u32, (Vec<LfsFileId>, bool)> = BTreeMap::new();
    for (column, &t) in columns.iter().zip(tolerant) {
        let (files, all_tolerant) = per_node.entry(column.node).or_insert((Vec::new(), true));
        files.extend_from_slice(column.intent.files());
        *all_tolerant &= t;
    }
    per_node
        .into_iter()
        .map(|(node, (files, t))| {
            let intent = PrepareIntent::DeleteFiles(files);
            (TxParticipant { node, intent }, t)
        })
        .unzip()
}

#[derive(Debug)]
struct Job {
    file: BridgeFileId,
    controller: ProcId,
    workers: Vec<ProcId>,
    cursor: u64,
}

struct Server {
    lfs: Vec<(ProcId, NodeId)>,
    /// Per-node fan-out agents (parallel to `lfs`) relaying the tree
    /// Create. [`BridgeMachine::build_in`](crate::BridgeMachine::build_in)
    /// always spawns them; only a hand-wired server may pass none, and
    /// then must keep [`CreateFanout::Serial`].
    agents: Vec<ProcId>,
    my_node: NodeId,
    config: BridgeServerConfig,
    /// The request-scheduling policy the machine's LFS instances run
    /// (reported via `GetInfo`).
    sched: SchedPolicy,
    files: HashMap<BridgeFileId, FileMeta>,
    cursors: HashMap<(ProcId, BridgeFileId), Cursor>,
    jobs: HashMap<JobId, Job>,
    next_file: u32,
    next_job: u64,
    next_start: u32,
    next_fanout: u64,
    pending: Option<PendingAppends>,
    client: LfsClient,
    /// The presumed-abort decision log ([`Durability::Atomic`](crate::Durability::Atomic)).
    /// Only the coordinator ([`Server::run_txn`]) reads it to choose
    /// between the two-phase round and the degenerate one-phase fan-out.
    txlog: Option<TxLog>,
    /// Next transaction id. Monotonic across the server's life — a
    /// modeling shortcut: the real coordinator would recover the high
    /// txn from its log, and [`TxLog::reseat`] shows where it would.
    next_txn: u64,
    /// The machine's live-telemetry registry (`None` = unarmed). Counter
    /// updates are host-side only and never touch virtual time.
    telemetry: Option<Arc<TelemetryRegistry>>,
}

/// Spawns the Bridge Server on `node`, gluing together the given LFS
/// server processes. `agents` are the per-node fan-out agents (one per
/// LFS, or empty to force serial creates). `txlog` is the coordinator's
/// presumed-abort decision log; passing `Some` makes every
/// multi-instance mutation commit by two-phase commit over the per-LFS
/// WALs (which every instance must then run), `None` runs the same
/// transactions as the paper's one-phase fan-out. Returns the server's
/// process id.
#[allow(clippy::too_many_arguments)]
pub fn spawn_bridge_server(
    sim: &mut Simulation,
    node: NodeId,
    name: impl Into<String>,
    lfs: Vec<(ProcId, NodeId)>,
    agents: Vec<ProcId>,
    config: BridgeServerConfig,
    sched: SchedPolicy,
    txlog: Option<TxLog>,
    telemetry: Option<Arc<TelemetryRegistry>>,
) -> ProcId {
    assert!(!lfs.is_empty(), "a Bridge machine needs at least one LFS");
    assert!(
        agents.is_empty() || agents.len() == lfs.len(),
        "agents must be one per LFS (or absent)"
    );
    sim.spawn(node, name, move |ctx| {
        let mut server = Server {
            lfs,
            agents,
            my_node: ctx.node(),
            config,
            sched,
            files: HashMap::new(),
            cursors: HashMap::new(),
            jobs: HashMap::new(),
            next_file: 1,
            next_job: 1,
            next_start: 0,
            next_fanout: 1,
            pending: None,
            client: LfsClient::with_retry(config.lfs_retry),
            txlog,
            next_txn: 1,
            telemetry,
        };
        // Duplicate suppression for retransmitted requests: the server is
        // single-threaded (one dispatch at a time), so a retransmit either
        // finds its original's cached reply here or — having been stashed
        // during the original's dispatch — finds it on the next loop turn.
        let mut dedup: DedupWindow<BridgeReply> = DedupWindow::standard();
        loop {
            let env = ctx.recv_where(|e| e.is::<BridgeRequest>());
            let from = env.from();
            let req = env.downcast::<BridgeRequest>().expect("matched type");
            ctx.delay(server.config.cpu_per_request);
            let reply = match dedup.admit(from, req.id) {
                Admission::New => {
                    let cmd_name = req.cmd.name();
                    let t0 = ctx.now();
                    let result = server.dispatch(ctx, from, req.cmd);
                    if ctx.trace_enabled() {
                        ctx.trace_span(
                            "bridge",
                            cmd_name,
                            t0,
                            &[
                                ("ok", u64::from(result.is_ok())),
                                ("id", req.id),
                                ("client", from.index() as u64),
                            ],
                        );
                    }
                    let reply = BridgeReply { id: req.id, result };
                    dedup.complete(from, req.id, ctx.now(), reply.clone());
                    if let Some(reg) = &server.telemetry {
                        reg.server().note_request(dedup.len() as u64);
                    }
                    reply
                }
                // Single-threaded service means an admitted id is always
                // completed before the next request is received.
                Admission::InFlight => unreachable!("request completed before the next receive"),
                Admission::Replay(reply) => {
                    // Already executed: resend the recorded outcome rather
                    // than re-running a possibly non-idempotent command.
                    if let Some(reg) = &server.telemetry {
                        reg.server().note_replay();
                    }
                    if ctx.trace_enabled() {
                        ctx.trace_instant("retry", "retry.replay", &[("id", req.id)]);
                    }
                    reply
                }
            };
            let bytes = reply_wire_size(&reply);
            ctx.send_sized_cloneable(from, reply, bytes);
        }
    })
}

/// Spawns a fan-out agent on `node`: a small resident process that relays
/// [`FanoutCreate`] requests down the embedded binary tree, performs the
/// create at its local LFS, and aggregates acknowledgements upward.
/// `relay_cpu` is the CPU cost the agent pays per message it initiates;
/// `retry` is applied to the agent's local-LFS client (the agent↔agent
/// relay itself is not retried — fault plans exercising the tree fan-out
/// must keep it lossless).
pub fn spawn_bridge_agent(
    sim: &mut Simulation,
    node: NodeId,
    name: impl Into<String>,
    relay_cpu: SimDuration,
    retry: RetryPolicy,
) -> ProcId {
    sim.spawn(node, name, move |ctx| {
        let mut client = LfsClient::with_retry(retry);
        loop {
            let env = ctx.recv_where(|e| e.is::<FanoutCreate>());
            let parent = env.from();
            let req = env.downcast::<FanoutCreate>().expect("matched");
            let id = req.id;
            let mut targets = req.targets;
            let (_, my_lfs) = targets.remove(0);
            let mid = targets.len() / 2;
            let right = targets.split_off(mid);
            let left = targets;
            let mut children = 0;
            for half in [left, right] {
                if let Some(&(agent, _)) = half.first() {
                    ctx.delay(relay_cpu);
                    ctx.send(
                        agent,
                        FanoutCreate {
                            id,
                            lfs_file: req.lfs_file,
                            companion: req.companion,
                            targets: half,
                        },
                    );
                    children += 1;
                }
            }
            ctx.delay(relay_cpu);
            let mut result = client
                .call(ctx, my_lfs, LfsOp::Create { file: req.lfs_file })
                .map(|_| ())
                .map_err(BridgeError::Lfs);
            if result.is_ok() {
                if let Some(companion) = req.companion {
                    result = client
                        .call(ctx, my_lfs, LfsOp::Create { file: companion })
                        .map(|_| ())
                        .map_err(BridgeError::Lfs);
                }
            }
            for _ in 0..children {
                let env = ctx
                    .recv_where(move |e| e.downcast_ref::<FanoutAck>().is_some_and(|a| a.id == id));
                let ack = env.downcast::<FanoutAck>().expect("matched");
                if result.is_ok() {
                    result = ack.result;
                }
            }
            ctx.send(parent, FanoutAck { id, result });
        }
    })
}

impl Server {
    fn breadth(&self) -> u32 {
        self.lfs.len() as u32
    }

    fn lfs_proc(&self, machine_index: LfsIndex) -> ProcId {
        self.lfs[machine_index.index()].0
    }

    fn meta(&mut self, file: BridgeFileId) -> Result<&mut FileMeta, BridgeError> {
        self.files
            .get_mut(&file)
            .ok_or(BridgeError::UnknownFile(file))
    }

    fn dispatch(
        &mut self,
        ctx: &mut Ctx,
        from: ProcId,
        cmd: BridgeCmd,
    ) -> Result<BridgeData, BridgeError> {
        // Buffered appends survive only an unbroken train of SeqWrites to
        // the same file; anything else sees fully flushed state.
        let buffering = matches!(
            (&cmd, &self.pending),
            (BridgeCmd::SeqWrite { file, .. }, Some(p)) if *file == p.file
        );
        if !buffering {
            self.flush_appends(ctx)?;
        }
        match cmd {
            BridgeCmd::Create(spec) => self.create(ctx, spec),
            BridgeCmd::Delete { file } => self.delete(ctx, vec![file]),
            BridgeCmd::DeleteMany { files } => self.delete(ctx, files),
            BridgeCmd::Open { file } => self.open(ctx, from, file),
            BridgeCmd::SeqRead { file } => self.seq_read(ctx, from, file),
            BridgeCmd::SeqWrite { file, data } => self.seq_write(ctx, file, data),
            BridgeCmd::RandRead { file, block } => self.rand_read(ctx, file, block),
            BridgeCmd::RandWrite { file, block, data } => self.rand_write(ctx, file, block, &data),
            BridgeCmd::ParallelOpen { file, workers } => self.parallel_open(from, file, workers),
            BridgeCmd::JobRead { job } => self.job_read(ctx, from, job),
            BridgeCmd::JobWrite { job } => self.job_write(ctx, from, job),
            BridgeCmd::JobClose { job } => {
                let j = self.jobs.remove(&job).ok_or(BridgeError::UnknownJob(job))?;
                if j.controller != from {
                    self.jobs.insert(job, j);
                    return Err(BridgeError::UnknownJob(job));
                }
                Ok(BridgeData::JobClosed)
            }
            BridgeCmd::Rebuild { file } => {
                let size = self.meta(file)?.size;
                self.rebuild_range(ctx, file, 0, size)
            }
            BridgeCmd::RebuildRange { file, first, count } => {
                self.rebuild_range(ctx, file, first, count)
            }
            BridgeCmd::GetInfo => Ok(BridgeData::Info(MachineInfo {
                breadth: self.breadth(),
                lfs: self.lfs.clone(),
                server_node: self.my_node,
                sched: self.sched,
            })),
            BridgeCmd::GetHealth => Ok(BridgeData::Health(Box::new(self.health_snapshot(ctx)))),
            BridgeCmd::GetManifest => Ok(BridgeData::Manifest(self.manifest())),
        }
    }

    /// Assembles the in-band health snapshot. Refreshes the gauges only
    /// the server can compute (lost-column count from the per-LFS
    /// media-lost mirrors, its LFS client's retransmit total) before
    /// delegating to the registry. Unarmed machines answer an empty
    /// snapshot rather than an error, so polling tools need no mode flag.
    fn health_snapshot(&self, ctx: &Ctx) -> HealthSnapshot {
        let Some(reg) = &self.telemetry else {
            return HealthSnapshot::empty(ctx.now());
        };
        let lost = (0..reg.breadth())
            .filter(|&i| reg.lfs(i).with(|l| l.media_lost))
            .count() as u64;
        reg.server().set_columns_lost(lost);
        reg.server().set_lfs_resends(self.client.resends());
        reg.snapshot(ctx.now(), None)
    }

    /// The directory as [`ManifestEntry`] claims plus the decision log's
    /// history, for `pfsck`'s machine-wide pass.
    fn manifest(&self) -> MachineManifest {
        let mut files: Vec<ManifestEntry> = self
            .files
            .iter()
            .map(|(&file, meta)| ManifestEntry {
                file,
                lfs_file: meta.lfs_file,
                companion: meta.companion(file),
                redundancy: meta.redundancy,
                size: meta.size,
                start: match meta.placement.kind() {
                    PlacementKind::RoundRobin { start } => start,
                    _ => 0,
                },
                nodes: meta.nodes.clone(),
            })
            .collect();
        files.sort_by_key(|e| e.file);
        MachineManifest {
            breadth: self.breadth(),
            files,
            decisions: self
                .txlog
                .as_ref()
                .map(|log| log.decisions())
                .unwrap_or_default(),
        }
    }

    /// Pipelines one LFS op per (proc, op) pair and collects results in
    /// order: the server "starts all the LFS operations before waiting for
    /// them".
    fn call_many(
        &mut self,
        ctx: &mut Ctx,
        calls: Vec<(ProcId, LfsOp)>,
    ) -> Vec<Result<LfsData, bridge_efs::EfsError>> {
        let ids: Vec<(ProcId, u64)> = calls
            .into_iter()
            .map(|(proc, op)| (proc, self.client.send(ctx, proc, op)))
            .collect();
        ids.into_iter()
            .map(|(proc, id)| self.client.wait(ctx, proc, id))
            .collect()
    }

    fn create(&mut self, ctx: &mut Ctx, spec: CreateSpec) -> Result<BridgeData, BridgeError> {
        let machine_breadth = self.breadth();
        let nodes: Vec<u32> = match spec.nodes {
            Some(nodes) => {
                for &n in &nodes {
                    if n >= machine_breadth {
                        return Err(BridgeError::BadNodeSet {
                            index: n,
                            breadth: machine_breadth,
                        });
                    }
                }
                if nodes.is_empty() {
                    return Err(BridgeError::BadNodeSet {
                        index: 0,
                        breadth: machine_breadth,
                    });
                }
                nodes
            }
            None => (0..machine_breadth).collect(),
        };
        let breadth = nodes.len() as u32;
        let kind = match spec.placement {
            PlacementSpec::RoundRobin => {
                let start = if self.config.rotate_start {
                    let s = self.next_start % breadth;
                    self.next_start = self.next_start.wrapping_add(1);
                    s
                } else {
                    0
                };
                PlacementKind::RoundRobin { start }
            }
            PlacementSpec::RoundRobinAt { start } => PlacementKind::RoundRobin {
                start: start % breadth,
            },
            PlacementSpec::Chunked => {
                let size = spec.size_hint.ok_or(BridgeError::ChunkingNeedsSize)?;
                if size == 0 {
                    return Err(BridgeError::ChunkingNeedsSize);
                }
                PlacementKind::Chunked {
                    blocks_per_chunk: size.div_ceil(u64::from(breadth)).max(1) as u32,
                }
            }
            PlacementSpec::Hashed { seed } => PlacementKind::Hashed { seed },
            PlacementSpec::Linked => PlacementKind::Linked,
        };

        // A spec that asks for nothing inherits the machine-wide default
        // installed by `BridgeConfig::with_redundancy`.
        let mut redundancy = if spec.redundancy == Redundancy::None {
            self.config.default_redundancy
        } else {
            spec.redundancy
        };
        if redundancy != Redundancy::None {
            if breadth < 2 {
                return Err(BridgeError::RedundancyUnsupported {
                    why: "breadth must be at least 2",
                });
            }
            if !matches!(kind, PlacementKind::RoundRobin { .. }) {
                return Err(BridgeError::RedundancyUnsupported {
                    why: "redundancy requires round-robin placement",
                });
            }
        }
        if let Redundancy::Parity { group } = redundancy {
            // Normalize "whole breadth" and pin the group so the layout
            // is stable even if the machine's shape ever changes.
            let group = if group == 0 { breadth } else { group };
            if group < 2 {
                return Err(BridgeError::RedundancyUnsupported {
                    why: "a parity group needs at least two positions",
                });
            }
            if !breadth.is_multiple_of(group) {
                return Err(BridgeError::RedundancyUnsupported {
                    why: "the parity group must divide the file's breadth",
                });
            }
            redundancy = Redundancy::Parity { group };
        }

        let file = BridgeFileId(self.next_file);
        self.next_file += 1;
        let meta = FileMeta {
            lfs_file: LfsFileId(file.0),
            redundancy,
            linked_locals: vec![0; nodes.len()],
            nodes,
            placement: Placement::new(kind, breadth),
            size: 0,
            head: None,
            tail: None,
            hashed_cache: Vec::new(),
            hashed_cursor: None,
            hints: vec![None; machine_breadth as usize],
        };
        let companion = meta.companion(file);
        match self.config.create_fanout {
            CreateFanout::Serial => {
                // One column per placement node. An unprotected file's
                // create tolerates no failure; a redundant file's create
                // proceeds without a lost column — its (empty)
                // constituent files appear on the spare when a rebuild
                // reaches it.
                let mut files = vec![meta.lfs_file];
                files.extend(companion);
                let columns: Vec<TxParticipant> = meta
                    .nodes
                    .iter()
                    .map(|&n| TxParticipant {
                        node: n,
                        intent: PrepareIntent::CreateFiles(files.clone()),
                    })
                    .collect();
                let tolerant = vec![redundancy != Redundancy::None; columns.len()];
                self.run_txn(ctx, &columns, &tolerant, true)?;
            }
            CreateFanout::Tree => self.create_tree(ctx, &meta.nodes, meta.lfs_file, companion)?,
        }
        self.files.insert(file, meta);
        Ok(BridgeData::Created(file))
    }

    /// Create through the embedded binary tree of per-node agents (the
    /// paper's suggested remedy for serial initiation). A relay topology
    /// with no decision log, so [`BridgeMachine::build_in`](crate::BridgeMachine::build_in)
    /// refuses it under [`Durability::Atomic`](crate::Durability::Atomic).
    fn create_tree(
        &mut self,
        ctx: &mut Ctx,
        nodes: &[u32],
        lfs_file: LfsFileId,
        companion: Option<LfsFileId>,
    ) -> Result<(), BridgeError> {
        assert!(
            !self.agents.is_empty(),
            "tree create requires per-node agents (build the machine with them)"
        );
        let fanout_id = self.next_fanout;
        self.next_fanout += 1;
        let targets: Vec<(ProcId, ProcId)> = nodes
            .iter()
            .map(|&n| (self.agents[n as usize], self.lfs[n as usize].0))
            .collect();
        ctx.delay(self.config.create_init_cpu);
        ctx.send(
            targets[0].0,
            FanoutCreate {
                id: fanout_id,
                lfs_file,
                companion,
                targets,
            },
        );
        let env = ctx.recv_where(move |e| {
            e.downcast_ref::<FanoutAck>()
                .is_some_and(|a| a.id == fanout_id)
        });
        let ack = env.downcast::<FanoutAck>().expect("matched");
        ctx.delay(self.config.create_ack_cpu);
        ack.result
    }

    fn delete(
        &mut self,
        ctx: &mut Ctx,
        files: Vec<BridgeFileId>,
    ) -> Result<BridgeData, BridgeError> {
        // Validate the whole batch before touching anything: an unknown
        // id (or an in-batch duplicate, which the second removal would
        // have reported as unknown) must leave the directory and every
        // LFS exactly as they were. Removing entries up front orphaned
        // the already-processed prefix of the batch and leaked its
        // blocks whenever a later file was unknown or an LFS errored.
        let mut seen: HashSet<BridgeFileId> = HashSet::with_capacity(files.len());
        for &file in &files {
            if !self.files.contains_key(&file) || !seen.insert(file) {
                return Err(BridgeError::UnknownFile(file));
            }
        }
        // "The Delete operation runs in parallel on all instances of the
        // LFS." One column per (file, node), file-major, so a batch
        // discards a whole generation of intermediates in one parallel
        // wave. A redundant file's column on a failed node is already
        // lost; deleting the rest must still succeed.
        let mut columns = Vec::new();
        let mut tolerant = Vec::new();
        for &file in &files {
            let meta = &self.files[&file];
            let mut names = vec![meta.lfs_file];
            names.extend(meta.companion(file));
            for &n in &meta.nodes {
                columns.push(TxParticipant {
                    node: n,
                    intent: PrepareIntent::DeleteFiles(names.clone()),
                });
                tolerant.push(meta.redundancy != Redundancy::None);
            }
        }
        let (blocks, _) = self.run_txn(ctx, &columns, &tolerant, false)?;
        // Only a fully successful fan-out retires the metadata; on error
        // the directory still names every file, so a client can retry.
        for &file in &files {
            self.files.remove(&file);
            self.cursors.retain(|&(_, f), _| f != file);
            self.jobs.retain(|_, j| j.file != file);
        }
        Ok(BridgeData::Deleted { blocks })
    }

    /// The coordinator: commits one multi-instance mutation given as its
    /// columns — in the order the paper's fan-out reaches them — and
    /// whether each may be lost (its node failed, its disk was lost, or
    /// it sits on an unrebuilt spare) without failing the mutation.
    /// `create_costs` charges the paper's serial initiation CPU per
    /// column and completion CPU per LFS reply.
    ///
    /// This is the only code that looks at the durability mode. With a
    /// decision log every column prepares and the decision is logged and
    /// fanned out ([`Self::two_phase`]). Without one the transaction
    /// degenerates: phase 1 sends each intent's direct LFS ops, and the
    /// prepare round carries the decision — no BEGIN, no COMMIT, no
    /// phase 2 ([`Self::one_phase`]).
    ///
    /// Returns the blocks freed and the number of lost columns carried —
    /// redundant writes use the count to tell a degraded-but-landed
    /// write from one that landed nowhere.
    fn run_txn(
        &mut self,
        ctx: &mut Ctx,
        columns: &[TxParticipant],
        tolerant: &[bool],
        create_costs: bool,
    ) -> Result<(u64, u32), BridgeError> {
        if self.txlog.is_none() {
            return self.one_phase(ctx, columns, tolerant, create_costs);
        }
        // Creates and writes already name each node once, in fan-out order.
        if !columns
            .iter()
            .all(|c| matches!(c.intent, PrepareIntent::DeleteFiles(_)))
        {
            return self.two_phase(ctx, columns, tolerant, create_costs);
        }
        let (participants, tolerant) = one_prepare_per_node(columns, tolerant);
        self.two_phase(ctx, &participants, &tolerant, create_costs)
    }

    /// The degenerate transaction: every column's direct ops (one LFS
    /// Create, Delete or Write per file it names) are started before any
    /// is waited for — the server "starts all the LFS operations before
    /// waiting for them" — and their replies are the outcome. Nothing is
    /// logged and nothing can be undone: a vetoed mutation may have
    /// landed on some columns.
    fn one_phase(
        &mut self,
        ctx: &mut Ctx,
        columns: &[TxParticipant],
        tolerant: &[bool],
        create_costs: bool,
    ) -> Result<(u64, u32), BridgeError> {
        let mut pending = Vec::with_capacity(columns.len());
        for (i, column) in columns.iter().enumerate() {
            if create_costs {
                ctx.delay(self.config.create_init_cpu);
            }
            let proc = self.lfs[column.node as usize].0;
            for op in self.direct_ops(column) {
                pending.push((i, proc, self.client.send(ctx, proc, op)));
            }
        }
        let mut freed = 0u64;
        let mut lost = vec![false; columns.len()];
        let mut veto: Option<EfsError> = None;
        for (i, proc, id) in pending {
            let reply = self.client.wait(ctx, proc, id);
            if create_costs {
                ctx.delay(self.config.create_ack_cpu);
            }
            match reply {
                Ok(LfsData::Freed(n)) => freed += u64::from(n),
                Ok(LfsData::Written { addr }) => {
                    if let Some(hint) = self.primary_hint(&columns[i]) {
                        *hint = Some(addr);
                    }
                }
                Ok(_) => {}
                Err(e) if tolerant[i] && column_lost(&e) => lost[i] = true,
                Err(e) => veto = veto.or(Some(e)),
            }
        }
        match veto {
            Some(e) => Err(BridgeError::Lfs(e)),
            None => Ok((freed, lost.iter().filter(|&&l| l).count() as u32)),
        }
    }

    /// A column's intent as plain LFS ops. A write to a primary column
    /// carries the file's disk-address hint, as a naive write does.
    fn direct_ops(&mut self, column: &TxParticipant) -> Vec<LfsOp> {
        match &column.intent {
            PrepareIntent::CreateFiles(files) => {
                files.iter().map(|&file| LfsOp::Create { file }).collect()
            }
            PrepareIntent::DeleteFiles(files) => {
                files.iter().map(|&file| LfsOp::Delete { file }).collect()
            }
            PrepareIntent::WriteBlock {
                file,
                block_no,
                payload,
            } => vec![LfsOp::Write {
                file: *file,
                block: *block_no,
                data: payload.clone(),
                hint: self.primary_hint(column).and_then(|hint| *hint),
            }],
        }
    }

    /// The disk-address hint slot of a column that is a Bridge file's
    /// primary column on its node; `None` for companion columns, whose
    /// ids carry a marker bit and name no Bridge file.
    fn primary_hint(&mut self, column: &TxParticipant) -> Option<&mut Option<BlockAddr>> {
        let file = BridgeFileId(column.intent.files()[0].0);
        let meta = self.files.get_mut(&file)?;
        Some(&mut meta.hints[column.node as usize])
    }

    /// One presumed-abort two-phase commit round over `participants`
    /// (at most one per node).
    ///
    /// The wire protocol: PREPAREs are pipelined to every participant,
    /// the BEGIN record (txn + participants) is forced to the decision
    /// log while they are in flight, votes are collected in order, the
    /// COMMIT record is forced, and the decision is fanned out. The
    /// server's only elementary disk writes are the two log forces, so a
    /// crash schedule against [`parsim::SERVER_DISK`] kills the
    /// coordinator at exactly those two points per transaction:
    ///
    /// * killed on BEGIN — participants hold durable PREPAREs with no
    ///   decision on record. Recovery presumes abort, drives the logged
    ///   participants' rollback, and re-executes with a fresh txn.
    /// * killed on COMMIT — the decision is durable. Recovery redoes
    ///   phase 2 from the log; participants apply it idempotently.
    ///
    /// A no-vote (any hard error, or `NodeFailed` where `tolerant` is
    /// false) aborts without writing anything: no decision record is the
    /// abort record. After a durable COMMIT nothing fails the operation
    /// short of corruption — a participant dead at decision time is
    /// repaired later from the logged decision (`pfsck`'s machine pass).
    ///
    /// `create_costs` charges the paper's serial initiation/termination
    /// CPU per participant, making a 2PC Create cost-comparable to the
    /// one-phase fan-out; the decision round is charged nothing — with
    /// pipelined fan-out and group commit at the participants it is the
    /// prepare round's cheap echo. Returns the blocks freed by the
    /// commit (zero for creates and aborts) and the number of tolerated
    /// lost columns — participants whose vote came back `NodeFailed` (or
    /// `UnknownFile`, a freshly formatted spare not yet rebuilt) and were
    /// carried anyway.
    fn two_phase(
        &mut self,
        ctx: &mut Ctx,
        participants: &[TxParticipant],
        tolerant: &[bool],
        create_costs: bool,
    ) -> Result<(u64, u32), BridgeError> {
        'retry: loop {
            let txn = self.next_txn;
            self.next_txn += 1;
            if let Some(reg) = &self.telemetry {
                reg.server().note_txn_begun();
            }
            // Phase 1: pipeline a PREPARE to every participant.
            let mut pending = Vec::with_capacity(participants.len());
            for p in participants {
                if create_costs {
                    ctx.delay(self.config.create_init_cpu);
                }
                let proc = self.lfs[p.node as usize].0;
                let id = self.client.send(
                    ctx,
                    proc,
                    LfsOp::Prepare {
                        txn,
                        intent: p.intent.clone(),
                    },
                );
                pending.push((proc, id));
            }
            // Force BEGIN while the prepares are in flight, so a kill on
            // this write leaves exactly the in-doubt window the protocol
            // must survive: durable PREPAREs, no decision.
            let txlog = self.txlog.as_mut().expect("two_phase requires a log");
            txlog.begin(ctx, txn, participants);
            if txlog.crash_down().is_some() {
                let committed = self.server_crash_recover(ctx, txn, &pending)?;
                if let Some(reg) = &self.telemetry {
                    reg.server().note_txn_decided(committed);
                }
                if committed {
                    // The redo path cannot recount votes; report every
                    // column landed — the logged decision repairs any
                    // that were lost.
                    return self
                        .decide_all(ctx, txn, true, participants)
                        .map(|f| (f, 0));
                }
                continue 'retry;
            }
            // Collect votes in order (the serial termination of Create).
            let mut veto: Option<EfsError> = None;
            let mut lost = 0u32;
            for (i, &(proc, id)) in pending.iter().enumerate() {
                let vote = self.client.wait(ctx, proc, id);
                if create_costs {
                    ctx.delay(self.config.create_ack_cpu);
                }
                match vote {
                    Ok(_) => {}
                    // A tolerant participant's column is already lost
                    // with its node (or sits on a spare that has not been
                    // rebuilt yet); the transaction proceeds without it —
                    // the decision is still sent, and its failure ack is
                    // tolerated there too.
                    Err(e) if tolerant[i] && column_lost(&e) => lost += 1,
                    Err(e) => veto = veto.or(Some(e)),
                }
            }
            if let Some(e) = veto {
                // Presumed abort: no log write. Participants that never
                // prepared (the vetoer included) apply the abort intent
                // idempotently as a no-op.
                if let Some(reg) = &self.telemetry {
                    reg.server().note_txn_decided(false);
                }
                self.decide_all(ctx, txn, false, participants)?;
                return Err(BridgeError::Lfs(e));
            }
            // The commit point.
            let txlog = self.txlog.as_mut().expect("checked");
            txlog.commit(ctx, txn);
            if txlog.crash_down().is_some() && !self.server_crash_recover(ctx, txn, &[])? {
                unreachable!("a forced COMMIT record cannot be lost");
            }
            if let Some(reg) = &self.telemetry {
                reg.server().note_txn_decided(true);
            }
            // Phase 2: fan the decision out.
            return self
                .decide_all(ctx, txn, true, participants)
                .map(|f| (f, lost));
        }
    }

    /// Fans `commit`/abort for `txn` out to every participant (pipelined)
    /// and collects acknowledgements, returning the blocks they freed.
    /// `NodeFailed` is tolerated: before the commit point the participant
    /// never prepared or is already being abandoned; after it, the logged
    /// decision repairs the column when the node returns (or `pfsck`
    /// does). Hard errors are corruption and surface after every ack has
    /// been consumed, so no acknowledgement is left orphaned in flight.
    fn decide_all(
        &mut self,
        ctx: &mut Ctx,
        txn: u64,
        commit: bool,
        participants: &[TxParticipant],
    ) -> Result<u64, BridgeError> {
        let mut pending = Vec::with_capacity(participants.len());
        for p in participants {
            let proc = self.lfs[p.node as usize].0;
            let id = self.client.send(
                ctx,
                proc,
                LfsOp::Decide {
                    txn,
                    commit,
                    intent: p.intent.clone(),
                },
            );
            pending.push((proc, id));
        }
        let mut freed = 0u64;
        let mut hard: Option<EfsError> = None;
        for (proc, id) in pending {
            match self.client.wait(ctx, proc, id) {
                Ok(LfsData::Freed(n)) => freed += u64::from(n),
                Ok(_) => {}
                // `UnknownFile` here is a column on a freshly formatted
                // spare: the decision has nothing to apply to until a
                // rebuild repopulates the instance.
                Err(e) if column_lost(&e) => {
                    if ctx.trace_enabled() {
                        ctx.trace_instant("2pc", "2pc.decide_lost", &[("txn", txn)]);
                    }
                }
                Err(e) => hard = hard.or(Some(e)),
            }
        }
        match hard {
            Some(e) => Err(BridgeError::Lfs(e)),
            None => Ok(freed),
        }
    }

    /// Inline fail-stop recovery for the coordinator, entered when a
    /// decision-log force finds the server's disk dead: the crash
    /// schedule killed this node on that (durable) write. The server's
    /// volatile state is gone, so it forgets its in-flight LFS calls,
    /// stays silent for the scheduled down window, discards everything
    /// that arrived meanwhile (clients retransmit; vote replies died
    /// with the old incarnation), revives the log, and applies presumed
    /// abort: the at-most-one in-doubt transaction — the serial
    /// coordinator never overlaps two — is aborted at the participants
    /// named by its own BEGIN record. Returns whether `txn` has a
    /// durable COMMIT, i.e. whether the caller must redo phase 2 instead
    /// of re-executing.
    fn server_crash_recover(
        &mut self,
        ctx: &mut Ctx,
        txn: u64,
        pending: &[(ProcId, u64)],
    ) -> Result<bool, BridgeError> {
        let down = self
            .txlog
            .as_ref()
            .expect("recovering a log")
            .crash_down()
            .expect("called on a dead log");
        if ctx.trace_enabled() {
            ctx.trace_instant(
                "fault",
                "crash.server",
                &[("txn", txn), ("down", down.as_nanos())],
            );
        }
        for &(_, id) in pending {
            self.client.forget(id);
        }
        ctx.delay(down);
        // Everything delivered while the node was down is lost.
        while ctx.recv_timeout(SimDuration::ZERO).is_some() {}
        let txlog = self.txlog.as_mut().expect("checked");
        txlog.revive();
        txlog.reseat();
        if let Some(d) = txlog.in_doubt() {
            // Presumed abort: no decision on record means abort. Driving
            // the rollback now (rather than waiting for participants to
            // ask) keeps the client-visible retry path simple: by the
            // time the operation re-executes, every column is rolled
            // back and acknowledged.
            if let Some(reg) = &self.telemetry {
                reg.record_event(ctx.now(), HealthEvent::TxnInDoubt { txn: d.txn });
            }
            if ctx.trace_enabled() {
                ctx.trace_instant("2pc", "2pc.presume_abort", &[("txn", d.txn)]);
            }
            let resolved = d.txn;
            self.decide_all(ctx, resolved, false, &d.participants)?;
            if let Some(reg) = &self.telemetry {
                reg.record_event(
                    ctx.now(),
                    HealthEvent::TxnResolved {
                        txn: resolved,
                        committed: false,
                    },
                );
            }
        }
        Ok(self.txlog.as_ref().expect("checked").is_committed(txn))
    }

    fn open(
        &mut self,
        ctx: &mut Ctx,
        from: ProcId,
        file: BridgeFileId,
    ) -> Result<BridgeData, BridgeError> {
        let node_indexes: Vec<u32> = self.meta(file)?.nodes.clone();
        let lfs_procs: Vec<ProcId> = node_indexes
            .iter()
            .map(|&n| self.lfs[n as usize].0)
            .collect();
        let lfs_file = self.files[&file].lfs_file;
        let calls: Vec<(ProcId, LfsOp)> = lfs_procs
            .iter()
            .map(|&p| (p, LfsOp::Stat { file: lfs_file }))
            .collect();
        let stats = self.call_many(ctx, calls);

        let meta = self.files.get_mut(&file).expect("checked above");
        let mut size = 0u64;
        let mut slices = Vec::with_capacity(meta.nodes.len());
        let mut failures = 0u32;
        for ((&n, proc), stat) in meta.nodes.iter().zip(lfs_procs).zip(stats) {
            match stat {
                Ok(LfsData::Info(info)) => {
                    size += u64::from(info.size);
                    if let Some(first) = info.first {
                        meta.hints[n as usize].get_or_insert(first);
                    }
                    slices.push(LfsSlice {
                        index: LfsIndex(n),
                        proc,
                        node: self.lfs[n as usize].1,
                        local_size: info.size,
                    });
                }
                Err(ref e) if meta.redundancy != Redundancy::None && column_lost(e) => {
                    // Degraded open: report the column as empty and trust
                    // the directory's cached size below.
                    failures += 1;
                    slices.push(LfsSlice {
                        index: LfsIndex(n),
                        proc,
                        node: self.lfs[n as usize].1,
                        local_size: 0,
                    });
                }
                Ok(_) | Err(_) => {
                    return Err(BridgeError::Corrupt(format!(
                        "stat of {lfs_file} failed during open"
                    )))
                }
            }
        }
        // Open refreshes the directory's size from the LFS level: tools may
        // have grown the file behind the server's back. With a failed node
        // the sum is incomplete, so the cached size stands.
        if failures == 0 {
            meta.size = size;
        }
        let size = meta.size;
        self.cursors.insert((from, file), Cursor::default());
        Ok(BridgeData::Opened(OpenInfo {
            file,
            size,
            placement: meta.placement.kind(),
            redundancy: meta.redundancy,
            nodes: slices,
            lfs_file,
            head: meta.head,
            tail: meta.tail,
        }))
    }

    /// Reads one strictly placed block and validates its Bridge header.
    fn read_at(
        &mut self,
        ctx: &mut Ctx,
        file: BridgeFileId,
        block: u64,
        ptr: GlobalPtr,
    ) -> Result<(BridgeHeader, Bytes, BlockAddr), BridgeError> {
        let lfs_file = self.files[&file].lfs_file;
        let hint = self.files[&file].hints[ptr.lfs.index()];
        let proc = self.lfs_proc(ptr.lfs);
        let data = self
            .client
            .call(
                ctx,
                proc,
                LfsOp::Read {
                    file: lfs_file,
                    block: ptr.local,
                    hint,
                },
            )
            .map_err(BridgeError::Lfs)?;
        let (payload, addr) = match data {
            LfsData::Block { data, addr } => (data, addr),
            other => {
                return Err(BridgeError::Corrupt(format!(
                    "unexpected LFS reply {other:?}"
                )))
            }
        };
        let (header, body) = decode_payload(&payload)?;
        if header.file != file || header.global_block != block {
            return Err(BridgeError::Corrupt(format!(
                "expected {file} block {block} at {ptr}, found {} block {}",
                header.file, header.global_block
            )));
        }
        self.files.get_mut(&file).expect("exists").hints[ptr.lfs.index()] = Some(addr);
        Ok((header, body, addr))
    }

    /// Writes one block (overwrite or append at the LFS level).
    fn write_at(
        &mut self,
        ctx: &mut Ctx,
        file: BridgeFileId,
        ptr: GlobalPtr,
        header: &BridgeHeader,
        data: &[u8],
    ) -> Result<BlockAddr, BridgeError> {
        let lfs_file = self.files[&file].lfs_file;
        let hint = self.files[&file].hints[ptr.lfs.index()];
        let proc = self.lfs_proc(ptr.lfs);
        let payload = encode_payload(header, data);
        let reply = self
            .client
            .call(
                ctx,
                proc,
                LfsOp::Write {
                    file: lfs_file,
                    block: ptr.local,
                    data: payload.into(),
                    hint,
                },
            )
            .map_err(BridgeError::Lfs)?;
        match reply {
            LfsData::Written { addr } => {
                self.files.get_mut(&file).expect("exists").hints[ptr.lfs.index()] = Some(addr);
                Ok(addr)
            }
            other => Err(BridgeError::Corrupt(format!(
                "unexpected LFS reply {other:?}"
            ))),
        }
    }

    /// Low-level: reads one raw EFS payload from an arbitrary LFS file
    /// (mirror/parity companions, stripe peers), without Bridge-header
    /// validation.
    fn lfs_read_payload(
        &mut self,
        ctx: &mut Ctx,
        machine: LfsIndex,
        lfs_file: LfsFileId,
        local: u32,
    ) -> Result<Bytes, BridgeError> {
        let proc = self.lfs_proc(machine);
        match self
            .client
            .call(
                ctx,
                proc,
                LfsOp::Read {
                    file: lfs_file,
                    block: local,
                    hint: None,
                },
            )
            .map_err(BridgeError::Lfs)?
        {
            LfsData::Block { data, .. } => Ok(data),
            other => Err(BridgeError::Corrupt(format!(
                "unexpected LFS reply {other:?}"
            ))),
        }
    }

    /// Low-level: writes one raw EFS payload to an arbitrary LFS file.
    fn lfs_write_payload(
        &mut self,
        ctx: &mut Ctx,
        machine: LfsIndex,
        lfs_file: LfsFileId,
        local: u32,
        payload: Bytes,
    ) -> Result<(), BridgeError> {
        let proc = self.lfs_proc(machine);
        match self
            .client
            .call(
                ctx,
                proc,
                LfsOp::Write {
                    file: lfs_file,
                    block: local,
                    data: payload,
                    hint: None,
                },
            )
            .map_err(BridgeError::Lfs)?
        {
            LfsData::Written { .. } => Ok(()),
            other => Err(BridgeError::Corrupt(format!(
                "unexpected LFS reply {other:?}"
            ))),
        }
    }

    /// Redundancy-aware read of a strictly placed block: primary first,
    /// then the mirror copy or a parity reconstruction if the primary's
    /// node has failed.
    fn read_block(
        &mut self,
        ctx: &mut Ctx,
        file: BridgeFileId,
        block: u64,
    ) -> Result<(BridgeHeader, Bytes), BridgeError> {
        let meta = self
            .files
            .get_mut(&file)
            .ok_or(BridgeError::UnknownFile(file))?;
        let redundancy = meta.redundancy;
        let pos = meta.locate_pos(block)?;
        let ptr = meta.to_machine(pos);
        match self.read_at(ctx, file, block, ptr) {
            Ok((header, body, _)) => Ok((header, body)),
            Err(BridgeError::Lfs(e)) if column_lost(&e) => {
                if redundancy == Redundancy::None {
                    return Err(BridgeError::Lfs(e));
                }
                if let Some(reg) = &self.telemetry {
                    // Journal only the onset — the first degraded read —
                    // so a long outage cannot flood the event ring.
                    if reg.server().snapshot().degraded_reads == 0 {
                        reg.record_event(
                            ctx.now(),
                            HealthEvent::DegradedOnset {
                                lfs: ptr.lfs.0,
                                file: u64::from(file.0),
                            },
                        );
                    }
                    reg.server().note_degraded_read();
                }
                if ctx.trace_enabled() {
                    ctx.trace_instant(
                        "redundancy",
                        "redundancy.degraded_read",
                        &[("file", u64::from(file.0)), ("block", block)],
                    );
                }
                let payload = match redundancy {
                    Redundancy::None => unreachable!("returned above"),
                    Redundancy::Mirror => {
                        let meta = self.files.get_mut(&file).expect("exists");
                        let m = meta.to_machine(meta.mirror_pos(pos));
                        self.lfs_read_payload(ctx, m.lfs, LfsFileId(file.0 | MIRROR_BIT), m.local)?
                    }
                    Redundancy::Parity { .. } => self.reconstruct_payload(ctx, file, block)?.into(),
                };
                let (header, body) = decode_payload(&payload)?;
                if header.file != file || header.global_block != block {
                    return Err(BridgeError::Corrupt(format!(
                        "degraded read recovered {} block {} instead of {file} block {block}",
                        header.file, header.global_block
                    )));
                }
                Ok((header, body))
            }
            Err(e) => Err(e),
        }
    }

    /// Rebuilds a lost data block's payload from its stripe peers and the
    /// stripe's parity block.
    fn reconstruct_payload(
        &mut self,
        ctx: &mut Ctx,
        file: BridgeFileId,
        block: u64,
    ) -> Result<Vec<u8>, BridgeError> {
        let (layout, size, lfs_file) = {
            let meta = self.files.get_mut(&file).expect("exists");
            (meta.parity_layout(), meta.size, meta.lfs_file)
        };
        let stripe = layout.stripe_of(block);
        let parity_pos = GlobalPtr {
            lfs: LfsIndex(layout.parity_position(stripe)),
            local: layout.parity_local(stripe),
        };
        let parity_machine = self.files[&file].to_machine(parity_pos);
        let mut acc = self
            .lfs_read_payload(
                ctx,
                parity_machine.lfs,
                LfsFileId(file.0 | PARITY_BIT),
                parity_machine.local,
            )?
            .to_vec();
        for peer in layout.stripe_peers(block, size) {
            let pos = layout.locate(peer);
            let machine = self.files[&file].to_machine(pos);
            let payload = self.lfs_read_payload(ctx, machine.lfs, lfs_file, machine.local)?;
            xor_into(&mut acc, &payload);
        }
        Ok(acc)
    }

    /// Redundancy-aware write of a strictly placed block: an append when
    /// `block == size`, an overwrite otherwise. `size_after` is the file
    /// size once the write lands (for the circular header pointers).
    fn write_block(
        &mut self,
        ctx: &mut Ctx,
        file: BridgeFileId,
        block: u64,
        data: &[u8],
        size_after: u64,
    ) -> Result<(), BridgeError> {
        let header = self.strict_header(file, block, size_after)?;
        let payload: Bytes = encode_payload(&header, data).into();
        let (redundancy, pos, size) = {
            let meta = self.files.get_mut(&file).expect("exists");
            (meta.redundancy, meta.locate_pos(block)?, meta.size)
        };
        let ptr = self.files[&file].to_machine(pos);
        match redundancy {
            Redundancy::None => {
                self.write_at(ctx, file, ptr, &header, data)?;
            }
            Redundancy::Mirror => {
                let lfs_file = self.files[&file].lfs_file;
                let m = {
                    let meta = self.files.get_mut(&file).expect("exists");
                    meta.to_machine(meta.mirror_pos(pos))
                };
                let columns = vec![
                    TxParticipant {
                        node: ptr.lfs.0,
                        intent: PrepareIntent::WriteBlock {
                            file: lfs_file,
                            block_no: ptr.local,
                            payload: payload.clone(),
                        },
                    },
                    TxParticipant {
                        node: m.lfs.0,
                        intent: PrepareIntent::WriteBlock {
                            file: LfsFileId(file.0 | MIRROR_BIT),
                            block_no: m.local,
                            payload,
                        },
                    },
                ];
                self.redundant_write(ctx, &columns)?;
            }
            Redundancy::Parity { .. } => {
                self.parity_write(ctx, file, block, ptr, payload, size)?;
            }
        }
        Ok(())
    }

    /// Writes a data block and its mirror or parity companion as one
    /// transaction — under [`Durability::Atomic`](crate::Durability::Atomic)
    /// a crash at any point leaves both updated or both untouched, never
    /// a stale companion behind an updated primary. Lost columns (failed
    /// node, lost disk, unrebuilt spare) are tolerated; a write that
    /// would land on no column at all fails instead.
    fn redundant_write(
        &mut self,
        ctx: &mut Ctx,
        columns: &[TxParticipant],
    ) -> Result<(), BridgeError> {
        let tolerant = vec![true; columns.len()];
        let (_, lost) = self.run_txn(ctx, columns, &tolerant, false)?;
        if lost as usize >= columns.len() {
            return Err(BridgeError::Lfs(EfsError::NodeFailed));
        }
        Ok(())
    }

    /// Parity-mode write: the data block plus the stripe's parity block —
    /// the classic small-write penalty. The parity read-modify-write
    /// happens *before* the transaction (the single-threaded server is
    /// the only writer, so the values read cannot go stale, and an abort
    /// leaves them valid for the retry); then data and parity are written
    /// as one transaction. A lost parity column leaves the data written
    /// degraded — a rebuild recomputes the parity later.
    fn parity_write(
        &mut self,
        ctx: &mut Ctx,
        file: BridgeFileId,
        block: u64,
        ptr: GlobalPtr,
        payload: Bytes,
        size: u64,
    ) -> Result<(), BridgeError> {
        let (layout, lfs_file) = {
            let meta = self.files.get_mut(&file).expect("exists");
            (meta.parity_layout(), meta.lfs_file)
        };
        let stripe = layout.stripe_of(block);
        let j = block % layout.stripe_width();
        let parity_pos = GlobalPtr {
            lfs: LfsIndex(layout.parity_position(stripe)),
            local: layout.parity_local(stripe),
        };
        let m = self.files[&file].to_machine(parity_pos);
        let parity_file = LfsFileId(file.0 | PARITY_BIT);
        let overwrite = block < size;
        let new_parity: Option<Bytes> = if !overwrite && j == 0 {
            // First member of a fresh stripe: parity = payload.
            Some(payload.clone())
        } else {
            match self.lfs_read_payload(ctx, m.lfs, parity_file, m.local) {
                Ok(p) => {
                    let mut acc = p.to_vec();
                    if overwrite {
                        // parity ^= old ^ new (old reconstructed if the
                        // data column itself is lost).
                        let old = self.data_payload(ctx, file, block)?;
                        xor_into(&mut acc, &old);
                    }
                    xor_into(&mut acc, &payload);
                    Some(acc.into())
                }
                Err(BridgeError::Lfs(e)) if column_lost(&e) => None,
                Err(e) => return Err(e),
            }
        };
        let mut columns = vec![TxParticipant {
            node: ptr.lfs.0,
            intent: PrepareIntent::WriteBlock {
                file: lfs_file,
                block_no: ptr.local,
                payload,
            },
        }];
        if let Some(parity) = new_parity {
            columns.push(TxParticipant {
                node: m.lfs.0,
                intent: PrepareIntent::WriteBlock {
                    file: parity_file,
                    block_no: m.local,
                    payload: parity,
                },
            });
        }
        self.redundant_write(ctx, &columns)
    }

    /// Repairs global blocks `[first, first + count)` (clipped at the
    /// file size) of a redundant file after node failures: every data
    /// block, mirror copy, and parity block of a stripe the range touches
    /// is checked against its recoverable value and rewritten if missing
    /// or stale. Blocks are visited in global order, so repaired locals
    /// land as ordinary appends — which is also why a chunked rebuild of
    /// a freshly installed spare must walk ranges front to back.
    fn rebuild_range(
        &mut self,
        ctx: &mut Ctx,
        file: BridgeFileId,
        first: u64,
        count: u64,
    ) -> Result<BridgeData, BridgeError> {
        let (redundancy, size, lfs_file) = {
            let meta = self.meta(file)?;
            (meta.redundancy, meta.size, meta.lfs_file)
        };
        if redundancy == Redundancy::None {
            return Err(BridgeError::RedundancyUnsupported {
                why: "rebuild applies only to redundant files",
            });
        }
        let first = first.min(size);
        let end = first.saturating_add(count).min(size);
        if let Some(reg) = &self.telemetry {
            if first == 0 {
                reg.server().note_rebuild_start(size);
                reg.record_event(
                    ctx.now(),
                    HealthEvent::RebuildStart {
                        file: u64::from(file.0),
                        total: size,
                    },
                );
            }
        }
        // A freshly installed spare holds no files at all: recreate this
        // file's columns there before repairing, so the repair writes
        // below land as ordinary appends instead of `UnknownFile`.
        self.ensure_columns(ctx, file)?;
        // Under `Runs(d)`, pool the canonical primary reads into per-LFS
        // runs up front; blocks whose run fails (a lost node) fall back to
        // the per-block recovery path below. Repairs only touch blocks
        // absent from this map, so prefetching cannot go stale.
        let mut prefetched: HashMap<u64, Bytes> = HashMap::new();
        if self.config.batch.depth() > 1 && end > first {
            let mut ptrs = Vec::with_capacity((end - first) as usize);
            for block in first..end {
                let meta = self.files.get_mut(&file).expect("exists");
                let pos = meta.locate_pos(block)?;
                ptrs.push((block, meta.to_machine(pos)));
            }
            let runs = plan_runs(&ptrs, self.config.batch.depth());
            let mut pending = Vec::with_capacity(runs.len());
            for run in &runs {
                let proc = self.lfs_proc(run.lfs);
                let id = self.client.send(
                    ctx,
                    proc,
                    LfsOp::ReadRun {
                        file: lfs_file,
                        first: run.first,
                        count: run.globals.len() as u32,
                        hint: None,
                    },
                );
                pending.push((proc, id));
            }
            for (run, (proc, id)) in runs.iter().zip(pending) {
                if let Ok(LfsData::Run { blocks }) = self.client.wait(ctx, proc, id) {
                    if blocks.len() == run.globals.len() {
                        for (&g, (payload, _)) in run.globals.iter().zip(blocks) {
                            prefetched.insert(g, payload);
                        }
                    }
                }
            }
        }
        let mut repaired = 0u64;
        for block in first..end {
            let (pos, ptr) = {
                let meta = self.files.get_mut(&file).expect("exists");
                let pos = meta.locate_pos(block)?;
                (pos, meta.to_machine(pos))
            };
            // Canonical payload: primary if intact, else recovered.
            let payload = match prefetched
                .remove(&block)
                .ok_or(())
                .or_else(|()| self.lfs_read_payload(ctx, ptr.lfs, lfs_file, ptr.local))
            {
                Ok(p) => p,
                Err(_) => {
                    let p = match redundancy {
                        Redundancy::Mirror => {
                            let meta = self.files.get_mut(&file).expect("exists");
                            let m = meta.to_machine(meta.mirror_pos(pos));
                            self.lfs_read_payload(
                                ctx,
                                m.lfs,
                                LfsFileId(file.0 | MIRROR_BIT),
                                m.local,
                            )?
                        }
                        Redundancy::Parity { .. } => {
                            self.reconstruct_payload(ctx, file, block)?.into()
                        }
                        Redundancy::None => unreachable!("checked above"),
                    };
                    self.lfs_write_payload(ctx, ptr.lfs, lfs_file, ptr.local, p.clone())?;
                    repaired += 1;
                    p
                }
            };
            if redundancy == Redundancy::Mirror {
                let m = {
                    let meta = self.files.get_mut(&file).expect("exists");
                    meta.to_machine(meta.mirror_pos(pos))
                };
                let mirror_file = LfsFileId(file.0 | MIRROR_BIT);
                let stale = match self.lfs_read_payload(ctx, m.lfs, mirror_file, m.local) {
                    Ok(p) => p != payload,
                    Err(_) => true,
                };
                if stale {
                    self.lfs_write_payload(ctx, m.lfs, mirror_file, m.local, payload)?;
                    repaired += 1;
                }
            }
        }
        if matches!(redundancy, Redundancy::Parity { .. }) && end > first {
            // Recompute the parity of every stripe the range touches —
            // except a stripe spilling past a chunk boundary, whose tail
            // blocks a spare may not hold yet; the next (front-to-back)
            // chunk covers that stripe once its tail is repaired.
            let layout = self.files[&file].parity_layout();
            let stripes = layout.stripe_of(first)..layout.stripe_of(end - 1) + 1;
            let parity_file = LfsFileId(file.0 | PARITY_BIT);
            for stripe in stripes {
                let start = stripe * layout.stripe_width();
                let hi = ((stripe + 1) * layout.stripe_width()).min(size);
                if hi > end {
                    continue;
                }
                let end = hi;
                let mut expected = Vec::new();
                for block in start..end {
                    let p = self.data_payload(ctx, file, block)?;
                    xor_into(&mut expected, &p);
                }
                let ppos = GlobalPtr {
                    lfs: LfsIndex(layout.parity_position(stripe)),
                    local: layout.parity_local(stripe),
                };
                let m = self.files[&file].to_machine(ppos);
                let stale = match self.lfs_read_payload(ctx, m.lfs, parity_file, m.local) {
                    Ok(p) => p != expected,
                    Err(_) => true,
                };
                if stale {
                    self.lfs_write_payload(ctx, m.lfs, parity_file, m.local, expected.into())?;
                    repaired += 1;
                }
            }
        }
        if let Some(reg) = &self.telemetry {
            reg.server().note_rebuild_progress(end, size);
            reg.record_event(
                ctx.now(),
                HealthEvent::RebuildChunk {
                    file: u64::from(file.0),
                    chunk: first,
                    done: end,
                    total: size,
                },
            );
            if end >= size {
                reg.server().note_rebuild_done();
                reg.record_event(
                    ctx.now(),
                    HealthEvent::RebuildDone {
                        file: u64::from(file.0),
                        total: size,
                    },
                );
            }
        }
        if ctx.trace_enabled() {
            ctx.trace_instant(
                "redundancy",
                "redundancy.rebuild_progress",
                &[
                    ("file", u64::from(file.0)),
                    ("done", end),
                    ("total", size),
                    ("repaired", repaired),
                ],
            );
        }
        Ok(BridgeData::Rebuilt { repaired })
    }

    /// Stats every column of `file` (and its companion) and recreates the
    /// LFS files missing on otherwise healthy nodes — the state of a
    /// freshly installed spare. Nodes that are down still fail rebuild:
    /// repair needs somewhere to write.
    fn ensure_columns(&mut self, ctx: &mut Ctx, file: BridgeFileId) -> Result<(), BridgeError> {
        let (nodes, lfs_file, companion) = {
            let meta = self.files.get_mut(&file).expect("exists");
            (meta.nodes.clone(), meta.lfs_file, meta.companion(file))
        };
        let mut names = vec![lfs_file];
        names.extend(companion);
        let mut targets: Vec<(ProcId, LfsFileId)> = Vec::new();
        for &n in &nodes {
            for &name in &names {
                targets.push((self.lfs[n as usize].0, name));
            }
        }
        let calls = targets
            .iter()
            .map(|&(proc, name)| (proc, LfsOp::Stat { file: name }))
            .collect();
        let mut creates: Vec<(ProcId, LfsOp)> = Vec::new();
        for (&(proc, name), stat) in targets.iter().zip(self.call_many(ctx, calls)) {
            match stat {
                Ok(_) => {}
                Err(EfsError::UnknownFile(_)) => creates.push((proc, LfsOp::Create { file: name })),
                Err(e) => return Err(BridgeError::Lfs(e)),
            }
        }
        for r in self.call_many(ctx, creates) {
            r.map_err(BridgeError::Lfs)?;
        }
        Ok(())
    }

    /// A data block's raw payload, reconstructed from parity if its
    /// column is gone.
    fn data_payload(
        &mut self,
        ctx: &mut Ctx,
        file: BridgeFileId,
        block: u64,
    ) -> Result<Bytes, BridgeError> {
        let (ptr, lfs_file) = {
            let meta = self.files.get_mut(&file).expect("exists");
            let pos = meta.locate_pos(block)?;
            (meta.to_machine(pos), meta.lfs_file)
        };
        match self.lfs_read_payload(ctx, ptr.lfs, lfs_file, ptr.local) {
            Ok(p) => Ok(p),
            Err(BridgeError::Lfs(e)) if column_lost(&e) => {
                self.reconstruct_payload(ctx, file, block).map(Bytes::from)
            }
            Err(e) => Err(e),
        }
    }
    fn strict_header(
        &mut self,
        file: BridgeFileId,
        block: u64,
        size_after: u64,
    ) -> Result<BridgeHeader, BridgeError> {
        let breadth = self.files[&file].placement.breadth();
        let meta = self.files.get_mut(&file).expect("exists");
        let next = meta.locate(block + 1)?;
        let prev = if block == 0 {
            meta.locate(size_after.saturating_sub(1))? // wraps to the tail
        } else {
            meta.locate(block - 1)?
        };
        Ok(BridgeHeader {
            file,
            global_block: block,
            breadth,
            next,
            prev,
        })
    }

    fn seq_read(
        &mut self,
        ctx: &mut Ctx,
        from: ProcId,
        file: BridgeFileId,
    ) -> Result<BridgeData, BridgeError> {
        let size = self.meta(file)?.size;
        let cursor = self.cursors.entry((from, file)).or_default();
        if let Some(body) = cursor.prefetch.pop_front() {
            cursor.next_block += 1;
            return Ok(BridgeData::Block(body));
        }
        let block = cursor.next_block;
        let linked_pos = cursor.linked_pos;
        if block >= size {
            return Ok(BridgeData::Eof);
        }
        let is_linked = matches!(self.files[&file].placement.kind(), PlacementKind::Linked);
        let depth = self.config.batch.depth();
        if depth > 1 && !is_linked {
            // Batched path: fetch up to `depth` consecutive globals as
            // per-LFS runs, answer with the first, stash the rest.
            let count = u64::from(depth).min(size - block);
            let mut bodies = self.read_range(ctx, file, block, count)?;
            let first = bodies.pop_front().expect("count >= 1");
            let cursor = self.cursors.entry((from, file)).or_default();
            cursor.next_block = block + 1;
            cursor.prefetch = bodies;
            return Ok(BridgeData::Block(first));
        }
        let (header, body, pos) = if is_linked {
            let pos = match linked_pos {
                Some(p) => p,
                None if block == 0 => self.files[&file]
                    .head
                    .ok_or_else(|| BridgeError::Corrupt("linked file has no head".into()))?,
                None => self.linked_walk(ctx, file, block)?,
            };
            let (h, b, _) = self.read_at(ctx, file, block, pos)?;
            (h, b, pos)
        } else {
            let (h, b) = self.read_block(ctx, file, block)?;
            // `pos` is only consulted for linked files below.
            (h, b, GlobalPtr::default())
        };
        let cursor = self.cursors.entry((from, file)).or_default();
        cursor.next_block = block + 1;
        // A tail block's forward pointer is a provisional self-pointer until
        // the next append fixes it; never cache that as a cursor position.
        cursor.linked_pos = (is_linked && header.next != pos).then_some(header.next);
        Ok(BridgeData::Block(body))
    }

    fn rand_read(
        &mut self,
        ctx: &mut Ctx,
        file: BridgeFileId,
        block: u64,
    ) -> Result<BridgeData, BridgeError> {
        let meta = self.meta(file)?;
        let size = meta.size;
        if block >= size {
            return Err(BridgeError::BlockOutOfRange { file, block, size });
        }
        if matches!(meta.placement.kind(), PlacementKind::Linked) {
            let ptr = self.linked_walk(ctx, file, block)?;
            let (_, body, _) = self.read_at(ctx, file, block, ptr)?;
            Ok(BridgeData::Block(body))
        } else {
            let (_, body) = self.read_block(ctx, file, block)?;
            Ok(BridgeData::Block(body))
        }
    }

    /// Reads `count` consecutive strictly placed globals starting at
    /// `block` as per-LFS `ReadRun`s, recovering block by block through
    /// the redundancy path when a run's node has failed. Returns bodies in
    /// global order.
    fn read_range(
        &mut self,
        ctx: &mut Ctx,
        file: BridgeFileId,
        block: u64,
        count: u64,
    ) -> Result<VecDeque<Bytes>, BridgeError> {
        let lfs_file = self.files[&file].lfs_file;
        let mut ptrs = Vec::with_capacity(count as usize);
        for i in 0..count {
            let ptr = self
                .files
                .get_mut(&file)
                .expect("exists")
                .locate(block + i)?;
            ptrs.push((block + i, ptr));
        }
        let runs = plan_runs(&ptrs, self.config.batch.depth());
        let mut pending = Vec::with_capacity(runs.len());
        for run in &runs {
            let hint = self.files[&file].hints[run.lfs.index()];
            let proc = self.lfs_proc(run.lfs);
            let id = self.client.send(
                ctx,
                proc,
                LfsOp::ReadRun {
                    file: lfs_file,
                    first: run.first,
                    count: run.globals.len() as u32,
                    hint,
                },
            );
            pending.push((proc, id));
        }
        let mut out: HashMap<u64, Bytes> = HashMap::with_capacity(count as usize);
        for (run, (proc, id)) in runs.iter().zip(pending) {
            match self.client.wait(ctx, proc, id) {
                Ok(LfsData::Run { blocks }) => {
                    if blocks.len() != run.globals.len() {
                        return Err(BridgeError::Corrupt(format!(
                            "run of {} blocks answered with {}",
                            run.globals.len(),
                            blocks.len()
                        )));
                    }
                    for (&global, (payload, addr)) in run.globals.iter().zip(blocks) {
                        let (header, body) = decode_payload(&payload)?;
                        if header.file != file || header.global_block != global {
                            return Err(BridgeError::Corrupt(format!(
                                "expected {file} block {global}, found {} block {}",
                                header.file, header.global_block
                            )));
                        }
                        self.files.get_mut(&file).expect("exists").hints[run.lfs.index()] =
                            Some(addr);
                        out.insert(global, body);
                    }
                }
                Ok(other) => {
                    return Err(BridgeError::Corrupt(format!(
                        "unexpected LFS reply {other:?}"
                    )))
                }
                // A lost column fails its whole run; recover block by
                // block (mirror/parity), as the unbatched path would.
                Err(ref e) if column_lost(e) => {
                    for &global in &run.globals {
                        let (_, body) = self.read_block(ctx, file, global)?;
                        out.insert(global, body);
                    }
                }
                Err(e) => return Err(BridgeError::Lfs(e)),
            }
        }
        Ok((0..count)
            .map(|i| out.remove(&(block + i)).expect("all globals resolved"))
            .collect())
    }

    /// Appends `payloads` as globals `size..size + n` in per-LFS
    /// `WriteRun`s (strictly placed, non-redundant files only).
    fn write_range(
        &mut self,
        ctx: &mut Ctx,
        file: BridgeFileId,
        payloads: &[Bytes],
    ) -> Result<(), BridgeError> {
        let (size, lfs_file) = {
            let meta = self.meta(file)?;
            (meta.size, meta.lfs_file)
        };
        let size_after = size + payloads.len() as u64;
        let mut ptrs = Vec::with_capacity(payloads.len());
        for i in 0..payloads.len() as u64 {
            let ptr = self
                .files
                .get_mut(&file)
                .expect("exists")
                .locate(size + i)?;
            ptrs.push((size + i, ptr));
        }
        let runs = plan_runs(&ptrs, self.config.batch.depth());
        let mut pending = Vec::with_capacity(runs.len());
        for run in &runs {
            let mut data = Vec::with_capacity(run.globals.len());
            for &global in &run.globals {
                let header = self.strict_header(file, global, size_after)?;
                let body = &payloads[(global - size) as usize];
                data.push(Bytes::from(encode_payload(&header, body)));
            }
            let hint = self.files[&file].hints[run.lfs.index()];
            let proc = self.lfs_proc(run.lfs);
            let id = self.client.send(
                ctx,
                proc,
                LfsOp::WriteRun {
                    file: lfs_file,
                    first: run.first,
                    data,
                    hint,
                },
            );
            pending.push((proc, id));
        }
        for (run, (proc, id)) in runs.iter().zip(pending) {
            match self.client.wait(ctx, proc, id).map_err(BridgeError::Lfs)? {
                LfsData::WrittenRun { addrs } => {
                    if let Some(&addr) = addrs.last() {
                        self.files.get_mut(&file).expect("exists").hints[run.lfs.index()] =
                            Some(addr);
                    }
                }
                other => {
                    return Err(BridgeError::Corrupt(format!(
                        "unexpected LFS reply {other:?}"
                    )))
                }
            }
        }
        self.files.get_mut(&file).expect("exists").size = size_after;
        Ok(())
    }

    /// Appends one block: immediately, or — under [`BatchPolicy::Runs`],
    /// for strictly placed non-redundant files — into the server's append
    /// buffer, acknowledged at once and flushed as per-LFS `WriteRun`s.
    fn seq_write(
        &mut self,
        ctx: &mut Ctx,
        file: BridgeFileId,
        data: Bytes,
    ) -> Result<BridgeData, BridgeError> {
        let depth = self.config.batch.depth();
        if depth > 1 {
            let (plain, size) = {
                let meta = self.meta(file)?;
                (
                    meta.redundancy == Redundancy::None
                        && !matches!(meta.placement.kind(), PlacementKind::Linked),
                    meta.size,
                )
            };
            if plain {
                if data.len() > BRIDGE_DATA {
                    return Err(BridgeError::DataTooLarge {
                        provided: data.len(),
                    });
                }
                let pending = self.pending.get_or_insert_with(|| PendingAppends {
                    file,
                    payloads: Vec::new(),
                });
                pending.payloads.push(data);
                let block = size + pending.payloads.len() as u64 - 1;
                if pending.payloads.len() as u32 >= depth {
                    self.flush_appends(ctx)?;
                }
                return Ok(BridgeData::Written { block });
            }
        }
        self.append(ctx, file, &data)
            .map(|block| BridgeData::Written { block })
    }

    /// Flushes the buffered append train, if any.
    fn flush_appends(&mut self, ctx: &mut Ctx) -> Result<(), BridgeError> {
        let Some(PendingAppends { file, payloads }) = self.pending.take() else {
            return Ok(());
        };
        self.write_range(ctx, file, &payloads)
    }

    /// Forgets batched read-ahead for `file` (called before overwrites;
    /// appends and value-preserving repairs cannot stale it).
    fn drop_prefetch(&mut self, file: BridgeFileId) {
        for ((_, f), cursor) in self.cursors.iter_mut() {
            if *f == file {
                cursor.prefetch.clear();
            }
        }
    }

    /// Appends one block, returning its global number.
    fn append(
        &mut self,
        ctx: &mut Ctx,
        file: BridgeFileId,
        data: &[u8],
    ) -> Result<u64, BridgeError> {
        if data.len() > BRIDGE_DATA {
            return Err(BridgeError::DataTooLarge {
                provided: data.len(),
            });
        }
        let meta = self.meta(file)?;
        let block = meta.size;
        if matches!(meta.placement.kind(), PlacementKind::Linked) {
            self.append_linked(ctx, file, block, data)?;
        } else {
            self.write_block(ctx, file, block, data, block + 1)?;
        }
        self.files.get_mut(&file).expect("exists").size = block + 1;
        Ok(block)
    }

    /// Linked append: scatter to a pseudo-random node, then fix the old
    /// tail's forward pointer (an extra read-modify-write — the price of
    /// disorder).
    fn append_linked(
        &mut self,
        ctx: &mut Ctx,
        file: BridgeFileId,
        block: u64,
        data: &[u8],
    ) -> Result<(), BridgeError> {
        let (ptr, breadth, old_tail) = {
            let meta = self.files.get_mut(&file).expect("exists");
            // Deterministic scatter: a hash of (file, block) picks the
            // position; the local block is that column's next slot.
            let pos = {
                let mut z = u64::from(file.0) << 32 | block;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                (z ^ (z >> 31)) % meta.nodes.len() as u64
            } as usize;
            let local = meta.linked_locals[pos];
            meta.linked_locals[pos] += 1;
            let ptr = GlobalPtr {
                lfs: LfsIndex(meta.nodes[pos]),
                local,
            };
            (ptr, meta.placement.breadth(), meta.tail)
        };

        let header = BridgeHeader {
            file,
            global_block: block,
            breadth,
            next: ptr, // provisional self-pointer; fixed when block+1 arrives
            prev: old_tail.unwrap_or(ptr),
        };
        self.write_at(ctx, file, ptr, &header, data)?;

        if let Some(tail) = old_tail {
            // Read-modify-write the old tail to point at the new block.
            let (tail_header, tail_body, _) = self.read_at(ctx, file, block - 1, tail)?;
            let fixed = BridgeHeader {
                next: ptr,
                ..tail_header
            };
            self.write_at(ctx, file, tail, &fixed, &tail_body)?;
        } else {
            self.files.get_mut(&file).expect("exists").head = Some(ptr);
        }
        self.files.get_mut(&file).expect("exists").tail = Some(ptr);
        Ok(())
    }

    /// Walks a linked file's chain to `block`. O(distance) LFS reads — the
    /// "very slow random access" the paper concedes for disordered files.
    fn linked_walk(
        &mut self,
        ctx: &mut Ctx,
        file: BridgeFileId,
        block: u64,
    ) -> Result<GlobalPtr, BridgeError> {
        let meta = &self.files[&file];
        let size = meta.size;
        let (mut at, mut pos, forward) = if block <= size / 2 {
            (
                0u64,
                meta.head
                    .ok_or_else(|| BridgeError::Corrupt("linked file has no head".into()))?,
                true,
            )
        } else {
            (
                size - 1,
                meta.tail
                    .ok_or_else(|| BridgeError::Corrupt("linked file has no tail".into()))?,
                false,
            )
        };
        while at != block {
            let (header, _, _) = self.read_at(ctx, file, at, pos)?;
            if forward {
                pos = header.next;
                at += 1;
            } else {
                pos = header.prev;
                at -= 1;
            }
        }
        Ok(pos)
    }

    fn rand_write(
        &mut self,
        ctx: &mut Ctx,
        file: BridgeFileId,
        block: u64,
        data: &[u8],
    ) -> Result<BridgeData, BridgeError> {
        if data.len() > BRIDGE_DATA {
            return Err(BridgeError::DataTooLarge {
                provided: data.len(),
            });
        }
        self.drop_prefetch(file);
        let meta = self.meta(file)?;
        let size = meta.size;
        if block == size {
            // Writing one past the end is an append.
            let block = self.append(ctx, file, data)?;
            return Ok(BridgeData::Written { block });
        }
        if block > size {
            return Err(BridgeError::BlockOutOfRange { file, block, size });
        }
        if matches!(meta.placement.kind(), PlacementKind::Linked) {
            let ptr = self.linked_walk(ctx, file, block)?;
            let (header, _, _) = self.read_at(ctx, file, block, ptr)?;
            self.write_at(ctx, file, ptr, &header, data)?;
        } else {
            self.write_block(ctx, file, block, data, size)?;
        }
        Ok(BridgeData::Written { block })
    }

    fn parallel_open(
        &mut self,
        from: ProcId,
        file: BridgeFileId,
        workers: Vec<ProcId>,
    ) -> Result<BridgeData, BridgeError> {
        if workers.is_empty() {
            return Err(BridgeError::EmptyWorkerList);
        }
        let meta = self.meta(file)?;
        if matches!(meta.placement.kind(), PlacementKind::Linked) {
            return Err(BridgeError::LinkedUnsupported {
                op: "parallel open",
            });
        }
        let job = JobId(self.next_job);
        self.next_job += 1;
        self.jobs.insert(
            job,
            Job {
                file,
                controller: from,
                workers,
                cursor: 0,
            },
        );
        Ok(BridgeData::JobOpened(job))
    }

    fn job_of(&self, from: ProcId, job: JobId) -> Result<&Job, BridgeError> {
        match self.jobs.get(&job) {
            Some(j) if j.controller == from => Ok(j),
            _ => Err(BridgeError::UnknownJob(job)),
        }
    }

    /// One lock-step read round: deliver the next `t` blocks, one to each
    /// worker, in waves of at most `p` pipelined LFS reads ("the server
    /// will perform groups of p disk accesses in parallel until the
    /// high-level request is satisfied").
    fn job_read(
        &mut self,
        ctx: &mut Ctx,
        from: ProcId,
        job_id: JobId,
    ) -> Result<BridgeData, BridgeError> {
        let (file, workers, cursor) = {
            let job = self.job_of(from, job_id)?;
            (job.file, job.workers.clone(), job.cursor)
        };
        let (size, lfs_file, breadth) = {
            let meta = self.meta(file)?;
            (meta.size, meta.lfs_file, meta.placement.breadth())
        };
        let t = workers.len() as u64;
        let count = t.min(size.saturating_sub(cursor));

        if self.config.batch.depth() > 1 && count > 0 {
            // Batched round: the whole round's blocks become one run per
            // LFS (each node's share of `t` consecutive globals has
            // consecutive locals), pipelined together.
            let bodies = self.read_range(ctx, file, cursor, count)?;
            for (i, body) in bodies.into_iter().enumerate() {
                let block = cursor + i as u64;
                ctx.send_sized(
                    workers[i],
                    JobDeliver {
                        job: job_id,
                        block,
                        data: Some(body),
                    },
                    1024,
                );
            }
        } else {
            let mut delivered = 0u64;
            while delivered < count {
                let wave = (count - delivered).min(u64::from(breadth));
                // Pipeline up to p reads.
                let mut pending = Vec::with_capacity(wave as usize);
                for i in 0..wave {
                    let block = cursor + delivered + i;
                    let ptr = self.files.get_mut(&file).expect("exists").locate(block)?;
                    let hint = self.files[&file].hints[ptr.lfs.index()];
                    let proc = self.lfs_proc(ptr.lfs);
                    let id = self.client.send(
                        ctx,
                        proc,
                        LfsOp::Read {
                            file: lfs_file,
                            block: ptr.local,
                            hint,
                        },
                    );
                    pending.push((proc, id, block, ptr));
                }
                for (proc, id, block, ptr) in pending {
                    let body = match self.client.wait(ctx, proc, id) {
                        Ok(LfsData::Block { data, addr }) => {
                            let (header, body) = decode_payload(&data)?;
                            if header.file != file || header.global_block != block {
                                return Err(BridgeError::Corrupt(format!(
                                    "expected {file} block {block}, found {} block {}",
                                    header.file, header.global_block
                                )));
                            }
                            self.files.get_mut(&file).expect("exists").hints[ptr.lfs.index()] =
                                Some(addr);
                            body
                        }
                        Ok(other) => {
                            return Err(BridgeError::Corrupt(format!(
                                "unexpected LFS reply {other:?}"
                            )))
                        }
                        // Degraded read: recover through the redundancy path.
                        Err(ref e) if column_lost(e) => self.read_block(ctx, file, block)?.1,
                        Err(e) => return Err(BridgeError::Lfs(e)),
                    };
                    let worker = workers[(block - cursor) as usize];
                    ctx.send_sized(
                        worker,
                        JobDeliver {
                            job: job_id,
                            block,
                            data: Some(body),
                        },
                        1024,
                    );
                }
                delivered += wave;
            }
        }
        // Lock step: workers beyond the data get an explicit empty round.
        for w in &workers[count as usize..] {
            ctx.send(
                *w,
                JobDeliver {
                    job: job_id,
                    block: 0,
                    data: None,
                },
            );
        }
        let job = self.jobs.get_mut(&job_id).expect("validated");
        job.cursor += count;
        let eof = job.cursor >= size;
        Ok(BridgeData::JobReadDone {
            delivered: count as u32,
            eof,
        })
    }

    /// One lock-step write round: collect one block from every worker,
    /// then append the contiguous prefix in waves of `p`.
    fn job_write(
        &mut self,
        ctx: &mut Ctx,
        from: ProcId,
        job_id: JobId,
    ) -> Result<BridgeData, BridgeError> {
        let (file, workers) = {
            let job = self.job_of(from, job_id)?;
            (job.file, job.workers.clone())
        };
        let size = self.meta(file)?.size;

        // Poll every worker (requests are small; pipelining them all is
        // harmless — the disk waves below are the real lock step).
        for (i, w) in workers.iter().enumerate() {
            ctx.send(
                *w,
                JobRequest {
                    job: job_id,
                    block: size + i as u64,
                },
            );
        }
        let mut supplies: Vec<Option<Bytes>> = vec![None; workers.len()];
        let mut received = vec![false; workers.len()];
        for _ in 0..workers.len() {
            let env = ctx.recv_where(|e| {
                e.downcast_ref::<JobSupply>()
                    .is_some_and(|s| s.job == job_id)
            });
            let from_worker = env.from();
            let supply = env.downcast::<JobSupply>().expect("matched");
            let idx = supply
                .block
                .checked_sub(size)
                .map(|i| i as usize)
                .filter(|&i| i < workers.len() && workers[i] == from_worker && !received[i])
                .ok_or(BridgeError::UnknownJob(job_id))?;
            received[idx] = true;
            supplies[idx] = supply.data;
        }

        // The accepted prefix ends at the first None.
        let accepted = supplies
            .iter()
            .position(Option::is_none)
            .unwrap_or(supplies.len());
        if supplies[accepted..].iter().any(Option::is_some) {
            return Err(BridgeError::WriteGap { job: job_id });
        }
        for data in supplies.iter().take(accepted) {
            let data = data.as_ref().expect("prefix is Some");
            if data.len() > BRIDGE_DATA {
                return Err(BridgeError::DataTooLarge {
                    provided: data.len(),
                });
            }
        }

        // Redundant files append one block at a time (each write carries a
        // parity or mirror companion that must not interleave).
        if self.meta(file)?.redundancy != Redundancy::None {
            for (k, data) in supplies.iter().take(accepted).enumerate() {
                let data = data.as_ref().expect("prefix is Some");
                let block = size + k as u64;
                self.write_block(ctx, file, block, data, size + accepted as u64)?;
                self.files.get_mut(&file).expect("exists").size = block + 1;
            }
            return Ok(BridgeData::JobWritten {
                accepted: accepted as u32,
            });
        }

        if self.config.batch.depth() > 1 && accepted > 0 {
            // Batched round: the accepted prefix becomes one `WriteRun`
            // per LFS, pipelined together.
            let prefix: Vec<Bytes> = supplies
                .iter()
                .take(accepted)
                .map(|d| d.clone().expect("prefix is Some"))
                .collect();
            self.write_range(ctx, file, &prefix)?;
            return Ok(BridgeData::JobWritten {
                accepted: accepted as u32,
            });
        }

        // Append the prefix in waves of p pipelined writes.
        let breadth = self.meta(file)?.placement.breadth() as usize;
        let mut written = 0usize;
        while written < accepted {
            let wave = (accepted - written).min(breadth);
            let mut pending = Vec::with_capacity(wave);
            for i in 0..wave {
                let block = size + (written + i) as u64;
                let ptr = self.files.get_mut(&file).expect("exists").locate(block)?;
                let header = self.strict_header(file, block, size + accepted as u64)?;
                let data = supplies[written + i].as_ref().expect("prefix");
                let payload = encode_payload(&header, data);
                let lfs_file = self.files[&file].lfs_file;
                let hint = self.files[&file].hints[ptr.lfs.index()];
                let proc = self.lfs_proc(ptr.lfs);
                let id = self.client.send(
                    ctx,
                    proc,
                    LfsOp::Write {
                        file: lfs_file,
                        block: ptr.local,
                        data: payload.into(),
                        hint,
                    },
                );
                pending.push((proc, id, ptr));
            }
            for (proc, id, ptr) in pending {
                match self.client.wait(ctx, proc, id).map_err(BridgeError::Lfs)? {
                    LfsData::Written { addr } => {
                        self.files.get_mut(&file).expect("exists").hints[ptr.lfs.index()] =
                            Some(addr);
                    }
                    other => {
                        return Err(BridgeError::Corrupt(format!(
                            "unexpected LFS reply {other:?}"
                        )))
                    }
                }
            }
            written += wave;
        }
        self.files.get_mut(&file).expect("exists").size = size + accepted as u64;
        Ok(BridgeData::JobWritten {
            accepted: accepted as u32,
        })
    }
}
