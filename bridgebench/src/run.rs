//! The runner: set-up, the measured phase, and (with tracing) the
//! per-layer run, turned into named metrics.
//!
//! The measured phase repeats set-up (build the machine, load the input)
//! and the workload's round until `seconds` of wall time have passed;
//! host metrics are medians over set-ups and rounds, virtual metrics come
//! from round 0, which depends on the seed alone.
//!
//! The traced run adds a second machine built with a trace collector. It
//! loads the same input and replays round 0, and must reproduce the
//! untraced round's virtual record and the kernel's `RunStats` bit for
//! bit (the trace on/off oracle). Per-layer numbers come from that round:
//! kernel counters, telemetry registry deltas, `LfsOp::DiskStats`
//! (reconciled against the registry), the benchmark's own spans, and the
//! causal profiler's critical path.

use crate::critical;
use crate::measure::{
    median, peak_rss_mb, release_freed_memory, thread_cpu_nanos, time_cost, Clock, Percentiles,
};
use crate::workload::{Checks, Class, Round, RoundVirt, Workload};
use bridge_core::{BridgeConfig, BridgeMachine, HealthSnapshot};
use bridge_efs::{Efs, LfsClient, LfsData, LfsOp};
use bridge_trace::{Breakdown, Category, TraceCollector, TraceData};
use parsim::{RunStats, SimDuration, SimTime, Simulation};
use simdisk::{DiskStats, SimDisk};
use std::cell::Cell;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// The live-telemetry sampler interval (`bridgetop`'s default).
pub const SAMPLER_INTERVAL: SimDuration = SimDuration::from_millis(20);

/// How long and how often to measure.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Wall time the measured phase (set-ups and rounds) lasts at least.
    pub seconds: f64,
    /// Also make the traced run and report per-layer metrics.
    pub trace: bool,
    /// Also check the traced round's critical path against
    /// `bridge_trace::profile`'s own walk, which is slow on a full-size
    /// round.
    pub check_profile: bool,
}

/// One named number with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Stable metric name.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit; virtual-clock quantities use `virt_s` / `virt_ms`.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What a run measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Output checks over set-up and every round.
    pub checks: Checks,
    /// Oracle violations (traced run diverged, counters disagree, ...).
    pub violations: Vec<String>,
    /// The end-to-end metrics (tracing off).
    pub end_to_end: Vec<Metric>,
    /// The per-layer metrics (empty unless traced).
    pub per_layer: Vec<Metric>,
    /// Human-readable context lines (clock, sample counts, rounds).
    pub notes: Vec<String>,
    /// Round 0's virtual record.
    pub reference: RoundVirt,
    /// Kernel counters after round 0.
    pub reference_stats: RunStats,
    /// Whether the critical path was checked against the profiler's.
    pub profile_checked: bool,
}

impl Outcome {
    /// Whether every output check passed and every oracle held.
    pub fn correct(&self) -> bool {
        self.checks.failed == 0 && self.violations.is_empty()
    }
}

/// Frames the sampler fired and on-CPU nanoseconds spent inside it.
#[derive(Debug, Default)]
struct SamplerLedger {
    frames: Cell<u64>,
    host_nanos: Cell<u64>,
}

/// Installs the telemetry sampler: every [`SAMPLER_INTERVAL`] of virtual
/// time it assembles a full health snapshot, as the dashboard does. With
/// `timed`, the hook brackets its own work with the thread CPU clock.
fn install_sampler(
    sim: &mut Simulation,
    machine: &BridgeMachine,
    timed: bool,
) -> Rc<SamplerLedger> {
    let registry = machine
        .telemetry
        .clone()
        .expect("sampled workloads run with telemetry armed");
    let ledger = Rc::new(SamplerLedger::default());
    let mine = Rc::clone(&ledger);
    sim.set_sampler(SAMPLER_INTERVAL, move |at, stats| {
        let t0 = timed.then(thread_cpu_nanos).flatten();
        std::hint::black_box(registry.snapshot(at, Some(*stats)));
        if let Some(spent) = t0.and_then(|t0| Some(thread_cpu_nanos()? - t0)) {
            mine.host_nanos.set(mine.host_nanos.get() + spent);
        }
        mine.frames.set(mine.frames.get() + 1);
    });
    ledger
}

/// A built and loaded machine.
struct Setup {
    sim: Simulation,
    machine: BridgeMachine,
}

/// Builds `config` and loads the workload's input, timing both.
fn set_up(
    w: &mut dyn Workload,
    config: &BridgeConfig,
    clock: Clock,
    checks: &mut Checks,
) -> (Setup, f64, f64) {
    let ((mut sim, machine), build_s) = time_cost(clock, || BridgeMachine::build(config));
    let (loaded, load_s) = time_cost(clock, || w.load(&mut sim, &machine));
    checks.add(loaded);
    (Setup { sim, machine }, build_s, load_s)
}

/// Runs `w` per `cfg`.
pub fn run(w: &mut dyn Workload, cfg: &RunConfig) -> Outcome {
    let clock = Clock::detect();
    let config = w.config();
    let mut checks = Checks::default();
    let mut notes = vec![format!("host clock: {}", clock.label())];

    // Layer probes first, so their disks are freed before any set-up.
    let probes = cfg.trace.then(|| probe_build(&config, clock));
    release_freed_memory();

    // The measured phase. Every round runs on a freshly built and loaded
    // machine: rounds leave state behind (appended blocks, exited
    // processes) that makes later rounds on the same machine dearer, and a
    // faster host would run more of them.
    let wall0 = Instant::now();
    let budget = Duration::from_secs_f64(cfg.seconds);
    let (mut build_s, mut load_s) = (Vec::new(), Vec::new());
    let mut rounds: Vec<Round> = Vec::new();
    let mut hosts = Vec::new();
    let mut reference_stats = None;
    let mut peak_rss = None;
    let mut round_events = 0;
    while rounds.is_empty() || wall0.elapsed() < budget {
        let r = rounds.len() as u64;
        release_freed_memory();
        let (mut setup, build, load) = set_up(w, &config, clock, &mut checks);
        build_s.push(build);
        load_s.push(load);
        if w.sampled() {
            install_sampler(&mut setup.sim, &setup.machine, false);
        }
        let Setup { sim, machine } = &mut setup;
        let events0 = sim.stats().events;
        let (round, host) = time_cost(clock, || play(w, sim, machine, clock, r, |_| {}));
        reference_stats.get_or_insert_with(|| sim.stats());
        // The peak over set-up and round 0 only: fixed work, whatever the
        // number of rounds.
        peak_rss.get_or_insert_with(|| peak_rss_mb().unwrap_or(0.0));
        round_events += sim.stats().events - events0;
        checks.add(round.virt.checks);
        hosts.push(host);
        rounds.push(round);
    }
    let reference_stats = reference_stats.expect("one round ran");
    release_freed_memory();
    let setup_s: Vec<f64> = build_s.iter().zip(&load_s).map(|(b, l)| b + l).collect();
    let reference = rounds[0].virt.clone();
    let host_cpu_s = median(&hosts);
    let each: Vec<String> = build_s
        .iter()
        .zip(&load_s)
        .map(|(b, l)| format!("{b:.3}+{l:.3}"))
        .collect();
    notes.push(format!("set-up s (build+load): {}", each.join(", ")));
    let each: Vec<String> = hosts.iter().map(|h| format!("{h:.3}")).collect();
    notes.push(format!(
        "{} rounds in {:.1} s wall, host s each: {}",
        rounds.len(),
        wall0.elapsed().as_secs_f64(),
        each.join(", ")
    ));

    let all = Percentiles::new(reference.latencies.all());
    notes.push(format!(
        "round 0: {} latency samples, {} beyond p99.9",
        all.count(),
        all.beyond(0.999)
    ));
    let end_to_end = vec![
        metric("setup_s", median(&setup_s), "s"),
        metric("host_cpu_s", host_cpu_s, "s"),
        metric("peak_rss_mb", peak_rss.expect("one round ran"), "MiB"),
        metric(
            "virt_ops_per_s",
            ratio(reference.work as f64 * 1e9, reference.work_nanos as f64),
            "1/virt_s",
        ),
        metric("virt_p50_ms", all.quantile_ms(0.50), "virt_ms"),
        metric("virt_p99_ms", all.quantile_ms(0.99), "virt_ms"),
        metric("virt_p999_ms", all.quantile_ms(0.999), "virt_ms"),
    ];

    let mut outcome = Outcome {
        checks,
        violations: Vec::new(),
        end_to_end,
        per_layer: Vec::new(),
        notes,
        reference,
        reference_stats,
        profile_checked: false,
    };
    if let Some((simdisk_new_s, efs_format_s)) = probes {
        let host = HostLedger {
            build_machine_s: median(&build_s),
            build_load_s: median(&load_s),
            simdisk_new_s,
            efs_format_s,
            round0_s: hosts[0],
            ns_per_event: ratio(hosts.iter().sum::<f64>() * 1e9, round_events as f64),
            tool_s: median(&rounds.iter().map(|r| r.tool_host_s).collect::<Vec<_>>()),
        };
        outcome.per_layer = traced_round(w, &config, clock, &host, cfg.check_profile, &mut outcome);
    }
    outcome
}

/// Runs round `r`, counting the kernel messages its timed requests
/// deliver; `at_requests` also runs where the request phase begins.
fn play(
    w: &mut dyn Workload,
    sim: &mut Simulation,
    machine: &BridgeMachine,
    clock: Clock,
    r: u64,
    mut at_requests: impl FnMut(&mut Simulation),
) -> Round {
    let mut messages0 = None;
    let mut round = w.round(sim, machine, clock, r, &mut |sim| {
        messages0 = Some(sim.stats().messages);
        at_requests(sim);
    });
    round.virt.request_messages = messages0.map_or(0, |m| sim.stats().messages - m);
    round
}

/// Host costs gathered before the traced round.
struct HostLedger {
    build_machine_s: f64,
    build_load_s: f64,
    simdisk_new_s: f64,
    efs_format_s: f64,
    /// Untraced round 0, the traced round's like-for-like baseline.
    round0_s: f64,
    ns_per_event: f64,
    tool_s: f64,
}

/// `a / b`, or zero when `b` is zero.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Times the machine's two heaviest build steps on their own: p + 1
/// `SimDisk::new` calls with the configured geometry, then `Efs::format`
/// on each of those disks.
fn probe_build(config: &BridgeConfig, clock: Clock) -> (f64, f64) {
    let n = config.breadth as usize + 1;
    let (disks, new_s) = time_cost(clock, || {
        (0..n)
            .map(|_| SimDisk::new(config.disk_geometry, config.disk_profile))
            .collect::<Vec<_>>()
    });
    let (formatted, format_s) = time_cost(clock, || {
        disks
            .into_iter()
            .map(|d| Efs::format(d, config.efs))
            .collect::<Vec<_>>()
    });
    drop(std::hint::black_box(formatted));
    (new_s, format_s)
}

/// Builds a traced machine, replays round 0 on it, checks the oracle,
/// and derives the per-layer metrics.
fn traced_round(
    w: &mut dyn Workload,
    config: &BridgeConfig,
    clock: Clock,
    host: &HostLedger,
    check_profile: bool,
    outcome: &mut Outcome,
) -> Vec<Metric> {
    let collector = TraceCollector::install();
    let mut traced = config.clone();
    traced.tracer = Some(collector.as_tracer());
    let (Setup { mut sim, machine }, _, _) = set_up(w, &traced, clock, &mut outcome.checks);
    let ledger = w
        .sampled()
        .then(|| install_sampler(&mut sim, &machine, true));
    drop(collector.take()); // set-up spans: the window opens at round 0
    let registry = machine.telemetry.clone().expect("telemetry is armed");
    let t0 = sim.now();
    let before = registry.snapshot(t0, None);
    let stats0 = sim.stats();
    // The tool phase's trace is taken where the requests begin: each
    // phase is driven from the host, so the profiler walks each alone.
    let mut tool_phase = (TraceData::default(), t0);
    let (round, traced_host) = time_cost(clock, || {
        play(w, &mut sim, &machine, clock, 0, |sim| {
            tool_phase = (collector.take(), sim.now());
        })
    });
    let request_phase = (collector.take(), tool_phase.1, sim.now());
    let stats1 = sim.stats();
    let after = registry.snapshot(sim.now(), Some(stats1));
    outcome.checks.add(round.virt.checks);

    if stats1 != outcome.reference_stats {
        outcome.violations.push(format!(
            "traced RunStats differ from untraced: {stats1:?} vs {:?}",
            outcome.reference_stats
        ));
    }
    if round.virt != outcome.reference {
        outcome
            .violations
            .push("traced round 0 differs from untraced round 0 on the virtual clock".into());
    }
    reconcile_disks(&mut sim, &machine, &after, &mut outcome.violations);
    drop(sim);
    release_freed_memory();

    let v = &round.virt;
    let mut m = vec![
        metric("build.machine_s", host.build_machine_s, "s"),
        metric("build.simdisk_new_s", host.simdisk_new_s, "s"),
        metric("build.efs_format_s", host.efs_format_s, "s"),
        metric("build.load_s", host.build_load_s, "s"),
    ];

    for (name, value) in [
        ("events", stats1.events - stats0.events),
        ("dispatches", stats1.dispatches - stats0.dispatches),
        ("messages", stats1.messages - stats0.messages),
        ("bytes_sent", stats1.bytes_sent - stats0.bytes_sent),
        ("ready_peak", stats1.ready_peak),
        ("queue_high_water", stats1.queue_high_water as u64),
    ] {
        m.push(metric(format!("parsim.{name}"), value as f64, "count"));
    }
    m.push(metric("parsim.host_ns_per_event", host.ns_per_event, "ns"));

    // The registry's service histogram spans the machine's whole life and
    // cannot be windowed; the round's LFS service spans can.
    let service = Percentiles::new(
        [&tool_phase.0, &request_phase.0]
            .into_iter()
            .flat_map(|data| data.spans_in("lfs"))
            .filter(|s| s.name != "lfs.queue_wait")
            .map(|s| s.dur_nanos())
            .collect(),
    );
    m.extend(layer_counters(&before, &after, v, config.breadth, &service));

    let samples: usize = Class::ALL.iter().map(|&c| v.latencies.of(c).len()).sum();
    m.push(metric("core.latency_samples", samples as f64, "count"));
    m.push(metric(
        "core.messages_per_request",
        ratio(v.request_messages as f64, samples as f64),
        "ratio",
    ));
    for class in Class::ALL {
        let p = Percentiles::new(v.latencies.of(class).to_vec());
        m.push(metric(
            format!("core.{}.virt_p50_ms", class.name()),
            p.quantile_ms(0.50),
            "virt_ms",
        ));
        m.push(metric(
            format!("core.{}.virt_p99_ms", class.name()),
            p.quantile_ms(0.99),
            "virt_ms",
        ));
    }

    let copies = v.copy_nanos > 0;
    let sorts = v.sort_local_nanos > 0;
    m.push(metric(
        "tools.copy.virt_s",
        v.copy_nanos as f64 * 1e-9,
        "virt_s",
    ));
    m.push(metric(
        "tools.copy.host_s",
        if copies { host.tool_s } else { 0.0 },
        "s",
    ));
    m.push(metric(
        "tools.sort.local_virt_s",
        v.sort_local_nanos as f64 * 1e-9,
        "virt_s",
    ));
    m.push(metric(
        "tools.sort.merge_virt_s",
        v.sort_merge_nanos as f64 * 1e-9,
        "virt_s",
    ));
    m.push(metric(
        "tools.sort.merge_passes",
        v.sort_merge_passes as f64,
        "count",
    ));
    m.push(metric(
        "tools.sort.host_s",
        if sorts { host.tool_s } else { 0.0 },
        "s",
    ));

    let (frames, sampler_ns) = ledger.map_or((0, 0), |l| (l.frames.get(), l.host_nanos.get()));
    m.push(metric("trace.frames", frames as f64, "count"));
    m.push(metric(
        "trace.sampler_host_s",
        sampler_ns as f64 * 1e-9,
        "s",
    ));
    m.push(metric(
        "trace.overhead",
        ratio(traced_host, host.round0_s),
        "ratio",
    ));

    let phases = [
        (&tool_phase.0, t0, tool_phase.1),
        (&request_phase.0, request_phase.1, request_phase.2),
    ];
    m.extend(critical_path(&phases, check_profile, outcome));
    m
}

/// Disk, EFS and server counters over the traced round, from the
/// telemetry registry's snapshots before and after it.
fn layer_counters(
    before: &HealthSnapshot,
    after: &HealthSnapshot,
    v: &RoundVirt,
    breadth: u32,
    service: &Percentiles,
) -> Vec<Metric> {
    let sum = |s: &HealthSnapshot, f: &dyn Fn(&bridge_trace::LfsTelemetry) -> u64| -> u64 {
        s.lfs.iter().map(f).sum()
    };
    let delta = |f: &dyn Fn(&bridge_trace::LfsTelemetry) -> u64| sum(after, f) - sum(before, f);
    let reads = delta(&|l| l.disk.reads);
    let writes = delta(&|l| l.disk.writes);
    let hits = delta(&|l| l.disk.buffer_hits);
    let busy = delta(&|l| l.disk.busy_nanos);
    let mut m = vec![
        metric("simdisk.reads", reads as f64, "count"),
        metric("simdisk.writes", writes as f64, "count"),
        metric(
            "simdisk.track_loads",
            delta(&|l| l.disk.track_loads) as f64,
            "count",
        ),
        metric(
            "simdisk.head_travel",
            delta(&|l| l.disk.head_travel) as f64,
            "count",
        ),
        metric(
            "simdisk.buffer_hit_ratio",
            ratio(hits as f64, reads as f64),
            "ratio",
        ),
        metric(
            "simdisk.busy_frac",
            ratio(busy as f64, f64::from(breadth) * v.span_nanos as f64),
            "ratio",
        ),
        metric(
            "simdisk.writes_per_user_write",
            ratio(writes as f64, v.user_writes as f64),
            "ratio",
        ),
    ];

    let waits = delta(&|l| l.queue_waits);
    m.push(metric(
        "efs.ops_served",
        delta(&|l| l.ops_served) as f64,
        "count",
    ));
    m.push(metric(
        "efs.ops_per_batch",
        ratio(
            delta(&|l| l.batched_ops) as f64,
            delta(&|l| l.batches) as f64,
        ),
        "ratio",
    ));
    m.push(metric(
        "efs.queue_wait_ms_mean",
        ratio(delta(&|l| l.queue_wait_nanos) as f64 * 1e-6, waits as f64),
        "virt_ms",
    ));
    let depth_peak = after
        .lfs
        .iter()
        .map(|l| l.queue_depth_peak)
        .max()
        .unwrap_or(0);
    m.push(metric("efs.queue_depth_peak", depth_peak as f64, "count"));
    m.push(metric(
        "efs.service_p99_ms",
        service.quantile_ms(0.99),
        "virt_ms",
    ));
    m.push(metric(
        "efs.wal_commits",
        delta(&|l| l.wal_commits) as f64,
        "count",
    ));
    m.push(metric(
        "efs.wal_checkpoints",
        delta(&|l| l.wal_checkpoints) as f64,
        "count",
    ));

    let (s0, s1) = (&before.server, &after.server);
    for (name, value) in [
        ("server_ops", s1.ops - s0.ops),
        ("txns_committed", s1.txns_committed - s0.txns_committed),
        ("txns_aborted", s1.txns_aborted - s0.txns_aborted),
        ("lfs_resends", s1.lfs_resends - s0.lfs_resends),
        ("replays", s1.replays - s0.replays),
    ] {
        m.push(metric(format!("core.{name}"), value as f64, "count"));
    }
    m
}

/// Reads every instance's `DiskStats` in-band and checks the sums equal
/// the registry's mirror of the same counters.
fn reconcile_disks(
    sim: &mut Simulation,
    machine: &BridgeMachine,
    snap: &HealthSnapshot,
    violations: &mut Vec<String>,
) {
    let lfs = machine.lfs.clone();
    let disks: Vec<DiskStats> = sim.block_on(machine.frontend, "disk-stats", move |ctx| {
        let mut client = LfsClient::new();
        lfs.iter()
            .map(|&proc| match client.call(ctx, proc, LfsOp::DiskStats) {
                Ok(LfsData::DiskCounters(s)) => s,
                other => panic!("DiskStats control op failed: {other:?}"),
            })
            .collect()
    });
    let from_op: [u64; 5] = [
        disks.iter().map(|d| d.reads).sum(),
        disks.iter().map(|d| d.writes).sum(),
        disks.iter().map(|d| d.buffer_hits).sum(),
        disks.iter().map(|d| d.track_loads).sum(),
        disks.iter().map(|d| d.busy.as_nanos()).sum(),
    ];
    let mirror: [u64; 5] = [
        snap.lfs.iter().map(|l| l.disk.reads).sum(),
        snap.lfs.iter().map(|l| l.disk.writes).sum(),
        snap.lfs.iter().map(|l| l.disk.buffer_hits).sum(),
        snap.lfs.iter().map(|l| l.disk.track_loads).sum(),
        snap.lfs.iter().map(|l| l.disk.busy_nanos).sum(),
    ];
    if from_op != mirror {
        violations.push(format!(
            "LfsOp::DiskStats {from_op:?} disagrees with the telemetry mirror {mirror:?}"
        ));
    }
}

/// The profile category's metric name.
fn category_name(c: Category) -> &'static str {
    match c {
        Category::ClientRpc => "client_rpc",
        Category::Bridge => "bridge",
        Category::Interconnect => "interconnect",
        Category::LfsQueueWait => "lfs_queue_wait",
        Category::LfsServe => "lfs_serve",
        Category::DiskPosition => "disk_position",
        Category::DiskTransfer => "disk_transfer",
        Category::RetryBackoff => "retry_backoff",
        Category::ToolCompute => "tool_compute",
        Category::Untraced => "untraced",
    }
}

/// The traced round's critical path as fractions of the round's span,
/// one per profiler category: the sum of each phase's
/// ([`critical::phase_breakdown`]). With `check`, each phase's walk is
/// also compared with `bridge_trace::profile`'s.
fn critical_path(
    phases: &[(&TraceData, SimTime, SimTime)],
    check: bool,
    outcome: &mut Outcome,
) -> Vec<Metric> {
    let mut breakdown = Breakdown::default();
    for &(data, start, end) in phases {
        match critical::phase_breakdown(data, start.as_nanos(), end.as_nanos()) {
            Ok(phase) => breakdown.merge(&phase),
            Err(e) => outcome.violations.push(format!("critical path: {e}")),
        }
        if check {
            if let Err(e) = critical::matches_profile(data) {
                outcome.violations.push(format!("critical path: {e}"));
            }
        }
    }
    outcome.profile_checked = check;
    outcome.notes.push(format!(
        "critical path: {:.3} virtual s",
        breakdown.total() as f64 * 1e-9
    ));
    Category::ALL
        .iter()
        .map(|&c| {
            metric(
                format!("profile.{}_frac", category_name(c)),
                ratio(breakdown.get(c) as f64, breakdown.total() as f64),
                "ratio",
            )
        })
        .collect()
}
