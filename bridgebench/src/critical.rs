//! The causal profiler's critical path over one traced round, walked
//! with indexes.
//!
//! `bridge_trace::profile` walks the run backward from its last scheduler
//! run interval, and at every step scans the trace's whole flow list for
//! the message that woke the current process and the spans that cover
//! its run: its cost grows with path length times trace size, minutes
//! for a single `sort_merge` round. [`walk`] takes the same path by the
//! same rules — the same start, the same covering run, woken-by flow and
//! gap at each step, the same innermost-span painting of run time — but
//! answers each step from indexes built once. Because the walk moves
//! backward in time, each process's live spans are kept by a sweep.
//!
//! [`matches_profile`] compares the two walks field for field; the
//! benchmark's self-tests run it on traced rounds of every workload.

use bridge_trace::{profile, Breakdown, Category, SpanEvent, TraceData};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};

/// The critical path of a trace, as [`bridge_trace::profile`] defines it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Walk {
    /// End of the latest scheduler run interval.
    pub makespan_nanos: u64,
    /// Exact partition of `[0, makespan]` into categories.
    pub breakdown: Breakdown,
    /// Flow edges crossed between processes.
    pub hops: usize,
    /// Where the walk stopped; `[0, horizon]` is in the untraced bucket.
    pub horizon_nanos: u64,
}

/// One process's scheduler run intervals.
#[derive(Default)]
struct Runs {
    /// `(start, end)`, sorted.
    by_start: Vec<(u64, u64)>,
    /// `prefix_end[i]`: the latest end among `by_start[..=i]`.
    prefix_end: Vec<u64>,
    /// `(end, start)`, sorted.
    by_end: Vec<(u64, u64)>,
}

impl Runs {
    /// The start of the earliest-starting run with `start <= t <= end`
    /// (the profiler's `run_covering`).
    fn covering(&self, t: u64) -> Option<u64> {
        let started = self.by_start.partition_point(|&(s, _)| s <= t);
        let first = self.prefix_end.partition_point(|&e| e < t);
        (first < started).then(|| self.by_start[first].0)
    }

    /// The latest end among runs with `end <= t` and `start < t` (the
    /// profiler's `run_before`).
    fn before(&self, t: u64) -> Option<u64> {
        let ended = self.by_end.partition_point(|&(e, _)| e <= t);
        self.by_end[..ended]
            .iter()
            .rev()
            .find(|&&(_, s)| s < t)
            .map(|&(e, _)| e)
    }
}

/// One process's application (non-scheduler) spans, swept backward.
#[derive(Default)]
struct Sweep {
    /// Span indices by descending end.
    by_end: Vec<usize>,
    /// How many of `by_end` have entered `live`.
    entered: usize,
    /// Spans with `end > a` and `start < b` for the last painted `[a, b]`.
    live: Vec<usize>,
}

struct Index<'a> {
    data: &'a TraceData,
    runs: HashMap<usize, Runs>,
    sweeps: HashMap<usize, Sweep>,
    /// `(to, at)` → deliveries, in trace order.
    deliveries: HashMap<(usize, u64), Vec<usize>>,
    /// Message id → its first send.
    sends: HashMap<u64, usize>,
}

impl<'a> Index<'a> {
    fn build(data: &'a TraceData) -> Self {
        let mut runs: HashMap<usize, Runs> = HashMap::new();
        let mut sweeps: HashMap<usize, Sweep> = HashMap::new();
        for (i, span) in data.spans.iter().enumerate() {
            if span.cat == "sched" && span.name == "run" {
                let r = runs.entry(span.pid).or_default();
                r.by_start
                    .push((span.start.as_nanos(), span.end.as_nanos()));
                r.by_end.push((span.end.as_nanos(), span.start.as_nanos()));
            } else {
                sweeps.entry(span.pid).or_default().by_end.push(i);
            }
        }
        for r in runs.values_mut() {
            r.by_start.sort_unstable();
            r.by_end.sort_unstable();
            let mut latest = 0;
            r.prefix_end = r
                .by_start
                .iter()
                .map(|&(_, e)| {
                    latest = latest.max(e);
                    latest
                })
                .collect();
        }
        for s in sweeps.values_mut() {
            s.by_end
                .sort_unstable_by_key(|&i| Reverse(data.spans[i].end));
        }
        let mut deliveries: HashMap<(usize, u64), Vec<usize>> = HashMap::new();
        let mut sends = HashMap::new();
        for (i, f) in data.flows.iter().enumerate() {
            if f.send {
                sends.entry(f.id).or_insert(i);
            } else {
                deliveries
                    .entry((f.to, f.at.as_nanos()))
                    .or_default()
                    .push(i);
            }
        }
        Index {
            data,
            runs,
            sweeps,
            deliveries,
            sends,
        }
    }

    /// The profiler's default category for uncovered time on `pid`.
    fn default_category(&self, pid: usize) -> Category {
        let name = self.data.proc_name(pid);
        if name.starts_with("lfs") {
            Category::LfsServe
        } else if name.starts_with("bridge") || name.starts_with("agent") {
            Category::Bridge
        } else {
            Category::ToolCompute
        }
    }

    /// Paints `[a, b]` of `pid`'s run by the innermost application span
    /// covering each piece. Successive calls must move backward in time
    /// (`b` no later than the previous call's `a`), as the walk does.
    fn paint(&mut self, pid: usize, a: u64, b: u64, bd: &mut Breakdown) {
        if a >= b {
            return;
        }
        let default = self.default_category(pid);
        let spans = &self.data.spans;
        let Some(sweep) = self.sweeps.get_mut(&pid) else {
            bd.add(default, b - a);
            return;
        };
        while let Some(&i) = sweep.by_end.get(sweep.entered) {
            if spans[i].end.as_nanos() <= a {
                break;
            }
            sweep.live.push(i);
            sweep.entered += 1;
        }
        sweep.live.retain(|&i| spans[i].start.as_nanos() < b);
        if sweep.live.is_empty() {
            bd.add(default, b - a);
            return;
        }
        let mut cuts: Vec<u64> = vec![a, b];
        for &i in &sweep.live {
            let span = &spans[i];
            cuts.push(span.start.as_nanos().clamp(a, b));
            cuts.push(span.end.as_nanos().clamp(a, b));
            if span.cat == "disk" {
                cuts.push((span.start.as_nanos() + position_nanos(span)).clamp(a, b));
            }
        }
        cuts.sort_unstable();
        cuts.dedup();
        // Forward over the pieces: a span covers piece `[x, y]` when it
        // starts at or before `x` and ends after it; the innermost is the
        // latest start, then the latest emitted.
        let mut by_start = sweep.live.clone();
        by_start.sort_unstable_by_key(|&i| (spans[i].start, i));
        let mut started = by_start.iter().peekable();
        let mut open: BinaryHeap<(u64, usize)> = BinaryHeap::new();
        for w in cuts.windows(2) {
            let (x, y) = (w[0], w[1]);
            while let Some(&&i) = started.peek() {
                if spans[i].start.as_nanos() > x {
                    break;
                }
                open.push((spans[i].start.as_nanos(), i));
                started.next();
            }
            while open
                .peek()
                .is_some_and(|&(_, i)| spans[i].end.as_nanos() <= x)
            {
                open.pop();
            }
            let cat = match open.peek() {
                Some(&(_, i)) => span_category(&spans[i], x, default),
                None => default,
            };
            bd.add(cat, y - x);
        }
    }

    /// The not-yet-crossed delivery to `pid` at exactly `t` whose send is
    /// no later than `t`, first in trace order: `(id, sender, sent)`.
    fn woken_by(&self, pid: usize, t: u64, visited: &HashSet<u64>) -> Option<(u64, usize, u64)> {
        let flows = &self.data.flows;
        self.deliveries.get(&(pid, t))?.iter().find_map(|&d| {
            let f = &flows[d];
            if visited.contains(&f.id) {
                return None;
            }
            let send = &flows[*self.sends.get(&f.id)?];
            (send.at.as_nanos() <= t).then_some((f.id, send.from, send.at.as_nanos()))
        })
    }
}

/// `position` arg clamped to the span's duration, as the profiler does.
fn position_nanos(span: &SpanEvent) -> u64 {
    span.arg("position").unwrap_or(0).min(span.dur_nanos())
}

/// The category span `span` paints at time `x`, as the profiler does.
fn span_category(span: &SpanEvent, x: u64, default: Category) -> Category {
    match span.cat {
        "client" => Category::ClientRpc,
        "bridge" => Category::Bridge,
        "lfs" if span.name == "lfs.queue_wait" => Category::LfsQueueWait,
        "lfs" => Category::LfsServe,
        "disk" if x < span.start.as_nanos() + position_nanos(span) => Category::DiskPosition,
        "disk" => Category::DiskTransfer,
        "tool" => Category::ToolCompute,
        _ => default,
    }
}

/// The critical path of `data`: from the latest run interval's end,
/// paint the current process's run, then follow the flow that woke it
/// (interconnect) or fall back to the gap since its previous run (retry
/// backoff); a gap between runs the walk lands in is untraced, and so is
/// everything before where the walk stops.
pub fn walk(data: &TraceData) -> Walk {
    let mut ix = Index::build(data);
    // The latest run end; the profiler breaks ties between processes by
    // map order, this by the lowest process index.
    let start = ix
        .runs
        .iter()
        .filter_map(|(&pid, r)| r.prefix_end.last().map(|&e| (e, Reverse(pid))))
        .max();
    let Some((makespan, Reverse(mut pid))) = start else {
        return Walk::default();
    };
    let mut t = makespan;
    let mut bd = Breakdown::default();
    let mut hops = 0;
    let mut visited = HashSet::new();
    let cap = data.flows.len() + data.spans.len() + 1024;
    for _ in 0..cap {
        if t == 0 {
            break;
        }
        let runs = &ix.runs;
        let covering = runs.get(&pid).and_then(|r| r.covering(t));
        let Some(rs) = covering else {
            match runs.get(&pid).and_then(|r| r.before(t)) {
                Some(prev) => {
                    bd.add(Category::Untraced, t - prev);
                    t = prev;
                    continue;
                }
                None => break,
            }
        };
        ix.paint(pid, rs, t, &mut bd);
        t = rs;
        if t == 0 {
            break;
        }
        match ix.woken_by(pid, t, &visited) {
            Some((flow, from, sent)) => {
                visited.insert(flow);
                bd.add(Category::Interconnect, t - sent);
                hops += 1;
                pid = from;
                t = sent;
            }
            None => match ix.runs.get(&pid).and_then(|r| r.before(t)) {
                Some(prev) => {
                    bd.add(Category::RetryBackoff, t - prev);
                    t = prev;
                }
                None => break,
            },
        }
    }
    bd.add(Category::Untraced, t);
    Walk {
        makespan_nanos: makespan,
        breakdown: bd,
        hops,
        horizon_nanos: t,
    }
}

/// The critical path of one phase of a round, `[start, end]`, whose
/// trace is `data`: [`walk`] with the time before `start` taken out of
/// the untraced bucket and the time after the walk's makespan put in, so
/// the breakdown partitions `[start, end]`. An error when the trace does
/// not fit the phase.
pub fn phase_breakdown(data: &TraceData, start: u64, end: u64) -> Result<Breakdown, String> {
    let w = walk(data);
    let mut phase = Breakdown::default();
    if w.makespan_nanos == 0 {
        phase.add(Category::Untraced, end.saturating_sub(start));
        return Ok(phase);
    }
    if w.horizon_nanos < start || w.makespan_nanos > end {
        return Err(format!(
            "the walk covers [{}, {}] ns, outside the phase [{start}, {end}] ns",
            w.horizon_nanos, w.makespan_nanos
        ));
    }
    for (cat, nanos) in w.breakdown.iter() {
        // The untraced bucket holds `[0, horizon]`; only its part from
        // `start` on lies in the phase.
        phase.add(
            cat,
            if cat == Category::Untraced {
                nanos - start
            } else {
                nanos
            },
        );
    }
    phase.add(Category::Untraced, end - w.makespan_nanos);
    Ok(phase)
}

/// Checks [`walk`] against `bridge_trace::profile`'s whole-run walk on
/// the same trace: makespan, hops and every category must be equal.
pub fn matches_profile(data: &TraceData) -> Result<(), String> {
    let mine = walk(data);
    let theirs = profile(data).critical_path;
    if (mine.makespan_nanos, mine.hops, mine.breakdown)
        == (theirs.makespan_nanos, theirs.hops, theirs.breakdown)
    {
        Ok(())
    } else {
        Err(format!(
            "indexed walk {:?} (makespan {}, {} hops) differs from the profiler's {:?} (makespan {}, {} hops)",
            mine.breakdown, mine.makespan_nanos, mine.hops,
            theirs.breakdown, theirs.makespan_nanos, theirs.hops
        ))
    }
}
