//! # bridgebench — one end-to-end benchmark on both clocks
//!
//! Runs three workloads against the Bridge reproduction's public API and
//! reports each end-to-end metric on the *virtual* clock (what the
//! modelled machine does; deterministic in the seed) and the *host* clock
//! (what simulating it costs). A traced run adds per-layer metrics for
//! `parsim`, `simdisk`, `efs`, `core`, `tools` and `trace`, measured
//! from the benchmark's own code: timed calls into each layer, each
//! layer's public counters, and the causal profiler. See `README.md`.

pub mod critical;
pub mod gen;
pub mod measure;
pub mod report;
pub mod run;
pub mod sort_merge;
pub mod txn_mix;
pub mod wide_copy;
pub mod workload;

pub use run::{run, Metric, Outcome, RunConfig};
pub use sort_merge::SortMerge;
pub use txn_mix::TxnMix;
pub use wide_copy::WideCopy;
pub use workload::Workload;

/// The seed used when none is given.
pub const DEFAULT_SEED: u64 = 1988;

/// A seed kept out of tuning: claims measured on the default seed should
/// also hold here.
pub const HELD_OUT_SEED: u64 = 20_261_017;

/// The workload names, in reporting order.
pub const WORKLOADS: [&str; 3] = ["wide_copy", "txn_mix", "sort_merge"];

/// The named workload at benchmark scale, or `None` for an unknown name.
pub fn workload(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "wide_copy" => Box::new(WideCopy::new(seed)),
        "txn_mix" => Box::new(TxnMix::new(seed)),
        "sort_merge" => Box::new(SortMerge::new(seed)),
        _ => return None,
    })
}
