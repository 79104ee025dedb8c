//! Availability tests: the redundancy headline invariant.
//!
//! For any plan that permanently loses **one** disk ([`DiskLost`] —
//! the medium never comes back, unlike a [`CrashAt`] kill), a workload
//! run against a redundant Bridge machine produces exactly the
//! client-visible replies and final contents of the fault-free run:
//! reads of the lost columns are reconstructed on the fly (degraded
//! mode), a spare racks in mid-run, an online rebuild repopulates it,
//! and the closing machine-wide `pfsck` — parity audit included — comes
//! back clean. Loss may only change timing, never observable behaviour.
//!
//! The `loss` profile of the fault harness (`tests/faults/`) drives it:
//!
//! * `media_loss_preserves_observable_behavior` — proptest over random
//!   loss plans, a quick subset on every `cargo test`.
//! * `avail_soak` — the CI soak hook (`FAULT_SEED` / `FAULT_CASES`; a
//!   failing case lands in `target/chaos_failures/` and its panic names
//!   the `FAULT_REPLAY` command).
//! * `loss_seed_corpus_replays_clean` — every `loss` line of
//!   `tests/fault_seeds/*.plans` replays on plain `cargo test`.
//!
//! A pure-math proptest rides along: for any parity layout and any
//! single lost column, every lost block is reconstructed exactly from
//! its surviving stripe peers — the algebra the degraded path leans on.

mod faults;

use bridge_repro::core::{xor_into, ParityLayout};
use bridge_repro::parsim::{mix64, splitmix64, DiskLost, FaultPlan};
use bridge_repro::trace::TraceCollector;
use faults::{check, replay_corpus, soak, Case, LOSS};
use proptest::prelude::*;

/// The CI soak hook (also a normal quick test when the env is unset).
#[test]
fn avail_soak() {
    soak(&LOSS, 4);
}

/// Every loss-plan case ever caught in the wild replays clean, forever.
#[test]
fn loss_seed_corpus_replays_clean() {
    replay_corpus(&LOSS);
}

/// Directed plan: disk 1 dies early in the write stream, no other
/// faults. The run must actually go degraded — the trace shows on-the-fly
/// reconstructions — and still match the fault-free transcript.
#[test]
fn early_loss_is_served_degraded_then_rebuilt() {
    let plan = FaultPlan {
        seed: 21,
        losses: vec![DiskLost {
            disk: 1,
            after_writes: 20,
        }],
        ..FaultPlan::none()
    };
    check(&Case::directed(&LOSS, plan.clone()));

    // Rerun traced to prove degraded mode actually engaged.
    let collector = TraceCollector::install();
    let mut config = LOSS.machine().with_faults(plan);
    config.tracer = Some(collector.as_tracer());
    LOSS.run(&config);
    let degraded = collector
        .snapshot()
        .instants
        .iter()
        .filter(|i| i.name == "redundancy.degraded_read")
        .count();
    assert!(
        degraded > 0,
        "an early loss must force degraded reads, got none"
    );
}

/// Directed plan: the medium is gone before it persists a single block —
/// every column on disk 2 only ever exists as reconstructions until the
/// spare arrives.
#[test]
fn loss_before_first_write_converges() {
    check(&Case::directed(
        &LOSS,
        FaultPlan {
            seed: 22,
            losses: vec![DiskLost {
                disk: 2,
                after_writes: 0,
            }],
            ..FaultPlan::none()
        },
    ));
}

/// Directed plan: the loss ordinal lies past the whole write stream, so
/// the "victim" is healthy when the spare racks in. Installing the spare
/// wipes its perfectly good columns; the rebuild must restore them and
/// the closing parity audit must still come back clean.
#[test]
fn spare_install_on_healthy_node_is_rebuilt_losslessly() {
    check(&Case::directed(
        &LOSS,
        FaultPlan {
            seed: 23,
            losses: vec![DiskLost {
                disk: 0,
                after_writes: u64::MAX,
            }],
            ..FaultPlan::none()
        },
    ));
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6,
        .. ProptestConfig::default()
    })]

    /// The headline invariant over random loss plans.
    #[test]
    fn media_loss_preserves_observable_behavior(seed in any::<u64>()) {
        check(&Case::generated(&LOSS, seed));
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        .. ProptestConfig::default()
    })]

    /// The algebra under the degraded path: for any grouped parity
    /// layout and any single lost column, every data block on that
    /// column is recomputed exactly by XOR-ing its surviving stripe
    /// peers with the stripe's parity block.
    #[test]
    fn any_single_lost_column_reconstructs_exactly(
        breadth in 2u32..=8,
        lost in 0u32..8,
        size in 1u64..48,
        fill in any::<u64>(),
    ) {
        let lost = lost % breadth;
        let layout = ParityLayout::new(breadth);
        let block = |b: u64| -> Vec<u8> {
            let mut s = mix64(fill, b);
            let mut draw = move || splitmix64(&mut s);
            (0..96).map(|_| (draw() & 0xFF) as u8).collect()
        };
        for b in 0..size {
            let ptr = layout.locate(b);
            if ptr.lfs.0 != lost {
                continue;
            }
            // Reconstruct block `b` from its surviving peers + parity.
            let stripe = layout.stripe_of(b);
            let mut acc: Vec<u8> = Vec::new();
            for peer in layout.stripe_peers(b, size) {
                xor_into(&mut acc, &block(peer));
            }
            let mut parity: Vec<u8> = Vec::new();
            let lo = stripe * layout.stripe_width();
            let hi = ((stripe + 1) * layout.stripe_width()).min(size);
            for d in lo..hi {
                xor_into(&mut parity, &block(d));
            }
            prop_assert!(
                layout.parity_position(stripe) != lost,
                "parity never shares a column with the stripe's data"
            );
            xor_into(&mut acc, &parity);
            let mut want = block(b);
            want.resize(acc.len().max(want.len()), 0);
            acc.resize(want.len(), 0);
            prop_assert_eq!(acc, want, "block {} reconstructs exactly", b);
        }
    }
}
