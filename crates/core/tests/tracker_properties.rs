//! Property tests for one stage of the [`SyntheticState`] ledger: its
//! heap/departure-list expiry machinery against a naive model. Under
//! arbitrary operation sequences the incrementally maintained counter must
//! match the sum recomputed over the model's live entries, and the live
//! set must behave as the decrement-at-deadline / reset-on-idle rules
//! dictate — including simultaneous expiries, sheds racing lazy heap
//! entries, and departures invalidated before the next reset. Every task
//! is charged once, under a fresh id, as the admission controller does.

use frap_core::synthetic::SyntheticState;
use frap_core::task::{StageId, TaskId};
use frap_core::time::{Time, TimeDelta};
use proptest::prelude::*;

/// The ledger's one stage.
const ONLY: StageId = StageId::new(0);

/// One live entry of the model.
#[derive(Debug, Clone, Copy)]
struct Entry {
    task: u64,
    amount: f64,
    expiry: Time,
    departed: bool,
}

/// One scripted operation, decoded from `(kind, pick, amount_milli,
/// time_ms)`, applied to the ledger and the model alike. Charges take the
/// next fresh id; sheds and departures pick among the last dozen ids
/// issued, so they collide often with live, expired and shed tasks.
/// Expiry offsets are multiples of 10 ms from a small pool of instants so
/// *simultaneous* expiry of several tasks is the common case, not the
/// exception.
fn apply(
    state: &mut SyntheticState,
    model: &mut Vec<Entry>,
    next_id: &mut u64,
    clock: &mut Time,
    op: (u8, u64, u64, u64),
) -> String {
    let (kind, pick, amount_milli, time_ms) = op;
    let picked = next_id.saturating_sub(1 + pick % 12);
    match kind {
        // Charge: expiries are absolute deadlines, always in the future.
        0 | 1 => {
            let task = *next_id;
            *next_id += 1;
            let amount = amount_milli as f64 / 1_000.0;
            let expiry = *clock + TimeDelta::from_millis(10 * (1 + time_ms % 8));
            state.add_task(TaskId::new(task), &[(ONLY, amount)], expiry);
            model.push(Entry {
                task,
                amount,
                expiry,
                departed: false,
            });
            format!("add({task}, {amount}, {expiry:?})")
        }
        2 => {
            state.shed_task(TaskId::new(picked));
            model.retain(|e| e.task != picked);
            format!("shed({picked})")
        }
        3 => {
            state.mark_departed(ONLY, TaskId::new(picked));
            model
                .iter_mut()
                .filter(|e| e.task == picked)
                .for_each(|e| e.departed = true);
            format!("mark_departed({picked})")
        }
        4 => {
            state.reset_idle(ONLY);
            model.retain(|e| !e.departed);
            "reset_idle".to_string()
        }
        // Decrement-at-deadline with a monotone clock.
        _ => {
            let now = Time::from_millis(time_ms).max(*clock);
            *clock = now;
            state.advance_to(now);
            model.retain(|e| e.expiry > now);
            format!("advance_to({now:?})")
        }
    }
}

proptest! {
    #[test]
    fn incremental_value_matches_recompute_oracle(
        ops in proptest::collection::vec(
            (0u8..6, 0u64..12, 0u64..500, 0u64..100),
            1..80,
        )
    ) {
        let reserved = 0.25;
        let mut state = SyntheticState::with_reservations(&[reserved]);
        let mut model = Vec::new();
        let mut next_id = 0;
        let mut clock = Time::ZERO;
        for &op in &ops {
            let desc = apply(&mut state, &mut model, &mut next_id, &mut clock, op);
            // The incrementally maintained sum must match the sum
            // recomputed over the model up to float accumulation error.
            let stage = state.stage(ONLY);
            let incremental = stage.value();
            let oracle = reserved + model.iter().map(|e| e.amount).sum::<f64>();
            prop_assert!(
                (incremental - oracle).abs() < 1e-9,
                "after {desc}: incremental {incremental} vs oracle {oracle}"
            );
            prop_assert_eq!(stage.live_tasks(), model.len(), "after {}", desc);
            prop_assert!(incremental >= stage.reserved() - 1e-12);
            prop_assert!(stage.peak() >= incremental - 1e-12);
        }
        // Drain everything by expiring every deadline. The ledger must
        // land exactly on its reservation floor — no float residue.
        state.advance_to(Time::from_secs(3_600));
        prop_assert_eq!(state.stage(ONLY).live_tasks(), 0);
        prop_assert_eq!(state.stage(ONLY).value(), reserved);
    }

    /// All tasks share one expiry instant: a single `advance_to` must
    /// remove every one of them in one pass (simultaneous expiries).
    #[test]
    fn simultaneous_expiries_all_removed(
        n in 1usize..32,
        amount_milli in 1u64..100,
        expiry_ms in 1u64..50,
    ) {
        let mut state = SyntheticState::new(1);
        for i in 0..n {
            state.add_task(
                TaskId::new(i as u64),
                &[(ONLY, amount_milli as f64 / 1_000.0)],
                Time::from_millis(expiry_ms),
            );
        }
        prop_assert_eq!(state.stage(ONLY).live_tasks(), n);
        let removed = state.advance_to(Time::from_millis(expiry_ms));
        prop_assert_eq!(removed, n);
        prop_assert_eq!(state.stage(ONLY).live_tasks(), 0);
        prop_assert_eq!(state.stage(ONLY).value(), 0.0);
    }

    /// Departure flags survive arbitrary interleavings: after a reset, no
    /// departed task remains and no merely-live task was dropped.
    #[test]
    fn reset_idle_removes_exactly_departed(
        present in proptest::collection::vec(proptest::bool::ANY, 32),
        departed in proptest::collection::vec(proptest::bool::ANY, 32),
    ) {
        let mut state = SyntheticState::new(1);
        for (t, &p) in present.iter().enumerate() {
            if p {
                state.add_task(TaskId::new(t as u64), &[(ONLY, 0.01)], Time::from_secs(100));
            }
        }
        for (t, &d) in departed.iter().enumerate() {
            if d {
                // Departures of absent tasks must be no-ops.
                state.mark_departed(ONLY, TaskId::new(t as u64));
            }
        }
        let removed = state.reset_idle(ONLY);
        let expected = present
            .iter()
            .zip(&departed)
            .filter(|&(&p, &d)| p && d)
            .count();
        prop_assert_eq!(removed, expected);
        for (t, (&p, &d)) in present.iter().zip(&departed).enumerate() {
            prop_assert_eq!(state.stage(ONLY).contains(TaskId::new(t as u64)), p && !d);
        }
        // A second reset is a no-op: the departure list was drained.
        prop_assert_eq!(state.reset_idle(ONLY), 0);
    }
}
