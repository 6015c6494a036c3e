//! Property tests for the service's data structures: the timer wheel
//! must agree with a sorted-list oracle on arbitrary insert/cancel/advance
//! interleavings, inclusive of deadline-equal batches and huge jumps.

use frap_core::time::Time;
use frap_service::wheel::{Node, TimerWheel};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// One step against the wheel and the oracle.
#[derive(Debug, Clone)]
enum Op {
    /// File a fresh id this far past the cursor (0: due at once).
    Insert(u64),
    /// Cancel the `k`-th entry ever filed, pending or not.
    Cancel(usize),
    /// Cancel an id never filed, at the `k`-th filed entry's node.
    CancelStranger(usize),
    /// Move the cursor this far.
    Advance(u64),
}

/// A kind roll picks the step, a raw draw its size: inserts spread over
/// due-at-once, every slot level (log-uniform) and the overflow list;
/// advances over single ticks, level-3 jumps and strides across level 4.
fn op() -> impl Strategy<Value = Op> {
    (0u8..11, proptest::num::u64::ANY).prop_map(|(kind, raw)| match kind {
        0 => Op::Insert(raw % 100),
        1 => Op::Insert(raw % 300_000),
        2 => Op::Insert(raw >> (16 + raw % 48)),
        3 => Op::Insert((1 << 48) + raw % (1 << 48)),
        4..=6 => Op::Cancel(raw as usize),
        7 => Op::CancelStranger(raw as usize),
        8 => Op::Advance(raw % 100),
        9 => Op::Advance(raw % 1_000_000),
        _ => Op::Advance(raw % 100_000_000),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn wheel_matches_sorted_oracle(
        expiries in proptest::collection::vec(1u64..5_000_000_000, 1..200),
        advances in proptest::collection::vec(1u64..100_000_000, 1..50),
    ) {
        let mut wheel = TimerWheel::new(Time::ZERO);
        let mut oracle: Vec<(Time, u64)> = Vec::new();
        for (id, &e) in expiries.iter().enumerate() {
            wheel.insert(Time::from_micros(e), id as u64);
            oracle.push((Time::from_micros(e), id as u64));
        }
        let mut now = 0u64;
        for &step in &advances {
            now += step;
            let at = Time::from_micros(now);
            let mut got = Vec::new();
            wheel.advance(at, &mut got);
            let mut want: Vec<(Time, u64)> =
                oracle.iter().copied().filter(|&(e, _)| e <= at).collect();
            want.sort_unstable_by_key(|&(e, id)| (e, id));
            oracle.retain(|&(e, _)| e > at);
            prop_assert_eq!(got, want, "divergence at now={}", now);
            prop_assert_eq!(wheel.len(), oracle.len());
        }
        // Everything left must surface on one final huge jump.
        let mut rest = Vec::new();
        wheel.advance(Time::from_micros(now + (1 << 45)), &mut rest);
        prop_assert_eq!(rest.len(), oracle.len());
        prop_assert!(wheel.is_empty());
    }

    #[test]
    fn wheel_len_tracks_inserts_and_drains(
        expiries in proptest::collection::vec(1u64..1_000_000, 1..100),
    ) {
        let mut wheel = TimerWheel::new(Time::ZERO);
        for (id, &e) in expiries.iter().enumerate() {
            wheel.insert(Time::from_micros(e), id as u64);
            prop_assert_eq!(wheel.len(), id + 1);
        }
        let mut out = Vec::new();
        wheel.advance(Time::from_micros(1_000_000), &mut out);
        prop_assert_eq!(out.len(), expiries.len());
        prop_assert!(wheel.is_empty());
    }

    #[test]
    fn wheel_cancel_matches_sorted_oracle(ops in proptest::collection::vec(op(), 1..300)) {
        let mut wheel = TimerWheel::new(Time::ZERO);
        // `(expiry, id)` ordered as `advance` emits them.
        let mut pending: BTreeSet<(Time, u64)> = BTreeSet::new();
        let mut filed: Vec<(Time, u64, Node)> = Vec::new();
        let mut now = 0u64;
        for op in ops {
            match op {
                Op::Insert(delta) => {
                    let (expiry, id) = (Time::from_micros(now + delta), filed.len() as u64);
                    filed.push((expiry, id, wheel.insert(expiry, id)));
                    pending.insert((expiry, id));
                }
                Op::Cancel(k) if !filed.is_empty() => {
                    let (expiry, id, node) = filed[k % filed.len()];
                    let live = pending.remove(&(expiry, id));
                    prop_assert_eq!(wheel.cancel(node, id), live, "cancel of id {}", id);
                }
                Op::CancelStranger(k) if !filed.is_empty() => {
                    let node = filed[k % filed.len()].2;
                    prop_assert!(!wheel.cancel(node, u64::MAX - (k % 1_000) as u64));
                }
                Op::Advance(step) => {
                    now += step;
                    let at = Time::from_micros(now);
                    let mut got = Vec::new();
                    wheel.advance(at, &mut got);
                    let rest = pending.split_off(&(at, u64::MAX));
                    let want: Vec<(Time, u64)> = std::mem::replace(&mut pending, rest)
                        .into_iter()
                        .collect();
                    prop_assert_eq!(got, want, "divergence at now={}", now);
                }
                Op::Cancel(_) | Op::CancelStranger(_) => {}
            }
            prop_assert_eq!(wheel.len(), pending.len());
            prop_assert_eq!(wheel.earliest(), pending.first().map(|&(e, _)| e));
        }
        // Everything left must surface on one final jump past the horizon.
        let mut rest = Vec::new();
        wheel.advance(Time::from_micros(now + (1 << 50)), &mut rest);
        prop_assert_eq!(rest, pending.into_iter().collect::<Vec<_>>());
        prop_assert!(wheel.is_empty());
    }
}
