//! [`ShedOrder`] against a brute-force model: random files (ids ascending,
//! but now and then two neighbours delivered swapped, as a shard's pending
//! ring can deliver them), kills (an id leaves the caller's live set; the
//! order is never told) and victim queries. After every step the first
//! victim is the minimum `(importance, id)` over the live filed ids; right
//! after a file the filed ids are at most twice the live ones plus
//! `SWEEP_SLACK`, plus the one just filed. Emptied levels outlive the
//! sweep that empties them and no other.

use frap_core::shed::{ShedOrder, SWEEP_SLACK};
use frap_core::task::Importance;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Files `id` and checks the bound the sweep keeps.
fn file(
    order: &mut ShedOrder<u64>,
    live: &mut BTreeMap<u64, Importance>,
    importance: Importance,
    id: u64,
) -> Result<(), TestCaseError> {
    let before = live.len();
    order.file(importance, id, before, |id| live.contains_key(&id));
    live.insert(id, importance);
    prop_assert!(
        order.filed() <= 2 * before + SWEEP_SLACK + 1,
        "{} filed for {before} live before filing {id}",
        order.filed()
    );
    Ok(())
}

proptest! {
    #[test]
    fn first_is_the_least_important_oldest_live_id(
        ops in proptest::collection::vec((0u8..8, 0u32..5, 0u64..1_000), 1..400),
    ) {
        let mut order = ShedOrder::default();
        let mut live: BTreeMap<u64, Importance> = BTreeMap::new();
        let mut next_id = 0u64;
        for (step, &(kind, level, pick)) in ops.iter().enumerate() {
            let importance = Importance::new(level);
            match kind {
                0..=3 => {
                    file(&mut order, &mut live, importance, next_id)?;
                    next_id += 1;
                }
                4 => {
                    // Two neighbours, the later id filed first.
                    let other = Importance::new((level + pick as u32) % 5);
                    file(&mut order, &mut live, importance, next_id + 1)?;
                    file(&mut order, &mut live, other, next_id)?;
                    next_id += 2;
                }
                _ => {
                    for k in 0..1 + pick % 4 {
                        if live.is_empty() {
                            break;
                        }
                        let at = ((pick + k) % live.len() as u64) as usize;
                        let id = *live.keys().nth(at).expect("in range");
                        live.remove(&id);
                    }
                }
            }
            let expected = live.iter().map(|(&id, &importance)| (importance, id)).min();
            prop_assert_eq!(
                order.first(|id| live.contains_key(&id)),
                expected,
                "after step {}",
                step
            );
        }
    }
}

/// One long-lived id at the front of its level and a stream of
/// short-lived ones on ever new levels behind it, each dead before the
/// next is filed: neither the dead ids nor the emptied levels pile up.
/// Each sweep period files at most `2 · 1 + SWEEP_SLACK + 1` ids, and a
/// level lasts at most two periods.
#[test]
fn dead_ids_and_emptied_levels_do_not_pile_up() {
    let bound = 2 + SWEEP_SLACK + 1;
    let mut order = ShedOrder::default();
    let mut live: BTreeMap<u64, Importance> = BTreeMap::new();
    file(&mut order, &mut live, Importance::new(0), 100).unwrap();
    for id in 101..5_000 {
        file(&mut order, &mut live, Importance::new(id as u32), id).unwrap();
        live.remove(&id);
        assert!(order.levels() <= 2 * bound, "{} levels", order.levels());
    }
    assert!(order.filed() <= bound);
    assert_eq!(
        order.first(|id| live.contains_key(&id)),
        Some((Importance::new(0), 100))
    );
}

/// A level the sweep empties keeps its place (and its buffer) until the
/// next sweep, so a level refilled in between costs no allocation; one
/// still empty at the next sweep is dropped.
#[test]
fn an_emptied_level_lasts_one_sweep_period() {
    let mut order = ShedOrder::default();
    let mut live: BTreeMap<u64, Importance> = BTreeMap::new();
    let mut next_id = 0;
    let mut churn = |order: &mut ShedOrder<u64>, live: &mut BTreeMap<u64, Importance>| {
        // Dead ids at level 2 until a sweep runs.
        loop {
            let filed = order.filed();
            file(order, live, Importance::new(2), next_id).unwrap();
            live.remove(&next_id);
            next_id += 1;
            if order.filed() <= filed {
                return;
            }
        }
    };
    file(&mut order, &mut live, Importance::new(1), 1_000_000).unwrap();
    live.clear();
    churn(&mut order, &mut live);
    assert_eq!(order.levels(), 2, "the sweep emptied level 1 and kept it");
    churn(&mut order, &mut live);
    assert_eq!(order.levels(), 1, "level 1 went unused for a whole period");
    assert_eq!(order.first(|id| live.contains_key(&id)), None);
}
