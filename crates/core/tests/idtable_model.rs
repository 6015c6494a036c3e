//! [`IdTable`] against a `HashMap` model under random insert / get /
//! remove sequences — ids below the window, re-inserts after removal and
//! window shrink included — plus the window bound itself: never more than
//! `newest live − oldest live + 1` slots.

use frap_core::idtable::IdTable;
use frap_core::task::TaskId;
use proptest::prelude::*;
use std::collections::HashMap;

fn check(table: &IdTable<u64>, model: &HashMap<u64, u64>) -> Result<(), String> {
    if table.len() != model.len() {
        return Err(format!("len {} vs model {}", table.len(), model.len()));
    }
    let span = match (model.keys().min(), model.keys().max()) {
        (Some(lo), Some(hi)) => (hi - lo + 1) as usize,
        _ => 0,
    };
    if table.window() != span {
        return Err(format!("window {} vs live span {span}", table.window()));
    }
    let mut live: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
    live.sort_unstable();
    let seen: Vec<(u64, u64)> = table.iter().map(|(id, &v)| (id.seq(), v)).collect();
    if seen != live {
        return Err(format!("iter {seen:?} vs model {live:?}"));
    }
    Ok(())
}

proptest! {
    /// Ids drawn around a drifting centre, so inserts land below, inside
    /// and above the window and removals retire both ends.
    #[test]
    fn matches_hashmap_model(
        ops in proptest::collection::vec((0u8..4, 0u64..24, 0u64..1_000), 1..200)
    ) {
        let mut table: IdTable<u64> = IdTable::new();
        let mut model: HashMap<u64, u64> = HashMap::new();
        let mut centre = 1_000u64;
        for (step, &(kind, offset, value)) in ops.iter().enumerate() {
            let id = centre + offset - 12;
            match kind {
                0 | 1 => {
                    prop_assert_eq!(table.insert(TaskId::new(id), value), model.insert(id, value));
                }
                2 => {
                    prop_assert_eq!(table.remove(TaskId::new(id)), model.remove(&id));
                }
                _ => {
                    // The window drifts upwards, as issued ids do.
                    centre += offset;
                    if let Some(v) = table.get_mut(TaskId::new(id)) {
                        *v += 1;
                        *model.get_mut(&id).expect("model has what the table has") += 1;
                    }
                }
            }
            for probe in [id, id.wrapping_sub(40), id + 40, 0, u64::MAX] {
                prop_assert_eq!(table.get(TaskId::new(probe)), model.get(&probe));
            }
            if let Err(why) = check(&table, &model) {
                prop_assert!(false, "after step {step} ({kind}, id {id}): {why}");
            }
        }
        // Draining every entry leaves no window behind.
        let ids: Vec<u64> = model.keys().copied().collect();
        for id in ids {
            prop_assert_eq!(table.remove(TaskId::new(id)), model.remove(&id));
        }
        prop_assert_eq!(table.window(), 0);
        prop_assert!(table.is_empty());
    }

    /// The admission pattern: ids issued in order, each removed a bounded
    /// number of issues later, in any order. The window never exceeds the
    /// bound — arrival rate × longest deadline, in ids.
    #[test]
    fn window_is_bounded_by_the_longest_lifetime(
        lifetimes in proptest::collection::vec(1u64..50, 1..300)
    ) {
        let longest = *lifetimes.iter().max().expect("non-empty");
        let mut table: IdTable<()> = IdTable::new();
        let mut due: Vec<(u64, u64)> = Vec::new(); // (retire at issue count, id)
        for (issued, &life) in lifetimes.iter().enumerate() {
            let issued = issued as u64;
            due.retain(|&(at, id)| {
                let retire = at <= issued;
                if retire {
                    table.remove(TaskId::new(id));
                }
                !retire
            });
            table.insert(TaskId::new(issued), ());
            due.push((issued + life, issued));
            prop_assert!(
                table.window() as u64 <= longest,
                "window {} with lifetimes of at most {longest} issues",
                table.window()
            );
        }
    }
}
