//! The shared task ledger against naive `O(n)` models.
//!
//! * A multi-stage [`SyntheticState`] under random `add_task` /
//!   `advance_to` / `mark_departed` / `reset_idle` / `shed_task_retaining`
//!   sequences must produce, **bit for bit**, the utilizations of one
//!   independent counter per stage that keeps its own entry list and
//!   removes expired entries in `(expiry, id)` order — the `f64`-order
//!   invariant of DESIGN.md §7.
//! * [`Admission`]'s shed victims must come out in `(importance, id)`
//!   order, whatever mix of admits, expiries and external sheds went
//!   before.

use frap_core::admission::{Admission, AdmitOutcome, ExactContributions};
use frap_core::graph::TaskSpec;
use frap_core::region::FeasibleRegion;
use frap_core::synthetic::SyntheticState;
use frap_core::task::{Importance, StageId, TaskId};
use frap_core::time::{Time, TimeDelta};
use proptest::prelude::*;

const STAGES: usize = 3;
const RESERVED: [f64; STAGES] = [0.25, 0.0, 0.125];

#[derive(Debug, Clone, Copy)]
struct Entry {
    task: u64,
    amount: f64,
    expiry: Time,
    departed: bool,
}

/// One stage's counter, the slow way: a list of entries scanned on every
/// operation.
#[derive(Debug, Default)]
struct ModelStage {
    extra: f64,
    entries: Vec<Entry>,
    departed: Vec<u64>,
}

impl ModelStage {
    fn normalize(&mut self) {
        if self.entries.is_empty() || self.extra < 0.0 {
            self.extra = 0.0;
        }
    }

    fn position(&self, task: u64) -> Option<usize> {
        self.entries.iter().position(|e| e.task == task)
    }

    fn add(&mut self, task: u64, amount: f64, expiry: Time) {
        self.entries.push(Entry {
            task,
            amount,
            expiry,
            departed: false,
        });
        self.extra += amount;
    }

    fn advance_to(&mut self, now: Time) {
        loop {
            let due = self
                .entries
                .iter()
                .enumerate()
                .filter(|(_, e)| e.expiry <= now);
            let Some((i, _)) = due.min_by_key(|(_, e)| (e.expiry, e.task)) else {
                break;
            };
            self.extra -= self.entries.remove(i).amount;
        }
        self.normalize();
    }

    fn mark_departed(&mut self, task: u64) {
        if let Some(i) = self.position(task) {
            if !self.entries[i].departed {
                self.entries[i].departed = true;
                self.departed.push(task);
            }
        }
    }

    fn reset_idle(&mut self) {
        for task in std::mem::take(&mut self.departed) {
            if let Some(i) = self.position(task).filter(|&i| self.entries[i].departed) {
                self.extra -= self.entries.remove(i).amount;
            }
        }
        self.normalize();
    }

    fn shed_retaining(&mut self, task: u64, retained: f64) {
        let Some(i) = self.position(task) else {
            return;
        };
        let amount = self.entries[i].amount;
        let keep = retained.min(amount);
        if keep <= 0.0 {
            self.entries.remove(i);
            self.extra -= amount;
        } else {
            self.entries[i].amount = keep;
            if !self.entries[i].departed {
                self.entries[i].departed = true;
                self.departed.push(task);
            }
            self.extra -= amount - keep;
        }
        self.normalize();
    }
}

proptest! {
    #[test]
    fn multi_stage_state_matches_per_stage_model_bit_for_bit(
        ops in proptest::collection::vec((0u8..8, 0u64..64, 1u64..400, 0u64..40), 1..160)
    ) {
        let mut state = SyntheticState::with_reservations(&RESERVED);
        let mut model: Vec<ModelStage> = (0..STAGES).map(|_| ModelStage::default()).collect();
        let mut clock = Time::ZERO;
        let mut next_id = 0u64;
        for (step, &(kind, a, b, c)) in ops.iter().enumerate() {
            // An id among the last sixteen issued (possibly long gone).
            let pick = next_id.saturating_sub(1 + a % 16);
            let stage = (a as usize / 16) % STAGES;
            let desc = match kind {
                0..=2 => {
                    let task = next_id;
                    next_id += 1;
                    let expiry = clock + TimeDelta::from_millis(10 * (1 + c % 8));
                    // A non-empty subset of the stages, ascending.
                    let mask = 1 + a as usize % ((1 << STAGES) - 1);
                    let contributions: Vec<(StageId, f64)> = (0..STAGES)
                        .filter(|j| mask & (1 << j) != 0)
                        .map(|j| (StageId::new(j), b as f64 / 997.0 + j as f64 * 0.013))
                        .collect();
                    state.add_task(TaskId::new(task), &contributions, expiry);
                    for &(s, amount) in &contributions {
                        model[s.index()].add(task, amount, expiry);
                    }
                    format!("add_task({task}, {contributions:?}, {expiry:?})")
                }
                3 => {
                    clock += TimeDelta::from_millis(c);
                    state.advance_to(clock);
                    model.iter_mut().for_each(|m| m.advance_to(clock));
                    format!("advance_to({clock:?})")
                }
                4 | 5 => {
                    state.mark_departed(StageId::new(stage), TaskId::new(pick));
                    model[stage].mark_departed(pick);
                    format!("mark_departed({stage}, {pick})")
                }
                6 => {
                    state.reset_idle(StageId::new(stage));
                    model[stage].reset_idle();
                    format!("reset_idle({stage})")
                }
                _ => {
                    // Retain part of one stage's charge (or none of it);
                    // every other stage reclaims in full.
                    let keep = if c % 3 == 0 { 0.0 } else { b as f64 / 2_000.0 };
                    let retained = [(StageId::new(stage), keep)];
                    state.shed_task_retaining(TaskId::new(pick), &retained);
                    for (j, m) in model.iter_mut().enumerate() {
                        m.shed_retaining(pick, if j == stage { keep } else { 0.0 });
                    }
                    format!("shed_task_retaining({pick}, {retained:?})")
                }
            };
            let got: Vec<u64> = state.utilizations().iter().map(|u| u.to_bits()).collect();
            let want: Vec<u64> = model
                .iter()
                .zip(RESERVED)
                .map(|(m, reserved)| (reserved + m.extra).to_bits())
                .collect();
            prop_assert_eq!(&got, &want, "step {} {}: utilization bits differ", step, desc);
            for (j, m) in model.iter().enumerate() {
                let view = state.stage(StageId::new(j));
                prop_assert_eq!(view.live_tasks(), m.entries.len(), "step {} {}: stage {}", step, desc, j);
                let amount = m.position(pick).map(|i| m.entries[i].amount);
                prop_assert_eq!(view.contribution(TaskId::new(pick)), amount);
            }
        }
        // Past every deadline nothing is left, and every counter sits
        // exactly on its floor.
        state.advance_to(clock + TimeDelta::from_secs(3_600));
        prop_assert_eq!(state.utilizations(), &RESERVED[..]);
    }

    #[test]
    fn shed_victims_come_out_in_importance_then_id_order(
        arrivals in proptest::collection::vec((0u8..8, 0u32..4, 1u64..30, 0u64..25), 1..120)
    ) {
        let ms = TimeDelta::from_millis;
        let mut ac = Admission::new(FeasibleRegion::deadline_monotonic(2), ExactContributions);
        // The model: every live task as `(importance, id, expiry)`.
        let mut live: Vec<(Importance, TaskId, Time)> = Vec::new();
        let mut now = Time::ZERO;
        for &(kind, level, size, gap) in &arrivals {
            now += ms(gap);
            ac.advance_to(now);
            live.retain(|&(_, _, expiry)| expiry > now);
            let importance = Importance::new(level);
            let spec = TaskSpec::pipeline(ms(100), &[ms(size), ms(size)])
                .unwrap()
                .with_importance(importance);
            let expiry = now + spec.deadline;
            match kind {
                0 => {
                    // External shed of the oldest live task.
                    if let Some(&(_, task, _)) = live.iter().min_by_key(|&&(_, id, _)| id) {
                        ac.shed(task);
                        live.retain(|&(_, id, _)| id != task);
                    }
                }
                1 | 2 => {
                    if let Some(id) = ac.try_admit(now, &spec) {
                        live.push((importance, id, expiry));
                    }
                }
                _ => {
                    let mut candidates: Vec<(Importance, TaskId)> = live
                        .iter()
                        .filter(|&&(imp, _, _)| imp < importance)
                        .map(|&(imp, id, _)| (imp, id))
                        .collect();
                    candidates.sort_unstable();
                    let shed = match ac.try_admit_or_shed(now, &spec) {
                        AdmitOutcome::Admitted(id) => {
                            live.push((importance, id, expiry));
                            Vec::new()
                        }
                        AdmitOutcome::AdmittedAfterShedding { task, shed } => {
                            live.push((importance, task, expiry));
                            shed
                        }
                        // Everything less important went and stays gone.
                        AdmitOutcome::Rejected => candidates.iter().map(|&(_, id)| id).collect(),
                    };
                    let expected: Vec<TaskId> =
                        candidates.iter().take(shed.len()).map(|&(_, id)| id).collect();
                    prop_assert_eq!(&shed, &expected, "victims out of (importance, id) order");
                    live.retain(|&(_, id, _)| !shed.contains(&id));
                }
            }
            prop_assert_eq!(ac.live_tasks(), live.len());
        }
    }
}
