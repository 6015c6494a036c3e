//! The demand view is the spec, to the unit: a view lent from wire-form
//! demands and a view lent from the [`TaskSpec`] those demands expand to
//! charge identical fixed-point units through every contribution model —
//! the units the float path (`contributions_into`, then
//! `fp_contributions_into`) arrives at. This is what lets a transport
//! decide on the demands it decoded without building the task first.

use frap_core::admission::{
    ContributionModel, ExactContributions, MeanContributions, SplitDeadlineContributions,
};
use frap_core::demand::DemandView;
use frap_core::fixed::{fp_contributions_into, tentative_feasible_fp};
use frap_core::region::FeasibleRegion;
use frap_core::task::StageId;
use frap_core::time::TimeDelta;
use frap_core::wire::WireTaskSpec;
use proptest::prelude::*;

/// A pipeline task in wire form, edge cases included: a zero deadline,
/// stages demanding nothing, stages demanding more than the deadline.
fn wire_task() -> impl Strategy<Value = WireTaskSpec> {
    let stage = (0u8..6, 1u64..50_000);
    (
        0u8..8,
        1u64..1_000_000,
        proptest::collection::vec(stage, 1..=8),
        0u32..9,
    )
        .prop_map(|(roll, deadline_us, stages, importance)| {
            let deadline_us = if roll == 0 { 0 } else { deadline_us };
            let demand = |(roll, us): (u8, u64)| match roll {
                0 => 0,
                1 => deadline_us + us,
                _ => us,
            };
            WireTaskSpec {
                deadline_us,
                stage_demands_us: stages.into_iter().map(demand).collect(),
                importance,
            }
        })
}

/// The units `model` charges for `task`.
fn units(model: &dyn ContributionModel, task: DemandView<'_>) -> Vec<(StageId, u64)> {
    let mut out = Vec::new();
    model.units_into(&task, &mut out);
    out
}

proptest! {
    #[test]
    fn wire_lent_and_spec_lent_views_charge_the_float_paths_units(
        wire in wire_task(),
        means_us in proptest::collection::vec(0u64..40_000, 0..=8),
    ) {
        let spec = wire.to_spec().expect("at least one stage");
        let means = means_us.into_iter().map(TimeDelta::from_micros).collect();
        let models: [&dyn ContributionModel; 3] = [
            &ExactContributions,
            // Stages past the end of `means` are charged nothing.
            &MeanContributions::new(means),
            &SplitDeadlineContributions,
        ];
        for model in models {
            let mut floats = Vec::new();
            model.contributions_into(&spec, &mut floats);
            let mut expected = Vec::new();
            fp_contributions_into(&floats, &mut expected);
            let stages: Vec<StageId> = expected.iter().map(|&(stage, _)| stage).collect();
            prop_assert_eq!(&stages, &(0..wire.stages()).map(StageId::new).collect::<Vec<_>>());
            prop_assert_eq!(&units(model, (&wire).into()), &expected, "{:?}, wire-lent", model);
            prop_assert_eq!(&units(model, (&spec).into()), &expected, "{:?}, spec-lent", model);
        }
    }
}

#[test]
fn a_zero_deadline_saturates_and_can_never_fit() {
    let wire = WireTaskSpec {
        deadline_us: 0,
        stage_demands_us: vec![5, 0],
        importance: 0,
    };
    // 5 µs of a zero deadline is an infinite contribution: every unit
    // there is; nothing of nothing is nothing.
    let charged = units(&ExactContributions, (&wire).into());
    assert_eq!(charged, [(StageId::new(0), u64::MAX), (StageId::new(1), 0)]);
    // Saturating, so the overlay rejects even on an empty system instead
    // of wrapping around to a vector that fits.
    let region = FeasibleRegion::deadline_monotonic(2);
    assert!(!tentative_feasible_fp(
        &region,
        &[0, 0],
        &charged,
        &mut Vec::new()
    ));
    assert!(!tentative_feasible_fp(
        &region,
        &[7, 7],
        &charged,
        &mut Vec::new()
    ));
}
