//! The demand view: what the admission test reads of an arrival, borrowed.
//!
//! The paper's controller needs three things from a task — its relative
//! deadline `D_i`, its per-stage demands `C_ij`, and (at overload) its
//! semantic importance — to "add `C_ij / D_i`, test, revert". A
//! [`DemandView`] is exactly that triple, lent without copying from
//! wherever demands live: a plain chain's packed stage-and-demand words,
//! any other [`TaskSpec`]'s precomputed per-stage totals, or the flat
//! microseconds-per-stage slice a transport decoded off a frame
//! ([`WireTaskSpec`]'s form). Every
//! [`ContributionModel`](crate::admission::ContributionModel) is written
//! against the view, so a front end decides on the demands it read
//! without building a task graph first, and all three lenders charge the
//! same units to the bit.

use crate::graph::{unpack, TaskSpec};
use crate::task::{Importance, StageId};
use crate::time::TimeDelta;
use crate::wire::WireTaskSpec;

/// Where a view's demands are borrowed from.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Demands<'a> {
    /// A plain chain's words, each a stage and its demand, ascending by
    /// stage — one slice whether the graph keeps them inline or shared.
    Packed(&'a [u32]),
    /// Any other task graph's per-stage totals, ascending by stage.
    Merged(&'a [(StageId, TimeDelta)]),
    /// Pipeline wire form: entry `j` is the microseconds asked of stage `j`.
    PipelineUs(&'a [u64]),
}

/// An arrival as the admission test sees it: deadline, importance and
/// the demand on each stage the task uses, one entry per stage in
/// ascending stage order.
///
/// # Examples
///
/// ```
/// use frap_core::demand::DemandView;
/// use frap_core::graph::TaskSpec;
/// use frap_core::task::Importance;
/// use frap_core::time::TimeDelta;
///
/// let ms = TimeDelta::from_millis;
/// let spec = TaskSpec::pipeline(ms(100), &[ms(5), ms(10)])?;
/// let wire = DemandView::pipeline(ms(100), Importance::LOWEST, &[5_000, 10_000]);
/// let (mut lent_by_spec, mut lent_by_wire) = (Vec::new(), Vec::new());
/// DemandView::from(&spec).map_into(&mut lent_by_spec, |stage, c| (stage, c));
/// wire.map_into(&mut lent_by_wire, |stage, c| (stage, c));
/// assert_eq!(lent_by_spec, lent_by_wire);
/// # Ok::<(), frap_core::error::GraphError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct DemandView<'a> {
    /// Relative end-to-end deadline `D_i`.
    pub deadline: TimeDelta,
    /// Semantic importance (for overload shedding).
    pub importance: Importance,
    demands: Demands<'a>,
}

impl<'a> DemandView<'a> {
    /// The view of a stage-ordered pipeline task whose subtask `j` asks
    /// `stage_demands_us[j]` microseconds of stage `j` — what
    /// [`WireTaskSpec::to_spec`] would build, without building it.
    #[inline]
    pub fn pipeline(
        deadline: TimeDelta,
        importance: Importance,
        stage_demands_us: &'a [u64],
    ) -> DemandView<'a> {
        DemandView {
            deadline,
            importance,
            demands: Demands::PipelineUs(stage_demands_us),
        }
    }

    /// Number of distinct stages the task uses (zero-demand ones count).
    #[inline]
    pub fn stages(&self) -> usize {
        match self.demands {
            Demands::Packed(words) => words.len(),
            Demands::Merged(d) => d.len(),
            Demands::PipelineUs(us) => us.len(),
        }
    }

    /// Appends `f(stage, C_ij)` to `out` for each stage used, ascending
    /// by stage — the one walk over a view's demands, which every
    /// contribution vector is a map of. The lender is matched once,
    /// outside the loop, so every form extends `out` as a plain slice
    /// walk of known length.
    #[inline]
    pub fn map_into<T>(&self, out: &mut Vec<T>, f: impl Fn(StageId, TimeDelta) -> T) {
        match self.demands {
            Demands::Packed(words) => out.extend(words.iter().map(|&word| {
                let (stage, c) = unpack(word);
                f(stage, c)
            })),
            Demands::Merged(d) => out.extend(d.iter().map(|&(stage, c)| f(stage, c))),
            Demands::PipelineUs(us) => out.extend(
                us.iter()
                    .enumerate()
                    .map(|(j, &c)| f(StageId::new(j), TimeDelta::from_micros(c))),
            ),
        }
    }
}

impl<'a> From<&'a TaskSpec> for DemandView<'a> {
    #[inline]
    fn from(spec: &'a TaskSpec) -> DemandView<'a> {
        DemandView {
            deadline: spec.deadline,
            importance: spec.importance,
            demands: spec.graph.demands(),
        }
    }
}

impl<'a> From<&'a WireTaskSpec> for DemandView<'a> {
    #[inline]
    fn from(wire: &'a WireTaskSpec) -> DemandView<'a> {
        DemandView::pipeline(
            TimeDelta::from_micros(wire.deadline_us),
            Importance::new(wire.importance),
            &wire.stage_demands_us,
        )
    }
}
