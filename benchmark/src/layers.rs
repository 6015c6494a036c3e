//! The layer replay: the traced run feeds the workload's own request
//! stream through each layer's public function in isolation, on one
//! thread, to obtain the `*_ns` rows of the per-layer ledger.
//!
//! Every row is the median over timed chunks, so one preempted chunk
//! does not move it. Nothing here reaches into a product crate's
//! internals: each function names the public call it times.

use crate::wire::Catalog;
use frap_core::admission::{ContributionModel, ExactContributions};
use frap_core::fixed::{fp_contributions_into, fp_from_utilization, tentative_feasible_fp_overlay};
use frap_core::graph::TaskSpec;
use frap_core::kernel::{FastVerdict, RegionKernel};
use frap_core::region::FeasibleRegion;
use frap_core::task::StageId;
use frap_core::time::TimeDelta;
use frap_gateway::proto::{
    encode_admit_response, BatchedFrame, DrainedAdmit, Frame, FrameBuffer, Verdict,
};
use frap_service::{AdmissionService, BatchRequest, ManualClock, ServiceOutcome};
use frap_workload::PipelineWorkloadBuilder;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Frames per chunk in the codec rows: the gateway's window.
const CHUNK: usize = 40;

/// Time budget of one replay row.
#[derive(Debug, Clone, Copy)]
pub struct Replay {
    budget: Duration,
}

impl Replay {
    pub fn new(budget: Duration) -> Replay {
        Replay { budget }
    }

    /// Runs `chunk` (which performs `ops` operations and returns the time
    /// they took) until the budget is spent, at least five times, and
    /// returns the median nanoseconds per operation.
    pub fn ns_per_op(&self, ops: u64, mut chunk: impl FnMut() -> Duration) -> f64 {
        let started = Instant::now();
        let mut per_op = Vec::new();
        // One untimed pass warms caches and lazy set-up.
        let _ = chunk();
        while per_op.len() < 5 || (started.elapsed() < self.budget && per_op.len() < 100_000) {
            per_op.push(chunk().as_nanos() as f64 / ops as f64);
        }
        crate::stats::median(&per_op)
    }
}

fn timed(f: impl FnOnce()) -> Duration {
    let t = Instant::now();
    f();
    t.elapsed()
}

type ManualService = AdmissionService<FeasibleRegion, ExactContributions, ManualClock>;

fn manual_service(stages: usize) -> ManualService {
    AdmissionService::builder(
        FeasibleRegion::deadline_monotonic(stages),
        ExactContributions,
    )
    .clock(ManualClock::new())
    .shards(1)
    .build()
}

/// Fills `service` with detached admissions from the catalog until 256
/// consecutive arrivals are rejected: the state a reject-heavy run sits
/// in. The manual clock never advances, so nothing expires mid-replay.
fn saturate(service: &ManualService, specs: &[TaskSpec]) {
    let mut rejected_in_a_row = 0;
    for spec in specs.iter().cycle() {
        match service.try_admit(spec) {
            Some(ticket) => {
                ticket.detach();
                rejected_in_a_row = 0;
            }
            None => rejected_in_a_row += 1,
        }
        if rejected_in_a_row == 256 {
            break;
        }
    }
}

fn stages_of(catalog: &Catalog) -> usize {
    catalog.wire[0].stages()
}

/// `Frame::encode_admit_request_into`: the field-by-field request encoder.
pub fn gateway_encode_req_generic_ns(replay: &Replay, catalog: &Catalog) -> f64 {
    let mut buf = Vec::with_capacity(CHUNK * 128);
    let mut i = 0usize;
    replay.ns_per_op(CHUNK as u64, || {
        buf.clear();
        timed(|| {
            for k in 0..CHUNK {
                let task = &catalog.wire[(i + k) % catalog.len()];
                Frame::encode_admit_request_into(i as u64, 1 << 40, false, task, &mut buf);
            }
            i += CHUNK;
            black_box(&buf);
        })
    })
}

/// `FrameBuffer::extend` + `next_frame_into` over 40-frame chunks: the
/// server's request decode.
pub fn gateway_decode_req_ns(replay: &Replay, catalog: &Catalog) -> f64 {
    let chunks: Vec<Vec<u8>> = catalog
        .prepared
        .chunks(CHUNK)
        .filter(|c| c.len() == CHUNK)
        .map(|c| c.iter().flat_map(|p| p.bytes().iter().copied()).collect())
        .collect();
    let mut fb = FrameBuffer::new();
    let mut arena: Vec<u64> = Vec::new();
    let mut i = 0usize;
    replay.ns_per_op(CHUNK as u64, || {
        let bytes = &chunks[i % chunks.len()];
        i += 1;
        timed(|| {
            fb.extend(bytes);
            arena.clear();
            while let Some(frame) = fb.next_frame_into(&mut arena).expect("valid frames") {
                match frame {
                    BatchedFrame::Admit(head) => {
                        black_box(head);
                    }
                    BatchedFrame::Other(_) => unreachable!("only admit requests were encoded"),
                }
            }
        })
    })
}

fn reply_verdict(admits: bool, k: u64) -> Verdict {
    if admits {
        Verdict::Admitted { ticket_id: k }
    } else {
        Verdict::Rejected
    }
}

/// `encode_admit_response`: the server's interned-template reply encoder.
pub fn gateway_encode_resp_ns(replay: &Replay, admits: bool) -> f64 {
    let mut out: Vec<u8> = Vec::with_capacity(CHUNK * 32);
    let mut id = 0u64;
    replay.ns_per_op(CHUNK as u64, || {
        out.clear();
        timed(|| {
            for _ in 0..CHUNK {
                id += 1;
                let (bytes, len) = encode_admit_response(black_box(id), reply_verdict(admits, id));
                out.extend_from_slice(&bytes[..len]);
            }
            black_box(&out);
        })
    })
}

/// `FrameBuffer::next_admit_response`: the client's reply decode.
pub fn gateway_decode_resp_ns(replay: &Replay, admits: bool) -> f64 {
    let mut bytes = Vec::new();
    for k in 0..CHUNK as u64 {
        let (b, len) = encode_admit_response(k, reply_verdict(admits, k));
        bytes.extend_from_slice(&b[..len]);
    }
    let mut fb = FrameBuffer::new();
    replay.ns_per_op(CHUNK as u64, || {
        timed(|| {
            fb.extend(&bytes);
            loop {
                match fb.next_admit_response().expect("valid replies") {
                    DrainedAdmit::Admit { req_id, verdict } => {
                        black_box((req_id, verdict));
                    }
                    DrainedAdmit::Pending => break,
                    DrainedAdmit::Other(_) => unreachable!("only admit replies were encoded"),
                }
            }
        })
    })
}

/// `AdmissionService::admit_batch_into` with 40 requests naming one
/// shard — what one gateway wake hands the service. `saturated` replays
/// against a full region (the reject prefix); otherwise against an empty
/// one, releasing the admitted tickets outside the timed section.
pub fn service_batch40_ns(replay: &Replay, catalog: &Catalog, saturated: bool) -> f64 {
    let service = manual_service(stages_of(catalog));
    if saturated {
        saturate(&service, &catalog.specs);
    }
    let mut out: Vec<ServiceOutcome> = Vec::with_capacity(CHUNK);
    let mut i = 0usize;
    replay.ns_per_op(CHUNK as u64, || {
        let requests: Vec<BatchRequest<'_>> = (0..CHUNK)
            .map(|k| BatchRequest::new(&catalog.specs[(i + k) % catalog.len()]).on_shard(0))
            .collect();
        i += CHUNK;
        let took = timed(|| service.admit_batch_into(&requests, &mut out));
        out.clear(); // dropping the outcomes releases what was admitted
        took
    })
}

/// Single-thread `AdmissionService::try_admit` call time: against a full
/// region (`saturated`, every call rejects) or an empty one (every call
/// admits; tickets are released outside the timed section).
pub fn service_try_admit_ns(replay: &Replay, catalog: &Catalog, saturated: bool) -> f64 {
    let service = manual_service(stages_of(catalog));
    let mut i = 0usize;
    if saturated {
        saturate(&service, &catalog.specs);
        return replay.ns_per_op(64, || {
            timed(|| {
                for _ in 0..64 {
                    i += 1;
                    black_box(service.try_admit(&catalog.specs[i % catalog.len()]));
                }
            })
        });
    }
    // Four at a time: small enough that every call admits.
    let mut held = Vec::with_capacity(4);
    replay.ns_per_op(4, || {
        let took = timed(|| {
            for _ in 0..4 {
                i += 1;
                held.push(service.try_admit(&catalog.specs[i % catalog.len()]));
            }
        });
        held.clear();
        took
    })
}

/// `AdmissionService::release_by_id` on detached tickets — the path a
/// gateway `Release` frame ends in.
pub fn service_release_by_id_ns(replay: &Replay, catalog: &Catalog) -> f64 {
    let service = manual_service(stages_of(catalog));
    let mut i = 0usize;
    let mut ids = Vec::with_capacity(4);
    replay.ns_per_op(4, || {
        ids.clear();
        let mut tries = 0;
        while ids.len() < 4 {
            i += 1;
            tries += 1;
            if let Some(ticket) = service.try_admit(&catalog.specs[i % catalog.len()]) {
                ids.push(ticket.detach());
            } else if tries % 64 == 0 {
                // A few large tasks can fill the region before four fit:
                // start over rather than wait for one that never comes.
                for id in ids.drain(..) {
                    service.release_by_id(id);
                }
            }
        }
        timed(|| {
            for &id in &ids {
                black_box(service.release_by_id(id));
            }
        })
    })
}

/// `AdmissionTicket::release` — what an in-process caller pays.
pub fn service_ticket_release_ns(replay: &Replay, specs: &[TaskSpec]) -> f64 {
    let service = manual_service(specs[0].graph.len());
    let mut i = 0usize;
    let mut held = Vec::with_capacity(4);
    replay.ns_per_op(4, || {
        let mut tries = 0;
        while held.len() < 4 {
            i += 1;
            tries += 1;
            if let Some(ticket) = service.try_admit(&specs[i % specs.len()]) {
                held.push(ticket);
            } else if tries % 64 == 0 {
                held.clear(); // as in `service_release_by_id_ns`
            }
        }
        timed(|| {
            for ticket in held.drain(..) {
                ticket.release();
            }
        })
    })
}

/// `AdmissionService::maintain` with 256 due entries, per expiry.
pub fn service_maintain_ns_per_expiry(replay: &Replay, catalog: &Catalog) -> f64 {
    const DUE: usize = 256;
    let stages = stages_of(catalog);
    let service = manual_service(stages);
    // Tiny tasks so all 256 fit the region at once.
    let us = TimeDelta::from_micros;
    let spec = TaskSpec::pipeline(us(10_000), &vec![us(1); stages]).expect("valid pipeline");
    replay.ns_per_op(DUE as u64, || {
        for _ in 0..DUE {
            service
                .try_admit(&spec)
                .expect("256 tiny tasks fit the region")
                .detach();
        }
        service.clock().advance(us(20_000));
        let mut expired = 0;
        let took = timed(|| expired = service.maintain());
        assert_eq!(expired, DUE as u64, "every entry was due");
        took
    })
}

/// `AdmissionService::snapshot` on a service holding a region's worth of
/// live entries.
pub fn service_snapshot_ns(replay: &Replay, catalog: &Catalog) -> f64 {
    let service = manual_service(stages_of(catalog));
    saturate(&service, &catalog.specs);
    replay.ns_per_op(16, || {
        timed(|| {
            for _ in 0..16 {
                black_box(service.snapshot());
            }
        })
    })
}

fn float_contributions(specs: &[TaskSpec]) -> Vec<Vec<(StageId, f64)>> {
    specs
        .iter()
        .map(|spec| {
            let mut out = Vec::new();
            ExactContributions.contributions_into(spec, &mut out);
            out
        })
        .collect()
}

/// `fixed::tentative_feasible_fp_overlay`: the lock-free decision's
/// region test over fixed-point units, against a half-full region.
pub fn core_fp_overlay_ns(replay: &Replay, catalog: &Catalog) -> f64 {
    let stages = stages_of(catalog);
    let region = FeasibleRegion::deadline_monotonic(stages);
    let half = region.max_equal_utilization() / 2.0;
    let current: Vec<u64> = vec![fp_from_utilization(half); stages];
    let contributions = float_contributions(&catalog.specs);
    let (mut units, mut floats) = (Vec::new(), Vec::new());
    let mut i = 0usize;
    replay.ns_per_op(256, || {
        timed(|| {
            for _ in 0..256 {
                i += 1;
                black_box(tentative_feasible_fp_overlay(
                    &region,
                    black_box(&current),
                    &contributions[i % contributions.len()],
                    &mut units,
                    &mut floats,
                ));
            }
        })
    })
}

/// `fixed::fp_contributions_into`: float contributions to merged
/// fixed-point demands, once per admitted task.
pub fn core_fp_convert_ns(replay: &Replay, catalog: &Catalog) -> f64 {
    let contributions = float_contributions(&catalog.specs);
    let mut out = Vec::new();
    let mut i = 0usize;
    replay.ns_per_op(256, || {
        timed(|| {
            for _ in 0..256 {
                i += 1;
                fp_contributions_into(black_box(&contributions[i % contributions.len()]), &mut out);
                black_box(&out);
            }
        })
    })
}

/// `RegionKernel::feasible` over recorded utilization vectors.
pub fn core_kernel_ns(replay: &Replay, kernel: &RegionKernel, inputs: &[Vec<f64>]) -> f64 {
    let mut i = 0usize;
    replay.ns_per_op(256, || {
        timed(|| {
            for _ in 0..256 {
                i += 1;
                black_box(kernel.feasible(black_box(&inputs[i % inputs.len()])));
            }
        })
    })
}

/// Utilization vectors straddling the `stages`-stage region boundary:
/// a per-seed random direction scaled so `Σ f(U_j)` lands within
/// ±10⁻⁷ … ±10⁻² of the budget, both sides.
pub fn boundary_inputs(region: &FeasibleRegion, seed: u64, count: usize) -> Vec<Vec<f64>> {
    let stages = region.stages();
    let mut rng = frap_workload::Rng::new(seed);
    (0..count)
        .map(|k| {
            let direction: Vec<f64> = (0..stages).map(|_| 0.5 + rng.next_f64()).collect();
            let value = |scale: f64| {
                let v: Vec<f64> = direction.iter().map(|d| d * scale).collect();
                region.value(&v).unwrap_or(f64::INFINITY)
            };
            // Bisect the scale that puts the vector on the boundary.
            let (mut lo, mut hi) = (0.0f64, 0.6f64);
            for _ in 0..60 {
                let mid = (lo + hi) / 2.0;
                if value(mid) <= region.budget() {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            let offset = 10f64.powi(-2 - (k % 6) as i32) * if k % 2 == 0 { 1.0 } else { -1.0 };
            direction.iter().map(|d| d * lo * (1.0 + offset)).collect()
        })
        .collect()
}

/// Share of `inputs` the f32 kernel cannot decide (`NearBoundary` or
/// `Ineligible`) and hands to the exact scalar sum.
pub fn kernel_fallback_share(kernel: &RegionKernel, inputs: &[Vec<f64>]) -> f64 {
    let fallbacks = inputs
        .iter()
        .filter(|v| {
            matches!(
                kernel.classify(v),
                FastVerdict::NearBoundary | FastVerdict::Ineligible
            )
        })
        .count();
    fallbacks as f64 / inputs.len().max(1) as f64
}

/// `PipelineWorkloadBuilder … .specs()`: request generation speed.
pub fn workload_specs_per_s(replay: &Replay, builder: PipelineWorkloadBuilder) -> f64 {
    const N: usize = 4096;
    let ns = replay.ns_per_op(N as u64, || {
        timed(|| {
            black_box(builder.clone().build().specs().take(N).count());
        })
    });
    1e9 / ns
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog(mean_ms: f64, resolution: f64) -> Catalog {
        Catalog::from_specs(
            PipelineWorkloadBuilder::new(3)
                .mean_computation_ms(mean_ms)
                .resolution(resolution)
                .load(2.0)
                .seed(1)
                .build()
                .specs()
                .take(4096)
                .collect(),
        )
    }

    /// Every replay row terminates and reads a positive time on both a
    /// reject-shaped catalog (a few of whose tasks fill the region on
    /// their own) and an admit-shaped one.
    #[test]
    fn every_row_terminates_with_a_positive_reading() {
        let replay = Replay::new(Duration::from_millis(2));
        for cat in [catalog(10.0, 10.0), catalog(0.2, 100.0)] {
            let rows = [
                gateway_encode_req_generic_ns(&replay, &cat),
                gateway_decode_req_ns(&replay, &cat),
                gateway_encode_resp_ns(&replay, true),
                gateway_decode_resp_ns(&replay, false),
                service_batch40_ns(&replay, &cat, true),
                service_batch40_ns(&replay, &cat, false),
                service_try_admit_ns(&replay, &cat, true),
                service_try_admit_ns(&replay, &cat, false),
                service_release_by_id_ns(&replay, &cat),
                service_ticket_release_ns(&replay, &cat.specs),
                service_maintain_ns_per_expiry(&replay, &cat),
                service_snapshot_ns(&replay, &cat),
                core_fp_overlay_ns(&replay, &cat),
                core_fp_convert_ns(&replay, &cat),
            ];
            for (k, ns) in rows.iter().enumerate() {
                assert!(ns.is_finite() && *ns > 0.0, "row {k} read {ns}");
            }
        }
    }

    #[test]
    fn boundary_inputs_straddle_the_boundary() {
        let region = FeasibleRegion::deadline_monotonic(64);
        let inputs = boundary_inputs(&region, 3, 64);
        let inside = inputs
            .iter()
            .filter(|v| region.contains(v).unwrap())
            .count();
        assert!(inside > 8 && inside < 56, "{inside} of 64 inside");
        let share = kernel_fallback_share(&region.kernel(), &inputs);
        assert!(share > 0.0 && share < 1.0, "fallback share {share}");
        let ns = core_kernel_ns(
            &Replay::new(Duration::from_millis(2)),
            &region.kernel(),
            &inputs,
        );
        assert!(ns > 0.0);
    }
}
