//! Synthetic-utilization ledger operation costs on one stage: the
//! bookkeeping the admission controller performs on every arrival,
//! deadline, and idle reset.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use frap_core::synthetic::SyntheticState;
use frap_core::task::{StageId, TaskId};
use frap_core::time::{Time, TimeDelta};
use std::hint::black_box;

/// The ledger's one stage.
const ONLY: StageId = StageId::new(0);

/// Add + expire churn at various live-set sizes.
fn tracker_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("tracker_add_expire");
    for live in [100u64, 10_000] {
        group.bench_with_input(BenchmarkId::from_parameter(live), &live, |b, &live| {
            let mut st = SyntheticState::new(1);
            let lifetime = TimeDelta::from_micros(live); // keeps ~live entries live
            let mut t = 0u64;
            // Warm up to steady state.
            for _ in 0..live {
                t += 1;
                st.add_task(
                    TaskId::new(t),
                    &[(ONLY, 1e-6)],
                    Time::from_micros(t) + lifetime,
                );
            }
            b.iter(|| {
                t += 1;
                st.advance_to(Time::from_micros(t));
                st.add_task(
                    TaskId::new(t),
                    &[(ONLY, 1e-6)],
                    Time::from_micros(t) + lifetime,
                );
                black_box(st.stage(ONLY).value())
            });
        });
    }
    group.finish();
}

/// The idle reset: removing all departed contributions at once.
fn tracker_idle_reset(c: &mut Criterion) {
    let mut group = c.benchmark_group("tracker_idle_reset");
    for departed in [10u64, 1_000] {
        group.bench_with_input(
            BenchmarkId::from_parameter(departed),
            &departed,
            |b, &departed| {
                b.iter_batched(
                    || {
                        let mut st = SyntheticState::with_reservations(&[0.1]);
                        for i in 0..departed {
                            st.add_task(TaskId::new(i), &[(ONLY, 1e-6)], Time::from_secs(1_000));
                            st.mark_departed(ONLY, TaskId::new(i));
                        }
                        st
                    },
                    |mut st| black_box(st.reset_idle(ONLY)),
                    criterion::BatchSize::SmallInput,
                );
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = tracker_churn, tracker_idle_reset
}
criterion_main!(benches);
