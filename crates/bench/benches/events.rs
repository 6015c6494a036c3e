//! Event-core microbenchmarks: the two-tier queue operations on the
//! simulator's hot path (`push`, `push_deadline`, `pop`, and the
//! `pop_at_or_before` fast path used by the pipeline loop).

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use frap_core::time::Time;
use frap_sim::events::{EventQueue, Fired};
use std::hint::black_box;

/// A deterministic pseudo-random schedule of event times (microseconds).
fn schedule(n: usize) -> Vec<(Time, u64)> {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    (0..n)
        .map(|i| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (Time::from_micros(x % 1_000_000), i as u64)
        })
        .collect()
}

/// Fills a queue the way a simulation does: every fourth entry is a
/// payload-carrying event, the rest are parked deadlines.
fn fill(q: &mut EventQueue<u64>, events: &[(Time, u64)]) {
    for &(t, e) in events {
        if e % 4 == 0 {
            q.push(t, e);
        } else {
            q.push_deadline(t);
        }
    }
}

fn fired_value(fired: Fired<u64>) -> u64 {
    match fired {
        Fired::Event(e) => e,
        Fired::Deadline => 1,
    }
}

fn push_pop(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    for n in [1_000usize, 10_000] {
        let events = schedule(n);
        group.bench_with_input(BenchmarkId::new("push_then_drain", n), &n, |b, _| {
            b.iter(|| {
                let mut q = EventQueue::with_capacity(events.len(), events.len());
                fill(&mut q, &events);
                let mut out = 0u64;
                while let Some((_, fired)) = q.pop() {
                    out = out.wrapping_add(fired_value(fired));
                }
                black_box(out)
            });
        });
        group.bench_with_input(BenchmarkId::new("drain_bounded", n), &n, |b, _| {
            b.iter_batched(
                || {
                    let mut q = EventQueue::new();
                    fill(&mut q, &events);
                    q
                },
                |mut q| {
                    // Drain in 100 µs windows, the way the pipeline loop
                    // interleaves queue events with arrivals.
                    let mut out = 0u64;
                    let mut bound = Time::from_micros(100);
                    loop {
                        while let Some((_, fired)) = q.pop_at_or_before(bound) {
                            out = out.wrapping_add(fired_value(fired));
                        }
                        if q.is_empty() {
                            break;
                        }
                        bound += frap_core::time::TimeDelta::from_micros(100);
                    }
                    black_box(out)
                },
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

criterion_group!(benches, push_pop);
criterion_main!(benches);
