//! The host-speed index: two fixed loops made of nothing but `std`, run in
//! short slices between the slices of a workload, so that a timed result
//! can be stated at the speed of a quiet reference box instead of at
//! whatever speed the shared host happened to run that minute.
//!
//! Why: the boxes this benchmark runs on are two virtual CPUs of a shared
//! host. For half a minute to several minutes at a time a neighbour slows
//! them — the gateway loop, the simulator, a bare loopback round trip and
//! a heap-and-slab loop all by 1.3–1.5×, a register-only loop by 1.03× —
//! and then they are fast again. A run lasts seconds, so it lands in one
//! regime or the other, and raw times of the same code come out bimodal.
//! Over 36 minutes of 30 s windows, raw `gw_reject` decisions/s ranged
//! over 35 % of their median (5th to 95th percentile: 23 %); divided by
//! the index measured in the same windows they ranged over 4.5 %
//! (interquartile range 1.4 %). The simulator: 35 % and 6.9 % (1.5 %).
//!
//! The loops never call the product, so no product change can move them.
//! They are part of the benchmark's definition, like a workload's
//! parameters: a PR that claims a gain must not edit them.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Round trips per second of [`KernelRef`] on the quiet reference box.
const KERNEL_NOMINAL_PER_S: f64 = 140_000.0;
/// Hold steps per second of [`UserRef`] on the quiet reference box.
const USER_NOMINAL_PER_S: f64 = 8_000_000.0;

/// Length of one reading of the index between slices of a workload.
pub const READING: Duration = Duration::from_millis(50);

/// Bytes one round trip sends: 40 admit requests' worth.
const OUT_BYTES: usize = 2400;
/// Bytes it gets back: 40 verdicts' worth.
const BACK_BYTES: usize = 800;

/// The kernel-heavy reference: a blocking loopback TCP round trip between
/// the calling thread and an echo thread — one write and one read on each
/// side and two context switches, the system-call pattern of one
/// window-40 gateway batch with no product code in it. The echo thread
/// inherits the caller's CPU mask, so pinned callers share their CPU with
/// it exactly as they share it with a gateway worker.
struct KernelRef {
    client: Option<TcpStream>,
    echo: Option<JoinHandle<()>>,
}

impl KernelRef {
    fn start() -> std::io::Result<KernelRef> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let echo = std::thread::Builder::new()
            .name("hostref-echo".into())
            .spawn(move || {
                let Ok((mut s, _)) = listener.accept() else {
                    return;
                };
                let _ = s.set_nodelay(true);
                let mut request = [0u8; OUT_BYTES];
                let reply = [0u8; BACK_BYTES];
                while s.read_exact(&mut request).is_ok() {
                    if s.write_all(&reply).is_err() {
                        break;
                    }
                }
            })?;
        let client = TcpStream::connect(addr)?;
        client.set_nodelay(true)?;
        Ok(KernelRef {
            client: Some(client),
            echo: Some(echo),
        })
    }

    /// Round trips per second over about `slice`.
    fn measure(&mut self, slice: Duration) -> std::io::Result<f64> {
        let client = self.client.as_mut().expect("open until dropped");
        let request = [0u8; OUT_BYTES];
        let mut reply = [0u8; BACK_BYTES];
        let started = Instant::now();
        let mut trips = 0u64;
        loop {
            for _ in 0..16 {
                client.write_all(&request)?;
                client.read_exact(&mut reply)?;
            }
            trips += 16;
            let elapsed = started.elapsed();
            if elapsed >= slice {
                return Ok(trips as f64 / elapsed.as_secs_f64());
            }
        }
    }
}

impl Drop for KernelRef {
    fn drop(&mut self) {
        // Closing the socket ends the echo thread's read; wait for it.
        drop(self.client.take());
        if let Some(echo) = self.echo.take() {
            let _ = echo.join();
        }
    }
}

/// Entries the user-code reference keeps in its heap.
const USER_ENTRIES: usize = 60_000;

/// The user-code reference: the classic *hold* loop of a discrete-event
/// simulator — pop the earliest entry of a binary heap, read and rewrite
/// its 32-byte record in a slab, push it back a pseudo-random delay later
/// — with no product code in it. About 3 MB of heap and slab, so it
/// misses the core's own caches the way an event queue with its task
/// records does (of the sizes tried — 2k, 20k, 60k and 200k entries — this
/// one slowed most nearly in step with the simulator). Keys advance by increments, so the heap's shape is
/// stationary, and nothing is allocated after construction: a slice
/// measured at the start of a run and one measured at its end differ only
/// by what the host did in between.
struct UserRef {
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    slab: Vec<[u64; 4]>,
    state: u64,
}

impl UserRef {
    fn new() -> UserRef {
        let mut r = UserRef {
            heap: BinaryHeap::with_capacity(USER_ENTRIES + 1),
            slab: vec![[0; 4]; USER_ENTRIES],
            state: 0x9E37_79B9_7F4A_7C15,
        };
        for slot in 0..USER_ENTRIES as u32 {
            let key = r.next_random() >> 40;
            r.heap.push(Reverse((key, slot)));
        }
        // Churn to the stationary shape before anything is measured.
        r.steps(2 * USER_ENTRIES as u64);
        r
    }

    #[inline]
    fn next_random(&mut self) -> u64 {
        self.state = self
            .state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.state
    }

    fn steps(&mut self, n: u64) {
        for _ in 0..n {
            let Some(Reverse((key, slot))) = self.heap.pop() else {
                return;
            };
            let delay = self.next_random() >> 40;
            let record = &mut self.slab[slot as usize];
            record[0] = record[0].wrapping_add(key);
            record[3] ^= delay;
            self.heap.push(Reverse((key + delay + 1, slot)));
        }
    }

    /// Hold steps per second over about `slice`.
    fn measure(&mut self, slice: Duration) -> f64 {
        let started = Instant::now();
        let mut steps = 0u64;
        loop {
            self.steps(2000);
            steps += 2000;
            let elapsed = started.elapsed();
            if elapsed >= slice {
                return steps as f64 / elapsed.as_secs_f64();
            }
        }
    }
}

/// Both references behind one number.
pub struct HostRef {
    kernel: KernelRef,
    user: UserRef,
}

impl HostRef {
    /// Starts the echo thread (on the caller's CPU mask: pin first),
    /// churns the heap to its stationary shape, and runs both loops for a
    /// tenth of a second unmeasured: a virtual CPU that has been idle runs
    /// its first 50–75 ms at about half speed, and a reading taken then
    /// would not describe the work that follows it.
    pub fn start() -> std::io::Result<HostRef> {
        let mut host = HostRef {
            kernel: KernelRef::start()?,
            user: UserRef::new(),
        };
        host.speed(2 * READING)?;
        Ok(host)
    }

    /// The host-speed index over about `slice`, half of it in each loop:
    /// the geometric mean of the two rates relative to their nominal
    /// rates. 1.0 is the quiet reference box; 0.7 means the host ran this
    /// kind of code at 0.7 of that speed just now.
    pub fn speed(&mut self, slice: Duration) -> std::io::Result<f64> {
        let kernel = self.kernel.measure(slice / 2)? / KERNEL_NOMINAL_PER_S;
        let user = self.user.measure(slice / 2) / USER_NOMINAL_PER_S;
        Ok((kernel * user).sqrt())
    }
}

/// Rates (higher is faster) measured while the host ran at `speed`,
/// restated at the quiet reference box's speed.
pub fn rates_at_nominal(raw: &[f64], speed: &[f64]) -> Vec<f64> {
    raw.iter().zip(speed).map(|(r, s)| r / s).collect()
}

/// Times or costs (lower is faster), likewise.
pub fn costs_at_nominal(raw: &[f64], speed: &[f64]) -> Vec<f64> {
    raw.iter().zip(speed).map(|(c, s)| c * s).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_reference_round_trips_and_stops() {
        let mut r = KernelRef::start().expect("loopback");
        let rate = r.measure(Duration::from_millis(20)).expect("echo");
        assert!(rate > 100.0, "{rate} round trips/s");
        drop(r); // joins the echo thread; a hang here fails the test run
    }

    #[test]
    fn a_host_at_half_speed_reads_the_same_at_nominal() {
        // The same code on a quiet host and on one running at half speed.
        let (quiet, slow) = ([1000.0, 40.0], [500.0, 80.0]);
        assert_eq!(rates_at_nominal(&quiet[..1], &[1.0]), vec![1000.0]);
        assert_eq!(rates_at_nominal(&slow[..1], &[0.5]), vec![1000.0]);
        assert_eq!(costs_at_nominal(&quiet[1..], &[1.0]), vec![40.0]);
        assert_eq!(costs_at_nominal(&slow[1..], &[0.5]), vec![40.0]);
    }

    #[test]
    fn the_index_is_positive_and_finite() {
        let mut h = HostRef::start().expect("loopback");
        let s = h.speed(Duration::from_millis(20)).expect("echo");
        assert!(s.is_finite() && s > 0.0, "{s}");
    }

    #[test]
    fn user_reference_keeps_its_size() {
        let mut r = UserRef::new();
        let rate = r.measure(Duration::from_millis(20));
        assert!(rate > 1000.0, "{rate} steps/s");
        assert_eq!(r.heap.len(), USER_ENTRIES);
    }
}
