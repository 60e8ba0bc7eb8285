//! Host-speed readings that rescale host time to a nominal host.
//!
//! The benchmark runs on a few shared cores whose speed changes with the
//! load of other tenants: a fixed compute loop ran up to ~1.4× slower
//! for seconds to minutes at a time, and the two vCPUs of a 2-vCPU VM
//! changed speed largely independently. Wall times of the same code then
//! spread by up to a third between runs.
//!
//! So every timed region is bracketed by readings of a fixed reference
//! loop that calls nothing of the program, and its wall time is
//! multiplied by [`NOMINAL_REF_MS`] ÷ the mean of the readings just
//! before and after it. The result is the time the region would take on
//! a host where the reference loop takes [`NOMINAL_REF_MS`]. A change to
//! the program moves the rescaled times in full, because the reference
//! loop does not run any of its code.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Time one reading of the reference loop takes on the nominal host. It
/// fixes the unit of every rescaled time, and is about what the loop
/// takes on a 2.1 GHz Xeon vCPU when nothing else contends.
pub const NOMINAL_REF_MS: f64 = 0.35;

/// Keys the reference loop hashes and sorts: enough to leave the L1
/// cache, as the planner's tables and the simulator's queues do.
const REF_ITEMS: usize = 4096;

/// Timed repetitions of the loop in one reading; the reading is their
/// median, so one preempted repetition does not move it.
const REF_REPS: usize = 5;

/// One run of the reference loop: allocation, hashing, a sort and
/// floating-point math, the kinds of work the planner and simulator do.
fn reference_loop() {
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let keys: Vec<u64> = (0..REF_ITEMS)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    // Fixed hash keys: the loop does the same work in every process.
    let index: HashMap<u64, usize, BuildHasherDefault<DefaultHasher>> =
        keys.iter().enumerate().map(|(i, &k)| (k, i)).collect();
    let mut values: Vec<f64> = keys
        .iter()
        .rev()
        .map(|k| index[k] as f64 * (*k >> 40) as f64)
        .collect();
    values.sort_by(f64::total_cmp);
    let folded = values.iter().fold(0.0_f64, |acc, v| (acc + v.sqrt()).sin());
    black_box(folded);
}

/// Wall milliseconds of the reference loop on one thread: the median of
/// [`REF_REPS`] timed runs.
fn thread_reading_ms() -> f64 {
    let mut reps: Vec<f64> = (0..REF_REPS)
        .map(|_| {
            let start = Instant::now();
            reference_loop();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    reps.sort_by(f64::total_cmp);
    reps[REF_REPS / 2]
}

/// One reading: the reference loop run on `threads` threads at once, and
/// the mean of their times. The vCPUs of the host change speed largely
/// independently, so a region that keeps several cores busy is rescaled
/// by a reading taken on as many.
pub fn reading_ms(threads: usize) -> f64 {
    if threads <= 1 {
        return thread_reading_ms();
    }
    let times: Vec<f64> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads).map(|_| s.spawn(thread_reading_ms)).collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("the reference loop does not panic"))
            .collect()
    });
    times.iter().sum::<f64>() / threads as f64
}

/// Readings taken between the timed regions of one run.
#[derive(Debug, Clone)]
pub struct HostSpeed {
    threads: usize,
    last_ms: f64,
    /// Every reading so far, in order.
    pub readings_ms: Vec<f64>,
}

impl HostSpeed {
    /// Takes the reading that opens the first timed region. `threads` is
    /// the number of cores the timed regions keep busy.
    pub fn start(threads: usize) -> Self {
        let first = reading_ms(threads);
        HostSpeed {
            threads,
            last_ms: first,
            readings_ms: vec![first],
        }
    }

    /// Closes the region timed since the previous reading: takes a new
    /// reading, which also opens the next region, and returns the factor
    /// that rescales the closed region's wall time to the nominal host.
    pub fn factor(&mut self) -> f64 {
        let now = reading_ms(self.threads);
        let factor = NOMINAL_REF_MS / ((self.last_ms + now) / 2.0);
        self.last_ms = now;
        self.readings_ms.push(now);
        factor
    }

    /// A note on the readings: how many, on how many threads, their
    /// median and their range.
    pub fn note(&self) -> String {
        let mut r = self.readings_ms.clone();
        r.sort_by(f64::total_cmp);
        format!(
            "host speed: {} reference readings on {} thread(s), median {:.4} ms (range {:.4}-{:.4}); host times are rescaled to {NOMINAL_REF_MS} ms per reading",
            r.len(),
            self.threads,
            crate::median(&r),
            r[0],
            r[r.len() - 1]
        )
    }
}
