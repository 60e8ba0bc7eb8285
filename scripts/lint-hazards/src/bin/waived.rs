//! The seeded hazards under justified waivers, and a seeded generator:
//! must lint clean, proving the waiver path and the rules' precision.

use std::collections::HashMap;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let m: HashMap<u32, u32> = (0..4).map(|k| (k, k * k)).collect();
    let mut total = 0;
    #[expect(
        clippy::iter_over_hash_type,
        reason = "a sum of integers is the same in any order"
    )]
    for (k, v) in &m {
        total += k + v;
    }
    #[expect(
        clippy::disallowed_methods,
        reason = "the elapsed time is printed, never compared"
    )]
    let t0 = Instant::now();
    #[expect(
        clippy::disallowed_methods,
        reason = "the largest value is the same in any order"
    )]
    let top = m.values().max();
    let mut rng = StdRng::seed_from_u64(7);
    println!("{total} {top:?} {} {:?}", rng.gen::<f64>(), t0.elapsed());
}
