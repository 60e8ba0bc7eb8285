//! Seeded hazard: a wall-clock read makes the output depend on when the
//! program runs. Must fail as disallowed `std::time::Instant::now`.

use std::time::Instant;

fn main() {
    let t0 = Instant::now();
    println!("{:?}", t0.elapsed());
}
