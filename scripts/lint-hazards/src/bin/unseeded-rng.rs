//! Seeded hazard: randomness from an unseeded generator cannot be
//! replayed. The vendored `rand` offers only seeded generators, so this
//! must fail to compile: `thread_rng` does not exist.

use rand::Rng;

fn main() {
    let mut rng = rand::thread_rng();
    println!("{}", rng.gen::<f64>());
}
