//! Seeded hazard: a `for` loop over a `HashMap` visits entries in an
//! order that differs between processes. Must fail `iter_over_hash_type`.

use std::collections::HashMap;

fn main() {
    let m: HashMap<u32, u32> = (0..4).map(|k| (k, k * k)).collect();
    for (k, v) in &m {
        println!("{k} {v}");
    }
}
