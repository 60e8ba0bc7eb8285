//! Seeded hazard: a float sum over hash order depends on that order,
//! since float addition is not associative. Must fail as disallowed
//! `std::collections::HashMap::values`.

use std::collections::HashMap;

fn main() {
    let w: HashMap<u32, f64> = (0..4).map(|k| (k, 0.1 * f64::from(k))).collect();
    let total: f64 = w.values().sum();
    println!("{total}");
}
