//! Waiver rule: a waiver must say why the hazard is sound. Must fail
//! `allow_attributes_without_reason`.

use std::collections::HashMap;

fn main() {
    let m: HashMap<u32, u32> = (0..4).map(|k| (k, k * k)).collect();
    #[expect(clippy::iter_over_hash_type)]
    for (k, v) in &m {
        println!("{k} {v}");
    }
}
