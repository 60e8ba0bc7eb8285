//! Waiver rule: a plain `allow` would go on passing after its hazard is
//! gone, so waivers must be `expect`s. Must fail `allow_attributes`.

use std::collections::HashMap;

fn main() {
    let m: HashMap<u32, u32> = (0..4).map(|k| (k, k * k)).collect();
    #[allow(
        clippy::iter_over_hash_type,
        reason = "the printed order is not an output anyone reads"
    )]
    for (k, v) in &m {
        println!("{k} {v}");
    }
}
