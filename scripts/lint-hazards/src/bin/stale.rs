//! Waiver rule: an expectation whose lint no longer fires must fail as
//! unfulfilled, so a waiver cannot outlive its hazard.

fn main() {
    let v: Vec<u32> = (0..4).collect();
    #[expect(
        clippy::iter_over_hash_type,
        reason = "the loop once walked a hash map"
    )]
    for x in &v {
        println!("{x}");
    }
}
