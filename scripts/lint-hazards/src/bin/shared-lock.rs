//! Seeded hazard: a lock around state that has one owner. Must fail as
//! a disallowed type `std::sync::Mutex`.

use std::sync::Mutex;

fn main() {
    let memo = Mutex::new(Vec::<u32>::new());
    if let Ok(mut entries) = memo.lock() {
        entries.push(1);
    }
    println!("{memo:?}");
}
