// lint-fixture: path = crates/obs/src/fake_index.rs
//! D2's two arms under an allowlisted path: obs may read clocks, but a
//! hash collection is banned there like everywhere else (its iteration
//! order would leak into "deterministic" output).

use std::collections::HashMap; //~ D2
use std::time::Instant;

pub fn stamp() -> Instant {
    Instant::now()
}

pub fn by_name() -> HashMap<String, u64> { //~ D2
    HashMap::new() //~ D2
}

#[cfg(test)]
mod tests {
    #[test]
    fn hash_collections_are_fine_in_tests() {
        let _ = std::collections::HashSet::<u32>::new();
    }
}
