//! Fixture kernel crate: one injected violation per rule, each followed
//! by a pragma-suppressed twin. This file is only lexed by simlint's
//! integration tests; it is never compiled.
use std::collections::HashMap;

pub fn wall_clock() {
    let _t = Instant::now();
    let _u = Instant::now(); // simlint::allow(D001, reason = "fixture twin")
}

pub fn randomness() {
    let _r = rand::random();
    let _s = rand::random(); // simlint::allow(D002, reason = "fixture twin")
}

pub struct Table {
    pending: HashMap<u64, u64>,
}

impl Table {
    pub fn drain(&self) {
        let _a = self.pending.iter().count();
        let _b = self.pending.iter().count(); // simlint::allow(D003, reason = "fixture twin")
    }
}

pub fn panics(x: Option<u32>, xs: &[u32], i: usize) {
    let _a = x.unwrap();
    let _b = x.unwrap(); // simlint::allow(P001, reason = "fixture twin")
    let _c = x.expect("boom");
    let _d = x.expect("boom"); // simlint::allow(P002, reason = "fixture twin")
    panic!("boom");
    panic!("boom"); // simlint::allow(P003, reason = "fixture twin")
    let _e = xs[i + 1];
    let _f = xs[i + 1]; // simlint::allow(P004, reason = "fixture twin")
}

pub fn narrowing(cycle: u64) {
    let _lo = cycle as u32;
    let _hi = cycle as u32; // simlint::allow(N001, reason = "fixture twin")
}

pub fn malformed(x: Option<u32>) {
    let _g = x.unwrap(); // simlint::allow(P001)
}

#[cfg(test)]
mod tests {
    pub fn test_code_is_exempt(x: Option<u32>) {
        let _ = x.unwrap();
        let _t = Instant::now();
    }

    pub fn test_hash_binding(x: u64) {
        let mut last = std::collections::HashMap::new();
        last.insert(x, x);
    }
}

/// Shares a binding name with the test module's hash map above, which
/// must not taint it: draining this `Vec` is not a D003 finding.
pub fn drain_window(window: Vec<u64>) -> u64 {
    let mut last = window;
    last.drain(..).sum()
}
