//! Fixture non-kernel crate: D/P/N rules must not apply here, but
//! metric registrations still feed rule M, the panic inventory (rule R)
//! is workspace-wide, and pragma hygiene (X002) is checked everywhere.
//! Never compiled.

pub fn report(sink: &mut MetricsSink) {
    let x: Option<u32> = None;
    let _ = x.unwrap();
    sink.counter("good_metric", 1);
    sink.counter("undocumented_metric", 1);
    sink.counter("prose_only_metric", 1);
}

pub fn undocumented_panic(x: Option<u32>) -> u32 {
    x.unwrap()
}

// simlint::allow(R001, reason = "fixture twin")
pub fn undocumented_panic_twin(x: Option<u32>) -> u32 {
    x.unwrap()
}

pub fn stale_pragma(x: Option<u32>) -> u32 {
    x.map_or(0, |v| v) // simlint::allow(P001, reason = "stale: the unwrap this excused is gone")
}

pub fn stale_pragma_acknowledged(x: Option<u32>) -> u32 {
    // simlint::allow(P001, reason = "stale but kept") simlint::allow(X002, reason = "fixture twin")
    x.map_or(0, |v| v)
}
