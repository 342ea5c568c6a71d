//! The benchmark's only wall-clock source.
//!
//! Every timing in this package is a difference of two [`now_ns`] readings, so the
//! clock is read in exactly one place (which keeps the `clb-audit` wall-clock
//! allowances to this file). Readings never feed a simulation result.

use std::sync::OnceLock;

/// Nanoseconds elapsed since the first call in this process (monotonic).
pub fn now_ns() -> u64 {
    // clb-audit: allow(wall-clock) -- benchmark timing only, never feeds results
    static ORIGIN: OnceLock<std::time::Instant> = OnceLock::new();
    // clb-audit: allow(wall-clock) -- benchmark timing only, never feeds results
    let origin = ORIGIN.get_or_init(std::time::Instant::now);
    u64::try_from(origin.elapsed().as_nanos()).expect("a benchmark run lasts less than 584 years")
}

/// Runs `f` and returns its result with the nanoseconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let start = now_ns();
    let out = f();
    (out, now_ns() - start)
}
