//! Shared plumbing for the experiment binaries (`src/bin/exp_*.rs`).
//!
//! Every experiment in DESIGN.md §5 has a binary in `src/bin/` that regenerates it and
//! prints a markdown table. The binaries are written against the scenario runner in
//! `clb::scenario` ([`clb::scenario::Scenario`] / [`clb::scenario::Sweep`]), which owns
//! the header printing, trial counts and quick-mode handling that used to be
//! copy-pasted here; this crate only re-exports the handful of helpers so older
//! call sites keep compiling.
//!
//! The binaries honour one environment variable:
//!
//! * `CLB_QUICK=1` — shrink sweeps and trial counts by roughly 4× so every binary
//!   finishes in a couple of seconds (useful in CI).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use clb::scenario::{default_trials as trials, n_sweep, quick_mode};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_increasing_powers_of_two() {
        let sweep = n_sweep();
        assert!(sweep.len() >= 3);
        for w in sweep.windows(2) {
            assert_eq!(w[1], w[0] * 2);
        }
    }

    #[test]
    fn trials_is_positive() {
        assert!(trials() > 0);
    }
}
