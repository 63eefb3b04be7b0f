//! # lcm-bench — benchmark harness for the LCM reproduction
//!
//! Two entry points:
//!
//! * the **`repro` binary** (`cargo run -p lcm-bench --release --bin repro`)
//!   regenerates every table and figure of the paper (Table 1, Figures
//!   2–3, the §6.3 prose claims, and the §7 ablations) in simulated
//!   cycles, printing paper reference values alongside;
//! * the **Criterion benches** (`cargo bench -p lcm-bench`) measure the
//!   host-side cost of the simulator on the same workloads, one bench
//!   per table/figure, for tracking the reproduction itself.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod critpath;
pub mod explore;
pub mod profile;
pub mod report;
pub mod svg;
pub mod sweep;

pub use svg::BarChart;
pub use sweep::{BenchReport, SectionTiming, SweepEngine, SweepKey};

/// Formats a cycle count with thousands separators for bench output.
pub fn cycles(x: u64) -> String {
    let s = x.to_string();
    let mut out = String::new();
    for (i, ch) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(ch);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_formats_groups() {
        assert_eq!(cycles(0), "0");
        assert_eq!(cycles(999), "999");
        assert_eq!(cycles(1000), "1,000");
        assert_eq!(cycles(1234567), "1,234,567");
    }
}
