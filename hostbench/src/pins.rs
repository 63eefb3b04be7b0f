//! The digest and simulated makespan every simulation point must
//! reproduce, pinned in `pins.txt` (`size/workload/benchmark/system`,
//! `RunResult::digest()` in hex, makespan in cycles). Regenerate with
//! `--print-pins` only for a change that is meant to move simulated
//! results.

use crate::Size;

const PINS: &str = include_str!("../pins.txt");

/// One `pins.txt` line.
pub fn line(size: Size, key: &str, digest: u64, time: u64) -> String {
    format!("{size}/{key} {digest:#018x} {time}")
}

/// Checks a run of point `key` against its pin.
pub fn check(size: Size, key: &str, digest: u64, time: u64) -> Result<(), String> {
    let full = format!("{size}/{key}");
    let Some(pin) = PINS
        .lines()
        .find(|l| l.split_whitespace().next() == Some(full.as_str()))
    else {
        return Err(format!("no pinned digest for {full}"));
    };
    let mut fields = pin.split_whitespace().skip(1);
    let want_digest = fields
        .next()
        .and_then(|d| u64::from_str_radix(d.trim_start_matches("0x"), 16).ok());
    let want_time = fields.next().and_then(|t| t.parse::<u64>().ok());
    match (want_digest, want_time) {
        (Some(d), Some(t)) if (d, t) == (digest, time) => Ok(()),
        (Some(d), Some(t)) => Err(format!(
            "digest {digest:#018x} makespan {time}; pinned {d:#018x} makespan {t}"
        )),
        _ => Err(format!("malformed pin {pin:?}")),
    }
}
