//! Deterministic network fault injection.
//!
//! The paper's protocols run over Blizzard-E's messaging on a CM-5, where
//! the *runtime* — not the hardware — must tolerate lost, duplicated, and
//! delayed protocol messages. A [`FaultPlan`] schedules a per-message
//! [`FaultOutcome`] from a seeded [`Pcg32`] stream, so a given
//! `(rates, seed)` pair reproduces the identical fault schedule on every
//! run. The delivery layer (`lcm-tempest`'s `Network`) consults the plan
//! on each message attempt and turns drops into timeout/retry cycles;
//! injected faults therefore change *costs and statistics only*, never
//! the values a program computes.
//!
//! An inactive plan (all rates zero — the default) draws nothing from the
//! RNG and adds no overhead, so fault-free runs are bit-identical to a
//! build without this module.

use crate::machine::NodeId;
use crate::rng::Pcg32;
use std::fmt;

/// How many doublings the exponential retry backoff applies before
/// saturating (caps the per-retry wait at `retry_timeout << 6`).
pub const BACKOFF_DOUBLING_CAP: u32 = 6;

/// Fault rates and knobs for one run. All rates are probabilities in
/// `[0, 1]` applied independently per message attempt.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct FaultConfig {
    /// Probability that a message attempt is lost in transit.
    pub drop_rate: f64,
    /// Probability that a delivered message arrives twice (the transport
    /// detects the duplicate by sequence number and nacks it).
    pub dup_rate: f64,
    /// Probability that a delivered message is delayed.
    pub delay_rate: f64,
    /// Upper bound, in cycles, of an injected delivery delay.
    pub max_delay: u64,
    /// Seed of the fault schedule; identical seeds reproduce identical
    /// schedules and cycle counts.
    pub seed: u64,
    /// Retransmissions attempted before delivery fails structurally.
    pub max_retries: u32,
    /// Probability that a node stalls at a barrier (per node, per barrier).
    pub stall_rate: f64,
    /// Cycles a stalled node falls behind before recovering.
    pub stall_cycles: u64,
}

impl Default for FaultConfig {
    /// A reliable network: every rate zero, nothing drawn from the RNG.
    fn default() -> FaultConfig {
        FaultConfig {
            drop_rate: 0.0,
            dup_rate: 0.0,
            delay_rate: 0.0,
            max_delay: 400,
            seed: 0,
            max_retries: 10,
            stall_rate: 0.0,
            stall_cycles: 0,
        }
    }
}

impl FaultConfig {
    /// A drop-only plan — the `--faults <rate>:<seed>` sweep shape.
    pub fn drops(drop_rate: f64, seed: u64) -> FaultConfig {
        FaultConfig {
            drop_rate,
            seed,
            ..FaultConfig::default()
        }
    }

    /// True when any *network* fault can actually occur (crashes are
    /// scheduled separately, by a [`CrashPlan`]).
    pub fn is_active(&self) -> bool {
        self.drop_rate > 0.0
            || self.dup_rate > 0.0
            || self.delay_rate > 0.0
            || (self.stall_rate > 0.0 && self.stall_cycles > 0)
    }

    /// Validates the rates, naming the first offending field.
    pub fn validate(&self) -> Result<(), FaultConfigError> {
        for (name, r) in [
            ("drop_rate", self.drop_rate),
            ("dup_rate", self.dup_rate),
            ("delay_rate", self.delay_rate),
            ("stall_rate", self.stall_rate),
        ] {
            check_rate(name, r)?;
        }
        let combined = self.drop_rate + self.dup_rate + self.delay_rate;
        if combined.is_nan() || combined > 1.0 {
            return Err(FaultConfigError {
                message: "combined per-message fault rate exceeds 1".into(),
            });
        }
        Ok(())
    }
}

/// Rejects a probability outside `[0, 1]` (or NaN), naming the field.
fn check_rate(name: &str, r: f64) -> Result<(), FaultConfigError> {
    if (0.0..=1.0).contains(&r) {
        Ok(())
    } else {
        Err(FaultConfigError {
            message: format!("{name} {r} outside [0, 1]"),
        })
    }
}

/// An invalid [`FaultConfig`] or [`CrashPlan`]: a rate outside `[0, 1]`
/// (or NaN), or a combined per-message rate above 1. Carried as a value
/// so the CLI can surface it as a named error instead of a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultConfigError {
    message: String,
}

impl fmt::Display for FaultConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid fault config: {}", self.message)
    }
}

impl std::error::Error for FaultConfigError {}

/// The scheduled fate of one message attempt.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FaultOutcome {
    /// The message arrives normally.
    Deliver,
    /// The message is lost; the sender will time out and retransmit.
    Drop,
    /// The message arrives twice; the receiver detects and nacks the
    /// duplicate.
    Duplicate,
    /// The message arrives late by the given number of cycles.
    Delay(u64),
}

/// A deterministic per-message fault schedule.
///
/// One outcome is drawn per delivery attempt, in attempt order, so the
/// schedule is a pure function of `(config, message sequence)` — the
/// property the reproducibility tests assert.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    config: FaultConfig,
    rng: Pcg32,
    active: bool,
    decisions: u64,
}

/// Distinct PCG stream for fault scheduling, so a workload's own seeded
/// RNG never collides with the fault stream.
const FAULT_STREAM: u64 = 0xFA17;

impl FaultPlan {
    /// A plan that never injects anything (and never touches its RNG).
    pub fn disabled() -> FaultPlan {
        FaultPlan::new(FaultConfig::default())
    }

    /// A plan drawing outcomes from `config`'s seed.
    ///
    /// # Panics
    /// Panics on an invalid config; use [`FaultPlan::try_new`] to handle
    /// the error.
    pub fn new(config: FaultConfig) -> FaultPlan {
        match FaultPlan::try_new(config) {
            Ok(plan) => plan,
            Err(e) => panic!("{e}"),
        }
    }

    /// A plan drawing outcomes from `config`'s seed, rejecting invalid
    /// configs as a value instead of a panic.
    pub fn try_new(config: FaultConfig) -> Result<FaultPlan, FaultConfigError> {
        config.validate()?;
        Ok(FaultPlan {
            active: config.is_active(),
            rng: Pcg32::new(config.seed, FAULT_STREAM),
            config,
            decisions: 0,
        })
    }

    /// True when this plan can inject faults.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// The configured rates.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Number of outcomes drawn so far (diagnostic; equals the number of
    /// message attempts plus barrier stall draws under an active plan).
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Draws the outcome of the next message attempt. Inactive plans
    /// return [`FaultOutcome::Deliver`] without consuming randomness.
    pub fn next_outcome(&mut self) -> FaultOutcome {
        if !self.active {
            return FaultOutcome::Deliver;
        }
        self.decisions += 1;
        let r = self.rng.next_f64();
        let c = &self.config;
        if r < c.drop_rate {
            FaultOutcome::Drop
        } else if r < c.drop_rate + c.dup_rate {
            FaultOutcome::Duplicate
        } else if r < c.drop_rate + c.dup_rate + c.delay_rate {
            self.decisions += 1;
            FaultOutcome::Delay(1 + self.rng.below(self.config.max_delay.max(1)))
        } else {
            FaultOutcome::Deliver
        }
    }

    /// Draws the barrier-aligned stall for one node: `Some(cycles)` when
    /// the node stalls and recovers `cycles` late, `None` otherwise.
    /// Inactive plans (or zero stall settings) consume no randomness.
    pub fn barrier_stall(&mut self) -> Option<u64> {
        if !self.active || self.config.stall_rate <= 0.0 || self.config.stall_cycles == 0 {
            return None;
        }
        self.decisions += 1;
        if self.rng.next_f64() < self.config.stall_rate {
            Some(self.config.stall_cycles)
        } else {
            None
        }
    }
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan::disabled()
    }
}

/// Distinct PCG stream for crash scheduling, so crash draws never collide
/// with the per-message fault stream or a workload's own RNG.
const CRASH_STREAM: u64 = 0xDEAD;

/// Where in a phase a scheduled fail-stop crash strikes.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CrashPoint {
    /// Fraction of the phase's work (in permille, `1..=999`) the node
    /// completed before failing — the work lost to rollback.
    pub frac_permille: u64,
}

/// A deterministic per-node, per-phase fail-stop crash schedule.
///
/// Each `(node, phase)` pair draws from its own generator seeded by
/// `(seed, node, phase)`, so the schedule is a pure function of
/// `(rate, seed)` — independent of query order, of how many messages the
/// run sent, and of every other fault stream (the crash seed is its own,
/// never [`FaultConfig::seed`]). A run's plan is `RuntimeConfig::crash`,
/// the one place crashes are configured. An inactive plan (rate zero)
/// performs no draws, so crash-free runs are bit-identical to a build
/// without this type.
#[derive(Copy, Clone, Debug)]
pub struct CrashPlan {
    rate: f64,
    seed: u64,
    active: bool,
}

impl CrashPlan {
    /// A plan under which no node ever crashes.
    pub fn disabled() -> CrashPlan {
        CrashPlan {
            rate: 0.0,
            seed: 0,
            active: false,
        }
    }

    /// A plan crashing each node in each phase with probability `rate`,
    /// scheduled from `seed`.
    ///
    /// # Panics
    /// Panics if `rate` is outside `[0, 1]` or NaN; use
    /// [`CrashPlan::try_new`] to handle the error.
    pub fn new(rate: f64, seed: u64) -> CrashPlan {
        match CrashPlan::try_new(rate, seed) {
            Ok(plan) => plan,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`CrashPlan::new`], rejecting an out-of-range `rate` as a value
    /// instead of a panic.
    pub fn try_new(rate: f64, seed: u64) -> Result<CrashPlan, FaultConfigError> {
        check_rate("crash_rate", rate)?;
        Ok(CrashPlan {
            rate,
            seed,
            active: rate > 0.0,
        })
    }

    /// True when this plan can crash anything.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// The per-node, per-phase crash probability.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Whether (and where) `node` crashes in `phase`. Inactive plans
    /// return `None` without constructing a generator.
    pub fn crash_point(&self, node: NodeId, phase: u64) -> Option<CrashPoint> {
        if !self.active {
            return None;
        }
        // One generator per (node, phase), mixed with distinct odd
        // multipliers so nearby pairs land on unrelated streams.
        let mixed = self
            .seed
            .wrapping_add(phase.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add((node.0 as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
        let mut rng = Pcg32::new(mixed, CRASH_STREAM);
        if rng.next_f64() < self.rate {
            Some(CrashPoint {
                frac_permille: 1 + rng.below(999),
            })
        } else {
            None
        }
    }

    /// All crashes scheduled for `phase` on a `nodes`-processor machine,
    /// in node order.
    pub fn scheduled(&self, nodes: usize, phase: u64) -> Vec<(NodeId, CrashPoint)> {
        if !self.active {
            return Vec::new();
        }
        (0..nodes)
            .filter_map(|i| {
                let node = NodeId(i as u16);
                self.crash_point(node, phase).map(|p| (node, p))
            })
            .collect()
    }
}

impl Default for CrashPlan {
    fn default() -> CrashPlan {
        CrashPlan::disabled()
    }
}

/// A message delivery that exhausted its retransmission budget.
///
/// Carried as a structured error (instead of silently succeeding or
/// aborting) so the delivery layer can surface a cycle-stamped diagnostic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeliveryError {
    /// The sending node.
    pub from: NodeId,
    /// The intended receiver.
    pub to: NodeId,
    /// The message kind's label (e.g. `"GetShared"`).
    pub kind: &'static str,
    /// Delivery attempts made (first try plus retransmissions).
    pub attempts: u32,
    /// The sender's clock when delivery was abandoned.
    pub at_cycle: u64,
}

impl fmt::Display for DeliveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} message {} -> {} undeliverable after {} attempts (sender cycle {})",
            self.kind, self.from, self.to, self.attempts, self.at_cycle
        )
    }
}

impl std::error::Error for DeliveryError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_plan_delivers_without_randomness() {
        let mut p = FaultPlan::disabled();
        for _ in 0..100 {
            assert_eq!(p.next_outcome(), FaultOutcome::Deliver);
        }
        assert_eq!(p.barrier_stall(), None);
        assert_eq!(p.decisions(), 0);
        assert!(!p.is_active());
    }

    #[test]
    fn identical_seeds_reproduce_identical_schedules() {
        let cfg = FaultConfig {
            drop_rate: 0.2,
            dup_rate: 0.1,
            delay_rate: 0.1,
            ..FaultConfig::default()
        };
        let mut a = FaultPlan::new(cfg);
        let mut b = FaultPlan::new(cfg);
        let sa: Vec<_> = (0..500).map(|_| a.next_outcome()).collect();
        let sb: Vec<_> = (0..500).map(|_| b.next_outcome()).collect();
        assert_eq!(sa, sb);
        assert!(sa.contains(&FaultOutcome::Drop));
        assert!(sa.contains(&FaultOutcome::Duplicate));
        assert!(sa.iter().any(|o| matches!(o, FaultOutcome::Delay(_))));
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = FaultPlan::new(FaultConfig::drops(0.3, 1));
        let mut b = FaultPlan::new(FaultConfig::drops(0.3, 2));
        let sa: Vec<_> = (0..200).map(|_| a.next_outcome()).collect();
        let sb: Vec<_> = (0..200).map(|_| b.next_outcome()).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn drop_rate_is_roughly_respected() {
        let mut p = FaultPlan::new(FaultConfig::drops(0.25, 7));
        let drops = (0..4000)
            .filter(|_| p.next_outcome() == FaultOutcome::Drop)
            .count();
        let rate = drops as f64 / 4000.0;
        assert!((0.20..0.30).contains(&rate), "observed drop rate {rate}");
    }

    #[test]
    fn delays_stay_in_bounds() {
        let cfg = FaultConfig {
            delay_rate: 1.0,
            max_delay: 50,
            ..FaultConfig::default()
        };
        let mut p = FaultPlan::new(cfg);
        for _ in 0..200 {
            match p.next_outcome() {
                FaultOutcome::Delay(k) => assert!((1..=50).contains(&k)),
                other => panic!("expected a delay, got {other:?}"),
            }
        }
    }

    #[test]
    fn barrier_stalls_draw_deterministically() {
        let cfg = FaultConfig {
            stall_rate: 0.5,
            stall_cycles: 1234,
            ..FaultConfig::default()
        };
        let mut a = FaultPlan::new(cfg);
        let mut b = FaultPlan::new(cfg);
        let sa: Vec<_> = (0..100).map(|_| a.barrier_stall()).collect();
        let sb: Vec<_> = (0..100).map(|_| b.barrier_stall()).collect();
        assert_eq!(sa, sb);
        assert!(sa.contains(&Some(1234)));
        assert!(sa.iter().any(|s| s.is_none()));
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn invalid_rate_rejected() {
        FaultPlan::new(FaultConfig::drops(1.5, 0));
    }

    #[test]
    fn try_new_surfaces_named_errors() {
        let e = FaultPlan::try_new(FaultConfig::drops(1.5, 0)).expect_err("rate over 1");
        let text = e.to_string();
        assert!(text.contains("drop_rate 1.5 outside [0, 1]"), "{text}");

        let nan = FaultConfig {
            stall_rate: f64::NAN,
            ..FaultConfig::default()
        };
        assert!(FaultPlan::try_new(nan).is_err(), "NaN rates are rejected");

        let over = FaultConfig {
            drop_rate: 0.5,
            dup_rate: 0.4,
            delay_rate: 0.3,
            ..FaultConfig::default()
        };
        let e = FaultPlan::try_new(over).expect_err("combined rate over 1");
        assert!(e.to_string().contains("combined per-message"), "{e}");

        let e = CrashPlan::try_new(-0.1, 0).expect_err("negative crash rate");
        assert!(
            e.to_string().contains("crash_rate -0.1 outside [0, 1]"),
            "{e}"
        );
        assert!(CrashPlan::try_new(f64::NAN, 0).is_err(), "NaN crash rate");

        assert!(FaultPlan::try_new(FaultConfig::default()).is_ok());
    }

    #[test]
    fn crash_plan_is_order_independent_and_seeded() {
        let p = CrashPlan::new(0.3, 42);
        // Same (node, phase) always draws the same fate, in any order.
        let a = p.crash_point(NodeId(3), 7);
        let _ = p.crash_point(NodeId(0), 0);
        let b = p.crash_point(NodeId(3), 7);
        assert_eq!(a, b);

        // The full 8-node × 64-phase grid is reproducible and non-trivial.
        let grid: Vec<_> = (0..64).map(|ph| p.scheduled(8, ph)).collect();
        let again: Vec<_> = (0..64).map(|ph| p.scheduled(8, ph)).collect();
        assert_eq!(grid, again);
        let total: usize = grid.iter().map(|v| v.len()).sum();
        assert!(total > 0, "a 30% rate crashes someone in 512 draws");
        assert!(total < 512, "and spares someone");
        for (_, point) in grid.iter().flatten() {
            assert!((1..=999).contains(&point.frac_permille));
        }

        // A different seed gives a different schedule.
        let q = CrashPlan::new(0.3, 43);
        let other: Vec<_> = (0..64).map(|ph| q.scheduled(8, ph)).collect();
        assert_ne!(grid, other);
    }

    #[test]
    fn inactive_crash_plan_never_fires() {
        let p = CrashPlan::disabled();
        assert!(!p.is_active());
        for ph in 0..32 {
            assert!(p.scheduled(64, ph).is_empty());
        }
        assert!(!CrashPlan::new(0.0, 9).is_active());
        let crashy = CrashPlan::new(0.5, 9);
        assert!(crashy.is_active());
        assert_eq!(crashy.rate(), 0.5);
    }

    #[test]
    #[should_panic(expected = "crash_rate 2 outside [0, 1]")]
    fn crash_plan_rejects_bad_rates() {
        CrashPlan::new(2.0, 0);
    }

    #[test]
    fn delivery_error_is_cycle_stamped() {
        let e = DeliveryError {
            from: NodeId(1),
            to: NodeId(2),
            kind: "GetShared",
            attempts: 11,
            at_cycle: 98765,
        };
        let text = e.to_string();
        assert!(text.contains("GetShared"), "{text}");
        assert!(text.contains("11 attempts"), "{text}");
        assert!(text.contains("98765"), "{text}");
    }
}
