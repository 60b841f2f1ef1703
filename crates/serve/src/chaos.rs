//! Deterministic chaos injection for the service's trace workers.
//!
//! Two complementary entry points, both funnelled through
//! [`apply_chunk_injections`] at the top of every chunk attempt:
//!
//! * **Targeted** — the PR 3 `RIP_FAULT_INJECT` plan reaches serve's
//!   workers under the unit label `serve_chunk`: `panic:serve_chunk`,
//!   `slow:serve_chunk=<ms>` and `flaky:serve_chunk=<attempts>` behave
//!   exactly as they do for experiment units (every chunk, every
//!   round). This is the CI hook for exercising a *specific* failure
//!   path.
//! * **Probabilistic** — [`ChaosConfig`] injects panic/slow/flaky
//!   faults into a seeded pseudo-random *fraction* of chunks, the
//!   chaos load gate's workload. Selection hashes `(seed, round, chunk)`
//!   with the same FNV the retry jitter uses, so a given seed fails the
//!   exact same chunks run after run — a chaos experiment that cannot
//!   be replayed is a flake generator, not a test.
//!
//! Fault categories are drawn from disjoint slices of one hash draw
//! (panic first, then slow, then flaky), so rates compose without a
//! chunk being double-injected.

use rip_exec::{Fault, InjectionPlan};
use std::time::Duration;

/// Probabilistic fault plan for trace chunks (all rates default 0 =
/// chaos off).
#[derive(Clone, Copy, Debug, Default)]
pub struct ChaosConfig {
    /// Fraction of chunks that panic (0.0–1.0).
    pub panic_rate: f64,
    /// Attempts on which a panic-selected chunk panics (0 is treated as
    /// 1: the first attempt crashes, retries succeed — a transient
    /// worker death). Set at or above the retry budget to model a
    /// permanently poisoned chunk.
    pub panic_attempts: u32,
    /// Fraction of chunk attempts delayed by [`ChaosConfig::slow_ms`].
    pub slow_rate: f64,
    /// Injected delay for slow chunks, milliseconds.
    pub slow_ms: u64,
    /// Fraction of chunks whose first
    /// [`ChaosConfig::flaky_attempts`] attempts fail retryably.
    pub flaky_rate: f64,
    /// Failing attempts per flaky chunk.
    pub flaky_attempts: u32,
    /// Selection seed (same seed → same injected chunks).
    pub seed: u64,
}

impl ChaosConfig {
    /// Whether any injection is configured.
    pub fn is_active(&self) -> bool {
        self.panic_rate > 0.0 || self.slow_rate > 0.0 || self.flaky_rate > 0.0
    }

    /// The uniform draw in `[0, 1)` selecting chunk `(round, chunk)`.
    fn draw(&self, round: u64, chunk: u64) -> f64 {
        let mut bytes = [0u8; 24];
        bytes[..8].copy_from_slice(&self.seed.to_le_bytes());
        bytes[8..16].copy_from_slice(&round.to_le_bytes());
        bytes[16..].copy_from_slice(&chunk.to_le_bytes());
        // Top 53 bits of the FNV hash → uniform f64 in [0, 1).
        (fnv64(&bytes) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Applies this plan to attempt `attempt` (1-based) of chunk
    /// `(round, chunk)`: panics, sleeps, or returns a retryable fault
    /// per the configured rates.
    pub fn apply(&self, round: u64, chunk: u64, attempt: u32) -> Result<(), Fault> {
        if !self.is_active() {
            return Ok(());
        }
        let draw = self.draw(round, chunk);
        if draw < self.panic_rate {
            if attempt <= self.panic_attempts.max(1) {
                panic!("chaos: injected panic in round {round} chunk {chunk} (attempt {attempt})");
            }
            return Ok(());
        }
        if draw < self.panic_rate + self.slow_rate {
            std::thread::sleep(Duration::from_millis(self.slow_ms));
            return Ok(());
        }
        if draw < self.panic_rate + self.slow_rate + self.flaky_rate
            && attempt <= self.flaky_attempts.max(1)
        {
            return Err(Fault::retryable(format!(
                "chaos: injected transient fault in round {round} chunk {chunk} \
                 (attempt {attempt} of {} injected failures)",
                self.flaky_attempts.max(1)
            )));
        }
        Ok(())
    }
}

/// FNV-1a 64-bit (the deterministic hash the exec retry jitter uses).
fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The unit label under which `RIP_FAULT_INJECT` directives reach
/// serve's trace workers.
pub const CHUNK_INJECT_LABEL: &str = "serve_chunk";

/// The unit label under which `RIP_FAULT_INJECT` directives reach
/// `SceneRegistry::try_reload` (the circuit-breaker path).
pub const RELOAD_INJECT_LABEL: &str = "serve_reload";

/// Runs every injection aimed at one chunk attempt: the targeted
/// `RIP_FAULT_INJECT` plan first (deterministic, all chunks), then the
/// probabilistic [`ChaosConfig`].
pub fn apply_chunk_injections(
    plan: &InjectionPlan,
    chaos: &ChaosConfig,
    round: u64,
    chunk: u64,
    attempt: u32,
) -> Result<(), Fault> {
    plan.apply(CHUNK_INJECT_LABEL, attempt)?;
    chaos.apply(round, chunk, attempt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rip_exec::FaultKind;

    #[test]
    fn inactive_chaos_is_a_no_op() {
        let chaos = ChaosConfig::default();
        assert!(!chaos.is_active());
        for chunk in 0..64 {
            assert!(chaos.apply(0, chunk, 1).is_ok());
        }
    }

    #[test]
    fn selection_is_deterministic_and_near_rate() {
        let chaos = ChaosConfig {
            flaky_rate: 0.25,
            flaky_attempts: 1,
            seed: 42,
            ..ChaosConfig::default()
        };
        let failed: Vec<u64> = (0..400)
            .filter(|&c| chaos.apply(3, c, 1).is_err())
            .collect();
        let again: Vec<u64> = (0..400)
            .filter(|&c| chaos.apply(3, c, 1).is_err())
            .collect();
        assert_eq!(failed, again, "same seed must fail the same chunks");
        let rate = failed.len() as f64 / 400.0;
        assert!((rate - 0.25).abs() < 0.08, "observed rate {rate}");
        // A different seed picks a different set.
        let other = ChaosConfig { seed: 43, ..chaos };
        let other_failed: Vec<u64> = (0..400)
            .filter(|&c| other.apply(3, c, 1).is_err())
            .collect();
        assert_ne!(failed, other_failed);
    }

    #[test]
    fn flaky_chunks_clear_after_their_attempts() {
        let chaos = ChaosConfig {
            flaky_rate: 1.0,
            flaky_attempts: 2,
            seed: 7,
            ..ChaosConfig::default()
        };
        let fault = chaos.apply(0, 0, 1).unwrap_err();
        assert_eq!(fault.kind, FaultKind::Retryable);
        assert!(chaos.apply(0, 0, 2).is_err());
        assert!(chaos.apply(0, 0, 3).is_ok(), "attempt 3 must succeed");
    }

    #[test]
    #[should_panic(expected = "chaos: injected panic")]
    fn panic_rate_one_panics_every_chunk() {
        let chaos = ChaosConfig {
            panic_rate: 1.0,
            seed: 1,
            ..ChaosConfig::default()
        };
        let _ = chaos.apply(0, 0, 1);
    }

    #[test]
    fn transient_panics_clear_on_retry() {
        let chaos = ChaosConfig {
            panic_rate: 1.0,
            panic_attempts: 1,
            seed: 1,
            ..ChaosConfig::default()
        };
        assert!(
            chaos.apply(0, 0, 2).is_ok(),
            "a transient panic must not fire again on the retry"
        );
    }

    #[test]
    fn env_plan_reaches_serve_chunk_label() {
        let plan = InjectionPlan::parse("flaky:serve_chunk=1; panic:other_unit");
        let chaos = ChaosConfig::default();
        let fault = apply_chunk_injections(&plan, &chaos, 0, 0, 1).unwrap_err();
        assert_eq!(fault.kind, FaultKind::Retryable);
        assert!(apply_chunk_injections(&plan, &chaos, 0, 0, 2).is_ok());
    }
}
