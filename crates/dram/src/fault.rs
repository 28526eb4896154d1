//! Seeded sense-amplifier read-out fault injection.
//!
//! Process variation makes the shifted-VTC threshold detectors of the
//! reconfigurable sense amplifier (Fig. 2) the platform's dominant error
//! source: a marginal detector misreads a charge level and the *read-out*
//! of an activation flips, while the stored cells keep their value. The
//! injector models exactly that failure mode — each bit of a sensed
//! read-out ([`crate::context::SubarrayContext::read_row`], `aap2`,
//! `aap3_carry` results) flips independently with a configured
//! probability — so verification harnesses can measure how the assembly
//! pipeline degrades under realistic sensing errors.
//!
//! Injection is deterministic: every sub-array context draws from its own
//! counter-based stream seeded by `(seed, sub-array index)`, so a faulted
//! run reproduces bit-for-bit for any worker count or dispatch
//! interleaving.

use crate::bitrow::BitRow;
use crate::error::{DramError, Result};

/// Fault-injection configuration: per-bit flip probability and seed.
///
/// # Examples
///
/// ```
/// use pim_dram::fault::FaultConfig;
///
/// let cfg = FaultConfig::new(1e-3, 42)?;
/// assert_eq!(cfg.flip_rate, 1e-3);
/// assert!(FaultConfig::new(f64::NAN, 42).is_err());
/// # Ok::<(), pim_dram::DramError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability that any single sensed bit flips on read-out.
    pub flip_rate: f64,
    /// Base seed; each sub-array derives an independent stream from it.
    pub seed: u64,
}

impl FaultConfig {
    /// Creates a configuration.
    ///
    /// # Errors
    ///
    /// [`DramError::InvalidParameter`] unless `flip_rate` is a probability
    /// (in `[0, 1]`, so not NaN).
    pub fn new(flip_rate: f64, seed: u64) -> Result<Self> {
        if !(0.0..=1.0).contains(&flip_rate) {
            return Err(DramError::InvalidParameter {
                what: "fault flip rate must be a probability in [0, 1]",
            });
        }
        Ok(FaultConfig { flip_rate, seed })
    }
}

/// Per-sub-array fault state: a splitmix64 stream plus flip counters.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    /// `flip_rate` scaled to the full `u64` range for branch-free draws.
    threshold: u64,
    state: u64,
    flips: u64,
    readouts: u64,
}

impl FaultInjector {
    /// Creates the injector for stream `stream` (the sub-array's linear
    /// index) under `config`.
    pub fn new(config: &FaultConfig, stream: u64) -> Self {
        // `u64::MAX as f64` rounds to 2^64; the float→int cast saturates,
        // so flip_rate == 1.0 flips every bit.
        let threshold = (config.flip_rate * u64::MAX as f64) as u64;
        FaultInjector {
            threshold,
            state: config.seed ^ splitmix64(stream.wrapping_add(0x5851_F42D_4C95_7F2D)),
            flips: 0,
            readouts: 0,
        }
    }

    /// Bits flipped so far.
    pub fn flips(&self) -> u64 {
        self.flips
    }

    /// Read-outs passed through the injector so far (corrupted or not).
    pub fn readouts(&self) -> u64 {
        self.readouts
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.state)
    }

    /// Applies per-bit flips to one sensed read-out.
    pub fn corrupt(&mut self, row: &mut BitRow) {
        self.readouts += 1;
        if self.threshold == 0 {
            // Keep the stream position independent of the row width so a
            // zero-rate injector still advances deterministically.
            let _ = self.next();
            return;
        }
        for i in 0..row.len() {
            if self.next() < self.threshold {
                row.set(i, !row.get(i));
                self.flips += 1;
            }
        }
    }
}

/// splitmix64 finalizer.
fn splitmix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_never_flips() {
        let mut inj = FaultInjector::new(&FaultConfig::new(0.0, 1).unwrap(), 0);
        let mut row = BitRow::from_fn(256, |i| i % 3 == 0);
        let orig = row.clone();
        for _ in 0..50 {
            inj.corrupt(&mut row);
        }
        assert_eq!(row, orig);
        assert_eq!(inj.flips(), 0);
        assert_eq!(inj.readouts(), 50);
    }

    #[test]
    fn full_rate_flips_everything() {
        let mut inj = FaultInjector::new(&FaultConfig::new(1.0, 2).unwrap(), 0);
        let mut row = BitRow::zeros(128);
        inj.corrupt(&mut row);
        assert!(row.all_ones());
        assert_eq!(inj.flips(), 128);
    }

    #[test]
    fn flip_rate_is_statistically_honest() {
        let mut inj = FaultInjector::new(&FaultConfig::new(0.01, 3).unwrap(), 0);
        let mut row = BitRow::zeros(256);
        for _ in 0..1000 {
            inj.corrupt(&mut row);
        }
        // 256,000 draws at 1%: expect ~2560 flips; flips re-flip bits so
        // count the injector's counter, not the row parity.
        let rate = inj.flips() as f64 / 256_000.0;
        assert!((0.008..0.012).contains(&rate), "measured rate {rate}");
    }

    #[test]
    fn streams_are_independent_and_deterministic() {
        let cfg = FaultConfig::new(0.05, 7).unwrap();
        let run = |stream: u64| {
            let mut inj = FaultInjector::new(&cfg, stream);
            let mut row = BitRow::zeros(256);
            inj.corrupt(&mut row);
            row
        };
        assert_eq!(run(0), run(0));
        assert_ne!(run(0), run(1));
    }

    #[test]
    fn out_of_range_rate_rejected() {
        for rate in [f64::NAN, -0.1, 1.5, f64::INFINITY] {
            let err = FaultConfig::new(rate, 0).unwrap_err();
            assert!(matches!(err, DramError::InvalidParameter { .. }), "{rate}: {err}");
            assert!(err.to_string().contains("flip rate"), "{err}");
        }
        assert!(FaultConfig::new(0.0, 0).is_ok() && FaultConfig::new(1.0, 0).is_ok());
    }
}
