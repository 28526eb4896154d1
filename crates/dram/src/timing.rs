//! DRAM timing parameters and derived command latencies.
//!
//! All latencies are expressed in nanoseconds (`f64`). The PIM primitives of
//! the paper are built from `ACTIVATE-ACTIVATE-PRECHARGE` (AAP) sequences, so
//! the key derived quantity is [`TimingParams::aap_ns`]: the back-to-back
//! issue period of one AAP, which following RowClone/Ambit equals
//! `tRAS + tRP` (the second ACTIVATE overlaps the first row's restore).

/// Timing parameters of a DDR-class DRAM device.
///
/// # Examples
///
/// ```
/// use pim_dram::timing::TimingParams;
///
/// let t = TimingParams::ddr4_2133();
/// assert!(t.aap_ns() > t.t_ras_ns);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingParams {
    /// Clock period in nanoseconds.
    pub t_ck_ns: f64,
    /// ACTIVATE → column command delay.
    pub t_rcd_ns: f64,
    /// ACTIVATE → PRECHARGE minimum (row restore time).
    pub t_ras_ns: f64,
    /// PRECHARGE period.
    pub t_rp_ns: f64,
    /// Column-to-column delay.
    pub t_ccd_ns: f64,
    /// Write recovery time.
    pub t_wr_ns: f64,
    /// CAS latency.
    pub t_cl_ns: f64,
}

impl TimingParams {
    /// DDR4-2133 timings (the faster of the two channels the paper's CPU
    /// baseline uses).
    pub fn ddr4_2133() -> Self {
        TimingParams {
            t_ck_ns: 0.937,
            t_rcd_ns: 14.06,
            t_ras_ns: 33.0,
            t_rp_ns: 14.06,
            t_ccd_ns: 3.75,
            t_wr_ns: 15.0,
            t_cl_ns: 14.06,
        }
    }

    /// SOT-MRAM sub-array timings for the PANDA-style backend.
    ///
    /// Magnetic tunnel junctions are sensed resistively: there is no
    /// charge restore, so the "row open" interval is a word-line settle +
    /// sense window (~9 ns) and the precharge equivalent is the bit-line
    /// equalization (~4 ns), giving an activation period
    /// ([`TimingParams::aap_ns`]) of 13 ns versus 47 ns on DDR4-2133.
    /// Writes pay the SOT switching time via the longer `t_wr_ns`.
    pub fn sot_mram() -> Self {
        TimingParams {
            t_ck_ns: 0.937,
            t_rcd_ns: 5.0,
            t_ras_ns: 9.0,
            t_rp_ns: 4.0,
            t_ccd_ns: 3.75,
            t_wr_ns: 10.0,
            t_cl_ns: 5.0,
        }
    }

    /// DDR4-1866 timings.
    pub fn ddr4_1866() -> Self {
        TimingParams {
            t_ck_ns: 1.071,
            t_rcd_ns: 13.92,
            t_ras_ns: 34.0,
            t_rp_ns: 13.92,
            t_ccd_ns: 4.28,
            t_wr_ns: 15.0,
            t_cl_ns: 13.92,
        }
    }

    /// Latency of one AAP (`ACTIVATE-ACTIVATE-PRECHARGE`) command sequence.
    ///
    /// Per RowClone-FPM and Ambit, two back-to-back activations in the same
    /// sub-array can be issued such that the full sequence completes in
    /// `tRAS + tRP`: the second ACTIVATE is issued while the first row is
    /// still open and the single PRECHARGE closes both.
    pub fn aap_ns(&self) -> f64 {
        self.t_ras_ns + self.t_rp_ns
    }

    /// Latency of reading or writing one burst of `bits` through the global
    /// row buffer once the row is open (column accesses at `tCCD` pace,
    /// 64 bits per column command on a x64 interface).
    pub fn burst_ns(&self, bits: usize) -> f64 {
        let bursts = bits.div_ceil(64);
        bursts as f64 * self.t_ccd_ns
    }

    /// Full row read latency: open, stream `bits`, close.
    pub fn row_read_ns(&self, bits: usize) -> f64 {
        self.t_rcd_ns + self.t_cl_ns + self.burst_ns(bits) + self.t_rp_ns
    }

    /// Full row write latency: open, stream `bits`, write-recover, close.
    pub fn row_write_ns(&self, bits: usize) -> f64 {
        self.t_rcd_ns + self.burst_ns(bits) + self.t_wr_ns + self.t_rp_ns
    }
}

impl Default for TimingParams {
    fn default() -> Self {
        TimingParams::ddr4_2133()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aap_is_ras_plus_rp() {
        let t = TimingParams::ddr4_2133();
        assert!((t.aap_ns() - (33.0 + 14.06)).abs() < 1e-9);
    }

    #[test]
    fn burst_scales_with_bits() {
        let t = TimingParams::ddr4_2133();
        assert!(t.burst_ns(256) > t.burst_ns(64));
        assert_eq!(t.burst_ns(0), 0.0);
        // 256 bits = 4 column commands.
        assert!((t.burst_ns(256) - 4.0 * t.t_ccd_ns).abs() < 1e-9);
    }

    #[test]
    fn row_ops_include_open_close() {
        let t = TimingParams::ddr4_1866();
        assert!(t.row_read_ns(256) > t.t_rcd_ns + t.t_rp_ns);
        assert!(t.row_write_ns(256) > t.t_rcd_ns + t.t_rp_ns);
    }

    #[test]
    fn presets_differ() {
        assert_ne!(TimingParams::ddr4_2133(), TimingParams::ddr4_1866());
    }
}
