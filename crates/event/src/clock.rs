//! Cycle/time conversion for clocked components.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::SimTime;

/// A fixed-frequency clock used to convert between cycle counts and
/// [`SimTime`]. The cycle-accurate simulator expresses component latencies in
/// cycles of their local clock and lets `Clock` place them on the global
/// picosecond timeline.
///
/// ```rust
/// use pimsim_event::{Clock, SimTime};
/// let clk = Clock::from_ghz(1.0); // 1 GHz -> 1000 ps period
/// assert_eq!(clk.cycles_to_time(3), SimTime::from_ns(3));
/// assert_eq!(clk.time_to_cycles_ceil(SimTime::from_ps(2500)), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Clock {
    period_ps: u64,
}

impl Clock {
    /// Creates a clock from its period in picoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `period_ps` is zero.
    pub fn from_period_ps(period_ps: u64) -> Self {
        assert!(period_ps > 0, "clock period must be positive");
        Clock { period_ps }
    }

    /// Creates a clock from a frequency in GHz (period rounded to the
    /// nearest picosecond).
    ///
    /// # Panics
    ///
    /// Panics if `ghz` is not finite and positive.
    pub fn from_ghz(ghz: f64) -> Self {
        assert!(
            ghz.is_finite() && ghz > 0.0,
            "clock frequency must be positive, got {ghz}"
        );
        let period = (1000.0 / ghz).round().max(1.0) as u64;
        Clock { period_ps: period }
    }

    /// Creates a clock from a frequency in MHz.
    pub fn from_mhz(mhz: f64) -> Self {
        Clock::from_ghz(mhz / 1000.0)
    }

    /// The clock period.
    pub fn period(&self) -> SimTime {
        SimTime::from_ps(self.period_ps)
    }

    /// The clock frequency in GHz.
    pub fn freq_ghz(&self) -> f64 {
        1000.0 / self.period_ps as f64
    }

    /// The duration of `cycles` cycles, saturating at [`SimTime::MAX`].
    pub fn cycles_to_time(&self, cycles: u64) -> SimTime {
        SimTime::from_ps(self.period_ps.saturating_mul(cycles))
    }

    /// How many whole cycles cover `t` (rounded up).
    pub fn time_to_cycles_ceil(&self, t: SimTime) -> u64 {
        t.as_ps().div_ceil(self.period_ps)
    }

    /// The first clock edge at or after `t`.
    pub fn edge_at_or_after(&self, t: SimTime) -> SimTime {
        let c = t.as_ps().div_ceil(self.period_ps);
        SimTime::from_ps(c * self.period_ps)
    }

    /// The cycle index containing `t` (edge at `t` belongs to that cycle).
    pub fn cycle_index(&self, t: SimTime) -> u64 {
        t.as_ps() / self.period_ps
    }
}

impl fmt::Display for Clock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} GHz", self.freq_ghz())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ghz_to_period() {
        assert_eq!(Clock::from_ghz(1.0).period(), SimTime::from_ps(1000));
        assert_eq!(Clock::from_ghz(2.0).period(), SimTime::from_ps(500));
        assert_eq!(Clock::from_mhz(500.0).period(), SimTime::from_ps(2000));
    }

    #[test]
    fn cycle_conversions_roundtrip() {
        let clk = Clock::from_ghz(1.0);
        for c in [0u64, 1, 7, 1000] {
            assert_eq!(clk.time_to_cycles_ceil(clk.cycles_to_time(c)), c);
        }
    }

    #[test]
    fn cycles_to_time_saturates() {
        let clk = Clock::from_period_ps(1000);
        assert_eq!(clk.cycles_to_time(u64::MAX), SimTime::MAX);
        assert_eq!(clk.cycles_to_time(u64::MAX / 1000 + 1), SimTime::MAX);
    }

    #[test]
    fn ceil_rounds_up() {
        let clk = Clock::from_period_ps(1000);
        assert_eq!(clk.time_to_cycles_ceil(SimTime::from_ps(1)), 1);
        assert_eq!(clk.time_to_cycles_ceil(SimTime::from_ps(1001)), 2);
        assert_eq!(clk.time_to_cycles_ceil(SimTime::ZERO), 0);
    }

    #[test]
    fn edges_align() {
        let clk = Clock::from_period_ps(400);
        assert_eq!(clk.edge_at_or_after(SimTime::from_ps(0)), SimTime::ZERO);
        assert_eq!(
            clk.edge_at_or_after(SimTime::from_ps(399)),
            SimTime::from_ps(400)
        );
        assert_eq!(
            clk.edge_at_or_after(SimTime::from_ps(400)),
            SimTime::from_ps(400)
        );
        assert_eq!(clk.cycle_index(SimTime::from_ps(799)), 1);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_period_rejected() {
        let _ = Clock::from_period_ps(0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn bad_frequency_rejected() {
        let _ = Clock::from_ghz(0.0);
    }
}
