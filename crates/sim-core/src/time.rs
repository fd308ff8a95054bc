//! Simulated time.
//!
//! The simulator counts in integer **nanoseconds** so that event ordering is
//! exact and runs are bit-reproducible. [`SimTime`] is an absolute instant on
//! the simulation clock; [`Dur`] is a span between instants. Both are thin
//! `u64` newtypes, cheap to copy and totally ordered.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An absolute instant on the simulation clock, in nanoseconds since the
/// start of the run.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dur(pub u64);

pub const NANOS_PER_MICRO: u64 = 1_000;
pub const NANOS_PER_MILLI: u64 = 1_000_000;
pub const NANOS_PER_SEC: u64 = 1_000_000_000;

impl SimTime {
    /// The instant at which every simulation starts.
    pub const ZERO: SimTime = SimTime(0);

    /// Raw nanosecond count.
    #[inline]
    pub fn nanos(self) -> u64 {
        self.0
    }

    /// This instant expressed in (floating-point) seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Span from `earlier` to `self`; saturates to zero if `earlier` is later.
    #[inline]
    pub fn since(self, earlier: SimTime) -> Dur {
        Dur(self.0.saturating_sub(earlier.0))
    }

    /// The larger of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl Dur {
    pub const ZERO: Dur = Dur(0);

    /// One nanosecond — the smallest representable non-zero span, used to
    /// order "immediately after" events.
    pub const EPSILON: Dur = Dur(1);

    #[inline]
    pub const fn nanos(n: u64) -> Dur {
        Dur(n)
    }

    #[inline]
    pub const fn micros(us: u64) -> Dur {
        Dur(us * NANOS_PER_MICRO)
    }

    #[inline]
    pub const fn millis(ms: u64) -> Dur {
        Dur(ms * NANOS_PER_MILLI)
    }

    #[inline]
    pub const fn secs(s: u64) -> Dur {
        Dur(s * NANOS_PER_SEC)
    }

    /// Build a duration from floating-point seconds, rounding to the nearest
    /// nanosecond. Negative and non-finite inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> Dur {
        if !s.is_finite() || s <= 0.0 {
            return Dur::ZERO;
        }
        Dur((s * NANOS_PER_SEC as f64).round() as u64)
    }

    /// Time to move `bytes` over a link of `bits_per_sec` capacity.
    pub fn transfer(bytes: u64, bits_per_sec: u64) -> Dur {
        debug_assert!(bits_per_sec > 0, "zero-bandwidth link");
        // bytes * 8 * 1e9 / bps, computed in u128 to avoid overflow.
        let nanos = (bytes as u128 * 8 * NANOS_PER_SEC as u128) / bits_per_sec as u128;
        Dur(nanos as u64)
    }

    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    #[inline]
    pub fn max(self, other: Dur) -> Dur {
        Dur(self.0.max(other.0))
    }

    #[inline]
    pub fn saturating_sub(self, other: Dur) -> Dur {
        Dur(self.0.saturating_sub(other.0))
    }
}

impl Add<Dur> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: Dur) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<Dur> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: Dur) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Dur;
    #[inline]
    fn sub(self, rhs: SimTime) -> Dur {
        debug_assert!(self.0 >= rhs.0, "negative SimTime difference");
        Dur(self.0 - rhs.0)
    }
}

impl Add for Dur {
    type Output = Dur;
    #[inline]
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0 + rhs.0)
    }
}

impl AddAssign for Dur {
    #[inline]
    fn add_assign(&mut self, rhs: Dur) {
        self.0 += rhs.0;
    }
}

impl Sub for Dur {
    type Output = Dur;
    #[inline]
    fn sub(self, rhs: Dur) -> Dur {
        debug_assert!(self.0 >= rhs.0, "negative Dur difference");
        Dur(self.0 - rhs.0)
    }
}

impl Mul<u64> for Dur {
    type Output = Dur;
    #[inline]
    fn mul(self, rhs: u64) -> Dur {
        Dur(self.0 * rhs)
    }
}

impl Div<u64> for Dur {
    type Output = Dur;
    #[inline]
    fn div(self, rhs: u64) -> Dur {
        Dur(self.0 / rhs)
    }
}

fn fmt_nanos(n: u64, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if n >= NANOS_PER_SEC {
        write!(f, "{:.6}s", n as f64 / NANOS_PER_SEC as f64)
    } else if n >= NANOS_PER_MILLI {
        write!(f, "{:.3}ms", n as f64 / NANOS_PER_MILLI as f64)
    } else if n >= NANOS_PER_MICRO {
        write!(f, "{:.3}us", n as f64 / NANOS_PER_MICRO as f64)
    } else {
        write!(f, "{}ns", n)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t=")?;
        fmt_nanos(self.0, f)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_nanos(self.0, f)
    }
}

impl fmt::Debug for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_nanos(self.0, f)
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_nanos(self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_scale_correctly() {
        assert_eq!(Dur::micros(1).as_nanos(), 1_000);
        assert_eq!(Dur::millis(1).as_nanos(), 1_000_000);
        assert_eq!(Dur::secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(Dur::nanos(7).as_nanos(), 7);
    }

    #[test]
    fn time_arithmetic_round_trips() {
        let t = SimTime::ZERO + Dur::millis(5);
        assert_eq!((t + Dur::micros(1)) - t, Dur::micros(1));
        assert_eq!(t.since(SimTime::ZERO), Dur::millis(5));
        assert_eq!(SimTime::ZERO.since(t), Dur::ZERO, "since saturates");
    }

    #[test]
    fn transfer_time_matches_bandwidth() {
        // 1500 bytes over 100 Mbps = 120 microseconds.
        let d = Dur::transfer(1500, 100_000_000);
        assert_eq!(d, Dur::micros(120));
        // 1 byte over 1 Gbps = 8 ns.
        assert_eq!(Dur::transfer(1, 1_000_000_000), Dur::nanos(8));
    }

    #[test]
    fn transfer_time_large_values_no_overflow() {
        // 1 TB over 10 Mbps: would overflow u64 if computed naively in bits*1e9.
        let d = Dur::transfer(1 << 40, 10_000_000);
        assert!(d.as_secs_f64() > 800_000.0);
    }

    #[test]
    fn from_secs_f64_clamps_bad_input() {
        assert_eq!(Dur::from_secs_f64(-1.0), Dur::ZERO);
        assert_eq!(Dur::from_secs_f64(f64::NAN), Dur::ZERO);
        assert_eq!(Dur::from_secs_f64(1.5), Dur(1_500_000_000));
    }

    #[test]
    fn display_picks_readable_unit() {
        assert_eq!(format!("{}", Dur::nanos(12)), "12ns");
        assert_eq!(format!("{}", Dur::micros(12)), "12.000us");
        assert_eq!(format!("{}", Dur::millis(12)), "12.000ms");
        assert_eq!(format!("{}", Dur::secs(12)), "12.000000s");
    }

    #[test]
    fn dur_scalar_ops() {
        assert_eq!(Dur::micros(10) * 4, Dur::micros(40));
        assert_eq!(Dur::micros(10) / 4, Dur::nanos(2_500));
        assert_eq!(Dur::micros(10).saturating_sub(Dur::micros(20)), Dur::ZERO);
        assert_eq!(Dur::micros(20).max(Dur::micros(10)), Dur::micros(20));
    }
}
