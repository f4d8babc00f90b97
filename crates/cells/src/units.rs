//! Strongly typed physical quantities used throughout the workspace.
//!
//! Every quantity is a thin `f64` newtype so that a delay can never be
//! accidentally added to a capacitance. The few physically meaningful
//! cross-type operations (e.g. `Ohms * Femtofarads -> Picoseconds`) are
//! provided as operator impls.

use serde::Serialize;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

macro_rules! unit {
    ($(#[$meta:meta])* $name:ident, $suffix:literal) => {
        $(#[$meta])*
        #[derive(Debug, Default, Clone, Copy, PartialEq, PartialOrd, Serialize)]
        #[serde(transparent)]
        pub struct $name(f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// Wraps a raw `f64` value expressed in this unit.
            #[inline]
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// Returns the raw value in this unit.
            #[inline]
            pub const fn value(self) -> f64 {
                self.0
            }

            /// Returns the absolute value.
            #[inline]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Returns the componentwise minimum.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Returns the componentwise maximum.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// `true` when the value is finite (not NaN / infinity).
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if let Some(prec) = f.precision() {
                    write!(f, "{:.*} {}", prec, self.0, $suffix)
                } else {
                    write!(f, "{} {}", self.0, $suffix)
                }
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div for $name {
            type Output = f64;
            #[inline]
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|v| v.0).sum())
            }
        }
    };
}

unit!(
    /// A time quantity in picoseconds.
    Picoseconds,
    "ps"
);
unit!(
    /// A current quantity in microamperes.
    MicroAmps,
    "uA"
);
unit!(
    /// A capacitance quantity in femtofarads.
    Femtofarads,
    "fF"
);
unit!(
    /// A resistance quantity in ohms.
    Ohms,
    "ohm"
);
unit!(
    /// A voltage quantity in volts.
    Volts,
    "V"
);
unit!(
    /// A length quantity in microns.
    Microns,
    "um"
);
unit!(
    /// A voltage-noise quantity in millivolts.
    Millivolts,
    "mV"
);
unit!(
    /// A current quantity in milliamperes (used for whole-chip peaks).
    MilliAmps,
    "mA"
);

impl Mul<Femtofarads> for Ohms {
    type Output = Picoseconds;

    /// The RC product: `1 Ω × 1 fF = 10⁻³ ps`.
    #[inline]
    fn mul(self, rhs: Femtofarads) -> Picoseconds {
        Picoseconds::new(self.value() * rhs.value() * 1e-3)
    }
}

impl Mul<Ohms> for Femtofarads {
    type Output = Picoseconds;
    #[inline]
    fn mul(self, rhs: Ohms) -> Picoseconds {
        rhs * self
    }
}

impl MicroAmps {
    /// Converts to milliamperes.
    #[inline]
    pub fn to_milliamps(self) -> MilliAmps {
        MilliAmps::new(self.value() * 1e-3)
    }
}

impl MilliAmps {
    /// Converts to microamperes.
    #[inline]
    pub fn to_microamps(self) -> MicroAmps {
        MicroAmps::new(self.value() * 1e3)
    }
}

impl Volts {
    /// Converts to millivolts.
    #[inline]
    pub fn to_millivolts(self) -> Millivolts {
        Millivolts::new(self.value() * 1e3)
    }
}

/// The electric charge moved by a current pulse, in femtocoulombs.
///
/// `1 µA × 1 ps = 10⁻³ fC`, so a triangular pulse of peak `I` and width `w`
/// carries `0.5 × I × w × 10⁻³` fC.
#[inline]
pub fn charge_fc(peak: MicroAmps, width: Picoseconds) -> f64 {
    0.5 * peak.value() * width.value() * 1e-3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rc_product_units() {
        // 1 kΩ × 1 fF = 1 ps
        let t = Ohms::new(1000.0) * Femtofarads::new(1.0);
        assert!((t.value() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn arithmetic_roundtrip() {
        let a = Picoseconds::new(3.0);
        let b = Picoseconds::new(4.5);
        assert_eq!((a + b).value(), 7.5);
        assert_eq!((b - a).value(), 1.5);
        assert_eq!((-a).value(), -3.0);
        assert_eq!((a * 2.0).value(), 6.0);
        assert_eq!((2.0 * a).value(), 6.0);
        assert_eq!((b / 3.0).value(), 1.5);
        assert_eq!(b / a, 1.5);
    }

    #[test]
    fn min_max_abs() {
        let a = Picoseconds::new(-3.0);
        let b = Picoseconds::new(2.0);
        assert_eq!(a.abs().value(), 3.0);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn sum_collects() {
        let total: Picoseconds = (1..=4).map(|i| Picoseconds::new(i as f64)).sum();
        assert_eq!(total.value(), 10.0);
    }

    #[test]
    fn display_formats_with_suffix() {
        assert_eq!(format!("{:.1}", Picoseconds::new(3.25)), "3.2 ps");
        assert_eq!(format!("{}", MicroAmps::new(5.0)), "5 uA");
    }

    #[test]
    fn unit_conversions() {
        assert_eq!(MicroAmps::new(1500.0).to_milliamps().value(), 1.5);
        assert_eq!(MilliAmps::new(1.5).to_microamps().value(), 1500.0);
        assert_eq!(Volts::new(0.05).to_millivolts().value(), 50.0);
    }

    #[test]
    fn charge_of_triangle() {
        // 100 µA peak, 40 ps wide triangle -> 2 fC
        let q = charge_fc(MicroAmps::new(100.0), Picoseconds::new(40.0));
        assert!((q - 2.0).abs() < 1e-12);
    }

    #[test]
    fn serde_roundtrip_is_transparent() {
        let v = Picoseconds::new(12.5);
        let json = serde_json_like(v.value());
        assert_eq!(json, "12.5");
    }

    fn serde_json_like(v: f64) -> String {
        // serde_json is not a dependency of this crate; the transparent
        // representation is just the number itself.
        format!("{v}")
    }
}
