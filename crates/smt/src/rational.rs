//! Exact rational arithmetic on `i128` numerators/denominators.
//!
//! The simplex core works over ℚ; benchmark formulas have tiny coefficients,
//! so reduced `i128` fractions suffice. All operations are checked: an
//! overflow surfaces as [`ArithmeticOverflow`] and is translated by the
//! solver into an *unknown* verdict rather than a wrong one.

use std::cmp::Ordering;
use std::fmt;

/// Error returned when a rational operation overflows `i128`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArithmeticOverflow;

impl fmt::Display for ArithmeticOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rational arithmetic overflowed i128")
    }
}

impl std::error::Error for ArithmeticOverflow {}

/// A rational number in reduced form with a positive denominator.
///
/// # Example
///
/// ```
/// use smt::rational::Rat;
///
/// let a = Rat::new(1, 2).unwrap();
/// let b = Rat::new(1, 3).unwrap();
/// assert_eq!(a.add(b).unwrap(), Rat::new(5, 6).unwrap());
/// assert!(a > b);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rat {
    num: i128,
    den: i128, // invariant: den > 0, gcd(num, den) == 1
}

/// Greatest common divisor of the absolute values (`gcd(0, 0) == 0`).
pub fn gcd(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.unsigned_abs(), b.unsigned_abs());
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a as i128
}

#[allow(clippy::should_implement_trait)] // checked (fallible) arithmetic is the point of this API
impl Rat {
    /// Zero.
    pub const ZERO: Rat = Rat { num: 0, den: 1 };
    /// One.
    pub const ONE: Rat = Rat { num: 1, den: 1 };

    /// Creates the rational `num / den` in reduced form.
    ///
    /// # Errors
    ///
    /// Returns [`ArithmeticOverflow`] if `den == 0` or normalization
    /// overflows (`den == i128::MIN`).
    pub fn new(num: i128, den: i128) -> Result<Rat, ArithmeticOverflow> {
        if den == 0 {
            return Err(ArithmeticOverflow);
        }
        let g = gcd(num, den);
        let (mut num, mut den) = if g == 0 { (0, 1) } else { (num / g, den / g) };
        if den < 0 {
            num = num.checked_neg().ok_or(ArithmeticOverflow)?;
            den = den.checked_neg().ok_or(ArithmeticOverflow)?;
        }
        Ok(Rat { num, den })
    }

    /// The integer `n` as a rational.
    pub fn from_int(n: i128) -> Rat {
        Rat { num: n, den: 1 }
    }

    /// Numerator (reduced form).
    pub fn numerator(self) -> i128 {
        self.num
    }

    /// `true` if the value is an integer.
    pub fn is_integer(self) -> bool {
        self.den == 1
    }

    /// `true` if the value is zero.
    pub fn is_zero(self) -> bool {
        self.num == 0
    }

    /// Sign: -1, 0 or 1.
    pub fn signum(self) -> i128 {
        self.num.signum()
    }

    /// The value as an integer, if it is one.
    pub fn to_integer(self) -> Option<i128> {
        (self.den == 1).then_some(self.num)
    }

    /// Largest integer `≤ self`.
    pub fn floor(self) -> i128 {
        self.num.div_euclid(self.den)
    }

    /// Smallest integer `≥ self`.
    pub fn ceil(self) -> i128 {
        -(-self.num).div_euclid(self.den)
    }

    /// Checked addition.
    ///
    /// # Errors
    ///
    /// Returns [`ArithmeticOverflow`] on `i128` overflow.
    pub fn add(self, other: Rat) -> Result<Rat, ArithmeticOverflow> {
        let num = self
            .num
            .checked_mul(other.den)
            .and_then(|a| {
                other
                    .num
                    .checked_mul(self.den)
                    .and_then(|b| a.checked_add(b))
            })
            .ok_or(ArithmeticOverflow)?;
        let den = self.den.checked_mul(other.den).ok_or(ArithmeticOverflow)?;
        Rat::new(num, den)
    }

    /// Checked subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`ArithmeticOverflow`] on `i128` overflow.
    pub fn sub(self, other: Rat) -> Result<Rat, ArithmeticOverflow> {
        self.add(other.neg()?)
    }

    /// Checked multiplication.
    ///
    /// # Errors
    ///
    /// Returns [`ArithmeticOverflow`] on `i128` overflow.
    pub fn mul(self, other: Rat) -> Result<Rat, ArithmeticOverflow> {
        // Cross-reduce first to keep numbers small.
        let g1 = gcd(self.num, other.den).max(1);
        let g2 = gcd(other.num, self.den).max(1);
        let num = (self.num / g1)
            .checked_mul(other.num / g2)
            .ok_or(ArithmeticOverflow)?;
        let den = (self.den / g2)
            .checked_mul(other.den / g1)
            .ok_or(ArithmeticOverflow)?;
        Rat::new(num, den)
    }

    /// Checked division.
    ///
    /// # Errors
    ///
    /// Returns [`ArithmeticOverflow`] if `other` is zero or on overflow.
    pub fn div(self, other: Rat) -> Result<Rat, ArithmeticOverflow> {
        if other.is_zero() {
            return Err(ArithmeticOverflow);
        }
        self.mul(Rat {
            num: other.den * other.num.signum(),
            den: other.num.abs(),
        })
    }

    /// Checked negation.
    ///
    /// # Errors
    ///
    /// Returns [`ArithmeticOverflow`] if the numerator is `i128::MIN`.
    pub fn neg(self) -> Result<Rat, ArithmeticOverflow> {
        Ok(Rat {
            num: self.num.checked_neg().ok_or(ArithmeticOverflow)?,
            den: self.den,
        })
    }
}

impl PartialOrd for Rat {
    fn partial_cmp(&self, other: &Rat) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rat {
    fn cmp(&self, other: &Rat) -> Ordering {
        // den > 0 on both sides. Compare via i128 widening: values are
        // reduced, so products fit unless inputs are astronomically large;
        // fall back to f64 comparison would be unsound, so saturate instead.
        match self.num.checked_mul(other.den) {
            Some(l) => match other.num.checked_mul(self.den) {
                Some(r) => l.cmp(&r),
                None => {
                    // other side overflowed: its magnitude dominates.
                    if other.num > 0 {
                        Ordering::Less
                    } else {
                        Ordering::Greater
                    }
                }
            },
            None => {
                if self.num > 0 {
                    Ordering::Greater
                } else {
                    Ordering::Less
                }
            }
        }
    }
}

impl fmt::Debug for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<i64> for Rat {
    fn from(n: i64) -> Rat {
        Rat::from_int(n as i128)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_and_sign() {
        assert_eq!(Rat::new(2, 4).unwrap(), Rat::new(1, 2).unwrap());
        assert_eq!(Rat::new(-2, -4).unwrap(), Rat::new(1, 2).unwrap());
        assert_eq!(Rat::new(2, -4).unwrap(), Rat::new(-1, 2).unwrap());
        assert_eq!(Rat::new(0, -7).unwrap(), Rat::ZERO);
        assert!(Rat::new(1, 0).is_err());
    }

    #[test]
    fn arithmetic() {
        let half = Rat::new(1, 2).unwrap();
        let third = Rat::new(1, 3).unwrap();
        assert_eq!(half.add(third).unwrap(), Rat::new(5, 6).unwrap());
        assert_eq!(half.sub(third).unwrap(), Rat::new(1, 6).unwrap());
        assert_eq!(half.mul(third).unwrap(), Rat::new(1, 6).unwrap());
        assert_eq!(half.div(third).unwrap(), Rat::new(3, 2).unwrap());
        assert!(half.div(Rat::ZERO).is_err());
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(Rat::new(7, 2).unwrap().floor(), 3);
        assert_eq!(Rat::new(7, 2).unwrap().ceil(), 4);
        assert_eq!(Rat::new(-7, 2).unwrap().floor(), -4);
        assert_eq!(Rat::new(-7, 2).unwrap().ceil(), -3);
        assert_eq!(Rat::from_int(5).floor(), 5);
        assert_eq!(Rat::from_int(5).ceil(), 5);
    }

    #[test]
    fn ordering() {
        let vals = [
            Rat::new(-3, 2).unwrap(),
            Rat::new(-1, 3).unwrap(),
            Rat::ZERO,
            Rat::new(1, 3).unwrap(),
            Rat::new(1, 2).unwrap(),
            Rat::ONE,
        ];
        for w in vals.windows(2) {
            assert!(w[0] < w[1], "{:?} < {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn overflow_is_reported() {
        let big = Rat::from_int(i128::MAX);
        assert_eq!(big.mul(Rat::from_int(2)), Err(ArithmeticOverflow));
        assert_eq!(big.add(Rat::ONE), Err(ArithmeticOverflow));
    }

    #[test]
    fn integer_queries() {
        assert!(Rat::from_int(4).is_integer());
        assert_eq!(Rat::from_int(4).to_integer(), Some(4));
        assert!(!Rat::new(1, 2).unwrap().is_integer());
        assert_eq!(Rat::new(1, 2).unwrap().to_integer(), None);
    }

    #[test]
    fn gcd_edge_cases() {
        assert_eq!(gcd(0, 0), 0);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(-4, 6), 2);
        assert_eq!(gcd(i128::MIN + 1, 1), 1);
    }

    #[test]
    fn display() {
        assert_eq!(Rat::new(3, 1).unwrap().to_string(), "3");
        assert_eq!(Rat::new(-3, 6).unwrap().to_string(), "-1/2");
    }
}
