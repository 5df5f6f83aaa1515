//! Byte-size arithmetic helpers.

use std::fmt;

/// Number of bytes, with convenience constructors and pretty printing.
///
/// The paper reasons in KB/MB/GB/TB throughout (Fig. 2); this newtype keeps
/// unit conversions in one place.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ByteSize(pub u64);

impl ByteSize {
    /// Kibibyte (1024 bytes).
    pub(crate) const KIB: u64 = 1024;
    /// Mebibyte.
    pub(crate) const MIB: u64 = 1024 * 1024;
    /// Gibibyte.
    pub(crate) const GIB: u64 = 1024 * 1024 * 1024;
    /// Tebibyte.
    pub(crate) const TIB: u64 = 1024 * 1024 * 1024 * 1024;

    /// From gibibytes.
    pub const fn gib(n: u64) -> Self {
        ByteSize(n * Self::GIB)
    }

    /// From tebibytes.
    pub const fn tib(n: u64) -> Self {
        ByteSize(n * Self::TIB)
    }

    /// Raw byte count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Fractional gibibytes, for reporting.
    pub fn as_gib_f64(self) -> f64 {
        self.0 as f64 / Self::GIB as f64
    }

    /// Fractional tebibytes, for reporting.
    pub fn as_tib_f64(self) -> f64 {
        self.0 as f64 / Self::TIB as f64
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        if b >= Self::TIB {
            write!(f, "{:.2} TiB", b as f64 / Self::TIB as f64)
        } else if b >= Self::GIB {
            write!(f, "{:.2} GiB", b as f64 / Self::GIB as f64)
        } else if b >= Self::MIB {
            write!(f, "{:.2} MiB", b as f64 / Self::MIB as f64)
        } else if b >= Self::KIB {
            write!(f, "{:.2} KiB", b as f64 / Self::KIB as f64)
        } else {
            write!(f, "{b} B")
        }
    }
}

impl std::ops::Add for ByteSize {
    type Output = ByteSize;
    fn add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 + rhs.0)
    }
}

impl std::ops::Sub for ByteSize {
    type Output = ByteSize;
    fn sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 - rhs.0)
    }
}

impl std::ops::Mul<u64> for ByteSize {
    type Output = ByteSize;
    fn mul(self, rhs: u64) -> ByteSize {
        ByteSize(self.0 * rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_constructors() {
        assert_eq!(ByteSize::gib(1).as_u64(), 1 << 30);
        assert_eq!(ByteSize::tib(1).as_u64(), 1 << 40);
    }

    #[test]
    fn arithmetic() {
        assert_eq!(ByteSize::gib(1) + ByteSize::gib(1), ByteSize::gib(2));
        assert_eq!(ByteSize::gib(3) - ByteSize::gib(1), ByteSize::gib(2));
        assert_eq!(ByteSize(4) * 3, ByteSize(12));
    }

    #[test]
    fn pretty_printing() {
        assert_eq!(ByteSize(512).to_string(), "512 B");
        assert_eq!(ByteSize(1024).to_string(), "1.00 KiB");
        assert_eq!(ByteSize::gib(5).to_string(), "5.00 GiB");
        assert_eq!(ByteSize::tib(2).to_string(), "2.00 TiB");
    }

    #[test]
    fn float_reports() {
        assert!((ByteSize::gib(1).as_gib_f64() - 1.0).abs() < 1e-12);
        assert!((ByteSize::tib(1).as_tib_f64() - 1.0).abs() < 1e-12);
    }
}
