//! Scalar and vector types of the CITROEN intermediate representation.
//!
//! The IR is deliberately small but wide enough to express the optimisation
//! phenomena the paper relies on: multiple integer widths (so sign-extension
//! widening by `instcombine` is observable, Fig. 5.1), floating point, and
//! short SIMD vectors (so the SLP/loop vectorisers have something to emit).


/// Scalar component type. Pointers are modelled as `I64` byte addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ScalarTy {
    /// 1-bit boolean (comparison results, branch conditions).
    I1,
    /// 8-bit signed integer.
    I8,
    /// 16-bit signed integer.
    I16,
    /// 32-bit signed integer.
    I32,
    /// 64-bit signed integer; also the pointer type.
    I64,
    /// IEEE-754 double.
    F64,
}

impl ScalarTy {
    /// Width of the scalar in bits (64 for `F64`).
    #[inline]
    pub fn bits(self) -> u32 {
        match self {
            ScalarTy::I1 => 1,
            ScalarTy::I8 => 8,
            ScalarTy::I16 => 16,
            ScalarTy::I32 => 32,
            ScalarTy::I64 | ScalarTy::F64 => 64,
        }
    }

    /// Size in bytes when stored to memory (`I1` occupies one byte).
    #[inline]
    pub fn bytes(self) -> u32 {
        match self {
            ScalarTy::I1 | ScalarTy::I8 => 1,
            ScalarTy::I16 => 2,
            ScalarTy::I32 => 4,
            ScalarTy::I64 | ScalarTy::F64 => 8,
        }
    }

    /// Whether this is an integer type (everything except `F64`).
    pub fn is_int(self) -> bool {
        !matches!(self, ScalarTy::F64)
    }

    /// Sign-extend `v` (assumed to occupy the low `bits()` of the i64) to i64.
    #[inline]
    pub fn sext(self, v: i64) -> i64 {
        match self {
            ScalarTy::I1 => {
                if v & 1 != 0 {
                    -1
                } else {
                    0
                }
            }
            ScalarTy::I8 => v as i8 as i64,
            ScalarTy::I16 => v as i16 as i64,
            ScalarTy::I32 => v as i32 as i64,
            ScalarTy::I64 | ScalarTy::F64 => v,
        }
    }

    /// Zero-extend `v`'s low `bits()` to i64.
    #[inline]
    pub fn zext(self, v: i64) -> i64 {
        match self {
            ScalarTy::I1 => v & 1,
            ScalarTy::I8 => v as u8 as i64,
            ScalarTy::I16 => v as u16 as i64,
            ScalarTy::I32 => v as u32 as i64,
            ScalarTy::I64 | ScalarTy::F64 => v,
        }
    }

    /// Canonical in-register form: registers hold the sign-extended value.
    #[inline]
    pub fn wrap(self, v: i64) -> i64 {
        self.sext(v)
    }

    /// Short mnemonic used by the textual printer.
    pub fn name(self) -> &'static str {
        match self {
            ScalarTy::I1 => "i1",
            ScalarTy::I8 => "i8",
            ScalarTy::I16 => "i16",
            ScalarTy::I32 => "i32",
            ScalarTy::I64 => "i64",
            ScalarTy::F64 => "f64",
        }
    }
}

/// Full value type: a scalar with a lane count (`lanes == 1` means scalar).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ty {
    /// Element type.
    pub scalar: ScalarTy,
    /// Number of SIMD lanes; 1 for scalars. At most [`MAX_LANES`].
    pub lanes: u8,
}

/// Maximum number of SIMD lanes representable by the interpreter.
pub const MAX_LANES: u8 = 8;

impl Ty {
    /// Scalar type constructor.
    pub const fn scalar(scalar: ScalarTy) -> Ty {
        Ty { scalar, lanes: 1 }
    }

    /// Vector type constructor. Panics if `lanes` is 0 or exceeds [`MAX_LANES`].
    pub fn vector(scalar: ScalarTy, lanes: u8) -> Ty {
        assert!((1..=MAX_LANES).contains(&lanes), "bad lane count {lanes}");
        Ty { scalar, lanes }
    }

    /// Whether the type is a vector (more than one lane).
    pub fn is_vector(self) -> bool {
        self.lanes > 1
    }

    /// Total storage size in bytes.
    pub fn bytes(self) -> u32 {
        self.scalar.bytes() * self.lanes as u32
    }

    /// Total width in bits, as used by vectoriser profitability checks.
    pub fn bits(self) -> u32 {
        self.scalar.bits() * self.lanes as u32
    }
}

/// `i1` scalar.
pub const I1: Ty = Ty::scalar(ScalarTy::I1);
/// `i8` scalar.
pub const I8: Ty = Ty::scalar(ScalarTy::I8);
/// `i16` scalar.
pub const I16: Ty = Ty::scalar(ScalarTy::I16);
/// `i32` scalar.
pub const I32: Ty = Ty::scalar(ScalarTy::I32);
/// `i64` scalar; also the pointer type.
pub const I64: Ty = Ty::scalar(ScalarTy::I64);
/// `f64` scalar.
pub const F64: Ty = Ty::scalar(ScalarTy::F64);

impl std::fmt::Display for Ty {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.lanes == 1 {
            write!(f, "{}", self.scalar.name())
        } else {
            write!(f, "<{} x {}>", self.lanes, self.scalar.name())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths() {
        assert_eq!(ScalarTy::I16.bits(), 16);
        assert_eq!(ScalarTy::I16.bytes(), 2);
        assert_eq!(Ty::vector(ScalarTy::I32, 4).bytes(), 16);
        assert_eq!(Ty::vector(ScalarTy::I32, 4).bits(), 128);
    }

    #[test]
    fn sext_zext_wrap() {
        assert_eq!(ScalarTy::I8.sext(0xff), -1);
        assert_eq!(ScalarTy::I8.zext(0xff), 255);
        assert_eq!(ScalarTy::I16.sext(0x8000), -32768);
        assert_eq!(ScalarTy::I1.sext(3), -1);
        assert_eq!(ScalarTy::I1.zext(3), 1);
        assert_eq!(ScalarTy::I64.sext(-5), -5);
        // wrap keeps canonical sign-extended form
        assert_eq!(ScalarTy::I8.wrap(257), 1);
        assert_eq!(ScalarTy::I8.wrap(128), -128);
    }

    #[test]
    fn display() {
        assert_eq!(I32.to_string(), "i32");
        assert_eq!(Ty::vector(ScalarTy::F64, 2).to_string(), "<2 x f64>");
    }

    #[test]
    #[should_panic]
    fn too_many_lanes() {
        Ty::vector(ScalarTy::I8, 16);
    }
}
