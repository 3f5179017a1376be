//! The configurable SIMD engine (paper Fig. 10): special functions at
//! accurate precision.
//!
//! "The DSC also includes a configurable SIMD engine (CFSE) with operand
//! memories for accurate computation of special functions such as layer
//! normalization, Softmax, non-linear functions, and residual addition. We
//! design the arithmetic units (ALUs) in CFSE to be configurable, either
//! one-way 32-bit or two-way 16-bit for double throughput."

use crate::config::DscGeometry;

/// Special functions the CFSE executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpecialFunc {
    /// Row softmax (max-reduce, exp + sum-reduce, divide).
    Softmax,
    /// LayerNorm (mean, variance, normalize+affine).
    LayerNorm,
    /// GELU / GEGLU pointwise.
    Gelu,
    /// Residual addition.
    Residual,
    /// Quantize / dequantize scale pass.
    Quantize,
}

impl SpecialFunc {
    /// Element passes the function needs.
    pub fn passes(&self) -> u64 {
        match self {
            SpecialFunc::Softmax | SpecialFunc::LayerNorm => 3,
            SpecialFunc::Gelu | SpecialFunc::Residual | SpecialFunc::Quantize => 1,
        }
    }
}

/// ALU width mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CfseWidth {
    /// One-way 32-bit.
    OneWay32,
    /// Two-way 16-bit (double throughput).
    TwoWay16,
}

impl CfseWidth {
    /// Elements processed per ALU per cycle.
    pub fn throughput(&self) -> u64 {
        match self {
            CfseWidth::OneWay32 => 1,
            CfseWidth::TwoWay16 => 2,
        }
    }
}

/// CFSE cycle model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CfseModel {
    geometry: DscGeometry,
}

impl CfseModel {
    /// Creates a model with `geometry.cfse_lanes` ALUs.
    pub fn new(geometry: DscGeometry) -> Self {
        Self { geometry }
    }

    /// Cycles to run `func` over `elements` values at `width`.
    pub fn cycles(&self, func: SpecialFunc, elements: u64, width: CfseWidth) -> u64 {
        let per_cycle = self.geometry.cfse_lanes as u64 * width.throughput();
        func.passes() * elements.div_ceil(per_cycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CfseModel {
        CfseModel::new(DscGeometry::exion())
    }

    #[test]
    fn softmax_needs_three_passes() {
        let m = model();
        // 16 lanes × 2-way = 32 elements/cycle; 320 elements → 10 cycles/pass.
        assert_eq!(m.cycles(SpecialFunc::Softmax, 320, CfseWidth::TwoWay16), 30);
    }

    #[test]
    fn two_way_doubles_throughput() {
        let m = model();
        let one = m.cycles(SpecialFunc::Gelu, 1024, CfseWidth::OneWay32);
        let two = m.cycles(SpecialFunc::Gelu, 1024, CfseWidth::TwoWay16);
        assert_eq!(one, 2 * two);
    }

    #[test]
    fn residual_is_single_pass() {
        assert_eq!(SpecialFunc::Residual.passes(), 1);
        assert_eq!(SpecialFunc::LayerNorm.passes(), 3);
    }

    #[test]
    fn zero_elements_zero_cycles() {
        assert_eq!(
            model().cycles(SpecialFunc::Softmax, 0, CfseWidth::TwoWay16),
            0
        );
    }
}
