//! The host's SIMD level, reported as run metadata.
//!
//! No kernel in the workspace dispatches on it: the intersection cost is
//! modelled in closed form and [`crate::fiber::Fiber::intersect_counted`]
//! is one portable two-finger merge. Benchmark runners record the level
//! beside their results so that measurements from different hosts can be
//! told apart.

/// The widest SIMD extension this host offers that the workspace names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// No AVX2 (or not an x86_64 host).
    Scalar,
    /// The CPU supports AVX2.
    Avx2,
}

impl core::fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
        })
    }
}

/// The host's [`SimdLevel`], from CPU feature detection.
pub fn active_level() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return SimdLevel::Avx2;
    }
    SimdLevel::Scalar
}
