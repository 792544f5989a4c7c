//! L2 cache reuse model.
//!
//! Redundant KV loads (the one-query-per-CTA pattern of §3.2) may be partially
//! served by the 40 MB L2 instead of HBM. The paper's measurements (Fig. 6a)
//! show L2 only partially hides the redundancy because the re-accessed working
//! set exceeds L2 capacity and concurrently executing CTAs drift apart.
//! [`reuse_fraction`] models this in closed form: a re-access hits L2 with
//! probability `min(1, capacity / working-set footprint)`.

/// Closed-form probability that a *re-access* of previously touched data hits
/// L2, given the working-set footprint competing for the cache.
///
/// # Examples
///
/// ```
/// use sim_gpu::l2::reuse_fraction;
///
/// assert_eq!(reuse_fraction(40e6, 10e6), 1.0); // fits entirely
/// assert!((reuse_fraction(40e6, 160e6) - 0.25).abs() < 1e-12);
/// ```
pub fn reuse_fraction(l2_capacity_bytes: f64, footprint_bytes: f64) -> f64 {
    if footprint_bytes <= 0.0 {
        1.0
    } else {
        (l2_capacity_bytes / footprint_bytes).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reuse_fraction_clamps() {
        assert_eq!(reuse_fraction(10.0, 0.0), 1.0);
        assert_eq!(reuse_fraction(10.0, 5.0), 1.0);
        assert!((reuse_fraction(10.0, 40.0) - 0.25).abs() < 1e-12);
    }
}
