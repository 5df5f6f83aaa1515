//! Dynamic loss scaling for fp16 mixed-precision training.
//!
//! fp16 gradients underflow easily; scaling the loss up before backward
//! and unscaling gradients before the optimizer step preserves small
//! gradient values. On overflow (inf/NaN in gradients) the step is skipped
//! and the scale backed off — the standard recipe referenced in Sec. 2.

/// Dynamic loss scaler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossScaler {
    scale: f32,
    growth_factor: f32,
    backoff_factor: f32,
    growth_interval: u32,
    good_steps: u32,
}

impl Default for LossScaler {
    fn default() -> Self {
        LossScaler {
            scale: 65536.0,
            growth_factor: 2.0,
            backoff_factor: 0.5,
            growth_interval: 2000,
            good_steps: 0,
        }
    }
}

impl LossScaler {
    /// Current loss scale.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// True if any gradient value is non-finite.
    pub fn has_overflow(grads: &[f32]) -> bool {
        grads.iter().any(|v| !v.is_finite())
    }

    /// Record the outcome of a step. Returns `true` if the optimizer step
    /// should be applied (no overflow) or `false` if it must be skipped.
    pub fn update(&mut self, overflow: bool) -> bool {
        if overflow {
            self.scale = (self.scale * self.backoff_factor).max(1.0);
            self.good_steps = 0;
            false
        } else {
            self.good_steps += 1;
            if self.good_steps >= self.growth_interval {
                self.scale *= self.growth_factor;
                self.good_steps = 0;
            }
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_scale(scale: f32) -> LossScaler {
        LossScaler { scale, ..Default::default() }
    }

    #[test]
    fn overflow_detection() {
        assert!(!LossScaler::has_overflow(&[1.0, -2.0, 0.0]));
        assert!(LossScaler::has_overflow(&[1.0, f32::NAN]));
        assert!(LossScaler::has_overflow(&[f32::INFINITY]));
        assert!(LossScaler::has_overflow(&[f32::NEG_INFINITY, 0.0]));
    }

    #[test]
    fn backoff_halves_scale_and_skips_step() {
        let mut s = with_scale(1024.0);
        assert!(!s.update(true));
        assert_eq!(s.scale(), 512.0);
    }

    #[test]
    fn growth_after_interval() {
        let mut s = with_scale(2.0);
        // Shrink interval by driving updates manually.
        for _ in 0..2000 {
            assert!(s.update(false));
        }
        assert_eq!(s.scale(), 4.0);
    }

    #[test]
    fn overflow_resets_growth_progress() {
        let mut s = with_scale(2.0);
        for _ in 0..1999 {
            s.update(false);
        }
        s.update(true); // overflow just before growth
        assert_eq!(s.scale(), 1.0);
        for _ in 0..1999 {
            s.update(false);
        }
        // Still hasn't grown: the counter restarted after overflow.
        assert_eq!(s.scale(), 1.0);
        s.update(false);
        assert_eq!(s.scale(), 2.0);
    }

    #[test]
    fn scale_never_drops_below_one() {
        let mut s = with_scale(1.5);
        for _ in 0..10 {
            s.update(true);
        }
        assert_eq!(s.scale(), 1.0);
    }
}
