//! Numeric error functions: noise, scaling, outliers, rounding, unit
//! conversion.

use super::{map_numeric, validate_numeric, ErrorFunction};
use icewafl_types::{ColumnBatch, Result, Schema, Timestamp, Tuple};
use rand::rngs::StdRng;
use rand::RngExt;
use rand_distr::{Distribution, Normal};

/// Gaussian noise — one of the paper's example static error types
/// (Fig. 3).
///
/// Additive mode replaces `v` with `v + N(0, σ·intensity)`; relative
/// mode with `v · (1 + N(0, σ·intensity))`.
pub struct GaussianNoise {
    sigma: f64,
    relative: bool,
    rng: StdRng,
}

impl GaussianNoise {
    /// Additive Gaussian noise with standard deviation `sigma`.
    pub fn additive(sigma: f64, rng: StdRng) -> Self {
        GaussianNoise {
            sigma: sigma.abs(),
            relative: false,
            rng,
        }
    }

    /// Relative (multiplicative) Gaussian noise.
    pub fn relative(sigma: f64, rng: StdRng) -> Self {
        GaussianNoise {
            sigma: sigma.abs(),
            relative: true,
            rng,
        }
    }
}

impl ErrorFunction for GaussianNoise {
    fn validate(&self, schema: &Schema, attrs: &[usize]) -> Result<()> {
        validate_numeric(self.name(), schema, attrs)
    }

    fn apply(&mut self, tuple: &mut Tuple, attrs: &[usize], _tau: Timestamp, intensity: f64) {
        let sigma = self.sigma * intensity;
        if sigma <= 0.0 {
            return;
        }
        let normal = Normal::new(0.0, sigma).expect("sigma validated non-negative");
        let relative = self.relative;
        let rng = &mut self.rng;
        map_numeric(tuple, attrs, |x| {
            let n = normal.sample(rng);
            if relative {
                x * (1.0 + n)
            } else {
                x + n
            }
        });
    }

    fn name(&self) -> &'static str {
        "gaussian_noise"
    }

    fn snapshot_state(&self) -> Option<String> {
        Some(crate::snapshot::rng_doc(&self.rng))
    }

    fn restore_state(&mut self, state: &str) -> Result<()> {
        self.rng = crate::snapshot::rng_from_doc(state)?;
        Ok(())
    }

    fn has_column_kernel(&self) -> bool {
        true
    }

    fn apply_columns(
        &mut self,
        batch: &mut ColumnBatch,
        attrs: &[usize],
        mask: &[u8],
        intensities: &[f64],
    ) {
        // Stochastic: the draw order (row-outer, attr-inner, one normal
        // per valid numeric slot) must match the row path exactly, so
        // the loop stays scalar — the win over the row path is
        // skipping per-tuple value access.
        let relative = self.relative;
        for row in 0..batch.len() {
            if mask[row] == 0 {
                continue;
            }
            let sigma = self.sigma * intensities[row];
            if sigma <= 0.0 {
                continue;
            }
            let normal = Normal::new(0.0, sigma).expect("sigma validated non-negative");
            for &idx in attrs {
                let col = batch.column_mut(idx);
                if let Some(x) = col.numeric_at(row) {
                    let n = normal.sample(&mut self.rng);
                    let y = if relative { x * (1.0 + n) } else { x + n };
                    col.set_numeric_at(row, y);
                }
            }
        }
    }
}

/// The paper's experiment-2 noise (§3.2.1, equation (3)): draw
/// `u ~ U(a, b)` and, on a fair coin toss, multiply the value by
/// `(1 + u)` or `(1 − u)`.
///
/// The bounds grow with the intensity (`a = a_max·i`, `b = b_max·i`),
/// which together with an `Incremental` change pattern reproduces the
/// "temporally increasing noise" pollution of Figure 6.
pub struct UniformMultiplicativeNoise {
    a_max: f64,
    b_max: f64,
    rng: StdRng,
}

impl UniformMultiplicativeNoise {
    /// Noise with maximal bounds `[a_max, b_max]` (reached at intensity
    /// 1).
    pub fn new(a_max: f64, b_max: f64, rng: StdRng) -> Self {
        let (lo, hi) = if a_max <= b_max {
            (a_max, b_max)
        } else {
            (b_max, a_max)
        };
        UniformMultiplicativeNoise {
            a_max: lo,
            b_max: hi,
            rng,
        }
    }
}

impl ErrorFunction for UniformMultiplicativeNoise {
    fn validate(&self, schema: &Schema, attrs: &[usize]) -> Result<()> {
        validate_numeric(self.name(), schema, attrs)
    }

    fn apply(&mut self, tuple: &mut Tuple, attrs: &[usize], _tau: Timestamp, intensity: f64) {
        let a = self.a_max * intensity;
        let b = self.b_max * intensity;
        let rng = &mut self.rng;
        map_numeric(tuple, attrs, |x| {
            let u = if b > a { rng.random_range(a..b) } else { a };
            // Fair coin: increase or decrease.
            if rng.random_bool(0.5) {
                x * (1.0 + u)
            } else {
                x * (1.0 - u)
            }
        });
    }

    fn name(&self) -> &'static str {
        "uniform_multiplicative_noise"
    }

    fn snapshot_state(&self) -> Option<String> {
        Some(crate::snapshot::rng_doc(&self.rng))
    }

    fn restore_state(&mut self, state: &str) -> Result<()> {
        self.rng = crate::snapshot::rng_from_doc(state)?;
        Ok(())
    }

    fn has_column_kernel(&self) -> bool {
        true
    }

    fn apply_columns(
        &mut self,
        batch: &mut ColumnBatch,
        attrs: &[usize],
        mask: &[u8],
        intensities: &[f64],
    ) {
        // Stochastic: scalar row-outer loop to preserve the exact draw
        // sequence (`u` iff `b > a`, then always one coin, per valid
        // numeric slot in attr order).
        for row in 0..batch.len() {
            if mask[row] == 0 {
                continue;
            }
            let a = self.a_max * intensities[row];
            let b = self.b_max * intensities[row];
            for &idx in attrs {
                let col = batch.column_mut(idx);
                if let Some(x) = col.numeric_at(row) {
                    let u = if b > a {
                        self.rng.random_range(a..b)
                    } else {
                        a
                    };
                    let y = if self.rng.random_bool(0.5) {
                        x * (1.0 + u)
                    } else {
                        x * (1.0 - u)
                    };
                    col.set_numeric_at(row, y);
                }
            }
        }
    }
}

/// Scales values by a constant factor — "Scaled by Factor" in Fig. 3,
/// and the ×0.125 polluter of the Figure-7 experiment.
///
/// Under partial intensity `i`, the effective factor interpolates
/// between identity and the full factor: `1 + (factor − 1)·i`.
pub struct ScaleByFactor {
    factor: f64,
}

impl ScaleByFactor {
    /// A scaling error with the given factor.
    pub fn new(factor: f64) -> Self {
        ScaleByFactor { factor }
    }
}

impl ErrorFunction for ScaleByFactor {
    fn validate(&self, schema: &Schema, attrs: &[usize]) -> Result<()> {
        validate_numeric(self.name(), schema, attrs)
    }

    fn apply(&mut self, tuple: &mut Tuple, attrs: &[usize], _tau: Timestamp, intensity: f64) {
        let f = 1.0 + (self.factor - 1.0) * intensity;
        map_numeric(tuple, attrs, |x| x * f);
    }

    fn name(&self) -> &'static str {
        "scale_by_factor"
    }

    fn has_column_kernel(&self) -> bool {
        true
    }

    fn apply_columns(
        &mut self,
        batch: &mut ColumnBatch,
        attrs: &[usize],
        mask: &[u8],
        intensities: &[f64],
    ) {
        let factor = self.factor;
        for &idx in attrs {
            batch
                .column_mut(idx)
                .map_numeric_masked(mask, |row, x| x * (1.0 + (factor - 1.0) * intensities[row]));
        }
    }
}

/// Unit conversion — the km→cm error of the software-update scenario.
///
/// Unlike [`ScaleByFactor`], the factor is applied exactly regardless of
/// intensity: a unit error either happened or it did not.
pub struct UnitConversion {
    factor: f64,
}

impl UnitConversion {
    /// A unit-conversion error multiplying by `factor`.
    pub fn new(factor: f64) -> Self {
        UnitConversion { factor }
    }

    /// Kilometres to centimetres (×100 000) — the exact conversion used
    /// in §3.1.2.
    pub fn km_to_cm() -> Self {
        Self::new(100_000.0)
    }
}

impl ErrorFunction for UnitConversion {
    fn validate(&self, schema: &Schema, attrs: &[usize]) -> Result<()> {
        validate_numeric(self.name(), schema, attrs)
    }

    fn apply(&mut self, tuple: &mut Tuple, attrs: &[usize], _tau: Timestamp, _intensity: f64) {
        map_numeric(tuple, attrs, |x| x * self.factor);
    }

    fn name(&self) -> &'static str {
        "unit_conversion"
    }

    fn has_column_kernel(&self) -> bool {
        true
    }

    fn apply_columns(
        &mut self,
        batch: &mut ColumnBatch,
        attrs: &[usize],
        mask: &[u8],
        _intensities: &[f64],
    ) {
        let factor = self.factor;
        for &idx in attrs {
            batch
                .column_mut(idx)
                .map_numeric_masked(mask, |_, x| x * factor);
        }
    }
}

/// Injects outliers: shifts the value by `magnitude · scale` in a random
/// direction, where `scale` is `max(|v|, 1)` so zero values also become
/// visibly anomalous.
pub struct Outlier {
    magnitude: f64,
    rng: StdRng,
}

impl Outlier {
    /// An outlier error of the given relative magnitude.
    pub fn new(magnitude: f64, rng: StdRng) -> Self {
        Outlier {
            magnitude: magnitude.abs(),
            rng,
        }
    }
}

impl ErrorFunction for Outlier {
    fn validate(&self, schema: &Schema, attrs: &[usize]) -> Result<()> {
        validate_numeric(self.name(), schema, attrs)
    }

    fn apply(&mut self, tuple: &mut Tuple, attrs: &[usize], _tau: Timestamp, intensity: f64) {
        let magnitude = self.magnitude * intensity;
        let rng = &mut self.rng;
        map_numeric(tuple, attrs, |x| {
            let dir = if rng.random_bool(0.5) { 1.0 } else { -1.0 };
            x + dir * magnitude * x.abs().max(1.0)
        });
    }

    fn name(&self) -> &'static str {
        "outlier"
    }

    fn snapshot_state(&self) -> Option<String> {
        Some(crate::snapshot::rng_doc(&self.rng))
    }

    fn restore_state(&mut self, state: &str) -> Result<()> {
        self.rng = crate::snapshot::rng_from_doc(state)?;
        Ok(())
    }

    fn has_column_kernel(&self) -> bool {
        true
    }

    fn apply_columns(
        &mut self,
        batch: &mut ColumnBatch,
        attrs: &[usize],
        mask: &[u8],
        intensities: &[f64],
    ) {
        // Stochastic: one direction coin per valid numeric slot, in row
        // order — magnitude does not gate the draw (the row path tosses
        // even when the shift is zero).
        for row in 0..batch.len() {
            if mask[row] == 0 {
                continue;
            }
            let magnitude = self.magnitude * intensities[row];
            for &idx in attrs {
                let col = batch.column_mut(idx);
                if let Some(x) = col.numeric_at(row) {
                    let dir = if self.rng.random_bool(0.5) { 1.0 } else { -1.0 };
                    col.set_numeric_at(row, x + dir * magnitude * x.abs().max(1.0));
                }
            }
        }
    }
}

/// Rounds values to a fixed number of decimal places — the
/// "CaloriesBurned precision to 2" polluter of the software-update
/// scenario.
pub struct Rounding {
    precision: u32,
}

impl Rounding {
    /// Rounds to `precision` decimal places.
    pub fn new(precision: u32) -> Self {
        Rounding { precision }
    }
}

impl ErrorFunction for Rounding {
    fn validate(&self, schema: &Schema, attrs: &[usize]) -> Result<()> {
        validate_numeric(self.name(), schema, attrs)
    }

    fn apply(&mut self, tuple: &mut Tuple, attrs: &[usize], _tau: Timestamp, _intensity: f64) {
        let scale = 10f64.powi(self.precision.min(15) as i32);
        map_numeric(tuple, attrs, |x| (x * scale).round() / scale);
    }

    fn name(&self) -> &'static str {
        "rounding"
    }

    fn has_column_kernel(&self) -> bool {
        true
    }

    fn apply_columns(
        &mut self,
        batch: &mut ColumnBatch,
        attrs: &[usize],
        mask: &[u8],
        _intensities: &[f64],
    ) {
        let scale = 10f64.powi(self.precision.min(15) as i32);
        for &idx in attrs {
            batch
                .column_mut(idx)
                .map_numeric_masked(mask, |_, x| (x * scale).round() / scale);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error_fn::test_util::apply_once;
    use icewafl_types::{DataType, Value};
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    fn float_schema() -> Schema {
        Schema::from_pairs([("a", DataType::Float), ("s", DataType::Str)]).unwrap()
    }

    #[test]
    fn gaussian_additive_changes_values_plausibly() {
        let mut f = GaussianNoise::additive(1.0, rng());
        let mut deltas = Vec::new();
        for _ in 0..2000 {
            let t = apply_once(&mut f, vec![Value::Float(10.0)], &[0]);
            deltas.push(t.get(0).unwrap().as_f64().unwrap() - 10.0);
        }
        let mean = deltas.iter().sum::<f64>() / deltas.len() as f64;
        let var = deltas.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / deltas.len() as f64;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var - 1.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn gaussian_relative_scales_with_value() {
        let mut f = GaussianNoise::relative(0.1, rng());
        let t = apply_once(&mut f, vec![Value::Float(100.0)], &[0]);
        let v = t.get(0).unwrap().as_f64().unwrap();
        assert!(v != 100.0 && (v - 100.0).abs() < 100.0, "v {v}");
    }

    #[test]
    fn gaussian_zero_intensity_is_identity() {
        let mut f = GaussianNoise::additive(5.0, rng());
        let mut t = Tuple::new(vec![Value::Float(3.0)]);
        f.apply(&mut t, &[0], Timestamp(0), 0.0);
        assert_eq!(t.get(0).unwrap(), &Value::Float(3.0));
    }

    #[test]
    fn gaussian_skips_null_and_strings() {
        let mut f = GaussianNoise::additive(1.0, rng());
        let t = apply_once(&mut f, vec![Value::Null, Value::Str("x".into())], &[0, 1]);
        assert!(t.get(0).unwrap().is_null());
        assert_eq!(t.get(1).unwrap(), &Value::Str("x".into()));
    }

    #[test]
    fn gaussian_validates_types() {
        let f = GaussianNoise::additive(1.0, rng());
        let s = float_schema();
        assert!(f.validate(&s, &[0]).is_ok());
        assert!(f.validate(&s, &[1]).is_err(), "string attr rejected");
        assert!(f.validate(&s, &[7]).is_err(), "out of range rejected");
    }

    #[test]
    fn uniform_noise_respects_bounds() {
        let mut f = UniformMultiplicativeNoise::new(0.0, 0.5, rng());
        for _ in 0..1000 {
            let t = apply_once(&mut f, vec![Value::Float(10.0)], &[0]);
            let v = t.get(0).unwrap().as_f64().unwrap();
            // v = 10·(1±u), u ∈ [0, 0.5) → v ∈ (5, 15)
            assert!((5.0..15.0).contains(&v), "v {v}");
        }
    }

    #[test]
    fn uniform_noise_uses_both_directions() {
        let mut f = UniformMultiplicativeNoise::new(0.1, 0.5, rng());
        let mut up = 0;
        let mut down = 0;
        for _ in 0..500 {
            let t = apply_once(&mut f, vec![Value::Float(10.0)], &[0]);
            let v = t.get(0).unwrap().as_f64().unwrap();
            if v > 10.0 {
                up += 1;
            } else if v < 10.0 {
                down += 1;
            }
        }
        assert!(up > 150 && down > 150, "up {up} down {down}");
    }

    #[test]
    fn uniform_noise_intensity_scales_bounds() {
        let mut f = UniformMultiplicativeNoise::new(0.0, 1.0, rng());
        let mut t = Tuple::new(vec![Value::Float(10.0)]);
        f.apply(&mut t, &[0], Timestamp(0), 0.1);
        let v = t.get(0).unwrap().as_f64().unwrap();
        assert!(
            (9.0..=11.0).contains(&v),
            "at intensity 0.1, |u| < 0.1: v {v}"
        );
    }

    #[test]
    fn uniform_noise_swapped_bounds_normalized() {
        // (b, a) order must not panic in random_range.
        let mut f = UniformMultiplicativeNoise::new(0.5, 0.1, rng());
        let _ = apply_once(&mut f, vec![Value::Float(1.0)], &[0]);
    }

    #[test]
    fn scale_by_factor_exact() {
        let mut f = ScaleByFactor::new(0.125);
        let t = apply_once(&mut f, vec![Value::Float(80.0)], &[0]);
        assert_eq!(t.get(0).unwrap(), &Value::Float(10.0));
    }

    #[test]
    fn scale_by_factor_interpolates_with_intensity() {
        let mut f = ScaleByFactor::new(3.0);
        let mut t = Tuple::new(vec![Value::Float(10.0)]);
        f.apply(&mut t, &[0], Timestamp(0), 0.5);
        // factor_eff = 1 + (3-1)*0.5 = 2
        assert_eq!(t.get(0).unwrap(), &Value::Float(20.0));
    }

    #[test]
    fn unit_conversion_km_to_cm() {
        let mut f = UnitConversion::km_to_cm();
        let t = apply_once(&mut f, vec![Value::Float(1.2)], &[0]);
        assert!((t.get(0).unwrap().as_f64().unwrap() - 120_000.0).abs() < 1e-9);
    }

    #[test]
    fn unit_conversion_ignores_intensity() {
        let mut f = UnitConversion::new(1000.0);
        let mut t = Tuple::new(vec![Value::Float(2.0)]);
        f.apply(&mut t, &[0], Timestamp(0), 0.5);
        assert_eq!(t.get(0).unwrap(), &Value::Float(2000.0));
    }

    #[test]
    fn outlier_moves_value_far() {
        let mut f = Outlier::new(10.0, rng());
        let t = apply_once(&mut f, vec![Value::Float(5.0)], &[0]);
        let v = t.get(0).unwrap().as_f64().unwrap();
        assert!((v - 5.0).abs() >= 50.0 - 1e-9, "v {v}");
    }

    #[test]
    fn outlier_perturbs_zero_values_too() {
        let mut f = Outlier::new(10.0, rng());
        let t = apply_once(&mut f, vec![Value::Float(0.0)], &[0]);
        assert!(t.get(0).unwrap().as_f64().unwrap().abs() >= 10.0 - 1e-9);
    }

    #[test]
    fn rounding_to_two_decimals() {
        let mut f = Rounding::new(2);
        let t = apply_once(&mut f, vec![Value::Float(7.46859)], &[0]);
        assert_eq!(t.get(0).unwrap(), &Value::Float(7.47));
        let mut f = Rounding::new(0);
        let t = apply_once(&mut f, vec![Value::Float(3.6)], &[0]);
        assert_eq!(t.get(0).unwrap(), &Value::Float(4.0));
    }

    #[test]
    fn int_attributes_stay_ints() {
        let mut f = ScaleByFactor::new(2.5);
        let t = apply_once(&mut f, vec![Value::Int(10)], &[0]);
        assert_eq!(t.get(0).unwrap(), &Value::Int(25));
    }

    #[test]
    fn multiple_attrs_polluted_together() {
        let mut f = ScaleByFactor::new(2.0);
        let t = apply_once(&mut f, vec![Value::Float(1.0), Value::Float(2.0)], &[0, 1]);
        assert_eq!(t.get(0).unwrap(), &Value::Float(2.0));
        assert_eq!(t.get(1).unwrap(), &Value::Float(4.0));
    }
}
