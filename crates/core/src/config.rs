//! Configuration of the AdaWave pipeline.
//!
//! AdaWave is advertised as "parameter free": every knob here has a default
//! matching the paper's setup (`scale = 128`, CDF(2,2) wavelet, one
//! decomposition level, adaptive elbow threshold), and the defaults are what
//! every experiment uses unless an ablation says otherwise.

use adawave_grid::Connectivity;
use adawave_runtime::Runtime;
use adawave_wavelet::{BoundaryMode, Wavelet};

use crate::threshold::ThresholdStrategy;

/// Full configuration of an AdaWave run.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaWaveConfig {
    /// Number of intervals per dimension at quantization time (the paper's
    /// default is 128).
    pub scale: u32,
    /// Optional per-dimension interval counts overriding [`scale`](Self::scale).
    pub per_dimension_scale: Option<Vec<u32>>,
    /// Wavelet family whose low-pass filter smooths the grid densities.
    pub wavelet: Wavelet,
    /// Number of decomposition levels; each level halves every dimension.
    /// Level 0 is an honest no-smoothing pass: the transform is skipped and
    /// the adaptive threshold is applied to the raw quantized counts.
    pub levels: u32,
    /// Boundary handling for the smoothing convolution.
    pub boundary: BoundaryMode,
    /// Smoothed cells with |density| below this value are dropped before
    /// thresholding (the "remove coefficients close to zero" step).
    pub coefficient_epsilon: f64,
    /// Strategy used to pick the density threshold separating cluster grids
    /// from noise grids.
    pub threshold: ThresholdStrategy,
    /// Cell adjacency used by the connected-component step.
    pub connectivity: Connectivity,
    /// If the packed grid key would overflow 128 bits, automatically halve
    /// the scale until it fits instead of failing.
    pub auto_reduce_scale: bool,
    /// Upper bound on the number of occupied cells kept after each
    /// per-dimension smoothing pass. In high dimensions the kernel scatter
    /// would otherwise grow the sparse grid exponentially with `d`; only the
    /// lowest-magnitude cells beyond the budget are dropped, which the
    /// threshold filter would discard anyway.
    pub max_transformed_cells: usize,
    /// Worker pool for the quantization pass (the per-point hot path of
    /// the pipeline). The clustering is identical for every thread count.
    pub runtime: Runtime,
}

impl Default for AdaWaveConfig {
    fn default() -> Self {
        Self {
            scale: 128,
            per_dimension_scale: None,
            wavelet: Wavelet::Cdf22,
            levels: 1,
            boundary: BoundaryMode::Zero,
            coefficient_epsilon: 1e-9,
            threshold: ThresholdStrategy::default(),
            connectivity: Connectivity::Face,
            auto_reduce_scale: true,
            max_transformed_cells: 1_000_000,
            runtime: Runtime::from_env(),
        }
    }
}

impl AdaWaveConfig {
    /// Start building a configuration from the defaults.
    pub fn builder() -> AdaWaveConfigBuilder {
        AdaWaveConfigBuilder {
            config: AdaWaveConfig::default(),
        }
    }

    /// The interval counts for a dataset of dimension `dims`.
    pub fn intervals_for(&self, dims: usize) -> Vec<u32> {
        match &self.per_dimension_scale {
            Some(v) => v.clone(),
            None => vec![self.scale; dims],
        }
    }
}

/// Builder for [`AdaWaveConfig`].
#[derive(Debug, Clone)]
pub struct AdaWaveConfigBuilder {
    config: AdaWaveConfig,
}

impl AdaWaveConfigBuilder {
    /// Set the number of intervals per dimension.
    pub fn scale(mut self, scale: u32) -> Self {
        self.config.scale = scale;
        self
    }

    /// Set explicit per-dimension interval counts.
    pub fn per_dimension_scale(mut self, intervals: Vec<u32>) -> Self {
        self.config.per_dimension_scale = Some(intervals);
        self
    }

    /// Set the wavelet family.
    pub fn wavelet(mut self, wavelet: Wavelet) -> Self {
        self.config.wavelet = wavelet;
        self
    }

    /// Set the number of decomposition levels (0 = skip the transform and
    /// threshold the raw quantized grid).
    pub fn levels(mut self, levels: u32) -> Self {
        self.config.levels = levels;
        self
    }

    /// Set the boundary handling mode.
    pub fn boundary(mut self, boundary: BoundaryMode) -> Self {
        self.config.boundary = boundary;
        self
    }

    /// Set the near-zero coefficient cut-off.
    pub fn coefficient_epsilon(mut self, epsilon: f64) -> Self {
        self.config.coefficient_epsilon = epsilon;
        self
    }

    /// Set the threshold strategy.
    pub fn threshold(mut self, threshold: ThresholdStrategy) -> Self {
        self.config.threshold = threshold;
        self
    }

    /// Set the connected-component adjacency.
    pub fn connectivity(mut self, connectivity: Connectivity) -> Self {
        self.config.connectivity = connectivity;
        self
    }

    /// Enable or disable automatic scale reduction on key overflow.
    pub fn auto_reduce_scale(mut self, enabled: bool) -> Self {
        self.config.auto_reduce_scale = enabled;
        self
    }

    /// Set the per-dimension occupied-cell budget of the sparse transform.
    pub fn max_transformed_cells(mut self, budget: usize) -> Self {
        self.config.max_transformed_cells = budget;
        self
    }

    /// Set the worker pool for the parallel pipeline stages.
    pub fn runtime(mut self, runtime: Runtime) -> Self {
        self.config.runtime = runtime;
        self
    }

    /// Set the worker count (`0` = auto: `ADAWAVE_THREADS` or all cores).
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.runtime = Runtime::with_threads(threads);
        self
    }

    /// Finish building.
    pub fn build(self) -> AdaWaveConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = AdaWaveConfig::default();
        assert_eq!(c.scale, 128);
        assert_eq!(c.wavelet, Wavelet::Cdf22);
        assert_eq!(c.levels, 1);
        assert_eq!(c.connectivity, Connectivity::Face);
        assert!(c.auto_reduce_scale);
        assert_eq!(c.max_transformed_cells, 1_000_000);
    }

    #[test]
    fn builder_overrides_fields() {
        let c = AdaWaveConfig::builder()
            .scale(64)
            .wavelet(Wavelet::Haar)
            .levels(2)
            .boundary(BoundaryMode::Periodic)
            .coefficient_epsilon(0.01)
            .connectivity(Connectivity::Moore)
            .auto_reduce_scale(false)
            .max_transformed_cells(5000)
            .build();
        assert_eq!(c.scale, 64);
        assert_eq!(c.wavelet, Wavelet::Haar);
        assert_eq!(c.levels, 2);
        assert_eq!(c.boundary, BoundaryMode::Periodic);
        assert_eq!(c.coefficient_epsilon, 0.01);
        assert_eq!(c.connectivity, Connectivity::Moore);
        assert!(!c.auto_reduce_scale);
        assert_eq!(c.max_transformed_cells, 5000);
    }

    #[test]
    fn intervals_for_uniform_and_per_dimension() {
        let c = AdaWaveConfig::builder().scale(16).build();
        assert_eq!(c.intervals_for(3), vec![16, 16, 16]);
        let c = AdaWaveConfig::builder()
            .per_dimension_scale(vec![8, 32])
            .build();
        assert_eq!(c.intervals_for(2), vec![8, 32]);
    }
}
