//! Dense d-dimensional grids and separable wavelet transforms over them.
//!
//! The original WaveCluster algorithm (the paper's §III-A2 and the
//! WaveCluster baseline) materializes the full quantized feature space as a
//! dense array and convolves it along one dimension at a time. This module
//! provides that array type plus the separable transform; the memory-frugal
//! sparse path lives in `adawave-grid`/`adawave-core`.

use adawave_runtime::Runtime;

use crate::{dwt1d, dwt1d_lowpass, BoundaryMode, FilterBank, Result, WaveletError};

/// Lanes per parallel work unit of the `*_with` axis transforms. Fixed
/// (independent of the thread count) so the per-lane outputs are produced
/// and scattered in exactly the same order for every [`Runtime`].
const LANE_CHUNK: usize = 32;

/// A dense d-dimensional array of `f64` in row-major order (the last axis
/// varies fastest).
#[derive(Debug, Clone, PartialEq)]
pub struct DenseGrid {
    shape: Vec<usize>,
    data: Vec<f64>,
}

impl DenseGrid {
    /// Create a grid of zeros with the given shape.
    ///
    /// # Panics
    /// Panics if the shape is empty or any axis has length 0.
    pub fn zeros(shape: &[usize]) -> Self {
        assert!(!shape.is_empty(), "DenseGrid: empty shape");
        assert!(shape.iter().all(|&s| s > 0), "DenseGrid: zero-length axis");
        let len = shape.iter().product();
        Self {
            shape: shape.to_vec(),
            data: vec![0.0; len],
        }
    }

    /// Create a grid from a flat buffer.
    pub fn from_vec(shape: &[usize], data: Vec<f64>) -> Result<Self> {
        let expected: usize = shape.iter().product();
        if shape.is_empty() || data.len() != expected {
            return Err(WaveletError::ShapeMismatch {
                context: "from_vec: data length does not match shape product",
            });
        }
        Ok(Self {
            shape: shape.to_vec(),
            data,
        })
    }

    /// Grid shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Total number of cells.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the grid has no cells (never true for a validly constructed grid).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the flat buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the flat buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Flat index of a multi-index.
    ///
    /// # Panics
    /// Panics (in debug builds) if the index is out of range.
    pub fn flat_index(&self, idx: &[usize]) -> usize {
        debug_assert_eq!(idx.len(), self.shape.len());
        let mut flat = 0;
        for (i, (&x, &s)) in idx.iter().zip(self.shape.iter()).enumerate() {
            debug_assert!(x < s, "index {x} out of range for axis {i} (len {s})");
            flat = flat * s + x;
        }
        flat
    }

    /// Value at a multi-index.
    pub fn get(&self, idx: &[usize]) -> f64 {
        self.data[self.flat_index(idx)]
    }

    /// Set the value at a multi-index.
    pub fn set(&mut self, idx: &[usize], value: f64) {
        let flat = self.flat_index(idx);
        self.data[flat] = value;
    }

    /// Add `value` at a multi-index.
    pub fn add(&mut self, idx: &[usize], value: f64) {
        let flat = self.flat_index(idx);
        self.data[flat] += value;
    }

    /// Sum of all cells.
    pub fn total(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Number of cells strictly greater than `threshold`.
    pub fn count_above(&self, threshold: f64) -> usize {
        self.data.iter().filter(|&&v| v > threshold).count()
    }

    /// Iterate over (lane start offsets, stride) pairs for walking the grid
    /// along `axis`: each lane is a 1-D signal of length `shape[axis]` whose
    /// elements are `data[start + k * stride]`.
    fn lanes(&self, axis: usize) -> (Vec<usize>, usize) {
        let ndim = self.ndim();
        assert!(axis < ndim, "axis {axis} out of range");
        // stride of `axis` in row-major order
        let stride: usize = self.shape[axis + 1..].iter().product();
        let axis_len = self.shape[axis];
        let mut starts = Vec::with_capacity(self.len() / axis_len);
        // Enumerate all index combinations with the chosen axis fixed to 0.
        let outer: usize = self.shape[..axis].iter().product();
        let inner: usize = stride;
        for o in 0..outer {
            for i in 0..inner {
                starts.push(o * axis_len * stride + i);
            }
        }
        (starts, stride)
    }

    /// Gather the lane starting at `start` (stride `stride`) into `lane`.
    #[inline]
    fn read_lane(&self, start: usize, stride: usize, lane: &mut [f64]) {
        for (k, v) in lane.iter_mut().enumerate() {
            *v = self.data[start + k * stride];
        }
    }

    /// Scatter `lane` into the lane starting at `start` (stride `stride`).
    #[inline]
    fn write_lane(&mut self, start: usize, stride: usize, lane: &[f64]) {
        for (k, &v) in lane.iter().enumerate() {
            self.data[start + k * stride] = v;
        }
    }

    /// Run `f` over every lane along `axis` on `runtime`, returning the
    /// per-lane outputs in lane order. Lanes are independent 1-D signals,
    /// so the outputs are identical for every thread count. This is the
    /// one chunked-lane fan-out every `*_with` transform shares.
    fn transform_lanes<O, F>(&self, axis: usize, runtime: Runtime, f: F) -> Vec<O>
    where
        O: Send,
        F: Fn(&[f64]) -> O + Sync,
    {
        let axis_len = self.shape[axis];
        let (starts, stride) = self.lanes(axis);
        runtime
            .par_chunks(&starts, LANE_CHUNK, |_, chunk| {
                let mut lane = vec![0.0; axis_len];
                chunk
                    .iter()
                    .map(|&start| {
                        self.read_lane(start, stride, &mut lane);
                        f(&lane)
                    })
                    .collect::<Vec<O>>()
            })
            .into_iter()
            .flatten()
            .collect()
    }

    /// [`transform_lanes`](Self::transform_lanes) for single-output lane
    /// transforms: scatter each transformed lane (of length `new_len`)
    /// into a grid whose axis was resized to `new_len`, sequentially in
    /// lane order.
    fn map_lanes_with<F>(&self, axis: usize, new_len: usize, runtime: Runtime, f: F) -> DenseGrid
    where
        F: Fn(&[f64]) -> Vec<f64> + Sync,
    {
        let mut new_shape = self.shape.clone();
        new_shape[axis] = new_len;
        let mut out = DenseGrid::zeros(&new_shape);
        let (new_starts, new_stride) = out.lanes(axis);
        let transformed: Vec<Vec<f64>> = self.transform_lanes(axis, runtime, f);
        for (lane_out, &new_start) in transformed.iter().zip(new_starts.iter()) {
            out.write_lane(new_start, new_stride, lane_out);
        }
        out
    }

    /// Apply a single-level full DWT along one axis, returning the
    /// approximation and detail grids (the axis length becomes
    /// `ceil(len / 2)` in both).
    pub fn dwt_axis(
        &self,
        axis: usize,
        bank: &FilterBank,
        mode: BoundaryMode,
    ) -> (DenseGrid, DenseGrid) {
        self.dwt_axis_with(axis, bank, mode, Runtime::sequential())
    }

    /// [`dwt_axis`](Self::dwt_axis) with the lanes (independent rows /
    /// columns of the grid) fanned out over `runtime`. Each lane transform
    /// is independent, so the result is identical for every thread count.
    pub fn dwt_axis_with(
        &self,
        axis: usize,
        bank: &FilterBank,
        mode: BoundaryMode,
        runtime: Runtime,
    ) -> (DenseGrid, DenseGrid) {
        let new_len = self.shape[axis].div_ceil(2);
        let mut new_shape = self.shape.clone();
        new_shape[axis] = new_len;
        let mut approx = DenseGrid::zeros(&new_shape);
        let mut detail = DenseGrid::zeros(&new_shape);

        let (new_starts, new_stride) = approx.lanes(axis);
        let transformed: Vec<(Vec<f64>, Vec<f64>)> =
            self.transform_lanes(axis, runtime, |lane| dwt1d(lane, bank, mode));
        for ((a, d), &new_start) in transformed.iter().zip(new_starts.iter()) {
            approx.write_lane(new_start, new_stride, a);
            detail.write_lane(new_start, new_stride, d);
        }
        (approx, detail)
    }

    /// Apply the low-pass branch only along one axis (what WaveCluster /
    /// AdaWave keep), using an arbitrary smoothing kernel.
    pub fn lowpass_axis(&self, axis: usize, kernel: &[f64], mode: BoundaryMode) -> DenseGrid {
        self.lowpass_axis_with(axis, kernel, mode, Runtime::sequential())
    }

    /// [`lowpass_axis`](Self::lowpass_axis) with the lanes fanned out over
    /// `runtime`.
    pub fn lowpass_axis_with(
        &self,
        axis: usize,
        kernel: &[f64],
        mode: BoundaryMode,
        runtime: Runtime,
    ) -> DenseGrid {
        let new_len = self.shape[axis].div_ceil(2);
        self.map_lanes_with(axis, new_len, runtime, |lane| {
            dwt1d_lowpass(lane, kernel, mode)
        })
    }

    /// Separable low-pass transform along every axis (one level): the
    /// "average signal" subband `L…L` that grid clustering operates on.
    pub fn lowpass_all_axes(&self, kernel: &[f64], mode: BoundaryMode) -> DenseGrid {
        self.lowpass_all_axes_with(kernel, mode, Runtime::sequential())
    }

    /// [`lowpass_all_axes`](Self::lowpass_all_axes) with every axis pass
    /// fanned out over `runtime`.
    pub fn lowpass_all_axes_with(
        &self,
        kernel: &[f64],
        mode: BoundaryMode,
        runtime: Runtime,
    ) -> DenseGrid {
        let mut current = self.clone();
        for axis in 0..self.ndim() {
            current = current.lowpass_axis_with(axis, kernel, mode, runtime);
        }
        current
    }

    /// Centered smoothing + downsample along one axis (see
    /// [`crate::transform::smooth_downsample`]). Keeps cell `c` aligned with
    /// cell `c >> 1` of the output, which grid-clustering lookup tables rely
    /// on.
    pub fn smooth_axis(&self, axis: usize, kernel: &[f64], mode: BoundaryMode) -> DenseGrid {
        self.smooth_axis_with(axis, kernel, mode, Runtime::sequential())
    }

    /// [`smooth_axis`](Self::smooth_axis) with the lanes fanned out over
    /// `runtime`.
    pub fn smooth_axis_with(
        &self,
        axis: usize,
        kernel: &[f64],
        mode: BoundaryMode,
        runtime: Runtime,
    ) -> DenseGrid {
        let new_len = self.shape[axis].div_ceil(2);
        self.map_lanes_with(axis, new_len, runtime, |lane| {
            crate::transform::smooth_downsample(lane, kernel, mode)
        })
    }

    /// Centered smoothing + downsample along every axis (one level).
    pub fn smooth_all_axes(&self, kernel: &[f64], mode: BoundaryMode) -> DenseGrid {
        self.smooth_all_axes_with(kernel, mode, Runtime::sequential())
    }

    /// [`smooth_all_axes`](Self::smooth_all_axes) with every axis pass
    /// fanned out over `runtime`.
    pub fn smooth_all_axes_with(
        &self,
        kernel: &[f64],
        mode: BoundaryMode,
        runtime: Runtime,
    ) -> DenseGrid {
        let mut current = self.clone();
        for axis in 0..self.ndim() {
            current = current.smooth_axis_with(axis, kernel, mode, runtime);
        }
        current
    }
}

/// The four subbands of a single-level 2-D DWT (Fig. 5 of the paper).
#[derive(Debug, Clone)]
pub struct Subbands2d {
    /// Average signal (low-pass in both dimensions) — the clustering space.
    pub ll: DenseGrid,
    /// Horizontal features (low-pass in x, high-pass in y).
    pub lh: DenseGrid,
    /// Vertical features (high-pass in x, low-pass in y).
    pub hl: DenseGrid,
    /// Diagonal features (high-pass in both).
    pub hh: DenseGrid,
}

/// Single-level 2-D DWT of a 2-D grid, producing the four standard
/// subbands. Returns an error if the grid is not 2-dimensional.
pub fn dwt2d(grid: &DenseGrid, bank: &FilterBank, mode: BoundaryMode) -> Result<Subbands2d> {
    if grid.ndim() != 2 {
        return Err(WaveletError::ShapeMismatch {
            context: "dwt2d: grid must be 2-dimensional",
        });
    }
    // Convolve along x (axis 0), then along y (axis 1).
    let (lo_x, hi_x) = grid.dwt_axis(0, bank, mode);
    let (ll, lh) = lo_x.dwt_axis(1, bank, mode);
    let (hl, hh) = hi_x.dwt_axis(1, bank, mode);
    Ok(Subbands2d { ll, lh, hl, hh })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Wavelet;

    #[test]
    fn zeros_shape_and_len() {
        let g = DenseGrid::zeros(&[3, 4, 5]);
        assert_eq!(g.shape(), &[3, 4, 5]);
        assert_eq!(g.len(), 60);
        assert_eq!(g.ndim(), 3);
        assert!(!g.is_empty());
    }

    #[test]
    fn from_vec_validates_shape() {
        assert!(DenseGrid::from_vec(&[2, 3], vec![0.0; 6]).is_ok());
        assert!(DenseGrid::from_vec(&[2, 3], vec![0.0; 5]).is_err());
        assert!(DenseGrid::from_vec(&[], vec![]).is_err());
    }

    #[test]
    fn get_set_add_roundtrip() {
        let mut g = DenseGrid::zeros(&[2, 3]);
        g.set(&[1, 2], 5.0);
        g.add(&[1, 2], 2.0);
        assert_eq!(g.get(&[1, 2]), 7.0);
        assert_eq!(g.get(&[0, 0]), 0.0);
        assert_eq!(g.total(), 7.0);
        assert_eq!(g.count_above(0.0), 1);
    }

    #[test]
    fn row_major_flat_index() {
        let g = DenseGrid::zeros(&[2, 3, 4]);
        assert_eq!(g.flat_index(&[0, 0, 0]), 0);
        assert_eq!(g.flat_index(&[0, 0, 3]), 3);
        assert_eq!(g.flat_index(&[0, 1, 0]), 4);
        assert_eq!(g.flat_index(&[1, 0, 0]), 12);
        assert_eq!(g.flat_index(&[1, 2, 3]), 23);
    }

    #[test]
    fn dwt_axis_halves_that_axis_only() {
        let g = DenseGrid::zeros(&[8, 6]);
        let bank = Wavelet::Haar.filter_bank();
        let (a, d) = g.dwt_axis(0, &bank, BoundaryMode::Periodic);
        assert_eq!(a.shape(), &[4, 6]);
        assert_eq!(d.shape(), &[4, 6]);
        let (a2, _) = g.dwt_axis(1, &bank, BoundaryMode::Periodic);
        assert_eq!(a2.shape(), &[8, 3]);
    }

    #[test]
    fn axis_transform_matches_manual_1d_on_each_lane() {
        // A 2-row grid where each row is a simple ramp; transforming along
        // axis 1 must equal applying dwt1d to each row separately.
        let rows = [
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
            vec![2.0, 0.0, 2.0, 0.0, 2.0, 0.0, 2.0, 0.0],
        ];
        let mut g = DenseGrid::zeros(&[2, 8]);
        for (i, row) in rows.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                g.set(&[i, j], v);
            }
        }
        let bank = Wavelet::Haar.filter_bank();
        let (a, d) = g.dwt_axis(1, &bank, BoundaryMode::Periodic);
        for (i, row) in rows.iter().enumerate() {
            let (ar, dr) = dwt1d(row, &bank, BoundaryMode::Periodic);
            for j in 0..4 {
                assert!((a.get(&[i, j]) - ar[j]).abs() < 1e-12);
                assert!((d.get(&[i, j]) - dr[j]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn axis_transforms_match_the_per_lane_reference_bit_for_bit() {
        // Axis 1 of a 2-D grid has stride 1, axis 0 is strided. Both must
        // equal — bit for bit — a reference that extracts each lane with
        // get() and runs the plain 1-D transforms, for every boundary mode
        // and wavelet.
        let mut g = DenseGrid::zeros(&[7, 9]);
        let mut x = 0.37_f64;
        for i in 0..7 {
            for j in 0..9 {
                x = (x * 97.0 + 0.31).fract();
                g.set(&[i, j], x * 10.0 - 5.0);
            }
        }
        for wavelet in [Wavelet::Haar, Wavelet::Cdf22, Wavelet::Daubechies2] {
            let bank = wavelet.filter_bank();
            for mode in [BoundaryMode::Zero, BoundaryMode::Periodic] {
                for axis in [0usize, 1] {
                    let (a, d) = g.dwt_axis(axis, &bank, mode);
                    let lanes = g.shape()[1 - axis];
                    let lane_len = g.shape()[axis];
                    for lane_idx in 0..lanes {
                        let lane: Vec<f64> = (0..lane_len)
                            .map(|k| {
                                let mut idx = [0usize; 2];
                                idx[axis] = k;
                                idx[1 - axis] = lane_idx;
                                g.get(&idx)
                            })
                            .collect();
                        let (ar, dr) = dwt1d(&lane, &bank, mode);
                        let kernel = wavelet.density_smoothing_kernel();
                        let lr = crate::dwt1d_lowpass(&lane, &kernel, mode);
                        let low = g.lowpass_axis(axis, &kernel, mode);
                        for k in 0..lane_len.div_ceil(2) {
                            let mut idx = [0usize; 2];
                            idx[axis] = k;
                            idx[1 - axis] = lane_idx;
                            assert_eq!(
                                a.get(&idx).to_bits(),
                                ar[k].to_bits(),
                                "{wavelet} {mode:?} axis {axis} approx"
                            );
                            assert_eq!(
                                d.get(&idx).to_bits(),
                                dr[k].to_bits(),
                                "{wavelet} {mode:?} axis {axis} detail"
                            );
                            assert_eq!(
                                low.get(&idx).to_bits(),
                                lr[k].to_bits(),
                                "{wavelet} {mode:?} axis {axis} lowpass"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn lowpass_all_axes_halves_every_axis() {
        let g = DenseGrid::zeros(&[8, 8, 8]);
        let kernel = Wavelet::Cdf22.density_smoothing_kernel();
        let out = g.lowpass_all_axes(&kernel, BoundaryMode::Zero);
        assert_eq!(out.shape(), &[4, 4, 4]);
    }

    #[test]
    fn lowpass_preserves_flat_density_with_periodic_extension() {
        let mut g = DenseGrid::zeros(&[8, 8]);
        for v in g.as_mut_slice() {
            *v = 3.0;
        }
        let kernel = Wavelet::Cdf22.density_smoothing_kernel();
        let out = g.lowpass_all_axes(&kernel, BoundaryMode::Periodic);
        for &v in out.as_slice() {
            assert!((v - 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn dwt2d_produces_four_half_size_subbands() {
        let mut g = DenseGrid::zeros(&[16, 12]);
        g.set(&[3, 5], 10.0);
        g.set(&[8, 8], 4.0);
        let bank = Wavelet::Haar.filter_bank();
        let sub = dwt2d(&g, &bank, BoundaryMode::Periodic).unwrap();
        assert_eq!(sub.ll.shape(), &[8, 6]);
        assert_eq!(sub.lh.shape(), &[8, 6]);
        assert_eq!(sub.hl.shape(), &[8, 6]);
        assert_eq!(sub.hh.shape(), &[8, 6]);
        // Energy is conserved across the four subbands for orthogonal banks.
        let orig_e: f64 = g.as_slice().iter().map(|x| x * x).sum();
        let sub_e: f64 = [&sub.ll, &sub.lh, &sub.hl, &sub.hh]
            .iter()
            .flat_map(|s| s.as_slice().iter())
            .map(|x| x * x)
            .sum();
        assert!((orig_e - sub_e).abs() < 1e-9 * orig_e);
    }

    #[test]
    fn dwt2d_rejects_non_2d() {
        let g = DenseGrid::zeros(&[4, 4, 4]);
        let bank = Wavelet::Haar.filter_bank();
        assert!(dwt2d(&g, &bank, BoundaryMode::Zero).is_err());
    }

    #[test]
    fn smooth_all_axes_keeps_blocks_aligned_with_halved_coordinates() {
        // A dense block at [16..24) x [16..24) must map onto [8..12) x [8..12)
        // of the smoothed grid (coordinates exactly halved), so that the
        // point-to-cluster lookup (c >> 1) lands inside the smoothed block.
        let mut g = DenseGrid::zeros(&[32, 32]);
        for i in 16..24 {
            for j in 16..24 {
                g.set(&[i, j], 10.0);
            }
        }
        let kernel = Wavelet::Cdf22.density_smoothing_kernel();
        let out = g.smooth_all_axes(&kernel, BoundaryMode::Zero);
        assert_eq!(out.shape(), &[16, 16]);
        // Interior of the mapped block keeps the full density.
        assert!(out.get(&[10, 10]) > 8.0);
        // Cells well outside stay near zero.
        assert!(out.get(&[4, 4]).abs() < 1e-9);
    }

    #[test]
    fn smooth_axis_halves_only_that_axis() {
        let g = DenseGrid::zeros(&[8, 6]);
        let kernel = Wavelet::Cdf22.density_smoothing_kernel();
        let out = g.smooth_axis(1, &kernel, BoundaryMode::Zero);
        assert_eq!(out.shape(), &[8, 3]);
    }

    #[test]
    fn parallel_axis_transforms_match_sequential() {
        // A grid with enough lanes to split across workers; every `*_with`
        // variant must agree with its sequential counterpart exactly.
        let mut g = DenseGrid::zeros(&[96, 80]);
        for (i, v) in g.as_mut_slice().iter_mut().enumerate() {
            *v = ((i as f64) * 0.37).sin() * 5.0;
        }
        let bank = Wavelet::Daubechies2.filter_bank();
        let kernel = Wavelet::Cdf22.density_smoothing_kernel();
        for threads in [2, 5] {
            let rt = Runtime::with_threads(threads);
            for axis in 0..2 {
                let (a_seq, d_seq) = g.dwt_axis(axis, &bank, BoundaryMode::Periodic);
                let (a_par, d_par) = g.dwt_axis_with(axis, &bank, BoundaryMode::Periodic, rt);
                assert_eq!(a_seq, a_par, "dwt approx axis {axis} threads {threads}");
                assert_eq!(d_seq, d_par, "dwt detail axis {axis} threads {threads}");
                assert_eq!(
                    g.lowpass_axis(axis, &kernel, BoundaryMode::Zero),
                    g.lowpass_axis_with(axis, &kernel, BoundaryMode::Zero, rt),
                );
                assert_eq!(
                    g.smooth_axis(axis, &kernel, BoundaryMode::Zero),
                    g.smooth_axis_with(axis, &kernel, BoundaryMode::Zero, rt),
                );
            }
            assert_eq!(
                g.smooth_all_axes(&kernel, BoundaryMode::Zero),
                g.smooth_all_axes_with(&kernel, BoundaryMode::Zero, rt),
            );
            assert_eq!(
                g.lowpass_all_axes(&kernel, BoundaryMode::Periodic),
                g.lowpass_all_axes_with(&kernel, BoundaryMode::Periodic, rt),
            );
        }
    }

    #[test]
    fn dense_cluster_stands_out_after_lowpass() {
        // Mimics Fig. 5: a dense block survives smoothing, isolated noise
        // cells are attenuated relative to it.
        let mut g = DenseGrid::zeros(&[32, 32]);
        for i in 8..16 {
            for j in 8..16 {
                g.set(&[i, j], 10.0);
            }
        }
        // scattered noise
        for (i, j) in [(1, 30), (29, 2), (20, 25), (3, 3)] {
            g.set(&[i, j], 10.0);
        }
        let kernel = Wavelet::Cdf22.density_smoothing_kernel();
        let out = g.lowpass_all_axes(&kernel, BoundaryMode::Zero);
        // The centre of the block keeps a high value...
        assert!(out.get(&[6, 6]) > 5.0);
        // ...while the isolated noise cells end up well below it.
        assert!(out.get(&[10, 12]) < 5.0);
    }
}
