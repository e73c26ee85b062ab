//! Reusable scratch memory for the frequency-domain hot path.
//!
//! The seed implementation allocated fresh buffers for every MIM
//! computation: one complex grid per filtered spectrum, one per inverse
//! transform, a `Vec<Vec<Complex>>` column gather inside every 2-D pass and
//! one amplitude grid per filter — roughly a hundred heap allocations and
//! ~50 MB of traffic per 256² frame. An [`FftWorkspace`] owns all of that
//! memory instead: the forward spectrum, the row-pack buffer of the real
//! 2-D transform, and a set of *lanes* — one per Log-Gabor orientation on
//! the full-amplitude path, a single one on the fused MIM path — each
//! holding the packed filtered spectrum and the amplitude accumulator. The
//! transforms themselves need no further scratch: the spectrum is permuted
//! in place and the column passes butterfly whole rows.
//!
//! Buffers are sized on first use (the crate-private `ensure`) and reused
//! verbatim afterwards, so the steady-state MIM computation performs **zero
//! heap allocation on the FFT path** (proved by the counting-allocator test
//! `crates/signal/tests/alloc_free.rs`).

use crate::complex::Complex;
use crate::fft::FftError;
use crate::grid::Grid;
use crate::plan::{shared_plan, FftPlan};
use std::sync::Arc;

/// Filtering scratch: the filtered spectrum being inverse-transformed and
/// the amplitude accumulator it feeds.
///
/// On the full-amplitude path there is one lane per orientation and `acc`
/// is that orientation's output grid. On the fused MIM path one lane
/// streams every orientation through `acc` (reused as the running scale
/// sum) and folds it into the caller's output grids — so the
/// per-orientation amplitude grids are never materialised.
#[derive(Debug, Clone)]
pub(crate) struct OrientationLane {
    /// Packed filtered spectrum (2-D bit-reversed order) / spatial
    /// response (natural order), `width × height`.
    pub(crate) filtered: Vec<Complex>,
    /// Amplitude summed over scales — the per-orientation output grid on
    /// the full path, the per-orientation running sum on the fused path.
    pub(crate) acc: Grid<f64>,
}

/// Reusable scratch buffers for [`LogGaborBank`](crate::LogGaborBank)
/// filtering and [`MaxIndexMap`](crate::MaxIndexMap) computation.
///
/// Create one per concurrent image stream and thread it through
/// [`MaxIndexMap::compute_with_workspace`](crate::MaxIndexMap::compute_with_workspace)
/// (or [`LogGaborBank::orientation_amplitudes_into`](crate::LogGaborBank::orientation_amplitudes_into)).
/// The workspace grows to fit the first image it sees and afterwards recycles
/// every buffer; contents carry no state between frames, so reuse never
/// changes results.
///
/// # Example
///
/// ```
/// use bba_signal::{FftWorkspace, Grid, LogGaborBank, LogGaborConfig, MaxIndexMap};
/// let bank = LogGaborBank::new(32, 32, LogGaborConfig::default());
/// let mut ws = FftWorkspace::new();
/// let img = Grid::new(32, 32, 0.0);
/// let a = MaxIndexMap::compute_with_workspace(&img, &bank, &mut ws);
/// let b = MaxIndexMap::compute_with_workspace(&img, &bank, &mut ws); // reuses all buffers
/// assert_eq!(a, b);
/// ```
#[derive(Debug, Clone)]
pub struct FftWorkspace {
    pub(crate) width: usize,
    pub(crate) height: usize,
    /// Row/column plans for the current size (`None` until first `ensure`).
    pub(crate) plans: Option<(Arc<FftPlan>, Arc<FftPlan>)>,
    /// Forward spectrum of the current image, in 2-D bit-reversed order
    /// once filtering starts.
    pub(crate) spectrum: Grid<Complex>,
    /// Row-pair packing buffer of the real forward transform (`width`).
    pub(crate) pack: Vec<Complex>,
    /// One lane per Log-Gabor orientation (full-amplitude path) or a single
    /// lane (fused MIM path).
    pub(crate) lanes: Vec<OrientationLane>,
}

impl Default for FftWorkspace {
    fn default() -> Self {
        FftWorkspace {
            width: 0,
            height: 0,
            plans: None,
            spectrum: Grid::new(0, 0, Complex::ZERO),
            pack: Vec::new(),
            lanes: Vec::new(),
        }
    }
}

impl FftWorkspace {
    /// Creates an empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        FftWorkspace::default()
    }

    /// Sizes every buffer for `width × height` images with `n_lanes`
    /// filtering lanes: one per orientation for the full-amplitude path,
    /// one for the fused MIM reduction. A no-op (and allocation-free) when
    /// the workspace already matches; alternating one workspace between the
    /// two paths reallocates the lanes on every switch, so keep one
    /// workspace per path if both are hot.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::NotPowerOfTwo`] if either dimension is not a
    /// power of two.
    pub(crate) fn ensure(
        &mut self,
        width: usize,
        height: usize,
        n_lanes: usize,
    ) -> Result<(), FftError> {
        if self.width != width || self.height != height || self.plans.is_none() {
            let plan_w = shared_plan(width)?;
            let plan_h = shared_plan(height)?;
            self.plans = Some((plan_w, plan_h));
            self.width = width;
            self.height = height;
            self.spectrum = Grid::new(width, height, Complex::ZERO);
            self.pack = vec![Complex::ZERO; width];
            self.lanes.clear();
        }
        let len = width * height;
        if self.lanes.len() != n_lanes
            || self.lanes.first().is_some_and(|l| l.filtered.len() != len)
        {
            self.lanes = (0..n_lanes)
                .map(|_| OrientationLane {
                    filtered: vec![Complex::ZERO; len],
                    acc: Grid::new(width, height, 0.0),
                })
                .collect();
        }
        Ok(())
    }

    /// Number of per-orientation amplitude grids currently held. Only
    /// meaningful after
    /// [`LogGaborBank::orientation_amplitudes_into`](crate::LogGaborBank::orientation_amplitudes_into);
    /// the fused MIM path holds a single lane.
    pub fn num_orientations(&self) -> usize {
        self.lanes.len()
    }

    /// The amplitude grid of orientation `o` from the most recent
    /// [`LogGaborBank::orientation_amplitudes_into`](crate::LogGaborBank::orientation_amplitudes_into)
    /// call.
    ///
    /// # Panics
    ///
    /// Panics if `o` is out of range.
    pub fn amplitude(&self, o: usize) -> &Grid<f64> {
        &self.lanes[o].acc
    }

    /// Iterates over the per-orientation amplitude grids in orientation
    /// order.
    pub fn amplitudes(&self) -> impl Iterator<Item = &Grid<f64>> {
        self.lanes.iter().map(|l| &l.acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ensure_is_idempotent_and_resizes() {
        let mut ws = FftWorkspace::new();
        ws.ensure(16, 8, 4).unwrap();
        assert_eq!(ws.num_orientations(), 4);
        assert_eq!(ws.spectrum.width(), 16);
        let spectrum_ptr = ws.spectrum.as_slice().as_ptr();
        ws.ensure(16, 8, 4).unwrap();
        assert_eq!(ws.spectrum.as_slice().as_ptr(), spectrum_ptr, "matching ensure must not move");
        ws.ensure(32, 32, 6).unwrap();
        assert_eq!(ws.num_orientations(), 6);
        assert_eq!(ws.amplitude(5).len(), 32 * 32);
    }

    #[test]
    fn ensure_rejects_non_pow2() {
        let mut ws = FftWorkspace::new();
        assert_eq!(ws.ensure(12, 8, 4).unwrap_err(), FftError::NotPowerOfTwo { len: 12 });
        assert_eq!(ws.ensure(8, 12, 4).unwrap_err(), FftError::NotPowerOfTwo { len: 12 });
    }
}
