//! Signal-processing substrate for BB-Align: FFT, Log-Gabor filter bank and
//! the Maximum Index Map (MIM) feature image.
//!
//! BB-Align's stage 1 matches bird's-eye-view (BV) images that are far too
//! sparse for classical detectors (SIFT/ORB "fail to detect meaningful
//! features", paper §II). Following the paper's Eq. (5)–(10) (and its
//! references RIFT \[25\] / BVMatch \[27\] / Fischer et al. \[6\]), a bank of 2-D
//! Log-Gabor filters with `N_s` scales and `N_o` orientations is applied to
//! the BV image (the paper's fixed 4 scales × 12 orientations,
//! [`loggabor::NUM_SCALES`] × [`loggabor::NUM_ORIENTATIONS`]); amplitudes
//! are summed over scales per orientation, and the
//! **MIM** records, per pixel, the orientation index with maximal amplitude.
//!
//! Everything here is built from scratch on a planned iterative radix-2 FFT
//! ([`plan`], [`fft`]): the Log-Gabor bank is constructed directly in the
//! frequency domain ([`LogGaborBank`]), where each filter is the product of
//! a radial log-Gaussian (scale selectivity, the `ρ` factor of Eq. (6)) and
//! an angular Gaussian (orientation selectivity, the `θ` factor). The hot
//! path exploits real input ([`rfft2d`]) and even-symmetric filters (packed
//! inverse pairs), keeps the bank and each image spectrum in 2-D
//! bit-reversed order so no inverse transform reorders anything, stores
//! only the bank rows that even symmetry does not repeat, and reuses
//! scratch memory through an [`FftWorkspace`] so the steady-state
//! MIM computation allocates nothing per frame.
//!
//! # Example
//!
//! ```
//! use bba_signal::{Grid, MaxIndexMap};
//!
//! // A sparse synthetic "BV image" with a vertical edge.
//! let mut img = Grid::new(64, 64, 0.0f64);
//! for v in 10..54 {
//!     img[(32, v)] = 5.0;
//! }
//! let mim = MaxIndexMap::compute(&img);
//! assert_eq!(mim.index.width(), 64);
//! ```

#![warn(missing_docs)]

pub mod complex;
pub mod fft;
pub mod grid;
pub mod loggabor;
pub mod mim;
pub mod pgm;
pub mod plan;
pub mod workspace;

pub use complex::Complex;
pub use fft::{fft2d, fft2d_inverse, fft_inplace, ifft_inplace, rfft2d, FftError};
pub use grid::Grid;
pub use loggabor::LogGaborBank;
pub use mim::MaxIndexMap;
pub use pgm::{encode_pgm, write_pgm};
pub use plan::{shared_plan, FftPlan};
pub use workspace::FftWorkspace;
