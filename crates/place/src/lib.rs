//! **bba-place**: BVMatch-style global place recognition for the
//! BB-Align fleet.
//!
//! At fleet scale, attempting full stage-1 pose recovery against every
//! nearby vehicle is quadratic waste — most pairs do not see the same
//! scene. This crate provides the cheap pre-filter: a compact,
//! rotation-tolerant **global descriptor** per frame
//! ([`PlaceDescriptor`]): a keypoint-constellation signature built from
//! the same Log-Gabor [`MaxIndexMap`](bba_signal::MaxIndexMap) stage 1
//! already computes (so a frame that already ran stage 1 never
//! re-filters), and a
//! fleet-wide [`PlaceIndex`] that ranks candidate partners by descriptor
//! similarity before any pair is admitted to full recovery.
//!
//! The same machinery doubles as map-free rendezvous / loop closure: two
//! cars with no GPS discover they overlap purely from descriptor
//! similarity.
//!
//! # Example
//!
//! ```
//! use bba_place::{PlaceConfig, PlaceDescriptor, PlaceIndex};
//! use bba_signal::{Grid, MaxIndexMap};
//!
//! let mut img = Grid::new(64, 64, 0.0);
//! for v in 10..50 {
//!     img[(32, v)] = 5.0;
//! }
//! let mim = MaxIndexMap::compute(&img);
//! let desc = PlaceDescriptor::from_mim(&mim, &PlaceConfig::default());
//!
//! let mut index = PlaceIndex::new();
//! index.update(7, desc.clone());
//! let ranked = index.top_k(&desc, 1, None);
//! assert_eq!(ranked[0].vehicle, 7);
//! ```

#![warn(missing_docs)]

pub mod descriptor;
pub mod index;

pub use descriptor::{PlaceConfig, PlaceDescriptor};
pub use index::{PlaceIndex, PlaceMatch};
