//! A dense row-major 2-D array used for BV images, feature maps and fusion
//! grids across the workspace.

use serde::{Deserialize, Serialize};
use std::ops::{Index, IndexMut};

/// A dense 2-D grid of values, indexed as `(u, v)` = (column, row).
///
/// The convention matches the paper's BV image `B_{uv}`: `u` indexes along
/// the x (image-column) direction and `v` along the y (image-row) direction.
/// Storage is row-major (`v` rows of `width` values).
///
/// # Example
///
/// ```
/// use bba_signal::Grid;
/// let mut g = Grid::new(4, 3, 0i32);
/// g[(2, 1)] = 7;
/// assert_eq!(g[(2, 1)], 7);
/// assert_eq!(g.get(9, 9), None);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Grid<T> {
    width: usize,
    height: usize,
    data: Vec<T>,
}

impl<T: Clone> Grid<T> {
    /// Creates a grid filled with `fill`.
    ///
    /// # Panics
    ///
    /// Panics if `width * height` overflows.
    pub fn new(width: usize, height: usize, fill: T) -> Self {
        let len = width.checked_mul(height).expect("grid dimensions overflow");
        Grid { width, height, data: vec![fill; len] }
    }

    /// Builds a grid from a closure of `(u, v)`.
    pub fn from_fn(width: usize, height: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(width * height);
        for v in 0..height {
            for u in 0..width {
                data.push(f(u, v));
            }
        }
        Grid { width, height, data }
    }

    /// Resets every cell to `fill`.
    pub fn fill(&mut self, fill: T) {
        for cell in &mut self.data {
            *cell = fill.clone();
        }
    }
}

impl<T> Grid<T> {
    /// Creates a grid from an existing row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != width * height`.
    pub fn from_vec(width: usize, height: usize, data: Vec<T>) -> Self {
        assert_eq!(data.len(), width * height, "buffer length must match dimensions");
        Grid { width, height, data }
    }

    /// Number of columns.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Total number of cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the grid has no cells.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Bounds-checked access.
    #[inline]
    pub fn get(&self, u: usize, v: usize) -> Option<&T> {
        if u < self.width && v < self.height {
            Some(&self.data[v * self.width + u])
        } else {
            None
        }
    }

    /// Bounds-checked mutable access.
    #[inline]
    pub fn get_mut(&mut self, u: usize, v: usize) -> Option<&mut T> {
        if u < self.width && v < self.height {
            Some(&mut self.data[v * self.width + u])
        } else {
            None
        }
    }

    /// The raw row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// The raw row-major buffer, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// One row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `v >= height`.
    #[inline]
    pub fn row(&self, v: usize) -> &[T] {
        assert!(v < self.height, "row {v} out of bounds (height {})", self.height);
        &self.data[v * self.width..(v + 1) * self.width]
    }

    /// Iterates over `(u, v, &value)` in row-major order.
    pub fn iter_cells(&self) -> impl Iterator<Item = (usize, usize, &T)> {
        let w = self.width;
        self.data.iter().enumerate().map(move |(i, t)| (i % w, i / w, t))
    }

    /// Maps every cell through `f`, producing a new grid of the same shape.
    pub fn map<U>(&self, f: impl FnMut(&T) -> U) -> Grid<U> {
        Grid { width: self.width, height: self.height, data: self.data.iter().map(f).collect() }
    }
}

impl Grid<f64> {
    /// Maximum value (0.0 for an empty grid).
    pub fn max_value(&self) -> f64 {
        self.data.iter().copied().fold(f64::NEG_INFINITY, f64::max).max(0.0)
    }

    /// Mean value (0.0 for an empty grid).
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data.iter().sum::<f64>() / self.data.len() as f64
        }
    }

    /// Fraction of cells with a value strictly above `threshold`.
    pub fn occupancy(&self, threshold: f64) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().filter(|&&x| x > threshold).count() as f64 / self.data.len() as f64
    }
}

impl<T> Index<(usize, usize)> for Grid<T> {
    type Output = T;
    #[inline]
    fn index(&self, (u, v): (usize, usize)) -> &T {
        assert!(u < self.width && v < self.height, "index ({u},{v}) out of bounds");
        &self.data[v * self.width + u]
    }
}

impl<T> IndexMut<(usize, usize)> for Grid<T> {
    #[inline]
    fn index_mut(&mut self, (u, v): (usize, usize)) -> &mut T {
        assert!(u < self.width && v < self.height, "index ({u},{v}) out of bounds");
        &mut self.data[v * self.width + u]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construct_and_index() {
        let mut g = Grid::new(3, 2, 0u8);
        g[(0, 0)] = 1;
        g[(2, 1)] = 9;
        assert_eq!(g[(0, 0)], 1);
        assert_eq!(g[(2, 1)], 9);
        assert_eq!(g.len(), 6);
        assert!(!g.is_empty());
    }

    #[test]
    fn from_fn_layout() {
        let g = Grid::from_fn(3, 2, |u, v| (u, v));
        assert_eq!(g[(1, 0)], (1, 0));
        assert_eq!(g[(2, 1)], (2, 1));
        // Row-major: row 1 starts at index 3.
        assert_eq!(g.as_slice()[3], (0, 1));
    }

    #[test]
    fn get_out_of_bounds_is_none() {
        let g = Grid::new(2, 2, 0.0f64);
        assert!(g.get(2, 0).is_none());
        assert!(g.get(0, 2).is_none());
        assert!(g.get(1, 1).is_some());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let g = Grid::new(2, 2, 0u8);
        let _ = g[(2, 0)];
    }

    #[test]
    fn row_and_iter() {
        let g = Grid::from_fn(3, 2, |u, v| (10 * v + u) as i32);
        assert_eq!(g.row(1), &[10, 11, 12]);
        let cells: Vec<_> = g.iter_cells().map(|(u, v, &x)| (u, v, x)).collect();
        assert_eq!(cells[0], (0, 0, 0));
        assert_eq!(cells[5], (2, 1, 12));
    }

    #[test]
    fn map_preserves_shape() {
        let g = Grid::from_fn(4, 3, |u, v| u + v);
        let h = g.map(|&x| x as f64 * 0.5);
        assert_eq!(h.width(), 4);
        assert_eq!(h.height(), 3);
        assert_eq!(h[(2, 2)], 2.0);
    }

    #[test]
    fn f64_statistics() {
        let g = Grid::from_vec(2, 2, vec![0.0, 1.0, 2.0, 3.0]);
        assert_eq!(g.max_value(), 3.0);
        assert_eq!(g.mean(), 1.5);
        assert_eq!(g.occupancy(0.5), 0.75);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_rejects_bad_length() {
        let _ = Grid::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn fill_resets() {
        let mut g = Grid::new(2, 2, 5i32);
        g.fill(0);
        assert!(g.as_slice().iter().all(|&x| x == 0));
    }
}
