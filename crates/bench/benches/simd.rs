//! Micro-benchmarks of the `bba-simd` kernel layer: each dispatched kernel
//! (AVX2 on capable hosts, chunked scalar otherwise) against its portable
//! scalar reference, on hot-path-shaped workloads:
//!
//! * **filter apply** — the Log-Gabor frequency-domain complex pointwise
//!   multiply, at the production 256² BV spectrum size.
//! * **fused amp + argmax** — the final-scale-pair amplitude completion and
//!   running `(max_amp, max_idx)` fold of the fused MIM reduction.
//! * **dot microkernel** — the matcher's four-lane blocked `f32` dot at the
//!   production descriptor dimension.
//! * **multi-row dot** — one query row against a 16-row packed pool tile
//!   (the matcher's tile at the production dimension), eight rows per
//!   pass, against the same tile through the one-row dot.
//!
//! Every pair is proven bit-identical by the proptests in
//! `crates/simd/tests/equivalence.rs`; this bench measures the speed side.
//! Pass `--quick` for the CI smoke run (fewer iterations, same workloads).

use criterion::{black_box, Criterion};

/// Deterministic pseudo-random stream in `[-1, 1)` — no RNG dependency, and
/// every run (and both kernels of a pair) sees identical data.
fn lcg(state: &mut u64) -> f64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    ((*state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    println!(
        "simd kernel benches: dispatch = {}{}",
        bba_simd::name(),
        if quick { " (quick)" } else { "" }
    );
    let mut c = Criterion::default().sample_size(if quick { 10 } else { 60 });

    let mut s = 0x5EED_u64;
    let px = 256 * 256; // production BV image size
    let n = 2 * px; // interleaved complexes

    // Filter apply: spectrum × packed filter pair.
    let spec: Vec<f64> = (0..n).map(|_| lcg(&mut s)).collect();
    let filt: Vec<f64> = (0..n).map(|_| lcg(&mut s)).collect();
    let mut dst = vec![0.0f64; n];
    c.bench_function("simd_filter_apply_cmul_256", |b| {
        b.iter(|| bba_simd::cmul(black_box(&mut dst), &spec, &filt))
    });
    c.bench_function("simd_filter_apply_cmul_256_portable", |b| {
        b.iter(|| bba_simd::portable::cmul(black_box(&mut dst), &spec, &filt))
    });

    // Fused amplitude + running argmax: the final scale pair of one
    // orientation folding into the lane maxima, with a partial sum.
    let z: Vec<f64> = (0..n).map(|_| lcg(&mut s)).collect();
    let partial: Vec<f64> = (0..px).map(|_| lcg(&mut s).abs()).collect();
    let mut max_amp = vec![f64::NEG_INFINITY; px];
    let mut max_idx = vec![0u8; px];
    let scale = 1.0 / px as f64;
    c.bench_function("simd_fused_amp_argmax_256", |b| {
        b.iter(|| {
            bba_simd::amp_max_fold(black_box(&mut max_amp), &mut max_idx, &z, scale, &partial, 3)
        })
    });
    c.bench_function("simd_fused_amp_argmax_256_portable", |b| {
        b.iter(|| {
            bba_simd::portable::amp_max_fold(
                black_box(&mut max_amp),
                &mut max_idx,
                &z,
                scale,
                &partial,
                3,
            )
        })
    });

    // Dot microkernel at the production descriptor dimension (6×6 cells ×
    // 12 orientations).
    let dim = 6 * 6 * 12;
    let a: Vec<f32> = (0..dim).map(|_| lcg(&mut s) as f32).collect();
    let bvec: Vec<f32> = (0..dim).map(|_| lcg(&mut s) as f32).collect();
    c.bench_function("simd_dot_432", |b| {
        b.iter(|| black_box(bba_simd::dot_f32(black_box(&a), black_box(&bvec))))
    });
    c.bench_function("simd_dot_432_portable", |b| {
        b.iter(|| black_box(bba_simd::portable::dot_f32(black_box(&a), black_box(&bvec))))
    });

    // Multi-row dot: one query row against a 16-row tile.
    let tile = 16usize;
    let pool: Vec<f32> = (0..tile * dim).map(|_| lcg(&mut s) as f32).collect();
    let packed = bba_simd::PackedRows::new(&pool, tile, dim);
    let mut dots = vec![0.0f32; tile];
    c.bench_function("simd_dot_rows_16x432", |b| {
        b.iter(|| {
            bba_simd::dot_f32_rows(black_box(&a), black_box(&packed), 0, black_box(&mut dots))
        })
    });
    c.bench_function("simd_dot_rows_16x432_one_row_at_a_time", |b| {
        b.iter(|| {
            for (o, row) in dots.iter_mut().zip(pool.chunks_exact(dim)) {
                *o = bba_simd::dot_f32(black_box(&a), black_box(row));
            }
        })
    });
}
