//! The kernels' process-global dispatch counters track the
//! serial/parallel decision exactly.
//!
//! The counters are shared by every kernel call in the process, so this
//! test lives in its own test binary: no other test dispatches kernels
//! concurrently, and each call moves its counter by exactly one.

use nn::kernel::{self, kernel_stats, kernel_threads, set_kernel_threads, PAR_MIN_MULADDS};

/// Deterministic xorshift filler.
fn fill(len: usize, seed: &mut u64) -> Vec<f32> {
    (0..len)
        .map(|_| {
            *seed ^= *seed << 13;
            *seed ^= *seed >> 7;
            *seed ^= *seed << 17;
            (*seed >> 40) as f32 / (1u64 << 23) as f32 * 2.0 - 1.0
        })
        .collect()
}

#[test]
fn dispatch_counters_track_the_serial_parallel_decision() {
    let before = kernel_threads();
    let mut seed = 0x1234;
    let (m, k, n) = (96, 128, 96);
    assert!(m * k * n >= PAR_MIN_MULADDS);
    let a = fill(m * k, &mut seed);
    let b = fill(k * n, &mut seed);
    let mut out = vec![0.0f32; m * n];

    set_kernel_threads(1);
    let serial0 = kernel_stats().serial_dispatches;
    kernel::matmul(m, k, n, &a, &b, &mut out);
    assert_eq!(kernel_stats().serial_dispatches, serial0 + 1, "budget 1 dispatches serially");

    set_kernel_threads(4);
    let par0 = kernel_stats().parallel_dispatches;
    kernel::matmul(m, k, n, &a, &b, &mut out);
    assert_eq!(kernel_stats().parallel_dispatches, par0 + 1, "big matmul goes parallel");

    // Below the work floor, a 4-thread budget still runs serially.
    let tiny0 = kernel_stats().serial_dispatches;
    let mut tiny_out = vec![0.0f32; 4];
    kernel::matmul(2, 2, 2, &[1.0; 4], &[1.0; 4], &mut tiny_out);
    assert_eq!(kernel_stats().serial_dispatches, tiny0 + 1, "tiny matmul stays serial");
    set_kernel_threads(before);
}
