//! Compile-and-run check for the vectorized-kernels example in README.md
//! ("Fast paths"). If this test breaks, update the README.

use dplearn::numerics::special::{log_sum_exp, log_sum_exp_fast};

#[test]
fn readme_kernels_example_runs_as_written() {
    let xs: Vec<f64> = (0..1024u32).map(|i| f64::from(i % 97) / 97.0).collect();
    // Default: bit-identical across runs, thread counts, and machines.
    let exact = log_sum_exp(&xs);
    // Fast: four-lane exp-sum — last-ulp different, audit-pinned rather
    // than bit-pinned. Choose it explicitly.
    let fast = log_sum_exp_fast(&xs);
    assert!((exact - fast).abs() < 1e-12);
}
