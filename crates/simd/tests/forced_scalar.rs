//! Forced-scalar leg: `USJ_NO_SIMD=1` must pin the dispatcher to the
//! scalar level for the whole process.
//!
//! This lives in its own integration-test binary because the level is
//! cached in a `OnceLock` on first use — the env var has to be set
//! before any kernel call in the process, which a shared test binary
//! cannot guarantee.

use usj_simd::{scalar, simd_level, SimdLevel};

#[test]
fn env_override_forces_scalar_level() {
    // Set before the first simd_level() call in this process.
    std::env::set_var("USJ_NO_SIMD", "1");
    assert_eq!(simd_level(), SimdLevel::Scalar);

    // And the kernels really run the scalar reference: exact equality on
    // a non-trivial input.
    let prev = [0.25, 0.5, 0.75, 1.0, 0.125, 0.375, 0.625, 0.875, 0.0625];
    let mut got = [0.0; 9];
    let mut want = [0.0; 9];
    usj_simd::pb_row_update(&prev, &mut got, 0.3, 0.7);
    scalar::pb_row_update(&prev, &mut want, 0.3, 0.7);
    assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits));

    let a: Vec<u8> = (0..100).map(|i| (i % 5) as u8).collect();
    let mut b = a.clone();
    b[97] = 9;
    assert_eq!(usj_simd::common_prefix_len(&a, &b), 97);
    assert_eq!(usj_simd::common_suffix_len(&a, &b), 2);
}
