//! Seeded scalar==SIMD differential property tests.
//!
//! Every kernel is run on seeded random inputs through both the
//! dispatcher (whatever level the host selected) and the scalar
//! reference, asserting **bitwise** equality — the float kernels promise
//! identical expression trees, not just tolerance-close results. On a
//! host without vector units (or under `USJ_NO_SIMD=1`) the comparison
//! is scalar-vs-scalar and trivially passes; the CI `simd` job runs this
//! suite both ways.

use usj_model::rng::Rng;
use usj_simd::{scalar, simd_level};

fn gen_prob(rng: &mut Rng) -> f64 {
    rng.below(10_001) as f64 / 10_000.0
}

fn gen_probs(rng: &mut Rng, n: usize) -> Vec<f64> {
    (0..n).map(|_| gen_prob(rng)).collect()
}

#[test]
fn pb_row_update_matches_scalar_bitwise() {
    let mut rng = Rng::from_state(0x5349_4D44_0001);
    for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 13, 16, 31, 64, 129] {
        for _ in 0..8 {
            let prev = gen_probs(&mut rng, len);
            let keep = gen_prob(&mut rng);
            let step = 1.0 - keep;
            let mut got = vec![0.0; len];
            let mut want = vec![0.0; len];
            usj_simd::pb_row_update(&prev, &mut got, keep, step);
            scalar::pb_row_update(&prev, &mut want, keep, step);
            let gb: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
            let wb: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
            assert_eq!(gb, wb, "len={len} level={:?}", simd_level());
        }
    }
}

#[test]
fn cdf_row_update_matches_scalar_bitwise() {
    let mut rng = Rng::from_state(0x5349_4D44_0002);
    for width in [1usize, 2, 3, 4, 5, 6, 9, 16, 33] {
        for _ in 0..8 {
            let p1 = gen_prob(&mut rng);
            let p2 = 1.0 - p1;
            let l_d1 = gen_probs(&mut rng, width);
            let l_best = gen_probs(&mut rng, width);
            let u_d1 = gen_probs(&mut rng, width);
            let u_d2 = gen_probs(&mut rng, width);
            let u_d3 = gen_probs(&mut rng, width);
            let (mut gl, mut gu) = (vec![0.0; width], vec![0.0; width]);
            let (mut wl, mut wu) = (vec![0.0; width], vec![0.0; width]);
            usj_simd::cdf_row_update(
                p1, p2, &l_d1, &l_best, &u_d1, &u_d2, &u_d3, &mut gl, &mut gu,
            );
            scalar::cdf_row_update(
                p1, p2, &l_d1, &l_best, &u_d1, &u_d2, &u_d3, &mut wl, &mut wu,
            );
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&gl), bits(&wl), "L width={width}");
            assert_eq!(bits(&gu), bits(&wu), "U width={width}");
        }
    }
}

#[test]
fn prefix_suffix_match_scalar_on_random_pairs() {
    let mut rng = Rng::from_state(0x5349_4D44_0003);
    for _ in 0..400 {
        let la = rng.below(120);
        let lb = rng.below(120);
        let a: Vec<u8> = (0..la).map(|_| rng.below(4) as u8).collect();
        let mut b: Vec<u8> = (0..lb).map(|_| rng.below(4) as u8).collect();
        // Half the time, force long shared affixes (the realistic case).
        if rng.below(2) == 0 {
            let n = la.min(lb);
            let shared = rng.below(n + 1);
            for t in 0..shared {
                b[t] = a[t];
                let (x, y) = (la - 1 - t, lb - 1 - t);
                b[y] = a[x];
            }
        }
        assert_eq!(
            usj_simd::common_prefix_len(&a, &b),
            scalar::common_prefix_len(&a, &b),
            "prefix a={a:?} b={b:?}"
        );
        assert_eq!(
            usj_simd::common_suffix_len(&a, &b),
            scalar::common_suffix_len(&a, &b),
            "suffix a={a:?} b={b:?}"
        );
    }
    // Identical long strings hit the all-blocks-equal path exactly.
    let long: Vec<u8> = (0..257).map(|i| (i % 7) as u8).collect();
    assert_eq!(usj_simd::common_prefix_len(&long, &long), 257);
    assert_eq!(usj_simd::common_suffix_len(&long, &long), 257);
}
