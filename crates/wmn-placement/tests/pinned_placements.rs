//! Pins every method's exact output and RNG draw count on one paper
//! instance.
//!
//! Every table row and GA curve starts from these placements, so a change
//! in a method's draw order (say, skipping an adherence draw that never
//! fires) changes every result downstream even when each placement stays
//! valid and deterministic. The validity and determinism proptests cannot
//! see that; this test can.

use rand::RngCore;
use wmn_model::instance::InstanceSpec;
use wmn_model::rng::rng_from_seed;
use wmn_placement::registry::AdHocMethod;

/// FNV-1a-64 over the little-endian bytes of every coordinate's bits,
/// x before y, in router order.
fn placement_hash(points: &[wmn_model::Point]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for p in points {
        for bits in [p.x.to_bits(), p.y.to_bits()] {
            for byte in bits.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    hash
}

#[test]
fn every_method_places_exactly_as_recorded() {
    // (method, placement hash, the RNG's next u64 after placing)
    let expected: [(AdHocMethod, u64, u64); 7] = [
        (
            AdHocMethod::Random,
            0xd018_669d_5bb8_f9f5,
            0x63ec_732d_25a8_fd08,
        ),
        (
            AdHocMethod::ColLeft,
            0x7042_fc73_cf2e_58f8,
            0x0bea_61e8_e255_30b9,
        ),
        (
            AdHocMethod::Diag,
            0x5545_d0f8_ceb9_e05d,
            0x0bea_61e8_e255_30b9,
        ),
        (
            AdHocMethod::Cross,
            0x6dbd_a6ae_40dc_96c1,
            0x0bea_61e8_e255_30b9,
        ),
        (
            AdHocMethod::Near,
            0x3b70_2eee_99e6_d578,
            0x0bea_61e8_e255_30b9,
        ),
        (
            AdHocMethod::Corners,
            0xe23f_a78b_2b78_acff,
            0x0bea_61e8_e255_30b9,
        ),
        (
            AdHocMethod::HotSpot,
            0x90e0_e987_5729_65dc,
            0x0bea_61e8_e255_30b9,
        ),
    ];
    let instance = InstanceSpec::paper_normal()
        .unwrap()
        .generate(2009)
        .unwrap();
    let mut actual = Vec::new();
    for (method, _, _) in expected {
        let mut rng = rng_from_seed(7);
        let placement = method.place(&instance, &mut rng);
        actual.push((method, placement_hash(placement.as_slice()), rng.next_u64()));
    }
    assert_eq!(actual, expected, "actual: {actual:#x?}");
}
