//! Property test: the multi-lane FNV-1a kernel is bit-identical to one
//! serial fold per lane, for any lane count (including groups of four
//! plus a remainder), any start states and unequal or empty lengths.

use daspos_hep::{fnv64_fold, fnv64_fold_many};
use proptest::prelude::*;

/// A lane's bytes: often empty, otherwise up to 80 bytes, so one group
/// mixes empty, short and long lanes.
fn arb_bytes() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![Just(Vec::new()), prop::collection::vec(any::<u8>(), 0..80),]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn fold_many_equals_one_fold_per_lane(
        lanes in prop::collection::vec((any::<u64>(), arb_bytes()), 0..10)
    ) {
        let expected: Vec<u64> = lanes.iter().map(|(h, data)| fnv64_fold(*h, data)).collect();
        let mut folded: Vec<(u64, &[u8])> =
            lanes.iter().map(|(h, data)| (*h, data.as_slice())).collect();
        fnv64_fold_many(&mut folded);
        let got: Vec<u64> = folded.iter().map(|lane| lane.0).collect();
        prop_assert_eq!(got, expected);
    }
}
