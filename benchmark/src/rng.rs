//! SplitMix64 — the benchmark's only source of randomness, so `--seed`
//! alone decides every generated input and the product crates' vendored
//! `rand` shim is not a dependency.

/// One SplitMix64 step: the generator's output for state `x` (Steele, Lea
/// & Flood). Used as a stateless hash — the order line of key `k` is a
/// pure function of `(seed, stream, k)`, which lets `deliver(k − W)`
/// rebuild the row `new_order(k − W)` inserted without remembering it.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vector() {
        // First two outputs for seed 1234567 of the reference C
        // implementation (the second state is the first plus the gamma).
        assert_eq!(mix(1234567), 6457827717110365317);
        assert_eq!(
            mix(1234567u64.wrapping_add(0x9e37_79b9_7f4a_7c15)),
            3203168211198807973
        );
    }
}
