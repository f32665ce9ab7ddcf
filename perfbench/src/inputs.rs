//! Seeded input generators.  The same seed always yields the same bytes, and
//! the program under test only ever sees the bytes.

use sigma_workloads::payload::random_bytes;
use sigma_workloads::DeterministicRng;

/// Granularity of in-place rewrites between generations.
const REGION: usize = 4096;

/// Mixes a run seed with a stream or round index into an independent seed.
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fills `buf` with the bytes `random_bytes(buf.len(), seed)` returns,
/// without allocating.
pub fn fill_random(buf: &mut [u8], seed: u64) {
    let mut rng = DeterministicRng::new(seed);
    for chunk in buf.chunks_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes()[..chunk.len()]);
    }
}

/// Writes `streams × generations` inputs into `out`, reusing its buffers:
/// `out[g][s]` is stream `s` in generation `g`.  Each stream evolves as
/// nightly backups of a slowly changing dataset do: every generation
/// rewrites exactly `mutation_rate` of the previous one's 4 KiB regions,
/// chosen at random, and appends `growth` new bytes.
pub fn generational_set_into(
    out: &mut Vec<Vec<Vec<u8>>>,
    seed: u64,
    streams: usize,
    generations: usize,
    initial_size: usize,
    mutation_rate: f64,
    growth: usize,
) {
    out.resize_with(generations, Vec::new);
    for generation in out.iter_mut() {
        generation.resize_with(streams, Vec::new);
    }
    for s in 0..streams {
        let stream_seed = derive_seed(seed, s as u64);
        let mut rng = DeterministicRng::new(stream_seed);
        let first = &mut out[0][s];
        first.resize(initial_size, 0);
        fill_random(first, stream_seed.wrapping_add(1));
        for g in 1..generations {
            let (done, rest) = out.split_at_mut(g);
            let current = &mut rest[0][s];
            current.clear();
            current.extend_from_slice(&done[g - 1][s]);
            let regions = current.len().div_ceil(REGION);
            let rewrites = (mutation_rate * regions as f64).round() as usize;
            let mut order: Vec<usize> = (0..regions).collect();
            for i in 0..rewrites.min(regions) {
                let j = i + rng.below((regions - i) as u64) as usize;
                order.swap(i, j);
                let start = order[i] * REGION;
                let end = (start + REGION).min(current.len());
                fill_random(&mut current[start..end], rng.next_u64());
            }
            let len = current.len();
            current.resize(len + growth, 0);
            fill_random(&mut current[len..], rng.next_u64());
        }
    }
}

/// Backup payloads cut from one shared base, so tenants that back up
/// different payloads still share most chunks.  Payload `i` is the window of
/// the base at slot `i` (slots overlap by half a payload, so every seed
/// covers the base the same way) with one random 4 KiB region rewritten.
pub fn shared_base_pool(
    seed: u64,
    base_len: usize,
    payload_len: usize,
    count: usize,
) -> Vec<Vec<u8>> {
    assert!(base_len >= payload_len && payload_len >= 2 * REGION);
    let base = random_bytes(base_len, seed);
    let mut rng = DeterministicRng::new(derive_seed(seed, u64::MAX));
    let stride = payload_len / 2;
    let slots = (base_len - payload_len) / stride + 1;
    (0..count)
        .map(|i| {
            let start = (i % slots) * stride;
            let mut payload = base[start..start + payload_len].to_vec();
            let region = rng.below((payload_len / REGION) as u64) as usize * REGION;
            let fresh = random_bytes(REGION, rng.next_u64());
            payload[region..region + REGION].copy_from_slice(&fresh);
            payload
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generational_set(
        seed: u64,
        streams: usize,
        generations: usize,
        initial_size: usize,
        mutation_rate: f64,
        growth: usize,
    ) -> Vec<Vec<Vec<u8>>> {
        let mut out = Vec::new();
        generational_set_into(
            &mut out,
            seed,
            streams,
            generations,
            initial_size,
            mutation_rate,
            growth,
        );
        out
    }

    #[test]
    fn fill_random_matches_random_bytes() {
        for len in [0usize, 1, 7, 8, 9, 4096, 4099] {
            let mut buf = vec![0xAA; len];
            fill_random(&mut buf, 11);
            assert_eq!(buf, random_bytes(len, 11));
        }
    }

    #[test]
    fn reused_buffers_give_the_same_set() {
        let mut out = generational_set(9, 3, 3, 1 << 16, 0.1, 4096);
        generational_set_into(&mut out, 5, 2, 3, 1 << 15, 0.1, 4096);
        assert_eq!(out, generational_set(5, 2, 3, 1 << 15, 0.1, 4096));
    }

    #[test]
    fn generations_are_deterministic_grow_and_mostly_overlap() {
        let a = generational_set(5, 2, 3, 1 << 20, 0.1, 4096);
        let b = generational_set(5, 2, 3, 1 << 20, 0.1, 4096);
        assert_eq!(a, b);
        assert_ne!(a, generational_set(6, 2, 3, 1 << 20, 0.1, 4096));
        for (g, streams) in a.iter().enumerate() {
            for data in streams {
                assert_eq!(data.len(), (1 << 20) + g * 4096);
            }
        }
        assert_ne!(a[0][0], a[0][1], "streams differ");
        let same = a[0][0]
            .chunks(REGION)
            .zip(a[1][0].chunks(REGION))
            .filter(|(x, y)| x == y)
            .count();
        // 256 regions at a 10% rewrite rate: 26 are rewritten.
        assert_eq!(same, 256 - 26);
    }

    #[test]
    fn pool_payloads_share_the_base() {
        let pool = shared_base_pool(3, 256 * 1024, 64 * 1024, 8);
        assert_eq!(pool.len(), 8);
        assert!(pool.iter().all(|p| p.len() == 64 * 1024));
        assert_eq!(pool, shared_base_pool(3, 256 * 1024, 64 * 1024, 8));
        let base = random_bytes(256 * 1024, 3);
        let base_regions: std::collections::HashSet<&[u8]> = base.chunks(REGION).collect();
        for p in &pool {
            let shared = p
                .chunks(REGION)
                .filter(|r| base_regions.contains(r))
                .count();
            assert_eq!(
                shared, 15,
                "all but the rewritten region come from the base"
            );
        }
    }
}
