//! Seeded input generation for the serving workloads.
//!
//! The benchmark makes every request from `--seed` with its own
//! generators, so the program under test sees only the generated
//! requests and a change to the program's random-number code cannot
//! change the inputs.

/// SplitMix64: a small, fast, seedable generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// Zipf-distributed key indices in `[0, n)`, scattered through key order
/// like YCSB's scrambled Zipfian: rank `r` (0 the most popular) maps to
/// key `(a·r + b) mod n`.
///
/// The permutation is fixed rather than seeded. A range scan's cost
/// depends on where its start key sits, so letting the seed move the
/// hottest keys would make the seed, not the program, set the measured
/// speed.
#[derive(Debug, Clone)]
pub struct ScrambledZipf {
    cdf: Vec<f64>,
    a: u64,
    b: u64,
}

impl ScrambledZipf {
    /// Popularity `1/rank^s` over `n` keys.
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n > 1, "a Zipf key space needs at least two keys");
        let mut cdf = Vec::with_capacity(n as usize);
        let mut total = 0.0;
        for rank in 1..=n {
            total += (rank as f64).powf(-s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        // 7919 is prime, so it permutes any key count it does not divide.
        let a = 7_919;
        assert_eq!(gcd(a, n), 1, "the scramble must permute {n} keys");
        Self { cdf, a, b: n / 3 }
    }

    /// Draw one key index.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1) as u64;
        let n = self.cdf.len() as u64;
        (rank * self.a + self.b) % n
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrambled_zipf_is_seeded_and_skewed() {
        let z = ScrambledZipf::new(1_000, 0.99);
        let draw = |seed| {
            let mut rng = Rng::new(seed, 1);
            (0..5_000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
        let keys = draw(3);
        assert!(keys.iter().all(|&k| k < 1_000));
        let mut counts = vec![0u32; 1_000];
        for k in keys {
            counts[k as usize] += 1;
        }
        // The hottest key is rank 0, scattered to b = n / 3.
        assert_eq!(
            counts
                .iter()
                .enumerate()
                .max_by_key(|(_, c)| **c)
                .map(|(k, _)| k),
            Some(333)
        );
        counts.sort_unstable();
        // Under Zipf(0.99) over 1000 keys the top key takes about 13%.
        assert!(counts[999] > 400, "top key drew {}", counts[999]);
    }
}
