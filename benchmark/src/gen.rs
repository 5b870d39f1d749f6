//! Seeded input generation: the op sequence of every trial is built here,
//! before any clock starts, so the program under test receives only
//! generated inputs and generator cost stays outside the timing.
//!
//! The generator is the benchmark's own (splitmix64 + a CDF-table
//! Zipfian) rather than `gengar-workloads`/`rand`: a later change to
//! those crates must not silently change the benchmark's inputs.

use crate::spec::Spec;

/// splitmix64: tiny, seedable, and good enough for key choice.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)` (multiply-shift; bias is below 2^-32 for the
    /// key spaces used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// Zipfian over ranks `[0, n)`: rank `k` has probability proportional to
/// `1 / (k+1)^theta`. A cumulative table searched per draw, so draws are
/// integer comparisons and repeat exactly for one seed.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<u64>,
}

impl Zipf {
    pub fn new(n: u32, theta: f64) -> Self {
        let weights: Vec<f64> = (1..=n).map(|k| 1.0 / f64::from(k).powf(theta)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let mut cdf: Vec<u64> = weights
            .iter()
            .map(|w| {
                acc += w;
                (acc / total * u64::MAX as f64) as u64
            })
            .collect();
        // Rounding must not leave a gap above the last rank.
        *cdf.last_mut().expect("n > 0") = u64::MAX;
        Zipf { cdf }
    }

    pub fn draw(&self, rng: &mut Rng) -> u32 {
        let u = rng.next_u64();
        self.cdf.partition_point(|&c| c < u) as u32
    }
}

/// One generated operation. `fill` is the byte a write stores (unused for
/// reads).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub key: u32,
    pub write: bool,
    pub fill: u8,
}

/// The inputs of one trial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sequence {
    /// Ops run before the clock starts (counted into set-up).
    pub warmup: Vec<Op>,
    /// Ops of the timed phase; replayed from the start if the time budget
    /// outlasts them.
    pub timed: Vec<Op>,
}

/// The byte every object holds after populate, before any generated write.
pub fn initial_fill(key: u32) -> u8 {
    (key % 251) as u8 + 1
}

/// Generates trial `trial` of `spec` for `seed`. Batched workloads get
/// their ops in groups of `spec.batch` with distinct keys inside a group.
pub fn generate(spec: &Spec, seed: u64, trial: u32) -> Sequence {
    // Mix the workload name in, so two workloads never share a stream.
    let tag = fnv1a(spec.name.as_bytes(), FNV_OFFSET);
    let mut rng =
        Rng::new(seed ^ tag.rotate_left(17) ^ u64::from(trial).wrapping_mul(0xA24B_AED4_963E_E407));
    let zipf = spec.zipf_theta.map(|t| Zipf::new(spec.objects, t));
    // Popularity ranks are scattered over the key space by a seeded
    // permutation: hot keys land on every server, differently per seed.
    let mut scatter: Vec<u32> = (0..spec.objects).collect();
    for i in (1..scatter.len()).rev() {
        scatter.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let ops = |count: usize, rng: &mut Rng| -> Vec<Op> {
        let mut out: Vec<Op> = Vec::with_capacity(count);
        while out.len() < count {
            let group_start = out.len() - out.len() % spec.batch;
            let key = match &zipf {
                Some(z) => scatter[z.draw(rng) as usize],
                None => rng.below(u64::from(spec.objects)) as u32,
            };
            if spec.batch > 1 && out[group_start..].iter().any(|o| o.key == key) {
                continue;
            }
            let write = rng.below(100) < u64::from(spec.write_pct);
            let fill = rng.below(255) as u8 + 1;
            out.push(Op { key, write, fill });
        }
        out
    };
    let warmup = ops(spec.warmup_ops, &mut rng);
    let timed = ops(spec.timed_ops, &mut rng);
    Sequence { warmup, timed }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Where an `ops_digest` starts.
pub const DIGEST_START: u64 = FNV_OFFSET;

/// Folds every op of `seq` into the FNV-1a digest `h`. The digest over
/// all trials is printed as `ops_digest`, so two runs can be shown to have
/// received identical inputs.
pub fn digest(mut h: u64, seq: &Sequence) -> u64 {
    for op in seq.warmup.iter().chain(&seq.timed) {
        h = fnv1a(&op.key.to_le_bytes(), h);
        h = fnv1a(&[u8::from(op.write), op.fill], h);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn same_seed_same_sequence_different_seed_differs() {
        for spec in WORKLOADS {
            let small = spec.scaled(0.01);
            let a = generate(&small, 7, 0);
            let b = generate(&small, 7, 0);
            assert_eq!(a, b, "{}: same seed must repeat", spec.name);
            let of = |seq: &Sequence| digest(DIGEST_START, seq);
            assert_eq!(of(&a), of(&b));
            assert_ne!(of(&a), of(&generate(&small, 8, 0)), "{}", spec.name);
            assert_ne!(
                of(&a),
                of(&generate(&small, 7, 1)),
                "{}: trials differ",
                spec.name
            );
            assert_ne!(digest(of(&a), &b), of(&a), "the digest chains over trials");
        }
    }

    #[test]
    fn batches_hold_distinct_keys_and_mix_follows_spec() {
        for spec in WORKLOADS {
            let small = spec.scaled(0.02);
            let seq = generate(&small, 3, 0);
            assert_eq!(seq.timed.len(), small.timed_ops);
            assert_eq!(seq.timed.len() % small.batch, 0);
            for group in seq.timed.chunks(small.batch) {
                for (i, a) in group.iter().enumerate() {
                    assert!(a.key < small.objects);
                    assert!(group[..i].iter().all(|b| b.key != a.key));
                }
            }
            let writes = seq.timed.iter().filter(|o| o.write).count() as f64;
            let share = writes / seq.timed.len() as f64 * 100.0;
            assert!(
                (share - f64::from(small.write_pct)).abs() < 3.0,
                "{}: write share {share}",
                spec.name
            );
            assert!(seq.timed.iter().all(|o| o.fill != 0));
        }
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(1024, 0.99);
        let mut rng = Rng::new(1);
        let mut hits = vec![0u32; 1024];
        for _ in 0..100_000 {
            hits[z.draw(&mut rng) as usize] += 1;
        }
        assert!(hits[0] > hits[10] && hits[10] > hits[500]);
        // Rank 0 of zipf(0.99, 1024) carries about 13 % of the mass.
        assert!((10_000..17_000).contains(&hits[0]), "{}", hits[0]);
    }

    #[test]
    fn below_stays_below() {
        let mut rng = Rng::new(9);
        assert!((0..10_000).all(|_| rng.below(7) < 7));
    }
}
