//! Seeded input generator, owned by the benchmark.
//!
//! The workloads must not move when the program under test changes, so
//! nothing here calls `megasw_seq::generate` or its divergence models:
//! the PRNG (xoshiro256** seeded through splitmix64) and the mutation
//! model are local. The program only ever sees the generated FASTA text
//! or HTTP request bodies.
//!
//! Every draw that shapes a workload's *size distribution* (pair
//! lengths, job kinds, Poisson gaps) is stratified: `n` draws take one
//! point from each of `n` equal-probability strata, in seeded order. The
//! sample is still the named distribution, but two seeds give the same
//! spread of sizes, so run-to-run differences come from the program and
//! the host rather than from a lucky draw of big pairs.

/// xoshiro256** with a splitmix64 seeder.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// An independent stream per `(seed, stream)`: each workload draws
    /// from its own stream, so adding a draw to one leaves the others
    /// byte-identical.
    pub fn new(seed: u64, stream: &str) -> Rng {
        // FNV-1a of the stream name, folded into the seed.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in stream.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        let mut x = seed ^ h;
        Rng {
            s: [
                splitmix64(&mut x),
                splitmix64(&mut x),
                splitmix64(&mut x),
                splitmix64(&mut x),
            ],
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (((self.next_u64() >> 11) as u128 * n as u128) >> 53) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }

    /// `n` stratified uniforms: one from each `[k/n, (k+1)/n)`, shuffled.
    pub fn stratified(&mut self, n: usize) -> Vec<f64> {
        let mut u: Vec<f64> = (0..n).map(|k| (k as f64 + self.f64()) / n as f64).collect();
        self.shuffle(&mut u);
        u
    }
}

/// Log-uniform value in `[lo, hi]` at quantile `u`.
pub fn log_uniform(u: f64, lo: f64, hi: f64) -> f64 {
    (lo.ln() + u * (hi.ln() - lo.ln())).exp()
}

/// Exponential(mean) value at quantile `u`.
pub fn exponential(u: f64, mean: f64) -> f64 {
    -mean * (1.0 - u).ln()
}

const BASES: [u8; 4] = *b"ACGT";

/// Random DNA with human-like 41 % GC content.
pub fn random_dna(rng: &mut Rng, len: usize) -> Vec<u8> {
    (0..len)
        .map(|_| {
            let u = rng.f64();
            // A, T at 29.5 % each; C, G at 20.5 % each.
            if u < 0.295 {
                b'A'
            } else if u < 0.500 {
                b'C'
            } else if u < 0.705 {
                b'G'
            } else {
                b'T'
            }
        })
        .collect()
}

/// Human–chimp-like divergence: 1.2 % substitutions and 0.1 % indel
/// events per base, indel lengths geometric with mean 4 (capped at 40).
pub fn diverge(rng: &mut Rng, src: &[u8]) -> Vec<u8> {
    const SUB: f64 = 0.012;
    const INDEL: f64 = 0.001;
    let mut out = Vec::with_capacity(src.len() + src.len() / 50);
    let mut i = 0;
    while i < src.len() {
        let u = rng.f64();
        if u < INDEL {
            let mut len = 1;
            while len < 40 && rng.f64() < 0.75 {
                len += 1;
            }
            if rng.f64() < 0.5 {
                i += len; // deletion
            } else {
                out.extend(random_dna(rng, len)); // insertion
            }
        } else if u < INDEL + SUB {
            let orig = src[i];
            let mut b = BASES[rng.below(4)];
            while b == orig {
                b = BASES[rng.below(4)];
            }
            out.push(b);
            i += 1;
        } else {
            out.push(src[i]);
            i += 1;
        }
    }
    out
}

/// A homologous pair: `a` random, `b` diverged from it.
pub fn homologous_pair(rng: &mut Rng, len: usize) -> (Vec<u8>, Vec<u8>) {
    let a = random_dna(rng, len);
    let b = diverge(rng, &a);
    (a, b)
}

/// FASTA text: one record, 70 bases per line.
pub fn fasta(id: &str, seq: &[u8]) -> String {
    let mut s = String::with_capacity(seq.len() + seq.len() / 70 + id.len() + 4);
    s.push('>');
    s.push_str(id);
    s.push('\n');
    for line in seq.chunks(70) {
        s.push_str(std::str::from_utf8(line).expect("generated bases are ASCII"));
        s.push('\n');
    }
    s
}

/// One generated pair as the program receives it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairText {
    pub id: String,
    pub a: Vec<u8>,
    pub b: Vec<u8>,
}

impl PairText {
    pub fn cells(&self) -> u128 {
        self.a.len() as u128 * self.b.len() as u128
    }

    pub fn fasta_a(&self) -> String {
        fasta(&format!("{}_a", self.id), &self.a)
    }

    pub fn fasta_b(&self) -> String {
        fasta(&format!("{}_b", self.id), &self.b)
    }
}

/// Side of the `megapair` workload's first sequence.
pub const MEGAPAIR_LEN: usize = 60_000;
/// Side of the `align` probe's first sequence.
pub const ALIGN_LEN: usize = 8_000;
/// Pairs in one `dbsearch` batch.
pub const DBSEARCH_PAIRS: usize = 300;

/// `megapair`: one ~60 kbp homologous pair.
pub fn megapair(seed: u64) -> PairText {
    let mut rng = Rng::new(seed, "megapair");
    let (a, b) = homologous_pair(&mut rng, MEGAPAIR_LEN);
    PairText {
        id: "megapair".into(),
        a,
        b,
    }
}

/// `align`: one ~8 kbp homologous pair, for the stage and traceback probe.
pub fn align(seed: u64) -> PairText {
    let mut rng = Rng::new(seed, "align");
    let (a, b) = homologous_pair(&mut rng, ALIGN_LEN);
    PairText {
        id: "align".into(),
        a,
        b,
    }
}

/// `dbsearch`: `n` pairs, lengths log-uniform over 100 bp–8 kbp, even
/// indices homologous and odd indices unrelated (independent lengths).
pub fn dbsearch(seed: u64, n: usize) -> Vec<PairText> {
    let mut rng = Rng::new(seed, "dbsearch");
    let homologous = n.div_ceil(2);
    let la_h = rng.stratified(homologous);
    let la_u = rng.stratified(n - homologous);
    let lb_u = rng.stratified(n - homologous);
    let len = |u: f64| log_uniform(u, 100.0, 8000.0) as usize;
    (0..n)
        .map(|k| {
            let (a, b) = if k % 2 == 0 {
                homologous_pair(&mut rng, len(la_h[k / 2]))
            } else {
                let (ua, ub) = (la_u[k / 2], lb_u[k / 2]);
                (random_dna(&mut rng, len(ua)), random_dna(&mut rng, len(ub)))
            };
            PairText {
                id: format!("db{k}"),
                a,
                b,
            }
        })
        .collect()
}

/// One service request.
#[derive(Debug, Clone)]
pub enum JobInput {
    /// A single pair; `fasta` picks FASTA text over raw bases in the body.
    Single {
        pair: PairText,
        fasta: bool,
    },
    Batch {
        pairs: Vec<PairText>,
    },
}

impl JobInput {
    pub fn cells(&self) -> u128 {
        match self {
            JobInput::Single { pair, .. } => pair.cells(),
            JobInput::Batch { pairs } => pairs.iter().map(PairText::cells).sum(),
        }
    }

    pub fn pairs(&self) -> Vec<&PairText> {
        match self {
            JobInput::Single { pair, .. } => vec![pair],
            JobInput::Batch { pairs } => pairs.iter().collect(),
        }
    }

    /// The `POST /jobs` body.
    pub fn body(&self) -> String {
        match self {
            JobInput::Single { pair, fasta } => {
                let (a, b) = if *fasta {
                    (pair.fasta_a(), pair.fasta_b())
                } else {
                    (ascii(&pair.a), ascii(&pair.b))
                };
                format!(
                    "{{\"id\": \"{}\", \"a\": \"{}\", \"b\": \"{}\"}}",
                    pair.id,
                    json_escape(&a),
                    json_escape(&b)
                )
            }
            JobInput::Batch { pairs } => {
                let items: Vec<String> = pairs
                    .iter()
                    .map(|p| {
                        format!(
                            "{{\"id\": \"{}\", \"a\": \"{}\", \"b\": \"{}\"}}",
                            p.id,
                            ascii(&p.a),
                            ascii(&p.b)
                        )
                    })
                    .collect();
                format!("{{\"kind\": \"batch\", \"pairs\": [{}]}}", items.join(", "))
            }
        }
    }
}

fn ascii(seq: &[u8]) -> String {
    String::from_utf8(seq.to_vec()).expect("generated bases are ASCII")
}

fn json_escape(s: &str) -> String {
    s.replace('\n', "\\n")
}

/// The service mix, `n` jobs in arrival order: 80 % single pairs of
/// 1–16 kbp (log-uniform, half sent as FASTA text), 15 % batches of
/// 8–32 pairs of 100 bp–2 kbp, 5 % ~20 kbp singles that block the head
/// of the queue. `stream` keeps the phases of one run independent.
pub fn service_jobs(seed: u64, stream: &str, n: usize) -> Vec<JobInput> {
    let mut rng = Rng::new(seed, stream);
    let blockers = (n as f64 * 0.05).round() as usize;
    let batches = (n as f64 * 0.15).round() as usize;
    let singles = n - blockers - batches;
    let mut single_jobs = Vec::with_capacity(singles);
    for (k, u) in rng.stratified(singles).into_iter().enumerate() {
        let len = log_uniform(u, 1000.0, 16000.0) as usize;
        let (a, b) = homologous_pair(&mut rng, len);
        let pair = PairText {
            id: String::new(),
            a,
            b,
        };
        single_jobs.push(JobInput::Single {
            pair,
            fasta: k % 2 == 1,
        });
    }
    let mut batch_jobs = Vec::with_capacity(batches);
    for u in rng.stratified(batches) {
        let count = 8 + (u * 25.0) as usize;
        let pairs = (0..count)
            .map(|_| {
                let len = log_uniform(rng.f64(), 100.0, 2000.0) as usize;
                let (a, b) = homologous_pair(&mut rng, len);
                PairText {
                    id: String::new(),
                    a,
                    b,
                }
            })
            .collect();
        batch_jobs.push(JobInput::Batch { pairs });
    }
    let mut blocker_jobs = Vec::with_capacity(blockers);
    for _ in 0..blockers {
        let len = 19_000 + rng.below(2_000);
        let (a, b) = homologous_pair(&mut rng, len);
        blocker_jobs.push(JobInput::Single {
            pair: PairText {
                id: String::new(),
                a,
                b,
            },
            fasta: false,
        });
    }
    // Interleave the kinds evenly: the k-th of g jobs of a kind lands at a
    // random point of the k-th g-quantile of the arrival order.
    let mut keyed: Vec<(f64, JobInput)> = Vec::with_capacity(n);
    for group in [single_jobs, batch_jobs, blocker_jobs] {
        let g = group.len() as f64;
        for (k, job) in group.into_iter().enumerate() {
            keyed.push(((k as f64 + rng.f64()) / g, job));
        }
    }
    keyed.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut jobs: Vec<JobInput> = keyed.into_iter().map(|(_, j)| j).collect();
    for (k, job) in jobs.iter_mut().enumerate() {
        match job {
            JobInput::Single { pair, .. } => pair.id = format!("{stream}{k}"),
            JobInput::Batch { pairs } => {
                for (p, pair) in pairs.iter_mut().enumerate() {
                    pair.id = format!("{stream}{k}p{p}");
                }
            }
        }
    }
    jobs
}

/// Poisson arrival offsets (seconds from the phase start) for `n` jobs
/// at `rate` per second, from stratified exponential gaps.
pub fn poisson_offsets(seed: u64, stream: &str, n: usize, rate: f64) -> Vec<f64> {
    let mut rng = Rng::new(seed, &format!("{stream}.arrivals"));
    let mut t = 0.0;
    rng.stratified(n)
        .into_iter()
        .map(|u| {
            t += exponential(u, 1.0 / rate);
            t
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        assert_eq!(megapair(7), megapair(7));
        assert_eq!(align(7), align(7));
        assert_eq!(dbsearch(7, 40), dbsearch(7, 40));
        let bodies = |s| {
            service_jobs(s, "light", 30)
                .iter()
                .map(JobInput::body)
                .collect::<Vec<_>>()
        };
        assert_eq!(bodies(7), bodies(7));
        assert_eq!(
            poisson_offsets(7, "light", 30, 5.0),
            poisson_offsets(7, "light", 30, 5.0)
        );
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        assert_ne!(megapair(7).a, megapair(8).a);
        assert_ne!(align(7).b, align(8).b);
        assert_ne!(dbsearch(7, 40), dbsearch(8, 40));
        let bodies = |s| {
            service_jobs(s, "light", 30)
                .iter()
                .map(JobInput::body)
                .collect::<Vec<_>>()
        };
        assert_ne!(bodies(7), bodies(8));
        assert_ne!(
            poisson_offsets(7, "light", 30, 5.0),
            poisson_offsets(8, "light", 30, 5.0)
        );
    }

    #[test]
    fn divergence_is_human_chimp_like() {
        let mut rng = Rng::new(1, "t");
        let (a, b) = homologous_pair(&mut rng, 50_000);
        let len_ratio = b.len() as f64 / a.len() as f64;
        assert!((0.99..1.01).contains(&len_ratio), "{len_ratio}");
        // Positionwise identity before the first indel stays near 98.8 %.
        let prefix = a.iter().zip(&b).take(300).filter(|(x, y)| x == y).count();
        assert!(prefix > 270, "{prefix}");
    }

    #[test]
    fn dbsearch_mix_spans_both_batch_routes() {
        let pairs = dbsearch(1, DBSEARCH_PAIRS);
        let large = pairs.iter().filter(|p| p.cells() > 1 << 24).count();
        let edge = pairs
            .iter()
            .filter(|p| p.a.len() <= 128 && p.b.len() <= 128)
            .count();
        let under_tile = pairs
            .iter()
            .filter(|p| p.a.len() < 512 || p.b.len() < 512)
            .count();
        assert!((10..=45).contains(&large), "{large} large pairs");
        assert!(edge >= 1, "no pair within one 128² tile");
        assert!(under_tile >= 50, "{under_tile} pairs below one 512² tile");
    }

    #[test]
    fn stratified_draws_cover_every_stratum() {
        let mut rng = Rng::new(3, "s");
        let mut u = rng.stratified(10);
        u.sort_by(f64::total_cmp);
        for (k, x) in u.iter().enumerate() {
            assert!(*x >= k as f64 / 10.0 && *x < (k + 1) as f64 / 10.0);
        }
    }
}
