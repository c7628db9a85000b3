//! Seeded input generation. Every row, query and stored word a
//! workload feeds the program comes from here, so the same `--seed`
//! always gives the same inputs.

/// Cells per stored word in every search workload.
pub const WORD_LEN: usize = 64;
/// Levels of a 3-bit cell.
pub const LEVELS: u8 = 8;

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A child generator for one named purpose, independent of the
    /// order in which the other streams are drawn.
    pub fn stream(seed: u64, purpose: u64) -> Self {
        let mut mix = Rng(seed ^ purpose.wrapping_mul(0xA24B_AED4_963E_E407));
        Rng(mix.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant at
    /// these sizes).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn level(&mut self) -> u8 {
        self.below(usize::from(LEVELS)) as u8
    }
}

pub fn random_word(rng: &mut Rng) -> Vec<u8> {
    (0..WORD_LEN).map(|_| rng.level()).collect()
}

/// One level up or down, clamped to the ladder.
fn nudge(level: u8, rng: &mut Rng) -> u8 {
    if rng.below(2) == 0 {
        level.saturating_sub(1)
    } else {
        (level + 1).min(LEVELS - 1)
    }
}

/// `word` with `cells` distinct cells moved one level: a noisy copy
/// whose nearest stored row is, almost always, `word` itself.
pub fn jittered(word: &[u8], cells: usize, rng: &mut Rng) -> Vec<u8> {
    let mut out = word.to_vec();
    let mut picked: Vec<usize> = Vec::with_capacity(cells);
    while picked.len() < cells {
        let c = rng.below(out.len());
        if !picked.contains(&c) {
            picked.push(c);
            out[c] = nudge(out[c], rng);
        }
    }
    out
}

/// A member of the cluster around `centre`: about a quarter of the
/// cells moved one level.
pub fn cluster_member(centre: &[u8], rng: &mut Rng) -> Vec<u8> {
    centre
        .iter()
        .map(|&l| if rng.below(4) == 0 { nudge(l, rng) } else { l })
        .collect()
}

/// A labelled query pool: each query is a stored row with `cells`
/// cells jittered, labelled with that row's index.
pub fn query_pool(
    rows: &[Vec<u8>],
    n: usize,
    cells: usize,
    rng: &mut Rng,
) -> (Vec<Vec<u8>>, Vec<usize>) {
    (0..n)
        .map(|_| {
            let source = rng.below(rows.len());
            (jittered(&rows[source], cells, rng), source)
        })
        .unzip()
}
