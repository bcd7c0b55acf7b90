//! Input generation from the workload seed. The program under test only
//! ever sees what these functions build.

use dls_data::labels::linear_teacher_labels;
use dls_data::{generate, DatasetSpec};
use dls_sparse::{Scalar, SparseVec, TripletMatrix};

/// SplitMix64: a small seeded generator for request mixes and sampling.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Derives an independent seed for input stream `stream` of a run.
pub fn derive(seed: u64, stream: u64) -> u64 {
    Rng::new(seed ^ stream.wrapping_mul(0xd134_2543_de82_ef95)).next_u64()
}

/// Per-dataset shrink factor for the twins, as the repository's Table VI
/// harness uses: the dense giants shrink hard, the sparse sets barely. The
/// benchmark keeps its own copy so that retuning the harness cannot change
/// the benchmark's inputs.
pub fn default_scale(name: &str) -> usize {
    match name {
        "gisette" => 8,
        "epsilon" => 400,
        "dna" => 2_000,
        "sector" => 4,
        _ => 1,
    }
}

/// The spec of a twin, shrunk by `default_scale × extra`.
pub fn spec(name: &str, extra: usize) -> DatasetSpec {
    DatasetSpec::by_name(name)
        .unwrap_or_else(|| panic!("unknown dataset {name}"))
        .scaled(default_scale(name) * extra)
}

/// A twin's data matrix and ±1 labels from a linear teacher.
pub fn twin(spec: &DatasetSpec, seed: u64) -> (TripletMatrix, Vec<Scalar>) {
    let t = generate(spec, seed);
    let y = linear_teacher_labels(&t, 0.05, seed ^ 0xBEEF);
    (t, y)
}

/// `count` query vectors drawn from a second, unseen sample of the twin.
pub fn queries(spec: &DatasetSpec, seed: u64, count: usize) -> Vec<SparseVec> {
    let t = generate(spec, seed).compact();
    (0..count).map(|i| t.row_sparse(i * t.rows() / count.max(1) % t.rows())).collect()
}
