//! Seeded input generation. Everything a workload sends is built here,
//! from the workload seed, before any timed window opens: matrices,
//! feature vectors, `.mtx` files, and the pre-encoded wire bytes of
//! every request. The send loops only copy bytes.

use spsel_features::FeatureExtractor;
use spsel_gpusim::Gpu;
use spsel_matrix::{gen, io, CooMatrix, CsrMatrix, Workload};
use spsel_serve::{framing, Protocol, Request};
use std::path::Path;

/// splitmix64: a tiny, dependency-free seeded generator.
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed`, decorrelated from other streams by `tag`.
    pub fn new(seed: u64, tag: u64) -> Self {
        let mut g = SplitMix(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        g.next_u64();
        g
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo)
    }
}

/// Structural families the generated inputs cycle through.
pub const FAMILIES: usize = 6;

/// One matrix of structural family `family` (mod [`FAMILIES`]) with
/// about `n` rows. Only the sparsity pattern is seeded; each family's
/// shape parameters are fixed, so a matrix's size, and so its cost,
/// depends on `n` and not on the seed. Inputs cycle through the families
/// instead of drawing them, so every seed sends the same mix.
pub fn matrix(family: usize, rng: &mut SplitMix, n: usize) -> CooMatrix {
    let s = rng.next_u64();
    match family % FAMILIES {
        0 => gen::power_law(n, n, 2, 2.3, 64, s),
        1 => gen::banded(n, 6, 0.5, s),
        2 => gen::stencil2d(((n as f64).sqrt() as usize).max(4), s),
        3 => gen::random_uniform(n, n, 8, s),
        4 => gen::block_diagonal((n / 8).max(1), 8, 0.6, s),
        _ => gen::row_skewed(n, n, 4, 80, 0.03, s),
    }
}

/// Table 1 feature vector of a matrix (the extractor serving uses).
pub fn features(ex: &mut FeatureExtractor, m: &CooMatrix) -> Vec<f64> {
    ex.features(&CsrMatrix::from(m)).as_slice().to_vec()
}

/// Generated requests, their wire bytes, and the order they are sent in.
pub struct Pool {
    /// Wire protocol every payload is encoded for.
    pub protocol: Protocol,
    /// Distinct requests.
    pub requests: Vec<Request>,
    /// `payloads[i]`: request `i` as sent — a JSON line with its newline,
    /// or a complete binary frame.
    pub payloads: Vec<Vec<u8>>,
    /// Pool indices in send order; position `p` sends
    /// `sequence[p % len]`.
    pub sequence: Vec<u32>,
    /// Bytes of `.mtx` input written for this pool (0 for inline pools).
    pub mtx_bytes: u64,
}

impl Pool {
    fn new(protocol: Protocol, requests: Vec<Request>, rng: &mut SplitMix, mtx_bytes: u64) -> Pool {
        let payloads = requests
            .iter()
            .map(|r| match protocol {
                Protocol::Json => {
                    let mut line = serde_json::to_string(r)
                        .expect("request serializes")
                        .into_bytes();
                    line.push(b'\n');
                    line
                }
                Protocol::Binary => framing::encode_request(r),
            })
            .collect();
        // Seeded shuffles of the whole pool, back to back: every stretch
        // of the send order carries close to the pool's own mix.
        let mut sequence = Vec::with_capacity(SEQUENCE_LEN);
        while sequence.len() < SEQUENCE_LEN {
            let mut cycle: Vec<u32> = (0..requests.len() as u32).collect();
            for i in (1..cycle.len()).rev() {
                cycle.swap(i, rng.below(i + 1));
            }
            sequence.extend(cycle);
        }
        sequence.truncate(SEQUENCE_LEN);
        Pool {
            protocol,
            requests,
            payloads,
            sequence,
            mtx_bytes,
        }
    }

    /// Pool index of the request sent at sequence position `pos`.
    pub fn at(&self, pos: usize) -> usize {
        self.sequence[pos % self.sequence.len()] as usize
    }
}

/// Send-order length before the sequence repeats.
const SEQUENCE_LEN: usize = 1 << 18;

fn select(
    matrix: Option<String>,
    features: Option<Vec<f64>>,
    rng: &mut SplitMix,
    learn: bool,
    workload: Option<Workload>,
) -> Request {
    Request::Select {
        matrix,
        features,
        gpu: Gpu::ALL[rng.below(Gpu::ALL.len())].name().to_string(),
        iterations: Some(10usize.pow(1 + rng.below(4) as u32)),
        deadline_ms: None,
        learn: Some(learn),
        workload: workload.map(Workload::name),
    }
}

/// Inline-vector selects over `n_matrices` generated matrices (SpMV, the
/// wire default, so no workload field is sent).
pub fn inline_pool(seed: u64, protocol: Protocol, learn: bool, n_matrices: usize) -> Pool {
    let mut rng = SplitMix::new(seed, 1);
    let mut ex = FeatureExtractor::new();
    let vectors: Vec<Vec<f64>> = (0..n_matrices)
        .map(|i| {
            let n = rng.range(200, 2000);
            features(&mut ex, &matrix(i, &mut rng, n))
        })
        .collect();
    vector_pool(vectors, seed, protocol, learn)
}

/// Inline-vector selects over given feature vectors.
fn vector_pool(vectors: Vec<Vec<f64>>, seed: u64, protocol: Protocol, learn: bool) -> Pool {
    let mut rng = SplitMix::new(seed, 2);
    let requests = (0..4 * vectors.len())
        .map(|_| {
            let v = vectors[rng.below(vectors.len())].clone();
            select(None, Some(v), &mut rng, learn, None)
        })
        .collect();
    Pool::new(protocol, requests, &mut rng, 0)
}

/// Size classes of the `.mtx` inputs: (share of files in tenths, row
/// range the class's files spread evenly over). Most requests carry a
/// small matrix, a few a large one, so the lockstep tail has a
/// large-matrix population of its own to measure.
const MTX_CLASSES: [(usize, usize, usize); 3] = [(6, 60, 150), (3, 200, 400), (1, 600, 900)];

/// Size slots per family; each class takes its share of them, spread
/// evenly over its row range. Many slots keep the percentiles from
/// resting on a few files whose seeded patterns happen to be dense.
const MTX_SLOTS: usize = 40;

/// `.mtx` files per pool: every family in every size slot.
pub const MTX_FILES: usize = FAMILIES * MTX_SLOTS;

/// `.mtx`-path selects over [`MTX_FILES`] matrices written under `dir`:
/// each file once per workload of the SpMV / SpMM(k=4) / SpMM(k=32) mix.
pub fn mtx_pool(seed: u64, dir: &Path) -> std::io::Result<Pool> {
    std::fs::create_dir_all(dir)?;
    let mut rng = SplitMix::new(seed, 3);
    let mut paths = Vec::with_capacity(MTX_FILES);
    let mut bytes = 0u64;
    for i in 0..MTX_FILES {
        let mut slot = i / FAMILIES;
        let n = MTX_CLASSES
            .iter()
            .find_map(|&(tenths, lo, hi)| {
                let slots = tenths * MTX_SLOTS / 10;
                if slot < slots {
                    Some(lo + (hi - lo) * slot / slots)
                } else {
                    slot -= slots;
                    None
                }
            })
            .expect("class shares sum to ten");
        let m = matrix(i, &mut rng, n);
        let path = dir.join(format!("m{i:03}.mtx"));
        io::write_matrix_market_file(&m, &path)
            .map_err(|e| std::io::Error::other(format!("{}: {e}", path.display())))?;
        bytes += std::fs::metadata(&path)?.len();
        paths.push(path.to_string_lossy().into_owned());
    }
    let requests = paths
        .iter()
        .flat_map(|p| Workload::ALL.map(|w| (p.clone(), w)))
        .map(|(path, w)| select(Some(path), None, &mut rng, false, Some(w)))
        .collect();
    Ok(Pool::new(Protocol::Binary, requests, &mut rng, bytes))
}

/// FNV-1a over a reply's bytes: replies are compared by digest so the
/// send loops keep no reply bodies.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = inline_pool(5, Protocol::Json, false, 8);
        let b = inline_pool(5, Protocol::Json, false, 8);
        assert_eq!(a.payloads, b.payloads);
        assert_eq!(a.sequence, b.sequence);
        let c = inline_pool(6, Protocol::Json, false, 8);
        assert_ne!(a.payloads, c.payloads);
    }

    #[test]
    fn payloads_decode_back_to_their_requests() {
        let p = inline_pool(9, Protocol::Binary, true, 4);
        for (r, bytes) in p.requests.iter().zip(&p.payloads) {
            let back = framing::decode_request(bytes[4], &bytes[5..]).unwrap();
            assert_eq!(&back, r);
        }
    }
}
