//! The train/table4 pipeline: what `spsel train --quick` and
//! `table4 --quick` spend their time on, timed cold and warm.

use crate::trace::{maybe_span as span, Tracer};
use spsel_core::cache::Cache;
use spsel_core::corpus::{Corpus, CorpusConfig};
use spsel_core::experiments::formatzoo::RegistryChoice;
use spsel_core::experiments::{table4, ExperimentContext};
use spsel_core::telemetry::RunReport;
use spsel_gpusim::{benchmark_corpus, Gpu};
use spsel_serve::artifact::{self, TrainConfig};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// The committed `table4 --quick` output every cold table4 must equal.
pub const TABLE4_BASELINE: &str = include_str!("../../baselines/table4.txt");

/// Corpus seed of `spsel train --quick` and the table binaries. It is
/// fixed, not drawn from the workload seed: corpus size and training
/// time vary by some 20 % from one corpus seed to the next, which would
/// swamp the run-to-run comparison. It also keeps the rendered table
/// comparable with the committed baseline.
const CORPUS_SEED: u64 = 0xC0FFEE;

/// What one repetition trains and tabulates.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Corpus `spsel train --quick` builds.
    pub train_corpus: CorpusConfig,
    /// Label space the workload's model is trained over.
    pub registry: RegistryChoice,
}

impl PipelineConfig {
    /// The quick training corpus, labeled over `registry`.
    pub fn new(registry: RegistryChoice) -> Self {
        PipelineConfig {
            train_corpus: CorpusConfig::small(120, CORPUS_SEED),
            registry,
        }
    }

    /// The training configuration (defaults, over the chosen registry).
    pub fn train_config(&self) -> TrainConfig {
        TrainConfig {
            registry: self.registry,
            ..TrainConfig::default()
        }
    }
}

fn table4_config() -> table4::Table4Config {
    // The `--quick` settings of the table4 binary.
    table4::Table4Config {
        nc_candidates: vec![25, 50],
        folds: 3,
        seed: 17,
    }
}

/// The table as the table4 binary prints it.
pub fn render_table4(t: &table4::Table4) -> String {
    format!(
        "Table 4: semi-supervised performance per clustering algorithm\n\n{}\n",
        t.render()
    )
}

/// Timings and checks of one repetition.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Empty cache: context build plus `artifact::train`.
    pub train_cold_s: f64,
    /// Record shards warm, artifact cache not consulted: context build
    /// plus `artifact::train`.
    pub train_warm_s: f64,
    /// Empty cache: context build, `table4::run`, result store.
    pub table4_cold_s: f64,
    /// Cold and warm artifacts serialize byte-identically.
    pub artifacts_match: bool,
    /// The rendered table equals the committed baseline byte for byte.
    pub table_matches: bool,
    /// Record-level cache hits of the warm build.
    pub record_hits: u64,
    /// Record-level cache misses of the warm build.
    pub record_misses: u64,
}

fn open(tr: &mut Option<&mut Tracer>, name: &'static str, req: u64) {
    if let Some(t) = tr.as_deref_mut() {
        t.open(name, req);
    }
}

fn close(tr: &mut Option<&mut Tracer>) {
    if let Some(t) = tr.as_deref_mut() {
        t.close();
    }
}

fn build(cfg: &CorpusConfig, cache: &Cache) -> ExperimentContext {
    let mut ctx = ExperimentContext::build(cfg.clone(), cache, &mut RunReport::new("spbench"));
    ctx.extend_with_growth(cache);
    ctx
}

/// Context build plus `artifact::train`, as `spsel train` runs them.
fn train(
    cfg: &PipelineConfig,
    cache: &Cache,
    tr: &mut Option<&mut Tracer>,
    name: &'static str,
    req: u64,
) -> (String, f64) {
    let start = Instant::now();
    open(tr, name, req);
    let ctx = span(tr, "context.build", req, || build(&cfg.train_corpus, cache));
    let model = span(tr, "artifact.train", req, || {
        artifact::train(&ctx, &cfg.train_config())
    });
    close(tr);
    let secs = start.elapsed().as_secs_f64();
    let model = model.expect("quick corpus trains");
    (artifact::to_json(&model), secs)
}

/// Run one repetition in fresh cache directories under `work`. With a
/// tracer every step is a span of request id `req`, followed by a
/// `breakdown` that replays the cold context build's layers through
/// their public functions.
pub fn rep(cfg: &PipelineConfig, work: &Path, req: u64, mut tr: Option<&mut Tracer>) -> Rep {
    let train_dir = work.join(format!("train-cache-{req}"));
    let table_dir = work.join(format!("table4-cache-{req}"));
    open(&mut tr, "pipeline.rep", req);

    let (cold, train_cold_s) = train(cfg, &Cache::new(&train_dir), &mut tr, "train.cold", req);
    let warm_cache = Cache::new(&train_dir);
    let (warm, train_warm_s) = train(cfg, &warm_cache, &mut tr, "train.warm", req);
    let warm_report = warm_cache.report();

    let start = Instant::now();
    open(&mut tr, "table4.cold", req);
    let cache = Cache::new(&table_dir);
    let t4cfg = table4_config();
    let ctx = span(&mut tr, "context.build", req, || {
        build(&CorpusConfig::small(120, CORPUS_SEED), &cache)
    });
    let table = span(&mut tr, "experiments.table4", req, || {
        table4::run(&ctx, &t4cfg)
    });
    span(&mut tr, "cache.store_experiment", req, || {
        cache.store_experiment("table4", ctx.digest(), &t4cfg, &table)
    });
    close(&mut tr);
    let table4_cold_s = start.elapsed().as_secs_f64();

    if let Some(t) = tr.as_deref_mut() {
        context_breakdown(t, req, &cfg.train_corpus, &Cache::new(&train_dir), work);
    }
    close(&mut tr);
    let _ = std::fs::remove_dir_all(&train_dir);
    let _ = std::fs::remove_dir_all(&table_dir);
    Rep {
        train_cold_s,
        train_warm_s,
        table4_cold_s,
        artifacts_match: cold == warm,
        table_matches: render_table4(&table) == TABLE4_BASELINE,
        record_hits: warm_report.record_hits,
        record_misses: warm_report.record_misses,
    }
}

/// The cold context build's layers, each through its public function:
/// corpus generation, per-GPU benchmarking, shard stores into an empty
/// cache, and shard loads back out of it. Work is serial here, so the
/// spans measure busy time; the real build overlaps the three GPUs.
fn context_breakdown(t: &mut Tracer, req: u64, cfg: &CorpusConfig, filled: &Cache, work: &Path) {
    t.open("breakdown", req);
    let (_, plan) = t.span("corpus.generate", req, || {
        Corpus::build_cached(cfg.clone(), &Cache::disabled())
    });
    let cells: Vec<Vec<_>> = t.span("gpusim.benchmark", req, || {
        Gpu::ALL
            .iter()
            .map(|g| {
                let spec = g.spec();
                plan.shards
                    .iter()
                    .map(|sh| benchmark_corpus(&spec, &sh.stats, &sh.ids))
                    .collect()
            })
            .collect()
    });
    // The record shards a cold build stores, read back from the cache
    // the timed build just filled (outside any layer span).
    let mut offsets = Vec::with_capacity(plan.shards.len());
    let mut groups = Vec::with_capacity(plan.shards.len());
    let mut passing = 0usize;
    for sh in &plan.shards {
        let g = filled
            .load_record_shard(cfg, sh.index, passing)
            .expect("the cold build stored every record shard");
        offsets.push(passing);
        passing += g.iter().flatten().count();
        groups.push(g);
    }
    let dir = work.join(format!("store-cache-{req}"));
    let cache = Cache::new(&dir);
    t.span("cache.store", req, || {
        for (sh, g) in plan.shards.iter().zip(&groups) {
            cache.store_record_shard(cfg, sh.index, g);
        }
        for (gpu, per_shard) in Gpu::ALL.iter().zip(&cells) {
            for (sh, c) in plan.shards.iter().zip(per_shard) {
                cache.store_bench_shard(cfg, sh.index, *gpu, &sh.ids, c);
            }
        }
    });
    t.span("cache.load", req, || {
        for (sh, &offset) in plan.shards.iter().zip(&offsets) {
            black_box(cache.load_record_shard(cfg, sh.index, offset));
            for gpu in Gpu::ALL {
                black_box(cache.load_bench_shard(cfg, sh.index, gpu, &sh.ids));
            }
        }
    });
    t.close();
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_rendering_matches_the_baseline() {
        let work = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".work")
            .join(format!("test-{}", std::process::id()));
        let cfg = PipelineConfig::new(RegistryChoice::CuspDefault);
        let rep = rep(&cfg, &work, 0, None);
        let _ = std::fs::remove_dir_all(&work);
        assert!(rep.artifacts_match);
        assert!(rep.table_matches);
        assert!(rep.record_hits > 0);
        assert_eq!(rep.record_misses, 0);

        // A one-byte change in the table is caught.
        let mut altered = TABLE4_BASELINE.to_string();
        altered.replace_range(..1, "t");
        assert_ne!(altered, TABLE4_BASELINE);
    }

    #[test]
    fn traced_repetition_names_every_pipeline_layer() {
        let work = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".work")
            .join(format!("test-traced-{}", std::process::id()));
        let mut t = Tracer::new();
        let cfg = PipelineConfig::new(RegistryChoice::CuspDefault);
        let rep = rep(&cfg, &work, 1, Some(&mut t));
        let _ = std::fs::remove_dir_all(&work);
        assert!(rep.artifacts_match && rep.table_matches);
        let layers = t.layers();
        for name in [
            "corpus.generate",
            "gpusim.benchmark",
            "cache.store",
            "cache.load",
            "experiments.table4",
            "artifact.train",
        ] {
            assert!(layers.contains_key(name), "{name} missing");
        }
    }
}
