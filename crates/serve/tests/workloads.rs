//! Multi-workload serving: workload-tagged selects over both wire
//! protocols, extended-registry artifacts, and the compatibility
//! guarantees for artifacts that predate the format registry.

use spsel_core::cache::Cache;
use spsel_core::corpus::CorpusConfig;
use spsel_core::experiments::formatzoo::RegistryChoice;
use spsel_core::experiments::ExperimentContext;
use spsel_core::overhead::{amortized_best, break_even_iterations};
use spsel_core::telemetry::{RunReport, ServingReport};
use spsel_features::{FeatureVector, MatrixStats};
use spsel_gpusim::{predict_times, Gpu};
use spsel_matrix::{gen, io, CooMatrix, CsrMatrix, Format, FormatRegistry, Workload};
use spsel_serve::artifact::{self, registry_for_digest, TrainConfig};
use spsel_serve::engine::matrix_id;
use spsel_serve::protocol::SelectBody;
use spsel_serve::{Client, Engine, EngineOptions, Request, ServeError, ServeOptions, Server};
use std::net::SocketAddr;
use std::sync::Arc;

fn context(n_base: usize, seed: u64) -> ExperimentContext {
    let cache = Cache::disabled();
    let mut report = RunReport::new("workload-test");
    ExperimentContext::build(CorpusConfig::small(n_base, seed), &cache, &mut report)
}

fn train_config(registry: RegistryChoice) -> TrainConfig {
    TrainConfig {
        registry,
        ..TrainConfig::default()
    }
}

fn feature_vec(seed: u64) -> Vec<f64> {
    let csr = CsrMatrix::from(&gen::power_law(150, 150, 2, 2.4, 60, seed));
    FeatureVector::from_stats(&MatrixStats::from_csr(&csr))
        .as_slice()
        .to_vec()
}

fn body(gpu: &str, features: Vec<f64>, workload: Option<&str>) -> SelectBody {
    SelectBody {
        matrix: None,
        features: Some(features),
        gpu: gpu.to_string(),
        iterations: Some(500),
        learn: Some(false),
        workload: workload.map(|s| s.to_string()),
    }
}

fn start_server(engine: Engine) -> (SocketAddr, std::thread::JoinHandle<ServingReport>) {
    let server = Server::bind(
        Arc::new(engine),
        ServeOptions {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            default_deadline_ms: 0,
            ..ServeOptions::default()
        },
    )
    .expect("bind succeeds");
    let addr = server.local_addr().expect("bound address");
    (addr, std::thread::spawn(move || server.run()))
}

/// An extended-registry artifact round-trips, serves every workload,
/// and its per-workload tables survive the reload bit-identically.
#[test]
fn extended_registry_artifact_serves_every_workload() {
    let ctx = context(60, 0xBEEF);
    let model =
        artifact::train(&ctx, &train_config(RegistryChoice::Extended)).expect("training succeeds");
    assert_eq!(model.registry_digest, FormatRegistry::extended().digest());
    for g in &model.gpus {
        let names: Vec<&str> = g
            .workload_labels
            .iter()
            .map(|w| w.workload.as_str())
            .collect();
        assert_eq!(names, ["spmm4", "spmm32"]);
    }

    let json = artifact::to_json(&model);
    let reloaded = artifact::from_json(&json).expect("artifact parses");
    assert_eq!(artifact::to_json(&reloaded), json);

    let engine = Engine::from_artifact(&reloaded, &EngineOptions::default()).unwrap();
    let registry = registry_for_digest(&model.registry_digest).unwrap();
    for workload in Workload::ALL {
        for seed in 0..8u64 {
            let reply = engine
                .select(&body("volta", feature_vec(seed), Some(&workload.name())))
                .expect("select succeeds");
            assert_eq!(reply.workload, workload.name());
            // Predicted table covers exactly the registered formats.
            assert_eq!(reply.predicted.len(), registry.formats().len());
            let chosen = spsel_serve::protocol::parse_format(&reply.format).unwrap();
            assert!(registry.contains(chosen), "{:?} not registered", chosen);
        }
    }
}

/// Workload-tagged selects round-trip over both wire protocols, and the
/// two protocols agree byte-for-byte on the reply.
#[test]
fn workload_selects_agree_across_json_and_binary_protocols() {
    let ctx = context(40, 7);
    let model =
        artifact::train(&ctx, &train_config(RegistryChoice::Extended)).expect("training succeeds");
    let engine = Engine::from_artifact(&model, &EngineOptions::default()).unwrap();
    let (addr, handle) = start_server(engine);

    let mut json = Client::connect(addr).expect("json client connects");
    let mut binary = Client::connect_binary(addr).expect("binary client connects");
    for workload in ["spmv", "spmm4", "spmm32"] {
        let request = Request::Select {
            matrix: None,
            features: Some(feature_vec(3)),
            gpu: "pascal".into(),
            iterations: Some(400),
            deadline_ms: None,
            learn: Some(false),
            workload: Some(workload.to_string()),
        };
        let a = json.roundtrip(&request).unwrap();
        let b = binary.roundtrip(&request).unwrap();
        assert!(a.ok, "json select fails: {a:?}");
        let a = a.select.expect("select payload");
        let b = b.select.expect("select payload");
        assert_eq!(a.workload, workload);
        assert_eq!(a, b, "protocols disagree for {workload}");
    }

    // An unknown workload is a typed error envelope on both protocols,
    // and the connection survives it.
    for client in [&mut json, &mut binary] {
        let response = client
            .roundtrip(&Request::Select {
                matrix: None,
                features: Some(feature_vec(3)),
                gpu: "pascal".into(),
                iterations: None,
                deadline_ms: None,
                learn: Some(false),
                workload: Some("gemm".to_string()),
            })
            .unwrap();
        assert!(!response.ok);
        let error = response.error.expect("error envelope");
        assert_eq!(error.code, "unknown_workload");
        assert!(error.message.contains("gemm"));
        let ok = client
            .roundtrip(&Request::Select {
                matrix: None,
                features: Some(feature_vec(3)),
                gpu: "pascal".into(),
                iterations: None,
                deadline_ms: None,
                learn: Some(false),
                workload: None,
            })
            .unwrap();
        assert!(ok.ok, "connection must survive a workload error");
        assert_eq!(ok.select.expect("select payload").workload, "spmv");
    }

    let _ = json.roundtrip(&Request::Shutdown);
    handle.join().expect("server thread joins");
}

/// Pre-registry artifacts — no `registry_digest`, no `workload_labels` —
/// still load, decide as CUSP-default models, and answer SpMV exactly
/// like a freshly trained default artifact.
#[test]
fn pre_registry_artifacts_still_load_and_match_default_decisions() {
    let ctx = context(40, 21);
    let model = artifact::train(&ctx, &TrainConfig::default()).expect("training succeeds");
    assert_eq!(
        model.registry_digest,
        FormatRegistry::cusp_default().digest()
    );

    // Strip the registry-era fields to fabricate a pre-registry payload
    // (empty the tables first so the arrays strip textually).
    let mut bare = model.clone();
    for g in &mut bare.gpus {
        g.workload_labels.clear();
    }
    let stripped = artifact::to_json(&bare)
        .replacen(
            &format!("\"registry_digest\":\"{}\",", model.registry_digest),
            "",
            1,
        )
        .replace("\"workload_labels\":[],", "");
    assert!(!stripped.contains("registry_digest"), "strip failed");
    assert!(!stripped.contains("workload_labels"), "strip failed");

    let legacy = artifact::from_json(&stripped).expect("pre-registry artifact loads");
    assert_eq!(
        legacy.registry_digest,
        FormatRegistry::cusp_default().digest()
    );

    let modern = Engine::from_artifact(&model, &EngineOptions::default()).unwrap();
    let old = Engine::from_artifact(&legacy, &EngineOptions::default()).unwrap();
    for seed in 0..10u64 {
        let b = body("turing", feature_vec(seed), None);
        let a = modern.select(&b).expect("modern decides");
        let r = old.select(&b).expect("legacy decides");
        assert_eq!(a, r, "pre-registry artifact must decide identically");
        assert_eq!(a.workload, "spmv");
    }

    // A model with no workload tables still answers SpMM: the SpMV
    // cluster label is the fallback.
    let spmv = old.select(&body("turing", feature_vec(2), None)).unwrap();
    let spmm = old
        .select(&body("turing", feature_vec(2), Some("spmm4")))
        .unwrap();
    assert_eq!(spmm.workload, "spmm4");
    assert_eq!(spmm.cluster, spmv.cluster);
    assert_eq!(
        spmm.format, spmv.format,
        "no table row: the SpMV label is the fallback"
    );
}

/// Registry mismatches are typed errors, never panics: an unknown digest
/// refuses to load, and `from_json_with` refuses a known-but-different
/// registry.
#[test]
fn registry_digest_mismatches_are_typed_errors() {
    let ctx = context(40, 33);
    let model =
        artifact::train(&ctx, &train_config(RegistryChoice::Extended)).expect("training succeeds");
    let json = artifact::to_json(&model);

    let tampered = json.replacen(&model.registry_digest, "deadbeefdeadbeef", 1);
    match artifact::from_json(&tampered) {
        Err(ServeError::RegistryDigestMismatch { found, .. }) => {
            assert_eq!(found, "deadbeefdeadbeef");
        }
        other => panic!("expected a registry-digest mismatch, got {other:?}"),
    }

    match artifact::from_json_with(&json, &FormatRegistry::cusp_default()) {
        Err(ServeError::RegistryDigestMismatch { found, expected }) => {
            assert_eq!(found, FormatRegistry::extended().digest());
            assert_eq!(expected, FormatRegistry::cusp_default().digest());
        }
        other => panic!("expected a registry-digest mismatch, got {other:?}"),
    }
    artifact::from_json_with(&json, &FormatRegistry::extended()).expect("matching registry loads");
}

/// A CUSP-default model answers SpMM requests with real per-workload
/// tables restricted to the four CUSP formats: the chosen format and the
/// prediction table never leave the registered set.
#[test]
fn default_registry_models_answer_spmm_within_the_cusp_formats() {
    let ctx = context(40, 5);
    let model = artifact::train(&ctx, &TrainConfig::default()).expect("training succeeds");
    for g in &model.gpus {
        for wl in &g.workload_labels {
            assert!(wl
                .labels
                .iter()
                .all(|f| FormatRegistry::cusp_default().contains(*f)));
        }
    }
    let engine = Engine::from_artifact(&model, &EngineOptions::default()).unwrap();
    for seed in 0..6u64 {
        let spmv = engine
            .select(&body("volta", feature_vec(seed), None))
            .expect("spmv select");
        let spmm = engine
            .select(&body("volta", feature_vec(seed), Some("spmm4")))
            .expect("spmm select");
        assert_eq!(spmm.workload, "spmm4");
        assert_eq!(spmm.cluster, spmv.cluster, "clustering is workload-blind");
        assert_eq!(spmm.predicted.len(), 4);
        let chosen = spsel_serve::protocol::parse_format(&spmm.format).unwrap();
        assert!(FormatRegistry::cusp_default().contains(chosen));
    }
}

/// A CUSP-default model prices SpMV through the registry × workload path;
/// every reply must carry exactly the bits of the four-format model —
/// `predict_times`, `amortized_best`, `break_even_iterations` — on the
/// features the engine resolved, on every GPU and across the iteration
/// range where the amortized choice flips.
#[test]
fn cusp_default_spmv_selects_match_the_four_format_model_bit_for_bit() {
    let ctx = context(40, 9);
    let model = artifact::train(&ctx, &TrainConfig::default()).expect("training succeeds");
    let engine = Engine::from_artifact(&model, &EngineOptions::default()).unwrap();

    let mut bodies: Vec<SelectBody> = Vec::new();
    for seed in 0..12u64 {
        let coo = match seed % 4 {
            0 => gen::power_law(150 + seed as usize * 10, 150, 2, 2.4, 60, seed),
            1 => gen::banded(300 + seed as usize * 7, 4, 0.8, seed),
            2 => gen::stencil2d(12 + seed as usize, seed),
            _ => gen::row_skewed(200, 400, 2, 90, 0.1, seed),
        };
        let fv = FeatureVector::from_csr(&CsrMatrix::from(&coo));
        bodies.push(body("pascal", fv.as_slice().to_vec(), None));
    }
    let mtx = std::env::temp_dir().join(format!("spsel-pin-{}.mtx", std::process::id()));
    let coo: CooMatrix = gen::power_law(400, 400, 2, 2.2, 120, 3);
    io::write_matrix_market_file(&coo, &mtx).expect("writes the probe matrix");
    bodies.push(SelectBody {
        matrix: Some(mtx.to_string_lossy().into_owned()),
        features: None,
        ..body("pascal", Vec::new(), None)
    });

    let mut checked = 0;
    for gpu in Gpu::ALL {
        for base in &bodies {
            for iterations in [1usize, 100, 10_000, 1_000_000] {
                let b = SelectBody {
                    gpu: gpu.name().to_string(),
                    iterations: Some(iterations),
                    ..base.clone()
                };
                let reply = engine.select(&b).expect("select succeeds");
                let (fv, stats) = engine.resolve_features(&b).expect("features resolve");
                let times = predict_times(&gpu.spec(), &stats, matrix_id(&fv));
                let amortized = amortized_best(&times, &model.conversion, iterations);
                let break_even = break_even_iterations(&times, &model.conversion, amortized.format);

                let names: Vec<&str> = reply.predicted.iter().map(|p| p.format.as_str()).collect();
                let want: Vec<&str> = Format::ALL.iter().map(|f| f.name()).collect();
                assert_eq!(names, want);
                for (p, f) in reply.predicted.iter().zip(Format::ALL) {
                    let t = times.get(f);
                    assert_eq!(
                        p.us.map(f64::to_bits),
                        t.is_finite().then_some(t.to_bits()),
                        "{f} on {}",
                        gpu.name()
                    );
                }
                assert_eq!(reply.amortized_format, amortized.format.name());
                assert_eq!(
                    reply.amortized_total_us.to_bits(),
                    amortized.total_us.to_bits()
                );
                assert_eq!(
                    reply.csr_total_us.to_bits(),
                    amortized.csr_total_us.to_bits()
                );
                assert_eq!(reply.break_even_iterations, break_even);
                checked += 1;
            }
        }
    }
    let _ = std::fs::remove_file(&mtx);
    assert_eq!(checked, 3 * 13 * 4);
}
