//! In-process replay: the same generated requests pushed through the
//! public functions a daemon worker calls — wire decode, `Engine::select`,
//! wire encode — with no socket. It serves three purposes: the reference
//! replies every socket reply is checked against, the in-process service
//! time that `transport_us` is measured against, and the traced run.

use crate::inputs::{digest, Pool};
use crate::serve::Replies;
use crate::trace::{maybe_span, Tracer};
use spsel_core::overhead::{
    amortized_best, amortized_best_workload, break_even_iterations, break_even_iterations_workload,
};
use spsel_features::{FeatureExtractor, FeatureVector};
use spsel_gpusim::{predict_times, predict_workload_times, ConversionCostModel, Gpu};
use spsel_matrix::{io, CsrMatrix, FormatRegistry, Workload};
use spsel_serve::engine::matrix_id;
use spsel_serve::protocol::{parse_gpu, parse_workload};
use spsel_serve::{
    framing, Engine, FeedbackJournal, FrameBuffer, Protocol, Request, Response, SelectBody,
    ServeError,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Decode, select and encode one request payload exactly as a daemon
/// worker does, returning the encoded reply (JSON without its newline,
/// or a whole frame) and the select body it carried.
pub fn answer(
    engine: &Engine,
    protocol: Protocol,
    payload: &[u8],
    frames: &mut FrameBuffer,
    mut tr: Option<&mut Tracer>,
    req: u64,
) -> (Vec<u8>, Option<SelectBody>) {
    let (decode, encode) = match protocol {
        Protocol::Json => ("protocol.decode", "protocol.encode"),
        Protocol::Binary => ("framing.decode", "framing.encode"),
    };
    let request = maybe_span(&mut tr, decode, req, || match protocol {
        Protocol::Json => {
            let line = std::str::from_utf8(payload).unwrap_or("").trim_end();
            serde_json::from_str::<Request>(line).map_err(|e| ServeError::BadRequest {
                message: format!("unparsable request: {e}"),
            })
        }
        Protocol::Binary => {
            frames.push(payload);
            match frames.next_frame() {
                Ok(Some((kind, body))) => framing::decode_request(kind, &body),
                Ok(None) => Err(ServeError::BadRequest {
                    message: "torn frame".into(),
                }),
                Err(e) => Err(e),
            }
        }
    });
    let body = match &request {
        Ok(Request::Select {
            matrix,
            features,
            gpu,
            iterations,
            learn,
            workload,
            ..
        }) => Some(Request::select_body(
            matrix,
            features,
            gpu,
            *iterations,
            *learn,
            workload,
        )),
        _ => None,
    };
    let response = maybe_span(&mut tr, "engine.select", req, || match (&request, &body) {
        (Err(e), _) => Response::from_error(e),
        (Ok(_), None) => Response::from_error(&ServeError::BadRequest {
            message: "only selects are replayed".into(),
        }),
        (Ok(_), Some(b)) => match engine.select(b) {
            Ok(reply) => Response::of_select(reply),
            Err(e) => Response::from_error(&e),
        },
    });
    let bytes = maybe_span(&mut tr, encode, req, || match protocol {
        Protocol::Json => serde_json::to_string(&response)
            .expect("response serializes")
            .into_bytes(),
        Protocol::Binary => framing::encode_response(&response),
    });
    (bytes, body)
}

/// Expected reply digests, from an engine that never serves a socket.
pub enum Reference {
    /// `learn: false`: a reply depends only on its request, so one
    /// digest per pool entry covers every position.
    PerRequest(Vec<u64>),
    /// `learn: true`: a reply depends on every observe before it, so the
    /// reference engine replays positions in send order.
    Sequential {
        engine: Box<Engine>,
        digests: Vec<u64>,
    },
}

impl Reference {
    /// Build the reference for `pool` from a fresh engine.
    pub fn new(engine: Engine, pool: &Pool, learn: bool) -> Reference {
        if learn {
            return Reference::Sequential {
                engine: Box::new(engine),
                digests: Vec::new(),
            };
        }
        let mut frames = FrameBuffer::new();
        let digests = pool
            .payloads
            .iter()
            .enumerate()
            .map(|(i, p)| digest(&answer(&engine, pool.protocol, p, &mut frames, None, i as u64).0))
            .collect();
        Reference::PerRequest(digests)
    }

    /// Expected digest of the reply at sequence position `pos`.
    pub fn expected(&mut self, pool: &Pool, pos: usize) -> u64 {
        match self {
            Reference::PerRequest(d) => d[pool.at(pos)],
            Reference::Sequential { engine, digests } => {
                let mut frames = FrameBuffer::new();
                while digests.len() <= pos {
                    let p = digests.len();
                    let (bytes, _) = answer(
                        engine,
                        pool.protocol,
                        &pool.payloads[pool.at(p)],
                        &mut frames,
                        None,
                        p as u64,
                    );
                    digests.push(digest(&bytes));
                }
                digests[pos]
            }
        }
    }

    /// Replies whose digest differs from the reference.
    pub fn mismatches(&mut self, pool: &Pool, replies: &Replies) -> usize {
        replies
            .iter()
            .filter(|&&(pos, d)| self.expected(pool, pos) != d)
            .count()
    }
}

/// Everything a replay pass needs beyond the engine it drives.
pub struct PassSetup<'a> {
    /// The generated inputs.
    pub pool: &'a Pool,
    /// Registry the model's labels come from (prices the breakdown).
    pub registry: FormatRegistry,
    /// Conversion-cost model of the artifact.
    pub conversion: ConversionCostModel,
    /// Shadow journal the breakdown appends to, when the workload
    /// journals; `(journal, compaction threshold)`.
    pub journal: Option<(FeedbackJournal, u64)>,
}

/// Result of one replay pass.
pub struct Pass {
    /// Per-request decode + select + encode wall time, nanoseconds.
    pub request_ns: Vec<u64>,
    /// Reply digests by position.
    pub replies: Replies,
}

/// Replay positions `0..` for up to `window` through `engine`. With a
/// tracer, each request gets a `request` span (decode, select, encode),
/// then a `breakdown` span that replays
/// `Engine::select`'s own steps through the public functions of the
/// layers beneath it, so their cost can be named from outside.
pub fn pass(
    engine: &Engine,
    setup: &PassSetup,
    window: Duration,
    mut tracer: Option<&mut Tracer>,
) -> Pass {
    let pool = setup.pool;
    let mut frames = FrameBuffer::new();
    let mut extractor = FeatureExtractor::new();
    let mut request_ns = Vec::with_capacity(1 << 16);
    let mut replies = Vec::with_capacity(1 << 16);
    let mut since_checkpoint = 0u64;
    let start = Instant::now();
    let mut pos = 0usize;
    while start.elapsed() < window {
        let req = pos as u64;
        let payload = &pool.payloads[pool.at(pos)];
        let (bytes, body) = match tracer.as_deref_mut() {
            Some(t) => {
                // Compact one record before the engine's own threshold
                // would, so compaction gets a span of its own instead of
                // hiding inside one select (the state is the same).
                if let Some((_, every)) = &setup.journal {
                    if since_checkpoint + 1 == *every {
                        t.span("engine.compact", req, || engine.compact())
                            .expect("journal compacts");
                        since_checkpoint = 0;
                    }
                }
                let t0 = Instant::now();
                t.open("request", req);
                let out = answer(engine, pool.protocol, payload, &mut frames, Some(t), req);
                t.close();
                request_ns.push(t0.elapsed().as_nanos() as u64);
                if let Some(body) = &out.1 {
                    breakdown(t, req, engine, setup, body, &mut extractor);
                }
                out
            }
            None => {
                let t0 = Instant::now();
                let out = answer(engine, pool.protocol, payload, &mut frames, None, req);
                request_ns.push(t0.elapsed().as_nanos() as u64);
                out
            }
        };
        if body.as_ref().and_then(|b| b.learn) == Some(true) {
            since_checkpoint += 1;
        }
        replies.push((pos, digest(&bytes)));
        pos += 1;
    }
    Pass {
        request_ns,
        replies,
    }
}

/// The layers beneath `Engine::select`, each called through its public
/// function on the request's own inputs.
fn breakdown(
    t: &mut Tracer,
    req: u64,
    engine: &Engine,
    setup: &PassSetup,
    body: &SelectBody,
    extractor: &mut FeatureExtractor,
) {
    t.open("breakdown", req);
    let resolved = t.span("engine.resolve", req, || engine.resolve_features(body));
    let (fv, stats) = resolved.expect("replayed inputs resolve");
    if let Some(path) = &body.matrix {
        let coo = t.span("matrix.parse", req, || io::read_matrix_market_file(path));
        let coo = coo.expect("generated .mtx parses");
        let csr = t.span("matrix.to_csr", req, || CsrMatrix::from(&coo));
        t.span("features.extract", req, || {
            black_box(FeatureVector::from_stats(&extractor.stats(&csr)))
        });
    }
    let gpu: Gpu = parse_gpu(&body.gpu).expect("generated gpu parses");
    let workload = parse_workload(&body.workload).expect("generated workload parses");
    let iterations = body.iterations.unwrap_or(1000);
    let id = matrix_id(&fv);
    let registry = &setup.registry;
    if workload == Workload::SpMv && registry.digest() == FormatRegistry::cusp_default().digest() {
        let times = t.span("gpusim.price", req, || {
            predict_times(&gpu.spec(), &stats, id)
        });
        t.span("overhead.amortize", req, || {
            let a = amortized_best(&times, &setup.conversion, iterations);
            black_box(break_even_iterations(&times, &setup.conversion, a.format))
        });
    } else {
        let times = t.span("gpusim.price", req, || {
            predict_workload_times(&gpu.spec(), &stats, id, registry, workload)
        });
        t.span("overhead.amortize", req, || {
            let formats = registry.formats();
            let a = amortized_best_workload(&times, &formats, &setup.conversion, iterations);
            black_box(break_even_iterations_workload(
                &times,
                &setup.conversion,
                a.format,
            ))
        });
    }
    if let (Some((journal, _)), Some(true)) = (&setup.journal, body.learn) {
        t.span("journal.append", req, || {
            journal.append_observe(gpu.name(), fv.as_slice())
        })
        .expect("shadow journal appends");
    }
    t.close();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::inline_pool;
    use crate::pipeline::PipelineConfig;
    use spsel_core::cache::Cache;
    use spsel_core::experiments::formatzoo::RegistryChoice;
    use spsel_core::experiments::ExperimentContext;
    use spsel_core::telemetry::RunReport;
    use spsel_serve::artifact::{self, ModelArtifact};
    use spsel_serve::EngineOptions;

    fn model() -> ModelArtifact {
        let pc = PipelineConfig::new(RegistryChoice::CuspDefault);
        let ctx = ExperimentContext::build(
            pc.train_corpus.clone(),
            &Cache::disabled(),
            &mut RunReport::new("test"),
        );
        artifact::train(&ctx, &pc.train_config()).unwrap()
    }

    fn engine(a: &ModelArtifact) -> Engine {
        Engine::from_artifact(a, &EngineOptions::default()).unwrap()
    }

    /// Replies of a second engine for positions `0..n`, as raw bytes.
    fn replies(e: &Engine, pool: &Pool, n: usize) -> Vec<Vec<u8>> {
        let mut frames = FrameBuffer::new();
        (0..n)
            .map(|p| {
                answer(
                    e,
                    pool.protocol,
                    &pool.payloads[pool.at(p)],
                    &mut frames,
                    None,
                    0,
                )
                .0
            })
            .collect()
    }

    fn digests(bytes: &[Vec<u8>]) -> Replies {
        bytes
            .iter()
            .enumerate()
            .map(|(p, b)| (p, digest(b)))
            .collect()
    }

    #[test]
    fn corrupted_reply_is_a_mismatch() {
        let a = model();
        for (protocol, learn) in [(Protocol::Json, false), (Protocol::Binary, true)] {
            let pool = inline_pool(3, protocol, learn, 12);
            let mut reference = Reference::new(engine(&a), &pool, learn);
            let mut got = replies(&engine(&a), &pool, 64);
            assert_eq!(reference.mismatches(&pool, &digests(&got)), 0);
            // One flipped byte in one reply (a different format name or
            // cluster index would do the same).
            let last = got[17].len() - 2;
            got[17][last] ^= 0x01;
            assert_eq!(reference.mismatches(&pool, &digests(&got)), 1);
        }
    }

    #[test]
    fn learned_replies_depend_on_order() {
        let a = model();
        let pool = inline_pool(4, Protocol::Json, true, 12);
        let mut reference = Reference::new(engine(&a), &pool, true);
        let got = replies(&engine(&a), &pool, 200);
        // Claiming the replies came back in a different order must fail
        // somewhere: online state grows with every observe.
        let mut swapped = digests(&got);
        for (p, _) in swapped.iter_mut() {
            *p = 199 - *p;
        }
        assert!(reference.mismatches(&pool, &swapped) > 0);
        assert_eq!(reference.mismatches(&pool, &digests(&got)), 0);
    }
}
