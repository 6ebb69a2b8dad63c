//! `spbench`: end-to-end and per-layer benchmark of the spselect
//! daemon and the train/table4 pipeline.
//!
//! ```sh
//! cargo run --release --manifest-path spbench/Cargo.toml -- \
//!     --workload select-inline --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Every workload builds its inputs from `--seed` before any timed
//! window opens, runs against the shipped crates through their public
//! functions, checks every reply and table it gets back, and prints one
//! JSON result as the last line of stdout: end-to-end metrics with
//! `--trace 0`, per-layer metrics from a traced replay with `--trace 1`.
//! See `spbench/README.md` for the workloads, the metrics and the layer
//! each one belongs to.

mod inputs;
mod pipeline;
mod replay;
mod serve;
mod stats;
mod trace;

use inputs::Pool;
use pipeline::{PipelineConfig, Rep};
use replay::{PassSetup, Reference};
use serve::{Conn, Daemon};
use spsel_core::cache::Cache;
use spsel_core::experiments::formatzoo::RegistryChoice;
use spsel_core::experiments::ExperimentContext;
use spsel_core::telemetry::RunReport;
use spsel_serve::artifact::{self, ModelArtifact};
use spsel_serve::{
    registry_for_digest, Engine, EngineOptions, FeedbackJournal, JournalConfig, Protocol,
    ServeOptions, Server,
};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Tracer;

/// What a workload sends and how a run's window is divided.
#[derive(Debug)]
struct Workload {
    name: &'static str,
    protocol: Protocol,
    inputs: Inputs,
    learn: bool,
    journal: bool,
    registry: RegistryChoice,
    /// Saturation-phase connections, each kept `DEPTH` requests deep.
    connections: usize,
    /// Shares of each round for lockstep, saturation and pipeline
    /// repetitions (untraced run).
    plan: [f64; 3],
    /// Shares for socket lockstep, untraced replay, traced replay and
    /// pipeline repetitions (traced run).
    trace_plan: [f64; 4],
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Inputs {
    /// Inline vectors of generated matrices.
    Generated,
    /// `.mtx` files of generated matrices.
    MtxFiles,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "select-inline",
        protocol: Protocol::Json,
        inputs: Inputs::Generated,
        learn: false,
        journal: false,
        registry: RegistryChoice::CuspDefault,
        connections: 2,
        plan: [0.45, 0.25, 0.3],
        trace_plan: [0.25, 0.15, 0.2, 0.4],
    },
    Workload {
        name: "select-mtx",
        protocol: Protocol::Binary,
        inputs: Inputs::MtxFiles,
        learn: false,
        journal: false,
        registry: RegistryChoice::Extended,
        connections: 2,
        plan: [0.45, 0.25, 0.3],
        trace_plan: [0.25, 0.15, 0.2, 0.4],
    },
    Workload {
        name: "learn-journal",
        protocol: Protocol::Json,
        inputs: Inputs::Generated,
        learn: true,
        journal: true,
        registry: RegistryChoice::CuspDefault,
        // One connection keeps the reply order, and so every learned
        // decision, exactly checkable; writers serialize on the engine's
        // lifecycle lock anyway.
        connections: 1,
        plan: [0.45, 0.25, 0.3],
        trace_plan: [0.25, 0.15, 0.2, 0.4],
    },
];

/// Requests in flight per saturation connection.
const DEPTH: usize = 8;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Rounds per untraced run; each round runs every phase once, and holds
/// at least one pipeline repetition.
const ROUNDS: usize = 30;
/// Length of the slices lockstep phases are cut into. The request
/// percentiles are read from all of them but the slowest tenth.
const SLICE: Duration = Duration::from_millis(100);
/// Fewest lockstep requests in a slice, so its slowness is a median of
/// many.
const SLICE_MIN_SAMPLES: usize = 2 * stats::MIN_BEYOND;
/// Share of a round spent on the untimed lockstep warm-up before round 1.
const WARMUP: f64 = 0.5;
/// Matrices behind the inline-vector pools.
const INLINE_MATRICES: usize = 256;
/// Requests whose spans are written to the Chrome trace file (all are
/// aggregated).
const TRACE_FILE_REQUESTS: u64 = 2048;
/// Request ids of pipeline repetitions start here.
const PIPELINE_REQ: u64 = 1 << 40;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("--seconds takes a positive number")?,
                )
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A scratch directory inside the checkout, removed when dropped.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Everything one set-up produces.
struct Prepared {
    artifact: ModelArtifact,
    pool: Pool,
    daemon: Daemon,
    reference: Reference,
}

fn engine(artifact: &ModelArtifact, journal: Option<&Path>) -> Result<Engine, String> {
    let mut e = Engine::from_artifact(artifact, &EngineOptions::default())
        .map_err(|e| format!("engine: {e}"))?;
    if let Some(path) = journal {
        e.attach_journal_with(path, JournalConfig::default())
            .map_err(|e| format!("journal: {e}"))?;
    }
    Ok(e)
}

/// Train the workload's model and save it, generate its inputs, start
/// the daemon on the saved artifact, and build the reference every reply
/// is checked against.
fn prepare(wl: &Workload, seed: u64, dir: &Path) -> Result<Prepared, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let pc = PipelineConfig::new(wl.registry);
    let ctx = ExperimentContext::build(
        pc.train_corpus.clone(),
        &Cache::disabled(),
        &mut RunReport::new("spbench-setup"),
    );
    let artifact = artifact::train(&ctx, &pc.train_config()).map_err(|e| format!("train: {e}"))?;
    let model = dir.join("model.spsel");
    artifact::save(&artifact, &model).map_err(|e| format!("save: {e}"))?;
    let pool = match wl.inputs {
        Inputs::Generated => inputs::inline_pool(seed, wl.protocol, wl.learn, INLINE_MATRICES),
        Inputs::MtxFiles => {
            inputs::mtx_pool(seed, &dir.join("mtx")).map_err(|e| format!("mtx inputs: {e}"))?
        }
    };
    let reference = Reference::new(engine(&artifact, None)?, &pool, wl.learn);
    let journal = wl.journal.then(|| dir.join("served.journal"));
    let daemon = Daemon::spawn(&model, journal.as_deref()).map_err(|e| format!("daemon: {e}"))?;
    Ok(Prepared {
        artifact,
        pool,
        daemon,
        reference,
    })
}

fn io_err(e: std::io::Error) -> String {
    format!("socket: {e}")
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn git_rev(dir: &Path) -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(dir)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into())
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Outcome of a run, before it is printed.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Extra record fields (already JSON), by key.
    details: Vec<(&'static str, String)>,
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn json_f64s(v: &[f64]) -> String {
    let items: Vec<String> = v.iter().map(|x| x.to_string()).collect();
    format!("[{}]", items.join(","))
}

fn percentile_json(p: &stats::Percentile) -> String {
    format!(
        "{{\"value\":{},\"samples\":{},\"beyond\":{}}}",
        p.value, p.samples, p.beyond
    )
}

fn secs(seconds: f64) -> Duration {
    Duration::from_secs_f64(seconds)
}

/// Pipeline repetitions until `budget` is spent (at least `min` of each
/// kind). With a tracer they alternate untraced and traced; `next`
/// numbers them across calls.
fn pipeline_reps(
    cfg: &PipelineConfig,
    work: &Path,
    budget: Duration,
    min: usize,
    next: &mut u64,
    mut tracer: Option<&mut Tracer>,
) -> (Vec<Rep>, Vec<Rep>) {
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while start.elapsed() < budget || plain.len() < min || (tracer.is_some() && traced.len() < min)
    {
        let req = PIPELINE_REQ + *next;
        match tracer.as_deref_mut() {
            Some(t) if *next % 2 == 1 => traced.push(pipeline::rep(cfg, work, req, Some(t))),
            _ => plain.push(pipeline::rep(cfg, work, req, None)),
        }
        *next += 1;
    }
    (plain, traced)
}

fn pipeline_failures(reps: &[Rep]) -> u64 {
    reps.iter()
        .map(|r| u64::from(!r.artifacts_match) + u64::from(!r.table_matches))
        .sum()
}

/// One lockstep slice: `(pool index, latency in ns)` of each request, in
/// send order.
type Slice = Vec<(usize, u64)>;

/// A lockstep phase's `(pool index, latency)` samples, in send order,
/// cut into consecutive slices of about [`SLICE`] (requests run back to
/// back, so latencies add up to time). A short tail joins the last slice.
fn lockstep_slices(samples: impl IntoIterator<Item = (usize, u64)>) -> Vec<Slice> {
    let mut slices: Vec<Slice> = Vec::new();
    let (mut current, mut spent) = (Vec::new(), 0u64);
    for (req, ns) in samples {
        current.push((req, ns));
        spent += ns;
        if spent >= SLICE.as_nanos() as u64 && current.len() >= SLICE_MIN_SAMPLES {
            slices.push(std::mem::take(&mut current));
            spent = 0;
        }
    }
    match slices.last_mut() {
        Some(last) => last.extend(current),
        None if !current.is_empty() => slices.push(current),
        None => {}
    }
    slices
}

/// How slow the host ran during each slice, whatever requests it held:
/// the median, over its requests, of each latency over that request's
/// own median latency across all slices.
fn slowness(slices: &[Slice], distinct: usize) -> Vec<f64> {
    let mut by_req: Vec<Vec<f64>> = vec![Vec::new(); distinct];
    for &(req, ns) in slices.iter().flatten() {
        by_req[req].push(ns as f64);
    }
    let typical: Vec<f64> = by_req
        .iter()
        .map(|v| if v.is_empty() { 1.0 } else { stats::median(v) })
        .collect();
    slices
        .iter()
        .map(|s| {
            let ratios: Vec<f64> = s
                .iter()
                .map(|&(req, ns)| ns as f64 / typical[req])
                .collect();
            stats::median(&ratios)
        })
        .collect()
}

fn sorted_us(ns: &[u64]) -> Vec<f64> {
    let mut v: Vec<f64> = ns.iter().map(|&n| n as f64 / 1e3).collect();
    v.sort_by(f64::total_cmp);
    v
}

fn run(args: &Args) -> Result<Outcome, String> {
    let wl = args.workload;
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let work = WorkDir(
        root.join(".work")
            .join(format!("{}-{}", wl.name, std::process::id())),
    );

    let mut setup_s = Vec::new();
    let mut prepared: Option<Prepared> = None;
    for k in 0..SETUP_REPS {
        if let Some(p) = prepared.take() {
            p.daemon.stop().map_err(io_err)?;
        }
        let start = Instant::now();
        prepared = Some(prepare(wl, args.seed, &work.0.join(format!("setup-{k}")))?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let Prepared {
        artifact,
        pool,
        daemon,
        mut reference,
    } = prepared.expect("at least one set-up");
    let pc = PipelineConfig::new(wl.registry);
    let mut details = vec![
        ("setup_s_samples", json_f64s(&setup_s)),
        ("pool_requests", pool.requests.len().to_string()),
        ("mtx_bytes", pool.mtx_bytes.to_string()),
    ];
    if args.trace {
        return traced(
            args, &pc, &artifact, &pool, reference, daemon, &work.0, details,
        );
    }

    // Rounds interleave the phases, so a slow stretch of the host lands
    // on every metric alike instead of on whichever phase it overlapped.
    let round = args.seconds / ROUNDS as f64;
    let mut lock = Conn::connect(daemon.addr, wl.protocol).map_err(io_err)?;
    let mut sat = (0..wl.connections)
        .map(|_| Conn::connect(daemon.addr, wl.protocol))
        .collect::<Result<Vec<_>, _>>()
        .map_err(io_err)?;
    let (mut slices, mut replies, mut rps, mut reps) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    // Warm-up: replies are checked, latencies are not kept.
    let (_, warm_replies) =
        serve::lockstep(&mut lock, &pool, 0, secs(round * WARMUP)).map_err(io_err)?;
    let mut pos = warm_replies.len();
    replies.extend(warm_replies);
    let mut next_rep = 0u64;
    for _ in 0..ROUNDS {
        let (s, r) =
            serve::lockstep(&mut lock, &pool, pos, secs(round * wl.plan[0])).map_err(io_err)?;
        pos += r.len();
        slices.extend(lockstep_slices(
            r.iter().zip(&s).map(|(&(p, _), &ns)| (pool.at(p), ns)),
        ));
        replies.extend(r);
        let (x, r) = serve::saturate(&mut sat, DEPTH, &pool, pos, secs(round * wl.plan[1]))
            .map_err(io_err)?;
        pos += r.len();
        rps.push(x);
        replies.extend(r);
        let (r, _) = pipeline_reps(
            &pc,
            &work.0,
            secs(round * wl.plan[2]),
            1,
            &mut next_rep,
            None,
        );
        reps.extend(r);
    }
    drop((lock, sat));
    let rss = daemon.stop().map_err(io_err)?;

    // The host's speed drifts by up to 1.8x for fractions of a second to
    // minutes at a time, and stalls come in bursts. The request
    // percentiles leave out the slowest tenth of the lockstep slices,
    // judged against each request's own typical latency so that a slice
    // holding dear requests does not pass for slow. Keeping only the
    // calmest slices would weigh the host's fast spells double and make
    // the figures follow how long those lasted.
    let slow = slowness(&slices, pool.requests.len());
    let kept = stats::lowest(&slow, slices.len() - slices.len() / 10);
    let kept_ns: Vec<u64> = kept
        .iter()
        .flat_map(|&i| slices[i].iter().map(|&(_, ns)| ns))
        .collect();
    let lat = sorted_us(&kept_ns);
    let p50 = stats::percentile(&lat, 500)?;
    let p99 = stats::percentile(&lat, 990)?;
    let checks = 2 * reps.len() as u64;
    let bad_replies = reference.mismatches(&pool, &replies) as u64;
    let bad_checks = pipeline_failures(&reps);
    let attempted = replies.len() as u64 + checks;
    let failed = bad_replies + bad_checks;
    // A product, so a failing table or artifact check cannot hide among
    // a hundred thousand good replies.
    let ok_frac = (1.0 - bad_replies as f64 / replies.len() as f64)
        * (1.0 - bad_checks as f64 / checks as f64);
    let cold: Vec<f64> = reps.iter().map(|r| r.train_cold_s).collect();
    let warm: Vec<f64> = reps.iter().map(|r| r.train_warm_s).collect();
    let t4: Vec<f64> = reps.iter().map(|r| r.table4_cold_s).collect();
    details.extend([
        ("request_p50_us", percentile_json(&p50)),
        ("request_p99_us", percentile_json(&p99)),
        ("requests", replies.len().to_string()),
        ("lockstep_slice_slowness", json_f64s(&slow)),
        (
            "lockstep_slice_samples",
            json_f64s(&slices.iter().map(|s| s.len() as f64).collect::<Vec<_>>()),
        ),
        (
            "kept_lockstep_slices",
            json_f64s(&kept.iter().map(|&i| i as f64).collect::<Vec<_>>()),
        ),
        ("saturated_rps_samples", json_f64s(&rps)),
        ("train_cold_s_samples", json_f64s(&cold)),
        ("train_warm_s_samples", json_f64s(&warm)),
        ("table4_cold_s_samples", json_f64s(&t4)),
    ]);
    let metrics = vec![
        metric("setup_s", stats::median(&setup_s), "s"),
        metric("request_p50_us", p50.value, "us"),
        metric("request_p99_us", p99.value, "us"),
        metric("saturated_rps", stats::median(&rps), "1/s"),
        metric("ok_frac", ok_frac, "ratio"),
        metric("peak_rss_mb", rss, "MB"),
        metric("train_cold_s", stats::median(&cold), "s"),
        metric("train_warm_s", stats::median(&warm), "s"),
        metric("table4_cold_s", stats::median(&t4), "s"),
    ];
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        details,
    })
}

/// The traced run: a socket lockstep phase (for `transport_us`),
/// untraced and traced in-process replays of the same inputs, then
/// untraced and traced pipeline repetitions. Phases run one after the
/// other; per-layer figures are not bounded, so they need no rounds.
#[allow(clippy::too_many_arguments)]
fn traced(
    args: &Args,
    pc: &PipelineConfig,
    artifact: &ModelArtifact,
    pool: &Pool,
    mut reference: Reference,
    daemon: Daemon,
    work: &Path,
    mut details: Vec<(&'static str, String)>,
) -> Result<Outcome, String> {
    let wl = args.workload;
    let share = |i: usize| secs(args.seconds * wl.trace_plan[i]);
    let registry = registry_for_digest(&artifact.registry_digest)
        .ok_or("artifact names an unknown format registry")?;
    let journal_path = |name: &str| wl.journal.then(|| work.join(name));

    let mut conn = Conn::connect(daemon.addr, wl.protocol).map_err(io_err)?;
    let (samples, socket_replies) =
        serve::lockstep(&mut conn, pool, 0, share(0)).map_err(io_err)?;
    drop(conn);
    let lock_wait_us = daemon.stats().map_err(io_err)?.serving.write_lock_wait_us;
    daemon.stop().map_err(io_err)?;
    let socket_p50 = stats::percentile(&sorted_us(&samples), 500)?;

    // Untraced replay: the in-process service time transport_us is
    // measured against, and the baseline of the tracing overhead.
    let plain_engine = engine(artifact, journal_path("plain.journal").as_deref())?;
    let setup = PassSetup {
        pool,
        registry,
        conversion: artifact.conversion,
        journal: None,
    };
    let plain = replay::pass(&plain_engine, &setup, share(1), None);
    let report = plain_engine.serving_report();

    // Traced replay, from the same initial state.
    let traced_engine = engine(artifact, journal_path("traced.journal").as_deref())?;
    let shadow = match journal_path("shadow.journal") {
        Some(p) => Some((
            FeedbackJournal::open_with(&p, false).map_err(|e| format!("journal: {e}"))?,
            JournalConfig::default().checkpoint_every,
        )),
        None => None,
    };
    let setup = PassSetup {
        journal: shadow,
        ..setup
    };
    let mut tracer = Tracer::new();
    let traced_pass = replay::pass(&traced_engine, &setup, share(2), Some(&mut tracer));
    let mut attempted =
        (socket_replies.len() + plain.replies.len() + traced_pass.replies.len()) as u64;
    let mut failed = (reference.mismatches(pool, &socket_replies)
        + reference.mismatches(pool, &plain.replies)
        + reference.mismatches(pool, &traced_pass.replies)) as u64;

    let (plain_reps, traced_reps) = pipeline_reps(pc, work, share(3), 2, &mut 0, Some(&mut tracer));
    attempted += 2 * (plain_reps.len() + traced_reps.len()) as u64;
    failed += pipeline_failures(&plain_reps) + pipeline_failures(&traced_reps);

    let layers = tracer.layers();
    let mean_us = |name: &str| layers.get(name).map_or(0.0, |l| l.mean_self_us());
    let median_s = |name: &str| {
        layers.get(name).map_or(0.0, |l| {
            let v: Vec<f64> = l.self_samples.iter().map(|&n| n as f64 / 1e9).collect();
            stats::median(&v)
        })
    };
    let per_decision = |ns: u64| {
        if report.timed_decisions == 0 {
            0.0
        } else {
            ns as f64 / report.timed_decisions as f64 / 1e3
        }
    };
    let in_process_p50 = stats::percentile(&sorted_us(&plain.request_ns), 500)?;
    let traced_p50 = stats::percentile(&sorted_us(&traced_pass.request_ns), 500)?;
    let rep_total = |r: &Rep| r.train_cold_s + r.train_warm_s + r.table4_cold_s;
    let plain_rep = stats::median(&plain_reps.iter().map(rep_total).collect::<Vec<_>>());
    let traced_rep = stats::median(&traced_reps.iter().map(rep_total).collect::<Vec<_>>());
    let last = traced_reps.last().expect("at least one traced repetition");
    let select_us = mean_us("engine.select");
    let decide_us = select_us
        - mean_us("engine.resolve")
        - mean_us("gpusim.price")
        - mean_us("overhead.amortize")
        - mean_us("journal.append");
    let traced_stats = traced_engine.stats();

    details.push(("lockstep_p50_us", percentile_json(&socket_p50)));
    details.push(("in_process_p50_us", percentile_json(&in_process_p50)));
    details.push(("traced_p50_us", percentile_json(&traced_p50)));
    details.push(("replayed_untraced", plain.replies.len().to_string()));
    details.push(("replayed_traced", traced_pass.replies.len().to_string()));
    details.push((
        "pipeline_reps",
        format!("[{},{}]", plain_reps.len(), traced_reps.len()),
    ));
    details.push(("layers", layer_table_json(&layers)));
    write_trace_files(args, &tracer, &layers)?;

    let metrics = vec![
        metric("protocol.decode_us", mean_us("protocol.decode"), "us"),
        metric("protocol.encode_us", mean_us("protocol.encode"), "us"),
        metric("framing.decode_us", mean_us("framing.decode"), "us"),
        metric("framing.encode_us", mean_us("framing.encode"), "us"),
        metric("matrix.parse_us", mean_us("matrix.parse"), "us"),
        metric("matrix.to_csr_us", mean_us("matrix.to_csr"), "us"),
        metric("features.extract_us", mean_us("features.extract"), "us"),
        metric("engine.select_us", select_us, "us"),
        metric("engine.resolve_us", mean_us("engine.resolve"), "us"),
        metric("gpusim.price_us", mean_us("gpusim.price"), "us"),
        metric("overhead.amortize_us", mean_us("overhead.amortize"), "us"),
        metric("online.decide_us", decide_us, "us"),
        metric(
            "online.embed_us",
            per_decision(report.decision_embed_ns),
            "us",
        ),
        metric(
            "online.assign_us",
            per_decision(report.decision_assign_ns),
            "us",
        ),
        metric(
            "online.label_us",
            per_decision(report.decision_label_ns),
            "us",
        ),
        metric(
            "transport_us",
            socket_p50.value - in_process_p50.value,
            "us",
        ),
        metric("journal.append_us", mean_us("journal.append"), "us"),
        metric("engine.compact_us", mean_us("engine.compact"), "us"),
        metric(
            "journal.compactions",
            traced_stats.lifecycle.compactions as f64,
            "count",
        ),
        metric(
            "online.new_clusters",
            traced_engine.serving_report().new_clusters as f64,
            "count",
        ),
        metric("online.write_lock_wait_us", lock_wait_us as f64, "us"),
        metric("corpus.generate_s", median_s("corpus.generate"), "s"),
        metric("gpusim.benchmark_s", median_s("gpusim.benchmark"), "s"),
        metric("cache.store_s", median_s("cache.store"), "s"),
        metric("cache.load_s", median_s("cache.load"), "s"),
        metric("cache.record_hits", last.record_hits as f64, "count"),
        metric("cache.record_misses", last.record_misses as f64, "count"),
        metric("experiments.table4_s", median_s("experiments.table4"), "s"),
        metric("artifact.train_s", median_s("artifact.train"), "s"),
        metric(
            "trace.request_overhead_frac",
            traced_p50.value / in_process_p50.value - 1.0,
            "ratio",
        ),
        metric(
            "trace.pipeline_overhead_frac",
            traced_rep / plain_rep - 1.0,
            "ratio",
        ),
        metric("trace.spans", tracer.spans().len() as f64, "count"),
    ];
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        details,
    })
}

fn layer_table_json(
    layers: &std::collections::BTreeMap<&'static str, trace::LayerStats>,
) -> String {
    let rows: Vec<String> = layers
        .iter()
        .map(|(name, l)| {
            format!(
                "{}:{{\"count\":{},\"mean_us\":{},\"mean_self_us\":{}}}",
                json_str(name),
                l.count,
                l.mean_us(),
                l.mean_self_us()
            )
        })
        .collect();
    format!("{{{}}}", rows.join(","))
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The Chrome trace (spans of the first requests and of every pipeline
/// repetition) and the per-layer self-time summary.
fn write_trace_files(
    args: &Args,
    tracer: &Tracer,
    layers: &std::collections::BTreeMap<&'static str, trace::LayerStats>,
) -> Result<(), String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let stem = format!("{}-seed{}", args.workload.name, args.seed);
    let chrome = tracer.chrome_json(|req| !(TRACE_FILE_REQUESTS..PIPELINE_REQ).contains(&req));
    let path = dir.join(format!("{stem}.trace.json"));
    std::fs::write(&path, chrome).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut summary = format!(
        "{:<26} {:>9} {:>14} {:>14}\n",
        "layer", "spans", "mean wall us", "mean self us"
    );
    for (name, l) in layers {
        let _ = writeln!(
            summary,
            "{:<26} {:>9} {:>14.3} {:>14.3}",
            name,
            l.count,
            l.mean_us(),
            l.mean_self_us()
        );
    }
    let path = dir.join(format!("{stem}.layers.txt"));
    std::fs::write(&path, &summary).map_err(|e| format!("{}: {e}", path.display()))?;
    print!("{summary}");
    Ok(())
}

fn workload_json(wl: &Workload) -> String {
    format!(
        "{{\"name\":{},\"protocol\":{},\"inputs\":{},\"learn\":{},\"journal\":{},\
         \"registry\":{},\"connections\":{},\"depth\":{},\"plan\":{},\"trace_plan\":{},\
         \"setup_reps\":{},\"rounds\":{},\"slice_s\":{},\"slice_min_samples\":{},\
         \"warmup\":{},\"inline_matrices\":{},\"mtx_files\":{}}}",
        json_str(wl.name),
        json_str(wl.protocol.name()),
        json_str(&format!("{:?}", wl.inputs)),
        wl.learn,
        wl.journal,
        json_str(&format!("{:?}", wl.registry)),
        wl.connections,
        DEPTH,
        json_f64s(&wl.plan),
        json_f64s(&wl.trace_plan),
        SETUP_REPS,
        ROUNDS,
        SLICE.as_secs_f64(),
        SLICE_MIN_SAMPLES,
        WARMUP,
        INLINE_MATRICES,
        inputs::MTX_FILES
    )
}

/// Serve mode: the daemon child a run starts (`--serve MODEL
/// [--journal PATH]`). Prints its address, serves until a `Shutdown`
/// request, then prints its peak resident set in MB.
fn serve_main(args: &[String]) -> Result<(), String> {
    let (model, journal) = match args {
        [model] => (model, None),
        [model, flag, journal] if flag == "--journal" => (model, Some(Path::new(journal))),
        _ => return Err("usage: spbench --serve MODEL [--journal PATH]".into()),
    };
    let artifact = artifact::load(model).map_err(|e| format!("load: {e}"))?;
    let engine = engine(&artifact, journal)?;
    let server = Server::bind(Arc::new(engine), ServeOptions::default())
        .map_err(|e| format!("bind: {e}"))?;
    println!("{}", server.local_addr().map_err(io_err)?);
    std::io::stdout().flush().map_err(io_err)?;
    server.run();
    println!("{}", peak_rss_mb());
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--serve") {
        if let Err(e) = serve_main(&argv[1..]) {
            eprintln!("spbench daemon: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("spbench: {e}");
            eprintln!(
                "usage: spbench --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.map(|w| w.name).join("|")
            );
            std::process::exit(2);
        }
    };
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("spbench: {e}");
            std::process::exit(1);
        }
    };
    if outcome.metrics.iter().any(|m| !m.value.is_finite()) {
        eprintln!("spbench: a metric is not a finite number");
        std::process::exit(1);
    }

    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    let metrics = format!("{{{}}}", metrics.join(","));
    let host_cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut record = format!(
        "{{\"host_cpus\":{host_cpus},\"git_rev\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"workload\":{},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}",
        json_str(&git_rev(Path::new(env!("CARGO_MANIFEST_DIR")))),
        args.seed,
        args.seconds,
        args.trace,
        workload_json(args.workload),
        outcome.attempted,
        outcome.failed,
    );
    for (k, v) in &outcome.details {
        let _ = write!(record, ",{}:{v}", json_str(k));
    }
    record.push('}');
    let path = out_dir().join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(out_dir()).and_then(|_| std::fs::write(&path, &record))
    {
        eprintln!("spbench: {}: {e}", path.display());
        std::process::exit(1);
    }
    for m in &outcome.metrics {
        println!("{:<30} {:>16} {}", m.name, m.value, m.unit);
    }
    println!("record: {}", path.display());
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_cover_every_sample_and_last_long_enough() {
        let slice = SLICE.as_nanos() as u64;
        // 10 us requests: a slice closes after `slice / 10 us` of them.
        let per = (slice / 10_000) as usize;
        let samples: Vec<(usize, u64)> = (0..3 * per + 7).map(|i| (i, 10_000)).collect();
        let slices = lockstep_slices(samples.clone());
        assert_eq!(slices.len(), 3);
        assert_eq!(slices.concat(), samples, "every sample, in order");
        assert_eq!(
            slices[2].len(),
            per + 7,
            "the short tail joins the last slice"
        );
        // Slow requests: a slice still waits for enough samples to rank.
        let slices = lockstep_slices(vec![(0, slice); 3 * SLICE_MIN_SAMPLES]);
        assert_eq!(slices.len(), 3);
        assert!(slices.iter().all(|s| s.len() == SLICE_MIN_SAMPLES));
        // A phase shorter than a slice is one slice.
        assert_eq!(
            lockstep_slices(vec![(0, 5), (1, 1)]),
            vec![vec![(0, 5), (1, 1)]]
        );
    }

    #[test]
    fn slowness_ignores_which_requests_a_slice_holds() {
        // Request 0 costs 10, request 1 costs 1000. A slice of only cheap
        // requests on a slow host is slower than a slice of only dear
        // requests on a calm one.
        let slices = vec![
            vec![(0, 20), (0, 20)],
            vec![(1, 1000), (1, 1000)],
            vec![(0, 10), (0, 10), (0, 10), (1, 1000)],
        ];
        let slow = slowness(&slices, 2);
        assert_eq!(slow, vec![2.0, 1.0, 1.0]);
        assert_eq!(stats::lowest(&slow, 2), vec![1, 2]);
    }
}
