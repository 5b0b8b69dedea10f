//! The benchmark's workloads. Each sets itself up several times (the
//! median is `setup_s`), runs its load, checks every output against an
//! independent answer and, when traced, builds the per-layer ledger.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use repsim_bench::serve_load::{self, GenRequest, WorkloadConfig};
use repsim_core::{QueryEngine, RPathSim};
use repsim_datasets::citations::{self, CitationConfig};
use repsim_datasets::movies::{self, MoviesConfig};
use repsim_graph::{mutation, Graph, MutationOp};
use repsim_metawalk::commuting::informative_commuting_with;
use repsim_metawalk::MetaWalk;
use repsim_obs::json::{self, Json};
use repsim_serve::protocol::RankEntry;
use repsim_serve::{
    CoordConfig, QueryService, Request, Response, ServeConfig, ServiceConfig, ShardSpec,
};
use repsim_sparse::{Csr, Parallelism};

use crate::ledger::{self, Ledger};
use crate::load;
use crate::stats;

/// The walk movies requests carry on the wire.
const WALK: &str = "film actor film";
/// The walk the server scores for [`WALK`]: the protocol's `walk` is the
/// half walk, and R-PathSim ranks over its symmetric closure. The
/// library oracle scores this walk; if the protocol ever scores the wire
/// walk itself, every movies check fails instead of showing a speed-up.
const SCORED_WALK: &str = "film actor film actor film";
/// The citation walk whose index `citations-index` builds.
const CITATION_WALK: &str = "paper cite paper cite paper cite paper";
const K: usize = 10;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Open-loop rate of `movies-churn`, well below its serial capacity
/// (about 120 requests/s at 10% churn on 2 cores), so the median request
/// meets no queue and the tail holds the write path and seed rebuilds.
const CHURN_RATE: f64 = 25.0;
const CHURN_MUTATE_RATIO: f64 = 0.1;
/// The latency limit a `movies-churn` request must meet, from its due time.
const CHURN_SLO_MS: f64 = 250.0;
/// Leading read requests whose responses must equal the library's
/// rendering byte for byte; later ones are checked every `READ_CHECK_EVERY`.
const READ_CHECK_PREFIX: usize = 300;
const READ_CHECK_EVERY: usize = 10;

/// Run parameters from the command line.
pub struct Ctx {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Scratch directory for port files and WALs.
    pub work: PathBuf,
}

impl Ctx {
    /// The measured phases: one untraced run, or an untraced and a
    /// traced half when tracing.
    fn phases(&self) -> Vec<(bool, Duration)> {
        let total = Duration::from_secs(self.seconds);
        if self.trace {
            vec![(false, total / 2), (true, total / 2)]
        } else {
            vec![(false, total)]
        }
    }
}

/// One reported figure.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Every end-to-end figure of the untraced phase, keyed by name.
    pub end_to_end: Vec<Metric>,
    /// The per-layer ledger of the traced phase (empty untraced).
    pub layers: Vec<Metric>,
    /// Check results and identities, for the log.
    pub notes: Vec<String>,
}

/// How one response ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Outcome {
    /// `ok` and, for a rank, the `exact` tier.
    Exact,
    /// Refused with `overloaded`.
    Shed,
    /// Any other error, or a degraded tier.
    Failed,
}

fn outcome(line: &str) -> Outcome {
    let Ok(v) = json::parse(line) else {
        return Outcome::Failed;
    };
    if v.get("ok") == Some(&Json::Bool(true)) {
        match v.get("tier").and_then(Json::as_str) {
            None | Some("exact") => Outcome::Exact,
            Some(_) => Outcome::Failed,
        }
    } else if v
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
        == Some("overloaded")
    {
        Outcome::Shed
    } else {
        Outcome::Failed
    }
}

fn line_hash(line: &str) -> u64 {
    repsim_sparse::checksum(line.as_bytes())
}

/// An order-independent digest of response lines, from their
/// [`line_hash`]es. Every line carries its request id, so equal digests
/// mean equal answers per request.
fn digest(hashes: impl IntoIterator<Item = u64>) -> u64 {
    hashes.into_iter().fold(0u64, u64::wrapping_add)
}

/// What the benchmark keeps of a response: enough to classify it and to
/// compare it with an expected line, in constant space.
#[derive(Clone, Copy, Debug)]
struct Reply {
    outcome: Outcome,
    /// A rank answer (it carries a tier), not a mutation acknowledgment.
    rank: bool,
    hash: u64,
}

fn reply(line: &str) -> Reply {
    Reply {
        outcome: outcome(line),
        rank: line.contains("\"tier\""),
        hash: line_hash(line),
    }
}

type Sample = load::Sample<Reply>;

/// `(steal, total)` CPU ticks so far, from the aggregate line of
/// `/proc/stat`; `None` where the kernel does not report them.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// The share of CPU time a hypervisor took for other guests between two
/// [`cpu_ticks`] readings: on a shared host, the run's timings are only
/// comparable with runs that saw a similar share.
fn host_steal_frac(before: Option<(u64, u64)>) -> Metric {
    let frac = match (before, cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    };
    m("host_steal_frac", frac, "ratio")
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

fn micros(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Waits for a server's port file and returns its address.
fn wait_port(path: &Path, up: impl Fn() -> bool) -> Result<String, String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(text) = std::fs::read_to_string(path) {
            let text = text.trim();
            if !text.is_empty() {
                return Ok(text.to_owned());
            }
        }
        if Instant::now() > deadline || !up() {
            return Err(format!("server did not write {}", path.display()));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Where the movies load is sent.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Host {
    /// One server; with a WAL under the work directory when `wal`.
    Single { wal: bool },
    /// A coordinator over two row-band shards of one replica each.
    Fleet,
}

/// Boots the servers for `host` over `g` in this process, calls `f` with
/// the client-facing address, then shuts everything down.
fn hosted<T>(
    ctx: &Ctx,
    g: &Graph,
    host: Host,
    tag: &str,
    f: impl FnOnce(&str) -> Result<T, String>,
) -> Result<T, String> {
    let shutdown = AtomicBool::new(false);
    let servers: Vec<ServeConfig> = match host {
        Host::Single { wal } => vec![ServeConfig {
            port_file: Some(ctx.work.join(format!("{tag}.port"))),
            wal: wal.then(|| ctx.work.join(format!("{tag}.wal"))),
            service: ServiceConfig {
                par: Parallelism::available(),
                ..ServiceConfig::default()
            },
            ..ServeConfig::default()
        }],
        // The two shards share the cores: one worker each.
        Host::Fleet => (0..2)
            .map(|i| ServeConfig {
                port_file: Some(ctx.work.join(format!("{tag}-shard{i}.port"))),
                service: ServiceConfig {
                    par: Parallelism::with_threads(1),
                    shard: Some(ShardSpec { index: i, count: 2 }),
                    ..ServiceConfig::default()
                },
                ..ServeConfig::default()
            })
            .collect(),
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = servers
            .iter()
            .map(|cfg| s.spawn(|| repsim_serve::run(g, cfg, &shutdown).map(|_| ())))
            .collect();
        let mut addrs = Vec::new();
        let mut out = Ok(());
        for (cfg, h) in servers.iter().zip(&handles) {
            let port = cfg
                .port_file
                .as_deref()
                .expect("every server has a port file");
            match wait_port(port, || !h.is_finished()) {
                Ok(a) => addrs.push(a),
                Err(e) => {
                    out = Err(e);
                    break;
                }
            }
        }
        let result = out.and_then(|()| {
            if host != Host::Fleet {
                return f(&addrs[0]);
            }
            let coord_port = ctx.work.join(format!("{tag}-coord.port"));
            let coord_cfg = CoordConfig {
                shards: addrs.iter().map(|a| vec![a.clone()]).collect(),
                port_file: Some(coord_port.clone()),
                ..CoordConfig::default()
            };
            let shutdown = &shutdown;
            let coord =
                s.spawn(move || repsim_serve::run_coordinator(&coord_cfg, shutdown).map(|_| ()));
            let r = wait_port(&coord_port, || !coord.is_finished()).and_then(|a| f(&a));
            shutdown.store(true, Ordering::SeqCst);
            coord
                .join()
                .map_err(|_| "coordinator panicked".to_owned())?
                .map_err(|e| format!("coordinator: {e}"))?;
            r
        });
        shutdown.store(true, Ordering::SeqCst);
        for h in handles {
            h.join()
                .map_err(|_| "server panicked".to_owned())?
                .map_err(|e| format!("server: {e}"))?;
        }
        result
    })
}

fn rank_line(id: u64, value: &str) -> String {
    format!("{{\"id\":{id},\"op\":\"rank\",\"walk\":\"{WALK}\",\"label\":\"film\",\"value\":\"{value}\",\"k\":{K}}}")
}

/// The film every warm-up rank queries.
fn first_film(g: &Graph) -> Result<&str, String> {
    let film = g
        .labels()
        .get("film")
        .ok_or("movies graph has no film label")?;
    g.nodes_of_label(film)
        .first()
        .and_then(|&n| g.value_of(n))
        .ok_or_else(|| "movies graph has no films".to_owned())
}

/// The first served rank: builds the engine seed the measured ranks use.
fn warm_up(addr: &str, g: &Graph) -> Result<(), String> {
    let resp = repsim_serve::client_roundtrip(addr, &[rank_line(0, first_film(g)?)])
        .map_err(|e| format!("warm-up: {e}"))?;
    match resp.first() {
        Some(line) if outcome(line) == Outcome::Exact => Ok(()),
        other => Err(format!("warm-up rank failed: {other:?}")),
    }
}

/// Generates, boots and warms the movies servers [`SETUP_REPS`] times,
/// then runs `f` on the last set-up. Returns the set-up times with `f`'s
/// result.
fn movies_setups<T>(
    ctx: &Ctx,
    host: Host,
    mut f: impl FnMut(&Graph, &str) -> Result<T, String>,
) -> Result<(Vec<f64>, T), String> {
    let mut setup = Vec::new();
    let mut result = None;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let g = movies::imdb(&MoviesConfig::paper_scale());
        let r = hosted(ctx, &g, host, &format!("setup{rep}"), |addr| {
            warm_up(addr, &g)?;
            setup.push(t0.elapsed().as_secs_f64());
            if rep + 1 < SETUP_REPS {
                return Ok(None);
            }
            f(&g, addr).map(Some)
        })?;
        result = r.or(result);
    }
    Ok((setup, result.ok_or("no measured set-up")?))
}

fn gen(
    g: &Graph,
    seed: u64,
    requests: usize,
    rate_per_s: f64,
    mutate_ratio: f64,
) -> Result<Vec<GenRequest>, String> {
    serve_load::generate(
        g,
        WALK,
        &WorkloadConfig {
            seed,
            requests,
            rate_per_s,
            zipf_exponent: 1.0,
            mutate_ratio,
            deadlines_ms: Vec::new(),
            k: K,
        },
    )
}

/// Latency figures over successful samples, in microseconds.
struct Latency {
    n: usize,
    p50_us: f64,
    /// The highest percentile with ten samples beyond it (the median
    /// when there are too few), and which percentile it is.
    tail_us: f64,
    tail_pct: f64,
}

fn latency(values_us: &[f64]) -> Latency {
    let sorted = stats::sorted(values_us);
    let p50 = stats::percentile(&sorted, 50.0);
    let (tail_pct, tail_us) = stats::supported_tail(&sorted).unwrap_or((50.0, p50));
    Latency {
        n: sorted.len(),
        p50_us: p50,
        tail_us,
        tail_pct,
    }
}

/// The figures every workload reports, from one phase's operations.
fn common_metrics(ok_ops: usize, wall: Duration, op: &Latency) -> Vec<Metric> {
    vec![
        m(
            "ops_per_s",
            ok_ops as f64 / wall.as_secs_f64().max(1e-9),
            "1/s",
        ),
        m("op_p50_us", op.p50_us, "us"),
        m("op_tail_us", op.tail_us, "us"),
        m("op_tail_pct", op.tail_pct, "%"),
        m("op_samples", op.n as f64, "count"),
    ]
}

// ---------------------------------------------------------------- reads

/// Renders the response the server must give for a movies rank
/// request, from the library's R-PathSim over [`SCORED_WALK`].
struct ReadOracle<'g> {
    g: &'g Graph,
    scorer: RPathSim<'g>,
}

impl<'g> ReadOracle<'g> {
    fn new(g: &'g Graph) -> Result<Self, String> {
        let mw = MetaWalk::parse_in(g, SCORED_WALK).ok_or("scored walk does not parse")?;
        Ok(ReadOracle {
            g,
            scorer: RPathSim::with_parallelism(g, mw, Parallelism::available()),
        })
    }

    fn expected(&self, request: &str) -> Result<String, String> {
        let Ok(Request::Rank {
            id,
            label,
            value,
            k,
            ..
        }) = Request::parse(request)
        else {
            return Err(format!("not a rank request: {request}"));
        };
        let l = self.g.labels().get(&label).ok_or("unknown label")?;
        let q = self.g.entity(l, &value).ok_or("unknown entity")?;
        let ranked = self.scorer.rank_band(q, l, k, None);
        let results = ranked
            .keyed(self.g)
            .into_iter()
            .map(|(label, value, score)| RankEntry {
                label,
                value,
                score,
            })
            .collect();
        Ok(Response::Rank {
            id,
            tier: "exact".to_owned(),
            results,
            shard: None,
            coverage: None,
        }
        .to_json_line())
    }
}

/// `movies-read` (single node) and `fleet-read` (coordinator + shards):
/// closed-loop Zipf reads on a warm seed over one connection. A served
/// rank already spreads its cross counts over every core, so on 2 cores
/// a second connection only adds contention: with 2, throughput spread
/// 22% between runs of one seed; with 1, 7%.
pub fn movies_read(ctx: &Ctx, fleet: bool) -> Result<Report, String> {
    let host = if fleet {
        Host::Fleet
    } else {
        Host::Single { wal: false }
    };
    let (setup, report) = movies_setups(ctx, host, |g, addr| {
        let pool = usize::try_from(ctx.seconds).unwrap_or(60).max(1) * 10_000;
        let lines: Vec<String> = gen(g, ctx.seed, pool, 0.0, 0.0)?
            .into_iter()
            .map(|r| r.line)
            .collect();
        let mut report = Report {
            correct: true,
            ..Report::default()
        };
        let mut untraced_p50 = 0.0;
        let mut phases = Vec::new();
        for (traced, run_for) in ctx.phases() {
            let run = || load::closed_loop(addr, &lines, run_for, reply).map_err(|e| e.to_string());
            let ticks = cpu_ticks();
            let (samples, spans) = if traced {
                ledger::traced(run)
            } else {
                (run(), Vec::new())
            };
            let samples = samples?;
            let ok: Vec<&Sample> = samples
                .iter()
                .filter(|s| s.reply.outcome == Outcome::Exact)
                .collect();
            let op = latency(
                &ok.iter()
                    .map(|s| micros(s.service_ns()))
                    .collect::<Vec<_>>(),
            );
            let wall = Duration::from_nanos(samples.iter().map(|s| s.recv_ns).max().unwrap_or(0));
            let shed = samples
                .iter()
                .filter(|s| s.reply.outcome == Outcome::Shed)
                .count();
            if traced {
                let root = if fleet {
                    "repsim.serve.coord.request"
                } else {
                    "repsim.serve.request"
                };
                let led = Ledger::new(
                    spans,
                    &[("repsim.serve.request", "repsim.serve.coord.request")],
                );
                report.layers = layer_metrics(&led, &samples, root, shed, LayerInputs::default());
                // A closed loop has no schedule to fall behind.
                report.layers.push(m("bench.gen_late_p99_ms", 0.0, "ms"));
                report.layers.push(m(
                    "trace_overhead_frac",
                    (op.p50_us - untraced_p50) / untraced_p50,
                    "ratio",
                ));
            } else {
                untraced_p50 = op.p50_us;
                report.end_to_end = common_metrics(ok.len(), wall, &op);
                report.end_to_end.extend([
                    m("rps", ok.len() as f64 / wall.as_secs_f64(), "1/s"),
                    m("rank_p50_us", op.p50_us, "us"),
                    m("rank_tail_us", op.tail_us, "us"),
                    m(
                        "fail_frac",
                        (samples.len() - ok.len()) as f64 / samples.len().max(1) as f64,
                        "ratio",
                    ),
                    m("peak_rss_mb", peak_rss_mb()?, "MB"),
                    m("peak_heap_mb", crate::heap::peak_mb(), "MB"),
                    host_steal_frac(ticks),
                ]);
            }
            phases.push(samples);
        }
        // The oracle is built after the measurement so that neither its
        // time nor its memory shows in the figures.
        let oracle = ReadOracle::new(g)?;
        for samples in &phases {
            check_reads(&oracle, &lines, samples, &mut report)?;
        }
        Ok(report)
    })?;
    Ok(finish(report, &setup))
}

/// Checks the read responses: every one exact, the leading prefix and a
/// sample of the rest byte-equal to the library's answer.
fn check_reads(
    oracle: &ReadOracle,
    lines: &[String],
    samples: &[Sample],
    report: &mut Report,
) -> Result<(), String> {
    report.attempted += samples.len() as u64;
    let mut mismatched = 0usize;
    let mut prefix_served = Vec::new();
    let mut prefix_expected = Vec::new();
    for s in samples {
        if s.reply.outcome != Outcome::Exact {
            report.failed += 1;
            continue;
        }
        if s.idx < READ_CHECK_PREFIX || s.idx % READ_CHECK_EVERY == 0 {
            let want = oracle.expected(&lines[s.idx])?;
            let want_hash = line_hash(&want);
            if s.idx < READ_CHECK_PREFIX {
                prefix_served.push(s.reply.hash);
                prefix_expected.push(want_hash);
            }
            if want_hash != s.reply.hash {
                if mismatched == 0 {
                    report.notes.push(format!(
                        "request {} was not answered with {want}",
                        s.idx + 1
                    ));
                }
                mismatched += 1;
            }
        }
    }
    let served = digest(prefix_served.iter().copied());
    let expected = digest(prefix_expected.iter().copied());
    report.notes.push(format!(
        "read digest over requests 1..={}: served {served:016x}, library {expected:016x} \
         (scored walk \"{SCORED_WALK}\")",
        prefix_served.len()
    ));
    if prefix_served.len() < READ_CHECK_PREFIX.min(samples.len())
        || mismatched > 0
        || served != expected
    {
        report.correct = false;
        report.notes.push(format!(
            "read check failed: {mismatched} answers differ from the library"
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------- churn

/// `movies-churn`: open-loop Zipf reads with 10% durable mutations over
/// one connection to a server with a WAL.
pub fn movies_churn(ctx: &Ctx) -> Result<Report, String> {
    let (setup, report) = movies_setups(ctx, Host::Single { wal: true }, |g, addr| {
        let g0 = g.clone();
        let phases = ctx.phases();
        let n_total = (CHURN_RATE * ctx.seconds as f64).round() as usize;
        let reqs = gen(g, ctx.seed, n_total, CHURN_RATE, CHURN_MUTATE_RATIO)?;
        let mut report = Report {
            correct: true,
            ..Report::default()
        };
        let mut served_all: Vec<u64> = Vec::with_capacity(reqs.len());
        let mut untraced_p50 = 0.0;
        let mut start = 0usize;
        for (k, (traced, run_for)) in phases.iter().copied().enumerate() {
            let n = if k + 1 == phases.len() {
                n_total - start
            } else {
                (CHURN_RATE * run_for.as_secs_f64()).round() as usize
            };
            let batch = &reqs[start..start + n];
            start += n;
            let lines: Vec<String> = batch.iter().map(|r| r.line.clone()).collect();
            let due_us = stretched_schedule(batch, run_for.as_secs_f64());
            let run = || load::open_loop(addr, &lines, &due_us, reply).map_err(|e| e.to_string());
            let ticks = cpu_ticks();
            let (samples, spans) = if traced {
                ledger::traced(run)
            } else {
                (run(), Vec::new())
            };
            let samples = samples?;
            report.attempted += samples.len() as u64;
            served_all.extend(samples.iter().map(|s| s.reply.hash));
            let is_mutate = |s: &Sample| lines[s.idx].contains("\"op\":\"mutate\"");
            let ok: Vec<&Sample> = samples
                .iter()
                .filter(|s| s.reply.outcome == Outcome::Exact)
                .collect();
            report.failed += (samples.len() - ok.len()) as u64;
            let all = latency(
                &ok.iter()
                    .map(|s| micros(s.latency_ns()))
                    .collect::<Vec<_>>(),
            );
            let wall = Duration::from_nanos(samples.iter().map(|s| s.recv_ns).max().unwrap_or(0));
            if traced {
                let shed = samples
                    .iter()
                    .filter(|s| s.reply.outcome == Outcome::Shed)
                    .count();
                let led = Ledger::new(spans, &[]);
                let timed = churn_timed_layers(&g0, &reqs[..start])?;
                report.layers = layer_metrics(&led, &samples, "repsim.serve.request", shed, timed);
                let late = stats::sorted(
                    &samples
                        .iter()
                        .map(|s| s.late_ns() as f64 / 1e6)
                        .collect::<Vec<_>>(),
                );
                report.layers.extend([
                    m(
                        "bench.gen_late_p99_ms",
                        stats::percentile(&late, 99.0),
                        "ms",
                    ),
                    m(
                        "trace_overhead_frac",
                        (all.p50_us - untraced_p50) / untraced_p50,
                        "ratio",
                    ),
                ]);
            } else {
                untraced_p50 = all.p50_us;
                let ranks = latency(
                    &ok.iter()
                        .filter(|s| !is_mutate(s))
                        .map(|s| micros(s.latency_ns()))
                        .collect::<Vec<_>>(),
                );
                let muts: Vec<f64> = stats::sorted(
                    &ok.iter()
                        .filter(|s| is_mutate(s))
                        .map(|s| micros(s.latency_ns()))
                        .collect::<Vec<_>>(),
                );
                let slo_miss = samples
                    .iter()
                    .filter(|s| {
                        s.reply.outcome != Outcome::Exact
                            || s.latency_ns() as f64 / 1e6 > CHURN_SLO_MS
                    })
                    .count();
                let late = stats::sorted(
                    &samples
                        .iter()
                        .map(|s| s.late_ns() as f64 / 1e6)
                        .collect::<Vec<_>>(),
                );
                report.end_to_end = common_metrics(ok.len(), wall, &all);
                report.end_to_end.extend([
                    m("rank_p50_us", ranks.p50_us, "us"),
                    m("rank_tail_us", ranks.tail_us, "us"),
                    m("rank_tail_pct", ranks.tail_pct, "%"),
                    m("mutate_p50_us", stats::percentile(&muts, 50.0), "us"),
                    m("mutate_p90_us", stats::percentile(&muts, 90.0), "us"),
                    m("mutate_samples", muts.len() as f64, "count"),
                    m(
                        "slo_miss_frac",
                        slo_miss as f64 / samples.len().max(1) as f64,
                        "ratio",
                    ),
                    m(
                        "fail_frac",
                        (samples.len() - ok.len()) as f64 / samples.len().max(1) as f64,
                        "ratio",
                    ),
                    m("gen_late_p99_ms", stats::percentile(&late, 99.0), "ms"),
                    m("peak_rss_mb", peak_rss_mb()?, "MB"),
                    m("peak_heap_mb", crate::heap::peak_mb(), "MB"),
                    host_steal_frac(ticks),
                ]);
            }
        }
        check_churn(ctx, &g0, &reqs, &served_all, &mut report)?;
        Ok(report)
    })?;
    Ok(finish(report, &setup))
}

/// Due times of `batch`, relative to its first request, stretched so
/// the batch spans exactly `span_s`: the generator's exponential gaps
/// keep their shape, and every seed offers the same mean rate.
fn stretched_schedule(batch: &[GenRequest], span_s: f64) -> Vec<u64> {
    let first = batch.first().map_or(0, |r| r.arrival_offset_us);
    let last = batch.last().map_or(0, |r| r.arrival_offset_us) - first;
    let scale = if last == 0 {
        0.0
    } else {
        span_s * 1e6 / last as f64
    };
    batch
        .iter()
        .map(|r| ((r.arrival_offset_us - first) as f64 * scale) as u64)
        .collect()
}

/// Replays the whole churn sequence in process through
/// `QueryService::handle_rank` / `handle_mutate` (with its own WAL) and
/// requires the served responses to match it, request by request.
fn check_churn(
    ctx: &Ctx,
    g: &Graph,
    reqs: &[GenRequest],
    served: &[u64],
    report: &mut Report,
) -> Result<(), String> {
    let svc = QueryService::new(
        g,
        ServiceConfig {
            par: Parallelism::available(),
            ..ServiceConfig::default()
        },
    );
    let wal = ctx.work.join("replay.wal");
    svc.recover_wal(&wal)
        .map_err(|e| format!("replay WAL: {e}"))?;
    // The served run started with one warm-up rank; so does the replay.
    svc.handle_rank(WALK, "film", first_film(g)?, K, None)
        .map_err(|e| format!("replay warm-up: {e}"))?;
    let mut expected = Vec::with_capacity(reqs.len());
    for r in reqs {
        let resp = match Request::parse(&r.line) {
            Ok(Request::Rank {
                id,
                walk,
                label,
                value,
                k,
                deadline_ms,
            }) => match svc.handle_rank(&walk, &label, &value, k, deadline_ms) {
                Ok((tier, results)) => Response::Rank {
                    id,
                    tier,
                    results,
                    shard: None,
                    coverage: None,
                },
                Err(error) => Response::Error { id, error },
            },
            Ok(Request::Mutate {
                id,
                op,
                deadline_ms,
            }) => match svc.handle_mutate(&op, deadline_ms) {
                Ok((fingerprint, seq, path)) => Response::Mutate {
                    id,
                    fingerprint,
                    seq,
                    path,
                },
                Err(error) => Response::Error { id, error },
            },
            other => return Err(format!("unexpected generated request {other:?}")),
        };
        expected.push(resp.to_json_line());
    }
    let (d_served, d_replay) = (
        digest(served.iter().copied()),
        digest(expected.iter().map(|l| line_hash(l))),
    );
    report.notes.push(format!(
        "churn digest over {} requests: served {d_served:016x}, in-process replay {d_replay:016x}",
        served.len()
    ));
    let differs = |(a, b): &(&u64, &String)| **a != line_hash(b);
    let differing = served.iter().zip(&expected).filter(differs).count();
    if served.len() != expected.len() || differing > 0 || d_served != d_replay {
        report.correct = false;
        if let Some((_, b)) = served.iter().zip(&expected).find(differs) {
            report
                .notes
                .push(format!("churn mismatch: the replay answered {b}"));
        }
        report
            .notes
            .push(format!("churn check failed: {differing} responses differ"));
    }
    let _ = std::fs::remove_file(&wal);
    Ok(())
}

fn median_time_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            micros(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX))
        })
        .collect();
    stats::median(&times)
}

/// Layer costs with no span of their own, timed by calling the layer's
/// public functions on the workload's data: `mutation::apply` over the
/// churn's mutations (in order, from the boot graph), and
/// `snapshot::graph_fingerprint` and the engine build from a half matrix
/// on the resulting live graph.
fn churn_timed_layers(g0: &Graph, reqs: &[GenRequest]) -> Result<LayerInputs, String> {
    let ops: Vec<MutationOp> = reqs
        .iter()
        .filter_map(|r| match Request::parse(&r.line) {
            Ok(Request::Mutate { op, .. }) => Some(op),
            _ => None,
        })
        .collect();
    let mut g = g0.clone();
    let mut apply_ns = 0u128;
    for op in &ops {
        let t = Instant::now();
        g = mutation::apply(&g, op).map_err(|e| format!("apply {op}: {e}"))?;
        apply_ns += t.elapsed().as_nanos();
    }
    let fingerprint_us = median_time_us(5, || {
        std::hint::black_box(repsim_serve::snapshot::graph_fingerprint(
            std::hint::black_box(&g),
        ));
    });
    let half = MetaWalk::parse_in(&g, WALK).ok_or("walk does not parse")?;
    let m_half = informative_commuting_with(&g, &half, Parallelism::available());
    let mut build_err = None;
    let engine_build_us = median_time_us(5, || {
        let m = m_half.clone();
        if let Err(e) =
            QueryEngine::try_from_half_matrix(&g, half.clone(), m, Parallelism::available())
        {
            build_err = Some(e.to_string());
        }
    });
    if let Some(e) = build_err {
        return Err(format!("engine build: {e}"));
    }
    Ok(LayerInputs {
        fingerprint_us,
        apply_us: mean_or_zero(apply_ns as f64 / 1e3, ops.len()),
        engine_build_us,
        ..LayerInputs::default()
    })
}

// ---------------------------------------------------------------- index

/// A content hash of a CSR matrix: shape, structure and value bits.
fn csr_checksum(m: &Csr) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |w: u64| h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(29);
    mix(m.nrows() as u64);
    mix(m.ncols() as u64);
    for r in 0..m.nrows() {
        let (cols, vals) = m.row(r);
        mix(cols.len() as u64);
        for (&c, &v) in cols.iter().zip(vals) {
            mix(u64::from(c));
            mix(v.to_bits());
        }
    }
    h
}

/// `citations-index`: repeated cold builds of the citation walk's
/// informative commuting matrix through the library, no server.
pub fn citations_index(ctx: &Ctx) -> Result<Report, String> {
    let par = Parallelism::available();
    let mut setup = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let g = citations::dblp(&CitationConfig::paper_scale());
        let mw = MetaWalk::parse_in(&g, CITATION_WALK).ok_or("citation walk does not parse")?;
        let first = informative_commuting_with(&g, &mw, par);
        setup.push(t0.elapsed().as_secs_f64());
        kept = Some((g, mw, first));
    }
    let (g, mw, first) = kept.ok_or("no set-up")?;
    // (nnz, checksum) of every build, compared with a serial build once
    // the measurement is over.
    let mut built = vec![(first.nnz(), csr_checksum(&first))];
    drop(first);
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    let mut untraced_p50 = 0.0;
    for (traced, run_for) in ctx.phases() {
        let run = |built: &mut Vec<(usize, u64)>| {
            let mut times_us = Vec::new();
            let t0 = Instant::now();
            while t0.elapsed() < run_for || times_us.len() < 3 {
                let t = Instant::now();
                let out = informative_commuting_with(&g, &mw, par);
                times_us.push(micros(
                    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX),
                ));
                built.push((out.nnz(), csr_checksum(&out)));
            }
            times_us
        };
        let ticks = cpu_ticks();
        let (times_us, spans) = if traced {
            ledger::traced(|| run(&mut built))
        } else {
            (run(&mut built), Vec::new())
        };
        let op = latency(&times_us);
        let busy = Duration::from_secs_f64(times_us.iter().sum::<f64>() / 1e6);
        if traced {
            let led = Ledger::new(spans, &[]);
            report.layers = index_layers(&led, &times_us);
            report.layers.push(m(
                "trace_overhead_frac",
                (op.p50_us - untraced_p50) / untraced_p50,
                "ratio",
            ));
        } else {
            untraced_p50 = op.p50_us;
            report.end_to_end = common_metrics(times_us.len(), busy, &op);
            report.end_to_end.extend([
                m("index_build_ms", op.p50_us / 1e3, "ms"),
                m("peak_rss_mb", peak_rss_mb()?, "MB"),
                m("peak_heap_mb", crate::heap::peak_mb(), "MB"),
                host_steal_frac(ticks),
            ]);
        }
    }
    let serial = informative_commuting_with(&g, &mw, Parallelism::serial());
    let want = (serial.nnz(), csr_checksum(&serial));
    report.attempted = built.len() as u64;
    report.failed = built.iter().filter(|&&b| b != want).count() as u64;
    report.correct = report.failed == 0;
    report.notes.push(format!(
        "index of \"{CITATION_WALK}\": {} of {} builds equal a serial build (nnz {}, checksum {:016x})",
        built.len() as u64 - report.failed,
        built.len(),
        want.0,
        want.1
    ));
    Ok(finish(report, &setup))
}

fn index_layers(led: &Ledger, times_us: &[f64]) -> Vec<Metric> {
    let e2e_ns = times_us.iter().sum::<f64>() * 1e3;
    let mut out = layer_metrics_from(led, &LayerInputs::default());
    out.push(m(
        "unattributed_frac",
        ledger::unattributed_frac(e2e_ns, led.self_sum_ns()),
        "ratio",
    ));
    out.push(m("bench.gen_late_p99_ms", 0.0, "ms"));
    out
}

// ---------------------------------------------------------------- ledger

/// What the ledger needs beyond the spans.
#[derive(Default)]
struct LayerInputs {
    /// Sum of client-side service times of rank requests, and their count.
    rank_client_ns: f64,
    rank_requests: usize,
    /// The span that bounds a rank request inside the program.
    rank_root: &'static str,
    shed: usize,
    /// Layers timed from outside (see [`churn_timed_layers`]).
    fingerprint_us: f64,
    apply_us: f64,
    engine_build_us: f64,
}

fn layer_metrics(
    led: &Ledger,
    samples: &[Sample],
    rank_root: &'static str,
    shed: usize,
    timed: LayerInputs,
) -> Vec<Metric> {
    // Successful rank responses are the lines that carry a tier.
    let rank: Vec<&Sample> = samples
        .iter()
        .filter(|s| s.reply.outcome == Outcome::Exact && s.reply.rank)
        .collect();
    let inputs = LayerInputs {
        rank_client_ns: rank.iter().map(|s| s.service_ns() as f64).sum(),
        rank_requests: rank.len(),
        rank_root,
        shed,
        ..timed
    };
    let mut out = layer_metrics_from(led, &inputs);
    let e2e_ns: f64 = samples.iter().map(|s| s.service_ns() as f64).sum();
    out.push(m(
        "unattributed_frac",
        ledger::unattributed_frac(e2e_ns, led.self_sum_ns()),
        "ratio",
    ));
    out
}

fn mean_or_zero(total: f64, count: usize) -> f64 {
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

fn layer_metrics_from(led: &Ledger, inp: &LayerInputs) -> Vec<Metric> {
    let t = |name: &str| led.totals(name);
    let request = t("repsim.serve.request");
    let mutate = t("repsim.serve.mutate");
    let coord = t("repsim.serve.coord.request");
    let wal = t("repsim.graph.wal.append");
    let rank = t("repsim.core.engine.rank");
    let build = t("repsim.metawalk.commuting.build");
    let delta = t("repsim.metawalk.delta.apply");
    let plan = t("repsim.sparse.chain.plan");
    let root_ns = if inp.rank_root.is_empty() {
        0.0
    } else {
        t(inp.rank_root).dur_ns
    };

    let rank_nnz: f64 = led
        .named("repsim.core.engine.rank")
        .filter_map(|(_, s, _)| s.num("half_nnz"))
        .sum();
    let lookups: Vec<bool> = led
        .named("repsim.metawalk.cache.lookup")
        .map(|(_, s, _)| s.num("hit") == Some(1.0))
        .collect();
    let build_path_ranks = led
        .named("repsim.metawalk.cache.lookup")
        .filter(|(i, _, _)| led.under(*i, "repsim.serve.request"))
        .count();
    let delta_paths = led
        .named("repsim.serve.mutate")
        .filter(|(_, s, _)| s.text("path") == Some("delta"))
        .count();

    // Sparse work inside commuting-matrix builds, per build.
    let in_build = |name: &'static str| {
        led.named(name)
            .filter(|(i, _, _)| led.under(*i, "repsim.metawalk.commuting.build"))
            .collect::<Vec<_>>()
    };
    let spgemm = in_build("repsim.sparse.spgemm");
    let sym_ns: f64 = in_build("repsim.sparse.spgemm.symbolic")
        .iter()
        .map(|(_, s, _)| s.dur_ns() as f64)
        .sum();
    let num_ns: f64 = in_build("repsim.sparse.spgemm.numeric")
        .iter()
        .map(|(_, s, _)| s.dur_ns() as f64)
        .sum();
    let spgemm_self_ns: f64 = spgemm.iter().map(|(_, _, own)| own).sum();
    let flops: f64 = spgemm.iter().filter_map(|(_, s, _)| s.num("flops")).sum();
    let out_nnz: f64 = spgemm.iter().filter_map(|(_, s, _)| s.num("out_nnz")).sum();
    let per_build = |x: f64| mean_or_zero(x, build.count);
    let per_flop = |ns: f64| if flops > 0.0 { ns / flops } else { 0.0 };

    vec![
        m(
            "serve.request.self_us",
            mean_or_zero(request.self_ns, request.count) / 1e3,
            "us",
        ),
        m(
            "serve.outside_request_us",
            mean_or_zero(inp.rank_client_ns - root_ns, inp.rank_requests) / 1e3,
            "us",
        ),
        m(
            "serve.mutate.self_us",
            mean_or_zero(mutate.self_ns, mutate.count) / 1e3,
            "us",
        ),
        m(
            "serve.wal.append_us",
            mean_or_zero(wal.dur_ns, wal.count) / 1e3,
            "us",
        ),
        m("serve.fingerprint_us", inp.fingerprint_us, "us"),
        m("serve.shed_count", inp.shed as f64, "count"),
        m(
            "serve.coord.request.self_us",
            mean_or_zero(coord.self_ns, coord.count) / 1e3,
            "us",
        ),
        m("graph.mutation.apply_us", inp.apply_us, "us"),
        m(
            "core.engine.rank_us",
            mean_or_zero(rank.dur_ns, rank.count) / 1e3,
            "us",
        ),
        m(
            "core.engine.rank_ns_per_nnz",
            if rank_nnz > 0.0 {
                rank.dur_ns / rank_nnz
            } else {
                0.0
            },
            "ns",
        ),
        m("core.engine.build_us", inp.engine_build_us, "us"),
        m("core.engine.builds", build_path_ranks as f64, "count"),
        m(
            "metawalk.cache.hit_frac",
            mean_or_zero(lookups.iter().filter(|&&h| h).count() as f64, lookups.len()),
            "ratio",
        ),
        m(
            "metawalk.commuting.build.self_ms",
            mean_or_zero(build.self_ns, build.count) / 1e6,
            "ms",
        ),
        m(
            "metawalk.delta.apply_us",
            mean_or_zero(delta.dur_ns, delta.count) / 1e3,
            "us",
        ),
        m(
            "metawalk.delta.path_delta_frac",
            mean_or_zero(delta_paths as f64, mutate.count),
            "ratio",
        ),
        m(
            "sparse.chain.plan_us",
            mean_or_zero(plan.dur_ns, plan.count) / 1e3,
            "us",
        ),
        m("sparse.spgemm.symbolic_ms", per_build(sym_ns) / 1e6, "ms"),
        m("sparse.spgemm.numeric_ms", per_build(num_ns) / 1e6, "ms"),
        m(
            "sparse.spgemm.self_ms",
            per_build(spgemm_self_ns) / 1e6,
            "ms",
        ),
        m("sparse.spgemm.flops", per_build(flops), "count"),
        m("sparse.spgemm.symbolic_ns_per_flop", per_flop(sym_ns), "ns"),
        m("sparse.spgemm.numeric_ns_per_flop", per_flop(num_ns), "ns"),
        m("sparse.spgemm.out_nnz", per_build(out_nnz), "count"),
    ]
}

// ---------------------------------------------------------------- report

/// Adds the set-up median.
fn finish(mut report: Report, setup: &[f64]) -> Report {
    report
        .end_to_end
        .insert(0, m("setup_s", stats::median(setup), "s"));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_order_but_not_content() {
        let d = |lines: [&str; 2]| digest(lines.map(line_hash));
        let a = d(["{\"id\":1,\"x\":1}", "{\"id\":2,\"x\":2}"]);
        assert_eq!(a, d(["{\"id\":2,\"x\":2}", "{\"id\":1,\"x\":1}"]));
        assert_ne!(a, d(["{\"id\":1,\"x\":2}", "{\"id\":2,\"x\":1}"]));
    }

    #[test]
    fn outcomes_separate_exact_shed_and_failed() {
        assert_eq!(
            outcome("{\"id\":1,\"ok\":true,\"tier\":\"exact\",\"results\":[]}"),
            Outcome::Exact
        );
        assert_eq!(
            outcome("{\"id\":1,\"ok\":true,\"mutate\":{\"seq\":1}}"),
            Outcome::Exact
        );
        assert_eq!(
            outcome("{\"id\":1,\"ok\":true,\"tier\":\"half-factorized\"}"),
            Outcome::Failed
        );
        assert_eq!(
            outcome("{\"id\":1,\"ok\":false,\"error\":{\"code\":\"overloaded\",\"message\":\"\"}}"),
            Outcome::Shed
        );
        assert_eq!(
            outcome("{\"id\":1,\"ok\":false,\"error\":{\"code\":\"exhausted\"}}"),
            Outcome::Failed
        );
        assert_eq!(outcome("not json"), Outcome::Failed);
    }

    #[test]
    fn stretched_schedule_spans_the_phase() {
        let reqs: Vec<GenRequest> = [100u64, 300, 500]
            .iter()
            .map(|&t| GenRequest {
                arrival_offset_us: t,
                deadline_ms: None,
                line: String::new(),
            })
            .collect();
        assert_eq!(
            stretched_schedule(&reqs, 2.0),
            vec![0, 1_000_000, 2_000_000]
        );
    }
}
