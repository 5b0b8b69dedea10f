//! Serving-path workload generation, traffic capture and replay.
//!
//! Three pieces, wired together by `repsim bench serve`:
//!
//! 1. [`generate`] — a seeded, Zipf-skewed request mix (rank queries
//!    over one meta-walk, mutation churn, a deadline distribution) with
//!    exponential inter-arrival times. Same seed, same graph → the
//!    byte-identical request sequence, every time.
//! 2. [`run_requests`] — a client that drives the mix against a live
//!    server over one connection, pacing sends open-loop (at the
//!    recorded arrival offsets) or closed-loop (each send gated on the
//!    previous response), honouring `retry_after_ms` hints from
//!    `overloaded` sheds with the serve breaker's backoff discipline
//!    (doubling, deterministic xorshift64 jitter in `[0, wait/4]`),
//!    and optionally recording every admitted request to a
//!    [`repsim_serve::capture`] file.
//! 3. [`replay`] — re-runs a capture and reports latency quantiles,
//!    shed/degraded/exhausted rates and a FNV digest over the rank
//!    responses, so two replays of the same capture against fresh
//!    servers can assert bit-identical rankings (the paper's
//!    representation-stability claim, exercised end-to-end through the
//!    serving stack).
//!
//! Latency is measured per attempt (send → response line); retry
//! backoff waits are excluded. The digest covers successful rank
//! responses in request order — the transport keeps responses in
//! request order on a single connection, so the digest is
//! deterministic for a deterministic server.

use std::collections::BTreeMap;
use std::io::{BufRead as _, BufReader, Write as _};
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

use rand::Rng as _;
use repsim_datasets::rng::{seeded, ZipfSampler};
use repsim_graph::Graph;
use repsim_obs::json::{self, Json};
use repsim_obs::{CounterHandle, HistogramHandle};
use repsim_serve::capture::{self, CaptureWriter};

static REPLAY_SENT: CounterHandle = CounterHandle::new("repsim.bench.replay.sent");
static REPLAY_OK: CounterHandle = CounterHandle::new("repsim.bench.replay.ok");
static REPLAY_SHED: CounterHandle = CounterHandle::new("repsim.bench.replay.shed");
static REPLAY_RETRIES: CounterHandle = CounterHandle::new("repsim.bench.replay.retries");
static REPLAY_RETRY_EXHAUSTED: CounterHandle =
    CounterHandle::new("repsim.bench.replay.retry_exhausted");
static REPLAY_DEGRADED: CounterHandle = CounterHandle::new("repsim.bench.replay.degraded");
static REPLAY_EXHAUSTED: CounterHandle = CounterHandle::new("repsim.bench.replay.exhausted");
static REPLAY_LATENCY: HistogramHandle = HistogramHandle::new("repsim.bench.replay.latency_ns");

/// Knobs for [`generate`]. Defaults model a read-heavy cache-friendly
/// mix: Zipf-skewed queries, 10% mutation churn, a spread of deadlines.
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// Master seed: workload identity.
    pub seed: u64,
    /// Requests to generate.
    pub requests: usize,
    /// Mean arrival rate (requests/second) for the exponential
    /// inter-arrival process; `<= 0` means back-to-back arrivals.
    pub rate_per_s: f64,
    /// Zipf exponent over the source entities (0 = uniform).
    pub zipf_exponent: f64,
    /// Fraction of requests that are mutations (`0.0..=1.0`).
    pub mutate_ratio: f64,
    /// Deadline choices, sampled uniformly per request; empty = no
    /// per-request deadlines.
    pub deadlines_ms: Vec<u64>,
    /// Top-k for rank requests.
    pub k: usize,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            seed: 42,
            requests: 200,
            rate_per_s: 200.0,
            zipf_exponent: 1.0,
            mutate_ratio: 0.1,
            deadlines_ms: vec![100, 250, 1000],
            k: 5,
        }
    }
}

/// One generated (or replayed) request: when to send it and what to
/// send.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GenRequest {
    /// Microseconds after workload start this request is due.
    pub arrival_offset_us: u64,
    /// The deadline it carries (already encoded in `line` too; kept
    /// separate for the capture record).
    pub deadline_ms: Option<u64>,
    /// The request as one newline-delimited-JSON line (no newline).
    pub line: String,
}

/// Generates the request mix for `walk` over `g`. The walk's first
/// label is the query source (Zipf-skewed over its entities); mutation
/// churn cycles add-entity → add-edge → remove-edge between the walk's
/// first two labels so the graph returns to its starting shape.
pub fn generate(g: &Graph, walk: &str, cfg: &WorkloadConfig) -> Result<Vec<GenRequest>, String> {
    let labels: Vec<&str> = walk.split_whitespace().collect();
    let (&src, &partner) = match (labels.first(), labels.get(1)) {
        (Some(s), Some(p)) => (s, p),
        _ => return Err(format!("meta-walk {walk:?} needs at least two labels")),
    };
    let values_of = |name: &str| -> Result<Vec<String>, String> {
        let id = g
            .labels()
            .get(name)
            .ok_or_else(|| format!("label {name:?} not in the graph"))?;
        let vals: Vec<String> = g
            .nodes_of_label(id)
            .iter()
            .filter_map(|&n| g.value_of(n).map(str::to_owned))
            .collect();
        if vals.is_empty() {
            return Err(format!("label {name:?} has no entities"));
        }
        Ok(vals)
    };
    let src_values = values_of(src)?;
    let partner_values = values_of(partner)?;

    let mut rng = seeded(cfg.seed);
    let zipf = ZipfSampler::new(src_values.len(), cfg.zipf_exponent.max(0.0));
    let mut out = Vec::with_capacity(cfg.requests);
    let mut arrival_us = 0u64;
    // Mutation churn state: each churn event is a 3-request cycle over
    // one fresh entity so replays on a fresh server see the same
    // add/remove outcomes.
    let mut churn_phase = 0usize;
    let mut churn_epoch = 0usize;
    let mut churn_partner = String::new();
    for i in 0..cfg.requests {
        if cfg.rate_per_s > 0.0 {
            let u: f64 = rng.random_range(0.0..1.0);
            arrival_us += (-(1.0 - u).ln() * 1e6 / cfg.rate_per_s) as u64;
        }
        let deadline_ms = if cfg.deadlines_ms.is_empty() {
            None
        } else {
            Some(cfg.deadlines_ms[rng.random_range(0..cfg.deadlines_ms.len())])
        };
        let deadline_field = deadline_ms.map_or(String::new(), |d| format!(",\"deadline_ms\":{d}"));
        let id = i + 1;
        let mutate: bool = cfg.mutate_ratio > 0.0 && rng.random_range(0.0..1.0) < cfg.mutate_ratio;
        let line = if mutate {
            let fresh = format!("bench_{}_{}", cfg.seed, churn_epoch);
            let body = match churn_phase {
                0 => format!("\"action\":\"add_entity\",\"label\":\"{src}\",\"value\":\"{fresh}\""),
                1 => {
                    churn_partner =
                        partner_values[rng.random_range(0..partner_values.len())].clone();
                    format!(
                        "\"action\":\"add_edge\",\"a\":\"{src}:{fresh}\",\"b\":\"{partner}:{}\"",
                        churn_partner
                    )
                }
                _ => format!(
                    "\"action\":\"remove_edge\",\"a\":\"{src}:{fresh}\",\"b\":\"{partner}:{}\"",
                    churn_partner
                ),
            };
            if churn_phase == 2 {
                churn_epoch += 1;
            }
            churn_phase = (churn_phase + 1) % 3;
            format!("{{\"id\":{id},\"op\":\"mutate\",{body}{deadline_field}}}")
        } else {
            let value = &src_values[zipf.sample(&mut rng)];
            format!(
                "{{\"id\":{id},\"op\":\"rank\",\"walk\":\"{walk}\",\"label\":\"{src}\",\
                 \"value\":\"{value}\",\"k\":{}{deadline_field}}}",
                cfg.k
            )
        };
        out.push(GenRequest {
            arrival_offset_us: arrival_us,
            deadline_ms,
            line,
        });
    }
    Ok(out)
}

/// How the client paces its sends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Send each request at its recorded arrival offset (falling
    /// behind is counted, never made up by bursting).
    Open,
    /// Send each request as soon as the previous response arrives.
    Closed,
}

/// Client tuning for [`run_requests`].
#[derive(Clone, Debug)]
pub struct ClientOptions {
    /// Server address, `host:port`.
    pub addr: String,
    /// Pacing mode.
    pub mode: Mode,
    /// Seed for the deterministic retry jitter stream.
    pub jitter_seed: u64,
    /// Retries per request after an `overloaded` shed (0 = give up on
    /// the first shed).
    pub max_retries: u32,
    /// Backoff floor when the server's `retry_after_ms` hint is
    /// missing or smaller.
    pub retry_floor_ms: u64,
}

impl Default for ClientOptions {
    fn default() -> Self {
        ClientOptions {
            addr: String::new(),
            mode: Mode::Open,
            jitter_seed: 42,
            max_retries: 3,
            retry_floor_ms: 10,
        }
    }
}

/// What a workload run observed.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Request lines sent (first attempts; retries not included).
    pub sent: u64,
    /// Requests that got an `"ok":true` response (after retries).
    pub ok: u64,
    /// First attempts shed with `overloaded`.
    pub shed_first: u64,
    /// Retry attempts sent after sheds.
    pub retries: u64,
    /// Requests still shed after every allowed retry.
    pub retry_exhausted: u64,
    /// Requests rejected with budget exhaustion.
    pub exhausted: u64,
    /// Other error responses (bad request, WAL failure, …).
    pub errors: u64,
    /// Successful rank responses (subset of `ok`).
    pub rank_responses: u64,
    /// Rank responses per degradation tier (`"exact"`,
    /// `"half-factorized"`, `"prefix:…"`).
    pub tiers: BTreeMap<String, u64>,
    /// Open-loop sends that were already past their arrival offset.
    pub behind_schedule: u64,
    /// Wall-clock for the whole run.
    pub duration_us: u64,
    /// Per-success latency (send → response), microseconds, unsorted.
    pub latencies_us: Vec<u64>,
    /// FNV-1a over the successful rank response lines in request
    /// order; bit-identical rankings ⇒ equal digests.
    pub rank_digest: u64,
}

impl RunReport {
    /// Nearest-rank percentile over the run's latencies (µs).
    pub fn latency_percentile_us(&self, q: f64) -> u64 {
        let mut sorted = self.latencies_us.clone();
        sorted.sort_unstable();
        if sorted.is_empty() {
            return 0;
        }
        let rank =
            ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }
}

/// The serve breaker's xorshift64 step — the replay client's jitter
/// must come from the same generator family so recorded backoff
/// schedules are reproducible.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// The response's error code, if it is an error envelope.
fn error_code(resp: &Json) -> Option<String> {
    resp.get("error")?
        .get("code")
        .and_then(Json::as_str)
        .map(str::to_owned)
}

/// Drives `requests` against a live server on one connection,
/// returning what happened. With `record`, every admitted request
/// (anything that was not still `overloaded` after the retry budget)
/// is appended to the capture with its scheduled arrival offset.
pub fn run_requests(
    requests: &[GenRequest],
    opts: &ClientOptions,
    mut record: Option<&mut CaptureWriter>,
) -> std::io::Result<RunReport> {
    let stream = TcpStream::connect(&opts.addr)?;
    // One small line per round trip: without nodelay, Nagle + delayed
    // ACK add ~40ms of idle wire time to every request.
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    // One wire message per write: the line and its newline leave in one
    // segment. Reused across requests.
    let mut msg: Vec<u8> = Vec::new();
    let mut report = RunReport::default();
    let mut digest_bytes: Vec<u8> = Vec::new();
    let mut jitter_rng = opts.jitter_seed | 1;
    let start = Instant::now();

    for req in requests {
        if opts.mode == Mode::Open {
            let due = Duration::from_micros(req.arrival_offset_us);
            match due.checked_sub(start.elapsed()) {
                Some(wait) if !wait.is_zero() => std::thread::sleep(wait),
                _ => report.behind_schedule += 1,
            }
        }
        report.sent += 1;
        REPLAY_SENT.add(1);

        // Attempt loop: resend after overloaded sheds, with the
        // breaker's doubling-plus-jitter schedule seeded from the
        // server's retry_after_ms hint.
        let mut attempt = 0u32;
        let outcome = loop {
            let sent_at = Instant::now();
            msg.clear();
            msg.extend_from_slice(req.line.as_bytes());
            msg.push(b'\n');
            writer.write_all(&msg)?;
            writer.flush()?;
            let mut resp_line = String::new();
            if reader.read_line(&mut resp_line)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-run",
                ));
            }
            let latency = sent_at.elapsed();
            let resp = match json::parse(resp_line.trim_end()) {
                Ok(v) => v,
                Err(e) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("unparseable response {resp_line:?}: {e}"),
                    ))
                }
            };
            match error_code(&resp).as_deref() {
                Some("overloaded") => {
                    if attempt == 0 {
                        report.shed_first += 1;
                        REPLAY_SHED.add(1);
                    }
                    if attempt >= opts.max_retries {
                        report.retry_exhausted += 1;
                        REPLAY_RETRY_EXHAUSTED.add(1);
                        break false;
                    }
                    let hint = resp
                        .get("error")
                        .and_then(|e| e.get("retry_after_ms"))
                        .and_then(Json::as_num)
                        .map_or(0, |n| n as u64);
                    let backoff = hint
                        .max(opts.retry_floor_ms)
                        .saturating_mul(1u64 << attempt.min(16))
                        .min(5_000);
                    let jitter = if backoff >= 4 {
                        xorshift(&mut jitter_rng) % (backoff / 4 + 1)
                    } else {
                        0
                    };
                    std::thread::sleep(Duration::from_millis(backoff + jitter));
                    attempt += 1;
                    report.retries += 1;
                    REPLAY_RETRIES.add(1);
                    continue;
                }
                Some("exhausted") => {
                    report.exhausted += 1;
                    REPLAY_EXHAUSTED.add(1);
                    break true;
                }
                Some(_) => {
                    report.errors += 1;
                    break true;
                }
                None => {
                    report.ok += 1;
                    REPLAY_OK.add(1);
                    let latency_us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
                    report.latencies_us.push(latency_us);
                    REPLAY_LATENCY.record(u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX));
                    if let Some(tier) = resp.get("tier").and_then(Json::as_str) {
                        report.rank_responses += 1;
                        *report.tiers.entry(tier.to_owned()).or_insert(0) += 1;
                        if tier != "exact" {
                            REPLAY_DEGRADED.add(1);
                        }
                        digest_bytes.extend_from_slice(resp_line.trim_end().as_bytes());
                        digest_bytes.push(b'\n');
                    }
                    break true;
                }
            }
        };
        if outcome {
            if let Some(w) = record.as_deref_mut() {
                w.append(req.arrival_offset_us, req.deadline_ms, &req.line)
                    .map_err(|e| std::io::Error::other(e.to_string()))?;
            }
        }
    }
    report.duration_us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
    report.rank_digest = repsim_sparse::checksum(&digest_bytes);
    Ok(report)
}

/// Runs a generated workload against `opts.addr`, recording the
/// admitted requests to `capture_path`. Returns the run report and the
/// number of records written.
pub fn record(
    requests: &[GenRequest],
    seed: u64,
    opts: &ClientOptions,
    capture_path: &Path,
) -> Result<(RunReport, u64), String> {
    let mut writer = CaptureWriter::create(capture_path, seed).map_err(|e| e.to_string())?;
    let report = run_requests(requests, opts, Some(&mut writer)).map_err(|e| e.to_string())?;
    let written = writer.next_seq() - 1;
    writer.finish().map_err(|e| e.to_string())?;
    Ok((report, written))
}

/// Replays a capture against `opts.addr`. Returns the run report plus
/// the capture's seed and any damage the loader repaired.
pub fn replay(
    capture_path: &Path,
    opts: &ClientOptions,
) -> Result<(RunReport, capture::RecoveredCapture), String> {
    let recovered = capture::recover(capture_path).map_err(|e| e.to_string())?;
    let requests: Vec<GenRequest> = recovered
        .records
        .iter()
        .map(|r| GenRequest {
            arrival_offset_us: r.arrival_offset_us,
            deadline_ms: r.deadline_ms,
            line: r.line.clone(),
        })
        .collect();
    let report = run_requests(&requests, opts, None).map_err(|e| e.to_string())?;
    Ok((report, recovered))
}

/// Renders `BENCH_serve.json`. `label` names the run (`"record"`,
/// `"replay"`); the `p99_latency_us` field is the CI gate's tracked
/// figure.
pub fn report_json(label: &str, seed: u64, mode: Mode, report: &RunReport) -> String {
    let mut j = String::from("{\n");
    j.push_str(&format!("  \"run\": \"{label}\",\n"));
    j.push_str(&format!("  \"seed\": {seed},\n"));
    j.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        match mode {
            Mode::Open => "open",
            Mode::Closed => "closed",
        }
    ));
    j.push_str(&format!("  \"sent\": {},\n", report.sent));
    j.push_str(&format!("  \"ok\": {},\n", report.ok));
    j.push_str(&format!(
        "  \"rank_responses\": {},\n",
        report.rank_responses
    ));
    j.push_str(&format!(
        "  \"shed_first_attempt\": {},\n",
        report.shed_first
    ));
    j.push_str(&format!("  \"retries\": {},\n", report.retries));
    j.push_str(&format!(
        "  \"retry_exhausted\": {},\n",
        report.retry_exhausted
    ));
    j.push_str(&format!("  \"exhausted\": {},\n", report.exhausted));
    j.push_str(&format!("  \"errors\": {},\n", report.errors));
    j.push_str(&format!(
        "  \"behind_schedule\": {},\n",
        report.behind_schedule
    ));
    let secs = report.duration_us as f64 / 1e6;
    j.push_str(&format!("  \"duration_s\": {secs:.3},\n"));
    let rps = if secs > 0.0 {
        report.sent as f64 / secs
    } else {
        0.0
    };
    j.push_str(&format!("  \"throughput_rps\": {rps:.1},\n"));
    j.push_str("  \"tiers\": {");
    for (i, (tier, n)) in report.tiers.iter().enumerate() {
        if i > 0 {
            j.push_str(", ");
        }
        j.push_str(&format!("\"{tier}\": {n}"));
    }
    j.push_str("},\n");
    j.push_str(&format!(
        "  \"p50_latency_us\": {},\n",
        report.latency_percentile_us(0.50)
    ));
    j.push_str(&format!(
        "  \"p90_latency_us\": {},\n",
        report.latency_percentile_us(0.90)
    ));
    j.push_str(&format!(
        "  \"p99_latency_us\": {},\n",
        report.latency_percentile_us(0.99)
    ));
    j.push_str(&format!(
        "  \"rank_digest\": \"{:016x}\"\n",
        report.rank_digest
    ));
    j.push_str("}\n");
    j
}

/// Boots an in-process server over `g` on a free port, calls `f` with
/// its address, then shuts it down. The default when `repsim bench
/// serve` is given no `--addr`: every run gets a fresh server, which
/// is exactly what replay bit-identity needs.
pub fn with_local_server<T>(
    g: &Graph,
    queue_cap: usize,
    f: impl FnOnce(&str) -> T,
) -> Result<T, String> {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    static BOOT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "repsim-bench-serve-{}-{}",
        std::process::id(),
        BOOT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let port_file = dir.join("port");
    let cfg = repsim_serve::ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        queue_cap,
        port_file: Some(port_file.clone()),
        ..repsim_serve::ServeConfig::default()
    };
    let shutdown = AtomicBool::new(false);
    let deadline = Instant::now() + Duration::from_secs(10);
    let out = std::thread::scope(|s| {
        let (shutdown_ref, cfg_ref) = (&shutdown, &cfg);
        let server = s.spawn(move || repsim_serve::run(g, cfg_ref, shutdown_ref));
        let addr = loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                let text = text.trim().to_owned();
                if !text.is_empty() {
                    break Ok(text);
                }
            }
            if Instant::now() > deadline || server.is_finished() {
                break Err("server did not bind within 10s".to_owned());
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        let out = addr.map(|a| f(&a));
        shutdown.store(true, Ordering::SeqCst);
        out
    });
    let _ = std::fs::remove_dir_all(&dir);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use repsim_graph::GraphBuilder;

    /// The serve crate's MAS-like fixture: confs, papers, domains.
    fn mas_like() -> Graph {
        let mut b = GraphBuilder::new();
        let conf = b.entity_label("conf");
        let paper = b.entity_label("paper");
        let dom = b.entity_label("dom");
        let confs: Vec<_> = (0..3).map(|i| b.entity(conf, &format!("c{i}"))).collect();
        let doms: Vec<_> = (0..2).map(|i| b.entity(dom, &format!("d{i}"))).collect();
        for (i, (c, d)) in [(0, 0), (0, 1), (1, 0), (2, 1), (0, 0), (1, 1)]
            .iter()
            .enumerate()
        {
            let p = b.entity(paper, &format!("p{i}"));
            b.edge(p, confs[*c]).unwrap();
            b.edge(p, doms[*d]).unwrap();
        }
        b.build()
    }

    fn quick_cfg() -> WorkloadConfig {
        WorkloadConfig {
            seed: 7,
            requests: 40,
            rate_per_s: 0.0,
            zipf_exponent: 1.0,
            mutate_ratio: 0.25,
            deadlines_ms: vec![250],
            k: 3,
        }
    }

    #[test]
    fn generation_is_seed_deterministic() {
        let g = mas_like();
        let cfg = quick_cfg();
        let a = generate(&g, "conf paper dom", &cfg).unwrap();
        let b = generate(&g, "conf paper dom", &cfg).unwrap();
        assert_eq!(a, b);
        let other = generate(
            &g,
            "conf paper dom",
            &WorkloadConfig {
                seed: 8,
                ..quick_cfg()
            },
        )
        .unwrap();
        assert_ne!(a, other, "different seed, different workload");
    }

    #[test]
    fn generation_mixes_ranks_and_mutation_churn() {
        let g = mas_like();
        let reqs = generate(&g, "conf paper dom", &quick_cfg()).unwrap();
        let ranks = reqs.iter().filter(|r| r.line.contains("\"rank\"")).count();
        let mutates = reqs
            .iter()
            .filter(|r| r.line.contains("\"mutate\""))
            .count();
        assert_eq!(ranks + mutates, reqs.len());
        assert!(ranks > 0 && mutates > 0, "{ranks} ranks, {mutates} mutates");
        // Churn is well-formed: every add_edge names the entity the
        // preceding add_entity created.
        assert!(reqs.iter().any(|r| r.line.contains("add_entity")));
        for r in &reqs {
            assert!(r.line.contains("\"deadline_ms\":250"), "{}", r.line);
        }
        // Arrival offsets are monotone (zero rate → all zero).
        assert!(reqs
            .windows(2)
            .all(|w| w[0].arrival_offset_us <= w[1].arrival_offset_us));
    }

    #[test]
    fn unknown_labels_are_errors() {
        let g = mas_like();
        assert!(generate(&g, "venue paper", &quick_cfg()).is_err());
        assert!(generate(&g, "conf", &quick_cfg()).is_err());
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let report = RunReport {
            latencies_us: (1..=100).rev().collect(),
            ..RunReport::default()
        };
        assert_eq!(report.latency_percentile_us(0.50), 50);
        assert_eq!(report.latency_percentile_us(0.99), 99);
        assert_eq!(report.latency_percentile_us(1.0), 100);
        assert_eq!(RunReport::default().latency_percentile_us(0.5), 0);
    }

    #[test]
    fn record_then_replay_twice_is_bit_identical() {
        let g = mas_like();
        let cfg = WorkloadConfig {
            seed: 11,
            requests: 30,
            rate_per_s: 0.0,
            zipf_exponent: 1.0,
            mutate_ratio: 0.2,
            deadlines_ms: vec![],
            k: 3,
        };
        let reqs = generate(&g, "conf paper dom", &cfg).unwrap();
        let dir = std::env::temp_dir().join(format!("repsim-bench-e2e-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cap = dir.join("t.rsimcap");

        let (rec_report, written) = with_local_server(&g, 64, |addr| {
            let opts = ClientOptions {
                addr: addr.to_owned(),
                mode: Mode::Closed,
                ..ClientOptions::default()
            };
            record(&reqs, cfg.seed, &opts, &cap)
        })
        .unwrap()
        .unwrap();
        assert_eq!(rec_report.sent, 30);
        assert_eq!(written, 30, "uncontended run admits everything");
        assert!(rec_report.rank_responses > 0);

        let mut digests = Vec::new();
        for _ in 0..2 {
            let (rep, recovered) = with_local_server(&g, 64, |addr| {
                let opts = ClientOptions {
                    addr: addr.to_owned(),
                    mode: Mode::Closed,
                    ..ClientOptions::default()
                };
                replay(&cap, &opts)
            })
            .unwrap()
            .unwrap();
            assert_eq!(recovered.seed, 11);
            assert_eq!(recovered.records.len(), 30);
            assert_eq!(rep.ok + rep.exhausted + rep.errors, 30);
            digests.push(rep.rank_digest);
        }
        assert_eq!(
            digests[0], digests[1],
            "same capture, fresh servers: rank responses must be bit-identical"
        );
        assert_eq!(
            digests[0], rec_report.rank_digest,
            "replay reproduces the recorded rankings"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn report_json_carries_the_gate_figure() {
        let mut report = RunReport {
            sent: 10,
            ok: 9,
            rank_responses: 8,
            shed_first: 1,
            retries: 2,
            latencies_us: vec![100, 200, 300],
            rank_digest: 0xabcd,
            duration_us: 1_000_000,
            ..RunReport::default()
        };
        report.tiers.insert("exact".to_owned(), 8);
        let j = report_json("replay", 11, Mode::Open, &report);
        let v = json::parse(&j).unwrap();
        assert_eq!(v.get("p99_latency_us").and_then(Json::as_num), Some(300.0));
        assert_eq!(
            v.get("rank_digest").and_then(Json::as_str),
            Some("000000000000abcd")
        );
        assert_eq!(v.get("retries").and_then(Json::as_num), Some(2.0));
        assert_eq!(
            v.get("shed_first_attempt").and_then(Json::as_num),
            Some(1.0)
        );
        assert_eq!(
            v.get("tiers")
                .and_then(|t| t.get("exact"))
                .and_then(Json::as_num),
            Some(8.0)
        );
    }
}
