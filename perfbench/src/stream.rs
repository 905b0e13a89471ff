//! The admission stream: the load generator's arrival process replayed
//! through an `EpochRunner` by one closed-loop client, then audited against
//! Definition 2.1.

use std::collections::BTreeSet;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use tvnep_core::ServiceOptions;
use tvnep_graph::{grid, star, NodeId, StarDirection};
use tvnep_harness::format::RequestDoc;
use tvnep_mip::MipOptions;
use tvnep_model::{
    verify_with_tol, Instance, Request, ScheduledRequest, Substrate, TemporalSolution, Violation,
    VERIFY_TOL,
};
use tvnep_serve::protocol::request_from_doc;
use tvnep_serve::{DecisionRecord, EpochRunner, ServeOptions};
use tvnep_telemetry::Telemetry;
use tvnep_workloads::{rng::Rng, WorkloadConfig};

use crate::host::{peak_rss_mb, HostWatch};
use crate::report::{median, median_of_means, ms, percentile, Ledger, Report};

/// Parameters of the arrival process (those of `tvnep-cli load`).
#[derive(Debug, Clone)]
pub struct StreamConfig {
    pub seed: u64,
    /// Mean arrivals per simulated hour. It sets contention (live
    /// reservations), not offered wall-clock load.
    pub rate: f64,
    /// Length of the arrival window, simulated hours.
    pub duration: f64,
    /// Temporal flexibility added to every request's window, hours.
    pub flex: f64,
    pub epoch_size: usize,
    /// Per-admission branch-and-bound node budget.
    pub node_budget: u64,
    pub max_pending: usize,
}

/// The benchmarked stream: tiny preset, 1,012 arrivals.
pub const ADMISSION_STREAM: StreamConfig = StreamConfig {
    seed: 7,
    rate: 4.0,
    duration: 250.0,
    flex: 2.0,
    epoch_size: 3,
    node_budget: 200_000,
    max_pending: 1024,
};

/// Epochs between two timed set-up phases during the replay (~340 epochs,
/// so ~43 phases per replay).
const SETUP_EVERY: u64 = 8;

/// Consecutive set-up phases per group (~64 epochs, a few seconds of
/// replay); `setup_s` is the median over groups of their mean.
const SETUP_GROUP: usize = 8;

/// A synthesized arrival stream with its substrate and horizon.
pub struct Stream {
    pub substrate: Substrate,
    pub horizon: f64,
    pub arrivals: Vec<(RequestDoc, Vec<usize>)>,
}

/// One synthetic arrival, drawn exactly as the load generator draws it.
fn arrival(
    i: usize,
    at: f64,
    cfg: &StreamConfig,
    w: &WorkloadConfig,
    rng: &mut Rng,
    hosts: usize,
) -> (RequestDoc, Vec<usize>) {
    let duration = rng.weibull(w.weibull_scale, w.weibull_shape).max(0.25);
    let direction = if rng.chance(0.5) {
        StarDirection::TowardsCenter
    } else {
        StarDirection::AwayFromCenter
    };
    let graph = star(w.star_leaves, direction);
    let node_demands: Vec<f64> = (0..graph.num_nodes())
        .map(|_| rng.range_f64(w.demand_range.0, w.demand_range.1))
        .collect();
    let edge_demands: Vec<f64> = (0..graph.num_edges())
        .map(|_| rng.range_f64(w.demand_range.0, w.demand_range.1))
        .collect();
    let mapping: Vec<usize> = (0..graph.num_nodes()).map(|_| rng.below(hosts)).collect();
    let edges = graph
        .edge_ids()
        .map(|e| {
            let (a, b) = graph.endpoints(e);
            [a.0, b.0]
        })
        .collect();
    let doc = RequestDoc {
        name: format!("L{i}"),
        num_nodes: graph.num_nodes(),
        edges,
        node_demands,
        edge_demands,
        earliest_start: at,
        latest_end: at + duration + cfg.flex,
        duration,
    };
    (doc, mapping)
}

/// Synthesizes the whole stream on the tiny preset's substrate: Poisson
/// arrivals, Weibull durations, star requests, a-priori random mappings.
pub fn synthesize(cfg: &StreamConfig) -> Stream {
    let w = WorkloadConfig::tiny();
    let mut rng = Rng::new(cfg.seed);
    let substrate = Substrate::uniform(
        grid(w.grid_rows, w.grid_cols),
        w.node_capacity,
        w.edge_capacity,
    );
    let mut arrivals = Vec::new();
    let mean = 1.0 / cfg.rate;
    let mut at = rng.exp(mean);
    while at <= cfg.duration {
        arrivals.push(arrival(
            arrivals.len(),
            at,
            cfg,
            &w,
            &mut rng,
            substrate.num_nodes(),
        ));
        at += rng.exp(mean);
    }
    let horizon = arrivals
        .iter()
        .map(|(d, _)| d.latest_end)
        .fold(0.0f64, f64::max)
        + 1.0;
    Stream {
        substrate,
        horizon,
        arrivals,
    }
}

/// Service options of the stream: node budget only, so every decision is a
/// pure function of the stream.
pub fn serve_options(cfg: &StreamConfig, telemetry: Telemetry) -> ServeOptions {
    ServeOptions {
        service: ServiceOptions {
            subproblem: MipOptions {
                node_limit: Some(cfg.node_budget),
                telemetry,
                threads: 1,
                ..MipOptions::default()
            },
            ..ServiceOptions::default()
        },
        epoch_size: cfg.epoch_size,
        max_pending: cfg.max_pending,
        deadline: None,
        keep_log: true,
        slo: None,
        fault_panic_epoch: None,
    }
}

/// What one replay of the stream measured.
pub struct Replay {
    /// Submit-to-decision latency of every decided request, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Submissions the runner refused.
    pub shed: u64,
    /// Arrival index of every acknowledged submission, indexed by the id the
    /// runner gave it (refused submissions consume no id).
    pub arrivals_by_id: Vec<usize>,
    /// Time inside `submit` calls.
    pub submit: Duration,
    /// Time inside `run_epoch` calls.
    pub epoch: Duration,
    /// First submit to the return of the last epoch.
    pub wall: Duration,
}

/// Replays the stream as one closed-loop client: it submits until an epoch
/// is due, then runs the epoch and waits for its decisions, so one epoch of
/// submissions is outstanding at a time. A request's latency runs from its
/// `submit` call to the return of the `run_epoch` that decides it.
///
/// `between(k)` runs after the k-th epoch returns and before the next
/// submission; its time is excluded from the replay's wall time and from
/// every latency.
pub fn replay(
    stream: &Stream,
    runner: &mut EpochRunner,
    mut between: impl FnMut(u64) -> io::Result<()>,
) -> io::Result<Replay> {
    let mut out = Replay {
        latencies_ms: Vec::with_capacity(stream.arrivals.len()),
        shed: 0,
        arrivals_by_id: Vec::with_capacity(stream.arrivals.len()),
        submit: Duration::ZERO,
        epoch: Duration::ZERO,
        wall: Duration::ZERO,
    };
    let mut outstanding: Vec<Instant> = Vec::new();
    let mut excluded = Duration::ZERO;
    let mut epochs = 0u64;
    let start = Instant::now();
    for (i, (doc, mapping)) in stream.arrivals.iter().enumerate() {
        let (doc, mapping) = (doc.clone(), mapping.clone());
        let t = Instant::now();
        let queued = runner.submit(doc, mapping)?;
        out.submit += t.elapsed();
        match queued {
            Ok(id) => {
                debug_assert_eq!(id as usize, out.arrivals_by_id.len());
                out.arrivals_by_id.push(i);
                outstanding.push(t);
            }
            Err(_) => out.shed += 1,
        }
        if runner.epoch_due() {
            close_epoch(runner, &mut out, &mut outstanding)?;
            epochs += 1;
            let t = Instant::now();
            between(epochs)?;
            excluded += t.elapsed();
        }
    }
    close_epoch(runner, &mut out, &mut outstanding)?;
    out.wall = start.elapsed() - excluded;
    Ok(out)
}

/// Runs the due epoch and stamps the latency of every request it decides.
fn close_epoch(
    runner: &mut EpochRunner,
    out: &mut Replay,
    outstanding: &mut Vec<Instant>,
) -> io::Result<()> {
    let t = Instant::now();
    runner.run_epoch()?;
    let done = Instant::now();
    out.epoch += done - t;
    out.latencies_ms
        .extend(outstanding.drain(..).map(|s| ms(done - s)));
    Ok(())
}

/// The end-of-run Definition 2.1 audit of every decision.
pub struct Audit {
    pub violations: Vec<Violation>,
    /// Ids of the decisions the violations implicate.
    pub implicated: BTreeSet<u64>,
}

/// Replays the decided schedules over the original windows on the shared
/// substrate and verifies them. A per-request violation implicates that
/// request's decision; a capacity violation implicates the latest-decided
/// accepted request that loads the resource at that time, the admission
/// that over-committed it.
pub fn audit(stream: &Stream, arrivals_by_id: &[usize], log: &[DecisionRecord]) -> Audit {
    let mut log: Vec<&DecisionRecord> = log.iter().collect();
    log.sort_by_key(|r| r.id);
    let mut requests: Vec<Request> = Vec::with_capacity(log.len());
    let mut mappings = Vec::with_capacity(log.len());
    let mut scheduled = Vec::with_capacity(log.len());
    for rec in &log {
        let (doc, mapping) = &stream.arrivals[arrivals_by_id[rec.id as usize]];
        requests.push(request_from_doc(doc).expect("synthesized requests are valid"));
        mappings.push(mapping.iter().map(|&n| NodeId(n)).collect());
        scheduled.push(ScheduledRequest {
            accepted: rec.accepted,
            start: rec.start,
            end: rec.end,
            embedding: rec.embedding.clone(),
        });
    }
    if requests.is_empty() {
        return Audit {
            violations: Vec::new(),
            implicated: BTreeSet::new(),
        };
    }
    let instance = Instance::new(
        stream.substrate.clone(),
        requests,
        stream.horizon,
        Some(mappings),
    );
    let solution = TemporalSolution {
        scheduled,
        reported_objective: None,
    };
    let violations = verify_with_tol(&instance, &solution, VERIFY_TOL);

    // The latest decision among the accepted requests active at `t` whose
    // allocation on the resource is positive.
    let culprit = |t: f64, load: &dyn Fn(usize) -> f64| {
        (0..log.len())
            .filter(|&i| {
                let s = &solution.scheduled[i];
                s.accepted && s.start < t && t < s.end && load(i) > 0.0
            })
            .map(|i| log[i].id)
            .max()
    };
    let mut implicated = BTreeSet::new();
    for v in &violations {
        let id = match v {
            Violation::ShapeMismatch => None,
            Violation::WrongDuration { request }
            | Violation::OutsideWindow { request }
            | Violation::MissingEmbedding { request }
            | Violation::FlowConservation { request, .. }
            | Violation::FlowRange { request, .. } => Some(log[*request].id),
            Violation::NodeCapacity { node, time, .. } => culprit(*time, &|i| {
                solution.scheduled[i]
                    .embedding
                    .as_ref()
                    .map_or(0.0, |e| e.node_allocation(&instance.requests[i], *node))
            }),
            Violation::EdgeCapacity { edge, time, .. } => culprit(*time, &|i| {
                solution.scheduled[i]
                    .embedding
                    .as_ref()
                    .map_or(0.0, |e| e.edge_allocation(&instance.requests[i], *edge))
            }),
        };
        implicated.extend(id);
    }
    Audit {
        violations,
        implicated,
    }
}

/// Removes a leftover journal so the next runner starts a fresh one.
fn remove_wal(path: &Path) -> io::Result<()> {
    match std::fs::remove_file(path) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

/// The set-up phase of the stream: synthesis plus `EpochRunner::new` with
/// WAL creation at `wal`. Appends the phase's wall time to `phases`, and
/// returns the runner with the telemetry its admissions report into.
fn timed_setup(
    cfg: &StreamConfig,
    wal: &Path,
    ledger: &mut Ledger,
    phases: &mut Vec<f64>,
) -> io::Result<(Stream, EpochRunner, Telemetry)> {
    remove_wal(wal)?;
    let telemetry = Telemetry::metrics_only();
    let t = Instant::now();
    let stream = ledger.time("workloads.synth", || synthesize(cfg));
    let runner = ledger.time("serve.new", || {
        EpochRunner::new(
            stream.substrate.clone(),
            stream.horizon,
            serve_options(cfg, telemetry.clone()),
            Some(wal),
        )
    })?;
    phases.push(t.elapsed().as_secs_f64());
    Ok((stream, runner, telemetry))
}

/// Sets up, then replays the stream, timing one more set-up phase (with a
/// journal of its own) after every `SETUP_EVERY` epochs, so `setup_s` sees
/// the same host as the replay does.
fn setup_and_replay(
    cfg: &StreamConfig,
    workdir: &Path,
    ledger: &mut Ledger,
    phases: &mut Vec<f64>,
) -> io::Result<(Stream, EpochRunner, Telemetry, Replay)> {
    let (stream, mut runner, telemetry) =
        timed_setup(cfg, &workdir.join("admission.wal.jsonl"), ledger, phases)?;
    let side = workdir.join("setup.wal.jsonl");
    let r = replay(&stream, &mut runner, |epochs| {
        if epochs % SETUP_EVERY == 0 {
            drop(timed_setup(cfg, &side, ledger, phases)?);
        }
        Ok(())
    })?;
    remove_wal(&side)?;
    Ok((stream, runner, telemetry, r))
}

/// Exact counts of one replay: identical on every run of the same code.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    nodes: u64,
    iterations: u64,
    refactorizations: u64,
    dual_fallbacks: u64,
    decisions: u64,
    accepted: u64,
}

fn fingerprint(runner: &EpochRunner, telemetry: &Telemetry, report: &mut Report) -> Fingerprint {
    let snap = telemetry.snapshot();
    let stats = runner.stats();
    let f = Fingerprint {
        nodes: snap.counter("mip.nodes"),
        iterations: snap.counter("lp.iterations"),
        refactorizations: snap.counter("lp.refactorizations"),
        dual_fallbacks: snap.counter("lp.dual_fallbacks"),
        decisions: stats.decided,
        accepted: stats.accepted,
    };
    let logged: u64 = runner.decision_log().iter().map(|r| r.nodes).sum();
    if logged != f.nodes {
        report.broken(format!(
            "decision log holds {logged} nodes, telemetry counted {}",
            f.nodes
        ));
    }
    f
}

fn describe(f: &Fingerprint, report: &mut Report) {
    report.line(format!(
        "fingerprint: mip.nodes={} lp.iterations={} lp.refactorizations={} lp.dual_fallbacks={} \
         decisions={} accepted={}",
        f.nodes, f.iterations, f.refactorizations, f.dual_fallbacks, f.decisions, f.accepted
    ));
}

/// Counts the stream's operations (submissions) and the failed ones: shed
/// submissions and decisions the audit implicates.
fn account(stream: &Stream, runner: &EpochRunner, r: &Replay, report: &mut Report) -> Audit {
    let audit = audit(stream, &r.arrivals_by_id, runner.decision_log());
    report.attempted += stream.arrivals.len() as u64;
    report.failed += r.shed + audit.implicated.len() as u64;
    for v in &audit.violations {
        report.line(format!("VIOLATION {v:?}"));
    }
    if !audit.implicated.is_empty() {
        report.line(format!("FAILED decisions (audit): {:?}", audit.implicated));
    } else if !audit.violations.is_empty() {
        report.broken("the audit's violations implicate no decision");
    }
    if r.shed > 0 {
        report.line(format!("FAILED: {} submission(s) shed", r.shed));
    }
    audit
}

/// One untraced run: end-to-end metrics. The stream is replayed, each time
/// on a fresh runner and journal, until the next replay would end more than
/// half a replay past `seconds`; latencies are pooled. Three requests share
/// an epoch's return time, so one replay's p99 rests on ~4 epochs; more
/// replays steady it.
pub fn run(workdir: &Path, seconds: f64) -> io::Result<Report> {
    let cfg = &ADMISSION_STREAM;
    let mut report = Report::default();
    let watch = HostWatch::start();
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut phases = Vec::new();
    let mut latencies = Vec::new();
    let mut walls = Vec::new();
    let mut replays = 0u32;
    let mut first: Option<Fingerprint> = None;
    loop {
        let (stream, runner, telemetry, r) =
            setup_and_replay(cfg, workdir, &mut Ledger::off(), &mut phases)?;
        let f = fingerprint(&runner, &telemetry, &mut report);
        account(&stream, &runner, &r, &mut report);
        latencies.extend_from_slice(&r.latencies_ms);
        walls.push(r.wall.as_secs_f64());
        replays += 1;
        match &first {
            None => {
                describe(&f, &mut report);
                first = Some(f);
            }
            Some(first) if *first != f => report.broken(format!(
                "exact counts differ between replays: {first:?} then {f:?}"
            )),
            Some(_) => {}
        }
        if start.elapsed() + r.wall / 2 > budget {
            break;
        }
    }
    let f = first.expect("at least one replay");
    let wall: f64 = walls.iter().sum();

    let (p50, beyond50) = percentile(&latencies, 0.50);
    let (p99, beyond99) = percentile(&latencies, 0.99);
    report.line(format!(
        "latency samples={} p50={p50:.3} ms ({beyond50} beyond) p99={p99:.3} ms ({beyond99} beyond) \
         replays={replays} replay wall_s={walls:.3?} setup phases timed={}",
        latencies.len(),
        phases.len()
    ));
    if beyond99 < 10 {
        report.broken(format!("p99 has only {beyond99} samples beyond it"));
    }
    let decisions = f64::from(replays) * f.decisions as f64;
    report.e2e("setup_s", median_of_means(&phases, SETUP_GROUP), "s");
    report.e2e("solve_s", median(&walls), "s");
    report.e2e("decisions_per_s", decisions / wall, "1/s");
    report.e2e("latency_p50_ms", p50, "ms");
    report.e2e("latency_p99_ms", p99, "ms");
    report.e2e(
        "acceptance_ratio",
        f.accepted as f64 / f.decisions as f64,
        "ratio",
    );
    report.e2e("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MiB");
    let (_, _, host) = watch.finish();
    report.line(host);
    Ok(report)
}

/// One traced run: the stream once untraced, then once with every call
/// into a layer timed. Per-layer metrics come from the second replay.
pub fn run_traced(workdir: &Path) -> io::Result<Report> {
    let cfg = &ADMISSION_STREAM;
    let mut report = Report::default();
    let watch = HostWatch::start();

    let (stream, runner, telemetry, untraced) =
        setup_and_replay(cfg, workdir, &mut Ledger::off(), &mut Vec::new())?;
    let first = fingerprint(&runner, &telemetry, &mut report);
    account(&stream, &runner, &untraced, &mut report);
    drop(runner);

    let mut ledger = Ledger::on();
    let t = Instant::now();
    let mut phases = Vec::new();
    let (stream, runner, telemetry, r) = setup_and_replay(cfg, workdir, &mut ledger, &mut phases)?;
    ledger.add("serve.submit", r.submit);
    ledger.add("serve.epoch", r.epoch);
    let audit = ledger.time("model.verify", || {
        account(&stream, &runner, &r, &mut report)
    });
    let wall = t.elapsed();

    let f = fingerprint(&runner, &telemetry, &mut report);
    describe(&f, &mut report);
    if f != first {
        report.broken(format!(
            "exact counts differ between replays: {first:?} then {f:?}"
        ));
    }
    let admit: Duration = runner.decision_log().iter().map(|d| d.runtime).sum();
    let admit_s = admit.as_secs_f64();
    let reps = phases.len() as f64;
    report.layer(
        "workloads.generate_ms",
        ms(ledger.get("workloads.synth")) / reps,
        "ms",
    );
    report.layer("serve.new_ms", ms(ledger.get("serve.new")) / reps, "ms");
    report.layer("serve.submit_ms", ms(r.submit), "ms");
    report.layer("serve.epoch_ms", ms(r.epoch), "ms");
    report.layer("core.admit_ms", ms(admit), "ms");
    // The service times its admissions as a whole: the subproblem's
    // `build_model` and its B&B cannot be told apart from outside.
    report.layer("mip.solve_ms", ms(admit), "ms");
    report.layer("serve.epoch_overhead_ms", ms(r.epoch) - ms(admit), "ms");
    report.layer("serve.wal_records", runner.wal_records() as f64, "count");
    report.layer("lp.iterations", f.iterations as f64, "count");
    report.layer("lp.refactorizations", f.refactorizations as f64, "count");
    report.layer("lp.dual_fallbacks", f.dual_fallbacks as f64, "count");
    report.layer("lp.iters_per_s", f.iterations as f64 / admit_s, "1/s");
    report.layer(
        "lp.iters_per_refactor",
        f.iterations as f64 / f.refactorizations.max(1) as f64,
        "count",
    );
    report.layer("mip.nodes", f.nodes as f64, "count");
    report.layer("mip.nodes_per_s", f.nodes as f64 / admit_s, "1/s");
    report.layer("model.verify_ms", ms(ledger.get("model.verify")), "ms");
    report.layer("model.violations", audit.violations.len() as f64, "count");
    report.layer(
        "trace.overhead_pct",
        100.0 * (r.wall.as_secs_f64() / untraced.wall.as_secs_f64() - 1.0),
        "%",
    );
    let residual = ledger.reconcile(wall, &mut report);
    report.layer("trace.residual_pct", residual, "%");
    let (probe, steal, host) = watch.finish();
    report.line(host);
    report.layer("host.probe_ms", probe, "ms");
    report.layer("host.steal_ms", steal, "ms");
    Ok(report)
}
