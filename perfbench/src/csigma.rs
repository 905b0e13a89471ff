//! The `csigma_exact` workload: fixed (seed, flex) cells of the Figure 3
//! sweep, each generated, built and solved to proven optimality under the
//! cΣ model, every solution checked against Definition 2.1 and a recorded
//! reference objective.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tvnep_core::{build_model, BuildOptions, BuiltModel, Formulation, Objective};
use tvnep_mip::{solve_with, MipOptions, MipResult, MipStatus, ProgressFn};
use tvnep_model::tol::{obj_eq, obj_le, VERIFY_TOL};
use tvnep_model::{verify_with_tol, Instance};
use tvnep_telemetry::Telemetry;
use tvnep_workloads::{generate, rng::Rng, WorkloadConfig};

use crate::host::{peak_rss_mb, HostWatch};
use crate::report::{median, median_of_means, ms, percentile, Ledger, Report};

/// One cell of the flexibility sweep on `WorkloadConfig::small()`.
struct Cell {
    seed: u64,
    flex: f64,
    /// The cell's optimal access-control revenue, recorded from an exact
    /// `tvnep-cli solve --formulation csigma` run.
    optimum: f64,
}

/// 91, 221 and 204 B&B nodes. The LPs are small (~35 pivots per
/// refactorization), so node throughput and the primal heuristic carry the
/// time. The 389-node cell (7, 1) is left out: a pass with it took ~11 s.
const CELLS: [Cell; 3] = [
    Cell {
        seed: 7,
        flex: 0.5,
        optimum: 22.802982182306607,
    },
    Cell {
        seed: 1,
        flex: 1.0,
        optimum: 23.48531430764978,
    },
    Cell {
        seed: 3,
        flex: 1.5,
        optimum: 44.382255107843875,
    },
];

/// Set-up phases (generate and build every cell) timed before each cell
/// solve. Spread over the run, they see the same host as `solve_s` does;
/// `setup_s` is the median over passes of their mean.
const SETUPS_PER_SOLVE: usize = 15;
const SETUPS_PER_PASS: usize = SETUPS_PER_SOLVE * CELLS.len();

/// A generated instance and its model, ready to solve.
struct Prepared {
    instance: Instance,
    built: BuiltModel,
}

/// The exact counts of one cell solve. At threads=1 they repeat exactly
/// across passes, runs and seeds; a difference means the work changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Counts {
    nodes: u64,
    iterations: u64,
    refactorizations: u64,
    dual_fallbacks: u64,
    /// Requests the optimal solution accepts.
    accepted: u64,
}

struct Pass {
    wall: Duration,
    solve: Duration,
    /// Per-cell solve time, in `CELLS` order.
    cell_solve: [Duration; CELLS.len()],
    /// Wall time of every B&B node of every solve, milliseconds.
    node_ms: Vec<f64>,
    /// Per-cell counts, in `CELLS` order.
    counts: [Counts; CELLS.len()],
    violations: u64,
}

impl Pass {
    fn totals(&self) -> Counts {
        let mut t = Counts::default();
        for c in &self.counts {
            t.nodes += c.nodes;
            t.iterations += c.iterations;
            t.refactorizations += c.refactorizations;
            t.dual_fallbacks += c.dual_fallbacks;
            t.accepted += c.accepted;
        }
        t
    }
}

/// The seed only permutes the order in which the fixed cells are set up and
/// solved: the work, and so every exact count, is the same for every seed.
fn cell_order(seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..CELLS.len()).collect();
    let mut rng = Rng::new(seed);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

/// One timed set-up phase: generates and builds every cell, in `order`,
/// appending the phase's wall time to `phases`. Returns the prepared cells
/// in `CELLS` order.
fn setup(order: &[usize], ledger: &mut Ledger, phases: &mut Vec<f64>) -> Vec<Prepared> {
    let t = Instant::now();
    let cfg = WorkloadConfig::small();
    let mut prepared: Vec<Option<Prepared>> = (0..CELLS.len()).map(|_| None).collect();
    for &i in order {
        let c = &CELLS[i];
        let instance = ledger.time("workloads.generate", || {
            generate(&cfg, c.seed).with_flexibility_after(c.flex)
        });
        let built = ledger.time("core.build", || {
            build_model(
                &instance,
                Formulation::CSigma,
                Objective::AccessControl,
                BuildOptions::default_for(Formulation::CSigma),
            )
        });
        prepared[i] = Some(Prepared { instance, built });
    }
    phases.push(t.elapsed().as_secs_f64());
    prepared
        .into_iter()
        .map(|p| p.expect("the order visits every cell"))
        .collect()
}

/// A progress callback, invoked as each B&B node opens, that stamps the
/// time into `marks`.
fn node_clock(marks: &Arc<Mutex<Vec<Instant>>>) -> ProgressFn {
    let marks = Arc::clone(marks);
    Arc::new(move |_| marks.lock().expect("node clock").push(Instant::now()))
}

/// Splits the solve `[start, end]` at the node openings after the first:
/// one interval per node, the first also holding the solver's set-up, the
/// last its wind-down. The intervals sum to the solve's wall time.
fn node_latencies_ms(start: Instant, opened: &[Instant], end: Instant) -> Vec<f64> {
    let mut cuts = Vec::with_capacity(opened.len() + 1);
    cuts.push(start);
    cuts.extend(opened.iter().skip(1));
    cuts.push(end);
    cuts.windows(2).map(|w| ms(w[1] - w[0])).collect()
}

/// Checks one solve against the cell's reference; returns what is wrong.
/// The access-control objective maximizes, so a sound bound is at least the
/// optimum.
fn check(cell: &Cell, res: &MipResult, violations: usize) -> Option<String> {
    if res.status != MipStatus::Optimal {
        return Some(format!("status {}", res.status.as_str()));
    }
    if violations > 0 {
        return Some(format!("{violations} Definition 2.1 violation(s)"));
    }
    if !obj_le(cell.optimum, res.best_bound) {
        return Some(format!(
            "bound {} cuts off the optimum {}",
            res.best_bound, cell.optimum
        ));
    }
    match res.objective {
        None => Some("optimal without an incumbent".into()),
        Some(obj) if !obj_eq(obj, cell.optimum) => Some(format!(
            "objective {obj} differs from the reference {}",
            cell.optimum
        )),
        Some(_) => None,
    }
}

/// Solves and checks every cell once, in `order`, timing
/// `SETUPS_PER_SOLVE` set-up phases before each solve. Every solve reports
/// each node it opens, so the pass also yields per-node wall times.
fn pass(
    prepared: &[Prepared],
    order: &[usize],
    ledger: &mut Ledger,
    phases: &mut Vec<f64>,
    report: &mut Report,
) -> Pass {
    let t = Instant::now();
    let mut out = Pass {
        wall: Duration::ZERO,
        solve: Duration::ZERO,
        cell_solve: [Duration::ZERO; CELLS.len()],
        node_ms: Vec::new(),
        counts: [Counts::default(); CELLS.len()],
        violations: 0,
    };
    for &i in order {
        for _ in 0..SETUPS_PER_SOLVE {
            drop(setup(order, ledger, phases));
        }
        let (cell, p) = (&CELLS[i], &prepared[i]);
        let telemetry = Telemetry::metrics_only();
        let marks = Arc::new(Mutex::new(Vec::new()));
        let opts = MipOptions {
            telemetry: telemetry.clone(),
            threads: 1,
            log_every: Some(1),
            progress: Some(node_clock(&marks)),
            ..MipOptions::default()
        };
        let t_solve = Instant::now();
        let res = solve_with(&p.built.mip, &opts);
        let t_end = Instant::now();
        let solve = t_end - t_solve;
        out.solve += solve;
        out.cell_solve[i] = solve;
        let opened = std::mem::take(&mut *marks.lock().expect("node clock"));
        if opened.len() as u64 != res.nodes {
            report.broken(format!(
                "cell seed={} flex={}: {} node reports for {} nodes",
                cell.seed,
                cell.flex,
                opened.len(),
                res.nodes
            ));
        }
        out.node_ms
            .extend(node_latencies_ms(t_solve, &opened, t_end));
        ledger.add("mip.solve", solve);
        let (violations, accepted) = ledger.time("model.verify", || match &res.x {
            Some(x) => {
                let solution = p.built.extract_solution(&p.instance, x);
                let accepted = solution.scheduled.iter().filter(|s| s.accepted).count();
                let violations = verify_with_tol(&p.instance, &solution, VERIFY_TOL).len();
                (violations, accepted)
            }
            None => (0, 0),
        });
        let snap = telemetry.snapshot();
        out.counts[i] = Counts {
            nodes: res.nodes,
            iterations: res.lp_iterations as u64,
            refactorizations: snap.counter("lp.refactorizations"),
            dual_fallbacks: snap.counter("lp.dual_fallbacks"),
            accepted: accepted as u64,
        };
        out.violations += violations as u64;
        report.attempted += 1;
        if let Some(problem) = check(cell, &res, violations) {
            report.failed += 1;
            report.line(format!(
                "FAILED cell seed={} flex={}: {problem}",
                cell.seed, cell.flex
            ));
        }
    }
    out.wall = t.elapsed();
    out
}

/// Runs passes until the next one would end more than half a pass past
/// `budget`; always at least one.
fn passes(
    prepared: &[Prepared],
    order: &[usize],
    budget: Duration,
    ledger: &mut Ledger,
    phases: &mut Vec<f64>,
    report: &mut Report,
) -> Vec<Pass> {
    let t = Instant::now();
    let mut out: Vec<Pass> = Vec::new();
    loop {
        let p = pass(prepared, order, ledger, phases, report);
        let next = p.wall;
        out.push(p);
        if t.elapsed() + next / 2 > budget {
            return out;
        }
    }
}

/// Requests the cells decide: every request of every cell is accepted or
/// rejected by its optimal solution.
fn decisions(prepared: &[Prepared]) -> usize {
    prepared.iter().map(|p| p.instance.num_requests()).sum()
}

/// Fails the run unless every pass repeated the first pass's exact counts,
/// then prints the fingerprint and each cell's counts.
fn fingerprint(prepared: &[Prepared], all: &[&Pass], report: &mut Report) -> Counts {
    let first = all[0];
    for (k, p) in all.iter().enumerate().skip(1) {
        if p.counts != first.counts {
            report.broken(format!("pass {k} exact counts differ from pass 0"));
        }
    }
    let t = first.totals();
    let decisions = decisions(prepared);
    report.line(format!(
        "fingerprint: mip.nodes={} lp.iterations={} lp.refactorizations={} lp.dual_fallbacks={} \
         decisions={decisions} accepted={}",
        t.nodes, t.iterations, t.refactorizations, t.dual_fallbacks, t.accepted,
    ));
    for (cell, c) in CELLS.iter().zip(&first.counts) {
        report.line(format!(
            "  cell seed={} flex={}: nodes={} lp.iterations={} lp.refactorizations={}",
            cell.seed, cell.flex, c.nodes, c.iterations, c.refactorizations,
        ));
    }
    t
}

/// One untraced run: end-to-end metrics.
pub fn run(seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let order = cell_order(seed);
    let watch = HostWatch::start();
    let mut off = Ledger::off();
    let mut phases = Vec::new();
    let prepared = setup(&order, &mut off, &mut phases);
    let budget = Duration::from_secs_f64(seconds);
    let all = passes(
        &prepared,
        &order,
        budget,
        &mut off,
        &mut phases,
        &mut report,
    );
    let c = fingerprint(&prepared, &all.iter().collect::<Vec<_>>(), &mut report);
    let solve: Vec<f64> = all.iter().map(|p| p.solve.as_secs_f64()).collect();
    let quartiles_ms = [0.25, 0.5, 0.75].map(|q| percentile(&phases, q).0 * 1e3);
    report.line(format!(
        "passes={} solve_s per pass={solve:.3?} setup phases timed={} quartiles_ms={quartiles_ms:.4?}",
        all.len(),
        phases.len(),
    ));
    for (k, cell) in CELLS.iter().enumerate() {
        let times: Vec<f64> = all.iter().map(|p| p.cell_solve[k].as_secs_f64()).collect();
        report.line(format!(
            "  cell seed={} flex={} solve_s per pass={times:.3?}",
            cell.seed, cell.flex
        ));
    }
    let node_ms: Vec<f64> = all.iter().flat_map(|p| p.node_ms.iter().copied()).collect();
    let (p50, beyond50) = percentile(&node_ms, 0.50);
    let (p99, beyond99) = percentile(&node_ms, 0.99);
    report.line(format!(
        "node latency samples={} p50={p50:.3} ms ({beyond50} beyond) p99={p99:.3} ms ({beyond99} beyond)",
        node_ms.len()
    ));
    if beyond99 < 10 {
        report.broken(format!("p99 has only {beyond99} samples beyond it"));
    }
    report.e2e("setup_s", median_of_means(&phases, SETUPS_PER_PASS), "s");
    report.e2e("solve_s", median(&solve), "s");
    report.e2e("latency_p50_ms", p50, "ms");
    report.e2e("latency_p99_ms", p99, "ms");
    report.e2e(
        "acceptance_ratio",
        c.accepted as f64 / decisions(&prepared) as f64,
        "ratio",
    );
    report.e2e("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MiB");
    let (_, _, host) = watch.finish();
    report.line(host);
    report
}

/// One traced run: the untraced procedure for half the budget, then the
/// same procedure with every call into a layer timed, then a standalone
/// root LP per cell. Per-layer metrics come from the timed half.
pub fn run_traced(seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let order = cell_order(seed);
    let watch = HostWatch::start();
    let half = Duration::from_secs_f64(seconds / 2.0);

    let mut off = Ledger::off();
    let prepared = setup(&order, &mut off, &mut Vec::new());
    let untraced = passes(
        &prepared,
        &order,
        half,
        &mut off,
        &mut Vec::new(),
        &mut report,
    );
    drop(prepared);

    let mut ledger = Ledger::on();
    let mut phases = Vec::new();
    let t = Instant::now();
    let prepared = setup(&order, &mut ledger, &mut phases);
    let traced = passes(
        &prepared,
        &order,
        half,
        &mut ledger,
        &mut phases,
        &mut report,
    );
    let mut root_iters = 0u64;
    for &i in &order {
        let cell = &CELLS[i];
        let lp = prepared[i].built.mip.relaxation_min();
        let sol = ledger.time("lp.root", || tvnep_lp::solve(&lp));
        root_iters += sol.iterations as u64;
        // The relaxation is solved in minimize form: the maximization's
        // bound is its negated objective.
        let bound = -sol.objective;
        report.attempted += 1;
        if sol.status != tvnep_lp::LpStatus::Optimal || !obj_le(cell.optimum, bound) {
            report.failed += 1;
            report.line(format!(
                "FAILED root LP seed={} flex={}: status={} bound={bound} optimum={}",
                cell.seed,
                cell.flex,
                sol.status.as_str(),
                cell.optimum
            ));
        }
    }
    let wall = t.elapsed();

    let all: Vec<&Pass> = untraced.iter().chain(&traced).collect();
    let c = fingerprint(&prepared, &all, &mut report);
    let reps = phases.len() as f64;
    let n = traced.len() as f64;
    let solve_s = ledger.get("mip.solve").as_secs_f64() / n;
    let rows: usize = prepared.iter().map(|p| p.built.stats.rows).sum();
    let cols: usize = prepared.iter().map(|p| p.built.stats.cols).sum();
    let violations: u64 = traced.iter().map(|p| p.violations).sum();
    let solve_of =
        |ps: &[Pass]| median(&ps.iter().map(|p| p.solve.as_secs_f64()).collect::<Vec<_>>());
    report.layer(
        "workloads.generate_ms",
        ms(ledger.get("workloads.generate")) / reps,
        "ms",
    );
    report.layer("core.build_ms", ms(ledger.get("core.build")) / reps, "ms");
    report.layer("core.model_rows", rows as f64, "count");
    report.layer("core.model_cols", cols as f64, "count");
    report.layer("lp.root_ms", ms(ledger.get("lp.root")), "ms");
    report.layer("lp.root_iters", root_iters as f64, "count");
    report.layer("lp.iterations", c.iterations as f64, "count");
    report.layer("lp.refactorizations", c.refactorizations as f64, "count");
    report.layer("lp.dual_fallbacks", c.dual_fallbacks as f64, "count");
    report.layer("lp.iters_per_s", c.iterations as f64 / solve_s, "1/s");
    report.layer(
        "lp.iters_per_refactor",
        c.iterations as f64 / c.refactorizations.max(1) as f64,
        "count",
    );
    report.layer("mip.solve_ms", solve_s * 1e3, "ms");
    report.layer("mip.nodes", c.nodes as f64, "count");
    report.layer("mip.nodes_per_s", c.nodes as f64 / solve_s, "1/s");
    report.layer("model.verify_ms", ms(ledger.get("model.verify")) / n, "ms");
    report.layer("model.violations", violations as f64, "count");
    report.layer(
        "trace.overhead_pct",
        100.0 * (solve_of(&traced) / solve_of(&untraced) - 1.0),
        "%",
    );
    let residual = ledger.reconcile(wall, &mut report);
    report.layer("trace.residual_pct", residual, "%");
    let (probe, steal, host) = watch.finish();
    report.line(host);
    report.layer("host.probe_ms", probe, "ms");
    report.layer("host.steal_ms", steal, "ms");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(status: MipStatus, objective: Option<f64>, best_bound: f64) -> MipResult {
        MipResult {
            status,
            objective,
            best_bound,
            x: None,
            gap: None,
            nodes: 1,
            lp_iterations: 1,
            runtime: Duration::ZERO,
        }
    }

    #[test]
    fn check_flags_wrong_answers_and_passes_right_ones() {
        let cell = &CELLS[0];
        let opt = cell.optimum;
        assert_eq!(
            check(cell, &result(MipStatus::Optimal, Some(opt), opt), 0),
            None
        );
        let wrong = [
            (result(MipStatus::Optimal, Some(opt + 0.01), opt + 0.01), 0),
            (result(MipStatus::Optimal, Some(opt), opt - 0.01), 0),
            (result(MipStatus::Optimal, None, opt), 0),
            (result(MipStatus::Feasible, Some(opt), opt + 1.0), 0),
            (result(MipStatus::Optimal, Some(opt), opt), 1),
        ];
        for (res, violations) in &wrong {
            assert!(check(cell, res, *violations).is_some(), "{res:?}");
        }
    }

    #[test]
    fn every_seed_orders_every_cell_once() {
        for seed in 0..20 {
            let mut order = cell_order(seed);
            order.sort_unstable();
            assert_eq!(order, vec![0, 1, 2]);
        }
    }
}
