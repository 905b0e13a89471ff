//! The benchmark's own checks: its replay of the arrival process matches
//! the load generator, and its end-of-run audit catches a real defect.

use tvnep_model::Violation;
use tvnep_perfbench::stream::{audit, replay, serve_options, synthesize, Audit, StreamConfig};
use tvnep_serve::loadgen::{self, LoadConfig};
use tvnep_serve::EpochRunner;
use tvnep_telemetry::Telemetry;

/// Replays `cfg` on a runner without a WAL and audits the decisions.
fn replay_and_audit(cfg: &StreamConfig) -> (EpochRunner, Audit) {
    let stream = synthesize(cfg);
    let opts = serve_options(cfg, Telemetry::disabled());
    let mut runner = EpochRunner::new(stream.substrate.clone(), stream.horizon, opts, None)
        .expect("a runner without a WAL does no I/O");
    let r = replay(&stream, &mut runner, |_| Ok(())).expect("a runner without a WAL does no I/O");
    assert_eq!(r.shed, 0);
    let a = audit(&stream, &r.arrivals_by_id, runner.decision_log());
    (runner, a)
}

/// The benchmark re-implements the load generator's arrival process; the
/// same configuration must give the same decisions, node for node.
#[test]
fn replay_matches_the_load_generator() {
    let lg = LoadConfig::slo_default();
    let cfg = StreamConfig {
        seed: lg.seed,
        rate: lg.rate,
        duration: lg.duration,
        flex: lg.flex,
        epoch_size: lg.epoch_size,
        node_budget: lg.node_budget,
        max_pending: lg.max_pending,
    };
    let expected = loadgen::run(&lg).expect("in-memory load run");
    let (runner, a) = replay_and_audit(&cfg);
    let stats = runner.stats();
    assert_eq!(stats.submitted, expected.submitted);
    assert_eq!(stats.decided, expected.decisions);
    assert_eq!(stats.accepted, expected.accepted);
    let nodes: u64 = runner.decision_log().iter().map(|r| r.nodes).sum();
    assert_eq!(nodes, expected.total_nodes);
    assert_eq!(a.violations.len(), expected.violations);
}

/// Known defect: on this stream the service accepts a candidate that starts
/// 2.4e-12 h before a pinned reservation ends, and the verifier's
/// open-interval check counts both loads on substrate node 1 at t≈101.709
/// (4.17 > 3.5). The audit must flag it and implicate the decision.
#[test]
fn audit_flags_the_known_node_capacity_repro() {
    let cfg = StreamConfig {
        seed: 7,
        rate: 6.0,
        duration: 170.0,
        flex: 1.0,
        epoch_size: 3,
        node_budget: 200_000,
        max_pending: 1024,
    };
    let (runner, a) = replay_and_audit(&cfg);
    let overload = a.violations.iter().find_map(|v| match v {
        Violation::NodeCapacity {
            node,
            time,
            load,
            capacity,
        } => Some((node.0, *time, *load, *capacity)),
        _ => None,
    });
    let (node, time, load, capacity) = overload.expect("the audit reports the node overload");
    assert_eq!(node, 1);
    assert!((time - 101.709).abs() < 1e-3, "overload at t={time}");
    assert!(load > capacity, "load {load} within capacity {capacity}");
    assert!(
        !a.implicated.is_empty(),
        "the overload implicates a decision"
    );
    for id in &a.implicated {
        let rec = runner
            .decision_log()
            .iter()
            .find(|r| r.id == *id)
            .expect("implicated ids are decisions");
        assert!(rec.accepted, "only an accepted decision can over-commit");
    }
}
