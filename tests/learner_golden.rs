//! Golden learner trajectories: six workflow shapes whose final
//! parameter hash, per-iteration loss bits, window ownership, window
//! accounting and learner-group traffic are pinned to recorded values.
//!
//! These are the paths the benchmark's traced-vs-untraced bit-check does
//! not reach (it runs only blocking, fault-free, non-broadcast,
//! non-overlapped configs): `DropSteps` at 1×1 and 2×2 with sample
//! broadcast, overlapped gradient sync, and the fault-tolerant learner
//! under restart and root death. Any refactor of the learner loop must
//! leave every value here unchanged.
//!
//! `DropSteps` uses an unreachable `min_queue`, so the consumer takes
//! every window in order and the trajectory does not depend on thread
//! timing; the drop-to-freshest branch itself is timing-dependent and is
//! covered by `tests/consumer_policies.rs`.
//!
//! The binary pins one rayon worker, as `crates/pic/tests/
//! parallel_equivalence.rs` pins its count: the worker count is latched
//! once per process, so it lives in its own test binary.

use artificial_scientist::core::config::{ConsumerPolicy, ServingConfig, WorkflowConfig};
use artificial_scientist::core::faults::{FaultEvent, FaultPlan, KillMode};
use artificial_scientist::core::snapshot::{ModelSnapshot, SnapshotSink};
use artificial_scientist::core::workflow::{run_workflow_with_sink, WorkflowReport};
use std::sync::{Arc, Mutex};

fn pin_workers() {
    // Must run before the first parallel call in this process.
    std::env::set_var("RAYON_NUM_THREADS", "1");
}

/// Records `(version, param_hash)` of every published snapshot.
#[derive(Default)]
struct Recorder(Mutex<Vec<(u64, u64)>>);

impl SnapshotSink for Recorder {
    fn publish(&self, snapshot: ModelSnapshot) {
        self.0
            .lock()
            .unwrap()
            .push((snapshot.version, snapshot.param_hash));
    }
}

/// One surviving learner rank's pinned outcome.
#[derive(Debug, PartialEq)]
struct RankGolden {
    rank: usize,
    param_hash: u64,
    iterations: usize,
    /// FNV-1a over the `to_bits` of every per-iteration loss total.
    loss_bits: u64,
    owned_windows: Vec<u64>,
    /// `[windows, dropped, orphaned, lost, published]`.
    accounting: [u64; 5],
}

/// A whole run's pinned outcome.
#[derive(Debug, PartialEq)]
struct Golden {
    ranks: Vec<RankGolden>,
    /// Learner-group collective bytes (world-wide).
    comm_bytes: u64,
    /// Learner-group collective messages (world-wide), where they do not
    /// depend on thread timing.
    comm_messages: Option<u64>,
    snapshots: Vec<(u64, u64)>,
}

fn fnv_bits(losses: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for l in losses {
        for b in l.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// Run `cfg` with a recording sink and digest the report.
/// `count_messages` is false where the message counter depends on
/// thread timing: when a rank dies mid-run, whether a peer's send
/// reaches it before it marks itself dead is a race (a send to a dead
/// rank is suppressed and not counted).
fn golden(cfg: &WorkflowConfig, count_messages: bool) -> (Golden, WorkflowReport) {
    pin_workers();
    let sink = Arc::new(Recorder::default());
    let report = run_workflow_with_sink(cfg, Some(sink.clone() as Arc<dyn SnapshotSink>));
    let ranks = report
        .consumer_summaries
        .iter()
        .map(|s| {
            assert_eq!(
                s.windows + s.dropped_windows + s.orphaned_windows + s.lost_windows,
                s.published_windows,
                "rank {} window accounting must balance",
                s.rank
            );
            RankGolden {
                rank: s.rank,
                param_hash: s.param_hash,
                iterations: s.losses.len(),
                loss_bits: fnv_bits(&s.losses),
                owned_windows: s.owned_windows.clone(),
                accounting: [
                    s.windows,
                    s.dropped_windows,
                    s.orphaned_windows,
                    s.lost_windows,
                    s.published_windows,
                ],
            }
        })
        .collect();
    let snapshots = sink.0.lock().unwrap().clone();
    (
        Golden {
            ranks,
            comm_bytes: report.consumer_comm_bytes(),
            comm_messages: count_messages.then(|| report.consumer_comm_messages()),
            snapshots,
        },
        report,
    )
}

/// 16 steps, a window every 4: four windows, n_rep 3.
fn base() -> WorkflowConfig {
    let mut cfg = WorkflowConfig::small();
    cfg.total_steps = 16;
    cfg.steps_per_sample = 4;
    cfg.n_rep = 3;
    cfg
}

fn in_order_drop_steps() -> ConsumerPolicy {
    ConsumerPolicy::DropSteps {
        max_queue: 2,
        min_queue: 1000,
    }
}

fn two_by_two(mut cfg: WorkflowConfig) -> WorkflowConfig {
    cfg.producers = 2;
    cfg.consumers = 2;
    cfg
}

/// An active plan with a generous silence budget: injected deaths
/// self-mark on the shared world, so the budget is only a backstop.
fn ft(mut cfg: WorkflowConfig, checkpoint_every: u64, event: FaultEvent) -> WorkflowConfig {
    cfg.faults = FaultPlan {
        checkpoint_every,
        op_timeout_ms: 1000,
        tick_ms: 2,
        retry_budget: 5,
        events: vec![event],
        ..FaultPlan::default()
    };
    cfg
}

#[test]
fn drop_steps_1x1() {
    let mut cfg = base();
    cfg.policy = in_order_drop_steps();
    let (got, _) = golden(&cfg, true);
    assert_eq!(got, expected_drop_steps_1x1());
}

#[test]
fn drop_steps_sample_broadcast_2x2() {
    let mut cfg = two_by_two(base());
    cfg.policy = in_order_drop_steps();
    cfg.sample_broadcast = true;
    let (got, _) = golden(&cfg, true);
    assert_eq!(got, expected_drop_steps_sample_broadcast_2x2());
}

#[test]
fn overlap_grad_sync_2x2() {
    let mut cfg = two_by_two(base());
    cfg.overlap_grad_sync = true;
    let (got, _) = golden(&cfg, true);
    assert_eq!(got, expected_overlap_grad_sync_2x2());
}

#[test]
fn ft_kill_restart_off_boundary_1x1() {
    // Checkpoints at arrivals 0 and 2; the kill at arrival 3 rolls back
    // one window.
    let cfg = ft(
        base(),
        2,
        FaultEvent::ConsumerKill {
            rank: 0,
            at_window: 3,
            mode: KillMode::Restart,
        },
    );
    let (got, report) = golden(&cfg, true);
    assert_eq!(report.consumer.restarts, 1);
    assert_eq!(got, expected_ft_kill_restart_off_boundary_1x1());
}

#[test]
fn ft_boundary_restart_2x2() {
    let cfg = ft(
        two_by_two(base()),
        2,
        FaultEvent::ConsumerKill {
            rank: 1,
            at_window: 2,
            mode: KillMode::Restart,
        },
    );
    let (got, report) = golden(&cfg, true);
    assert_eq!(report.consumer_summaries[1].restarts, 1);
    assert_eq!(got, expected_ft_boundary_restart_2x2());
}

#[test]
fn ft_root_death_with_serving_2x2() {
    let mut cfg = ft(
        two_by_two(base()),
        0,
        FaultEvent::ConsumerKill {
            rank: 0,
            at_window: 2,
            mode: KillMode::Die,
        },
    );
    cfg.serving = Some(ServingConfig {
        publish_every: 2,
        ..ServingConfig::default()
    });
    let (got, report) = golden(&cfg, false);
    assert_eq!(report.failures.len(), 1);
    assert!(report.failures[0].injected);
    assert_eq!(report.consumer_summaries[0].world_after, 1);
    assert_eq!(got, expected_ft_root_death_with_serving_2x2());
}

fn expected_drop_steps_1x1() -> Golden {
    Golden {
        ranks: vec![RankGolden {
            rank: 0,
            param_hash: 2249056573416132891,
            iterations: 12,
            loss_bits: 14358249841417160848,
            owned_windows: vec![4, 8, 12, 16],
            accounting: [4, 0, 0, 0, 4],
        }],
        comm_bytes: 0,
        comm_messages: Some(0),
        snapshots: vec![],
    }
}

fn expected_drop_steps_sample_broadcast_2x2() -> Golden {
    Golden {
        ranks: vec![
            RankGolden {
                rank: 0,
                param_hash: 9471956969004457096,
                iterations: 12,
                loss_bits: 6197723396923185277,
                owned_windows: vec![4, 12],
                accounting: [4, 0, 0, 0, 4],
            },
            RankGolden {
                rank: 1,
                param_hash: 9471956969004457096,
                iterations: 12,
                loss_bits: 6197723396923185277,
                owned_windows: vec![8, 16],
                accounting: [4, 0, 0, 0, 4],
            },
        ],
        comm_bytes: 2576640,
        comm_messages: Some(273),
        snapshots: vec![],
    }
}

fn expected_overlap_grad_sync_2x2() -> Golden {
    Golden {
        ranks: vec![
            RankGolden {
                rank: 0,
                param_hash: 10669911760684063742,
                iterations: 12,
                loss_bits: 8612142988172847305,
                owned_windows: vec![4, 12],
                accounting: [4, 0, 0, 0, 4],
            },
            RankGolden {
                rank: 1,
                param_hash: 10669911760684063742,
                iterations: 12,
                loss_bits: 8612142988172847305,
                owned_windows: vec![8, 16],
                accounting: [4, 0, 0, 0, 4],
            },
        ],
        comm_bytes: 2501968,
        comm_messages: Some(266),
        snapshots: vec![],
    }
}

fn expected_ft_kill_restart_off_boundary_1x1() -> Golden {
    Golden {
        ranks: vec![RankGolden {
            rank: 0,
            param_hash: 1911197982707928568,
            iterations: 9,
            loss_bits: 15012052981146597505,
            owned_windows: vec![4, 8, 16],
            accounting: [3, 0, 0, 1, 4],
        }],
        comm_bytes: 0,
        comm_messages: Some(0),
        snapshots: vec![],
    }
}

fn expected_ft_boundary_restart_2x2() -> Golden {
    Golden {
        ranks: vec![
            RankGolden {
                rank: 0,
                param_hash: 10669911760684063742,
                iterations: 12,
                loss_bits: 8612142988172847305,
                owned_windows: vec![4, 12],
                accounting: [4, 0, 0, 0, 4],
            },
            RankGolden {
                rank: 1,
                param_hash: 10669911760684063742,
                iterations: 12,
                loss_bits: 8612142988172847305,
                owned_windows: vec![8, 16],
                accounting: [4, 0, 0, 0, 4],
            },
        ],
        comm_bytes: 0,
        comm_messages: Some(180),
        snapshots: vec![],
    }
}

fn expected_ft_root_death_with_serving_2x2() -> Golden {
    Golden {
        ranks: vec![RankGolden {
            rank: 1,
            param_hash: 8098400781240296098,
            iterations: 12,
            loss_bits: 14507954769117319185,
            owned_windows: vec![8, 12, 16],
            accounting: [4, 0, 0, 0, 4],
        }],
        comm_bytes: 625536,
        comm_messages: None,
        snapshots: vec![
            (1, 4493667503052765793),
            (2, 9653103828547004387),
            (3, 9466827267512836438),
            (4, 10476950845393692687),
            (5, 15379879407835821763),
            (6, 8098400781240296098),
        ],
    }
}
