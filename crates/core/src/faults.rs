//! Deterministic fault-injection plans for the chaos-hardened workflow.
//!
//! A [`FaultPlan`] is a seeded, serializable schedule of failures: message
//! chaos on the collective transport (drop/delay/duplicate — delivered by
//! [`as_cluster::comm::FaultInjector`] hooks inside the `Communicator`),
//! producer crashes and stream truncations (armed on the SST writers via
//! [`as_staging::engine::SstWriter::arm_truncate`]), and consumer-rank
//! kills (fired at window boundaries inside the consumer loops). The same
//! plan + the same seed produce a bit-identical fault sequence on every
//! run, which is what makes the recovery paths testable: a faulted run
//! can be compared against an unfaulted reference that merely *skips* the
//! windows the fault destroyed ([`FaultEvent::SkipWindows`]).
//!
//! The plan is inert by default ([`FaultPlan::default`]): every knob
//! zeroed, no events — the transport then carries no chaos and the
//! learner's checkpoint and kill hooks are no-ops.

use as_cluster::comm::CommFaults;

/// What happens to a consumer rank when its kill event fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillMode {
    /// The rank restores its latest [`crate::checkpoint::LearnerCheckpoint`]
    /// and continues (windows processed since the checkpoint are lost).
    /// With more than one consumer rank the kill must land on a
    /// checkpoint boundary so the DDP collective schedule stays aligned.
    Restart,
    /// The rank marks itself dead on the collective world and panics with
    /// an [`InjectedFault`] payload; surviving ranks re-form a shrunk
    /// world and continue (graceful degradation).
    Die,
}

/// Which of the two SST streams a truncation targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamId {
    /// The particle phase-space stream.
    Particle,
    /// The radiation spectra stream.
    Radiation,
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// The producer group crashes at emission window `at_window`
    /// (0-based): both streams truncate there — windows `0..at_window`
    /// publish, nothing after. Consumers see a clean, synchronized EOF.
    ProducerCrash {
        /// First window that never publishes.
        at_window: u64,
    },
    /// Consumer `rank` is killed at the top of its window loop when its
    /// arrival counter reaches `at_window` (0-based count of windows
    /// taken off the stream so far).
    ConsumerKill {
        /// Learner rank to kill.
        rank: usize,
        /// Arrival count at which the kill fires.
        at_window: u64,
        /// Restart from checkpoint, or die and degrade the group.
        mode: KillMode,
    },
    /// Reference-run helper: the consumer reads and closes arrival
    /// windows `from..=to` without processing them, counting each as
    /// lost. This reproduces the exact data loss of a kill-restart run
    /// without any fault machinery, so the two runs' post-fault
    /// `param_hash` sequences can be compared bit for bit.
    SkipWindows {
        /// First skipped arrival (inclusive).
        from: u64,
        /// Last skipped arrival (inclusive).
        to: u64,
    },
    /// Truncate one stream at SST step `at_step` while the other keeps
    /// publishing until the producer notices — the out-of-sync EOF that
    /// exercises the orphaned-window machinery.
    TruncateStream {
        /// Which stream dies.
        stream: StreamId,
        /// First step that never publishes on it.
        at_step: u64,
    },
}

/// A complete, seeded fault schedule plus the detection/recovery budgets
/// the fault-tolerant collective layer ([`crate::ft::FtComm`]) runs with.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the message-chaos injector (same seed ⇒ bit-identical
    /// drop/delay/duplicate decisions).
    pub seed: u64,
    /// Per-operation receive budget (milliseconds) before one retry
    /// elapses.
    pub op_timeout_ms: u64,
    /// Poll granularity (milliseconds) of the tolerant receives.
    pub tick_ms: u64,
    /// Retries (each `op_timeout_ms` long) before a silent peer is
    /// declared dead.
    pub retry_budget: u32,
    /// Probability a message send is delayed by `4 × msg_delay_ms`
    /// (a "drop" with retransmit — nothing is ever lost).
    pub msg_drop_rate: f64,
    /// Probability a message send is delayed by `msg_delay_ms`.
    pub msg_delay_rate: f64,
    /// Base injected delay in milliseconds.
    pub msg_delay_ms: u64,
    /// Probability a message is duplicated (the receiver discards the
    /// flagged twin).
    pub msg_dup_rate: f64,
    /// Learner checkpoint cadence in windows (`0` = no checkpoints).
    pub checkpoint_every: u64,
    /// The scheduled fault events.
    pub events: Vec<FaultEvent>,
}

impl Default for FaultPlan {
    /// The inert plan: no chaos, no events, no checkpoints — the
    /// workflow runs its plain transport and healthy learner group.
    fn default() -> Self {
        Self {
            seed: 0,
            op_timeout_ms: 50,
            tick_ms: 2,
            retry_budget: 5,
            msg_drop_rate: 0.0,
            msg_delay_rate: 0.0,
            msg_delay_ms: 1,
            msg_dup_rate: 0.0,
            checkpoint_every: 0,
            events: Vec::new(),
        }
    }
}

impl FaultPlan {
    /// True once anything in the plan deviates from the legacy run:
    /// message chaos, any event, or checkpointing. An active plan routes
    /// the workflow through the fault-tolerant consumer loops and arms
    /// the tolerant collective worlds.
    pub fn active(&self) -> bool {
        self.message_chaos() || !self.events.is_empty() || self.checkpoint_every > 0
    }

    /// True if any message-chaos rate is nonzero.
    pub fn message_chaos(&self) -> bool {
        self.msg_drop_rate > 0.0 || self.msg_delay_rate > 0.0 || self.msg_dup_rate > 0.0
    }

    /// The transport-level injector configuration this plan implies.
    pub fn comm_faults(&self) -> CommFaults {
        CommFaults {
            seed: self.seed,
            drop_rate: self.msg_drop_rate,
            delay_rate: self.msg_delay_rate,
            delay_ms: self.msg_delay_ms,
            dup_rate: self.msg_dup_rate,
        }
    }

    /// Producer-crash window, if one is scheduled (first match wins).
    pub fn producer_crash_window(&self) -> Option<u64> {
        self.events.iter().find_map(|e| match e {
            FaultEvent::ProducerCrash { at_window } => Some(*at_window),
            _ => None,
        })
    }

    /// Kill event for a given consumer rank, if scheduled.
    pub fn consumer_kill(&self, rank: usize) -> Option<(u64, KillMode)> {
        self.events.iter().find_map(|e| match e {
            FaultEvent::ConsumerKill {
                rank: r,
                at_window,
                mode,
            } if *r == rank => Some((*at_window, *mode)),
            _ => None,
        })
    }

    /// All scheduled skip ranges `(from, to)`, inclusive.
    pub fn skip_ranges(&self) -> Vec<(u64, u64)> {
        self.events
            .iter()
            .filter_map(|e| match e {
                FaultEvent::SkipWindows { from, to } => Some((*from, *to)),
                _ => None,
            })
            .collect()
    }

    /// Truncation step armed for one stream, if scheduled.
    pub fn stream_truncation(&self, stream: StreamId) -> Option<u64> {
        self.events.iter().find_map(|e| match e {
            FaultEvent::TruncateStream { stream: s, at_step } if *s == stream => Some(*at_step),
            _ => None,
        })
    }

    /// Total receive budget before a silent peer is declared dead.
    pub fn death_budget_ms(&self) -> u64 {
        self.op_timeout_ms * self.retry_budget as u64
    }

    /// Serialize to a line-based spec (round-trips through
    /// [`FaultPlan::from_spec`]).
    pub fn to_spec(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!("seed={}\n", self.seed));
        s.push_str(&format!("op_timeout_ms={}\n", self.op_timeout_ms));
        s.push_str(&format!("tick_ms={}\n", self.tick_ms));
        s.push_str(&format!("retry_budget={}\n", self.retry_budget));
        s.push_str(&format!("msg_drop_rate={}\n", self.msg_drop_rate));
        s.push_str(&format!("msg_delay_rate={}\n", self.msg_delay_rate));
        s.push_str(&format!("msg_delay_ms={}\n", self.msg_delay_ms));
        s.push_str(&format!("msg_dup_rate={}\n", self.msg_dup_rate));
        s.push_str(&format!("checkpoint_every={}\n", self.checkpoint_every));
        for e in &self.events {
            match e {
                FaultEvent::ProducerCrash { at_window } => {
                    s.push_str(&format!("event=producer_crash at_window={at_window}\n"));
                }
                FaultEvent::ConsumerKill {
                    rank,
                    at_window,
                    mode,
                } => {
                    let m = match mode {
                        KillMode::Restart => "restart",
                        KillMode::Die => "die",
                    };
                    s.push_str(&format!(
                        "event=consumer_kill rank={rank} at_window={at_window} mode={m}\n"
                    ));
                }
                FaultEvent::SkipWindows { from, to } => {
                    s.push_str(&format!("event=skip_windows from={from} to={to}\n"));
                }
                FaultEvent::TruncateStream { stream, at_step } => {
                    let id = match stream {
                        StreamId::Particle => "particle",
                        StreamId::Radiation => "radiation",
                    };
                    s.push_str(&format!("event=truncate stream={id} at_step={at_step}\n"));
                }
            }
        }
        s
    }

    /// Parse a spec produced by [`FaultPlan::to_spec`].
    pub fn from_spec(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::default();
        for line in spec.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, rest) = line
                .split_once('=')
                .ok_or_else(|| format!("malformed line: {line}"))?;
            match key {
                "seed" => plan.seed = parse(rest)?,
                "op_timeout_ms" => plan.op_timeout_ms = parse(rest)?,
                "tick_ms" => plan.tick_ms = parse(rest)?,
                "retry_budget" => plan.retry_budget = parse(rest)?,
                "msg_drop_rate" => plan.msg_drop_rate = parse(rest)?,
                "msg_delay_rate" => plan.msg_delay_rate = parse(rest)?,
                "msg_delay_ms" => plan.msg_delay_ms = parse(rest)?,
                "msg_dup_rate" => plan.msg_dup_rate = parse(rest)?,
                "checkpoint_every" => plan.checkpoint_every = parse(rest)?,
                "event" => plan.events.push(parse_event(rest)?),
                other => return Err(format!("unknown key: {other}")),
            }
        }
        Ok(plan)
    }
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad value: {s}"))
}

fn parse_event(rest: &str) -> Result<FaultEvent, String> {
    let mut parts = rest.split_whitespace();
    let kind = parts.next().ok_or("empty event")?;
    let mut kv = std::collections::BTreeMap::new();
    for p in parts {
        let (k, v) = p.split_once('=').ok_or_else(|| format!("bad field: {p}"))?;
        kv.insert(k, v);
    }
    let get = |k: &str| -> Result<&str, String> {
        kv.get(k).copied().ok_or_else(|| format!("missing {k}"))
    };
    match kind {
        "producer_crash" => Ok(FaultEvent::ProducerCrash {
            at_window: parse(get("at_window")?)?,
        }),
        "consumer_kill" => Ok(FaultEvent::ConsumerKill {
            rank: parse(get("rank")?)?,
            at_window: parse(get("at_window")?)?,
            mode: match get("mode")? {
                "restart" => KillMode::Restart,
                "die" => KillMode::Die,
                other => return Err(format!("bad mode: {other}")),
            },
        }),
        "skip_windows" => Ok(FaultEvent::SkipWindows {
            from: parse(get("from")?)?,
            to: parse(get("to")?)?,
        }),
        "truncate" => Ok(FaultEvent::TruncateStream {
            stream: match get("stream")? {
                "particle" => StreamId::Particle,
                "radiation" => StreamId::Radiation,
                other => return Err(format!("bad stream: {other}")),
            },
            at_step: parse(get("at_step")?)?,
        }),
        other => Err(format!("unknown event: {other}")),
    }
}

/// Panic payload a [`KillMode::Die`] consumer rank unwinds with, so the
/// orchestrator can tell an injected death from a real bug when it
/// captures the join.
#[derive(Debug, Clone)]
pub struct InjectedFault {
    /// The rank that died.
    pub rank: usize,
    /// Its arrival counter at death.
    pub at_window: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_default_is_inactive() {
        let p = FaultPlan::default();
        assert!(!p.active());
        assert!(!p.message_chaos());
        assert!(p.comm_faults().is_noop());
        assert_eq!(p.producer_crash_window(), None);
        assert_eq!(p.consumer_kill(0), None);
        assert!(p.skip_ranges().is_empty());
    }

    #[test]
    fn spec_round_trips() {
        let plan = FaultPlan {
            seed: 42,
            op_timeout_ms: 40,
            tick_ms: 2,
            retry_budget: 5,
            msg_drop_rate: 0.1,
            msg_delay_rate: 0.25,
            msg_delay_ms: 3,
            msg_dup_rate: 0.05,
            checkpoint_every: 2,
            events: vec![
                FaultEvent::ProducerCrash { at_window: 3 },
                FaultEvent::ConsumerKill {
                    rank: 1,
                    at_window: 2,
                    mode: KillMode::Die,
                },
                FaultEvent::ConsumerKill {
                    rank: 0,
                    at_window: 4,
                    mode: KillMode::Restart,
                },
                FaultEvent::SkipWindows { from: 4, to: 5 },
                FaultEvent::TruncateStream {
                    stream: StreamId::Radiation,
                    at_step: 3,
                },
            ],
        };
        let spec = plan.to_spec();
        let back = FaultPlan::from_spec(&spec).expect("parses");
        assert_eq!(back, plan);
        assert!(plan.active());
        assert_eq!(plan.producer_crash_window(), Some(3));
        assert_eq!(plan.consumer_kill(1), Some((2, KillMode::Die)));
        assert_eq!(plan.consumer_kill(0), Some((4, KillMode::Restart)));
        assert_eq!(plan.consumer_kill(2), None);
        assert_eq!(plan.skip_ranges(), vec![(4, 5)]);
        assert_eq!(plan.stream_truncation(StreamId::Radiation), Some(3));
        assert_eq!(plan.stream_truncation(StreamId::Particle), None);
        assert_eq!(plan.death_budget_ms(), 200);
    }

    #[test]
    fn bad_specs_are_rejected() {
        assert!(FaultPlan::from_spec("nonsense").is_err());
        assert!(FaultPlan::from_spec("seed=abc").is_err());
        assert!(FaultPlan::from_spec("event=warp_core_breach").is_err());
        assert!(FaultPlan::from_spec("event=consumer_kill rank=0").is_err());
    }
}
