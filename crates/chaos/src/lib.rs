//! # dtf-chaos
//!
//! Deterministic chaos testing for the simulated WMS stack, in the
//! FoundationDB/TigerBeetle tradition: every run perturbation is a *seeded
//! fault schedule* — plain data generated from a seed — applied under the
//! simulator's virtual clock, so a failing schedule replays byte-identically
//! from its seed (or its archived JSON) with no wall-clock or thread-timing
//! nondeterminism in between.
//!
//! Four layers:
//!
//! * [`schedule`] — the seeded generator, one stream for all nine fault
//!   families: worker deaths, delayed/duplicated dependency-transfer
//!   completions, heartbeat-suppression windows (the "healthy worker looks
//!   dead" failure), Mofka partition stalls, forced PFS interference
//!   bursts, stragglers, a hot-spot placement bias, dangling proxy
//!   payloads and slow proxy resolves.
//! * [`oracle`] — invariant oracles evaluated on the fused [`RunData`]
//!   after a run: a reference model of the Dask task state machine replayed
//!   transition-by-transition, plus cross-layer checks (delivery
//!   exactly-once per task, provenance lineage acyclic/complete/temporal,
//!   Darshan↔WMS join-key alignment, steal accounting, proxy-plane
//!   pairing). The *live* structural invariants (ready ⇒ no undrained
//!   `missing_deps`, ≤1 transfer per `(worker, dep)`, `who_has` ⊆ live
//!   workers, …) run inside the simulator after every event via
//!   `Scheduler::invariant_violations`, enabled by
//!   `SimConfig::invariant_checks`.
//! * [`runner`] — the one place a chaos run is configured
//!   ([`run_faults`]: invariant checks on, proxy plane on) and the
//!   campaign driver: generates K schedules from one campaign seed, runs
//!   each twice, diffs the canonical transition logs byte-for-byte (the
//!   determinism gate), and evaluates every oracle.
//! * [`crash`] — seeded crash-injection for persisted stores (torn tails,
//!   zeroed tails, bit flips) plus the recovery oracle: per partition,
//!   the recovered stream must be a prefix of the committed one.
//!
//! [`RunData`]: dtf_wms::RunData

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod crash;
pub mod oracle;
pub mod runner;
pub mod schedule;

pub use crash::{copy_store, recovery_oracle, CrashFault, CrashKind, CrashTarget};
pub use oracle::{check_proxy_plane, check_run};
pub use runner::{
    run_campaign, run_faults, run_schedule, schedule_seed, transition_log, CampaignReport,
    ScheduleOutcome,
};
pub use schedule::{generate, STALLABLE_TOPICS};
