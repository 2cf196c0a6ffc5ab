//! Task-level recovery: write-set snapshots, bounded replay, a seeded chaos
//! harness, and the per-task note every recovery fact is written to.
//!
//! The executors are *fail-fast*: a failed or panicked task cancels its
//! transitive successors. This module adds the *recover* half. A task that
//! [`crate::plan_jobs`] wraps under [`crate::FactorOptions::retry`]:
//!
//! 1. snapshots its declared write-set (the matrix rects the DAG builder
//!    recorded into the [`crate::AccessMap`]; slots are not matrix elements)
//!    before the first attempt,
//! 2. runs the body under a panic guard,
//! 3. on failure or panic restores the snapshot and replays the body up to
//!    [`RetryPolicy::max_retries`] times with bounded exponential backoff,
//! 4. gives up once the budget is spent: with whole-plan replays left
//!    ([`crate::Retry::replays`]) it hands the job to its sink, which factors
//!    the restored input again; without, it returns `Err`, cancelling its
//!    successors.
//!
//! Restoring the write-set is sufficient for idempotent replay because a
//! task's observable effects on the shared matrix are exactly its declared
//! writes (machine-checked by the static verifier and the shadow lease
//! registry), and side-storage slots (`OnceLock`s in the panel contexts)
//! are only filled at the very end of a successful body. Fault-free replays
//! are therefore bitwise-identical to a run that never faulted.
//!
//! Every recovery fact — an attempt, a restore, an injection, a probe, a
//! whole-plan replay — is noted on the task it happened in
//! ([`record_recovery`]): the worker loop moves the note onto the task's
//! record, so a job's [`RecoveryStats`] is a fold over its log, not a
//! counter beside it.
//!
//! [`ChaosPlan`] is the one fault-injection harness, applied to a plan's
//! tasks by [`crate::plan_jobs`] with or without the retry protocol:
//! deterministic N-th-match rules (failure, panic, delay, corruption) plus
//! seeded per-task-class rates of failures, panics *and silent data
//! corruption*. Decisions are a
//! pure function of `(seed, label, occurrence)`, so they do not depend on
//! thread interleaving; injected failures and panics fire *before* the body runs
//! (after scribbling garbage over the write-set to prove restoration
//! works), so replay is always safe.

use crate::exec::DynJob;
use crate::fault::{panic_message, TaskFailure, TaskResult};
use crate::lease::LeaseViolation;
use crate::task::{TaskKind, TaskLabel};
use crate::telemetry::{record_event, FlightEventKind};
use ca_matrix::{ElemRect, MatView, Scalar, SharedMatrix};
use parking_lot::Mutex;
use std::cell::Cell;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Growth of the replay backoff per replay.
const BACKOFF_GROWTH: f64 = 2.0;

/// Upper bound on any single replay backoff.
const MAX_BACKOFF: Duration = Duration::from_millis(10);

/// How many times a failed task is replayed, and how long the first replay
/// waits (each later one waits twice as long, at most 10 ms). The defaults
/// (3 replays, 10 µs base) keep worst-case per-task recovery latency far
/// below kernel runtimes, so the recovery overhead at paper-scale fault
/// rates stays in single-digit percent.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Replays after the first attempt (`0` disables task replay).
    pub max_retries: usize,
    /// Delay before the first replay.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { max_retries: 3, backoff: Duration::from_micros(10) }
    }
}

impl RetryPolicy {
    /// Sets the number of replays.
    pub fn with_max_retries(mut self, n: usize) -> Self {
        self.max_retries = n;
        self
    }

    /// Sets the base backoff delay.
    pub fn with_backoff(mut self, d: Duration) -> Self {
        self.backoff = d;
        self
    }

    /// Delay before replay number `retry` (0-based), exponential and capped.
    pub fn delay_for(&self, retry: usize) -> Duration {
        let d = self.backoff.as_secs_f64() * BACKOFF_GROWTH.powi(retry.min(32) as i32);
        Duration::from_secs_f64(d.min(MAX_BACKOFF.as_secs_f64()))
    }
}

/// What the chaos harness injects when a draw or rule fires.
#[derive(Clone, Debug, PartialEq)]
pub enum ChaosAction {
    /// Scribble over the task's write-set, then report a `TaskFailure`
    /// without running the body.
    Fail,
    /// Scribble over the write-set, then panic (caught by the retry
    /// wrapper) without running the body.
    Panic,
    /// Run the body normally after sleeping, stressing drain ordering.
    Delay(Duration),
    /// Run the body, then silently perturb one element of the write-set —
    /// the task *succeeds*; only an integrity probe can catch this.
    Corrupt,
}

/// Per-task-class injection rates for [`ChaosPlan`]. All rates are
/// probabilities in `[0, 1]` drawn independently per task attempt.
#[derive(Clone, Copy, Debug)]
pub struct ChaosProfile {
    /// Probability of an injected failure.
    pub fail_rate: f64,
    /// Probability of an injected panic.
    pub panic_rate: f64,
    /// Probability of silent corruption of one written element.
    pub corrupt_rate: f64,
}

impl Default for ChaosProfile {
    /// The default chaos profile of the acceptance gate: 1% failures,
    /// 0.5% panics, 0.1% silent corruption.
    fn default() -> Self {
        Self { fail_rate: 0.01, panic_rate: 0.005, corrupt_rate: 0.001 }
    }
}

impl ChaosProfile {
    /// A profile that injects nothing (for rule-only plans).
    pub fn quiet() -> Self {
        Self { fail_rate: 0.0, panic_rate: 0.0, corrupt_rate: 0.0 }
    }

    /// Profile with the given failure rate (other rates unchanged).
    pub fn with_fail_rate(mut self, r: f64) -> Self {
        self.fail_rate = r;
        self
    }

    /// Profile with the given panic rate.
    pub fn with_panic_rate(mut self, r: f64) -> Self {
        self.panic_rate = r;
        self
    }

    /// Profile with the given corruption rate.
    pub fn with_corrupt_rate(mut self, r: f64) -> Self {
        self.corrupt_rate = r;
        self
    }

    fn total(&self) -> f64 {
        self.fail_rate + self.panic_rate + self.corrupt_rate
    }
}

struct ChaosRule {
    predicate: Box<dyn Fn(&TaskLabel) -> bool + Send + Sync>,
    /// 1-based index among the attempts matching `predicate`.
    nth: usize,
    action: ChaosAction,
    hits: AtomicUsize,
}

/// Seeded fault-injection plan. Two mechanisms compose:
///
/// * **Rules** fire on the N-th attempt (1-based, in decide order) whose
///   label matches a predicate — deterministic regardless of seed, used by
///   the retry-determinism tests.
/// * **Rates** draw from a hash of `(seed, label, occurrence)`, where the
///   occurrence number counts this label's attempts. The draw is a pure
///   function of those three values, so a given attempt of a given task
///   sees the same injection decision under any thread interleaving —
///   and a *replay* (occurrence + 1) gets a fresh draw, so chaos cannot
///   pin a task into an injection loop.
///
/// A plan carries private counters and is single-use: build a fresh plan
/// (same seed) per run to reproduce a schedule.
pub struct ChaosPlan {
    seed: u64,
    profile: ChaosProfile,
    class_profiles: Vec<(TaskKind, ChaosProfile)>,
    rules: Vec<ChaosRule>,
    occurrences: Mutex<HashMap<TaskLabel, u64>>,
}

impl ChaosPlan {
    /// A plan with the default chaos profile (the acceptance gate's rates).
    pub fn new(seed: u64) -> Self {
        Self::with_profile(seed, ChaosProfile::default())
    }

    /// A plan that injects nothing by rate — rules still fire.
    pub fn quiet(seed: u64) -> Self {
        Self::with_profile(seed, ChaosProfile::quiet())
    }

    /// A plan with an explicit default profile.
    pub fn with_profile(seed: u64, profile: ChaosProfile) -> Self {
        assert!(profile.total() <= 1.0, "chaos rates must sum to at most 1");
        Self {
            seed,
            profile,
            class_profiles: Vec::new(),
            rules: Vec::new(),
            occurrences: Mutex::new(HashMap::new()),
        }
    }

    /// Overrides the profile for one task class (e.g. higher GEMM rates).
    pub fn with_class_profile(mut self, kind: TaskKind, profile: ChaosProfile) -> Self {
        assert!(profile.total() <= 1.0, "chaos rates must sum to at most 1");
        self.class_profiles.retain(|(k, _)| *k != kind);
        self.class_profiles.push((kind, profile));
        self
    }

    fn rule(
        mut self,
        nth: usize,
        action: ChaosAction,
        predicate: impl Fn(&TaskLabel) -> bool + Send + Sync + 'static,
    ) -> Self {
        assert!(nth >= 1, "chaos rules are 1-based: nth must be >= 1");
        self.rules.push(ChaosRule {
            predicate: Box::new(predicate),
            nth,
            action,
            hits: AtomicUsize::new(0),
        });
        self
    }

    /// Fails the `nth` attempt matching `predicate` (1-based).
    pub fn fail_nth(
        self,
        nth: usize,
        predicate: impl Fn(&TaskLabel) -> bool + Send + Sync + 'static,
    ) -> Self {
        self.rule(nth, ChaosAction::Fail, predicate)
    }

    /// Panics on the `nth` attempt matching `predicate` (1-based).
    pub fn panic_nth(
        self,
        nth: usize,
        predicate: impl Fn(&TaskLabel) -> bool + Send + Sync + 'static,
    ) -> Self {
        self.rule(nth, ChaosAction::Panic, predicate)
    }

    /// Delays the `nth` attempt matching `predicate` (1-based).
    pub fn delay_nth(
        self,
        nth: usize,
        delay: Duration,
        predicate: impl Fn(&TaskLabel) -> bool + Send + Sync + 'static,
    ) -> Self {
        self.rule(nth, ChaosAction::Delay(delay), predicate)
    }

    /// Silently corrupts the output of the `nth` attempt matching
    /// `predicate` (1-based).
    pub fn corrupt_nth(
        self,
        nth: usize,
        predicate: impl Fn(&TaskLabel) -> bool + Send + Sync + 'static,
    ) -> Self {
        self.rule(nth, ChaosAction::Corrupt, predicate)
    }

    fn profile_for(&self, kind: TaskKind) -> &ChaosProfile {
        self.class_profiles.iter().find(|(k, _)| *k == kind).map_or(&self.profile, |(_, p)| p)
    }

    /// Consults the plan as a task attempt starts; returns the action to
    /// inject, if any. Every call counts one occurrence of `label` (and one
    /// match per rule whose predicate accepts it).
    pub fn decide(&self, label: &TaskLabel) -> Option<ChaosAction> {
        let occurrence = {
            let mut occ = self.occurrences.lock();
            let c = occ.entry(*label).or_insert(0);
            *c += 1;
            *c
        };
        // Every matching rule advances its counter, also past the first one
        // that fires: a retried attempt must be visible to all rules, or
        // N-th-match injection sequences would depend on which earlier rule
        // happened to fire.
        let mut fired = None;
        for rule in &self.rules {
            if (rule.predicate)(label) {
                let hit = rule.hits.fetch_add(1, Ordering::AcqRel) + 1;
                if hit == rule.nth && fired.is_none() {
                    fired = Some(rule.action.clone());
                }
            }
        }
        if fired.is_some() {
            return fired;
        }
        let p = self.profile_for(label.kind);
        if p.total() == 0.0 {
            return None;
        }
        let u = unit_draw(mix(self.seed, label, occurrence));
        let mut edge = p.fail_rate;
        if u < edge {
            return Some(ChaosAction::Fail);
        }
        edge += p.panic_rate;
        if u < edge {
            return Some(ChaosAction::Panic);
        }
        edge += p.corrupt_rate;
        (u < edge).then_some(ChaosAction::Corrupt)
    }
}

/// splitmix64 finalizer — a well-mixed 64-bit hash of its input.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Deterministic draw identity for one attempt of one task.
fn mix(seed: u64, label: &TaskLabel, occurrence: u64) -> u64 {
    let mut h = splitmix64(seed);
    h = splitmix64(h ^ (label.kind as u64).wrapping_mul(0x100000001b3));
    h = splitmix64(h ^ label.step as u64);
    h = splitmix64(h ^ ((label.i as u64) << 20) ^ (label.j as u64));
    splitmix64(h ^ occurrence)
}

/// Maps a hash to a uniform draw in `[0, 1)`.
fn unit_draw(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// One thing the recovery layer did inside a task body.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryEvent {
    /// The first attempt of a body under the retry protocol.
    Attempt,
    /// A replay of a body after a failed attempt.
    Retry,
    /// A write-set restore after a failed attempt.
    Restore,
    /// The last attempt failed: the task's replay budget is spent.
    Exhausted,
    /// A [`ChaosPlan`] injected a failure.
    InjectedFailure,
    /// A [`ChaosPlan`] injected a panic.
    InjectedPanic,
    /// A [`ChaosPlan`] injected a delay.
    InjectedDelay,
    /// A [`ChaosPlan`] silently corrupted an element the task wrote.
    InjectedCorruption,
    /// An integrity probe ran over the job's factors.
    Probe,
    /// An integrity probe found the factors corrupted.
    ProbeFailure,
    /// The whole plan was factored again from its restored input.
    Replay,
}

impl RecoveryEvent {
    /// How many kinds of event a [`TaskNote`] counts.
    const KINDS: usize = 11;

    /// The flight-recorder mark the event leaves, if any.
    fn flight_kind(self) -> Option<FlightEventKind> {
        match self {
            Self::Retry => Some(FlightEventKind::Retry),
            Self::Restore => Some(FlightEventKind::Restore),
            Self::InjectedFailure
            | Self::InjectedPanic
            | Self::InjectedDelay
            | Self::InjectedCorruption => Some(FlightEventKind::Inject),
            Self::ProbeFailure => Some(FlightEventKind::ProbeCorrupt),
            Self::Attempt | Self::Exhausted | Self::Probe | Self::Replay => None,
        }
    }
}

/// What the recovery layer did inside one task body, per
/// [`RecoveryEvent`] (saturating): the worker loop moves it onto the task's
/// record when the body returns.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct TaskNote([u16; RecoveryEvent::KINDS]);

thread_local! {
    /// The note of the task body running on this thread.
    static NOTE: Cell<TaskNote> = const { Cell::new(TaskNote([0; RecoveryEvent::KINDS])) };
}

/// Notes `event` on the task running on this thread, and marks the flight
/// recorder's lane, under the task's job, when the event leaves a mark.
/// Call it from a task body: the worker loop collects the note when the
/// body returns.
pub fn record_recovery(event: RecoveryEvent) {
    note(event, None);
}

/// [`record_recovery`] with the task's label on the flight mark.
fn note(event: RecoveryEvent, label: Option<TaskLabel>) {
    NOTE.with(|n| {
        let mut note = n.get();
        note.0[event as usize] = note.0[event as usize].saturating_add(1);
        n.set(note);
    });
    if let Some(kind) = event.flight_kind() {
        record_event(kind, label);
    }
}

/// Takes the note of the body that just returned on this thread.
pub(crate) fn take_note() -> TaskNote {
    NOTE.take()
}

/// What recovery did over a job: the sum of its tasks' notes. Every
/// executor computes it from the job's log ([`crate::RunReport::recovery`],
/// [`crate::JobReport::recovery`]); nothing else stores it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RecoveryStats {
    /// Task body attempts (first tries + replays).
    pub attempts: u64,
    /// Replays after a failed attempt.
    pub retries: u64,
    /// Tasks that failed at least once and then succeeded.
    pub recovered_tasks: u64,
    /// Tasks that failed every attempt.
    pub exhausted_tasks: u64,
    /// Write-set snapshot restorations performed.
    pub restores: u64,
    /// Failures injected by a [`ChaosPlan`].
    pub injected_failures: u64,
    /// Panics injected by a [`ChaosPlan`].
    pub injected_panics: u64,
    /// Delays injected by a [`ChaosPlan`].
    pub injected_delays: u64,
    /// Silent corruptions injected by a [`ChaosPlan`].
    pub injected_corruptions: u64,
    /// Integrity probes run over the factors.
    pub probes: u64,
    /// Probes that found the factors corrupted.
    pub probe_failures: u64,
    /// Whole-plan replays from the restored input.
    pub replays: u64,
}

impl RecoveryStats {
    /// The names of [`RecoveryStats::counts`], in order.
    pub const NAMES: [&'static str; 12] = [
        "attempts",
        "retries",
        "recovered_tasks",
        "exhausted_tasks",
        "restores",
        "injected_failures",
        "injected_panics",
        "injected_delays",
        "injected_corruptions",
        "probes",
        "probe_failures",
        "replays",
    ];

    /// Every count, in the order of [`RecoveryStats::NAMES`].
    pub fn counts(&self) -> [u64; 12] {
        let Self {
            attempts,
            retries,
            recovered_tasks,
            exhausted_tasks,
            restores,
            injected_failures,
            injected_panics,
            injected_delays,
            injected_corruptions,
            probes,
            probe_failures,
            replays,
        } = *self;
        [
            attempts,
            retries,
            recovered_tasks,
            exhausted_tasks,
            restores,
            injected_failures,
            injected_panics,
            injected_delays,
            injected_corruptions,
            probes,
            probe_failures,
            replays,
        ]
    }

    /// The stats whose [`RecoveryStats::counts`] are `c`.
    pub fn from_counts(c: [u64; 12]) -> Self {
        let [attempts, retries, recovered_tasks, exhausted_tasks, restores, injected_failures, injected_panics, injected_delays, injected_corruptions, probes, probe_failures, replays] =
            c;
        Self {
            attempts,
            retries,
            recovered_tasks,
            exhausted_tasks,
            restores,
            injected_failures,
            injected_panics,
            injected_delays,
            injected_corruptions,
            probes,
            probe_failures,
            replays,
        }
    }

    /// Adds one task's note.
    pub(crate) fn add(&mut self, note: &TaskNote) {
        let [attempt, retry, restore, exhausted, failure, panic, delay, corruption, probe, probe_failure, replay] =
            note.0.map(u64::from);
        self.attempts += attempt + retry;
        self.retries += retry;
        self.recovered_tasks += u64::from(retry > 0 && exhausted == 0);
        self.exhausted_tasks += exhausted;
        self.restores += restore;
        self.injected_failures += failure;
        self.injected_panics += panic;
        self.injected_delays += delay;
        self.injected_corruptions += corruption;
        self.probes += probe;
        self.probe_failures += probe_failure;
        self.replays += replay;
    }
}

fn rows(r: &ElemRect) -> usize {
    r.row1 - r.row0
}

fn cols(r: &ElemRect) -> usize {
    r.col1 - r.col0
}

/// Copies the current contents of every rect of a task's write-set — the
/// matrix rects it declared it writes ([`crate::AccessMap::matrix_writes`];
/// the slots it fills are not matrix elements, and none for a
/// reduction-tree node, which fills slots only). The retry protocol
/// snapshots and restores exactly these elements.
#[allow(clippy::disallowed_methods)]
fn capture<T: Scalar>(writes: &[ElemRect], shared: &SharedMatrix<T>) -> Vec<Vec<T>> {
    writes
        .iter()
        .map(|r| {
            // SAFETY: the executor guarantees no concurrent writer
            // overlaps this task's declared footprint while the task
            // (and this wrapper around it) runs — the same contract the
            // body's own leases rely on.
            unsafe { shared.block(r.row0, r.col0, rows(r), cols(r)).to_vec() }
        })
        .collect()
}

/// Writes `saved` (from [`capture`]) back.
// Raw block access is sound here for the same reason it is in the task
// body: the restore touches only this task's declared write regions,
// while the task holds exclusive access to them per the graph edges.
#[allow(clippy::disallowed_methods)]
fn restore<T: Scalar>(writes: &[ElemRect], shared: &SharedMatrix<T>, saved: &[Vec<T>]) {
    for (r, data) in writes.iter().zip(saved) {
        let src = MatView::from_slice(data, rows(r), cols(r));
        // SAFETY: see `capture` — exclusive access per the graph edges.
        unsafe { shared.block_mut(r.row0, r.col0, rows(r), cols(r)).copy_from(src) };
    }
}

/// Overwrites the write-set with garbage (what a task dying mid-kernel
/// leaves behind) so injected faults genuinely exercise restoration.
#[allow(clippy::disallowed_methods)]
fn scribble<T: Scalar>(writes: &[ElemRect], shared: &SharedMatrix<T>) {
    for r in writes {
        // SAFETY: see `capture` — exclusive access per the graph edges.
        unsafe { shared.block_mut(r.row0, r.col0, rows(r), cols(r)).fill(T::from_f64(f64::NAN)) };
    }
}

/// Perturbs one element (chosen by `h`) by a large finite factor — the
/// silent-corruption model: plausible data, wrong value.
#[allow(clippy::disallowed_methods)]
fn corrupt_one<T: Scalar>(writes: &[ElemRect], shared: &SharedMatrix<T>, h: u64) {
    if writes.is_empty() {
        return;
    }
    let r = &writes[(h % writes.len() as u64) as usize];
    let elems = (rows(r) * cols(r)) as u64;
    let idx = (h >> 16) % elems.max(1);
    let (i, j) = ((idx as usize) % rows(r), (idx as usize) / rows(r));
    // SAFETY: see `capture` — exclusive access per the graph edges.
    let mut block = unsafe { shared.block_mut(r.row0, r.col0, rows(r), cols(r)) };
    let v = block.at(i, j);
    let (big, off) = (T::from_f64(1.0e6), T::from_f64(1.0e3));
    let bad = if v.is_finite() { v.mul_add(big, off) } else { big };
    block.set(i, j, bad);
}

/// Runs `body` under the retry protocol. Returns `Ok` if any attempt
/// succeeds; `Err` (with the last failure) once retries are exhausted, or
/// at once, with neither restore nor replay, when the body broke its lease
/// (a [`LeaseViolation`]: the same body would break it again). The
/// body must be re-callable and derive all its inputs from state that the
/// write-set restore returns to the pre-attempt image — true for every
/// plan-builder kernel closure in this workspace.
pub(crate) fn run_recovering<T: Scalar>(
    label: &TaskLabel,
    writes: &[ElemRect],
    shared: &SharedMatrix<T>,
    policy: &RetryPolicy,
    chaos: Option<&ChaosPlan>,
    body: &(dyn Fn() + Send),
) -> TaskResult {
    // Keep the panic-hook filter installed for every attempt; the guard is
    // refcounted, so nested/concurrent recovery scopes share one install.
    let _hook = PanicHookGuard::new();
    let snapshot = if policy.max_retries > 0 && !writes.is_empty() {
        Some(capture(writes, shared))
    } else {
        None
    };
    let mut last = TaskFailure::new("task never attempted");
    for attempt in 0..=policy.max_retries {
        if attempt > 0 {
            note(RecoveryEvent::Retry, Some(*label));
            std::thread::sleep(policy.delay_for(attempt - 1));
        } else {
            note(RecoveryEvent::Attempt, None);
        }
        let target = Target { writes, shared };
        let outcome = guarded(|| {
            inject(chaos, label, Some(&target), || {
                body();
                Ok(())
            })
        });
        match outcome {
            Ok(()) => return Ok(()),
            // Replaying a body that broke its lease would only break it again.
            Err(Caught::Violation(failure)) => return Err(failure),
            Err(Caught::Failure(failure)) => {
                last = failure;
                if let Some(saved) = &snapshot {
                    restore(writes, shared, saved);
                    note(RecoveryEvent::Restore, Some(*label));
                }
            }
        }
    }
    note(RecoveryEvent::Exhausted, None);
    Err(last)
}

/// What an injected fault may damage: the task's write-set on its matrix.
struct Target<'a, T: Scalar> {
    writes: &'a [ElemRect],
    shared: &'a SharedMatrix<T>,
}

/// Failure message of an injected fault.
fn injection_message(panicked: bool, label: &TaskLabel) -> String {
    let what = if panicked { "panic" } else { "failure" };
    format!("chaos: injected {what} at {label}")
}

/// The one place an injected action is carried out: consults `chaos` (if
/// any) for this attempt of `label` and runs `body` accordingly. An injected
/// panic is a real unwind out of this function, so whichever catch path
/// encloses it (the executor's or a retry guard's) is exercised, not
/// simulated. Without a `target` (runs without `retry`, which snapshot
/// nothing) there is nothing to scribble over or corrupt.
fn inject<T: Scalar>(
    chaos: Option<&ChaosPlan>,
    label: &TaskLabel,
    target: Option<&Target<'_, T>>,
    body: impl FnOnce() -> TaskResult,
) -> TaskResult {
    let Some(chaos) = chaos else { return body() };
    let damage = || {
        if let Some(t) = target {
            scribble(t.writes, t.shared);
        }
    };
    match chaos.decide(label) {
        Some(ChaosAction::Fail) => {
            note(RecoveryEvent::InjectedFailure, Some(*label));
            damage();
            Err(TaskFailure::new(injection_message(false, label)))
        }
        Some(ChaosAction::Panic) => {
            note(RecoveryEvent::InjectedPanic, Some(*label));
            damage();
            panic!("{}", injection_message(true, label))
        }
        Some(ChaosAction::Delay(d)) => {
            note(RecoveryEvent::InjectedDelay, Some(*label));
            std::thread::sleep(d);
            body()
        }
        Some(ChaosAction::Corrupt) => {
            let r = body();
            if let Some(t) = target.filter(|t| r.is_ok() && !t.writes.is_empty()) {
                note(RecoveryEvent::InjectedCorruption, Some(*label));
                corrupt_one(t.writes, t.shared, splitmix64(mix(chaos.seed, label, u64::MAX)));
            }
            r
        }
        None => body(),
    }
}

/// A task's job as [`crate::plan_jobs`] hands it out: with `chaos`
/// consulted as it starts — an injection without replay: a failure or panic
/// reaches the executor like a real one. Without, `job` itself.
pub(crate) fn guarded_job(label: TaskLabel, chaos: Option<Arc<ChaosPlan>>, job: DynJob) -> DynJob {
    let Some(chaos) = chaos else { return job };
    Box::new(move || inject(Some(&chaos), &label, None::<&Target<'_, f64>>, job))
}

thread_local! {
    /// Set while a recovery-guarded body runs on this thread, so the panic
    /// hook can tell a caught-and-replayed panic from a genuine crash.
    static IN_GUARDED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// The hook that was installed before the recovery filter, shareable so a
/// panicking thread can keep running it while another thread uninstalls.
type PrevHook = dyn Fn(&std::panic::PanicHookInfo<'_>) + Send + Sync;

struct FilterState {
    /// Live [`PanicHookGuard`]s; the filter is installed while `refs > 0`.
    refs: usize,
    /// The hook that was current when the first guard was created.
    prev: Option<Arc<PrevHook>>,
}

static FILTER: Mutex<FilterState> = Mutex::new(FilterState { refs: 0, prev: None });

/// RAII scope for the recovery panic-hook filter.
///
/// While at least one guard is alive, a process-wide panic hook is
/// installed that stays silent for panics unwinding out of a recovery
/// guard — they are converted to [`TaskFailure`]s and replayed (or, in a
/// chaos drill, injected on purpose), so the default message-plus-backtrace
/// spew is pure noise. Panics anywhere else are forwarded to whatever hook
/// was installed when the first guard was created.
///
/// When the last guard drops, that previous hook's behavior is restored
/// (re-wrapped in a fresh `Box`, so a pointer-identity comparison against
/// the original would fail, but the behavior is the embedder's own). Every
/// `run_recovering` call holds a guard for its duration; long-lived hosts
/// (the serve tier) hold one across their whole lifetime so the hook is not
/// churned per task. Caveat: if an embedder *replaces* the hook while
/// guards are alive, the last guard's drop restores the pre-guard hook over
/// the embedder's replacement — scoped saving cannot detect foreign
/// `set_hook` calls.
#[derive(Debug)]
pub struct PanicHookGuard(());

impl PanicHookGuard {
    /// Installs the filter (first guard) or joins the existing scope.
    pub fn new() -> Self {
        let mut st = FILTER.lock();
        st.refs += 1;
        if st.refs == 1 {
            let prev: Arc<PrevHook> = Arc::from(std::panic::take_hook());
            st.prev = Some(Arc::clone(&prev));
            std::panic::set_hook(Box::new(move |info| {
                if !IN_GUARDED.with(|g| g.get()) {
                    prev(info);
                }
            }));
        }
        Self(())
    }
}

impl Default for PanicHookGuard {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for PanicHookGuard {
    fn drop(&mut self) {
        let mut st = FILTER.lock();
        st.refs -= 1;
        if st.refs == 0 {
            if let Some(prev) = st.prev.take() {
                // Drop our filter and reinstate the saved hook's behavior.
                drop(std::panic::take_hook());
                std::panic::set_hook(Box::new(move |info| prev(info)));
            }
        }
    }
}

/// Runs `f` converting a panic into a `TaskFailure`. The caller (or an
/// enclosing scope) is expected to hold a [`PanicHookGuard`] so the unwind
/// stays silent; without one the panic is still caught, just noisy.
fn guarded(f: impl FnOnce() -> TaskResult) -> Result<(), Caught> {
    let was = IN_GUARDED.with(|g| g.replace(true));
    let r = catch_unwind(AssertUnwindSafe(f));
    IN_GUARDED.with(|g| g.set(was));
    match r {
        Ok(r) => r.map_err(Caught::Failure),
        Err(payload) => {
            let failure = TaskFailure::new(panic_message(payload.as_ref()));
            Err(if payload.is::<LeaseViolation>() {
                Caught::Violation(failure)
            } else {
                Caught::Failure(failure)
            })
        }
    }
}

/// How a [`guarded`] attempt failed.
enum Caught {
    /// The body broke its lease: deterministic, not replayed.
    Violation(TaskFailure),
    /// Anything else, which a replay may get past.
    Failure(TaskFailure),
}

#[cfg(test)]
// Tests read a SharedMatrix directly to check what the protocol left there.
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::task::TaskKind;
    use ca_matrix::Matrix;

    fn label(kind: TaskKind, step: usize) -> TaskLabel {
        TaskLabel::new(kind, step, 0, 0)
    }

    fn one_rect() -> [ElemRect; 1] {
        [ElemRect::new(0..4, 0..4)]
    }

    #[test]
    fn chaos_decisions_are_deterministic_per_occurrence() {
        let l = label(TaskKind::Update, 3);
        let a = ChaosPlan::new(42);
        let b = ChaosPlan::new(42);
        let da: Vec<_> = (0..200).map(|_| a.decide(&l)).collect();
        let db: Vec<_> = (0..200).map(|_| b.decide(&l)).collect();
        assert_eq!(da, db, "same seed, same label sequence, same decisions");
        let c = ChaosPlan::new(43);
        let dc: Vec<_> = (0..200).map(|_| c.decide(&l)).collect();
        assert_ne!(da, dc, "different seed should differ somewhere in 200 draws");
    }

    #[test]
    fn chaos_rates_roughly_match_over_many_draws() {
        let plan = ChaosPlan::with_profile(7, ChaosProfile::quiet().with_fail_rate(0.2));
        let mut fails = 0;
        for step in 0..5000 {
            if plan.decide(&label(TaskKind::Update, step)).is_some() {
                fails += 1;
            }
        }
        let rate = fails as f64 / 5000.0;
        assert!((0.15..0.25).contains(&rate), "observed fail rate {rate}");
    }

    #[test]
    fn quiet_plan_with_rules_fires_exactly_nth() {
        let plan = ChaosPlan::quiet(0).fail_nth(2, |l| l.kind == TaskKind::Panel);
        let l = label(TaskKind::Panel, 0);
        assert!(plan.decide(&l).is_none());
        assert_eq!(plan.decide(&l), Some(ChaosAction::Fail));
        assert!(plan.decide(&l).is_none());
        assert!(plan.decide(&label(TaskKind::Update, 0)).is_none());
    }

    #[test]
    fn class_profile_overrides_default() {
        let plan = ChaosPlan::with_profile(9, ChaosProfile::quiet())
            .with_class_profile(TaskKind::Update, ChaosProfile::quiet().with_fail_rate(1.0));
        assert_eq!(plan.decide(&label(TaskKind::Update, 0)), Some(ChaosAction::Fail));
        assert!(plan.decide(&label(TaskKind::Panel, 0)).is_none());
    }

    #[test]
    fn write_set_is_the_declared_write_footprint() {
        // Ragged 25×25 matrix on 10-blocks: the tracker clamps the block
        // declaration, the write-set is exactly what it recorded on the
        // matrix — the slot the task fills, declared first, is not part of it.
        let mut g: crate::TaskGraph<()> = crate::TaskGraph::new();
        let mut t = crate::BlockTracker::with_geometry(10, 25, 25);
        let id = g.add_task(crate::TaskMeta::new(label(TaskKind::Update, 0), 1.0), ());
        let slot = t.slot_rect();
        t.write_rect(&mut g, id, slot);
        t.read(&mut g, id, 0..1, 0..1);
        t.write(&mut g, id, 1..3, 2..3);
        let access = t.into_access_map();
        assert_eq!(access.writes(id).len(), 2, "the slot is declared");
        assert_eq!(access.matrix_writes(id), &[ElemRect::new(10..25, 20..25)]);
        assert!(access.matrix_writes(id).iter().all(|r| !r.overlaps(&slot)));
        let elems: usize = access.matrix_writes(id).iter().map(|r| rows(r) * cols(r)).sum();
        assert_eq!(elems, 15 * 5, "rows 10..25 x cols 20..25");
        assert!(access.matrix_writes(id + 1).is_empty());
    }

    #[test]
    fn snapshot_restore_round_trips() {
        let shared = SharedMatrix::new(Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64));
        let ws = one_rect();
        let saved = capture(&ws, &shared);
        scribble(&ws, &shared);
        // SAFETY: single-threaded test.
        assert!(unsafe { shared.block(0, 0, 4, 4) }.at(1, 1).is_nan());
        restore(&ws, &shared, &saved);
        let m = shared.into_inner();
        assert_eq!(m[(1, 1)], 5.0);
        assert_eq!(m[(3, 3)], 15.0);
    }

    #[test]
    fn corrupt_one_changes_exactly_one_element() {
        let orig = Matrix::from_fn(4, 4, |i, j| (i + j) as f64 + 1.0);
        let shared = SharedMatrix::new(orig.clone());
        corrupt_one(&one_rect(), &shared, 0xdeadbeef);
        let m = shared.into_inner();
        let changed = (0..4)
            .flat_map(|i| (0..4).map(move |j| (i, j)))
            .filter(|&(i, j)| m[(i, j)] != orig[(i, j)])
            .count();
        assert_eq!(changed, 1);
    }

    /// The note a body run on this thread left, as a job would fold it.
    fn folded() -> RecoveryStats {
        let mut s = RecoveryStats::default();
        s.add(&take_note());
        s
    }

    #[test]
    fn retry_recovers_from_injected_faults() {
        let shared = SharedMatrix::new(Matrix::zeros(4, 4));
        let ws = one_rect();
        let l = label(TaskKind::Update, 0);
        let chaos = ChaosPlan::quiet(0).fail_nth(1, |_| true).panic_nth(2, |_| true);
        let runs = AtomicUsize::new(0);
        take_note();
        let result = run_recovering(
            &l,
            &ws,
            &shared,
            &RetryPolicy::default().with_backoff(Duration::ZERO),
            Some(&chaos),
            &|| {
                runs.fetch_add(1, Ordering::Relaxed);
                // SAFETY: single-threaded test, declared write region.
                #[allow(clippy::disallowed_methods)]
                unsafe {
                    shared.block_mut(0, 0, 4, 4).fill(1.0)
                };
            },
        );
        assert!(result.is_ok());
        assert_eq!(runs.load(Ordering::Relaxed), 1, "body ran once (injections precede it)");
        let stats = folded();
        assert_eq!(stats.attempts, 3);
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.recovered_tasks, 1);
        assert_eq!(stats.injected_failures, 1);
        assert_eq!(stats.injected_panics, 1);
        assert_eq!(stats.restores, 2);
        let m = shared.into_inner();
        assert_eq!(m[(2, 2)], 1.0, "final attempt's writes survive");
    }

    #[test]
    fn exhausted_retries_restore_and_fail() {
        let shared = SharedMatrix::new(Matrix::from_fn(4, 4, |_, _| 7.0));
        let ws = one_rect();
        let l = label(TaskKind::Update, 0);
        let chaos = ChaosPlan::with_profile(0, ChaosProfile::quiet().with_fail_rate(1.0));
        let policy = RetryPolicy::default().with_max_retries(2).with_backoff(Duration::ZERO);
        take_note();
        let result = run_recovering(&l, &ws, &shared, &policy, Some(&chaos), &|| {});
        assert!(result.is_err());
        let stats = folded();
        assert_eq!(stats.attempts, 3);
        assert_eq!(stats.exhausted_tasks, 1);
        assert_eq!(stats.recovered_tasks, 0);
        let m = shared.into_inner();
        assert_eq!(m[(0, 0)], 7.0, "write-set restored even on exhaustion");
    }

    #[test]
    fn retry_backoff_doubles_up_to_its_cap() {
        let p = RetryPolicy::default().with_max_retries(10).with_backoff(Duration::from_millis(3));
        assert_eq!(p.delay_for(0), Duration::from_millis(3));
        assert_eq!(p.delay_for(1), Duration::from_millis(6));
        assert_eq!(p.delay_for(2), MAX_BACKOFF);
        assert_eq!(p.delay_for(9), MAX_BACKOFF);
    }

    #[test]
    fn recovery_stats_counts_round_trip_by_name() {
        let s = RecoveryStats { restores: 2, probe_failures: 1, replays: 3, ..Default::default() };
        assert_eq!(RecoveryStats::from_counts(s.counts()), s);
        let named: Vec<_> =
            RecoveryStats::NAMES.iter().zip(s.counts()).filter(|(_, c)| *c > 0).collect();
        assert_eq!(named, [(&"restores", 2), (&"probe_failures", 1), (&"replays", 3)]);
    }
}
