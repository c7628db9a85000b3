//! Deterministic fault injection for the serving stack (feature
//! `chaos`).
//!
//! A [`FaultPlan`] installs on server start
//! ([`crate::ServeConfig::faults`]) and injects faults at named
//! [`FaultSite`]s inside the dispatcher loop and the sharded front
//! end: panics (exercising `catch_unwind` supervision and the restart
//! circuit breaker), added latency (exercising per-shard timeouts and
//! degraded coverage), and forced admission overload. Sampling is
//! driven by the vendored [`rand::rngs::StdRng`], so a given seed
//! draws the same fault sequence every run — scheduling decides only
//! *which* request absorbs each draw, never how many faults fire.
//!
//! Plans start **disarmed**: a disarmed plan samples nothing, so a
//! server can run a healthy warm-up phase, [`FaultPlan::set_armed`]
//! mid-flight, and heal again once every rule's budget is spent.
//! Injected panics carry the [`CHAOS_PANIC`] marker in their payload
//! so test harnesses can tell injected crashes from real bugs.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, PoisonError};

use femcam_core::sync::Mutex;
use std::time::Duration;

use rand::{rngs::StdRng, Rng, SeedableRng};

/// Marker prefix of every injected panic payload.
pub const CHAOS_PANIC: &str = "chaos: injected panic";

/// Where a fault injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// In the dispatcher, after a window closed but before its batch
    /// sweeps run — the whole window is in flight and unanswered.
    PreBatch,
    /// In the dispatcher, after the batch sweeps computed but before
    /// any waiter is answered.
    PostBatch,
    /// In the dispatcher's store path, before the word is applied —
    /// an injected store panic deterministically does *not* mutate
    /// the memory.
    Store,
    /// In the sharded front end's router read (route lookup). A
    /// `Panic` here poisons the router lock from a sacrificial
    /// thread — the documented poisoned-router degrade path — and
    /// never unwinds a client.
    RouterRead,
    /// At a shard's admission check: an `Overload` here rejects the
    /// submission as if the shard's queue were full.
    Admission,
    /// In the re-admit supervisor, before a quarantined shard's memory
    /// is reclaimed. A `Panic` here aborts the probe (the shard stays
    /// quarantined, `probe_failures` counts it); a `Delay` stretches
    /// the resurrection window so races with live traffic get
    /// exercised.
    Probe,
    /// In the re-admit supervisor, after the replacement dispatcher
    /// passed its canary but before the health board flips to
    /// `Healthy`. A `Panic` here fails the probe at the last possible
    /// moment — the replacement stays installed but quarantined, and
    /// the next probe must re-run the canary.
    Readmit,
}

const N_SITES: usize = 7;

fn site_index(site: FaultSite) -> usize {
    match site {
        FaultSite::PreBatch => 0,
        FaultSite::PostBatch => 1,
        FaultSite::Store => 2,
        FaultSite::RouterRead => 3,
        FaultSite::Admission => 4,
        FaultSite::Probe => 5,
        FaultSite::Readmit => 6,
    }
}

/// What happens when a fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic on the executing thread (dispatcher sites) or poison the
    /// router lock ([`FaultSite::RouterRead`]).
    Panic,
    /// Sleep for the given duration at the site.
    Delay(Duration),
    /// Reject as overloaded ([`FaultSite::Admission`] only; ignored
    /// elsewhere).
    Overload,
}

/// One injection rule: at `site`, fire `kind` with `probability` per
/// visit, at most `budget` times (`None` = unlimited).
#[derive(Debug, Clone)]
pub struct FaultRule {
    /// Where the rule applies.
    pub site: FaultSite,
    /// What it injects.
    pub kind: FaultKind,
    /// Per-visit firing probability in `[0, 1]`; `1.0` fires on every
    /// visit (without consuming an RNG draw, so budgeted
    /// deterministic rules stay schedule-independent).
    pub probability: f64,
    /// Remaining firings, `None` for unlimited.
    pub budget: Option<u64>,
}

impl FaultRule {
    /// An always-firing rule with a bounded budget — the deterministic
    /// building block of targeted kill scenarios.
    #[must_use]
    pub fn sure(site: FaultSite, kind: FaultKind, budget: u64) -> Self {
        FaultRule {
            site,
            kind,
            probability: 1.0,
            budget: Some(budget),
        }
    }
}

#[derive(Debug)]
struct RuleState {
    rule: FaultRule,
    /// Remaining budget; `u64::MAX` stands in for unlimited.
    remaining: AtomicU64,
}

#[derive(Debug)]
struct PlanInner {
    armed: AtomicBool,
    rules: Vec<RuleState>,
    rng: Mutex<StdRng>,
    injected: [AtomicU64; N_SITES],
}

/// A cheaply-cloneable, thread-shared fault schedule. All clones share
/// one arming switch, one RNG stream, and one set of rule budgets.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    inner: Arc<PlanInner>,
}

impl FaultPlan {
    /// Builds a disarmed plan; arm it with
    /// [`set_armed`](Self::set_armed).
    #[must_use]
    pub fn new(seed: u64, rules: Vec<FaultRule>) -> Self {
        FaultPlan {
            inner: Arc::new(PlanInner {
                armed: AtomicBool::new(false),
                rules: rules
                    .into_iter()
                    .map(|rule| RuleState {
                        remaining: AtomicU64::new(rule.budget.unwrap_or(u64::MAX)),
                        rule,
                    })
                    .collect(),
                rng: Mutex::new("serve.fault.rng", StdRng::seed_from_u64(seed)),
                injected: Default::default(),
            }),
        }
    }

    /// [`new`](Self::new), already armed.
    #[must_use]
    pub fn armed(seed: u64, rules: Vec<FaultRule>) -> Self {
        let plan = Self::new(seed, rules);
        plan.set_armed(true);
        plan
    }

    /// Arms or disarms every clone of this plan.
    pub fn set_armed(&self, armed: bool) {
        // ORDERING: Release pairs with the Acquire in `is_armed`: a
        // sampler that observes `armed == true` also observes every
        // write the arming thread made before arming (rule budgets are
        // immutable after construction, so this is belt-and-braces,
        // not load-bearing).
        self.inner.armed.store(armed, Ordering::Release);
    }

    /// Whether the plan is currently armed.
    #[must_use]
    pub fn is_armed(&self) -> bool {
        // ORDERING: Acquire — see `set_armed`.
        self.inner.armed.load(Ordering::Acquire)
    }

    /// Faults injected at `site` so far (across all clones).
    #[must_use]
    pub fn injected(&self, site: FaultSite) -> u64 {
        // ORDERING: Relaxed — a diagnostic counter. Tests read it
        // either after joining the injecting threads or after a
        // fulfilled ticket, both of which already order the counting
        // `fetch_add` before this load (join / the one-shot's mutex).
        self.inner.injected[site_index(site)].load(Ordering::Relaxed)
    }

    /// Samples the site: the fault to inject on this visit, if any.
    /// The first matching armed rule that passes its probability draw
    /// and still has budget fires; its budget is consumed atomically,
    /// so a rule never over-fires under concurrent visits.
    #[must_use]
    pub fn sample(&self, site: FaultSite) -> Option<FaultKind> {
        if !self.is_armed() {
            return None;
        }
        for state in &self.inner.rules {
            if state.rule.site != site {
                continue;
            }
            if state.rule.probability < 1.0 {
                let mut rng = self
                    .inner
                    .rng
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                if !rng.gen_bool(state.rule.probability.max(0.0)) {
                    continue;
                }
            }
            // ORDERING: Relaxed — never-over-firing is the RMW's
            // atomicity (a budget unit is consumed exactly once); no
            // other memory rides on the decrement.
            let took = state
                .remaining
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |r| r.checked_sub(1))
                .is_ok();
            if took {
                // ORDERING: Relaxed — see `injected` (readers are
                // ordered by join or the fulfilled one-shot).
                self.inner.injected[site_index(site)].fetch_add(1, Ordering::Relaxed);
                return Some(state.rule.kind);
            }
        }
        None
    }
}

/// Executes a sampled fault at a dispatcher site: panics unwind the
/// dispatcher (to be caught by its supervisor), delays sleep in place,
/// and `Overload` is meaningless here (ignored).
pub(crate) fn trigger_dispatcher_fault(kind: FaultKind) {
    match kind {
        // femcam::allow(no_panic): the injected panic IS the fault —
        // chaos-only instrumentation, unwound into the dispatcher's
        // catch_unwind supervisor by design.
        FaultKind::Panic => panic!("{CHAOS_PANIC}"),
        FaultKind::Delay(d) => std::thread::sleep(d),
        FaultKind::Overload => {}
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn disarmed_plan_never_fires() {
        let plan = FaultPlan::new(
            7,
            vec![FaultRule::sure(FaultSite::Store, FaultKind::Panic, 5)],
        );
        for _ in 0..10 {
            assert_eq!(plan.sample(FaultSite::Store), None);
        }
        assert_eq!(plan.injected(FaultSite::Store), 0);
    }

    #[test]
    fn budget_bounds_firings_and_counts_them() {
        let plan = FaultPlan::armed(
            7,
            vec![FaultRule::sure(FaultSite::Store, FaultKind::Panic, 3)],
        );
        let fired = (0..10)
            .filter(|_| plan.sample(FaultSite::Store).is_some())
            .count();
        assert_eq!(fired, 3);
        assert_eq!(plan.injected(FaultSite::Store), 3);
        // Other sites are untouched.
        assert_eq!(plan.sample(FaultSite::PreBatch), None);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let draws = |seed| {
            let plan = FaultPlan::armed(
                seed,
                vec![FaultRule {
                    site: FaultSite::PreBatch,
                    kind: FaultKind::Panic,
                    probability: 0.4,
                    budget: None,
                }],
            );
            (0..64)
                .map(|_| plan.sample(FaultSite::PreBatch).is_some())
                .collect::<Vec<_>>()
        };
        assert_eq!(draws(11), draws(11));
        assert_ne!(draws(11), draws(12), "distinct seeds draw distinct streams");
    }

    #[test]
    fn clones_share_budget_and_arming() {
        let plan = FaultPlan::new(
            1,
            vec![FaultRule::sure(FaultSite::Store, FaultKind::Panic, 2)],
        );
        let clone = plan.clone();
        clone.set_armed(true);
        assert!(plan.is_armed());
        assert!(plan.sample(FaultSite::Store).is_some());
        assert!(clone.sample(FaultSite::Store).is_some());
        assert_eq!(plan.sample(FaultSite::Store), None);
        assert_eq!(plan.injected(FaultSite::Store), 2);
    }
}
