//! The Module Manager: routes packets to active modules and re-evaluates
//! activation whenever the Knowledge Base changes.
//!
//! Re-evaluation is incremental: each slot keeps the label patterns its
//! contract declares as activation reads, and a pass calls `required()`
//! only for slots whose patterns match a label in the change batch (plus
//! stale slots and slots that declare no activation reads).
//!
//! Every dispatch is supervised (see [`super::supervisor`]): panics are
//! caught and isolated, watchdog-budget overruns are tracked, crash-looping
//! modules are quarantined with exponential backoff, and under overload
//! unpinned detection modules see sampled dispatch in priority order.

use kalis_packets::{CapturedPacket, Timestamp};

use crate::knowledge::{ChangeEvent, KnowledgeBase};

use super::supervisor::{ModuleHealth, ShedMode, Supervision, SupervisorConfig, SupervisorVerdict};
use super::{KeyPattern, Module, ModuleCtx, ModuleKind, ModuleWeight};

use kalis_telemetry::{metric_name, names, Counter, Gauge, Histogram, JournalEvent, Telemetry};
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

struct Slot {
    module: Box<dyn Module>,
    active: bool,
    /// Activated by configuration: stays on regardless of knowledge.
    pinned: bool,
    /// An unpinned detection module: in an adaptive manager its
    /// activation follows the knowledge. Sensing and pinned modules
    /// stay on and never call `required()`.
    gated: bool,
    /// Patterns of the contract's activation reads, filled in when the
    /// manager builds its [`ActivationIndex`]. Empty after that means the
    /// module declares none and is re-evaluated on every pass.
    activation_reads: Vec<KeyPattern>,
    /// `active` may disagree with `required()`: the slot was never
    /// evaluated, or a pass skipped it while quarantined. The next pass
    /// evaluates it whatever changed.
    stale: bool,
    /// Panic/budget/quarantine bookkeeping for this module.
    supervision: Supervision,
    /// Shed-eligible dispatches seen; drives the deterministic 1-in-N
    /// sampling while shedding.
    shed_seq: u64,
    /// Cumulative measured CPU self-time, ns. Only timed dispatches
    /// contribute (see [`DISPATCH_SAMPLE_MASK`]), so this is a sampled
    /// lower bound on true self-time.
    cpu_ns: u64,
    /// Dispatches that consumed work (completed or panicked part-way).
    dispatches: u64,
    /// Dispatches skipped by overload shedding.
    sheds: u64,
    /// Cached per-module dispatch latency series (`dispatch.packet` /
    /// `dispatch.tick`), populated once telemetry is attached.
    packet_hist: Option<Arc<Histogram>>,
    tick_hist: Option<Arc<Histogram>>,
    /// Per-module `supervisor.shed[module=...]` counter.
    shed_counter: Option<Arc<Counter>>,
    /// Per-module `module.cpu_ns[module=...]` counter.
    cpu_counter: Option<Arc<Counter>>,
    /// Per-module `module.occupancy[module=...]` gauge, refreshed by
    /// [`ModuleManager::publish_profiles`].
    occupancy_gauge: Option<Arc<Gauge>>,
    /// Per-module `module.evictions[module=...]` gauge (a gauge, not a
    /// counter: a module reset legitimately returns it to zero).
    evictions_gauge: Option<Arc<Gauge>>,
    /// Per-module `module.state_budget[module=...]` gauge.
    budget_gauge: Option<Arc<Gauge>>,
    /// Per-module `module.work_units[module=...]` gauge.
    work_gauge: Option<Arc<Gauge>>,
}

/// Cached instrument handles for the manager itself.
#[derive(Clone)]
struct ManagerTele {
    registry: Arc<Telemetry>,
    activated: Arc<Counter>,
    deactivated: Arc<Counter>,
    active: Arc<Gauge>,
    panics: Arc<Counter>,
    overruns: Arc<Counter>,
    quarantines: Arc<Counter>,
    quarantined: Arc<Gauge>,
    shed_skips: Arc<Counter>,
}

/// Counters describing one packet dispatch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatchOutcome {
    /// Modules that processed the packet to completion.
    pub modules_run: u64,
    /// Modules whose handler panicked; the unwind was caught, the
    /// module's state reset, and the node kept going. Panicked
    /// dispatches still cost work (they ran until the panic), so
    /// `work.units` counts `modules_run + modules_panicked`.
    pub modules_panicked: u64,
    /// Modules skipped by overload shedding. Shed dispatches cost no
    /// work and are *not* part of `work.units`.
    pub modules_shed: u64,
    /// Measured CPU self-time spent inside module handlers during this
    /// dispatch, ns. Zero when the dispatch was untimed (timing is
    /// sampled; see `DISPATCH_SAMPLE_MASK`).
    pub cpu_ns: u64,
}

impl DispatchOutcome {
    /// Dispatches that consumed CPU (completed or panicked part-way) —
    /// the value `ResourceMeter` charges as `work.units`.
    pub fn work_units(&self) -> u64 {
        self.modules_run + self.modules_panicked
    }
}

/// Point-in-time resource and health profile of one loaded module,
/// assembled by [`ModuleManager::module_profiles`] for the ops surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleProfile {
    /// Registry name.
    pub name: &'static str,
    /// Sensing or detection.
    pub kind: ModuleKind,
    /// Pinned by configuration (always on, never shed).
    pub pinned: bool,
    /// Currently in the dispatch set.
    pub active: bool,
    /// Supervisor health state.
    pub health: ModuleHealth,
    /// Cumulative measured CPU self-time, ns (sampled lower bound).
    pub cpu_ns: u64,
    /// Dispatches that consumed work (completed or panicked part-way).
    pub dispatches: u64,
    /// Dispatches skipped by overload shedding.
    pub sheds: u64,
    /// Entries currently held in the module's per-entity tracking maps.
    pub occupancy: usize,
    /// Entries evicted from bounded per-entity structures to stay
    /// within the state budget (zeroed by a module reset).
    pub evictions: u64,
    /// The configured per-entity state budget (0 = unbudgeted module).
    pub state_budget: usize,
    /// Rough live-state size, bytes.
    pub state_bytes: usize,
}

/// Lifetime supervisor totals across all modules.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SupervisorStats {
    /// Panics caught and isolated.
    pub panics: u64,
    /// Watchdog-budget overruns observed.
    pub overruns: u64,
    /// Quarantine transitions entered.
    pub quarantines: u64,
    /// Dispatches skipped by overload shedding.
    pub sheds: u64,
}

/// Coordinates the module library (paper §IV-B4): "activating/deactivating
/// them as needed, depending on changes in the Knowledge Base, routing new
/// packet events to all the interested parties, and collecting alerts".
pub struct ModuleManager {
    slots: Vec<Slot>,
    /// When `false`, knowledge-driven activation is disabled and every
    /// module is always active — the *traditional IDS* emulation used by
    /// the paper's evaluation ("running our system without Knowledge Base,
    /// and with all the modules active at all times").
    adaptive: bool,
    /// Built on the first incremental pass that consults it; dropped by
    /// [`ModuleManager::add`] so the next pass rebuilds it.
    index: Option<ActivationIndex>,
    flips: Flips,
    supervisor: SupervisorConfig,
    stats: SupervisorStats,
    tele: Option<ManagerTele>,
    /// Dispatch sequence number driving latency sampling.
    dispatch_seq: u64,
}

/// Per-module dispatch latency is sampled on one packet in
/// `DISPATCH_SAMPLE + 1`: clock reads are the dominant instrumentation
/// cost (N modules need N+1 reads), and sampling keeps them off the
/// common path while the histograms stay statistically representative.
/// (When a watchdog budget is configured, every dispatch is timed
/// regardless — the budget check cannot sample.)
const DISPATCH_SAMPLE_MASK: u64 = 7;

/// The union of the gated slots' activation-read patterns, so a pass
/// drops the changes no module gates on with one lookup per label.
#[derive(Debug, Default)]
struct ActivationIndex {
    exact: BTreeSet<String>,
    families: Vec<KeyPattern>,
}

impl ActivationIndex {
    /// Fill every gated slot's `activation_reads` from its contract and
    /// collect their union.
    fn build(slots: &mut [Slot]) -> Self {
        let mut index = ActivationIndex::default();
        for slot in slots.iter_mut().filter(|s| s.gated) {
            slot.activation_reads = slot
                .module
                .contract()
                .activation_inputs()
                .map(|k| k.pattern.clone())
                .collect();
            for pattern in &slot.activation_reads {
                match pattern {
                    KeyPattern::Exact(label) => {
                        index.exact.insert(label.clone());
                    }
                    KeyPattern::Family(_) => index.families.push(pattern.clone()),
                }
            }
        }
        index
    }

    fn covers(&self, label: &str) -> bool {
        self.exact.contains(label) || self.families.iter().any(|p| p.matches(label))
    }
}

/// Lifetime activation flips. Kept apart from the slot list so a flip
/// can be recorded while the slots are borrowed.
#[derive(Debug, Default, Clone, Copy)]
struct Flips {
    activations: u64,
    deactivations: u64,
}

impl Flips {
    /// Set `slot`'s active bit to `want`, count the flip and journal it
    /// against `trigger`. Call only when `want` differs from the bit.
    fn record(
        &mut self,
        slot: &mut Slot,
        want: bool,
        tele: Option<&ManagerTele>,
        time_us: u64,
        trigger: &str,
    ) {
        slot.active = want;
        if want {
            self.activations += 1;
        } else {
            self.deactivations += 1;
        }
        if let Some(t) = tele {
            let module = slot.module.descriptor().name.to_string();
            let trigger = trigger.to_string();
            let event = if want {
                t.activated.inc();
                JournalEvent::ModuleActivated { module, trigger }
            } else {
                t.deactivated.inc();
                JournalEvent::ModuleDeactivated { module, trigger }
            };
            t.registry.journal().record(time_us, event);
        }
    }
}

/// Summarize a batch of knowledge changes as the `trigger` string
/// recorded with every module flip in the journal's audit trail.
fn describe_trigger(changes: &[ChangeEvent]) -> String {
    let mut parts: Vec<String> = changes
        .iter()
        .take(3)
        .map(|c| {
            if c.removed {
                format!("-{}", c.key.encode())
            } else {
                c.key.encode()
            }
        })
        .collect();
    if changes.len() > 3 {
        parts.push(format!("+{} more", changes.len() - 3));
    }
    parts.join(",")
}

/// Journal trigger of a module deactivated on release from quarantine
/// because its knowledge stopped requiring it meanwhile.
const PROBATION_TRIGGER: &str = "probation: not required";

/// Human-readable panic payload for the journal.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Keep one dispatch in N for this weight class under `mode`, or `None`
/// when the class is not shed at all.
fn shed_keep_interval(cfg: &SupervisorConfig, weight: ModuleWeight, mode: ShedMode) -> Option<u64> {
    let n = cfg.shed_sample.max(2);
    match (mode, weight) {
        (ShedMode::None, _) => None,
        (ShedMode::Heavy, ModuleWeight::Light) => None,
        (ShedMode::Heavy, ModuleWeight::Heavy) => Some(n),
        (ShedMode::All, ModuleWeight::Light) => Some(n),
        (ShedMode::All, ModuleWeight::Heavy) => Some(n * 4),
    }
}

impl ModuleManager {
    /// An adaptive (knowledge-driven) manager.
    pub fn new() -> Self {
        ModuleManager {
            slots: Vec::new(),
            adaptive: true,
            index: None,
            flips: Flips::default(),
            supervisor: SupervisorConfig::default(),
            stats: SupervisorStats::default(),
            tele: None,
            dispatch_seq: 0,
        }
    }

    /// A manager with every module always active (the traditional-IDS
    /// baseline configuration).
    pub fn all_always_active() -> Self {
        ModuleManager {
            adaptive: false,
            ..ModuleManager::new()
        }
    }

    /// Whether knowledge-driven activation is enabled.
    pub fn is_adaptive(&self) -> bool {
        self.adaptive
    }

    /// Replace the supervisor tuning knobs.
    pub fn set_supervisor(&mut self, cfg: SupervisorConfig) {
        self.supervisor = cfg;
    }

    /// The supervisor tuning knobs in effect.
    pub fn supervisor_config(&self) -> &SupervisorConfig {
        &self.supervisor
    }

    /// Lifetime supervisor totals.
    pub fn supervisor_stats(&self) -> SupervisorStats {
        self.stats
    }

    /// Add a module. `pinned` modules (named in the configuration file)
    /// start active and stay active.
    pub fn add(&mut self, module: Box<dyn Module>, pinned: bool) {
        let gated = !pinned && module.descriptor().kind == ModuleKind::Detection;
        self.index = None;
        self.slots.push(Slot {
            module,
            active: !gated || !self.adaptive,
            pinned,
            gated,
            activation_reads: Vec::new(),
            stale: true,
            supervision: Supervision::default(),
            shed_seq: 0,
            cpu_ns: 0,
            dispatches: 0,
            sheds: 0,
            packet_hist: None,
            tick_hist: None,
            shed_counter: None,
            cpu_counter: None,
            occupancy_gauge: None,
            evictions_gauge: None,
            budget_gauge: None,
            work_gauge: None,
        });
        if let Some(t) = &self.tele {
            let registry = Arc::clone(&t.registry);
            if let Some(slot) = self.slots.last_mut() {
                Self::slot_instruments(slot, &registry);
            }
            t.active.set(self.active_count() as u64);
        }
    }

    /// Attach a telemetry registry: per-module dispatch latency is
    /// recorded from now on, and [`ModuleManager::reconfigure_traced`]
    /// journals every activation flip.
    pub fn set_telemetry(&mut self, registry: &Arc<Telemetry>) {
        let tele = ManagerTele {
            registry: Arc::clone(registry),
            activated: registry.counter(names::MODULES_ACTIVATED),
            deactivated: registry.counter(names::MODULES_DEACTIVATED),
            active: registry.gauge(names::MODULES_ACTIVE),
            panics: registry.counter(names::MODULE_PANICS),
            overruns: registry.counter(names::BUDGET_OVERRUNS),
            quarantines: registry.counter(names::MODULE_QUARANTINES),
            quarantined: registry.gauge(names::MODULES_QUARANTINED),
            shed_skips: registry.counter(names::SHED_SKIPS),
        };
        for slot in &mut self.slots {
            Self::slot_instruments(slot, &tele.registry);
        }
        tele.active.set(self.active_count() as u64);
        self.tele = Some(tele);
    }

    fn slot_instruments(slot: &mut Slot, registry: &Telemetry) {
        let name = slot.module.descriptor().name;
        slot.packet_hist =
            Some(registry.histogram(&metric_name(names::DISPATCH_PACKET, &[("module", name)])));
        slot.tick_hist =
            Some(registry.histogram(&metric_name(names::DISPATCH_TICK, &[("module", name)])));
        slot.shed_counter =
            Some(registry.counter(&metric_name(names::SHED_BY_MODULE, &[("module", name)])));
        slot.cpu_counter =
            Some(registry.counter(&metric_name(names::MODULE_CPU_NS, &[("module", name)])));
        slot.occupancy_gauge =
            Some(registry.gauge(&metric_name(names::MODULE_OCCUPANCY, &[("module", name)])));
        slot.evictions_gauge =
            Some(registry.gauge(&metric_name(names::MODULE_EVICTIONS, &[("module", name)])));
        slot.budget_gauge = Some(registry.gauge(&metric_name(
            names::MODULE_STATE_BUDGET,
            &[("module", name)],
        )));
        slot.work_gauge =
            Some(registry.gauge(&metric_name(names::MODULE_WORK_UNITS, &[("module", name)])));
    }

    /// Re-evaluate every module's activation against the Knowledge Base.
    /// Returns `(activated, deactivated)` counts for this pass.
    pub fn reconfigure(&mut self, kb: &KnowledgeBase) -> (usize, usize) {
        self.apply_reconfigure(kb, None, 0)
    }

    /// Re-evaluate activation after the knowledge `changes` (drained
    /// from `kb`), and journal every flip with the changed keys and the
    /// capture time — the audit trail of the knowledge-driven adaptation
    /// loop. Only slots whose declared activation reads match a changed
    /// label are re-evaluated (plus stale and undeclared ones); every
    /// other slot keeps its active bit.
    pub fn reconfigure_traced(
        &mut self,
        kb: &KnowledgeBase,
        changes: &[ChangeEvent],
        time_us: u64,
    ) -> (usize, usize) {
        self.apply_reconfigure(kb, Some(changes), time_us)
    }

    /// One activation pass. `changes == None` is the full sweep: every
    /// unpinned detection slot is re-evaluated.
    fn apply_reconfigure(
        &mut self,
        kb: &KnowledgeBase,
        changes: Option<&[ChangeEvent]>,
        time_us: u64,
    ) -> (usize, usize) {
        if !self.adaptive {
            return (0, 0);
        }
        let gating = changes.map(|changes| self.gating_labels(changes));
        let mut activated = 0;
        let mut deactivated = 0;
        let mut trigger: Option<String> = None;
        for slot in &mut self.slots {
            // Quarantined modules sit out activation entirely: the
            // supervisor owns their lifecycle until probation.
            if slot.supervision.is_quarantined() {
                slot.stale = true;
                continue;
            }
            // Sensing modules are the knowledge source and pinned ones
            // are on by configuration: neither consults the knowledge.
            let want = !slot.gated
                || if Self::needs_evaluation(slot, gating.as_deref()) {
                    slot.stale = false;
                    slot.module.required(kb)
                } else {
                    slot.active
                };
            if want != slot.active {
                if want {
                    activated += 1;
                } else {
                    deactivated += 1;
                }
                let trigger = trigger
                    .get_or_insert_with(|| changes.map(describe_trigger).unwrap_or_default());
                self.flips
                    .record(slot, want, self.tele.as_ref(), time_us, trigger);
            }
        }
        if activated + deactivated > 0 {
            if let Some(t) = &self.tele {
                t.active.set(self.active_count() as u64);
            }
        }
        (activated, deactivated)
    }

    /// The distinct labels in `changes` that some gated module's
    /// activation reads cover: usually none. Builds the index on the
    /// first pass where a slot would consult it.
    fn gating_labels<'c>(&mut self, changes: &'c [ChangeEvent]) -> Vec<&'c str> {
        let mut labels = Vec::new();
        if self.index.is_none() && self.slots.iter().all(|s| !s.gated || s.stale) {
            // Every gated slot is evaluated this pass anyway.
            return labels;
        }
        let index = self
            .index
            .get_or_insert_with(|| ActivationIndex::build(&mut self.slots));
        let mut last = None;
        for change in changes {
            let label = change.key.label.as_str();
            // Per-entity writes of one label usually arrive together
            // (TrafficStats publishes in key order): look each run of a
            // label up once.
            if last == Some(label) {
                continue;
            }
            last = Some(label);
            if index.covers(label) && !labels.contains(&label) {
                labels.push(label);
            }
        }
        labels
    }

    /// Whether an unpinned detection slot must call `required()` in a
    /// pass whose changes touch the activation labels `gating` (`None` =
    /// full sweep). Labels ignore creator and entity, so a match covers
    /// every key `required()` reads.
    fn needs_evaluation(slot: &Slot, gating: Option<&[&str]>) -> bool {
        let Some(labels) = gating else {
            return true;
        };
        slot.stale
            || slot.activation_reads.is_empty()
            || labels
                .iter()
                .any(|l| slot.activation_reads.iter().any(|p| p.matches(l)))
    }

    /// Probation gate for a quarantined slot at dispatch time: `None`
    /// while its backoff holds. Otherwise the module is released and
    /// the result says whether it may run: a stale slot (activation
    /// passes skipped it while it was benched) is re-checked against
    /// the knowledge first, and deactivated if no longer required.
    fn release(
        slot: &mut Slot,
        kb: &KnowledgeBase,
        now: Timestamp,
        cfg: &SupervisorConfig,
        adaptive: bool,
        flips: &mut Flips,
        tele: Option<&ManagerTele>,
    ) -> Option<bool> {
        if !slot.supervision.try_release(now, cfg) {
            return None;
        }
        if let Some(t) = tele {
            t.registry.journal().record(
                now.as_micros(),
                JournalEvent::ModuleProbation {
                    module: slot.module.descriptor().name.to_string(),
                },
            );
        }
        if adaptive && slot.gated && slot.stale {
            slot.stale = false;
            if !slot.module.required(kb) {
                flips.record(slot, false, tele, now.as_micros(), PROBATION_TRIGGER);
                return Some(false);
            }
        }
        Some(true)
    }

    /// Route one packet to every active module (no shedding).
    pub fn dispatch_packet(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        packet: &CapturedPacket,
    ) -> DispatchOutcome {
        self.dispatch_packet_shed(ctx, packet, ShedMode::None)
    }

    /// Route one packet to every active module under the given shed
    /// mode. Every module call is supervised: panics are caught and
    /// isolated, budget overruns tracked, quarantined modules skipped
    /// (and released to probation when their backoff expires).
    pub fn dispatch_packet_shed(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        packet: &CapturedPacket,
        shed: ShedMode,
    ) -> DispatchOutcome {
        let mut outcome = DispatchOutcome::default();
        let cfg = &self.supervisor;
        let budget = cfg.budget;
        let sampled = {
            self.dispatch_seq = self.dispatch_seq.wrapping_add(1);
            self.tele.is_some() && self.dispatch_seq & DISPATCH_SAMPLE_MASK == 0
        };
        // kalis-lint: allow(KL302): measures real CPU cost for the supervisor budget
        let mut prev = (sampled || budget.is_some()).then(Instant::now);
        let mut quarantine_flips: u64 = 0;
        let mut quarantine_releases: u64 = 0;
        let mut overruns: u64 = 0;
        for slot in &mut self.slots {
            if !slot.active {
                continue;
            }
            if slot.supervision.is_quarantined() {
                let Some(run) = Self::release(
                    slot,
                    ctx.kb,
                    ctx.now,
                    cfg,
                    self.adaptive,
                    &mut self.flips,
                    self.tele.as_ref(),
                ) else {
                    continue;
                };
                quarantine_releases += 1;
                if !run {
                    continue;
                }
            }
            // Shed gate: sensing and pinned modules always run; unpinned
            // detection modules see deterministic 1-in-N sampling while
            // the overload controller is shedding.
            let descriptor = slot.module.descriptor();
            if slot.gated {
                if let Some(keep) = shed_keep_interval(cfg, descriptor.weight, shed) {
                    let seq = slot.shed_seq;
                    slot.shed_seq = slot.shed_seq.wrapping_add(1);
                    if seq % keep != 0 {
                        outcome.modules_shed += 1;
                        slot.sheds += 1;
                        if let Some(t) = &self.tele {
                            t.shed_skips.inc();
                            if let Some(c) = &slot.shed_counter {
                                c.inc();
                            }
                        }
                        continue;
                    }
                }
            }
            // Attribute KB writes from the callback to this module, so
            // alert provenance can name who produced each knowgget.
            ctx.kb.set_writer(descriptor.name);
            let result = {
                let module = &mut slot.module;
                catch_unwind(AssertUnwindSafe(|| module.on_packet(ctx, packet)))
            };
            // Timing: consecutive `Instant::now()` reads so N modules
            // cost N+1 clock reads, not 2N.
            let elapsed = prev.as_mut().map(|p| {
                let now = Instant::now(); // kalis-lint: allow(KL302): supervisor cost probe
                let e = now - *p;
                *p = now;
                e
            });
            slot.dispatches += 1;
            if let Some(e) = elapsed {
                let ns = e.as_nanos() as u64;
                outcome.cpu_ns += ns;
                slot.cpu_ns += ns;
                if let Some(c) = &slot.cpu_counter {
                    c.add(ns);
                }
            }
            match result {
                Ok(()) => {
                    outcome.modules_run += 1;
                    if sampled {
                        if let (Some(e), Some(hist)) = (elapsed, &slot.packet_hist) {
                            hist.record(e.as_nanos() as u64);
                        }
                    }
                    let overrun = matches!((elapsed, budget), (Some(e), Some(b)) if e > b);
                    if overrun {
                        overruns += 1;
                        let verdict = slot.supervision.note_overrun(ctx.now, cfg);
                        if let Some(t) = &self.tele {
                            t.overruns.inc();
                        }
                        if let SupervisorVerdict::Quarantined { backoff, .. } = verdict {
                            quarantine_flips += 1;
                            if let Some(t) = &self.tele {
                                t.quarantines.inc();
                                t.registry.journal().record(
                                    ctx.now.as_micros(),
                                    JournalEvent::ModuleQuarantined {
                                        module: descriptor.name.to_string(),
                                        reason: "repeated watchdog budget overruns".to_string(),
                                        backoff_ms: backoff.as_millis() as u64,
                                    },
                                );
                            }
                        }
                    } else {
                        slot.supervision.note_clean(cfg);
                    }
                }
                Err(payload) => {
                    outcome.modules_panicked += 1;
                    let message = panic_message(payload.as_ref());
                    // The unwind may have left analysis state
                    // half-updated; drop it before the next dispatch.
                    slot.module.reset();
                    // The reset emptied the module's bounded structures;
                    // reflect that on the ops surface immediately rather
                    // than waiting for the next profile publish.
                    if let Some(g) = &slot.occupancy_gauge {
                        g.set(0);
                    }
                    if let Some(g) = &slot.evictions_gauge {
                        g.set(0);
                    }
                    let verdict = slot.supervision.note_panic(ctx.now, cfg);
                    if let Some(t) = &self.tele {
                        t.panics.inc();
                        t.registry.journal().record(
                            ctx.now.as_micros(),
                            JournalEvent::ModulePanicked {
                                module: descriptor.name.to_string(),
                                message: message.clone(),
                            },
                        );
                    }
                    if let SupervisorVerdict::Quarantined { backoff, .. } = verdict {
                        quarantine_flips += 1;
                        if let Some(t) = &self.tele {
                            t.quarantines.inc();
                            t.registry.journal().record(
                                ctx.now.as_micros(),
                                JournalEvent::ModuleQuarantined {
                                    module: descriptor.name.to_string(),
                                    reason: format!("panic: {message}"),
                                    backoff_ms: backoff.as_millis() as u64,
                                },
                            );
                        }
                    }
                }
            }
        }
        ctx.kb.clear_writer();
        self.stats.panics += outcome.modules_panicked;
        self.stats.sheds += outcome.modules_shed;
        self.stats.overruns += overruns;
        self.stats.quarantines += quarantine_flips;
        if quarantine_flips + quarantine_releases > 0 {
            if let Some(t) = &self.tele {
                t.quarantined.set(self.quarantined_count() as u64);
                t.active.set(self.active_count() as u64);
            }
        }
        outcome
    }

    /// Route a tick to every active module. Supervised like packet
    /// dispatch (panic isolation, budgets, quarantine) but never shed:
    /// ticks are rare and drive window expiry.
    pub fn dispatch_tick(&mut self, ctx: &mut ModuleCtx<'_>) -> DispatchOutcome {
        let mut outcome = DispatchOutcome::default();
        let cfg = &self.supervisor;
        let budget = cfg.budget;
        let timed = self.tele.is_some() || budget.is_some();
        // kalis-lint: allow(KL302): measures real CPU cost for the supervisor budget
        let mut prev = timed.then(Instant::now);
        let mut quarantine_flips: u64 = 0;
        let mut quarantine_releases: u64 = 0;
        let mut overruns: u64 = 0;
        for slot in &mut self.slots {
            if !slot.active {
                continue;
            }
            if slot.supervision.is_quarantined() {
                let Some(run) = Self::release(
                    slot,
                    ctx.kb,
                    ctx.now,
                    cfg,
                    self.adaptive,
                    &mut self.flips,
                    self.tele.as_ref(),
                ) else {
                    continue;
                };
                quarantine_releases += 1;
                if !run {
                    continue;
                }
            }
            let descriptor = slot.module.descriptor();
            ctx.kb.set_writer(descriptor.name);
            let result = {
                let module = &mut slot.module;
                catch_unwind(AssertUnwindSafe(|| module.on_tick(ctx)))
            };
            let elapsed = prev.as_mut().map(|p| {
                let now = Instant::now(); // kalis-lint: allow(KL302): supervisor cost probe
                let e = now - *p;
                *p = now;
                e
            });
            slot.dispatches += 1;
            if let Some(e) = elapsed {
                let ns = e.as_nanos() as u64;
                outcome.cpu_ns += ns;
                slot.cpu_ns += ns;
                if let Some(c) = &slot.cpu_counter {
                    c.add(ns);
                }
            }
            match result {
                Ok(()) => {
                    outcome.modules_run += 1;
                    if let (Some(e), Some(hist)) = (elapsed, &slot.tick_hist) {
                        hist.record(e.as_nanos() as u64);
                    }
                    let overrun = matches!((elapsed, budget), (Some(e), Some(b)) if e > b);
                    if overrun {
                        overruns += 1;
                        let verdict = slot.supervision.note_overrun(ctx.now, cfg);
                        if let Some(t) = &self.tele {
                            t.overruns.inc();
                        }
                        if let SupervisorVerdict::Quarantined { backoff, .. } = verdict {
                            quarantine_flips += 1;
                            if let Some(t) = &self.tele {
                                t.quarantines.inc();
                                t.registry.journal().record(
                                    ctx.now.as_micros(),
                                    JournalEvent::ModuleQuarantined {
                                        module: descriptor.name.to_string(),
                                        reason: "repeated watchdog budget overruns".to_string(),
                                        backoff_ms: backoff.as_millis() as u64,
                                    },
                                );
                            }
                        }
                    } else {
                        slot.supervision.note_clean(cfg);
                    }
                }
                Err(payload) => {
                    outcome.modules_panicked += 1;
                    let message = panic_message(payload.as_ref());
                    slot.module.reset();
                    // The reset emptied the module's bounded structures;
                    // reflect that on the ops surface immediately rather
                    // than waiting for the next profile publish.
                    if let Some(g) = &slot.occupancy_gauge {
                        g.set(0);
                    }
                    if let Some(g) = &slot.evictions_gauge {
                        g.set(0);
                    }
                    let verdict = slot.supervision.note_panic(ctx.now, cfg);
                    if let Some(t) = &self.tele {
                        t.panics.inc();
                        t.registry.journal().record(
                            ctx.now.as_micros(),
                            JournalEvent::ModulePanicked {
                                module: descriptor.name.to_string(),
                                message: message.clone(),
                            },
                        );
                    }
                    if let SupervisorVerdict::Quarantined { backoff, .. } = verdict {
                        quarantine_flips += 1;
                        if let Some(t) = &self.tele {
                            t.quarantines.inc();
                            t.registry.journal().record(
                                ctx.now.as_micros(),
                                JournalEvent::ModuleQuarantined {
                                    module: descriptor.name.to_string(),
                                    reason: format!("panic: {message}"),
                                    backoff_ms: backoff.as_millis() as u64,
                                },
                            );
                        }
                    }
                }
            }
        }
        ctx.kb.clear_writer();
        self.stats.panics += outcome.modules_panicked;
        self.stats.overruns += overruns;
        self.stats.quarantines += quarantine_flips;
        if quarantine_flips + quarantine_releases > 0 {
            if let Some(t) = &self.tele {
                t.quarantined.set(self.quarantined_count() as u64);
                t.active.set(self.active_count() as u64);
            }
        }
        outcome
    }

    /// The declared knowgget contract of the named module, if loaded —
    /// how the provenance assembler knows which KB keys an alerting
    /// module consulted.
    pub fn contract_of(&self, name: &str) -> Option<super::KnowggetContract> {
        self.slots
            .iter()
            .find(|s| s.module.descriptor().name == name)
            .map(|s| s.module.contract())
    }

    /// Whether the named module is currently active — recorded into an
    /// alert's provenance as the activation state that made the module
    /// eligible to raise it.
    pub fn is_active(&self, name: &str) -> bool {
        self.slots.iter().any(|s| {
            s.active && !s.supervision.is_quarantined() && s.module.descriptor().name == name
        })
    }

    /// Number of modules currently active (quarantined modules are not
    /// active: they are excluded from dispatch until probation).
    pub fn active_count(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.active && !s.supervision.is_quarantined())
            .count()
    }

    /// Total number of modules loaded.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no modules are loaded.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Names of the currently active modules (excluding quarantined
    /// ones, so `recommend_config()` never recommends a module the
    /// supervisor has benched).
    pub fn active_names(&self) -> Vec<&'static str> {
        self.slots
            .iter()
            .filter(|s| s.active && !s.supervision.is_quarantined())
            .map(|s| s.module.descriptor().name)
            .collect()
    }

    /// `(name, current non-default parameters)` for every active module
    /// — the parameterized module list `recommend_config` emits, so
    /// tuned knobs (thresholds, entity budgets) survive the round-trip.
    pub fn active_defs(&self) -> Vec<(&'static str, Vec<(String, crate::knowledge::KnowValue)>)> {
        self.slots
            .iter()
            .filter(|s| s.active && !s.supervision.is_quarantined())
            .map(|s| (s.module.descriptor().name, s.module.current_params()))
            .collect()
    }

    /// Names of the currently quarantined modules.
    pub fn quarantined_names(&self) -> Vec<&'static str> {
        self.slots
            .iter()
            .filter(|s| s.supervision.is_quarantined())
            .map(|s| s.module.descriptor().name)
            .collect()
    }

    /// Names of quarantined modules that are *pinned* by configuration.
    /// The operator asked for these explicitly, so losing one flips
    /// `/readyz` — an unpinned module benched by the supervisor only
    /// degrades the node.
    pub fn quarantined_pinned_names(&self) -> Vec<&'static str> {
        self.slots
            .iter()
            .filter(|s| s.pinned && s.supervision.is_quarantined())
            .map(|s| s.module.descriptor().name)
            .collect()
    }

    /// Resource and health profiles for every loaded module, in load
    /// order — the per-module view `/status` serves.
    pub fn module_profiles(&self) -> Vec<ModuleProfile> {
        self.slots
            .iter()
            .map(|s| {
                let descriptor = s.module.descriptor();
                ModuleProfile {
                    name: descriptor.name,
                    kind: descriptor.kind,
                    pinned: s.pinned,
                    active: s.active && !s.supervision.is_quarantined(),
                    health: s.supervision.health(),
                    cpu_ns: s.cpu_ns,
                    dispatches: s.dispatches,
                    sheds: s.sheds,
                    occupancy: s.module.occupancy(),
                    evictions: s.module.evictions(),
                    state_budget: s.module.state_budget(),
                    state_bytes: s.module.state_bytes(),
                }
            })
            .collect()
    }

    /// Each loaded module's cumulative bounded-state evictions, in load
    /// order: the one field of [`ModuleManager::module_profiles`] the
    /// node reads at tick cadence, without walking module state for the
    /// rest.
    pub fn module_evictions(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.slots
            .iter()
            .map(|s| (s.module.descriptor().name, s.module.evictions()))
    }

    /// Refresh the per-module `module.occupancy` and `module.work_units`
    /// gauges from live module state. Called at tick cadence by the ops
    /// profiler — occupancy needs a walk over module maps, so it stays
    /// off the per-packet path.
    pub fn publish_profiles(&mut self) {
        if self.tele.is_none() {
            return;
        }
        for slot in &mut self.slots {
            if let Some(g) = &slot.occupancy_gauge {
                g.set(slot.module.occupancy() as u64);
            }
            if let Some(g) = &slot.evictions_gauge {
                g.set(slot.module.evictions());
            }
            if let Some(g) = &slot.budget_gauge {
                g.set(slot.module.state_budget() as u64);
            }
            if let Some(g) = &slot.work_gauge {
                g.set(slot.dispatches);
            }
        }
    }

    /// Number of currently quarantined modules.
    pub fn quarantined_count(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.supervision.is_quarantined())
            .count()
    }

    /// The supervision health of the named module.
    pub fn module_health(&self, name: &str) -> Option<ModuleHealth> {
        self.slots
            .iter()
            .find(|s| s.module.descriptor().name == name)
            .map(|s| s.supervision.health())
    }

    /// Lifetime activation/deactivation counts.
    pub fn activation_stats(&self) -> (u64, u64) {
        (self.flips.activations, self.flips.deactivations)
    }

    /// Rough live-state size across modules (RAM proxy). Inactive modules
    /// still hold their (small) idle state.
    pub fn state_bytes(&self) -> usize {
        self.slots.iter().map(|s| s.module.state_bytes()).sum()
    }
}

impl Default for ModuleManager {
    fn default() -> Self {
        Self::new()
    }
}

impl core::fmt::Debug for ModuleManager {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ModuleManager")
            .field("modules", &self.slots.len())
            .field("active", &self.active_count())
            .field("quarantined", &self.quarantined_count())
            .field("adaptive", &self.adaptive)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alert::AttackKind;
    use crate::id::KalisId;
    use crate::modules::ModuleDescriptor;
    use bytes::Bytes;
    use core::time::Duration;
    use kalis_packets::Medium;

    /// A detection module active only when `Multihop == true`.
    struct NeedsMultihop {
        processed: u64,
    }

    impl Module for NeedsMultihop {
        fn descriptor(&self) -> ModuleDescriptor {
            ModuleDescriptor::detection("NeedsMultihop", AttackKind::Smurf)
        }
        fn required(&self, kb: &KnowledgeBase) -> bool {
            kb.get_bool("Multihop") == Some(true)
        }
        fn on_packet(&mut self, _ctx: &mut ModuleCtx<'_>, _packet: &CapturedPacket) {
            self.processed += 1;
        }
    }

    /// A module that panics on every Nth packet.
    struct Crashy {
        seen: u64,
        every: u64,
        resets: std::sync::Arc<std::sync::atomic::AtomicU64>,
    }

    impl Module for Crashy {
        fn descriptor(&self) -> ModuleDescriptor {
            ModuleDescriptor::detection("Crashy", AttackKind::Smurf)
        }
        fn required(&self, _kb: &KnowledgeBase) -> bool {
            true
        }
        fn on_packet(&mut self, _ctx: &mut ModuleCtx<'_>, _packet: &CapturedPacket) {
            self.seen += 1;
            if self.seen % self.every == 0 {
                panic!("crafted packet tripped Crashy");
            }
        }
        fn reset(&mut self) {
            self.resets
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    fn packet() -> CapturedPacket {
        CapturedPacket::capture(Timestamp::ZERO, Medium::Wifi, None, "w", Bytes::new())
    }

    fn ctx_parts() -> (KnowledgeBase, Vec<crate::alert::Alert>) {
        (KnowledgeBase::new(KalisId::new("K1")), Vec::new())
    }

    /// Suppress the default panic-to-stderr hook for tests that
    /// intentionally panic inside modules.
    fn quiet_panics() {
        use std::sync::Once;
        static QUIET: Once = Once::new();
        QUIET.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let caught = std::thread::current().name() == Some("main")
                    || info
                        .payload()
                        .downcast_ref::<&str>()
                        .is_some_and(|s| s.contains("Crashy"));
                if !caught {
                    prev(info);
                }
            }));
        });
    }

    #[test]
    fn adaptive_manager_gates_on_knowledge() {
        let (mut kb, mut alerts) = ctx_parts();
        let mut mgr = ModuleManager::new();
        mgr.add(Box::new(NeedsMultihop { processed: 0 }), false);
        assert_eq!(mgr.active_count(), 0, "detection modules start inactive");

        // No knowledge → packet goes nowhere.
        let mut ctx = ModuleCtx {
            now: Timestamp::ZERO,
            kb: &mut kb,
            alerts: &mut alerts,
        };
        assert_eq!(mgr.dispatch_packet(&mut ctx, &packet()).modules_run, 0);

        // Multihop discovered → module activates.
        kb.insert("Multihop", true);
        mgr.reconfigure(&kb);
        assert_eq!(mgr.active_count(), 1);
        let mut ctx = ModuleCtx {
            now: Timestamp::ZERO,
            kb: &mut kb,
            alerts: &mut alerts,
        };
        assert_eq!(mgr.dispatch_packet(&mut ctx, &packet()).modules_run, 1);

        // Knowledge flips → module deactivates.
        kb.insert("Multihop", false);
        let (act, deact) = mgr.reconfigure(&kb);
        assert_eq!((act, deact), (0, 1));
        assert_eq!(mgr.active_count(), 0);
        assert_eq!(mgr.activation_stats(), (1, 1));
    }

    #[test]
    fn non_adaptive_manager_runs_everything() {
        let (kb, _) = ctx_parts();
        let mut mgr = ModuleManager::all_always_active();
        mgr.add(Box::new(NeedsMultihop { processed: 0 }), false);
        assert_eq!(
            mgr.active_count(),
            1,
            "always active regardless of knowledge"
        );
        assert_eq!(mgr.reconfigure(&kb), (0, 0));
        assert_eq!(mgr.active_count(), 1);
    }

    #[test]
    fn pinned_modules_ignore_required() {
        let (kb, _) = ctx_parts();
        let mut mgr = ModuleManager::new();
        mgr.add(Box::new(NeedsMultihop { processed: 0 }), true);
        assert_eq!(mgr.active_count(), 1);
        mgr.reconfigure(&kb);
        assert_eq!(mgr.active_count(), 1, "pinned modules stay on");
    }

    #[test]
    fn active_names_reports() {
        let mut mgr = ModuleManager::all_always_active();
        mgr.add(Box::new(NeedsMultihop { processed: 0 }), false);
        assert_eq!(mgr.active_names(), vec!["NeedsMultihop"]);
    }

    #[test]
    fn panic_is_isolated_and_state_reset() {
        quiet_panics();
        let resets = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let (mut kb, mut alerts) = ctx_parts();
        let mut mgr = ModuleManager::all_always_active();
        mgr.add(
            Box::new(Crashy {
                seen: 0,
                every: 1,
                resets: std::sync::Arc::clone(&resets),
            }),
            false,
        );
        mgr.add(Box::new(NeedsMultihop { processed: 0 }), false);
        let mut ctx = ModuleCtx {
            now: Timestamp::from_secs(1),
            kb: &mut kb,
            alerts: &mut alerts,
        };
        let outcome = mgr.dispatch_packet(&mut ctx, &packet());
        assert_eq!(outcome.modules_panicked, 1, "panic caught, not propagated");
        assert_eq!(outcome.modules_run, 1, "other module still ran");
        assert_eq!(outcome.work_units(), 2);
        assert_eq!(resets.load(std::sync::atomic::Ordering::Relaxed), 1);
        assert_eq!(mgr.supervisor_stats().panics, 1);
        assert_eq!(mgr.module_health("Crashy"), Some(ModuleHealth::Degraded));
    }

    #[test]
    fn crash_loop_quarantines_then_probation() {
        quiet_panics();
        let resets = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let (mut kb, mut alerts) = ctx_parts();
        let mut mgr = ModuleManager::all_always_active();
        let cfg = SupervisorConfig::default();
        mgr.add(
            Box::new(Crashy {
                seen: 0,
                every: 1,
                resets,
            }),
            false,
        );
        for i in 0..cfg.panic_limit as u64 {
            let mut ctx = ModuleCtx {
                now: Timestamp::from_secs(i),
                kb: &mut kb,
                alerts: &mut alerts,
            };
            mgr.dispatch_packet(&mut ctx, &packet());
        }
        assert_eq!(
            mgr.module_health("Crashy"),
            Some(ModuleHealth::Quarantined),
            "panic limit reached"
        );
        assert_eq!(mgr.quarantined_names(), vec!["Crashy"]);
        assert_eq!(mgr.active_count(), 0);
        assert!(mgr.active_names().is_empty(), "quarantined ≠ active");

        // While quarantined, dispatch skips it entirely.
        let mut ctx = ModuleCtx {
            now: Timestamp::from_secs(3),
            kb: &mut kb,
            alerts: &mut alerts,
        };
        let outcome = mgr.dispatch_packet(&mut ctx, &packet());
        assert_eq!(outcome.modules_run + outcome.modules_panicked, 0);

        // After the backoff expires it re-enters on probation.
        let after = Timestamp::from_secs(cfg.panic_limit as u64) + cfg.backoff_base;
        let mut ctx = ModuleCtx {
            now: after,
            kb: &mut kb,
            alerts: &mut alerts,
        };
        let outcome = mgr.dispatch_packet(&mut ctx, &packet());
        assert_eq!(outcome.modules_panicked, 1, "probation dispatch happened");
        assert_eq!(
            mgr.module_health("Crashy"),
            Some(ModuleHealth::Quarantined),
            "one probation strike re-quarantines"
        );
        assert_eq!(mgr.supervisor_stats().quarantines, 2);
    }

    /// A module holding real bounded per-entity state that panics while
    /// its `rage` flag is up — drives the quarantine → probation path to
    /// prove a returning module starts with fresh detector state.
    struct BudgetedCrashy {
        map: crate::bounded::BoundedMap<u64, ()>,
        seen: u64,
        rage: std::sync::Arc<std::sync::atomic::AtomicBool>,
    }

    impl Module for BudgetedCrashy {
        fn descriptor(&self) -> ModuleDescriptor {
            ModuleDescriptor::detection("BudgetedCrashy", AttackKind::Smurf)
        }
        fn required(&self, _kb: &KnowledgeBase) -> bool {
            true
        }
        fn on_packet(&mut self, _ctx: &mut ModuleCtx<'_>, _packet: &CapturedPacket) {
            self.seen += 1;
            self.map.insert(self.seen, ());
            if self.rage.load(std::sync::atomic::Ordering::Relaxed) {
                panic!("crafted packet tripped Crashy (budgeted)");
            }
        }
        fn occupancy(&self) -> usize {
            self.map.len()
        }
        fn evictions(&self) -> u64 {
            self.map.evictions()
        }
        fn state_budget(&self) -> usize {
            self.map.budget()
        }
        fn reset(&mut self) {
            self.map.clear();
            self.seen = 0;
        }
    }

    #[test]
    fn quarantined_module_returns_to_probation_with_fresh_state_and_gauges() {
        quiet_panics();
        let (mut kb, mut alerts) = ctx_parts();
        let tele = std::sync::Arc::new(Telemetry::new());
        let rage = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut mgr = ModuleManager::all_always_active();
        mgr.set_telemetry(&tele);
        mgr.add(
            Box::new(BudgetedCrashy {
                map: crate::bounded::BoundedMap::new(4),
                seen: 0,
                rage: std::sync::Arc::clone(&rage),
            }),
            false,
        );
        let cfg = SupervisorConfig::default();
        // Fill (and overflow) the bounded map with clean dispatches.
        for i in 0..7 {
            let mut ctx = ModuleCtx {
                now: Timestamp::from_secs(i),
                kb: &mut kb,
                alerts: &mut alerts,
            };
            mgr.dispatch_packet(&mut ctx, &packet());
        }
        mgr.publish_profiles();
        let occ = tele.gauge(&metric_name(
            names::MODULE_OCCUPANCY,
            &[("module", "BudgetedCrashy")],
        ));
        let ev = tele.gauge(&metric_name(
            names::MODULE_EVICTIONS,
            &[("module", "BudgetedCrashy")],
        ));
        assert_eq!(occ.get(), 4, "budget holds under load");
        assert_eq!(ev.get(), 3, "overflow evicted");

        // Poisoned input stream: panic on every dispatch until quarantine.
        rage.store(true, std::sync::atomic::Ordering::Relaxed);
        let mut strikes = 0;
        while mgr.module_health("BudgetedCrashy") != Some(ModuleHealth::Quarantined) {
            strikes += 1;
            assert!(strikes < 32, "quarantine must engage");
            let mut ctx = ModuleCtx {
                now: Timestamp::from_secs(7 + strikes),
                kb: &mut kb,
                alerts: &mut alerts,
            };
            mgr.dispatch_packet(&mut ctx, &packet());
        }
        // The panic-path reset zeroed the gauges immediately — the ops
        // surface never reports stale occupancy for an emptied module.
        assert_eq!(occ.get(), 0);
        assert_eq!(ev.get(), 0);

        // Backoff expires, the poison clears: the probation dispatch runs
        // against completely fresh detector state.
        rage.store(false, std::sync::atomic::Ordering::Relaxed);
        let after = Timestamp::from_secs(7 + strikes) + cfg.backoff_base + cfg.backoff_base;
        let mut ctx = ModuleCtx {
            now: after,
            kb: &mut kb,
            alerts: &mut alerts,
        };
        let outcome = mgr.dispatch_packet(&mut ctx, &packet());
        assert_eq!(outcome.modules_run, 1, "probation dispatch ran clean");
        let profile = mgr
            .module_profiles()
            .into_iter()
            .find(|p| p.name == "BudgetedCrashy")
            .expect("profiled");
        assert_eq!(profile.occupancy, 1, "only the probation packet's entry");
        assert_eq!(
            profile.evictions, 0,
            "eviction history reset with the state"
        );
        assert_eq!(profile.state_budget, 4, "budget survives the reset");
    }

    #[test]
    fn budget_overruns_quarantine() {
        struct Slow;
        impl Module for Slow {
            fn descriptor(&self) -> ModuleDescriptor {
                ModuleDescriptor::detection("Slow", AttackKind::Smurf)
            }
            fn required(&self, _kb: &KnowledgeBase) -> bool {
                true
            }
            fn on_packet(&mut self, _ctx: &mut ModuleCtx<'_>, _packet: &CapturedPacket) {
                std::thread::sleep(Duration::from_millis(3));
            }
        }
        let (mut kb, mut alerts) = ctx_parts();
        let mut mgr = ModuleManager::all_always_active();
        let cfg = SupervisorConfig {
            budget: Some(Duration::from_micros(100)),
            overrun_limit: 3,
            ..SupervisorConfig::default()
        };
        mgr.set_supervisor(cfg);
        mgr.add(Box::new(Slow), false);
        for i in 0..3 {
            let mut ctx = ModuleCtx {
                now: Timestamp::from_secs(i),
                kb: &mut kb,
                alerts: &mut alerts,
            };
            mgr.dispatch_packet(&mut ctx, &packet());
        }
        assert_eq!(mgr.module_health("Slow"), Some(ModuleHealth::Quarantined));
        assert_eq!(mgr.supervisor_stats().overruns, 3);
        assert_eq!(mgr.supervisor_stats().quarantines, 1);
    }

    #[test]
    fn shedding_samples_unpinned_detection_only() {
        struct Heavy {
            seen: u64,
        }
        impl Module for Heavy {
            fn descriptor(&self) -> ModuleDescriptor {
                ModuleDescriptor::detection("HeavyMod", AttackKind::Wormhole).heavy()
            }
            fn required(&self, _kb: &KnowledgeBase) -> bool {
                true
            }
            fn on_packet(&mut self, _ctx: &mut ModuleCtx<'_>, _packet: &CapturedPacket) {
                self.seen += 1;
            }
        }
        let (mut kb, mut alerts) = ctx_parts();
        let mut mgr = ModuleManager::all_always_active();
        mgr.add(Box::new(Heavy { seen: 0 }), false);
        // Pinned module: must never be shed.
        mgr.add(Box::new(NeedsMultihop { processed: 0 }), true);
        let mut ran = 0;
        let mut shed = 0;
        for _ in 0..32 {
            let mut ctx = ModuleCtx {
                now: Timestamp::from_secs(1),
                kb: &mut kb,
                alerts: &mut alerts,
            };
            let o = mgr.dispatch_packet_shed(&mut ctx, &packet(), ShedMode::Heavy);
            ran += o.modules_run;
            shed += o.modules_shed;
        }
        // Pinned ran all 32 times; heavy unpinned ran 1-in-4 (= 8).
        assert_eq!(ran, 32 + 8);
        assert_eq!(shed, 24);
        assert_eq!(mgr.supervisor_stats().sheds, 24);
        // Light unpinned modules are untouched in Heavy mode.
        let mut mgr2 = ModuleManager::all_always_active();
        mgr2.add(Box::new(NeedsMultihop { processed: 0 }), false);
        let mut ctx = ModuleCtx {
            now: Timestamp::from_secs(1),
            kb: &mut kb,
            alerts: &mut alerts,
        };
        let o = mgr2.dispatch_packet_shed(&mut ctx, &packet(), ShedMode::Heavy);
        assert_eq!((o.modules_run, o.modules_shed), (1, 0));
    }

    #[test]
    fn quarantined_modules_sit_out_reconfigure() {
        quiet_panics();
        let resets = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let (mut kb, mut alerts) = ctx_parts();
        let mut mgr = ModuleManager::new();
        mgr.add(
            Box::new(Crashy {
                seen: 0,
                every: 1,
                resets,
            }),
            false,
        );
        mgr.reconfigure(&kb);
        assert_eq!(mgr.active_count(), 1);
        for i in 0..3 {
            let mut ctx = ModuleCtx {
                now: Timestamp::from_secs(i),
                kb: &mut kb,
                alerts: &mut alerts,
            };
            mgr.dispatch_packet(&mut ctx, &packet());
        }
        assert_eq!(mgr.quarantined_count(), 1);
        let (act, deact) = mgr.reconfigure(&kb);
        assert_eq!(
            (act, deact),
            (0, 0),
            "reconfigure leaves quarantined slots alone"
        );
        assert_eq!(mgr.quarantined_count(), 1);
    }

    /// A detection module gated on `Multihop == true` that panics while
    /// `rage` is up and counts its clean dispatches and `required()`
    /// calls.
    struct GatedCrashy {
        rage: Arc<std::sync::atomic::AtomicBool>,
        runs: Arc<std::sync::atomic::AtomicU64>,
        checks: Arc<std::sync::atomic::AtomicU64>,
        declared: bool,
    }

    impl GatedCrashy {
        fn new(declared: bool) -> Self {
            GatedCrashy {
                rage: Arc::default(),
                runs: Arc::default(),
                checks: Arc::default(),
                declared,
            }
        }
    }

    impl Module for GatedCrashy {
        fn descriptor(&self) -> ModuleDescriptor {
            ModuleDescriptor::detection("GatedCrashy", AttackKind::Smurf)
        }
        fn contract(&self) -> crate::modules::KnowggetContract {
            let contract = crate::modules::KnowggetContract::new();
            if self.declared {
                contract.reads_activation("Multihop", crate::modules::ValueType::Bool)
            } else {
                contract
            }
        }
        fn required(&self, kb: &KnowledgeBase) -> bool {
            self.checks
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            kb.get_bool("Multihop") == Some(true)
        }
        fn on_packet(&mut self, _ctx: &mut ModuleCtx<'_>, _packet: &CapturedPacket) {
            if self.rage.load(std::sync::atomic::Ordering::Relaxed) {
                panic!("crafted packet tripped Crashy (gated)");
            }
            self.runs.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    fn dispatch_at(
        mgr: &mut ModuleManager,
        kb: &mut KnowledgeBase,
        now: Timestamp,
    ) -> DispatchOutcome {
        let mut alerts = Vec::new();
        let mut ctx = ModuleCtx {
            now,
            kb,
            alerts: &mut alerts,
        };
        mgr.dispatch_packet(&mut ctx, &packet())
    }

    fn apply(mgr: &mut ModuleManager, kb: &mut KnowledgeBase) -> (usize, usize) {
        let changes = kb.drain_changes();
        mgr.reconfigure_traced(kb, &changes, 0)
    }

    #[test]
    fn incremental_pass_evaluates_only_matching_slots() {
        let (mut kb, _) = ctx_parts();
        let declared = GatedCrashy::new(true);
        let undeclared = GatedCrashy::new(false);
        let (declared_checks, undeclared_checks) =
            (Arc::clone(&declared.checks), Arc::clone(&undeclared.checks));
        let checks = || {
            (
                declared_checks.load(std::sync::atomic::Ordering::Relaxed),
                undeclared_checks.load(std::sync::atomic::Ordering::Relaxed),
            )
        };
        let mut mgr = ModuleManager::new();
        mgr.add(Box::new(declared), false);
        mgr.add(Box::new(undeclared), false);

        // Fresh slots are stale: the first pass evaluates both, even
        // with nothing changed.
        assert_eq!(apply(&mut mgr, &mut kb), (0, 0));
        assert_eq!(checks(), (1, 1));

        // A change no activation read covers skips the declared slot;
        // the undeclared one is re-evaluated on every pass.
        kb.insert("TrafficFrequency.ICMP", 0.5);
        kb.insert_about("Multihop.X", kalis_packets::Entity::new("A"), true);
        assert_eq!(apply(&mut mgr, &mut kb), (0, 0));
        assert_eq!(checks(), (1, 2));

        // A change to the declared key re-evaluates it, whatever the
        // creator or entity.
        kb.insert("Multihop", true);
        assert_eq!(apply(&mut mgr, &mut kb), (2, 0));
        assert_eq!(checks(), (2, 3));
        kb.insert_about("Multihop", kalis_packets::Entity::new("A"), false);
        assert_eq!(apply(&mut mgr, &mut kb), (0, 0));
        assert_eq!(checks(), (3, 4));

        // The full sweep evaluates everything.
        assert_eq!(mgr.reconfigure(&kb), (0, 0));
        assert_eq!(checks(), (4, 5));
    }

    #[test]
    fn module_added_later_is_evaluated_on_the_next_pass() {
        let (mut kb, _) = ctx_parts();
        let mut mgr = ModuleManager::new();
        mgr.add(Box::new(NeedsMultihop { processed: 0 }), false);
        kb.insert("Multihop", true);
        assert_eq!(apply(&mut mgr, &mut kb), (1, 0));
        // The knowledge the new module needs is already drained: only
        // its stale bit gets it evaluated.
        mgr.add(Box::new(GatedCrashy::new(true)), false);
        kb.insert("TrafficFrequency.ICMP", 1i64);
        assert_eq!(apply(&mut mgr, &mut kb), (1, 0));
        assert_eq!(mgr.active_names(), vec!["NeedsMultihop", "GatedCrashy"]);
    }

    #[test]
    fn flips_are_journaled_with_the_changed_keys() {
        let (mut kb, _) = ctx_parts();
        let tele = Arc::new(Telemetry::new());
        let mut mgr = ModuleManager::new();
        mgr.set_telemetry(&tele);
        mgr.add(Box::new(NeedsMultihop { processed: 0 }), false);
        for i in 0..4 {
            kb.insert(format!("TrafficFrequency.C{i}"), 1i64);
        }
        kb.insert("Multihop", true);
        assert_eq!(apply(&mut mgr, &mut kb), (1, 0));
        kb.remove("Multihop");
        assert_eq!(apply(&mut mgr, &mut kb), (0, 1));
        let events: Vec<_> = tele
            .journal()
            .snapshot()
            .records
            .into_iter()
            .map(|r| r.event)
            .collect();
        assert_eq!(
            events,
            vec![
                JournalEvent::ModuleActivated {
                    module: "NeedsMultihop".to_string(),
                    trigger: "K1$TrafficFrequency.C0,K1$TrafficFrequency.C1,\
                              K1$TrafficFrequency.C2,+2 more"
                        .to_string(),
                },
                JournalEvent::ModuleDeactivated {
                    module: "NeedsMultihop".to_string(),
                    trigger: "-K1$Multihop".to_string(),
                },
            ]
        );
    }

    #[test]
    fn released_module_is_rechecked_against_its_knowledge() {
        quiet_panics();
        let (mut kb, _) = ctx_parts();
        let tele = Arc::new(Telemetry::new());
        let module = GatedCrashy::new(true);
        let (rage, runs) = (Arc::clone(&module.rage), Arc::clone(&module.runs));
        let mut mgr = ModuleManager::new();
        mgr.set_telemetry(&tele);
        mgr.add(Box::new(module), false);
        kb.insert("Multihop", true);
        apply(&mut mgr, &mut kb);
        assert_eq!(mgr.active_count(), 1);

        let cfg = SupervisorConfig::default();
        rage.store(true, std::sync::atomic::Ordering::Relaxed);
        for i in 0..cfg.panic_limit as u64 {
            dispatch_at(&mut mgr, &mut kb, Timestamp::from_secs(i));
        }
        assert_eq!(
            mgr.module_health("GatedCrashy"),
            Some(ModuleHealth::Quarantined)
        );

        // The knowledge changes while the module is benched: the pass
        // skips it, so its active bit is stale.
        rage.store(false, std::sync::atomic::Ordering::Relaxed);
        kb.insert("Multihop", false);
        assert_eq!(apply(&mut mgr, &mut kb), (0, 0));

        // On release the module is re-checked and deactivated instead
        // of dispatched.
        let after = Timestamp::from_secs(cfg.panic_limit as u64) + cfg.backoff_base;
        let outcome = dispatch_at(&mut mgr, &mut kb, after);
        assert_eq!(
            outcome.work_units(),
            0,
            "a not-required module must not run"
        );
        assert_eq!(runs.load(std::sync::atomic::Ordering::Relaxed), 0);
        assert_eq!(
            mgr.module_health("GatedCrashy"),
            Some(ModuleHealth::Degraded)
        );
        assert_eq!(mgr.active_count(), 0);
        assert_eq!(mgr.activation_stats(), (1, 1));
        assert_eq!(tele.counter(names::MODULES_DEACTIVATED).get(), 1);
        let last = tele.journal().snapshot().records.pop().map(|r| r.event);
        assert_eq!(
            last,
            Some(JournalEvent::ModuleDeactivated {
                module: "GatedCrashy".to_string(),
                trigger: PROBATION_TRIGGER.to_string(),
            })
        );

        // The knowledge returns: the module comes back and runs.
        kb.insert("Multihop", true);
        assert_eq!(apply(&mut mgr, &mut kb), (1, 0));
        let outcome = dispatch_at(&mut mgr, &mut kb, after);
        assert_eq!(outcome.modules_run, 1);
    }

    #[test]
    fn released_module_still_required_runs() {
        quiet_panics();
        let (mut kb, _) = ctx_parts();
        let module = GatedCrashy::new(true);
        let (rage, runs) = (Arc::clone(&module.rage), Arc::clone(&module.runs));
        let mut mgr = ModuleManager::new();
        mgr.add(Box::new(module), false);
        kb.insert("Multihop", true);
        apply(&mut mgr, &mut kb);
        let cfg = SupervisorConfig::default();
        rage.store(true, std::sync::atomic::Ordering::Relaxed);
        for i in 0..cfg.panic_limit as u64 {
            dispatch_at(&mut mgr, &mut kb, Timestamp::from_secs(i));
        }
        rage.store(false, std::sync::atomic::Ordering::Relaxed);
        kb.insert("TrafficFrequency.ICMP", 1i64);
        apply(&mut mgr, &mut kb);
        let after = Timestamp::from_secs(cfg.panic_limit as u64) + cfg.backoff_base;
        assert_eq!(dispatch_at(&mut mgr, &mut kb, after).modules_run, 1);
        assert_eq!(runs.load(std::sync::atomic::Ordering::Relaxed), 1);
        assert_eq!(mgr.activation_stats(), (1, 0));
    }
}
