//! Soundness of incremental activation.
//!
//! The Module Manager re-evaluates a module's `required()` only when a
//! changed knowgget's label matches one of the module's declared
//! activation reads. That is correct only if `required()` reads nothing
//! beyond those labels. These tests check it over the whole system key
//! universe (every label any contract reads or writes), and check that a
//! manager driven incrementally stays in step with one that re-evaluates
//! every module on every pass, through quarantine and probation.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Once};

use bytes::Bytes;
use kalis_core::config::ModuleDef;
use kalis_core::modules::{Module, ModuleCtx, ModuleDescriptor, ModuleManager, ModuleRegistry};
use kalis_core::{
    system_contract, KalisId, KeyPattern, KnowKey, KnowValue, Knowgget, KnowggetContract,
    KnowledgeBase,
};
use kalis_packets::{CapturedPacket, Entity, Medium, Timestamp};

/// Concrete members substituted for every family pattern (`ProtocolSeen.*`,
/// `MediumSeen.*`, `TrafficFrequency.*`, ...): the protocol, medium and
/// traffic-class leaves the sensing modules publish, plus one unknown.
const FAMILY_LEAVES: [&str; 9] = [
    "IP",
    "SIXLOWPAN",
    "CTP",
    "wifi",
    "802.15.4",
    "ICMP",
    "TCPSYN",
    "UDP",
    "Other",
];

/// Every concrete label the system's contracts name, families expanded.
fn key_universe() -> Vec<String> {
    let registry = ModuleRegistry::with_defaults();
    let contracts = registry
        .contracts()
        .into_iter()
        .map(|(_, _, contract)| contract)
        .chain([system_contract()]);
    let mut labels = BTreeSet::new();
    for contract in contracts {
        for key in contract.reads.into_iter().chain(contract.writes) {
            match key.pattern {
                KeyPattern::Exact(label) => {
                    labels.insert(label);
                }
                KeyPattern::Family(root) => {
                    labels.extend(FAMILY_LEAVES.iter().map(|l| KnowKey::scoped(&root, l)));
                }
            }
        }
    }
    labels.into_iter().collect()
}

/// Values of every type, including text that parses as a bool or number.
fn values() -> Vec<KnowValue> {
    vec![
        KnowValue::Bool(true),
        KnowValue::Bool(false),
        KnowValue::Int(0),
        KnowValue::Int(1),
        KnowValue::Int(-3),
        KnowValue::Float(0.5),
        KnowValue::Float(-67.0),
        KnowValue::Text("x".into()),
        KnowValue::Text("true".into()),
        KnowValue::Text("1".into()),
    ]
}

/// One write or removal applied to a knowledge base.
type Mutation<'a> = Box<dyn Fn(&mut KnowledgeBase) + 'a>;

/// One write or removal of `label`, in every shape a KB change takes:
/// local network-level, local per-entity, and a peer's copy.
fn mutations(label: &str) -> Vec<Mutation<'_>> {
    let mut out: Vec<Mutation<'_>> = Vec::new();
    for value in values() {
        let v = value.clone();
        out.push(Box::new(move |kb| {
            kb.insert(label, v.clone());
        }));
        let v = value.clone();
        out.push(Box::new(move |kb| {
            kb.insert_about(label, Entity::new("A"), v.clone());
        }));
        out.push(Box::new(move |kb| {
            let peer = KalisId::new("K2");
            let _ = kb.accept_remote(&peer, Knowgget::new(label, value.clone(), peer.clone()));
        }));
    }
    out.push(Box::new(move |kb| {
        kb.remove(label);
    }));
    out.push(Box::new(move |kb| {
        kb.remove_about(label, &Entity::new("A"));
    }));
    out
}

/// Knowledge bases to mutate: empty, every label at one value, and
/// seeded mixes of values and absent labels.
fn base_states(universe: &[String]) -> Vec<KnowledgeBase> {
    let values = values();
    let fresh = || KnowledgeBase::new(KalisId::new("K1"));
    let mut bases = vec![fresh()];
    for value in &values {
        let mut kb = fresh();
        for label in universe {
            kb.insert(label.as_str(), value.clone());
        }
        bases.push(kb);
    }
    let mut seed: u64 = 0x9e37_79b9_7f4a_7c15;
    for _ in 0..8 {
        let mut kb = fresh();
        for label in universe {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let pick = (seed >> 33) as usize % (values.len() + 2);
            if let Some(value) = values.get(pick) {
                kb.insert(label.as_str(), value.clone());
            }
        }
        bases.push(kb);
    }
    bases
}

/// The contract property behind the activation index: for every built-in
/// module, a write or removal of any label in the system key universe
/// changes `required()` only if the label matches one of the module's
/// declared activation reads.
#[test]
fn activation_reads_cover_required() {
    let registry = ModuleRegistry::with_defaults();
    let modules: Vec<(Box<dyn Module>, Vec<KeyPattern>)> = registry
        .names()
        .into_iter()
        .map(|name| {
            let module = registry.build(&ModuleDef::new(name)).expect("builds");
            let reads = module
                .contract()
                .activation_inputs()
                .map(|k| k.pattern.clone())
                .collect();
            (module, reads)
        })
        .collect();
    let universe = key_universe();
    assert!(universe.iter().any(|l| l == "ProtocolSeen.IP"));
    assert!(universe.iter().any(|l| l == "MediumSeen.802.15.4"));
    let bases = base_states(&universe);
    let mut checked = 0usize;
    for base in &bases {
        let before: Vec<bool> = modules.iter().map(|(m, _)| m.required(base)).collect();
        for label in &universe {
            for mutate in mutations(label) {
                let mut kb = base.clone();
                mutate(&mut kb);
                for ((module, reads), was) in modules.iter().zip(&before) {
                    if reads.iter().any(|p| p.matches(label)) {
                        continue;
                    }
                    checked += 1;
                    assert_eq!(
                        module.required(&kb),
                        *was,
                        "{} changed required() on a write to `{label}`, which none of its \
                         declared activation reads ({reads:?}) covers",
                        module.descriptor().name
                    );
                }
            }
        }
    }
    assert!(checked > 10_000, "property exercised ({checked} checks)");
}

/// A module wrapper that panics on its next `poison` dispatches, so the
/// differential test can drive modules into quarantine and probation.
struct Flaky {
    inner: Box<dyn Module>,
    poison: Arc<AtomicU32>,
}

impl Module for Flaky {
    fn descriptor(&self) -> ModuleDescriptor {
        self.inner.descriptor()
    }
    fn contract(&self) -> KnowggetContract {
        self.inner.contract()
    }
    fn required(&self, kb: &KnowledgeBase) -> bool {
        self.inner.required(kb)
    }
    fn on_packet(&mut self, _ctx: &mut ModuleCtx<'_>, _packet: &CapturedPacket) {
        let left = self.poison.load(Ordering::Relaxed);
        if left > 0 {
            self.poison.store(left - 1, Ordering::Relaxed);
            panic!("poisoned module under test");
        }
    }
}

/// A module that reads activation knowledge without declaring it: the
/// manager must fall back to re-evaluating it on every pass.
struct Undeclared;

impl Module for Undeclared {
    fn descriptor(&self) -> ModuleDescriptor {
        ModuleDescriptor::detection("Undeclared", kalis_core::AttackKind::Smurf)
    }
    fn required(&self, kb: &KnowledgeBase) -> bool {
        kb.get_bool("Multihop") == Some(true) && kb.get_bool("Mobile") != Some(true)
    }
    fn on_packet(&mut self, _ctx: &mut ModuleCtx<'_>, _packet: &CapturedPacket) {}
}

fn quiet_poison_panics() {
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let ours = info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|s| s.contains("poisoned module"));
            if !ours {
                prev(info);
            }
        }));
    });
}

/// The built-in library (every module poisonable through `flags`), one
/// pinned copy and one undeclared module.
fn library(flags: &[Arc<AtomicU32>]) -> ModuleManager {
    let registry = ModuleRegistry::with_defaults();
    let mut manager = ModuleManager::new();
    let names = registry.names();
    for (name, poison) in names.iter().zip(flags) {
        let inner = registry.build(&ModuleDef::new(*name)).expect("builds");
        let poison = Arc::clone(poison);
        manager.add(Box::new(Flaky { inner, poison }), false);
    }
    let pinned = registry
        .build(&ModuleDef::new("SinkholeModule"))
        .expect("builds");
    manager.add(
        Box::new(Flaky {
            inner: pinned,
            poison: Arc::clone(&flags[names.len()]),
        }),
        true,
    );
    manager.add(Box::new(Undeclared), false);
    manager
}

fn dispatch(manager: &mut ModuleManager, kb: &mut KnowledgeBase, now: Timestamp) {
    let packet = CapturedPacket::capture(now, Medium::Wifi, None, "w", Bytes::new());
    let mut alerts = Vec::new();
    let mut ctx = ModuleCtx {
        now,
        kb,
        alerts: &mut alerts,
    };
    manager.dispatch_packet(&mut ctx, &packet);
}

proptest::proptest! {
    /// A manager reconfigured incrementally from drained change batches
    /// keeps the same active set as a twin that re-evaluates every module
    /// on every pass, across random write/remove batches over the system
    /// key universe interleaved with panics that quarantine modules and
    /// backoff expiries that release them.
    #[test]
    fn incremental_reconfigure_matches_full_sweep(
        prior in proptest::collection::vec((0usize..4096, 0usize..64), 0..8),
        steps in proptest::collection::vec((0u8..10, 0usize..4096, 0usize..64, 0u8..3), 1..120),
    ) {
        quiet_poison_panics();
        let universe = key_universe();
        // Half the writes target a label some module's activation reads.
        let gating: Vec<&str> = universe
            .iter()
            .map(String::as_str)
            .filter(|label| {
                ModuleRegistry::with_defaults().contracts().iter().any(|(_, _, c)| {
                    c.activation_inputs().any(|k| k.pattern.matches(label))
                })
            })
            .collect();
        let pick = |a: usize| {
            if a % 2 == 0 {
                gating[a / 2 % gating.len()]
            } else {
                universe[a / 2 % universe.len()].as_str()
            }
        };
        let values = values();
        let n = ModuleRegistry::with_defaults().names().len();
        // Each twin has its own poison counters, always set alike.
        let flags: Vec<[Arc<AtomicU32>; 2]> = (0..=n).map(|_| Default::default()).collect();
        let twin_flags = |t: usize| flags.iter().map(|f| Arc::clone(&f[t])).collect::<Vec<_>>();
        let mut incremental = library(&twin_flags(0));
        let mut full = library(&twin_flags(1));
        // Knowledge the managers never saw change: every slot starts
        // stale, so the first pass must evaluate it with no changes.
        let mut kb = KnowledgeBase::new(KalisId::new("K1"));
        kb.set_entity_budget(4);
        for (a, b) in prior {
            kb.insert(pick(a), values[b % values.len()].clone());
        }
        kb.drain_changes();
        let peer = KalisId::new("K2");
        let mut now = Timestamp::ZERO;
        incremental.reconfigure_traced(&kb, &[], 0);
        full.reconfigure(&kb);
        proptest::prop_assert_eq!(incremental.active_names(), full.active_names());
        for (kind, a, b, end_batch) in steps {
            let label = pick(a);
            let value = values[b % values.len()].clone();
            let entity = Entity::new(format!("E{}", b % 7));
            match kind {
                0..=2 => {
                    kb.insert(label, value);
                }
                3 => {
                    kb.remove(label);
                }
                4 => {
                    kb.insert_about(label, entity, value);
                }
                5 => {
                    let _ = kb.accept_remote(&peer, Knowgget::new(label, value, peer.clone()));
                }
                6 => kb.set_entity_budget(1 + b % 6),
                7 => {
                    // Enough consecutive panics to quarantine the module.
                    for flag in &flags[a % flags.len()] {
                        flag.store(3, Ordering::Relaxed);
                    }
                }
                _ => {
                    now += core::time::Duration::from_secs((b % 8) as u64);
                    dispatch(&mut incremental, &mut kb, now);
                    dispatch(&mut full, &mut kb, now);
                }
            }
            if end_batch == 0 || kind >= 8 {
                let changes = kb.drain_changes();
                incremental.reconfigure_traced(&kb, &changes, now.as_micros());
                full.reconfigure(&kb);
                proptest::prop_assert_eq!(incremental.active_names(), full.active_names());
                proptest::prop_assert_eq!(
                    incremental.quarantined_names(),
                    full.quarantined_names()
                );
            }
        }
    }
}
