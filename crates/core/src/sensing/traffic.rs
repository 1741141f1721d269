//! Traffic Statistics Collection (paper §V): packets/second per traffic
//! type, network-wide and per monitored device, over a configurable
//! window (default 5 seconds, the paper's default).

use std::collections::{BTreeMap, BTreeSet, VecDeque}; // kalis-lint: allow(KL301): see field notes
use std::time::Duration;

use kalis_packets::{CapturedPacket, Entity, Timestamp, TrafficClass};

use crate::bounded::{budget_params, DEFAULT_ENTITY_BUDGET, MIN_ENTITY_BUDGET};
use crate::knowledge::{KnowKey, KnowValue, KnowledgeBase};
use crate::modules::{KnowggetContract, Module, ModuleCtx, ModuleDescriptor, ParamSpec, ValueType};
use crate::sensing::labels;

/// Events retained per budget unit: the deque holds whole-window raw
/// events, not per-entity state, so it gets headroom over the entity
/// budget before oldest-first shedding kicks in.
const EVENTS_PER_BUDGET_UNIT: usize = 8;

/// Pushes between opportunistic publishes.
const PUBLISH_EVERY: usize = 16;

/// A rate key: a traffic class network-wide (`None`) or towards one
/// destination.
type RateKey = (TrafficClass, Option<Entity>);

/// One raw event in the window.
#[derive(Debug)]
struct Event {
    ts: Timestamp,
    /// Slots of the event's network-wide and per-destination keys.
    class: usize,
    dst: Option<usize>,
    /// Sequence number of the next event with the same destination key:
    /// the key's oldest occurrence once this one leaves the window.
    next: u64,
}

/// Window state of one rate key.
#[derive(Debug)]
struct RateSlot {
    key: RateKey,
    /// Events of this key in the window.
    count: usize,
    /// Sequence numbers of the key's oldest and newest events in the
    /// window (kept for per-destination keys while `count > 0`).
    first: u64,
    last: u64,
    /// The rate last written to the KB. A per-destination key holds one
    /// of the entity budget's places exactly while this is `Some`.
    published: Option<f64>,
    /// Queued in `dirty` since the last publish.
    dirty: bool,
}

impl RateSlot {
    /// Network-wide rates are outside the entity budget (the class set
    /// is a small closed enum); per-destination rates need a place.
    fn admitted(&self) -> bool {
        self.key.1.is_none() || self.published.is_some()
    }
}

/// The Traffic Statistics sensing module.
///
/// Writes multilevel knowggets rooted at [`labels::TRAFFIC_FREQUENCY`]:
/// `TrafficFrequency.TCPSYN = 0.037` (network-wide packets/second) and
/// `TrafficFrequency.TCPSYN@10.0.0.3 = …` (towards one device — the
/// per-destination view that "support\[s\] an accurate detection of targeted
/// DoS-like attacks").
///
/// Window counts are kept per key and updated as events enter and leave
/// the window, so a publish visits only the keys whose count changed
/// since the previous one. Its KB writes are exactly those of recounting
/// the whole window, in the same order.
#[derive(Debug)]
pub struct TrafficStatsModule {
    window: Duration,
    entity_budget: usize,
    // kalis-lint: allow(KL301): capped at budget × EVENTS_PER_BUDGET_UNIT (oldest-first shed)
    events: VecDeque<Event>,
    /// Sequence number of `events[0]`.
    head_seq: u64,
    /// Raw events shed because the deque hit its cap. Rates computed
    /// while shedding under-count — the honest failure mode: a bounded
    /// sensor saturates rather than grows.
    shed_events: u64,
    /// Pushes since the last publish.
    since_publish: usize,
    /// Slot of every key with events in the window or a published rate:
    /// at most the classes plus the event cap plus the entity budget.
    // kalis-lint: allow(KL301): keys of the capped window and the budgeted published rates
    index: BTreeMap<RateKey, usize>,
    slots: Vec<RateSlot>,
    free: Vec<usize>,
    /// Per-destination keys holding a place in the entity budget.
    admitted: usize,
    /// Per-destination keys with events in the window but no place, by
    /// first occurrence in the window.
    // kalis-lint: allow(KL301): a subset of the index
    pending: BTreeSet<(u64, usize)>,
    /// Slots whose count changed, or that were admitted, since the last
    /// publish.
    dirty: Vec<usize>,
}

impl TrafficStatsModule {
    /// A module with the paper's default 5-second window.
    pub fn new() -> Self {
        Self::with_window(Duration::from_secs(5))
    }

    /// A module with a custom window.
    pub fn with_window(window: Duration) -> Self {
        Self::build(window, DEFAULT_ENTITY_BUDGET)
    }

    /// The same module with its per-destination rates bounded at
    /// `budget` keys and the raw event window capped at
    /// `budget * EVENTS_PER_BUDGET_UNIT` events.
    pub fn with_entity_budget(self, budget: usize) -> Self {
        Self::build(self.window, budget.max(MIN_ENTITY_BUDGET))
    }

    fn build(window: Duration, entity_budget: usize) -> Self {
        TrafficStatsModule {
            window,
            entity_budget,
            events: VecDeque::new(),
            head_seq: 0,
            shed_events: 0,
            since_publish: 0,
            // kalis-lint: allow(KL301): see field notes
            index: BTreeMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            admitted: 0,
            // kalis-lint: allow(KL301): see field notes
            pending: BTreeSet::new(),
            dirty: Vec::new(),
        }
    }

    fn event_cap(&self) -> usize {
        self.entity_budget * EVENTS_PER_BUDGET_UNIT
    }

    fn key(class: TrafficClass) -> String {
        KnowKey::scoped(labels::TRAFFIC_FREQUENCY, class.label())
    }

    /// The slot of `key`, allocated if the key is new.
    fn slot(&mut self, key: RateKey) -> usize {
        if let Some(&id) = self.index.get(&key) {
            return id;
        }
        let slot = RateSlot {
            key: key.clone(),
            count: 0,
            first: 0,
            last: 0,
            published: None,
            dirty: false,
        };
        let id = match self.free.pop() {
            Some(id) => {
                self.slots[id] = slot;
                id
            }
            None => {
                self.slots.push(slot);
                self.slots.len() - 1
            }
        };
        self.index.insert(key, id);
        id
    }

    fn mark_dirty(&mut self, id: usize) {
        if !self.slots[id].dirty {
            self.slots[id].dirty = true;
            self.dirty.push(id);
        }
    }

    fn push(&mut self, ts: Timestamp, class: TrafficClass, dst: Option<Entity>) {
        let seq = self.head_seq + self.events.len() as u64;
        let class_slot = self.slot((class, None));
        self.slots[class_slot].count += 1;
        self.mark_dirty(class_slot);
        let dst = dst.map(|dst| {
            let id = self.slot((class, Some(dst)));
            let slot = &mut self.slots[id];
            if slot.count == 0 {
                slot.first = seq;
                if slot.published.is_none() {
                    self.pending.insert((seq, id));
                }
            } else {
                self.events[(slot.last - self.head_seq) as usize].next = seq;
            }
            slot.last = seq;
            slot.count += 1;
            self.mark_dirty(id);
            id
        });
        self.events.push_back(Event {
            ts,
            class: class_slot,
            dst,
            next: seq,
        });
    }

    /// Drop the oldest event from the window and uncount it.
    fn pop_oldest(&mut self) {
        let Some(event) = self.events.pop_front() else {
            return;
        };
        self.head_seq += 1;
        self.slots[event.class].count -= 1;
        self.mark_dirty(event.class);
        if let Some(id) = event.dst {
            let slot = &mut self.slots[id];
            slot.count -= 1;
            if slot.published.is_none() {
                self.pending.remove(&(slot.first, id));
                if slot.count > 0 {
                    self.pending.insert((event.next, id));
                }
            }
            slot.first = event.next;
            self.mark_dirty(id);
        }
    }

    fn publish(&mut self, ctx: &mut ModuleCtx<'_>, now: Timestamp) {
        self.since_publish = 0;
        while let Some(event) = self.events.front() {
            if now.saturating_since(event.ts) > self.window {
                self.pop_oldest();
            } else {
                break;
            }
        }
        // Admit new per-destination rates in order of first occurrence
        // in the window, while the budget has room. Churning a place (and
        // a KB write) per sprayed one-shot destination would let an
        // identity spray turn every publish into a full rewrite;
        // destinations that keep talking get a place once stale ones
        // expire out of the window and free theirs.
        while self.admitted < self.entity_budget {
            let Some((_, id)) = self.pending.pop_first() else {
                break;
            };
            // Rates are positive, so the first publish always writes.
            self.slots[id].published = Some(0.0);
            self.admitted += 1;
            self.mark_dirty(id);
        }
        // Update changed rates, then zero out rates that disappeared,
        // each in key order.
        let mut dirty = std::mem::take(&mut self.dirty);
        dirty.sort_unstable_by(|&a, &b| self.slots[a].key.cmp(&self.slots[b].key));
        let secs = self.window.as_secs_f64();
        for &id in &dirty {
            let slot = &mut self.slots[id];
            if slot.count > 0 && slot.admitted() {
                let rate = slot.count as f64 / secs;
                if slot.published != Some(rate) {
                    slot.published = Some(rate);
                    Self::write(ctx, &slot.key, rate);
                }
            }
        }
        for &id in &dirty {
            let slot = &mut self.slots[id];
            if slot.count == 0 && slot.published.take().is_some() {
                Self::write(ctx, &slot.key, 0.0);
                self.admitted -= usize::from(slot.key.1.is_some());
            }
        }
        for &id in &dirty {
            let slot = &mut self.slots[id];
            slot.dirty = false;
            if slot.count == 0 && slot.published.is_none() {
                // Free the entity now, not when the slot is reused.
                let dst = slot.key.1.take();
                self.index.remove(&(slot.key.0, dst));
                self.free.push(id);
            }
        }
        dirty.clear();
        self.dirty = dirty;
    }

    fn write(ctx: &mut ModuleCtx<'_>, (class, dst): &RateKey, rate: f64) {
        match dst {
            None => ctx.kb.insert(Self::key(*class), rate),
            Some(entity) => ctx.kb.insert_about(Self::key(*class), entity.clone(), rate),
        };
    }
}

impl Default for TrafficStatsModule {
    fn default() -> Self {
        Self::new()
    }
}

impl Module for TrafficStatsModule {
    fn descriptor(&self) -> ModuleDescriptor {
        ModuleDescriptor::sensing("TrafficStatsModule")
    }

    fn contract(&self) -> KnowggetContract {
        KnowggetContract::new()
            // Operator-facing traffic statistics: exported knowledge even
            // when no detection module consumes them directly.
            .writes_family(labels::TRAFFIC_FREQUENCY, ValueType::Float)
            .exported()
            // Rate knowggets feed dashboards and recommend_config, not
            // other modules; flood detectors keep their own windows.
            .allow(
                "KL202",
                labels::TRAFFIC_FREQUENCY,
                "operator-facing rate telemetry",
            )
            .accepts_param(ParamSpec::number("windowSecs", 0.1))
            .accepts_param(ParamSpec::number("entity_budget", MIN_ENTITY_BUDGET as f64))
    }

    fn required(&self, _kb: &KnowledgeBase) -> bool {
        true
    }

    fn on_packet(&mut self, ctx: &mut ModuleCtx<'_>, packet: &CapturedPacket) {
        let class = packet.traffic_class();
        let dst = packet.decoded().and_then(|p| p.net_dst());
        let shed = self.events.len() >= self.event_cap();
        if shed {
            self.pop_oldest();
            self.shed_events += 1;
        }
        self.push(packet.timestamp, class, dst);
        self.since_publish += 1;
        // Publish opportunistically so rates stay fresh under bursts even
        // between ticks. A full window sheds on every push and stays at a
        // multiple of 16 events, so while shedding the cadence counts
        // pushes instead.
        if self.events.len() % PUBLISH_EVERY == 0 && (!shed || self.since_publish >= PUBLISH_EVERY)
        {
            self.publish(ctx, packet.timestamp);
        }
    }

    fn on_tick(&mut self, ctx: &mut ModuleCtx<'_>) {
        let now = ctx.now;
        self.publish(ctx, now);
    }

    fn state_bytes(&self) -> usize {
        self.events.len() * 48 + self.index.len() * 64 + 128
    }

    fn occupancy(&self) -> usize {
        self.admitted
    }

    fn evictions(&self) -> u64 {
        self.shed_events
    }

    fn state_budget(&self) -> usize {
        self.entity_budget
    }

    fn current_params(&self) -> Vec<(String, KnowValue)> {
        budget_params(self.entity_budget)
    }

    fn reset(&mut self) {
        *self = Self::build(self.window, self.entity_budget);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alert::Alert;
    use crate::id::KalisId;
    use kalis_packets::ShortAddr;
    use std::net::Ipv4Addr;

    fn run(
        module: &mut TrafficStatsModule,
        kb: &mut KnowledgeBase,
        packets: Vec<CapturedPacket>,
        tick_at: Timestamp,
    ) {
        for p in packets {
            packet(module, kb, &p);
        }
        tick(module, kb, tick_at);
    }

    fn wifi_echo_reply(ms: u64, dst: Ipv4Addr) -> CapturedPacket {
        let ip = kalis_netsim::craft::ipv4_echo_reply(Ipv4Addr::new(1, 1, 1, 1), dst, 1, 1);
        let raw = kalis_netsim::craft::wifi_ipv4(
            kalis_packets::MacAddr::from_index(1),
            kalis_packets::MacAddr::from_index(2),
            kalis_packets::MacAddr::from_index(0),
            0,
            &ip,
        );
        CapturedPacket::capture(
            Timestamp::from_millis(ms),
            kalis_packets::Medium::Wifi,
            None,
            "w",
            raw,
        )
    }

    fn ctp(ms: u64) -> CapturedPacket {
        let raw =
            kalis_netsim::craft::ctp_data(ShortAddr(2), ShortAddr(1), 0, ShortAddr(2), 1, 0, b"r");
        CapturedPacket::capture(
            Timestamp::from_millis(ms),
            kalis_packets::Medium::Ieee802154,
            Some(-55.0),
            "t",
            raw,
        )
    }

    #[test]
    fn global_rates_match_counts() {
        let mut module = TrafficStatsModule::new();
        let mut kb = KnowledgeBase::new(KalisId::new("K1"));
        // 10 echo replies within the 5s window → 2 pps.
        let packets = (0..10)
            .map(|i| wifi_echo_reply(i * 100, Ipv4Addr::new(10, 0, 0, 7)))
            .collect();
        run(&mut module, &mut kb, packets, Timestamp::from_millis(1000));
        assert_eq!(kb.get_f64("TrafficFrequency.ICMPRESP"), Some(2.0));
    }

    #[test]
    fn per_destination_rates_are_tracked() {
        let mut module = TrafficStatsModule::new();
        let mut kb = KnowledgeBase::new(KalisId::new("K1"));
        let victim = Ipv4Addr::new(10, 0, 0, 7);
        let other = Ipv4Addr::new(10, 0, 0, 8);
        let mut packets: Vec<_> = (0..8).map(|i| wifi_echo_reply(i * 100, victim)).collect();
        packets.push(wifi_echo_reply(900, other));
        run(&mut module, &mut kb, packets, Timestamp::from_millis(1000));
        let per_victim = kb
            .get_about("TrafficFrequency.ICMPRESP", &Entity::new("10.0.0.7"))
            .and_then(|v| v.as_f64())
            .unwrap();
        let per_other = kb
            .get_about("TrafficFrequency.ICMPRESP", &Entity::new("10.0.0.8"))
            .and_then(|v| v.as_f64())
            .unwrap();
        assert!(per_victim > per_other);
    }

    #[test]
    fn window_expiry_zeroes_rates() {
        let mut module = TrafficStatsModule::new();
        let mut kb = KnowledgeBase::new(KalisId::new("K1"));
        run(
            &mut module,
            &mut kb,
            vec![ctp(0), ctp(100)],
            Timestamp::from_millis(200),
        );
        assert!(kb.get_f64("TrafficFrequency.CTPDATA").unwrap() > 0.0);
        // Tick far in the future: everything expired.
        tick(&mut module, &mut kb, Timestamp::from_secs(60));
        assert_eq!(kb.get_f64("TrafficFrequency.CTPDATA"), Some(0.0));
    }

    #[test]
    fn distinct_classes_get_distinct_subknowggets() {
        let mut module = TrafficStatsModule::new();
        let mut kb = KnowledgeBase::new(KalisId::new("K1"));
        run(
            &mut module,
            &mut kb,
            vec![ctp(0), wifi_echo_reply(10, Ipv4Addr::new(1, 2, 3, 4))],
            Timestamp::from_millis(100),
        );
        let subs = kb.sublabels("TrafficFrequency");
        assert!(subs.iter().any(|(k, _)| k == "CTPDATA"));
        assert!(subs.iter().any(|(k, _)| k == "ICMPRESP"));
    }

    fn wifi_echo_request(ms: u64, dst: Ipv4Addr) -> CapturedPacket {
        let ip = kalis_netsim::craft::ipv4_echo_request(Ipv4Addr::new(1, 1, 1, 1), dst, 1, 1);
        let raw = kalis_netsim::craft::wifi_ipv4(
            kalis_packets::MacAddr::from_index(1),
            kalis_packets::MacAddr::from_index(2),
            kalis_packets::MacAddr::from_index(0),
            0,
            &ip,
        );
        CapturedPacket::capture(
            Timestamp::from_millis(ms),
            kalis_packets::Medium::Wifi,
            None,
            "w",
            raw,
        )
    }

    fn zigbee(ms: u64, dst: u16) -> CapturedPacket {
        let raw = kalis_netsim::craft::zigbee_data(
            ShortAddr(2),
            ShortAddr(1),
            0,
            ShortAddr(2),
            ShortAddr(dst),
            0,
            b"z",
        );
        CapturedPacket::capture(
            Timestamp::from_millis(ms),
            kalis_packets::Medium::Ieee802154,
            Some(-55.0),
            "t",
            raw,
        )
    }

    fn packet(module: &mut TrafficStatsModule, kb: &mut KnowledgeBase, p: &CapturedPacket) {
        let mut alerts: Vec<Alert> = Vec::new();
        let mut ctx = ModuleCtx {
            now: p.timestamp,
            kb,
            alerts: &mut alerts,
        };
        module.on_packet(&mut ctx, p);
    }

    fn tick(module: &mut TrafficStatsModule, kb: &mut KnowledgeBase, now: Timestamp) {
        let mut alerts: Vec<Alert> = Vec::new();
        let mut ctx = ModuleCtx {
            now,
            kb,
            alerts: &mut alerts,
        };
        module.on_tick(&mut ctx);
    }

    #[test]
    fn new_class_cannot_evict_an_admitted_destination_rate() {
        let mut module = TrafficStatsModule::new().with_entity_budget(MIN_ENTITY_BUDGET);
        let mut kb = KnowledgeBase::new(KalisId::new("K1"));
        // Fill every place of the budget with a destination...
        for i in 0..MIN_ENTITY_BUDGET as u8 {
            packet(
                &mut module,
                &mut kb,
                &wifi_echo_reply(u64::from(i), Ipv4Addr::new(10, 0, 0, i)),
            );
        }
        tick(&mut module, &mut kb, Timestamp::from_millis(100));
        assert_eq!(module.occupancy(), MIN_ENTITY_BUDGET);
        // ...then a class appears for the first time.
        packet(&mut module, &mut kb, &ctp(200));
        tick(&mut module, &mut kb, Timestamp::from_millis(300));
        assert!(kb.get_f64("TrafficFrequency.CTPDATA").unwrap() > 0.0);
        assert_eq!(module.evictions(), 0, "the class rate displaced nothing");
        // Once the window has passed, every destination rate is zeroed:
        // none was dropped from tracking while still non-zero.
        tick(&mut module, &mut kb, Timestamp::from_secs(60));
        let rates = kb.entities_with("TrafficFrequency.ICMPRESP");
        assert_eq!(rates.len(), MIN_ENTITY_BUDGET);
        assert!(
            rates.iter().all(|(_, rate)| rate.as_f64() == Some(0.0)),
            "{rates:?}"
        );
        assert_eq!(module.occupancy(), 0);
    }

    #[test]
    fn saturated_window_publishes_once_per_sixteen_pushes() {
        let mut module = TrafficStatsModule::new().with_entity_budget(MIN_ENTITY_BUDGET);
        let mut kb = KnowledgeBase::new(KalisId::new("K1"));
        let cap = module.event_cap() as u64;
        let victim = Ipv4Addr::new(10, 0, 0, 7);
        // A period-3 mix: the window's counts change on most pushes, so
        // every publish writes. Everything stays inside the window.
        let at = |i: u64| {
            if i % 3 == 2 {
                ctp(i)
            } else {
                wifi_echo_reply(i, victim)
            }
        };
        for i in 0..cap {
            packet(&mut module, &mut kb, &at(i));
        }
        let before = kb.revision();
        let pushes = 160;
        for i in cap..cap + pushes {
            packet(&mut module, &mut kb, &at(i));
        }
        assert_eq!(module.evictions(), pushes, "every push shed one event");
        // Three keys (two classes, one destination), at most one publish
        // per 16 pushes.
        let writes = kb.revision() - before;
        assert!(
            writes <= 3 * pushes / PUBLISH_EVERY as u64,
            "{writes} KB writes for {pushes} saturated pushes"
        );
        assert!(writes > 0, "the saturated window still publishes");
    }

    /// The rescan `publish` the incremental one replaced: recount the
    /// whole window, admitting new destinations in order of first
    /// occurrence while the budget has room. Network-wide rates are kept
    /// outside the budget (so this model never evicts), and it publishes
    /// whenever the window length is a multiple of 16.
    struct RescanModel {
        window: Duration,
        budget: usize,
        events: VecDeque<(Timestamp, TrafficClass, Option<Entity>)>,
        shed_events: u64,
        written: BTreeMap<(TrafficClass, Option<Entity>), f64>,
    }

    impl RescanModel {
        fn new(budget: usize) -> Self {
            RescanModel {
                window: Duration::from_secs(5),
                budget,
                events: VecDeque::new(),
                shed_events: 0,
                written: BTreeMap::new(),
            }
        }

        fn on_packet(&mut self, kb: &mut KnowledgeBase, packet: &CapturedPacket) {
            let class = packet.traffic_class();
            let dst = packet.decoded().and_then(|p| p.net_dst());
            if self.events.len() >= self.budget * EVENTS_PER_BUDGET_UNIT {
                self.events.pop_front();
                self.shed_events += 1;
            }
            self.events.push_back((packet.timestamp, class, dst));
            if self.events.len() % 16 == 0 {
                self.publish(kb, packet.timestamp);
            }
        }

        fn publish(&mut self, kb: &mut KnowledgeBase, now: Timestamp) {
            while let Some((ts, ..)) = self.events.front() {
                if now.saturating_since(*ts) > self.window {
                    self.events.pop_front();
                } else {
                    break;
                }
            }
            let secs = self.window.as_secs_f64();
            let written_dsts = self.written.keys().filter(|(_, d)| d.is_some()).count();
            let mut counts: BTreeMap<(TrafficClass, Option<Entity>), usize> = BTreeMap::new();
            let mut admitted = 0usize;
            for (_, class, dst) in &self.events {
                *counts.entry((*class, None)).or_default() += 1;
                if let Some(dst) = dst {
                    let key = (*class, Some(dst.clone()));
                    if let Some(count) = counts.get_mut(&key) {
                        *count += 1;
                    } else if self.written.contains_key(&key) {
                        counts.insert(key, 1);
                    } else if written_dsts + admitted < self.budget {
                        admitted += 1;
                        counts.insert(key, 1);
                    }
                }
            }
            let stale: Vec<(TrafficClass, Option<Entity>)> = self
                .written
                .keys()
                .filter(|k| !counts.contains_key(k))
                .cloned()
                .collect();
            for ((class, dst), count) in counts {
                let rate = count as f64 / secs;
                let prev = self.written.insert((class, dst.clone()), rate);
                if prev == Some(rate) {
                    continue;
                }
                match dst {
                    None => kb.insert(TrafficStatsModule::key(class), rate),
                    Some(entity) => kb.insert_about(TrafficStatsModule::key(class), entity, rate),
                };
            }
            for (class, dst) in stale {
                self.written.remove(&(class, dst.clone()));
                match dst {
                    None => kb.insert(TrafficStatsModule::key(class), 0.0),
                    Some(entity) => kb.insert_about(TrafficStatsModule::key(class), entity, 0.0),
                };
            }
        }
    }

    proptest::proptest! {
        /// The incremental publish issues exactly the rescan's KB writes,
        /// in the same order, after every packet and tick — as long as
        /// the rescan model has not shed (its cadence differs there by
        /// design).
        #[test]
        fn incremental_publish_matches_the_rescan(
            ops in proptest::collection::vec((0u8..10, 0u16..1000, 0u16..1000), 1..400),
        ) {
            let budget = MIN_ENTITY_BUDGET;
            let mut module = TrafficStatsModule::new().with_entity_budget(budget);
            let mut model = RescanModel::new(budget);
            let mut kb = KnowledgeBase::new(KalisId::new("K1"));
            let mut model_kb = KnowledgeBase::new(KalisId::new("K1"));
            let mut now = 0u64;
            let mut one_shot = 0u16;
            for (op, dst, gap) in ops {
                // Mostly sub-250 ms gaps, now and then one longer than
                // the window.
                now += if gap >= 985 { 6_000 } else { u64::from(gap / 4) };
                if op == 0 {
                    tick(&mut module, &mut kb, Timestamp::from_millis(now));
                    model.publish(&mut model_kb, Timestamp::from_millis(now));
                } else {
                    // A small repeating destination set, plus one-shot
                    // destinations that overflow the budget.
                    let dst = if dst < 600 {
                        dst % 6
                    } else {
                        one_shot += 1;
                        100 + one_shot
                    };
                    let ip = Ipv4Addr::new(10, 0, (dst >> 8) as u8, dst as u8);
                    let p = match op % 4 {
                        0 => wifi_echo_request(now, ip),
                        1 => wifi_echo_reply(now, ip),
                        2 => zigbee(now, dst),
                        _ => ctp(now),
                    };
                    packet(&mut module, &mut kb, &p);
                    model.on_packet(&mut model_kb, &p);
                }
                if model.shed_events > 0 {
                    break;
                }
                proptest::prop_assert_eq!(kb.drain_changes(), model_kb.drain_changes());
                proptest::prop_assert_eq!(
                    module.occupancy(),
                    model.written.keys().filter(|(_, d)| d.is_some()).count()
                );
                proptest::prop_assert_eq!(module.evictions(), 0);
            }
        }
    }
}
