//! The Knowledge Base proper: a string-keyed store with the paper's
//! prefix/suffix query patterns and change tracking.

use std::collections::{BTreeMap, BTreeSet};

use kalis_packets::Entity;

use crate::bounded::BoundedMap;
use crate::id::KalisId;

use super::{KnowKey, KnowValue, Knowgget, KnowggetOrigin};

/// Default cap on distinct entities holding per-entity knowggets. An
/// adversary spraying fake identities otherwise grows the KB without
/// bound; past this many entities the least-recently-written one is
/// evicted wholesale (every knowgget about it removed, with removal
/// change events so modules observe the knowledge disappearing).
pub const DEFAULT_KB_ENTITY_BUDGET: usize = 4096;

use kalis_telemetry::{metric_name, names, Counter, Gauge, Telemetry};
use std::sync::Arc;

/// Cached instrument handles so the KB hot path never touches the
/// registry lock (paper-scale workloads query the KB per packet).
#[derive(Debug, Clone)]
struct KbStats {
    inserts: Arc<Counter>,
    gets: Arc<Counter>,
    removes: Arc<Counter>,
    syncs: Arc<Counter>,
    churn: Arc<Counter>,
    revision: Arc<Gauge>,
    entity_occupancy: Arc<Gauge>,
    entity_evictions: Arc<Gauge>,
}

/// The footprint one stored entry is charged in
/// [`KnowledgeBase::state_bytes`].
fn entry_bytes(encoded: &str, wire: &str) -> usize {
    encoded.len() + wire.len() + 48
}

/// A change to the Knowledge Base, consumed by the Module Manager to
/// decide module activation (paper: "the Knowledge Base will in turn
/// notify the Module Manager that recent changes ... might require
/// activating or deactivating specific modules").
#[derive(Debug, Clone, PartialEq)]
pub struct ChangeEvent {
    /// The key that changed.
    pub key: KnowKey,
    /// The new value (the last value before removal when `removed`).
    pub value: KnowValue,
    /// Whether the knowgget was removed.
    pub removed: bool,
    /// Causal trace the write belongs to (0 = untraced).
    pub trace_id: u64,
}

/// The centralized store of knowggets for one Kalis node.
///
/// Keys are stored in the paper's flat encoding (`creator$label@entity`),
/// which makes the three query shapes cheap (§V):
///
/// * **local vs collective**: prefix match on the local node id,
/// * **per-entity**: suffix match on `@entity`,
/// * **exact**: direct lookup.
///
/// # Examples
///
/// ```
/// use kalis_core::{KalisId, KnowValue, KnowledgeBase};
///
/// let mut kb = KnowledgeBase::new(KalisId::new("K1"));
/// kb.insert("Multihop", KnowValue::Bool(true));
/// kb.insert("MonitoredNodes", KnowValue::Int(8));
/// assert_eq!(kb.get_bool("Multihop"), Some(true));
/// assert_eq!(kb.get_int("MonitoredNodes"), Some(8));
/// ```
#[derive(Debug, Clone)]
pub struct KnowledgeBase {
    local: KalisId,
    entries: BTreeMap<String, String>,
    /// Running [`KnowledgeBase::state_bytes`] total over `entries`, kept
    /// in step with every insert, removal and purge.
    entry_bytes: usize,
    collective: BTreeSet<String>,
    dirty_collective: BTreeSet<String>,
    changes: Vec<ChangeEvent>,
    revision: u64,
    /// Write provenance per encoded key: which module last changed the
    /// value, and under which trace. Only updated when the stored value
    /// actually changes, so replayed/duplicated writes cannot churn the
    /// recorded provenance.
    attribution: BTreeMap<String, KnowggetOrigin>,
    /// The module currently dispatching (set by the Module Manager
    /// around each callback); empty = operator/config/embedder write.
    writer: String,
    /// The trace context of the packet/tick being dispatched
    /// (`(trace_id, span_id)`; zeros = untraced).
    trace: (u64, u32),
    /// Bounded index of per-entity knowledge: entity string → the
    /// encoded keys of every knowgget about it. When a fresh entity
    /// would exceed the budget, the least-recently-written entity is
    /// evicted and all of its knowggets purged.
    entity_index: BoundedMap<String, BTreeSet<String>>,
    stats: Option<KbStats>,
}

impl KnowledgeBase {
    /// An empty Knowledge Base owned by `local`.
    pub fn new(local: KalisId) -> Self {
        KnowledgeBase {
            local,
            entries: BTreeMap::new(),
            entry_bytes: 0,
            collective: BTreeSet::new(),
            dirty_collective: BTreeSet::new(),
            changes: Vec::new(),
            revision: 0,
            attribution: BTreeMap::new(),
            writer: String::new(),
            trace: (0, 0),
            entity_index: BoundedMap::new(DEFAULT_KB_ENTITY_BUDGET),
            stats: None,
        }
    }

    /// Attach a telemetry registry: from now on every operation is
    /// counted under `kb.ops[op=...]` and revision churn is tracked.
    pub fn set_telemetry(&mut self, registry: &Telemetry) {
        let op = |name: &str| registry.counter(&metric_name(names::KB_OPS, &[("op", name)]));
        self.stats = Some(KbStats {
            inserts: op("insert"),
            gets: op("get"),
            removes: op("remove"),
            syncs: op("sync"),
            churn: registry.counter(names::KB_CHURN),
            revision: registry.gauge(names::KB_REVISION),
            entity_occupancy: registry.gauge(names::KB_ENTITY_OCCUPANCY),
            entity_evictions: registry.gauge(names::KB_ENTITY_EVICTIONS),
        });
    }

    #[inline]
    fn note_insert(&self) {
        if let Some(s) = &self.stats {
            s.inserts.inc();
        }
    }

    #[inline]
    fn note_get(&self) {
        if let Some(s) = &self.stats {
            s.gets.inc();
        }
    }

    #[inline]
    fn note_remove(&self) {
        if let Some(s) = &self.stats {
            s.removes.inc();
        }
    }

    #[inline]
    fn note_sync(&self) {
        if let Some(s) = &self.stats {
            s.syncs.inc();
        }
    }

    /// Record a revision bump (a real state change).
    #[inline]
    fn note_churn(&self) {
        if let Some(s) = &self.stats {
            s.churn.inc();
            s.revision.set(self.revision);
            s.entity_occupancy.set(self.entity_index.len() as u64);
            s.entity_evictions.set(self.entity_index.evictions());
        }
    }

    /// The owning Kalis node's identifier.
    pub fn local_id(&self) -> &KalisId {
        &self.local
    }

    /// Monotonic revision counter; bumps on every change.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    fn set_raw(&mut self, key: KnowKey, value: KnowValue, collective: bool) -> bool {
        let origin = self.current_origin();
        self.set_raw_with_origin(key, value, collective, origin)
    }

    fn set_raw_with_origin(
        &mut self,
        key: KnowKey,
        value: KnowValue,
        collective: bool,
        origin: Option<KnowggetOrigin>,
    ) -> bool {
        let encoded = key.encode();
        let wire = value.to_wire();
        let changed = self.entries.get(&encoded) != Some(&wire);
        if collective {
            self.collective.insert(encoded.clone());
        }
        if changed {
            let trace_id = origin.as_ref().map_or(0, |o| o.trace_id);
            // Provenance follows the value: only a *real* change
            // re-attributes the knowgget (duplicated sync frames and
            // idempotent re-writes leave it untouched).
            match origin {
                Some(o) => {
                    self.attribution.insert(encoded.clone(), o);
                }
                None => {
                    self.attribution.remove(&encoded);
                }
            }
            self.entry_bytes += entry_bytes(&encoded, &wire);
            if let Some(old) = self.entries.insert(encoded.clone(), wire) {
                self.entry_bytes -= entry_bytes(&encoded, &old);
            }
            self.revision += 1;
            if self.collective.contains(&encoded) {
                self.dirty_collective.insert(encoded.clone());
            }
            let entity_tag = key.entity.as_ref().map(|e| e.as_str().to_owned());
            self.changes.push(ChangeEvent {
                key,
                value,
                removed: false,
                trace_id,
            });
            // Entity-scoped knowledge is indexed under its entity so the
            // per-entity budget can evict whole entities at once. The
            // eviction (if any) happens *before* the new entity is
            // indexed, so the purge can never touch the fresh write.
            if let Some(entity) = entity_tag {
                let evicted = {
                    let (set, evicted) =
                        self.entity_index.get_or_insert_with(&entity, BTreeSet::new);
                    set.insert(encoded);
                    evicted
                };
                if let Some((_, keys)) = evicted {
                    self.purge_entity_keys(&keys);
                }
            }
            self.note_churn();
        }
        true
    }

    /// Remove every knowgget belonging to an entity evicted from the
    /// bounded entity index. Each removal is a real change: modules see
    /// removal events exactly as if the knowgget had expired normally.
    fn purge_entity_keys(&mut self, keys: &BTreeSet<String>) {
        for encoded in keys {
            let Some(old) = self.entries.remove(encoded) else {
                continue;
            };
            self.entry_bytes -= entry_bytes(encoded, &old);
            self.revision += 1;
            self.collective.remove(encoded);
            self.dirty_collective.remove(encoded);
            self.attribution.remove(encoded);
            if let Ok(key) = encoded.parse::<KnowKey>() {
                self.changes.push(ChangeEvent {
                    key,
                    value: KnowValue::from_wire(&old),
                    removed: true,
                    trace_id: 0,
                });
            }
        }
    }

    /// Cap the number of distinct entities that may hold per-entity
    /// knowggets (`KB.PerEntityBudget`). Shrinking below the current
    /// occupancy immediately purges the overflow entities' knowledge.
    pub fn set_entity_budget(&mut self, budget: usize) {
        let budget = budget.max(1);
        if budget == self.entity_index.budget() {
            return;
        }
        let old: Vec<(String, BTreeSet<String>)> = self
            .entity_index
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        let mut index = BoundedMap::new(budget);
        let mut purged = Vec::new();
        for (entity, keys) in old {
            if let Some((_, dropped)) = index.insert(entity, keys) {
                purged.push(dropped);
            }
        }
        self.entity_index = index;
        for keys in purged {
            self.purge_entity_keys(&keys);
        }
        self.note_churn();
    }

    /// The configured per-entity state budget.
    pub fn entity_budget(&self) -> usize {
        self.entity_index.budget()
    }

    /// Distinct entities currently holding per-entity knowggets.
    pub fn entity_occupancy(&self) -> usize {
        self.entity_index.len()
    }

    /// Entities evicted (wholesale) to stay within the budget.
    pub fn entity_evictions(&self) -> u64 {
        self.entity_index.evictions()
    }

    /// The origin the next local write will be attributed to, from the
    /// ambient writer/trace set by the dispatch loop.
    fn current_origin(&self) -> Option<KnowggetOrigin> {
        if self.writer.is_empty() && self.trace == (0, 0) {
            return None;
        }
        Some(KnowggetOrigin {
            module: self.writer.clone(),
            trace_id: self.trace.0,
            span_id: self.trace.1,
        })
    }

    /// Declare the module about to perform writes (called by the Module
    /// Manager around each dispatch). Empty string = no module
    /// (operator/config writes).
    pub fn set_writer(&mut self, module: &str) {
        if self.writer != module {
            self.writer.clear();
            self.writer.push_str(module);
        }
    }

    /// Clear the ambient writer attribution.
    pub fn clear_writer(&mut self) {
        self.writer.clear();
    }

    /// Declare the trace context writes should be attributed to
    /// (`(0, 0)` = untraced).
    pub fn set_trace(&mut self, trace_id: u64, span_id: u32) {
        self.trace = (trace_id, span_id);
    }

    /// Clear the ambient trace attribution.
    pub fn clear_trace(&mut self) {
        self.trace = (0, 0);
    }

    /// Write provenance for an encoded key (`creator$label@entity`), if
    /// any was recorded.
    pub fn origin_of_encoded(&self, encoded: &str) -> Option<&KnowggetOrigin> {
        self.attribution.get(encoded)
    }

    /// Write provenance for a key, if any was recorded.
    pub fn origin_of(&self, key: &KnowKey) -> Option<&KnowggetOrigin> {
        self.attribution.get(&key.encode())
    }

    /// Insert or update a local network-level knowgget. Returns whether
    /// the stored value changed.
    pub fn insert(&mut self, label: impl Into<String>, value: impl Into<KnowValue>) -> bool {
        self.note_insert();
        let key = KnowKey::new(self.local.clone(), label);
        let before = self.revision;
        self.set_raw(key, value.into(), false);
        self.revision != before
    }

    /// Insert or update a local entity-specific knowgget.
    pub fn insert_about(
        &mut self,
        label: impl Into<String>,
        entity: Entity,
        value: impl Into<KnowValue>,
    ) -> bool {
        self.note_insert();
        let key = KnowKey::about(self.local.clone(), label, entity);
        let before = self.revision;
        self.set_raw(key, value.into(), false);
        self.revision != before
    }

    /// Insert a local knowgget **marked collective**: changes to it are
    /// shared with peer Kalis nodes (paper §IV-B3, Collective Knowledge).
    pub fn insert_collective(
        &mut self,
        label: impl Into<String>,
        value: impl Into<KnowValue>,
    ) -> bool {
        self.note_insert();
        let key = KnowKey::new(self.local.clone(), label);
        let before = self.revision;
        self.set_raw(key, value.into(), true);
        self.revision != before
    }

    /// Insert a collective entity-specific knowgget.
    pub fn insert_about_collective(
        &mut self,
        label: impl Into<String>,
        entity: Entity,
        value: impl Into<KnowValue>,
    ) -> bool {
        self.note_insert();
        let key = KnowKey::about(self.local.clone(), label, entity);
        let before = self.revision;
        self.set_raw(key, value.into(), true);
        self.revision != before
    }

    /// Remove a local network-level knowgget.
    pub fn remove(&mut self, label: &str) -> bool {
        self.note_remove();
        let key = KnowKey::new(self.local.clone(), label);
        self.remove_key(key)
    }

    /// Remove a local entity-specific knowgget.
    pub fn remove_about(&mut self, label: &str, entity: &Entity) -> bool {
        self.note_remove();
        let key = KnowKey::about(self.local.clone(), label, entity.clone());
        self.remove_key(key)
    }

    fn remove_key(&mut self, key: KnowKey) -> bool {
        let encoded = key.encode();
        if let Some(old) = self.entries.remove(&encoded) {
            self.entry_bytes -= entry_bytes(&encoded, &old);
            self.revision += 1;
            self.collective.remove(&encoded);
            self.dirty_collective.remove(&encoded);
            self.attribution.remove(&encoded);
            if let Some(entity) = key.entity.as_ref().map(|e| e.as_str().to_owned()) {
                let emptied = self.entity_index.get_mut(&entity).is_some_and(|set| {
                    set.remove(&encoded);
                    set.is_empty()
                });
                if emptied {
                    self.entity_index.remove(&entity);
                }
            }
            self.changes.push(ChangeEvent {
                key,
                value: KnowValue::from_wire(&old),
                removed: true,
                trace_id: self.trace.0,
            });
            self.note_churn();
            true
        } else {
            false
        }
    }

    /// Look up a local network-level knowgget.
    pub fn get(&self, label: &str) -> Option<KnowValue> {
        self.note_get();
        let key = KnowKey::new(self.local.clone(), label).encode();
        self.entries.get(&key).map(|w| KnowValue::from_wire(w))
    }

    /// Look up a local entity-specific knowgget.
    pub fn get_about(&self, label: &str, entity: &Entity) -> Option<KnowValue> {
        self.note_get();
        let key = KnowKey::about(self.local.clone(), label, entity.clone()).encode();
        self.entries.get(&key).map(|w| KnowValue::from_wire(w))
    }

    /// Typed lookup: boolean.
    pub fn get_bool(&self, label: &str) -> Option<bool> {
        self.get(label)?.as_bool()
    }

    /// Typed lookup: integer.
    pub fn get_int(&self, label: &str) -> Option<i64> {
        self.get(label)?.as_int()
    }

    /// Typed lookup: float.
    pub fn get_f64(&self, label: &str) -> Option<f64> {
        self.get(label)?.as_f64()
    }

    /// Typed lookup: text.
    pub fn get_text(&self, label: &str) -> Option<String> {
        self.get(label).map(|v| v.as_text())
    }

    /// Every knowgget with the given label across **all** creators — the
    /// collective-correlation query ("other Kalis nodes are noticing
    /// changes in signal strength for specific devices").
    pub fn get_all_creators(&self, label: &str) -> Vec<(KalisId, Option<Entity>, KnowValue)> {
        self.note_get();
        self.entries
            .iter()
            .filter_map(|(k, w)| {
                let key: KnowKey = k.parse().ok()?;
                (key.label == label).then(|| (key.creator, key.entity, KnowValue::from_wire(w)))
            })
            .collect()
    }

    /// Every local knowgget whose label starts with `root.` (the
    /// sub-knowggets of a multilevel knowgget), as `(sub-label, value)`.
    pub fn sublabels(&self, root: &str) -> Vec<(String, KnowValue)> {
        self.note_get();
        let prefix = format!("{}${}.", self.local, root);
        self.entries
            .range(prefix.clone()..)
            .take_while(|(k, _)| k.starts_with(&prefix))
            .map(|(k, w)| {
                let rest = &k[prefix.len()..];
                let sub = rest.split('@').next().unwrap_or(rest).to_owned();
                (sub, KnowValue::from_wire(w))
            })
            .collect()
    }

    /// Every entity that has a local knowgget with `label`, with its value
    /// — the suffix query of the paper.
    pub fn entities_with(&self, label: &str) -> Vec<(Entity, KnowValue)> {
        self.note_get();
        let prefix = format!("{}${}@", self.local, label);
        self.entries
            .range(prefix.clone()..)
            .take_while(|(k, _)| k.starts_with(&prefix))
            .map(|(k, w)| {
                (
                    Entity::new(k[prefix.len()..].to_owned()),
                    KnowValue::from_wire(w),
                )
            })
            .collect()
    }

    /// Iterate over every entry as decoded knowggets.
    pub fn iter(&self) -> impl Iterator<Item = Knowgget> + '_ {
        self.entries.iter().filter_map(|(k, w)| {
            let key: KnowKey = k.parse().ok()?;
            Some(Knowgget {
                label: key.label,
                value: KnowValue::from_wire(w),
                creator: key.creator,
                entity: key.entity,
                origin: self.attribution.get(k).cloned(),
            })
        })
    }

    /// Number of knowggets stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Rough live-memory footprint (the RAM-usage proxy for experiments).
    /// O(1): the total is maintained as entries change.
    pub fn state_bytes(&self) -> usize {
        self.entry_bytes
    }

    /// Drain the change log accumulated since the last call.
    pub fn drain_changes(&mut self) -> Vec<ChangeEvent> {
        std::mem::take(&mut self.changes)
    }

    /// Whether there are undrained changes.
    pub fn has_changes(&self) -> bool {
        !self.changes.is_empty()
    }

    /// Drain the collective knowggets that changed since the last call —
    /// the outbox of the synchronization mechanism.
    pub fn drain_dirty_collective(&mut self) -> Vec<Knowgget> {
        let dirty = std::mem::take(&mut self.dirty_collective);
        dirty
            .into_iter()
            .filter_map(|encoded| {
                let key: KnowKey = encoded.parse().ok()?;
                let wire = self.entries.get(&encoded)?;
                Some(Knowgget {
                    label: key.label,
                    value: KnowValue::from_wire(wire),
                    creator: key.creator,
                    entity: key.entity,
                    origin: self.attribution.get(&encoded).cloned(),
                })
            })
            .collect()
    }

    /// Every knowgget currently marked collective, regardless of dirty
    /// state — the full-state payload sent when a recovered peer needs a
    /// complete re-sync.
    pub fn collective_knowggets(&self) -> Vec<Knowgget> {
        self.collective
            .iter()
            .filter_map(|encoded| {
                let key: KnowKey = encoded.parse().ok()?;
                let wire = self.entries.get(encoded)?;
                Some(Knowgget {
                    label: key.label,
                    value: KnowValue::from_wire(wire),
                    creator: key.creator,
                    entity: key.entity,
                    origin: self.attribution.get(encoded).cloned(),
                })
            })
            .collect()
    }

    /// Accept a knowgget from peer `sender`.
    ///
    /// Enforces the paper's ownership rule: a Kalis node "can only update
    /// those knowggets ... that were originally generated by itself", i.e.
    /// the knowgget's creator must be the sender.
    ///
    /// # Errors
    ///
    /// Returns the rejection reason when the creator does not match the
    /// sender or the creator claims to be the local node.
    pub fn accept_remote(&mut self, sender: &KalisId, knowgget: Knowgget) -> Result<bool, String> {
        self.note_sync();
        if &knowgget.creator != sender {
            return Err(format!(
                "creator `{}` does not match sender `{sender}`",
                knowgget.creator
            ));
        }
        if knowgget.creator == self.local {
            return Err("peer attempted to overwrite local knowledge".to_owned());
        }
        let key = knowgget.key();
        let before = self.revision;
        // A remote knowgget carries its own provenance (or none, for
        // peers predating the provenance wire extension) — never the
        // local ambient writer.
        self.set_raw_with_origin(key, knowgget.value, false, knowgget.origin);
        Ok(self.revision != before)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kb() -> KnowledgeBase {
        KnowledgeBase::new(KalisId::new("K1"))
    }

    #[test]
    fn paper_figure_5_contents() {
        // Build the exact Knowledge Base of Fig. 5 and check every query.
        let mut kb = kb();
        kb.insert("Multihop", true);
        kb.insert("MonitoredNodes", 8i64);
        kb.insert_about("SignalStrength", Entity::new("SensorA"), -67.0);
        kb.insert("TrafficFrequency.TCPSYN", 0.037);
        kb.insert("TrafficFrequency.TCPACK", 0.090);
        let remote = Knowgget::about(
            "SignalStrength",
            KnowValue::Float(-84.0),
            KalisId::new("K2"),
            Entity::new("SensorA"),
        );
        kb.accept_remote(&KalisId::new("K2"), remote).unwrap();

        assert_eq!(kb.get_bool("Multihop"), Some(true));
        assert_eq!(kb.get_int("MonitoredNodes"), Some(8));
        assert_eq!(
            kb.get_about("SignalStrength", &Entity::new("SensorA"))
                .and_then(|v| v.as_f64()),
            Some(-67.0)
        );
        let subs = kb.sublabels("TrafficFrequency");
        assert_eq!(subs.len(), 2);
        assert_eq!(subs[0].0, "TCPACK");
        assert_eq!(subs[1].0, "TCPSYN");
        let all = kb.get_all_creators("SignalStrength");
        assert_eq!(all.len(), 2, "local and K2's values both visible");
        assert_eq!(kb.len(), 6);
    }

    #[test]
    fn insert_reports_change_only_on_difference() {
        let mut kb = kb();
        assert!(kb.insert("Multihop", true));
        assert!(!kb.insert("Multihop", true), "same value → no change");
        assert!(kb.insert("Multihop", false));
    }

    #[test]
    fn change_log_records_inserts_and_removals() {
        let mut kb = kb();
        kb.insert("Mobile", false);
        kb.insert("Mobile", true);
        kb.remove("Mobile");
        let changes = kb.drain_changes();
        assert_eq!(changes.len(), 3);
        assert!(!changes[0].removed);
        assert_eq!(changes[1].value, KnowValue::Bool(true));
        assert!(changes[2].removed);
        assert!(kb.drain_changes().is_empty(), "drain empties the log");
    }

    #[test]
    fn entities_with_suffix_query() {
        let mut kb = kb();
        kb.insert_about("SignalStrength", Entity::new("A"), -60.0);
        kb.insert_about("SignalStrength", Entity::new("B"), -70.0);
        kb.insert_about("Other", Entity::new("C"), 1i64);
        let got = kb.entities_with("SignalStrength");
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0.as_str(), "A");
        assert_eq!(got[1].0.as_str(), "B");
    }

    #[test]
    fn collective_dirty_tracking() {
        let mut kb = kb();
        kb.insert_collective("Mobile", true);
        kb.insert("Private", 1i64);
        let dirty = kb.drain_dirty_collective();
        assert_eq!(dirty.len(), 1);
        assert_eq!(dirty[0].label, "Mobile");
        assert!(kb.drain_dirty_collective().is_empty());
        // Unchanged re-insert does not re-dirty.
        kb.insert_collective("Mobile", true);
        assert!(kb.drain_dirty_collective().is_empty());
        // A real change does.
        kb.insert_collective("Mobile", false);
        assert_eq!(kb.drain_dirty_collective().len(), 1);
    }

    #[test]
    fn collective_knowggets_snapshot_ignores_dirty_state() {
        let mut kb = kb();
        kb.insert_collective("Mobile", true);
        kb.insert_collective("Multihop", false);
        kb.insert("Private", 1i64);
        kb.drain_dirty_collective();
        // Even with nothing dirty, the full snapshot is available for a
        // recovering peer's re-sync.
        let snap = kb.collective_knowggets();
        assert_eq!(snap.len(), 2);
        assert!(snap.iter().all(|k| k.creator == KalisId::new("K1")));
    }

    #[test]
    fn remote_updates_enforce_creator_ownership() {
        let mut kb = kb();
        let k2 = KalisId::new("K2");
        let k3 = KalisId::new("K3");
        // Legitimate: K2 sends its own knowgget.
        let own = Knowgget::new("Multihop", KnowValue::Bool(true), k2.clone());
        assert_eq!(kb.accept_remote(&k2, own), Ok(true));
        // Forged: K3 sends a knowgget claiming K2 as creator.
        let forged = Knowgget::new("Multihop", KnowValue::Bool(false), k2.clone());
        assert!(kb.accept_remote(&k3, forged).is_err());
        // Forged: K2 tries to overwrite local (K1) knowledge.
        let local_forge = Knowgget::new("Multihop", KnowValue::Bool(false), KalisId::new("K1"));
        assert!(kb.accept_remote(&KalisId::new("K1"), local_forge).is_err());
        // The accepted value is still K2's original.
        let all = kb.get_all_creators("Multihop");
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].2, KnowValue::Bool(true));
    }

    #[test]
    fn remote_and_local_keys_do_not_collide() {
        let mut kb = kb();
        kb.insert("Multihop", false);
        let k2 = KalisId::new("K2");
        kb.accept_remote(
            &k2,
            Knowgget::new("Multihop", KnowValue::Bool(true), k2.clone()),
        )
        .unwrap();
        assert_eq!(kb.get_bool("Multihop"), Some(false), "local view unchanged");
        assert_eq!(kb.len(), 2);
    }

    #[test]
    fn state_bytes_grows_with_content() {
        let mut kb = kb();
        let empty = kb.state_bytes();
        kb.insert("TrafficFrequency.TCPSYN", 0.037);
        assert!(kb.state_bytes() > empty);
    }

    #[test]
    fn writes_are_attributed_to_the_ambient_writer_and_trace() {
        let mut kb = kb();
        kb.set_writer("TopologyModule");
        kb.set_trace(0xABCD, 7);
        kb.insert("Multihop", true);
        let key = KnowKey::new(KalisId::new("K1"), "Multihop");
        let origin = kb.origin_of(&key).expect("attributed");
        assert_eq!(origin.module, "TopologyModule");
        assert_eq!(origin.trace_id, 0xABCD);
        assert_eq!(origin.span_id, 7);
        // Idempotent re-write under a different trace keeps the original
        // attribution: provenance follows the value.
        kb.set_trace(0xEEEE, 9);
        kb.insert("Multihop", true);
        assert_eq!(kb.origin_of(&key).unwrap().trace_id, 0xABCD);
        // A real change re-attributes.
        kb.insert("Multihop", false);
        assert_eq!(kb.origin_of(&key).unwrap().trace_id, 0xEEEE);
        // Operator writes (no writer, no trace) clear the attribution.
        kb.clear_writer();
        kb.clear_trace();
        kb.insert("Multihop", true);
        assert!(kb.origin_of(&key).is_none());
        // iter() carries the recorded origin on each knowgget.
        kb.set_writer("MobilityModule");
        kb.insert("Mobile", true);
        let got = kb
            .iter()
            .find(|k| k.label == "Mobile")
            .expect("knowgget present");
        assert_eq!(got.origin.as_ref().unwrap().module, "MobilityModule");
    }

    #[test]
    fn remote_origin_rides_the_knowgget_not_the_local_writer() {
        let mut kb = kb();
        kb.set_writer("LocalModule");
        let k2 = KalisId::new("K2");
        let remote = Knowgget::new("Multihop", KnowValue::Bool(true), k2.clone()).with_origin(
            KnowggetOrigin {
                module: "TrafficModule".into(),
                trace_id: 42,
                span_id: 3,
            },
        );
        kb.accept_remote(&k2, remote.clone()).unwrap();
        let key = KnowKey::new(k2.clone(), "Multihop");
        let origin = kb.origin_of(&key).expect("remote origin stored");
        assert_eq!(origin.module, "TrafficModule");
        assert_eq!(origin.trace_id, 42);
        // A duplicated frame (same value) must not churn provenance.
        let dup = remote.with_origin(KnowggetOrigin {
            module: "Imposter".into(),
            trace_id: 99,
            span_id: 1,
        });
        kb.accept_remote(&k2, dup).unwrap();
        assert_eq!(kb.origin_of(&key).unwrap().module, "TrafficModule");
        // Removal drops the attribution entry alongside the value.
        kb.set_writer("");
        kb.insert("Gone", 1i64);
        kb.remove("Gone");
        let gone = KnowKey::new(KalisId::new("K1"), "Gone");
        assert!(kb.origin_of(&gone).is_none());
    }

    #[test]
    fn entity_budget_evicts_stalest_entity_wholesale() {
        let mut kb = kb();
        kb.set_entity_budget(3);
        // Each entity holds two knowggets; E0 is written first.
        for i in 0..4 {
            let e = Entity::new(format!("E{i}"));
            kb.insert_about("SignalStrength", e.clone(), -60.0 - f64::from(i));
            kb.insert_about_collective("Suspicious", e, i % 2 == 0);
        }
        assert_eq!(kb.entity_occupancy(), 3, "occupancy capped at budget");
        assert_eq!(kb.entity_evictions(), 1, "E0 evicted");
        assert!(
            kb.get_about("SignalStrength", &Entity::new("E0")).is_none(),
            "every knowgget about the evicted entity is purged"
        );
        assert!(kb.get_about("Suspicious", &Entity::new("E0")).is_none());
        assert!(kb.get_about("SignalStrength", &Entity::new("E3")).is_some());
        // The purge surfaced as removal change events for modules.
        let changes = kb.drain_changes();
        let removed: Vec<_> = changes.iter().filter(|c| c.removed).collect();
        assert_eq!(removed.len(), 2, "both E0 knowggets removed");
        assert!(removed
            .iter()
            .all(|c| c.key.entity.as_ref().map(Entity::as_str) == Some("E0")));
        // Network-level (entity-less) knowledge is never budgeted.
        kb.insert("Multihop", true);
        assert_eq!(kb.get_bool("Multihop"), Some(true));
        assert_eq!(kb.entity_occupancy(), 3);
    }

    #[test]
    fn entity_budget_spray_stays_bounded_and_recency_protects_hot_entities() {
        let mut kb = kb();
        kb.set_entity_budget(8);
        let hot = Entity::new("Gateway");
        for i in 0..200 {
            kb.insert_about("SignalStrength", Entity::new(format!("fake-{i}")), -80.0);
            // The real entity is re-written every round, so LRU keeps it.
            kb.insert_about("SignalStrength", hot.clone(), -60.0 - f64::from(i % 3));
        }
        assert!(kb.entity_occupancy() <= 8);
        assert!(kb.entity_evictions() > 0);
        assert!(
            kb.get_about("SignalStrength", &hot).is_some(),
            "recently-touched entity survives the spray"
        );
        assert_eq!(
            kb.len(),
            kb.entity_occupancy(),
            "one knowgget per surviving entity; nothing leaks"
        );
    }

    #[test]
    fn explicit_remove_unindexes_the_entity() {
        let mut kb = kb();
        kb.set_entity_budget(4);
        let e = Entity::new("A");
        kb.insert_about("SignalStrength", e.clone(), -60.0);
        assert_eq!(kb.entity_occupancy(), 1);
        kb.remove_about("SignalStrength", &e);
        assert_eq!(
            kb.entity_occupancy(),
            0,
            "last knowgget removed → entity gone"
        );
        // Shrinking the budget below occupancy purges overflow.
        for i in 0..4 {
            kb.insert_about("X", Entity::new(format!("E{i}")), 1i64);
        }
        kb.set_entity_budget(2);
        assert_eq!(kb.entity_occupancy(), 2);
        assert_eq!(kb.len(), 2);
        assert_eq!(kb.entity_budget(), 2);
    }

    #[test]
    fn revision_increases_monotonically() {
        let mut kb = kb();
        let r0 = kb.revision();
        kb.insert("A", 1i64);
        let r1 = kb.revision();
        kb.insert("A", 1i64); // no-op
        let r2 = kb.revision();
        assert!(r1 > r0);
        assert_eq!(r1, r2);
    }

    /// The state charge a fresh walk over the stored entries gives.
    fn walked_state_bytes(kb: &KnowledgeBase) -> usize {
        kb.entries.iter().map(|(k, v)| entry_bytes(k, v)).sum()
    }

    proptest::proptest! {
        /// The running state total equals a fresh walk after any mix of
        /// local and remote writes, removals, budget purges and budget
        /// shrinks.
        #[test]
        fn running_state_total_matches_a_walk(
            ops in proptest::collection::vec((0u8..8, 0u8..6, 0u8..12, 0i64..100_000), 1..200),
        ) {
            let mut kb = kb();
            kb.set_entity_budget(6);
            let k2 = KalisId::new("K2");
            for (op, label, entity, n) in ops {
                let label = ["Multihop", "A", "SignalStrength", "TrafficFrequency.UDP", "X", "Suspicious"]
                    [usize::from(label)];
                let entity = Entity::new(format!("E{entity}"));
                // Values of different wire lengths, so a rewrite of an
                // existing key changes its charge.
                let value = if n % 3 == 0 {
                    KnowValue::Text("v".repeat((n % 17) as usize))
                } else {
                    KnowValue::Int(n)
                };
                match op {
                    0 => {
                        kb.insert(label, value);
                    }
                    1 => {
                        kb.insert_about(label, entity, value);
                    }
                    2 => {
                        kb.remove(label);
                    }
                    3 => {
                        kb.remove_about(label, &entity);
                    }
                    4 => kb.set_entity_budget(1 + (n % 8) as usize),
                    5 => {
                        kb.insert_about_collective(label, entity, value);
                    }
                    6 => {
                        let _ = kb.accept_remote(&k2, Knowgget::new(label, value, k2.clone()));
                    }
                    _ => {
                        let remote = Knowgget::about(label, value, k2.clone(), entity);
                        let _ = kb.accept_remote(&k2, remote);
                    }
                }
                proptest::prop_assert_eq!(kb.state_bytes(), walked_state_bytes(&kb));
            }
        }
    }
}
