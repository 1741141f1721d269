//! The string-keyed Knowledge Base the structured entry table replaced,
//! kept as a reference model. A proptest drives it and
//! [`KnowledgeBase`] with the same random operation sequences and
//! compares every observable result after every step.

use std::collections::{BTreeMap, BTreeSet};

use kalis_packets::Entity;

use crate::bounded::BoundedMap;
use crate::id::KalisId;

use super::{
    ChangeEvent, KnowKey, KnowValue, Knowgget, KnowggetOrigin, KnowledgeBase,
    DEFAULT_KB_ENTITY_BUDGET,
};

fn entry_bytes(encoded: &str, wire: &str) -> usize {
    encoded.len() + wire.len() + 48
}

/// Encoded `creator$label@entity` keys over `to_wire()` text, with the
/// collective, dirty and provenance state in side maps keyed the same.
#[derive(Debug, Clone)]
pub(super) struct ReferenceKb {
    local: KalisId,
    entries: BTreeMap<String, String>,
    entry_bytes: usize,
    collective: BTreeSet<String>,
    dirty_collective: BTreeSet<String>,
    changes: Vec<ChangeEvent>,
    revision: u64,
    attribution: BTreeMap<String, KnowggetOrigin>,
    writer: String,
    trace: (u64, u32),
    entity_index: BoundedMap<String, BTreeSet<String>>,
}

impl ReferenceKb {
    pub(super) fn new(local: KalisId) -> Self {
        ReferenceKb {
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
        }
    }

    pub(super) fn revision(&self) -> u64 {
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
    pub(super) fn set_entity_budget(&mut self, budget: usize) {
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
    }

    /// The configured per-entity state budget.
    pub(super) fn entity_budget(&self) -> usize {
        self.entity_index.budget()
    }

    /// Distinct entities currently holding per-entity knowggets.
    pub(super) fn entity_occupancy(&self) -> usize {
        self.entity_index.len()
    }

    /// Entities evicted (wholesale) to stay within the budget.
    pub(super) fn entity_evictions(&self) -> u64 {
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
    pub(super) fn set_writer(&mut self, module: &str) {
        if self.writer != module {
            self.writer.clear();
            self.writer.push_str(module);
        }
    }

    /// Clear the ambient writer attribution.
    pub(super) fn clear_writer(&mut self) {
        self.writer.clear();
    }

    /// Declare the trace context writes should be attributed to
    /// (`(0, 0)` = untraced).
    pub(super) fn set_trace(&mut self, trace_id: u64, span_id: u32) {
        self.trace = (trace_id, span_id);
    }

    /// Clear the ambient trace attribution.
    pub(super) fn clear_trace(&mut self) {
        self.trace = (0, 0);
    }

    /// Write provenance for an encoded key (`creator$label@entity`), if
    /// any was recorded.
    pub(super) fn origin_of_encoded(&self, encoded: &str) -> Option<&KnowggetOrigin> {
        self.attribution.get(encoded)
    }

    /// Write provenance for a key, if any was recorded.
    pub(super) fn origin_of(&self, key: &KnowKey) -> Option<&KnowggetOrigin> {
        self.attribution.get(&key.encode())
    }

    /// Insert or update a local network-level knowgget. Returns whether
    /// the stored value changed.
    pub(super) fn insert(&mut self, label: &str, value: impl Into<KnowValue>) -> bool {
        let key = KnowKey::new(self.local.clone(), label);
        let before = self.revision;
        self.set_raw(key, value.into(), false);
        self.revision != before
    }

    /// Insert or update a local entity-specific knowgget.
    pub(super) fn insert_about(
        &mut self,
        label: &str,
        entity: Entity,
        value: impl Into<KnowValue>,
    ) -> bool {
        let key = KnowKey::about(self.local.clone(), label, entity);
        let before = self.revision;
        self.set_raw(key, value.into(), false);
        self.revision != before
    }

    /// Insert a local knowgget **marked collective**: changes to it are
    /// shared with peer Kalis nodes (paper §IV-B3, Collective Knowledge).
    pub(super) fn insert_collective(&mut self, label: &str, value: impl Into<KnowValue>) -> bool {
        let key = KnowKey::new(self.local.clone(), label);
        let before = self.revision;
        self.set_raw(key, value.into(), true);
        self.revision != before
    }

    /// Insert a collective entity-specific knowgget.
    pub(super) fn insert_about_collective(
        &mut self,
        label: &str,
        entity: Entity,
        value: impl Into<KnowValue>,
    ) -> bool {
        let key = KnowKey::about(self.local.clone(), label, entity);
        let before = self.revision;
        self.set_raw(key, value.into(), true);
        self.revision != before
    }

    /// Remove a local network-level knowgget.
    pub(super) fn remove(&mut self, label: &str) -> bool {
        let key = KnowKey::new(self.local.clone(), label);
        self.remove_key(key)
    }

    /// Remove a local entity-specific knowgget.
    pub(super) fn remove_about(&mut self, label: &str, entity: &Entity) -> bool {
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
            true
        } else {
            false
        }
    }

    /// Look up a local network-level knowgget.
    pub(super) fn get(&self, label: &str) -> Option<KnowValue> {
        let key = KnowKey::new(self.local.clone(), label).encode();
        self.entries.get(&key).map(|w| KnowValue::from_wire(w))
    }

    /// Look up a local entity-specific knowgget.
    pub(super) fn get_about(&self, label: &str, entity: &Entity) -> Option<KnowValue> {
        let key = KnowKey::about(self.local.clone(), label, entity.clone()).encode();
        self.entries.get(&key).map(|w| KnowValue::from_wire(w))
    }

    /// Typed lookup: boolean.
    pub(super) fn get_bool(&self, label: &str) -> Option<bool> {
        self.get(label)?.as_bool()
    }

    /// Typed lookup: integer.
    pub(super) fn get_int(&self, label: &str) -> Option<i64> {
        self.get(label)?.as_int()
    }

    /// Typed lookup: float.
    pub(super) fn get_f64(&self, label: &str) -> Option<f64> {
        self.get(label)?.as_f64()
    }

    /// Typed lookup: text.
    pub(super) fn get_text(&self, label: &str) -> Option<String> {
        self.get(label).map(|v| v.as_text())
    }

    /// Every knowgget with the given label across **all** creators — the
    /// collective-correlation query ("other Kalis nodes are noticing
    /// changes in signal strength for specific devices").
    pub(super) fn get_all_creators(
        &self,
        label: &str,
    ) -> Vec<(KalisId, Option<Entity>, KnowValue)> {
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
    pub(super) fn sublabels(&self, root: &str) -> Vec<(String, KnowValue)> {
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
    pub(super) fn entities_with(&self, label: &str) -> Vec<(Entity, KnowValue)> {
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
    pub(super) fn iter(&self) -> impl Iterator<Item = Knowgget> + '_ {
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
    pub(super) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store is empty.
    pub(super) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Rough live-memory footprint (the RAM-usage proxy for experiments).
    /// O(1): the total is maintained as entries change.
    pub(super) fn state_bytes(&self) -> usize {
        self.entry_bytes
    }

    /// Drain the change log accumulated since the last call.
    pub(super) fn drain_changes(&mut self) -> Vec<ChangeEvent> {
        std::mem::take(&mut self.changes)
    }

    /// Whether there are undrained changes.
    pub(super) fn has_changes(&self) -> bool {
        !self.changes.is_empty()
    }

    /// Drain the collective knowggets that changed since the last call —
    /// the outbox of the synchronization mechanism.
    pub(super) fn drain_dirty_collective(&mut self) -> Vec<Knowgget> {
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
    pub(super) fn collective_knowggets(&self) -> Vec<Knowgget> {
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
    pub(super) fn accept_remote(
        &mut self,
        sender: &KalisId,
        knowgget: Knowgget,
    ) -> Result<bool, String> {
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
    use proptest::prelude::*;

    const LOCAL: &str = "K1";
    /// `K1 ` sorts before `K1` once the `$` separator is compared
    /// (space < `$`), the opposite of plain string order.
    const CREATORS: [&str; 5] = [LOCAL, "K2", "K10", "K1 ", "K0"];
    /// `Foo.Bar` and `Foo2` sort before `Foo@e`; `Foo-x` sorts before
    /// the `Foo.` family.
    const LABELS: [&str; 6] = ["Foo", "Foo.Bar", "Foo2", "Foo.Bar.Baz", "Foo-x", "Fo"];
    const ENTITIES: [&str; 5] = ["e", "e2", "E", "e.1", "10.0.0.1"];
    const ROOTS: [&str; 4] = ["Foo", "Foo.Bar", "Fo", "F"];

    #[derive(Debug, Clone)]
    enum Op {
        Insert(usize, Option<usize>, KnowValue, bool),
        Remove(usize, Option<usize>),
        Remote(usize, usize, usize, Option<usize>, KnowValue, bool),
        Budget(usize),
        DrainDirty,
        Writer(usize, u64),
    }

    fn value() -> impl Strategy<Value = KnowValue> {
        prop_oneof![
            any::<bool>().prop_map(KnowValue::Bool),
            (-2i64..8).prop_map(KnowValue::Int),
            prop_oneof![
                Just(3.0),
                Just(-0.0),
                Just(0.0),
                Just(f64::NAN),
                Just(f64::INFINITY),
                Just(1.5),
                Just(7.0),
                Just(1e15),
            ]
            .prop_map(KnowValue::Float),
            prop_oneof![
                Just("1.50"),
                Just("1.5"),
                Just("007"),
                Just("7"),
                Just("true"),
                Just("NaN"),
                Just("x"),
                Just(""),
            ]
            .prop_map(|s| KnowValue::Text(s.to_owned())),
        ]
    }

    fn entity() -> impl Strategy<Value = Option<usize>> {
        prop_oneof![Just(None), (0..ENTITIES.len()).prop_map(Some)]
    }

    fn insert() -> impl Strategy<Value = Op> {
        (0..LABELS.len(), entity(), value(), any::<bool>())
            .prop_map(|(l, e, v, c)| Op::Insert(l, e, v, c))
    }

    fn remote() -> impl Strategy<Value = Op> {
        let creator = 0..CREATORS.len();
        (
            creator.clone(),
            creator,
            0..LABELS.len(),
            entity(),
            value(),
            any::<bool>(),
        )
            .prop_map(|(c, s, l, e, v, o)| Op::Remote(c, s, l, e, v, o))
    }

    fn op() -> impl Strategy<Value = Op> {
        // Writes drawn more often than the other operations.
        prop_oneof![
            insert(),
            insert(),
            insert(),
            remote(),
            remote(),
            (0..LABELS.len(), entity()).prop_map(|(l, e)| Op::Remove(l, e)),
            (1usize..6).prop_map(Op::Budget),
            Just(Op::DrainDirty),
            (0usize..3, 0u64..3).prop_map(|(w, t)| Op::Writer(w, t)),
        ]
    }

    fn entity_of(e: Option<usize>) -> Option<Entity> {
        e.map(|i| Entity::new(ENTITIES[i]))
    }

    /// Structural text of a value: tells `Int(3)` from `Float(3.0)` and
    /// `-0.0` from `0.0`, and lets two `NaN`s compare equal.
    fn show<T: std::fmt::Debug>(x: &T) -> String {
        format!("{x:?}")
    }

    /// Compare every non-draining observation of the two stores.
    fn same_view(kb: &KnowledgeBase, reference: &ReferenceKb) {
        prop_assert_eq!(
            show(&kb.iter().collect::<Vec<_>>()),
            show(&reference.iter().collect::<Vec<_>>())
        );
        prop_assert_eq!(
            show(&kb.collective_knowggets()),
            show(&reference.collective_knowggets())
        );
        prop_assert_eq!(kb.state_bytes(), reference.state_bytes());
        prop_assert_eq!(kb.revision(), reference.revision());
        prop_assert_eq!(kb.len(), reference.len());
        prop_assert_eq!(kb.is_empty(), reference.is_empty());
        prop_assert_eq!(kb.has_changes(), reference.has_changes());
        prop_assert_eq!(kb.entity_budget(), reference.entity_budget());
        prop_assert_eq!(kb.entity_occupancy(), reference.entity_occupancy());
        prop_assert_eq!(kb.entity_evictions(), reference.entity_evictions());
        for root in ROOTS {
            prop_assert_eq!(show(&kb.sublabels(root)), show(&reference.sublabels(root)));
        }
        for label in LABELS {
            prop_assert_eq!(
                show(&kb.get_all_creators(label)),
                show(&reference.get_all_creators(label))
            );
            prop_assert_eq!(
                show(&kb.entities_with(label)),
                show(&reference.entities_with(label))
            );
            prop_assert_eq!(show(&kb.get(label)), show(&reference.get(label)));
            prop_assert_eq!(kb.get_bool(label), reference.get_bool(label));
            prop_assert_eq!(kb.get_int(label), reference.get_int(label));
            prop_assert_eq!(show(&kb.get_f64(label)), show(&reference.get_f64(label)));
            prop_assert_eq!(kb.get_text(label), reference.get_text(label));
            for entity in ENTITIES.map(Entity::new) {
                prop_assert_eq!(
                    show(&kb.get_about(label, &entity)),
                    show(&reference.get_about(label, &entity))
                );
            }
            for creator in CREATORS.map(KalisId::new) {
                for entity in std::iter::once(None).chain(ENTITIES.map(|e| Some(Entity::new(e)))) {
                    let key = KnowKey {
                        creator: creator.clone(),
                        label: label.to_owned(),
                        entity,
                    };
                    prop_assert_eq!(kb.origin_of(&key), reference.origin_of(&key));
                    prop_assert_eq!(
                        kb.origin_of_encoded(&key.encode()),
                        reference.origin_of_encoded(&key.encode())
                    );
                }
            }
        }
    }

    proptest! {
        /// The structured table behaves exactly like the string-keyed
        /// store: same return values, change log, sync outbox,
        /// iteration and query order, provenance, state charge,
        /// revision and entity-budget bookkeeping, after every step of
        /// any mix of local and remote writes, removals, budget purges
        /// and drains.
        #[test]
        fn structured_kb_matches_string_reference(ops in proptest::collection::vec(op(), 1..60)) {
            let local = KalisId::new(LOCAL);
            let mut kb = KnowledgeBase::new(local.clone());
            let mut reference = ReferenceKb::new(local);
            for op in ops {
                match op {
                    Op::Insert(l, e, v, collective) => {
                        let label = LABELS[l];
                        let (got, want) = match (entity_of(e), collective) {
                            (None, false) => (kb.insert(label, v.clone()), reference.insert(label, v)),
                            (None, true) => (
                                kb.insert_collective(label, v.clone()),
                                reference.insert_collective(label, v),
                            ),
                            (Some(e), false) => (
                                kb.insert_about(label, e.clone(), v.clone()),
                                reference.insert_about(label, e, v),
                            ),
                            (Some(e), true) => (
                                kb.insert_about_collective(label, e.clone(), v.clone()),
                                reference.insert_about_collective(label, e, v),
                            ),
                        };
                        prop_assert_eq!(got, want);
                    }
                    Op::Remove(l, e) => {
                        let label = LABELS[l];
                        let (got, want) = match entity_of(e) {
                            None => (kb.remove(label), reference.remove(label)),
                            Some(e) => (kb.remove_about(label, &e), reference.remove_about(label, &e)),
                        };
                        prop_assert_eq!(got, want);
                    }
                    Op::Remote(c, s, l, e, v, with_origin) => {
                        let creator = KalisId::new(CREATORS[c]);
                        let sender = KalisId::new(CREATORS[s]);
                        let mut knowgget = Knowgget {
                            label: LABELS[l].to_owned(),
                            value: v,
                            creator,
                            entity: entity_of(e),
                            origin: None,
                        };
                        if with_origin {
                            knowgget = knowgget.with_origin(KnowggetOrigin {
                                module: format!("Remote{s}"),
                                trace_id: l as u64,
                                span_id: 1,
                            });
                        }
                        prop_assert_eq!(
                            kb.accept_remote(&sender, knowgget.clone()),
                            reference.accept_remote(&sender, knowgget)
                        );
                    }
                    Op::Budget(n) => {
                        kb.set_entity_budget(n);
                        reference.set_entity_budget(n);
                    }
                    Op::DrainDirty => {
                        prop_assert_eq!(
                            show(&kb.drain_dirty_collective()),
                            show(&reference.drain_dirty_collective())
                        );
                    }
                    Op::Writer(w, trace) => {
                        let writer = ["", "ModA", "ModB"][w];
                        kb.set_writer(writer);
                        reference.set_writer(writer);
                        if trace == 0 {
                            kb.clear_trace();
                            reference.clear_trace();
                        } else {
                            kb.set_trace(trace, 7);
                            reference.set_trace(trace, 7);
                        }
                        if w == 0 {
                            kb.clear_writer();
                            reference.clear_writer();
                        }
                    }
                }
                same_view(&kb, &reference);
                prop_assert_eq!(show(&kb.drain_changes()), show(&reference.drain_changes()));
            }
            prop_assert_eq!(
                show(&kb.drain_dirty_collective()),
                show(&reference.drain_dirty_collective())
            );
        }
    }
}
