//! GSC residency: a capacity-aware cache model of the Global Shared Cache.
//!
//! The paper keeps "data such as weights and intermediate results …
//! continuously transferred among the DSC, GSC, and external DRAM". A
//! serving layer multiplexing tenants over one instance therefore needs a
//! *byte-accounted* view of what the GSC holds: which model's weight shards
//! are (partially) resident, and which preempted requests' denoising latents
//! are parked on chip. [`GscCache`] models exactly that — capacity-bounded
//! entries with pluggable eviction — and replaces the old all-or-nothing
//! warm/cold flag: an iteration is priced by the *fraction* of its weight
//! working set already resident, and eviction decides who pays the next
//! refill.
//!
//! A cache holds a handful of entries: a shard per tenant its instance
//! has served, plus the latents parked on it. Every request already sums
//! all of them and every eviction compares all of them, so [`GscCache`]
//! keeps them in a plain vector and finds an entry by scanning it; a hash
//! map would only add hashing to every iteration's touch. Eviction picks
//! its victim by distinct touch ticks, so the vector's order never shows.

use exion_model::config::{ModelConfig, NetworkType};
use serde::{Deserialize, Serialize};

use crate::workload::{
    build_iteration_shard, DscOp, IterationKindFlags, ShardSpec, SparsityProfile,
};

/// Fraction of a `working_set`-byte object that fits in `capacity` bytes.
///
/// The single partial-residency formula shared by the GSC timeline model
/// ([`crate::dsc::DscSimulator`]), the banked scratch memories
/// ([`crate::sram::BankedMemory::capacity_fraction`]), and [`GscCache`]:
/// residency is byte-proportional, never all-or-nothing.
pub fn partial_residency(capacity_bytes: f64, working_set_bytes: f64) -> f64 {
    if working_set_bytes <= 0.0 {
        return 1.0;
    }
    (capacity_bytes / working_set_bytes).clamp(0.0, 1.0)
}

/// Identity of one cacheable object in the GSC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GscObject {
    /// One partition shard of a model's weights: the residency unit of
    /// every serving instance, whose footprint and refill cost come from
    /// its unit's [`crate::partition::PartitionPlan`]. Each gang member
    /// caches *its* shard independently; a whole-model replica holds shard
    /// 0 of the [`crate::partition::PartitionStrategy::Replicated`] plan.
    WeightShard {
        /// The sharded model.
        model: exion_model::config::ModelKind,
        /// Shard index within the model's partition plan.
        shard: u8,
    },
    /// The parked denoising latent state of one preempted request.
    Latent(u64),
}

impl GscObject {
    /// Whether this entry is a parked request latent.
    pub fn is_latent(&self) -> bool {
        matches!(self, GscObject::Latent(_))
    }
}

/// Which entry the cache sacrifices when capacity runs out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EvictionPolicy {
    /// Least-recently-used: evict the entry untouched for longest.
    Lru,
    /// Cost-aware: evict the entry that is *cheapest to refill* (smallest
    /// estimated re-fetch cost), keeping the expensive-to-refill tenant
    /// resident; ties fall back to LRU.
    CostAware,
}

impl EvictionPolicy {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            EvictionPolicy::Lru => "lru",
            EvictionPolicy::CostAware => "cost-aware",
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    /// Bytes of the object currently resident (≤ `full_bytes`).
    bytes: u64,
    /// The object's full footprint.
    full_bytes: u64,
    /// Estimated cost (ms) to re-establish the full entry from DRAM; the
    /// currency [`EvictionPolicy::CostAware`] ranks by.
    refill_cost_ms: f64,
    /// Logical touch tick (monotone per cache) for LRU ordering.
    last_touch: u64,
    /// Pinned entries (the active model's weights) are never evicted.
    pinned: bool,
}

/// Outcome of one [`GscCache::request`]: how much was already resident and
/// how much had to be (or could be) refilled.
#[derive(Debug, Clone, PartialEq)]
pub struct ResidencyOutcome {
    /// Bytes of the object resident *before* this request (the warm part).
    pub prior_bytes: u64,
    /// Bytes resident after refill (≤ the object's full footprint).
    pub resident_bytes: u64,
    /// Bytes streamed from DRAM by this request.
    pub refilled_bytes: u64,
    /// `(object, bytes released)` per eviction performed to make room.
    /// Weight-shard entries *shrink* (partial residency survives); latent
    /// entries are indivisible and leave whole — the serving layer prices
    /// those as DRAM spills.
    pub evicted: Vec<(GscObject, u64)>,
}

impl ResidencyOutcome {
    /// The warm fraction of `full_bytes` this request found resident.
    pub fn prior_fraction(&self, full_bytes: u64) -> f64 {
        if full_bytes == 0 {
            1.0
        } else {
            self.prior_bytes as f64 / full_bytes as f64
        }
    }
}

/// Capacity-aware model of the Global Shared Cache.
///
/// Invariant (property-tested in `tests/serving.rs`): the summed entry bytes
/// never exceed the configured capacity, across any sequence of requests,
/// pins, and removals.
#[derive(Debug, Clone)]
pub struct GscCache {
    capacity: u64,
    policy: EvictionPolicy,
    /// The resident entries, in no meaningful order (removal swaps the last
    /// entry into the hole); see the module docs for why a scanned `Vec`.
    entries: Vec<(GscObject, Entry)>,
    tick: u64,
    hit_bytes: u64,
    refill_bytes: u64,
    evictions: u64,
}

impl GscCache {
    /// An empty cache of `capacity_bytes` under `policy`.
    pub fn new(capacity_bytes: u64, policy: EvictionPolicy) -> Self {
        Self {
            capacity: capacity_bytes,
            policy,
            entries: Vec::new(),
            tick: 0,
            hit_bytes: 0,
            refill_bytes: 0,
            evictions: 0,
        }
    }

    /// Configured capacity (bytes).
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity
    }

    /// Summed resident bytes across entries.
    pub fn occupancy_bytes(&self) -> u64 {
        self.entries.iter().map(|(_, e)| e.bytes).sum()
    }

    /// Unoccupied bytes.
    pub fn free_bytes(&self) -> u64 {
        self.capacity.saturating_sub(self.occupancy_bytes())
    }

    /// Capacity a new entry could claim by evicting every unpinned entry:
    /// the admission pre-check that lets callers spill straight to DRAM
    /// instead of uselessly evicting tenants for an object that cannot fit
    /// anyway.
    pub fn evictable_bytes(&self) -> u64 {
        let pinned: u64 = self
            .entries
            .iter()
            .filter(|(_, e)| e.pinned)
            .map(|(_, e)| e.bytes)
            .sum();
        self.capacity.saturating_sub(pinned)
    }

    /// Capacity not already committed to pinned entries or parked latents:
    /// the headroom a *new* parked latent could claim by displacing only
    /// clean (re-streamable) weight shards. The sharded-latent-parking
    /// layer ranks gang members by this to pick the least-pressured host.
    pub fn park_headroom_bytes(&self) -> u64 {
        let committed: u64 = self
            .entries
            .iter()
            .filter(|(k, e)| e.pinned || k.is_latent())
            .map(|(_, e)| e.bytes)
            .sum();
        self.capacity.saturating_sub(committed)
    }

    /// The storage slot of `obj`'s entry, if resident.
    fn find(&self, obj: GscObject) -> Option<usize> {
        self.entries.iter().position(|(k, _)| *k == obj)
    }

    /// The entry of `obj`, if resident.
    fn entry(&self, obj: GscObject) -> Option<&Entry> {
        self.find(obj).map(|i| &self.entries[i].1)
    }

    /// Resident fraction of `obj` (0.0 when absent, 1.0 when fully held).
    pub fn resident_fraction(&self, obj: GscObject) -> f64 {
        self.entry(obj)
            .map(|e| {
                if e.full_bytes == 0 {
                    1.0
                } else {
                    e.bytes as f64 / e.full_bytes as f64
                }
            })
            .unwrap_or(0.0)
    }

    /// Resident bytes of `obj` (0 when absent).
    pub fn resident_bytes(&self, obj: GscObject) -> u64 {
        self.entry(obj).map(|e| e.bytes).unwrap_or(0)
    }

    /// Bytes found resident across all requests so far.
    pub fn hit_bytes(&self) -> u64 {
        self.hit_bytes
    }

    /// Bytes streamed from DRAM across all requests so far.
    pub fn refill_bytes(&self) -> u64 {
        self.refill_bytes
    }

    /// Entries evicted so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// [`Self::request`] calls so far, hits and refills alike.
    pub fn requests(&self) -> u64 {
        self.tick
    }

    /// Residency hit-rate: hit bytes over total demanded bytes (1.0 before
    /// any traffic).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hit_bytes + self.refill_bytes;
        if total == 0 {
            1.0
        } else {
            self.hit_bytes as f64 / total as f64
        }
    }

    /// Pins or unpins `obj` (no-op when absent). Pinned entries are never
    /// evicted; the serving layer pins the active model's weight shards for
    /// the duration of its batch.
    pub fn set_pinned(&mut self, obj: GscObject, pinned: bool) {
        if let Some(i) = self.find(obj) {
            self.entries[i].1.pinned = pinned;
        }
    }

    /// Drops `obj`, returning the bytes it held (0 when absent).
    pub fn remove(&mut self, obj: GscObject) -> u64 {
        self.find(obj)
            .map(|i| self.entries.swap_remove(i).1.bytes)
            .unwrap_or(0)
    }

    /// Touches, and refills toward full residency, the entry for `obj` with
    /// footprint `full_bytes` and refill cost `refill_cost_ms`, evicting
    /// unpinned entries under the configured policy as needed. The entry
    /// ends as resident as free-able capacity allows (possibly partially:
    /// a working set larger than the GSC never fully fits).
    pub fn request(
        &mut self,
        obj: GscObject,
        full_bytes: u64,
        refill_cost_ms: f64,
        pinned: bool,
    ) -> ResidencyOutcome {
        self.tick += 1;
        // One pass finds `obj` and sums everything else resident.
        let (mut slot, mut others, mut held) = (None, 0, 0);
        for (i, (k, e)) in self.entries.iter().enumerate() {
            if *k == obj {
                slot = Some(i);
                held = e.bytes;
            } else {
                others += e.bytes;
            }
        }
        let prior_bytes = held.min(full_bytes);
        let want = full_bytes - prior_bytes;

        // Free space for the missing part: capacity minus everything else
        // resident, growable by evicting unpinned entries other than `obj`.
        let mut free = self.capacity.saturating_sub(others + prior_bytes);
        let mut evicted = Vec::new();
        while free < want {
            let Some(i) = self.eviction_victim(obj) else {
                break;
            };
            let (victim, released) = self.shrink(i, want - free);
            self.evictions += 1;
            free += released;
            evicted.push((victim, released));
        }
        if !evicted.is_empty() {
            // A victim that left whole may have moved `obj`'s entry.
            slot = self.find(obj);
        }

        let refilled = want.min(free);
        let resident = prior_bytes + refilled;
        self.hit_bytes += prior_bytes;
        self.refill_bytes += full_bytes - prior_bytes;
        let entry = Entry {
            bytes: resident,
            full_bytes,
            refill_cost_ms,
            last_touch: self.tick,
            pinned,
        };
        match (slot, resident > 0 || full_bytes == 0) {
            (Some(i), true) => self.entries[i].1 = entry,
            (None, true) => self.entries.push((obj, entry)),
            (Some(i), false) => {
                self.entries.swap_remove(i);
            }
            (None, false) => {}
        }
        debug_assert!(self.occupancy_bytes() <= self.capacity);
        ResidencyOutcome {
            prior_bytes,
            resident_bytes: resident,
            refilled_bytes: full_bytes - prior_bytes,
            evicted,
        }
    }

    /// Releases up to `needed` bytes from the entry in slot `i`: weight
    /// shards shrink to partial residency, latents (indivisible state)
    /// leave whole. Returns the victim and the bytes released.
    fn shrink(&mut self, i: usize, needed: u64) -> (GscObject, u64) {
        let (victim, e) = &mut self.entries[i];
        let victim = *victim;
        if victim.is_latent() || e.bytes <= needed {
            return (victim, self.entries.swap_remove(i).1.bytes);
        }
        e.bytes -= needed;
        (victim, needed)
    }

    /// The slot of the next eviction victim under the policy, excluding
    /// `keep` and pinned entries; `None` when nothing is evictable. Every
    /// entry's last touch is a distinct tick, so the victim never depends
    /// on storage order.
    fn eviction_victim(&self, keep: GscObject) -> Option<usize> {
        let candidates = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, (k, e))| *k != keep && !e.pinned && e.bytes > 0);
        match self.policy {
            EvictionPolicy::Lru => candidates
                .min_by_key(|(_, (_, e))| e.last_touch)
                .map(|(i, _)| i),
            EvictionPolicy::CostAware => candidates
                .min_by(|(_, (_, a)), (_, (_, b))| {
                    a.refill_cost_ms
                        .total_cmp(&b.refill_cost_ms)
                        .then(a.last_touch.cmp(&b.last_touch))
                })
                .map(|(i, _)| i),
        }
    }
}

/// The DRAM weight footprint of one denoising iteration of `model` (bytes):
/// every weight matrix streamed once, dense (the residency working set; the
/// sparse phase streams a subset of the same bytes).
pub fn model_weight_bytes(model: &ModelConfig, bytes_per_operand: f64) -> u64 {
    spec_weight_bytes(model, &ShardSpec::full(&model.paper), bytes_per_operand)
}

/// Dense weight bytes of the iteration slice `spec` executes — the
/// residency working set of one shard, or of the whole model under
/// [`ShardSpec::full`].
pub(crate) fn spec_weight_bytes(
    model: &ModelConfig,
    spec: &ShardSpec,
    bytes_per_operand: f64,
) -> u64 {
    let plan = build_iteration_shard(
        &model.paper,
        model.network,
        model.geglu,
        IterationKindFlags {
            ffn_sparse: false,
            ffn_dense_with_cau: false,
            ep: false,
        },
        &SparsityProfile::dense(),
        1,
        spec,
    );
    plan.ops
        .iter()
        .map(|op| match op {
            DscOp::Mmul(desc) => desc.weight_bytes(bytes_per_operand),
            _ => 0,
        })
        .sum()
}

/// The denoising latent state one in-flight request parks at an iteration
/// boundary (bytes): the current latent `x_t` plus the sampler's residual
/// scratch — two `tokens × d_model` tensors at the operand width. UNet
/// models park the full-resolution latent (the transformer runs
/// downsampled, but the state that must survive preemption is the
/// full-resolution one).
pub fn latent_state_bytes(model: &ModelConfig, bytes_per_operand: f64) -> u64 {
    let tokens = match model.network {
        NetworkType::TransformerOnly => model.paper.tokens,
        _ => model.paper.tokens * 2,
    };
    (2.0 * tokens as f64 * model.paper.d_model as f64 * bytes_per_operand).ceil() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use exion_model::config::{ModelConfig, ModelKind};

    const MIB: u64 = 1024 * 1024;

    #[test]
    fn partial_residency_is_clamped() {
        assert_eq!(partial_residency(64.0, 0.0), 1.0);
        assert_eq!(partial_residency(64.0, 32.0), 1.0);
        assert_eq!(partial_residency(32.0, 64.0), 0.5);
        assert_eq!(partial_residency(0.0, 64.0), 0.0);
    }

    #[test]
    fn request_grows_entry_to_full_residency() {
        let mut gsc = GscCache::new(10 * MIB, EvictionPolicy::Lru);
        let w = GscObject::WeightShard {
            model: ModelKind::Mld,
            shard: 0,
        };
        let first = gsc.request(w, 4 * MIB, 1.0, false);
        assert_eq!(first.prior_bytes, 0);
        assert_eq!(first.resident_bytes, 4 * MIB);
        assert_eq!(first.refilled_bytes, 4 * MIB);
        let second = gsc.request(w, 4 * MIB, 1.0, false);
        assert_eq!(second.prior_bytes, 4 * MIB);
        assert_eq!(second.refilled_bytes, 0);
        assert_eq!(gsc.resident_fraction(w), 1.0);
        assert!(gsc.hit_rate() > 0.0 && gsc.hit_rate() < 1.0);
    }

    #[test]
    fn oversized_object_stays_partially_resident() {
        let mut gsc = GscCache::new(10 * MIB, EvictionPolicy::Lru);
        let w = GscObject::WeightShard {
            model: ModelKind::StableDiffusion,
            shard: 0,
        };
        let out = gsc.request(w, 25 * MIB, 5.0, false);
        assert_eq!(out.resident_bytes, 10 * MIB);
        assert!((gsc.resident_fraction(w) - 0.4).abs() < 1e-12);
        assert_eq!(gsc.occupancy_bytes(), 10 * MIB);
        // The next request of the same object still finds the partial share.
        let again = gsc.request(w, 25 * MIB, 5.0, false);
        assert_eq!(again.prior_bytes, 10 * MIB);
        assert_eq!(again.refilled_bytes, 15 * MIB);
    }

    #[test]
    fn lru_shrinks_least_recently_used_weights() {
        let mut gsc = GscCache::new(10 * MIB, EvictionPolicy::Lru);
        let a = GscObject::WeightShard {
            model: ModelKind::Mld,
            shard: 0,
        };
        let b = GscObject::WeightShard {
            model: ModelKind::Mdm,
            shard: 0,
        };
        let c = GscObject::WeightShard {
            model: ModelKind::Edge,
            shard: 0,
        };
        gsc.request(a, 4 * MIB, 1.0, false);
        gsc.request(b, 4 * MIB, 1.0, false);
        gsc.request(a, 4 * MIB, 1.0, false); // refresh a
        let out = gsc.request(c, 4 * MIB, 1.0, false);
        // Only 2 MiB were missing, so the LRU victim shrinks to partial
        // residency instead of leaving outright.
        assert_eq!(out.evicted, vec![(b, 2 * MIB)]);
        assert_eq!(gsc.resident_bytes(b), 2 * MIB);
        assert!((gsc.resident_fraction(b) - 0.5).abs() < 1e-12);
        assert_eq!(gsc.resident_fraction(a), 1.0);
        assert_eq!(gsc.occupancy_bytes(), 10 * MIB);
    }

    #[test]
    fn cost_aware_keeps_the_expensive_tenant() {
        let mut gsc = GscCache::new(10 * MIB, EvictionPolicy::CostAware);
        let cheap = GscObject::WeightShard {
            model: ModelKind::Mld,
            shard: 0,
        };
        let dear = GscObject::WeightShard {
            model: ModelKind::StableDiffusion,
            shard: 0,
        };
        gsc.request(dear, 6 * MIB, 9.0, false);
        gsc.request(cheap, 3 * MIB, 0.2, false);
        // `cheap` is more recent, but cost-aware eviction sacrifices it.
        let out = gsc.request(GscObject::Latent(7), 4 * MIB, 0.5, false);
        assert_eq!(out.evicted, vec![(cheap, 3 * MIB)]);
        assert_eq!(gsc.resident_fraction(dear), 1.0);
    }

    #[test]
    fn evictions_follow_the_policy_after_removal_reorders_storage() {
        let shard = |model| GscObject::WeightShard { model, shard: 0 };
        let (pinned, a, b, c) = (
            shard(ModelKind::Mld),
            shard(ModelKind::Mdm),
            shard(ModelKind::Edge),
            shard(ModelKind::Dit),
        );
        let (d, e) = (
            shard(ModelKind::StableDiffusion),
            shard(ModelKind::VideoCrafter2),
        );
        let (l1, l2) = (GscObject::Latent(1), GscObject::Latent(2));
        for policy in [EvictionPolicy::Lru, EvictionPolicy::CostAware] {
            let mut gsc = GscCache::new(20 * MIB, policy);
            let mut request = |obj, bytes, cost| {
                let out = gsc.request(obj, bytes, cost, obj == pinned);
                assert!(gsc.occupancy_bytes() <= gsc.capacity_bytes());
                out.evicted
            };
            // Touch order is request order; refill costs rank otherwise.
            request(pinned, 4 * MIB, 9.0);
            request(a, 3 * MIB, 5.0);
            request(l1, 2 * MIB, 0.3);
            request(b, 3 * MIB, 1.0);
            request(l2, 4 * MIB, 0.2);
            request(c, 3 * MIB, 4.0);
            // Dropping a middle entry swaps the last one into its slot.
            assert_eq!(gsc.remove(l1), 2 * MIB);
            assert_eq!(gsc.remove(l1), 0);
            assert_eq!(gsc.resident_bytes(c), 3 * MIB);
            assert_eq!(gsc.occupancy_bytes(), 17 * MIB);
            let mut request = |obj, bytes, cost| {
                let out = gsc.request(obj, bytes, cost, false);
                assert!(gsc.occupancy_bytes() <= gsc.capacity_bytes());
                out.evicted
            };
            // Two new shards, then the last-stored one grows: a victim
            // leaving whole moves it to another slot mid-request.
            let evicted = [
                request(d, 10 * MIB, 2.0),
                request(e, 5 * MIB, 3.0),
                request(e, 10 * MIB, 3.0),
            ];
            // Resident bytes of [pinned, a, b, c, d, e, l1, l2] afterwards.
            let (expected, resident) = match policy {
                // Least recently touched first: the latent leaves whole
                // where 1 MiB would do, and shards shrink by what is
                // missing.
                EvictionPolicy::Lru => (
                    [
                        vec![(a, 3 * MIB), (b, 3 * MIB), (l2, 4 * MIB)],
                        vec![(c, 2 * MIB)],
                        vec![(c, MIB), (d, 4 * MIB)],
                    ],
                    [4, 0, 0, 0, 6, 10, 0, 0],
                ),
                // Cheapest to refill first, whatever the touch order.
                EvictionPolicy::CostAware => (
                    [
                        vec![(l2, 4 * MIB), (b, 3 * MIB)],
                        vec![(d, 5 * MIB)],
                        vec![(d, 5 * MIB)],
                    ],
                    [4, 3, 0, 3, 0, 10, 0, 0],
                ),
            };
            assert_eq!(evicted, expected, "{}", policy.name());
            let held = [pinned, a, b, c, d, e, l1, l2].map(|o| gsc.resident_bytes(o) / MIB);
            assert_eq!(held, resident, "{}", policy.name());
            assert_eq!(gsc.occupancy_bytes(), 20 * MIB);
            assert_eq!(gsc.requests(), 9);
            let count: usize = expected.iter().map(Vec::len).sum();
            assert_eq!(gsc.evictions(), count as u64);
        }
    }

    #[test]
    fn evicted_latents_leave_whole() {
        let mut gsc = GscCache::new(10 * MIB, EvictionPolicy::Lru);
        let parked = GscObject::Latent(1);
        gsc.request(parked, 4 * MIB, 0.1, false);
        // Needing only 2 MiB still pushes the whole latent out — parked
        // denoising state is indivisible.
        let out = gsc.request(
            GscObject::WeightShard {
                model: ModelKind::Mld,
                shard: 0,
            },
            8 * MIB,
            1.0,
            false,
        );
        assert_eq!(out.evicted, vec![(parked, 4 * MIB)]);
        assert_eq!(gsc.resident_bytes(parked), 0);
    }

    #[test]
    fn pinned_entries_survive_pressure() {
        let mut gsc = GscCache::new(10 * MIB, EvictionPolicy::Lru);
        let active = GscObject::WeightShard {
            model: ModelKind::Mld,
            shard: 0,
        };
        let parked = GscObject::Latent(3);
        gsc.request(active, 6 * MIB, 1.0, true);
        gsc.request(parked, 3 * MIB, 0.1, false);
        // An 8 MiB demand can only reclaim the unpinned latent.
        let out = gsc.request(
            GscObject::WeightShard {
                model: ModelKind::Mdm,
                shard: 0,
            },
            8 * MIB,
            2.0,
            false,
        );
        assert_eq!(out.evicted, vec![(parked, 3 * MIB)]);
        assert_eq!(out.resident_bytes, 4 * MIB); // truncated by the pin
        assert_eq!(gsc.resident_fraction(active), 1.0);
        assert!(gsc.occupancy_bytes() <= gsc.capacity_bytes());
    }

    #[test]
    fn park_headroom_excludes_pins_and_latents() {
        let mut gsc = GscCache::new(10 * MIB, EvictionPolicy::Lru);
        assert_eq!(gsc.park_headroom_bytes(), 10 * MIB);
        gsc.request(
            GscObject::WeightShard {
                model: ModelKind::Mld,
                shard: 0,
            },
            3 * MIB,
            1.0,
            true,
        );
        gsc.request(
            GscObject::WeightShard {
                model: ModelKind::Mdm,
                shard: 0,
            },
            2 * MIB,
            1.0,
            false,
        );
        gsc.request(GscObject::Latent(1), MIB, 0.1, false);
        // Unpinned weights are displaceable, pins and latents are not.
        assert_eq!(gsc.park_headroom_bytes(), 6 * MIB);
        gsc.set_pinned(
            GscObject::WeightShard {
                model: ModelKind::Mld,
                shard: 0,
            },
            false,
        );
        assert_eq!(gsc.park_headroom_bytes(), 9 * MIB);
    }

    #[test]
    fn evictable_bytes_excludes_pins() {
        let mut gsc = GscCache::new(10 * MIB, EvictionPolicy::Lru);
        assert_eq!(gsc.evictable_bytes(), 10 * MIB);
        gsc.request(
            GscObject::WeightShard {
                model: ModelKind::Mld,
                shard: 0,
            },
            6 * MIB,
            1.0,
            true,
        );
        gsc.request(GscObject::Latent(1), 2 * MIB, 0.1, false);
        // Only the pinned weights are off limits; the latent is reclaimable.
        assert_eq!(gsc.evictable_bytes(), 4 * MIB);
        gsc.set_pinned(
            GscObject::WeightShard {
                model: ModelKind::Mld,
                shard: 0,
            },
            false,
        );
        assert_eq!(gsc.evictable_bytes(), 10 * MIB);
    }

    #[test]
    fn unpinning_releases_the_entry() {
        let mut gsc = GscCache::new(8 * MIB, EvictionPolicy::Lru);
        let w = GscObject::WeightShard {
            model: ModelKind::Mld,
            shard: 0,
        };
        gsc.request(w, 6 * MIB, 1.0, true);
        gsc.set_pinned(w, false);
        let out = gsc.request(
            GscObject::WeightShard {
                model: ModelKind::Mdm,
                shard: 0,
            },
            8 * MIB,
            1.0,
            false,
        );
        assert_eq!(out.evicted, vec![(w, 6 * MIB)]);
        assert_eq!(out.resident_bytes, 8 * MIB);
    }

    #[test]
    fn weight_footprints_track_model_scale() {
        let bytes = |k: ModelKind| model_weight_bytes(&ModelConfig::for_kind(k), 1.5);
        // MLD is a small latent transformer; Stable Diffusion and DiT are
        // orders of magnitude heavier — and SD exceeds a 64 MiB GSC while
        // MLD fits many times over.
        assert!(bytes(ModelKind::Mld) < 16 * MIB);
        assert!(bytes(ModelKind::StableDiffusion) > 64 * MIB);
        assert!(bytes(ModelKind::Dit) > bytes(ModelKind::StableDiffusion));
    }

    #[test]
    fn latent_state_is_small_relative_to_weights() {
        for kind in ModelKind::ALL {
            let model = ModelConfig::for_kind(kind);
            let latent = latent_state_bytes(&model, 1.5);
            let weights = model_weight_bytes(&model, 1.5);
            assert!(latent > 0, "{}", kind.name());
            assert!(latent * 10 < weights, "{}", kind.name());
        }
    }
}
