//! Aggregate statistics over a finished fleet run.
//!
//! All reductions are performed sequentially in device order, so a fleet
//! report is bit-identical regardless of how many worker threads produced
//! the per-device results.
//!
//! There is one reduction path, [`reduce_blocks`]: the streaming runner
//! folds each finished device block into a [`BlockSummary`] on the worker
//! that simulated it — no 10⁶-element result vector, no unbounded
//! latency-sample concatenation — and merges the summaries in block
//! order, and [`aggregate`] reduces a materialised `Vec<DeviceResult>` as
//! one block whose latency sketch keeps every sample.  Per-device energy
//! and lifetime percentiles stay exact at every fleet size (two `f64`s
//! per device); delivery-latency statistics come from an
//! order-independent bottom-k sketch that is exact while the fleet's
//! sample count fits its capacity and a uniform-sample estimate beyond
//! it, with a property test pinning the small-N case against the exact
//! computation.

use crate::faults::Verdict;
use crate::run::{DeviceResult, PolicyOutcome};
use std::collections::BTreeMap;

/// Upper edges (in percent) of the battery-impact histogram buckets; one
/// extra bucket catches everything above the last edge.  The paper's
/// headline claim is that every app stays below 0.5 %, so the edges
/// concentrate resolution there.
pub const BATTERY_IMPACT_BUCKET_EDGES: [f64; 7] = [0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0];

/// The nearest-rank percentile of an ascending-sorted sample set
/// (0.0 for an empty one) — the one percentile definition every fleet
/// statistic uses.
fn nearest_rank(sorted: &[f64], percent: f64) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    sorted[((percent / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1]
}

/// Distribution statistics of per-device energy, in joules.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EnergyStats {
    /// Sum over all devices.
    pub total_joules: f64,
    /// Mean per device.
    pub mean_joules: f64,
    /// Median (nearest-rank) per device.
    pub p50_joules: f64,
    /// 99th percentile (nearest-rank) per device.
    pub p99_joules: f64,
}

impl EnergyStats {
    fn from_sorted(values: &[f64]) -> Self {
        let total: f64 = values.iter().sum();
        EnergyStats {
            total_joules: total,
            mean_joules: total / values.len().max(1) as f64,
            p50_joules: nearest_rank(values, 50.0),
            p99_joules: nearest_rank(values, 99.0),
        }
    }
}

/// Distribution statistics of per-event delivery latency, in virtual
/// milliseconds, over every dispatched trace event of every device.
/// All-zero when the run had no clock ([`TimeMode::ArrivalOrder`]).
///
/// [`TimeMode::ArrivalOrder`]: crate::scenario::TimeMode::ArrivalOrder
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencyStats {
    /// Latency samples observed (dispatched trace events).
    pub events: u64,
    /// Mean latency.
    pub mean_ms: f64,
    /// Median (nearest-rank) latency.
    pub p50_ms: f64,
    /// 99th-percentile (nearest-rank) latency.
    pub p99_ms: f64,
    /// Worst latency observed.
    pub max_ms: f64,
}

impl LatencyStats {
    /// Reduces raw samples (concatenated in device order — the order is
    /// deterministic, and sorting makes the statistics order-free anyway).
    fn from_samples(mut samples: Vec<f64>) -> Self {
        if samples.is_empty() {
            return LatencyStats::default();
        }
        samples.sort_by(f64::total_cmp);
        let n = samples.len();
        LatencyStats {
            events: n as u64,
            mean_ms: samples.iter().sum::<f64>() / n as f64,
            p50_ms: nearest_rank(&samples, 50.0),
            p99_ms: nearest_rank(&samples, 99.0),
            max_ms: samples[n - 1],
        }
    }
}

/// The fleet-wide reduction of one delivery policy's outcomes.
///
/// The time-stepped fields (`idle_joules` through `battery_weeks_p50`)
/// are zero under [`TimeMode::ArrivalOrder`], which has no clock.
///
/// [`TimeMode::ArrivalOrder`]: crate::scenario::TimeMode::ArrivalOrder
#[derive(Clone, Debug, PartialEq)]
pub struct PolicyAggregate {
    /// Total cycles across the fleet.
    pub total_cycles: u64,
    /// Total switch cycles across the fleet.
    pub switch_cycles: u64,
    /// Share of all cycles spent switching (0..1).
    pub switch_overhead_share: f64,
    /// Switch cycles per delivered event — the fair cross-policy metric,
    /// since batched delivery also coalesces timer re-arms and therefore
    /// delivers fewer events over the same trace.
    pub switch_cycles_per_event: f64,
    /// Total events delivered.
    pub events_delivered: u64,
    /// Total faults.
    pub faults: u64,
    /// Total full directed switches.
    pub full_switches: u64,
    /// Total intra-batch boundaries.
    pub batch_boundaries: u64,
    /// Per-device (active) energy distribution.
    pub energy: EnergyStats,
    /// Total LPM (sleep) energy across the fleet, in joules.
    pub idle_joules: f64,
    /// Idle energy as a share of all energy (0..1): idle / (active+idle).
    pub idle_energy_share: f64,
    /// Fleet duty cycle (0..1): total active seconds over total virtual
    /// seconds.
    pub duty_cycle: f64,
    /// Delivery-latency distribution over every dispatched trace event.
    pub delivery_latency: LatencyStats,
    /// Stamped trace events the final flush delivered after the trace
    /// horizon, fleet-wide — delivered, but excluded from
    /// `delivery_latency` because their latency measures where the finite
    /// trace stopped rather than the delivery policy (DESIGN §6).
    pub truncated_events: u64,
    /// Median (nearest-rank) per-device battery-lifetime projection, in
    /// weeks.
    pub battery_weeks_p50: f64,
}

/// The order-sensitive running fold of one policy's outcomes, finished
/// by [`reduce_blocks`].  Scalars accumulate in device order;
/// per-device energies and lifetimes are kept (two `f64`s per device) so
/// their percentiles are exact at every fleet size.
#[derive(Clone, Debug, Default)]
struct PolicyFold {
    total_cycles: u64,
    switch_cycles: u64,
    events_delivered: u64,
    faults: u64,
    full_switches: u64,
    batch_boundaries: u64,
    truncated_events: u64,
    idle_joules: f64,
    active_seconds: f64,
    virtual_seconds: f64,
    energies: Vec<f64>,
    battery_weeks: Vec<f64>,
}

impl PolicyFold {
    /// An empty fold with room for `devices` per-device values.
    fn with_capacity(devices: usize) -> Self {
        PolicyFold {
            energies: Vec::with_capacity(devices),
            battery_weeks: Vec::with_capacity(devices),
            ..PolicyFold::default()
        }
    }

    fn add(&mut self, o: &PolicyOutcome) {
        self.total_cycles += o.total_cycles;
        self.switch_cycles += o.switch_cycles;
        self.events_delivered += o.events_delivered;
        self.faults += o.faults;
        self.full_switches += o.full_switches;
        self.batch_boundaries += o.batch_boundaries;
        self.truncated_events += o.truncated_events;
        self.idle_joules += o.idle_joules;
        self.active_seconds += o.active_seconds;
        self.virtual_seconds += o.virtual_seconds;
        self.energies.push(o.energy_joules);
        self.battery_weeks.push(o.battery_weeks);
    }

    /// Merges a later block's fold onto this one (block order = device
    /// order, so the concatenated per-device vectors stay in device
    /// order).
    fn merge(&mut self, later: &PolicyFold) {
        self.total_cycles += later.total_cycles;
        self.switch_cycles += later.switch_cycles;
        self.events_delivered += later.events_delivered;
        self.faults += later.faults;
        self.full_switches += later.full_switches;
        self.batch_boundaries += later.batch_boundaries;
        self.truncated_events += later.truncated_events;
        self.idle_joules += later.idle_joules;
        self.active_seconds += later.active_seconds;
        self.virtual_seconds += later.virtual_seconds;
        self.energies.extend_from_slice(&later.energies);
        self.battery_weeks.extend_from_slice(&later.battery_weeks);
    }

    fn finish(mut self, delivery_latency: LatencyStats) -> PolicyAggregate {
        self.energies.sort_by(f64::total_cmp);
        let energy = EnergyStats::from_sorted(&self.energies);
        let switch_overhead_share = if self.total_cycles == 0 {
            0.0
        } else {
            self.switch_cycles as f64 / self.total_cycles as f64
        };
        let switch_cycles_per_event = if self.events_delivered == 0 {
            0.0
        } else {
            self.switch_cycles as f64 / self.events_delivered as f64
        };
        let all_joules = energy.total_joules + self.idle_joules;
        let idle_energy_share = if all_joules > 0.0 {
            self.idle_joules / all_joules
        } else {
            0.0
        };
        let duty_cycle = if self.virtual_seconds > 0.0 {
            self.active_seconds / self.virtual_seconds
        } else {
            0.0
        };
        self.battery_weeks.sort_by(f64::total_cmp);
        let battery_weeks_p50 = nearest_rank(&self.battery_weeks, 50.0);
        PolicyAggregate {
            total_cycles: self.total_cycles,
            switch_cycles: self.switch_cycles,
            switch_overhead_share,
            switch_cycles_per_event,
            events_delivered: self.events_delivered,
            faults: self.faults,
            full_switches: self.full_switches,
            batch_boundaries: self.batch_boundaries,
            energy,
            idle_joules: self.idle_joules,
            idle_energy_share,
            duty_cycle,
            delivery_latency,
            truncated_events: self.truncated_events,
            battery_weeks_p50,
        }
    }
}

/// Capacity of the streaming runner's delivery-latency sketch:
/// statistics are **exact** while a leg's fleet-wide sample count fits,
/// and a deterministic uniform-sample estimate beyond it.
const LATENCY_SKETCH_K: usize = 2048;

/// SplitMix64 finalizer over a sample's identity, giving every latency
/// sample a pseudo-random priority that depends only on *which* sample it
/// is — never on which worker or block produced it.
fn sample_priority(device: u64, seq: u32) -> u64 {
    let mut z = device
        .wrapping_mul(0xA076_1D64_78BD_642F)
        .wrapping_add((seq as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An order-independent bottom-k sample sketch of delivery latencies.
///
/// Every sample gets a deterministic priority hashed from its identity
/// (global device index, per-device sample sequence); the sketch keeps
/// the `k` smallest-priority samples.  "Keep the k smallest of a set" is
/// associative, commutative and duplicate-free (priorities are unique per
/// leg because ties break on the identity itself), so any merge order —
/// any worker count, any block claim order — retains exactly the same
/// sample set.  While the total count fits `k` the retained set is *all*
/// samples and the finished statistics are exact; beyond `k` the retained
/// set is a uniform random sample and the statistics are estimates
/// (`events` and `max_ms` stay exact — they are order-free scalars).
#[derive(Clone, Debug)]
struct LatencySketch {
    /// `k`: [`LATENCY_SKETCH_K`], or `usize::MAX` for a sketch that keeps
    /// every sample.  A merge keeps the larger of the two.
    capacity: usize,
    /// Retained `(priority, device, seq, value)` entries; pruned to the
    /// `k` smallest `(priority, device, seq)` whenever it overflows.
    entries: Vec<(u64, u64, u32, f64)>,
    /// Total samples observed (not just retained).
    count: u64,
    /// Worst latency observed (over all samples).
    max_ms: f64,
}

impl Default for LatencySketch {
    fn default() -> Self {
        Self::with_capacity(LATENCY_SKETCH_K)
    }
}

impl LatencySketch {
    fn with_capacity(capacity: usize) -> Self {
        LatencySketch {
            capacity,
            entries: Vec::new(),
            count: 0,
            max_ms: 0.0,
        }
    }

    fn push(&mut self, device: u64, seq: u32, value: f64) {
        self.count += 1;
        self.max_ms = self.max_ms.max(value);
        self.entries
            .push((sample_priority(device, seq), device, seq, value));
        if self.entries.len() >= self.capacity.saturating_mul(2) {
            self.prune();
        }
    }

    fn prune(&mut self) {
        if self.entries.len() > self.capacity {
            self.entries
                .sort_unstable_by_key(|&(pri, dev, seq, _)| (pri, dev, seq));
            self.entries.truncate(self.capacity);
        }
    }

    /// Folds a later (or earlier — order does not matter) sketch in.
    fn merge(&mut self, other: &LatencySketch) {
        self.capacity = self.capacity.max(other.capacity);
        self.count += other.count;
        self.max_ms = self.max_ms.max(other.max_ms);
        self.entries.extend_from_slice(&other.entries);
        self.prune();
    }

    /// Finishes the sketch into [`LatencyStats`].
    fn finish(mut self) -> LatencyStats {
        self.prune();
        if self.count == 0 {
            return LatencyStats::default();
        }
        let retained: Vec<f64> = self.entries.iter().map(|&(_, _, _, v)| v).collect();
        if self.count <= retained.len() as u64 {
            // Every sample was retained: identical to the exact
            // computation, sorted-sum mean included.
            return LatencyStats::from_samples(retained);
        }
        let estimate = LatencyStats::from_samples(retained);
        LatencyStats {
            events: self.count,
            mean_ms: estimate.mean_ms,
            p50_ms: estimate.p50_ms,
            p99_ms: estimate.p99_ms,
            max_ms: self.max_ms,
        }
    }
}

/// The streamed reduction of one finished device block: order-free
/// scalar partials, two per-device `f64`s, and the latency sketches —
/// everything [`reduce_blocks`] needs, nothing that grows with the
/// block's event count.  Workers fold each block into its summary as soon
/// as the block finishes, so a 10⁶-device campaign never materialises
/// 10⁶ `DeviceResult`s.
#[derive(Clone, Debug, Default)]
pub struct BlockSummary {
    devices: usize,
    per_event: PolicyFold,
    batched: PolicyFold,
    per_event_latency: LatencySketch,
    batched_latency: LatencySketch,
    per_platform: BTreeMap<String, u64>,
    per_method: BTreeMap<String, u64>,
    histograms: BTreeMap<String, ProfileHistogram>,
    containment: ContainmentMap,
    ota: OtaWaveStats,
}

impl BlockSummary {
    /// Folds a finished block's results (in device order) into a summary.
    pub fn from_devices(devices: &[DeviceResult]) -> Self {
        Self::fold(devices.iter().map(|d| (d.index, d)))
    }

    /// [`BlockSummary::from_devices`] over `(index, result)` pairs in
    /// device order, each result standing for device `index` whatever its
    /// own `index` field says — so a silent device folds straight from its
    /// config's shared template.  Once a block has seen a device's
    /// platform, method and profiles, folding a fault-free device
    /// allocates nothing.
    pub(crate) fn fold<'a>(
        devices: impl ExactSizeIterator<Item = (usize, &'a DeviceResult)>,
    ) -> Self {
        Self::fold_keeping(devices, LATENCY_SKETCH_K)
    }

    /// [`BlockSummary::fold`] with latency sketches that retain up to
    /// `samples` samples per leg.
    fn fold_keeping<'a>(
        devices: impl ExactSizeIterator<Item = (usize, &'a DeviceResult)>,
        samples: usize,
    ) -> Self {
        let mut s = BlockSummary {
            devices: devices.len(),
            per_event: PolicyFold::with_capacity(devices.len()),
            batched: PolicyFold::with_capacity(devices.len()),
            per_event_latency: LatencySketch::with_capacity(samples),
            batched_latency: LatencySketch::with_capacity(samples),
            ..BlockSummary::default()
        };
        for (index, d) in devices {
            s.per_event.add(&d.per_event);
            s.batched.add(&d.batched);
            for (seq, v) in d.per_event_latencies_ms.iter().enumerate() {
                s.per_event_latency.push(index as u64, seq as u32, *v);
            }
            for (seq, v) in d.batched_latencies_ms.iter().enumerate() {
                s.batched_latency.push(index as u64, seq as u32, *v);
            }
            count_in(&mut s.per_platform, &d.platform);
            count_in(&mut s.per_method, d.method.label());
            for (profile, impact) in &d.battery_impacts {
                bucket_impact(&mut s.histograms, profile, *impact);
            }
            record_fault(&mut s.containment, d);
            s.ota.record(d);
        }
        s.per_event_latency.prune();
        s.batched_latency.prune();
        s
    }
}

/// Counts one occurrence of `key`, allocating only for a new key.
fn count_in(map: &mut BTreeMap<String, u64>, key: &str) {
    match map.get_mut(key) {
        Some(count) => *count += 1,
        None => {
            map.insert(key.to_string(), 1);
        }
    }
}

/// Records one (device, app) battery impact in the per-profile histogram
/// map.
fn bucket_impact(histograms: &mut BTreeMap<String, ProfileHistogram>, profile: &str, impact: f64) {
    if !histograms.contains_key(profile) {
        histograms.insert(
            profile.to_string(),
            ProfileHistogram {
                profile: profile.to_string(),
                instances: 0,
                max_impact_percent: 0.0,
                buckets: vec![0; BATTERY_IMPACT_BUCKET_EDGES.len() + 1],
            },
        );
    }
    let h = histograms
        .get_mut(profile)
        .expect("the profile's histogram was just ensured");
    h.instances += 1;
    h.max_impact_percent = h.max_impact_percent.max(impact);
    let bucket = BATTERY_IMPACT_BUCKET_EDGES
        .iter()
        .position(|edge| impact <= *edge)
        .unwrap_or(BATTERY_IMPACT_BUCKET_EDGES.len());
    h.buckets[bucket] += 1;
}

/// Reduces block summaries (must be in block order) to the fleet
/// aggregate.  For a single block the result is identical to
/// [`aggregate`] over the block's devices, latency statistics included
/// while the sample count fits the sketch (the equivalence property test
/// pins both).
pub fn reduce_blocks(blocks: &[BlockSummary]) -> FleetAggregate {
    let mut devices = 0usize;
    let mut per_event = PolicyFold::default();
    let mut batched = PolicyFold::default();
    let mut per_event_latency = LatencySketch::default();
    let mut batched_latency = LatencySketch::default();
    let mut per_platform: BTreeMap<String, u64> = BTreeMap::new();
    let mut per_method: BTreeMap<String, u64> = BTreeMap::new();
    let mut histograms: BTreeMap<String, ProfileHistogram> = BTreeMap::new();
    let mut containment = ContainmentMap::new();
    let mut ota = OtaWaveStats::default();
    for b in blocks {
        devices += b.devices;
        per_event.merge(&b.per_event);
        batched.merge(&b.batched);
        per_event_latency.merge(&b.per_event_latency);
        batched_latency.merge(&b.batched_latency);
        merge_containment(&mut containment, &b.containment);
        ota.merge(&b.ota);
        for (k, v) in &b.per_platform {
            *per_platform.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &b.per_method {
            *per_method.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &b.histograms {
            let into = histograms
                .entry(k.clone())
                .or_insert_with(|| ProfileHistogram {
                    profile: h.profile.clone(),
                    instances: 0,
                    max_impact_percent: 0.0,
                    buckets: vec![0; BATTERY_IMPACT_BUCKET_EDGES.len() + 1],
                });
            into.instances += h.instances;
            into.max_impact_percent = into.max_impact_percent.max(h.max_impact_percent);
            for (b, add) in into.buckets.iter_mut().zip(&h.buckets) {
                *b += add;
            }
        }
    }
    let per_event = per_event.finish(per_event_latency.finish());
    let batched = batched.finish(batched_latency.finish());
    let saved = per_event
        .switch_cycles
        .saturating_sub(batched.switch_cycles);
    FleetAggregate {
        devices,
        devices_per_platform: per_platform.into_iter().collect(),
        devices_per_method: per_method.into_iter().collect(),
        switch_cycles_saved_percent: if per_event.switch_cycles == 0 {
            0.0
        } else {
            saved as f64 / per_event.switch_cycles as f64 * 100.0
        },
        switch_cycles_saved_per_event_percent: if per_event.switch_cycles_per_event <= 0.0 {
            0.0
        } else {
            (per_event.switch_cycles_per_event - batched.switch_cycles_per_event).max(0.0)
                / per_event.switch_cycles_per_event
                * 100.0
        },
        per_event,
        batched,
        battery_histograms: histograms.into_values().collect(),
        containment: finish_containment(containment),
        ota_wave: ota,
    }
}

/// A battery-impact histogram for one ARP profile across every fleet
/// device that carried it.
#[derive(Clone, Debug, PartialEq)]
pub struct ProfileHistogram {
    /// Profile (application) name.
    pub profile: String,
    /// Number of (device, app) instances observed.
    pub instances: u64,
    /// Worst impact observed, in percent.
    pub max_impact_percent: f64,
    /// Counts per bucket: `buckets[i]` counts impacts ≤
    /// [`BATTERY_IMPACT_BUCKET_EDGES`]`[i]`; the final entry counts the
    /// rest.
    pub buckets: Vec<u64>,
}

/// One cell row of the containment matrix: every device of one
/// `(platform, method, attack)` combination, with its verdict counts.
/// The five counters partition `devices` — each probed device gets
/// exactly one verdict.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ContainmentRow {
    /// Platform profile name.
    pub platform: String,
    /// Isolation-method label.
    pub method: String,
    /// Attack label (the adapted [`amulet_apps::FaultKind`]).
    pub fault: String,
    /// Armed devices in this cell.
    pub devices: u64,
    /// Probes trapped by memory-protection hardware.
    pub caught_by_mpu: u64,
    /// Probes refused by compiled-in software checks.
    pub caught_by_software: u64,
    /// Probes that ran to completion — the attack landed.
    pub escaped: u64,
    /// Probes the OS watchdog cut off.
    pub hung: u64,
    /// Probes that crashed on non-protection hardware.
    pub crashed: u64,
}

/// The containment matrix under accumulation: verdict counts per
/// `(platform, method, attack)` cell.  A `BTreeMap` so iteration — and
/// therefore the finished row order — is deterministic.
pub(crate) type ContainmentMap = BTreeMap<(String, String, String), [u64; 5]>;

/// Folds one device's probe verdict (if any) into the containment map.
pub(crate) fn record_fault(map: &mut ContainmentMap, d: &DeviceResult) {
    if let Some(probe) = &d.fault {
        let key = (
            d.platform.clone(),
            d.method.label().to_string(),
            probe.kind.label().to_string(),
        );
        map.entry(key).or_insert([0; 5])[probe.verdict.index()] += 1;
    }
}

/// Merges a later containment map into an earlier one (additive, so any
/// block order gives the same matrix).
pub(crate) fn merge_containment(into: &mut ContainmentMap, later: &ContainmentMap) {
    for (key, counts) in later {
        let cell = into.entry(key.clone()).or_insert([0; 5]);
        for (c, add) in cell.iter_mut().zip(counts) {
            *c += add;
        }
    }
}

/// Finishes the containment map into name-sorted matrix rows.
pub(crate) fn finish_containment(map: ContainmentMap) -> Vec<ContainmentRow> {
    map.into_iter()
        .map(|((platform, method, fault), c)| ContainmentRow {
            platform,
            method,
            fault,
            devices: c.iter().sum(),
            caught_by_mpu: c[Verdict::CaughtByMpu.index()],
            caught_by_software: c[Verdict::CaughtBySoftware.index()],
            escaped: c[Verdict::Escaped.index()],
            hung: c[Verdict::Hung.index()],
            crashed: c[Verdict::Crashed.index()],
        })
        .collect()
}

/// The fleet-wide reduction of the OTA wave: how the swept devices' OTA
/// transactions ended.  `installed + rolled_back == devices` always —
/// `bricked` counts the impossible third state so reports can prove it
/// stays zero.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OtaWaveStats {
    /// Devices the wave swept.
    pub devices: u64,
    /// Devices whose re-install verified and was accepted.
    pub installed: u64,
    /// Devices that exhausted their retries and kept the running image.
    pub rolled_back: u64,
    /// Devices that ended neither installed nor rolled back (always 0).
    pub bricked: u64,
    /// Devices that needed more than one delivery attempt.
    pub retried_devices: u64,
    /// Total delivery attempts across the wave.
    pub attempts: u64,
    /// Attempts the envelope verification rejected.
    pub corrupt_attempts: u64,
    /// Total seeded retry backoff across the wave, in milliseconds.
    pub backoff_ms: u64,
}

impl OtaWaveStats {
    /// Folds one device's OTA outcome (if any) in.
    pub(crate) fn record(&mut self, d: &DeviceResult) {
        if let Some(ota) = &d.ota {
            self.devices += 1;
            self.installed += u64::from(ota.installed);
            self.rolled_back += u64::from(ota.rolled_back);
            self.bricked += u64::from(ota.bricked());
            self.retried_devices += u64::from(ota.attempts > 1);
            self.attempts += u64::from(ota.attempts);
            self.corrupt_attempts += u64::from(ota.corrupt_attempts);
            self.backoff_ms += ota.backoff_ms;
        }
    }

    /// Merges a later block's wave stats in (additive).
    pub(crate) fn merge(&mut self, later: &OtaWaveStats) {
        self.devices += later.devices;
        self.installed += later.installed;
        self.rolled_back += later.rolled_back;
        self.bricked += later.bricked;
        self.retried_devices += later.retried_devices;
        self.attempts += later.attempts;
        self.corrupt_attempts += later.corrupt_attempts;
        self.backoff_ms += later.backoff_ms;
    }
}

/// The complete aggregate of a fleet run.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetAggregate {
    /// Number of devices simulated.
    pub devices: usize,
    /// Devices per platform profile, name-sorted.
    pub devices_per_platform: Vec<(String, u64)>,
    /// Devices per isolation method, label-sorted.
    pub devices_per_method: Vec<(String, u64)>,
    /// Reduction of the per-event (baseline) leg.
    pub per_event: PolicyAggregate,
    /// Reduction of the batched leg.
    pub batched: PolicyAggregate,
    /// How much switch work batching saved, in percent of the per-event
    /// leg's switch cycles (raw totals; note the legs deliver different
    /// event counts because batching coalesces timer re-arms).
    pub switch_cycles_saved_percent: f64,
    /// How much switch work batching saved **per delivered event**, in
    /// percent — the normalized comparison.
    pub switch_cycles_saved_per_event_percent: f64,
    /// Battery-lifetime impact histograms, one per ARP profile, name-sorted.
    pub battery_histograms: Vec<ProfileHistogram>,
    /// The containment matrix: verdict counts per `(platform, method,
    /// attack)` cell, name-sorted.  Empty when the scenario armed no
    /// faults.
    pub containment: Vec<ContainmentRow>,
    /// The OTA wave reduction (all-zero when the scenario swept nothing).
    pub ota_wave: OtaWaveStats,
}

/// Reduces per-device results (must be in device order) to the
/// aggregate: [`reduce_blocks`] over one block whose latency sketches keep
/// every sample, so every statistic is exact.
pub fn aggregate(devices: &[DeviceResult]) -> FleetAggregate {
    reduce_blocks(&[BlockSummary::fold_keeping(
        devices.iter().map(|d| (d.index, d)),
        usize::MAX,
    )])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(cycles: u64, switch: u64, energy: f64) -> PolicyOutcome {
        PolicyOutcome {
            total_cycles: cycles,
            switch_cycles: switch,
            app_cycles: cycles - switch,
            service_cycles: 0,
            events_delivered: 10,
            syscalls: 5,
            faults: 0,
            full_switches: 20,
            batch_boundaries: 0,
            energy_joules: energy,
            idle_joules: 0.0,
            virtual_seconds: 0.0,
            active_seconds: 0.0,
            battery_weeks: 0.0,
            truncated_events: 0,
        }
    }

    fn device(index: usize, energy: f64) -> DeviceResult {
        DeviceResult {
            index,
            platform: "msp430fr5969".into(),
            method: amulet_core::method::IsolationMethod::Mpu,
            app_names: vec!["Clock".into()],
            per_event: outcome(1000, 400, energy),
            batched: outcome(900, 300, energy * 0.9),
            battery_impacts: vec![("Clock".into(), 0.003)],
            per_event_latencies_ms: Vec::new(),
            batched_latencies_ms: Vec::new(),
            fault: None,
            ota: None,
        }
    }

    #[test]
    fn percentiles_use_nearest_rank_on_sorted_energies() {
        let devices: Vec<DeviceResult> = (0..100).map(|i| device(i, (i + 1) as f64)).collect();
        let agg = aggregate(&devices);
        assert_eq!(agg.per_event.energy.p50_joules, 50.0);
        assert_eq!(agg.per_event.energy.p99_joules, 99.0);
        assert_eq!(agg.per_event.energy.total_joules, 5050.0);
        assert_eq!(agg.per_event.energy.mean_joules, 50.5);
    }

    #[test]
    fn histograms_bucket_battery_impacts_per_profile() {
        let devices: Vec<DeviceResult> = (0..10).map(|i| device(i, 1.0)).collect();
        let agg = aggregate(&devices);
        assert_eq!(agg.battery_histograms.len(), 1);
        let h = &agg.battery_histograms[0];
        assert_eq!(h.profile, "Clock");
        assert_eq!(h.instances, 10);
        // 0.003 lands in the (0.001, 0.005] bucket.
        assert_eq!(h.buckets[1], 10);
        assert_eq!(h.buckets.iter().sum::<u64>(), 10);
        assert!(h.max_impact_percent > 0.0);
    }

    #[test]
    fn switch_savings_are_reported_in_percent() {
        let devices: Vec<DeviceResult> = (0..4).map(|i| device(i, 1.0)).collect();
        let agg = aggregate(&devices);
        // 400 → 300 switch cycles per device is a 25 % saving.
        assert_eq!(agg.switch_cycles_saved_percent, 25.0);
        assert!(agg.per_event.switch_overhead_share > agg.batched.switch_overhead_share);
    }

    #[test]
    fn empty_fleet_aggregates_to_zeroes() {
        let agg = aggregate(&[]);
        assert_eq!(agg.devices, 0);
        assert_eq!(agg.per_event.energy.total_joules, 0.0);
        assert_eq!(agg.switch_cycles_saved_percent, 0.0);
        assert_eq!(agg.per_event.delivery_latency, LatencyStats::default());
        assert_eq!(agg.per_event.idle_energy_share, 0.0);
        assert!(agg.containment.is_empty());
        assert_eq!(agg.ota_wave, OtaWaveStats::default());
    }

    #[test]
    fn containment_rows_partition_devices_by_verdict() {
        use crate::faults::{FaultProbe, OtaOutcome};
        use amulet_apps::FaultKind;
        let mut devices: Vec<DeviceResult> = (0..6).map(|i| device(i, 1.0)).collect();
        for (i, d) in devices.iter_mut().enumerate().take(4) {
            d.fault = Some(FaultProbe {
                kind: FaultKind::WildWriteOsRam,
                verdict: if i == 0 {
                    Verdict::Escaped
                } else {
                    Verdict::CaughtByMpu
                },
            });
        }
        devices[4].fault = Some(FaultProbe {
            kind: FaultKind::RunawayLoop,
            verdict: Verdict::Hung,
        });
        devices[5].ota = Some(OtaOutcome {
            install_at_ms: 10,
            attempts: 3,
            corrupt_attempts: 2,
            installed: true,
            rolled_back: false,
            backoff_ms: 750,
        });
        let agg = aggregate(&devices);
        assert_eq!(agg.containment.len(), 2, "two distinct cells");
        let wild = agg
            .containment
            .iter()
            .find(|r| r.fault == "wild-write-os-ram")
            .unwrap();
        assert_eq!((wild.devices, wild.caught_by_mpu, wild.escaped), (4, 3, 1));
        assert_eq!(wild.caught_by_software + wild.hung + wild.crashed, 0);
        assert_eq!(wild.platform, "msp430fr5969");
        assert_eq!(wild.method, "MPU");
        let runaway = agg
            .containment
            .iter()
            .find(|r| r.fault == "runaway-loop")
            .unwrap();
        assert_eq!((runaway.devices, runaway.hung), (1, 1));
        let w = &agg.ota_wave;
        assert_eq!(
            (w.devices, w.installed, w.rolled_back, w.bricked),
            (1, 1, 0, 0)
        );
        assert_eq!(
            (w.retried_devices, w.attempts, w.corrupt_attempts),
            (1, 3, 2)
        );
        assert_eq!(w.backoff_ms, 750);

        // The streaming path folds the same devices to the same matrix,
        // however the blocks are cut.
        let split = [
            BlockSummary::from_devices(&devices[..3]),
            BlockSummary::from_devices(&devices[3..]),
        ];
        assert_eq!(reduce_blocks(&split), agg);
    }

    #[test]
    fn stepped_fields_reduce_across_devices() {
        let mut devices: Vec<DeviceResult> = (0..4).map(|i| device(i, 1.0)).collect();
        for (i, d) in devices.iter_mut().enumerate() {
            d.per_event.idle_joules = 2.0;
            d.per_event.active_seconds = 1.0;
            d.per_event.virtual_seconds = 10.0;
            d.per_event.battery_weeks = (i + 1) as f64;
            d.per_event_latencies_ms = vec![i as f64, 100.0];
        }
        let agg = aggregate(&devices);
        let p = &agg.per_event;
        assert_eq!(p.idle_joules, 8.0);
        // 8 J idle against 4 J active (4 devices × 1 J).
        assert!((p.idle_energy_share - 8.0 / 12.0).abs() < 1e-12);
        assert!((p.duty_cycle - 0.1).abs() < 1e-12);
        // Samples: [0,100, 1,100, 2,100, 3,100] → p50 = 4th of 8 = 3.
        assert_eq!(p.delivery_latency.events, 8);
        assert_eq!(p.delivery_latency.p50_ms, 3.0);
        assert_eq!(p.delivery_latency.p99_ms, 100.0);
        assert_eq!(p.delivery_latency.max_ms, 100.0);
        // Battery weeks [1,2,3,4] → nearest-rank p50 = 2.
        assert_eq!(p.battery_weeks_p50, 2.0);
        // The untouched batched leg stays all-zero.
        assert_eq!(agg.batched.delivery_latency, LatencyStats::default());
        assert_eq!(agg.batched.duty_cycle, 0.0);
    }
}
