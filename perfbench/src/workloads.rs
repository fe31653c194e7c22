//! The three named fleet workloads and their pinned report digests.
//!
//! Each workload is a `FleetScenario` preset at a fixed device count; the
//! benchmark's `--seed` replaces the preset's seed verbatim, so the same
//! seed always simulates the same fleet.  None of them arms `verify`,
//! `elide_checks`, `fuse` or an on-disk store: every workload measures the
//! shipping defaults.

use amulet_fleet::{FleetScenario, TimeMode};

/// A named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The default mixed fleet, time-stepped, 120 events per device, no
    /// silent devices: execution-bound (interpreter, bus, OS delivery).
    Dense,
    /// The scaling preset: 6 events, 80 % silent, subscription-only apps.
    /// Bound by per-device fixed cost (config derivation, calendar
    /// planning, silent-outcome reuse, boot and flush, block fold).
    Scaling,
    /// The fault-storm preset: adversarial probes, watchdog backoff and
    /// quarantine, OTA envelope encode/verify.  Set-up heavy (many
    /// distinct images); silent-outcome reuse never fires.
    Storm,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::Dense, Workload::Scaling, Workload::Storm];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Dense => "dense",
            Workload::Scaling => "scaling",
            Workload::Storm => "storm",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The preset's own seed.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::Dense => 0xF1EE7,
            Workload::Scaling => 0x5CA1E,
            Workload::Storm => 0x57_0421,
        }
    }

    /// The seed a performance claim must also hold on: never used while
    /// tuning a change.
    pub fn held_out_seed(self) -> u64 {
        match self {
            Workload::Dense => 0xD0_0D1E,
            Workload::Scaling => 0x5CA1_0B5E,
            Workload::Storm => 0x57_0B5E,
        }
    }

    /// Devices simulated per campaign: the run length.
    pub fn devices(self) -> usize {
        match self {
            Workload::Dense => 250,
            Workload::Scaling => 50_000,
            Workload::Storm => 5_000,
        }
    }

    /// The workload's scenario at `seed` and `devices`.
    pub fn scenario(self, seed: u64, devices: usize) -> FleetScenario {
        let base = match self {
            Workload::Dense => FleetScenario {
                time_mode: TimeMode::Stepped,
                ..FleetScenario::default()
            },
            Workload::Scaling => FleetScenario::scaling(devices),
            Workload::Storm => FleetScenario::storm(devices),
        };
        FleetScenario {
            seed,
            devices,
            ..base
        }
    }
}

/// The FNV-1a64 digest of the deterministic report document
/// (`render_document` with no timing, scaling or store sections) pinned
/// for `(workload, seed, devices)`, when one is recorded.  Regenerate a
/// row with `perfbench --digest --workload W --seed S`.
pub fn pinned_digest(workload: Workload, seed: u64, devices: usize) -> Option<u64> {
    PINS.iter()
        .find(|(w, s, d, _)| *w == workload.name() && *s == seed && *d == devices)
        .map(|&(_, _, _, digest)| digest)
}

/// `(workload, seed, devices, digest)`.
const PINS: &[(&str, u64, usize, u64)] = &[
    ("dense", 0xf1ee7, 250, 0x1f0a9b1c012016e4),
    ("dense", 0xd00d1e, 250, 0xecb3fe3a3c797176),
    ("dense", 0x0, 250, 0xffc10b235fbbd64a),
    ("dense", 0x1, 250, 0x144c77fe21a0b717),
    ("dense", 0x2, 250, 0x16f5bb2c770949e7),
    ("dense", 0x3, 250, 0x115459645962b545),
    ("dense", 0x4, 250, 0xd59405b894543eeb),
    ("dense", 0x5, 250, 0xfff263866bdfeb69),
    ("dense", 0x6, 250, 0xd8146dcc5b55af1f),
    ("dense", 0x7, 250, 0xf2f2fd10f6e25fb4),
    ("dense", 0x8, 250, 0x4ed8d411f76c9c8d),
    ("dense", 0x9, 250, 0xf5aaa0c734e6b1ac),
    ("dense", 0xa, 250, 0x046d1d3c096b559b),
    ("dense", 0xb, 250, 0x110ce850ab2101fe),
    ("dense", 0xc, 250, 0x20999fddc76e2820),
    ("dense", 0xd, 250, 0x045068335bb70d38),
    ("dense", 0xe, 250, 0x56cd6b51e53a883f),
    ("dense", 0xf, 250, 0xd887ff7b3e4a6726),
    ("dense", 0x10, 250, 0x71399c87e9490e43),
    ("dense", 0x11, 250, 0x83dea9b24a61f2b8),
    ("dense", 0x12, 250, 0xa9a72ed004fbfb5e),
    ("dense", 0x13, 250, 0xbc9ac1821c7596a4),
    ("dense", 0x14, 250, 0x9d113f2bbb038fd6),
    ("dense", 0x15, 250, 0x33a1ff436da232e2),
    ("dense", 0x16, 250, 0x9d598f66744f56c0),
    ("dense", 0x17, 250, 0x251527b3d4e881f9),
    ("dense", 0x18, 250, 0x9ea10f4092dce092),
    ("dense", 0x19, 250, 0x1095bb1778aa28e0),
    ("dense", 0x1a, 250, 0xbda44924f337f893),
    ("dense", 0x1b, 250, 0x2fae0cab9173aa8b),
    ("dense", 0x1c, 250, 0xfdb11f7fb44477bb),
    ("dense", 0x1d, 250, 0xa03c6f9affea487c),
    ("dense", 0x1e, 250, 0x4d0a41cbdc53d694),
    ("dense", 0x1f, 250, 0x80c7659332b401a9),
    ("scaling", 0x5ca1e, 50000, 0xd0d8fa4a15b6b36e),
    ("scaling", 0x5ca10b5e, 50000, 0x9dd6c1c68e688b58),
    ("scaling", 0x0, 50000, 0xeacc2062c0861cbb),
    ("scaling", 0x1, 50000, 0x41c94491e7555f19),
    ("scaling", 0x2, 50000, 0x185fcfbb4a2ee4f2),
    ("scaling", 0x3, 50000, 0x246da70064d482c4),
    ("scaling", 0x4, 50000, 0x4eb50f2e1a8d772f),
    ("scaling", 0x5, 50000, 0x94ea674bf7c9b677),
    ("scaling", 0x6, 50000, 0x2563d8a5155ad021),
    ("scaling", 0x7, 50000, 0x4b5afb8f514478d7),
    ("scaling", 0x8, 50000, 0xaa0331c686dd2675),
    ("scaling", 0x9, 50000, 0x7a631f284537d0ec),
    ("scaling", 0xa, 50000, 0xf3d42daa81296bbd),
    ("scaling", 0xb, 50000, 0x75a81cc26948de9b),
    ("scaling", 0xc, 50000, 0x36e64d0cec3e1e35),
    ("scaling", 0xd, 50000, 0x04d0467cfde7ba46),
    ("scaling", 0xe, 50000, 0x61b2e19575753edc),
    ("scaling", 0xf, 50000, 0x0c1674712c395432),
    ("scaling", 0x10, 50000, 0x6991864b1532f05f),
    ("scaling", 0x11, 50000, 0xbcdfd8e27aba1a38),
    ("scaling", 0x12, 50000, 0xdfef97eaa1c9a9c6),
    ("scaling", 0x13, 50000, 0x59d5178fcdcc43af),
    ("scaling", 0x14, 50000, 0xf591d25360d3ecac),
    ("scaling", 0x15, 50000, 0x4af319962830493f),
    ("scaling", 0x16, 50000, 0x3fcc72a15136c064),
    ("scaling", 0x17, 50000, 0x1dc44ad64f3e4f62),
    ("scaling", 0x18, 50000, 0x0f194e280042bdcf),
    ("scaling", 0x19, 50000, 0x1565ec05f61a3a60),
    ("scaling", 0x1a, 50000, 0x18b51f3549ccd6c4),
    ("scaling", 0x1b, 50000, 0x7c24de977e74d046),
    ("scaling", 0x1c, 50000, 0xc887772b550c075b),
    ("scaling", 0x1d, 50000, 0xc0e5837542040929),
    ("scaling", 0x1e, 50000, 0xebd15bec04922619),
    ("scaling", 0x1f, 50000, 0x3a2fd5d8b8137d55),
    ("storm", 0x570421, 5000, 0x37c3300b45c2811f),
    ("storm", 0x570b5e, 5000, 0x204069d4710dacf8),
    ("storm", 0x0, 5000, 0x9c98d3244d4beabd),
    ("storm", 0x1, 5000, 0x3c33f6f42b21e18c),
    ("storm", 0x2, 5000, 0xddb3ba769b937180),
    ("storm", 0x3, 5000, 0x0ce9fb8090ba4daa),
    ("storm", 0x4, 5000, 0xfe9f83d1bb95b019),
    ("storm", 0x5, 5000, 0xf154b41d3356f9a9),
    ("storm", 0x6, 5000, 0xb568496270c8458d),
    ("storm", 0x7, 5000, 0xd08fdcb89c650c74),
    ("storm", 0x8, 5000, 0xc3d64ed07d5500ec),
    ("storm", 0x9, 5000, 0xe982d0a2b8f9e54d),
    ("storm", 0xa, 5000, 0x5596501db93e8d6f),
    ("storm", 0xb, 5000, 0x98dfba6592c26f7d),
    ("storm", 0xc, 5000, 0xbc21d3cf3ef9af69),
    ("storm", 0xd, 5000, 0xf8fc93b0a1a27d83),
    ("storm", 0xe, 5000, 0x16f3eb4b61b91337),
    ("storm", 0xf, 5000, 0x08ade2b14823fde1),
    ("storm", 0x10, 5000, 0x4819d6e06bc70789),
    ("storm", 0x11, 5000, 0xe6cb446236f26d6f),
    ("storm", 0x12, 5000, 0x93de48b8f7d41f12),
    ("storm", 0x13, 5000, 0x2825389abba3d064),
    ("storm", 0x14, 5000, 0xb5ae72bf9c3f059e),
    ("storm", 0x15, 5000, 0x37997317c2009be7),
    ("storm", 0x16, 5000, 0xb74515c187c10b19),
    ("storm", 0x17, 5000, 0xaa829f038c9622b2),
    ("storm", 0x18, 5000, 0xac914811bd96cf94),
    ("storm", 0x19, 5000, 0x802eaead51873a39),
    ("storm", 0x1a, 5000, 0xd774b8e3551c6b12),
    ("storm", 0x1b, 5000, 0x77ba6dbc8733e537),
    ("storm", 0x1c, 5000, 0x11fd04fde48655c1),
    ("storm", 0x1d, 5000, 0x62b68f67664016d6),
    ("storm", 0x1e, 5000, 0xf586e0703556bb0d),
    ("storm", 0x1f, 5000, 0x13be2aac222fafec),
];
