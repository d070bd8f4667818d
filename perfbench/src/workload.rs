//! Workload definitions, the seeded input generator and the output digest.
//!
//! A workload fixes a network and the `efm-compute` flags of one
//! operation. Its seed permutes the order of the terms on each side of
//! every reaction. That renumbers the metabolites (the parser numbers them
//! by first appearance), so every seed hands the program a different file
//! and a row-permuted stoichiometric matrix. The EFM set and the candidate
//! work stay those of the published order, so operations of different
//! seeds are comparable. Shuffling whole reaction lines also changes the
//! kernel's pivot columns: on Network I-lite six such shuffles took
//! 0.95–1.83 s per operation (1.2M–4.1M candidates), a spread across seeds
//! wider than any regression bound. README.md has the measurements.

use efm_core::EfmSet;
use efm_metnet::{format_reaction, MetabolicNetwork};

/// Which execution backend one operation runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    Serial,
    Rayon,
    /// The simulated cluster with two ranks.
    Cluster2,
}

/// The network a workload enumerates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Network {
    /// Network I-lite: Network I without R15 and R70 (`efm_bench::network_i`).
    ILite,
    /// Network II-lite without R56 (NADH oxidative phosphorylation).
    IILiteNoR56,
    /// The paper's Fig. 1 toy network (smoke mode).
    Toy,
}

/// One benchmark workload: the input and the flags of one operation.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub net: Network,
    pub backend: BackendKind,
    /// Snapshot engine state after every iteration (Algorithm 2 only).
    pub checkpoint: bool,
    /// Divide-and-conquer partition reactions (empty: no split).
    pub partition: &'static [&'static str],
    /// Resident budget of the stripe store, below the result size so
    /// finished subsets spill to disk and stream back at assembly.
    pub spill_budget: Option<u64>,
    /// EFM count every operation must produce.
    pub golden_count: usize,
    /// [`digest`] every operation must produce.
    pub golden_digest: u64,
}

const SPILL_BUDGET: u64 = 64 * 1024;

/// The three measured workloads. Goldens were established by agreement of
/// the serial, two-rank cluster and divide-and-conquer runs (README.md).
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "net1-serial",
        net: Network::ILite,
        backend: BackendKind::Serial,
        checkpoint: false,
        partition: &[],
        spill_budget: None,
        golden_count: 5194,
        golden_digest: 0x0b11_bd5e_d2af_8e5b,
    },
    Workload {
        name: "net1-cluster2-ckpt",
        net: Network::ILite,
        backend: BackendKind::Cluster2,
        checkpoint: true,
        partition: &[],
        spill_budget: None,
        golden_count: 5194,
        golden_digest: 0x0b11_bd5e_d2af_8e5b,
    },
    Workload {
        name: "net2-noR56-dnc4-rayon",
        net: Network::IILiteNoR56,
        backend: BackendKind::Rayon,
        checkpoint: false,
        // R74r is the paper's Table III choice; compression fixes R89r's
        // direction on this network, so R88r stands in for it.
        partition: &["R74r", "R88r"],
        spill_budget: Some(SPILL_BUDGET),
        golden_count: 17_871,
        golden_digest: 0xc4ea_f36d_00c7_19b2,
    },
];

const TOY_DIGEST: u64 = 0xd3c1_1e87_00eb_0ce3;

/// Looks a workload up by name. `toy` keeps the workload's shape (backend,
/// checkpointing, a two-reaction split, spilling) on the 8-EFM toy network.
pub fn find(name: &str, toy: bool) -> Option<Workload> {
    let w = *WORKLOADS.iter().find(|w| w.name == name)?;
    if !toy {
        return Some(w);
    }
    Some(Workload {
        net: Network::Toy,
        partition: if w.partition.is_empty() { &[] } else { &["r6r", "r8r"] },
        spill_budget: w.spill_budget.map(|_| 0),
        golden_count: 8,
        golden_digest: TOY_DIGEST,
        ..w
    })
}

impl Workload {
    /// `efm-compute` flags of one operation, after the network file and
    /// before `--output FILE`.
    pub fn op_flags(&self, checkpoint_path: &str) -> Vec<String> {
        let mut f: Vec<String> = Vec::new();
        let backend = match self.backend {
            BackendKind::Serial => "serial",
            BackendKind::Rayon => "rayon",
            BackendKind::Cluster2 => "cluster",
        };
        f.extend(["--backend".into(), backend.into()]);
        if self.backend == BackendKind::Cluster2 {
            f.extend(["--nodes".into(), "2".into()]);
        }
        if self.checkpoint {
            f.extend(["--checkpoint".into(), checkpoint_path.into()]);
            f.extend(["--checkpoint-every".into(), "1".into()]);
        }
        if !self.partition.is_empty() {
            f.extend(["--partition".into(), self.partition.join(",")]);
            f.extend(["--dnc-schedule".into(), "serial".into()]);
        }
        if let Some(b) = self.spill_budget {
            f.extend(["--spill-budget".into(), b.to_string()]);
        }
        f.extend(["--quiet".into(), "--output-format".into(), "packed".into()]);
        f
    }
}

/// Names of the reactions a workload removes from its source network.
fn dropped(net: Network) -> &'static [&'static str] {
    match net {
        Network::IILiteNoR56 => &["R56"],
        Network::ILite | Network::Toy => &[],
    }
}

fn source(net: Network) -> MetabolicNetwork {
    use efm_bench::Scale;
    match net {
        Network::ILite => efm_bench::network_i(Scale::Lite),
        Network::IILiteNoR56 => efm_bench::network_ii(Scale::Lite),
        Network::Toy => efm_metnet::examples::toy_network(),
    }
}

/// SplitMix64: a small, fixed generator, so a seed names the same input
/// on every build.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// The network text handed to the program for `seed`: reactions in
/// published order, each side's terms in seeded order (seed 0 keeps the
/// published term order).
pub fn network_text(net: Network, seed: u64) -> String {
    let model = source(net);
    let drop = dropped(net);
    let kept: Vec<_> =
        model.reactions.iter().filter(|r| !drop.contains(&r.name.as_str())).collect();
    let mut used = vec![false; model.metabolites.len()];
    for r in &kept {
        for &(m, _) in &r.stoich {
            used[m] = true;
        }
    }
    // Externals the parser would not infer from an `ext` suffix.
    let declared: Vec<&str> = model
        .metabolites
        .iter()
        .zip(&used)
        .filter(|(m, &u)| u && m.external && !m.name.ends_with("ext"))
        .map(|(m, _)| m.name.as_str())
        .collect();
    let mut text = String::new();
    if !declared.is_empty() {
        text.push_str(&format!("-EXTERNAL {}\n", declared.join(" ")));
    }
    let mut rng = SplitMix64(seed);
    for r in kept {
        let mut r = r.clone();
        if seed != 0 {
            // `format_reaction` writes each side in stoich order.
            rng.shuffle(&mut r.stoich);
        }
        text.push_str(&format_reaction(&model, &r));
        text.push('\n');
    }
    text
}

/// FNV-1a over the sorted list of modes, each written as its sorted
/// reaction names joined by `,` and ended by `\n`. Keyed by name, so it
/// does not depend on mode order or on reaction numbering. Fails on a
/// support bit beyond the file's reaction table.
pub fn digest(efms: &EfmSet) -> Result<u64, String> {
    let names = efms.reaction_names();
    let mut modes: Vec<String> = Vec::with_capacity(efms.len());
    for i in 0..efms.len() {
        let mut s: Vec<&str> = Vec::new();
        for j in efms.support(i) {
            s.push(names.get(j).ok_or(format!("mode {i} uses reaction bit {j}"))?);
        }
        s.sort_unstable();
        modes.push(s.join(","));
    }
    modes.sort_unstable();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for m in &modes {
        for b in m.bytes().chain(std::iter::once(b'\n')) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    Ok(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn same_network(a: &MetabolicNetwork, b: &MetabolicNetwork) {
        assert_eq!(a.reaction_names(), b.reaction_names());
        for (ra, rb) in a.reactions.iter().zip(&b.reactions) {
            assert_eq!(ra.reversible, rb.reversible, "{}", ra.name);
            let terms = |n: &MetabolicNetwork, r: &efm_metnet::Reaction| {
                let mut t: Vec<(String, bool, String)> = r
                    .stoich
                    .iter()
                    .map(|(m, c)| {
                        let met = &n.metabolites[*m];
                        (met.name.clone(), met.external, c.to_string())
                    })
                    .collect();
                t.sort();
                t
            };
            assert_eq!(terms(a, ra), terms(b, rb), "{}", ra.name);
        }
    }

    #[test]
    fn every_seed_is_the_source_network() {
        for net in [Network::ILite, Network::Toy] {
            for seed in [0, 1, 7] {
                let text = network_text(net, seed);
                same_network(&efm_metnet::parse_network(&text).unwrap(), &source(net));
            }
        }
    }

    #[test]
    fn seeds_reorder_metabolites_deterministically() {
        let a = network_text(Network::ILite, 3);
        assert_eq!(a, network_text(Network::ILite, 3));
        assert_ne!(a, network_text(Network::ILite, 4));
        let order = |t: &str| -> Vec<String> {
            efm_metnet::parse_network(t).unwrap().metabolites.into_iter().map(|m| m.name).collect()
        };
        assert_ne!(order(&a), order(&network_text(Network::ILite, 0)));
    }

    #[test]
    fn network_two_drops_r56_only() {
        let text = network_text(Network::IILiteNoR56, 0);
        let net = efm_metnet::parse_network(&text).unwrap();
        assert!(net.reaction_index("R56").is_none());
        assert_eq!(net.num_reactions() + 1, source(Network::IILiteNoR56).num_reactions());
    }

    #[test]
    fn digest_ignores_mode_order_and_catches_one_bit() {
        let names: Vec<String> = ["a", "b", "c"].iter().map(|s| s.to_string()).collect();
        let mut x = EfmSet::new(names.clone());
        x.push_support(&[0, 1]);
        x.push_support(&[2]);
        let mut y = EfmSet::new(names.clone());
        y.push_support(&[2]);
        y.push_support(&[0, 1]);
        assert_eq!(digest(&x), digest(&y));
        assert!(digest(&x).is_ok());
        let mut z = EfmSet::new(names.clone());
        z.push_support(&[0, 1, 2]);
        z.push_support(&[2]);
        assert_ne!(digest(&x), digest(&z));
    }

    #[test]
    fn digest_rejects_bits_beyond_the_reaction_table() {
        let names: Vec<String> = ["a", "b", "c"].iter().map(|s| s.to_string()).collect();
        let set = EfmSet::from_raw_words(names, vec![1 << 10]).unwrap();
        assert!(digest(&set).is_err());
    }
}
