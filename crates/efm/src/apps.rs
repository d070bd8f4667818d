//! Applications of a computed EFM set — the analyses the paper's
//! introduction motivates (\[1\]–\[12\]) plus an automation of its future-work
//! item on partition selection.
//!
//! * [`reaction_participation`] — how often each reaction appears across
//!   modes (cell "dissection" / capability analysis, \[1\]\[2\]);
//! * [`minimal_cut_sets`] — smallest reaction deletions abolishing all
//!   modes through a target (knockout design, \[4\]–\[7\]);
//! * [`mode_yields`] — product-per-substrate yield of each mode
//!   (phenotype prediction, \[3\]);
//! * [`suggest_partition`] — automated divide-and-conquer partition
//!   selection; the paper calls manual selection a gap ("an automated
//!   method to select the subset ... would be helpful to make the combined
//!   parallel Nullspace Algorithm a fully automated procedure").

use crate::types::EfmSet;
use efm_metnet::{MetabolicNetwork, ReducedNetwork};

/// Fraction of modes each reaction participates in, descending.
pub fn reaction_participation(efms: &EfmSet) -> Vec<(usize, f64)> {
    let n = efms.len().max(1);
    let mut counts = vec![0usize; efms.num_reactions()];
    for i in 0..efms.len() {
        for r in efms.support(i) {
            counts[r] += 1;
        }
    }
    let mut out: Vec<(usize, f64)> =
        counts.into_iter().enumerate().map(|(r, c)| (r, c as f64 / n as f64)).collect();
    out.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    out
}

/// Minimal cut sets up to `max_size` reactions for a target reaction: every
/// mode using `target` is hit, and no proper subset of a reported cut also
/// hits them all (Berge-style expansion over the target modes).
///
/// The target itself is excluded from cuts (deleting the product exporter
/// is always a cut, and never an interesting one).
pub fn minimal_cut_sets(efms: &EfmSet, target: usize, max_size: usize) -> Vec<Vec<usize>> {
    let target_modes: Vec<Vec<usize>> = (0..efms.len())
        .filter(|&i| efms.uses(i, target))
        .map(|i| efms.support(i).into_iter().filter(|&r| r != target).collect())
        .collect();
    if target_modes.is_empty() {
        return Vec::new();
    }
    // Berge: maintain the set of minimal hitting sets of the modes seen so
    // far; extend mode by mode.
    let mut cuts: Vec<Vec<usize>> = Vec::new();
    for (k, mode) in target_modes.iter().enumerate() {
        if k == 0 {
            cuts = mode.iter().map(|&r| vec![r]).collect();
            continue;
        }
        let mut next: Vec<Vec<usize>> = Vec::new();
        for cut in &cuts {
            if cut.iter().any(|r| mode.binary_search(r).is_ok()) {
                // Already hits the new mode.
                push_if_minimal(&mut next, cut.clone());
            } else if cut.len() < max_size {
                for &r in mode {
                    let mut bigger = cut.clone();
                    bigger.push(r);
                    bigger.sort_unstable();
                    push_if_minimal(&mut next, bigger);
                }
            }
        }
        cuts = next;
        if cuts.is_empty() {
            break;
        }
    }
    cuts.retain(|c| c.len() <= max_size);
    cuts.sort_by_key(|c| (c.len(), c.clone()));
    cuts
}

fn push_if_minimal(sets: &mut Vec<Vec<usize>>, candidate: Vec<usize>) {
    // Drop if a kept set is a subset of the candidate.
    for s in sets.iter() {
        if s.iter().all(|r| candidate.binary_search(r).is_ok()) {
            return;
        }
    }
    // Remove kept sets that are supersets of the candidate.
    sets.retain(|s| !candidate.iter().all(|r| s.binary_search(r).is_ok()));
    sets.push(candidate);
}

/// Yield of each mode: product flux over substrate flux (absolute values),
/// skipping modes that do not use the substrate. Returns `(mode index,
/// yield)` sorted descending — the top entry is the maximum-yield pathway.
pub fn mode_yields(
    net: &MetabolicNetwork,
    red: &ReducedNetwork,
    efms: &EfmSet,
    substrate: usize,
    product: usize,
) -> Vec<(usize, f64)> {
    let rev = net.reversibilities();
    let mut out = Vec::new();
    for i in 0..efms.len() {
        if !efms.uses(i, substrate) || !efms.uses(i, product) {
            continue;
        }
        let sup = efms.support(i);
        let Ok(flux) = crate::recover::recover_flux(red, &rev, &sup) else {
            continue;
        };
        let s = flux[substrate].to_f64().abs();
        let p = flux[product].to_f64().abs();
        if s > 0.0 {
            out.push((i, p / s));
        }
    }
    out.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    out
}

/// Suggests `qsub` divide-and-conquer partition reactions, automating the
/// paper's manual procedure: it used "the last reactions in the reordered
/// nullspace matrix" — the reversible rows the algorithm processes last,
/// which are exactly the rows whose pos×neg grids dominate the candidate
/// count. Returns original-network reaction names (one representative per
/// reduced reaction), most-preferred first.
pub fn suggest_partition(net: &MetabolicNetwork, red: &ReducedNetwork, qsub: usize) -> Vec<String> {
    // Build the problem once to get the paper ordering.
    let opts = crate::types::EfmOptions::default();
    let Ok(problem) = crate::problem::build_problem::<efm_numeric::DynInt>(red, &opts) else {
        return Vec::new();
    };
    let mut names = Vec::new();
    // Walk processed rows from the bottom; keep reversible, pivotal ones.
    for &col in problem.row_order.iter().rev() {
        if names.len() == qsub {
            break;
        }
        if col >= red.num_reduced() {
            continue; // split twin
        }
        let reduced_idx = problem.col_to_reduced[col];
        if !red.reversible[reduced_idx] {
            continue;
        }
        // Representative original reaction of the reduced column.
        if let Some((orig, _)) = red.members[reduced_idx].first() {
            names.push(net.reactions[*orig].name.clone());
        }
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{enumerate, Backend, EfmOptions, Run};
    use efm_metnet::examples::toy_network;
    use efm_numeric::DynInt;

    #[test]
    fn participation_sums_match() {
        let net = toy_network();
        let out = enumerate(&net, &EfmOptions::default()).unwrap();
        let part = reaction_participation(&out.efms);
        // r1 is used by 6 of 8 modes (all but the two Bext-import modes).
        let r1 = net.reaction_index("r1").unwrap();
        let p_r1 = part.iter().find(|(r, _)| *r == r1).unwrap().1;
        assert!((p_r1 - 6.0 / 8.0).abs() < 1e-12);
        // Every fraction is within [0, 1] and sorted descending.
        assert!(part.windows(2).all(|w| w[0].1 >= w[1].1));
        assert!(part.iter().all(|(_, p)| (0.0..=1.0).contains(p)));
    }

    #[test]
    fn cut_sets_hit_every_producing_mode() {
        let net = toy_network();
        let out = enumerate(&net, &EfmOptions::default()).unwrap();
        let target = net.reaction_index("r4").unwrap();
        let cuts = minimal_cut_sets(&out.efms, target, 3);
        assert!(!cuts.is_empty());
        let producing: Vec<Vec<usize>> = (0..out.efms.len())
            .filter(|&i| out.efms.uses(i, target))
            .map(|i| out.efms.support(i))
            .collect();
        for cut in &cuts {
            for mode in &producing {
                assert!(
                    cut.iter().any(|r| mode.binary_search(r).is_ok()),
                    "cut {cut:?} misses mode {mode:?}"
                );
            }
            // Minimality: removing any reaction un-hits some mode.
            for drop in 0..cut.len() {
                let smaller: Vec<usize> =
                    cut.iter().enumerate().filter(|(k, _)| *k != drop).map(|(_, &r)| r).collect();
                let hits_all = producing
                    .iter()
                    .all(|mode| smaller.iter().any(|r| mode.binary_search(r).is_ok()));
                assert!(!hits_all, "cut {cut:?} is not minimal");
            }
        }
    }

    #[test]
    fn yields_identify_the_doubling_pathway() {
        let net = toy_network();
        let out = enumerate(&net, &EfmOptions::default()).unwrap();
        let substrate = net.reaction_index("r1").unwrap();
        let product = net.reaction_index("r4").unwrap();
        let yields = mode_yields(&net, &out.reduced, &out.efms, substrate, product);
        assert!(!yields.is_empty());
        // Best yield is 2 (A → B → 2P).
        assert!((yields[0].1 - 2.0).abs() < 1e-9, "max yield {}", yields[0].1);
        // All yields positive.
        assert!(yields.iter().all(|(_, y)| *y > 0.0));
    }

    #[test]
    fn suggested_partition_is_usable() {
        let net = toy_network();
        let out = enumerate(&net, &EfmOptions::default()).unwrap();
        let suggestion = suggest_partition(&net, &out.reduced, 2);
        assert_eq!(suggestion.len(), 2, "toy network has two reversible reactions");
        let dc = Run {
            opts: EfmOptions::default(),
            partition: suggestion.clone(),
            backend: Backend::Serial,
            ..Default::default()
        }
        .enumerate::<DynInt>(&net)
        .unwrap();
        assert_eq!(dc.efms, out.efms);
        // (Candidate-count reduction is a large-network effect — the paper
        // says the split "usually" lowers the cumulative count; at toy
        // scale the per-subset kernel overhead dominates, so the reduction
        // itself is asserted at yeast scale in tests/yeast_lite.rs.)
    }
}
