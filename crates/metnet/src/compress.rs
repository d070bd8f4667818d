//! EFM-preserving network compression.
//!
//! The paper reduces S. cerevisiae Network I from 62×78 to 35×55 before
//! running the Nullspace Algorithm ("eliminating redundant reactions,
//! metabolites, and constraints using known methods"); this module reduces
//! our transcription of it from 62×78 to 40×65. It implements the
//! standard, provably EFM-preserving reductions of Gagneur & Klamt (2004)
//! / Terzer & Stelling (2008), repeated until a round changes nothing:
//!
//! 1. **Redundant constraints** — keep only a maximal linearly independent
//!    subset of stoichiometry rows (conservation relations contribute
//!    nothing to the kernel). One RREF of the transpose per round picks
//!    them.
//! 2. **Blocked reactions** — a reaction whose kernel row is identically
//!    zero can never carry steady-state flux; its column is removed.
//! 3. **Enzyme subsets** — reactions whose kernel rows are proportional
//!    always carry flux in a fixed ratio; they are merged into a single
//!    reduced reaction. Sign bookkeeping: an irreversible member forces the
//!    subset direction; members forcing opposite directions block the whole
//!    subset.
//! 4. **Sign analysis** — exact LPs find reactions that no sign-feasible
//!    steady state uses (blocked) and reversible reactions that run one
//!    way only (made irreversible). Every feasible LP's witness is kept
//!    and certifies directions in later passes too, after an exact
//!    re-check, so a pass solves only what no witness already shows.
//!
//! Each reduced EFM expands to exactly one original EFM (and vice versa),
//! so EFM *counts* are invariant under this compression — the property the
//! reproduction of the paper's Tables II–IV relies on.

use crate::model::MetabolicNetwork;
use efm_linalg::{kernel_basis, lp_feasible, rref, LpProblem, Mat};
use efm_numeric::Rational;

/// A compressed network plus the bookkeeping needed to expand modes back.
#[derive(Debug, Clone)]
pub struct ReducedNetwork {
    /// Reduced stoichiometry: independent rows × reduced reactions.
    pub stoich: Mat<Rational>,
    /// Reversibility of each reduced reaction.
    pub reversible: Vec<bool>,
    /// Display names of reduced reactions (member names joined with `*`).
    pub names: Vec<String>,
    /// Members of each reduced reaction: `(original index, coefficient)` —
    /// original flux = coefficient × reduced flux.
    pub members: Vec<Vec<(usize, Rational)>>,
    /// Number of reactions in the original network.
    pub num_original: usize,
    /// Map original reaction → reduced reaction (None when blocked).
    pub orig_to_reduced: Vec<Option<usize>>,
    /// Names of the original reactions (for reporting).
    pub original_names: Vec<String>,
}

/// Which reduction stages to run. The default enables everything (the
/// paper's preprocessing); disabling stages is useful for ablation studies
/// and for debugging reductions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompressionOptions {
    /// Drop linearly dependent stoichiometry rows.
    pub drop_redundant_rows: bool,
    /// Remove reactions whose kernel row vanishes.
    pub kernel_blocked: bool,
    /// Merge enzyme subsets (proportional kernel rows).
    pub enzyme_subsets: bool,
    /// Exact-LP sign analysis: remove sign-infeasible reactions and fix
    /// the direction of one-way reversible reactions.
    pub sign_analysis: bool,
}

impl Default for CompressionOptions {
    fn default() -> Self {
        CompressionOptions {
            drop_redundant_rows: true,
            kernel_blocked: true,
            enzyme_subsets: true,
            sign_analysis: true,
        }
    }
}

impl CompressionOptions {
    /// No reduction at all (identity mapping).
    pub fn none() -> Self {
        CompressionOptions {
            drop_redundant_rows: false,
            kernel_blocked: false,
            enzyme_subsets: false,
            sign_analysis: false,
        }
    }

    /// Kernel-based reductions only (no LP).
    pub fn kernel_only() -> Self {
        CompressionOptions { sign_analysis: false, ..Default::default() }
    }
}

/// What compression did, for reporting and tests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompressionStats {
    /// Fixpoint rounds executed.
    pub rounds: usize,
    /// Original reactions removed as blocked.
    pub blocked: usize,
    /// Number of merges performed (original reactions absorbed).
    pub merged: usize,
    /// Redundant constraint rows dropped.
    pub dropped_rows: usize,
    /// Reactions removed because irreversibility makes any flux through
    /// them infeasible (exact-LP sign analysis).
    pub sign_blocked: usize,
    /// Reversible reactions found to be feasible in one direction only and
    /// turned irreversible.
    pub direction_fixed: usize,
    /// Exact LPs solved by the sign analysis.
    pub lp_solves: usize,
}

impl ReducedNetwork {
    /// Expands a reduced flux vector to the original reaction space.
    pub fn expand_flux(&self, reduced: &[Rational]) -> Vec<Rational> {
        assert_eq!(reduced.len(), self.reversible.len(), "reduced flux length");
        let mut out = vec![Rational::zero(); self.num_original];
        for (j, mem) in self.members.iter().enumerate() {
            if reduced[j].is_zero() {
                continue;
            }
            for (orig, c) in mem {
                out[*orig] = c.mul(&reduced[j]);
            }
        }
        out
    }

    /// Expands a reduced support (indices of nonzero reduced reactions) to
    /// the set of original reaction indices, ascending.
    pub fn expand_support(&self, reduced_support: &[usize]) -> Vec<usize> {
        let mut out: Vec<usize> =
            reduced_support.iter().flat_map(|&j| self.members[j].iter().map(|(o, _)| *o)).collect();
        out.sort_unstable();
        out
    }

    /// Reduced index of an original reaction, if it survived compression.
    pub fn reduced_index_of(&self, original: usize) -> Option<usize> {
        self.orig_to_reduced[original]
    }

    /// Number of reduced reactions.
    pub fn num_reduced(&self) -> usize {
        self.reversible.len()
    }
}

/// Selects a maximal linearly independent subset of rows (by index order):
/// the pivot columns of the transpose's RREF, which in natural column
/// order are exactly the rows that raise the rank of the rows before them.
fn independent_rows(m: &Mat<Rational>) -> Vec<usize> {
    rref(&m.transpose()).pivot_cols
}

/// A reduced flux in original coordinates: member `(o, c)` of column `j`
/// carries `c · t[j]`, a blocked reaction carries zero.
fn to_original(t: &[Rational], members: &[Vec<(usize, Rational)>], q0: usize) -> Vec<Rational> {
    let mut v = vec![Rational::zero(); q0];
    for (tj, mem) in t.iter().zip(members) {
        for (o, c) in mem {
            v[*o] = c.mul(tj);
        }
    }
    v
}

/// Maps an original-coordinate flux `v` onto the current columns
/// (`t[j] = v[o] / c` for the first member `(o, c)` of column `j`) and
/// returns `t` only if it is exactly a sign-feasible steady state there:
/// every member of every column agrees on `t[j]`, `stoich · t = 0`, and
/// irreversible columns carry `t[j] ≥ 0`.
fn to_reduced(
    v: &[Rational],
    stoich: &Mat<Rational>,
    reversible: &[bool],
    members: &[Vec<(usize, Rational)>],
) -> Option<Vec<Rational>> {
    let mut t = Vec::with_capacity(members.len());
    for (mem, &rev) in members.iter().zip(reversible) {
        let (o, c) = &mem[0];
        let tj = v[*o].div(c);
        if (!rev && tj.signum() < 0) || mem[1..].iter().any(|(o, c)| v[*o] != c.mul(&tj)) {
            return None;
        }
        t.push(tj);
    }
    let steady = (0..stoich.rows()).all(|r| {
        t.iter()
            .enumerate()
            .fold(Rational::zero(), |acc, (j, tj)| acc.add(&stoich.get(r, j).mul(tj)))
            .is_zero()
    });
    steady.then_some(t)
}

/// One group of proportional kernel rows: `(row indices, ratios relative
/// to the first row)`.
type RowGroup = (Vec<usize>, Vec<Rational>);

/// Groups proportional nonzero kernel rows; returns `(groups, blocked)`
/// where each group is a [`RowGroup`].
fn proportional_groups(k: &Mat<Rational>) -> (Vec<RowGroup>, Vec<usize>) {
    let q = k.rows();
    let d = k.cols();
    let mut blocked = Vec::new();
    let mut assigned = vec![false; q];
    let mut groups: Vec<(Vec<usize>, Vec<Rational>)> = Vec::new();
    for i in 0..q {
        if assigned[i] {
            continue;
        }
        let first_nz = (0..d).find(|&c| !k.get(i, c).is_zero());
        let Some(pivot_col) = first_nz else {
            blocked.push(i);
            assigned[i] = true;
            continue;
        };
        assigned[i] = true;
        let mut rows = vec![i];
        let mut ratios = vec![Rational::one()];
        'candidate: for (j, slot) in assigned.iter_mut().enumerate().skip(i + 1) {
            if *slot {
                continue;
            }
            if k.get(j, pivot_col).is_zero() {
                continue;
            }
            // ratio = row_j / row_i must be constant across all columns.
            let ratio = k.get(j, pivot_col).div(k.get(i, pivot_col));
            for c in 0..d {
                let expect = ratio.mul(k.get(i, c));
                if &expect != k.get(j, c) {
                    continue 'candidate;
                }
            }
            *slot = true;
            rows.push(j);
            ratios.push(ratio);
        }
        groups.push((rows, ratios));
    }
    (groups, blocked)
}

/// Compresses a network with the default (full) reduction pipeline.
pub fn compress(net: &MetabolicNetwork) -> (ReducedNetwork, CompressionStats) {
    compress_with(net, &CompressionOptions::default())
}

/// Compresses a network with an explicit stage selection.
pub fn compress_with(
    net: &MetabolicNetwork,
    options: &CompressionOptions,
) -> (ReducedNetwork, CompressionStats) {
    let mut stats = CompressionStats::default();
    let mut stoich = net.stoichiometry();
    let mut reversible = net.reversibilities();
    let q0 = net.num_reactions();
    let mut members: Vec<Vec<(usize, Rational)>> =
        (0..q0).map(|i| vec![(i, Rational::one())]).collect();
    // Feasible sign-analysis witnesses, in original coordinates.
    let mut witnesses: Vec<Vec<Rational>> = Vec::new();

    loop {
        stats.rounds += 1;
        let mut changed = false;

        // (1) Drop redundant constraint rows.
        if options.drop_redundant_rows {
            let rows = independent_rows(&stoich);
            if rows.len() < stoich.rows() {
                stats.dropped_rows += stoich.rows() - rows.len();
                stoich = stoich.select_rows(&rows);
                changed = true;
            }
        }

        if stoich.cols() == 0 {
            break;
        }

        // (2) + (3) Kernel-based blocked removal and enzyme subset merging.
        if !options.kernel_blocked
            && !options.enzyme_subsets
            && (!options.sign_analysis || stoich.rows() == 0)
        {
            break;
        }
        let kb = kernel_basis(&stoich, &[]);
        let (groups, blocked) = if options.kernel_blocked || options.enzyme_subsets {
            let (mut groups, blocked) = proportional_groups(&kb.k);
            if !options.enzyme_subsets {
                // Degrade merges back to singleton groups.
                groups = groups
                    .into_iter()
                    .flat_map(|(rows, _)| {
                        rows.into_iter().map(|r| (vec![r], vec![Rational::one()]))
                    })
                    .collect();
            }
            (groups, if options.kernel_blocked { blocked } else { Vec::new() })
        } else {
            ((0..stoich.cols()).map(|c| (vec![c], vec![Rational::one()])).collect(), Vec::new())
        };
        for &b in &blocked {
            stats.blocked += members[b].len();
        }
        let merging = groups.iter().any(|(rows, _)| rows.len() > 1);
        if !blocked.is_empty() || merging {
            changed = true;
            let mut new_cols: Vec<Vec<Rational>> = Vec::with_capacity(groups.len());
            let mut new_rev: Vec<bool> = Vec::with_capacity(groups.len());
            let mut new_members: Vec<Vec<(usize, Rational)>> = Vec::with_capacity(groups.len());
            for (rows, ratios) in &groups {
                // Direction analysis: irreversible member k with ratio c
                // forces subset flux sign(t) = sign(c) ≥ 0 (i.e. c>0 → t≥0).
                let mut force_pos = false;
                let mut force_neg = false;
                for (&r, c) in rows.iter().zip(ratios) {
                    if !reversible[r] {
                        match c.signum() {
                            1 => force_pos = true,
                            -1 => force_neg = true,
                            _ => unreachable!("zero ratio in proportional group"),
                        }
                    }
                }
                if force_pos && force_neg {
                    // Conflicting directions: the whole subset is blocked.
                    for &r in rows {
                        stats.blocked += members[r].len();
                    }
                    continue;
                }
                let flip = force_neg; // use t' = -t so the subset runs forward
                let sign = if flip { Rational::from_i64(-1) } else { Rational::one() };
                if rows.len() > 1 {
                    stats.merged += rows.len() - 1;
                }
                // Merged column = Σ c_i · col_i (times sign flip).
                let mut col = vec![Rational::zero(); stoich.rows()];
                let mut mem: Vec<(usize, Rational)> = Vec::new();
                for (&r, c) in rows.iter().zip(ratios) {
                    let c = c.mul(&sign);
                    for (rowidx, acc) in col.iter_mut().enumerate() {
                        let v = stoich.get(rowidx, r).mul(&c);
                        *acc = acc.add(&v);
                    }
                    for (orig, oc) in &members[r] {
                        mem.push((*orig, oc.mul(&c)));
                    }
                }
                new_cols.push(col);
                new_rev.push(!(force_pos || force_neg));
                new_members.push(mem);
            }
            // Rebuild the stoichiometry from the surviving columns.
            let mut m = Mat::<Rational>::zeros(stoich.rows(), new_cols.len());
            for (j, col) in new_cols.iter().enumerate() {
                for (r, v) in col.iter().enumerate() {
                    m.set(r, j, v.clone());
                }
            }
            stoich = m;
            reversible = new_rev;
            members = new_members;
        }

        if changed {
            continue;
        }

        if !options.sign_analysis {
            if !changed {
                break;
            }
            continue;
        }

        // (4) Exact-LP sign analysis: a reaction whose only steady-state
        // fluxes violate irreversibility is blocked even though its kernel
        // row is nonzero; a reversible reaction feasible in one direction
        // only becomes irreversible. Witnesses returned by feasible solves
        // certify directions for many reactions at once, so few LPs run.
        // They are kept in original coordinates, and a later pass absorbs
        // each one that is still exactly a feasible flux of the current
        // network before it solves anything; infeasibility always comes
        // from an LP.
        let q = stoich.cols();
        if q > 0 && stoich.rows() > 0 {
            let mut fwd_ok = vec![false; q];
            let mut bwd_ok = vec![false; q];
            let absorb_witness = |w: &[Rational], fwd: &mut [bool], bwd: &mut [bool]| {
                for (j, v) in w.iter().enumerate() {
                    match v.signum() {
                        1 => fwd[j] = true,
                        -1 => bwd[j] = true,
                        _ => {}
                    }
                }
            };
            witnesses.retain(|v| match to_reduced(v, &stoich, &reversible, &members) {
                Some(t) => {
                    absorb_witness(&t, &mut fwd_ok, &mut bwd_ok);
                    true
                }
                None => false,
            });
            let solve_dir = |j: usize, dir: i64| -> Option<Vec<Rational>> {
                let m = stoich.rows();
                let mut a = Mat::<Rational>::zeros(m + 1, q);
                for r in 0..m {
                    for c in 0..q {
                        a.set(r, c, stoich.get(r, c).clone());
                    }
                }
                a.set(m, j, Rational::one());
                let mut b = vec![Rational::zero(); m + 1];
                b[m] = Rational::from_i64(dir);
                let nonneg: Vec<bool> = reversible.iter().map(|&r| !r).collect();
                lp_feasible(&LpProblem { a, b, nonneg })
            };
            for j in 0..q {
                for dir in [1, -1] {
                    let open = if dir == 1 { !fwd_ok[j] } else { reversible[j] && !bwd_ok[j] };
                    if !open {
                        continue;
                    }
                    stats.lp_solves += 1;
                    if let Some(w) = solve_dir(j, dir) {
                        absorb_witness(&w, &mut fwd_ok, &mut bwd_ok);
                        witnesses.push(to_original(&w, &members, q0));
                    }
                }
            }
            let mut keep_cols: Vec<usize> = Vec::with_capacity(q);
            for j in 0..q {
                let feasible = fwd_ok[j] || (reversible[j] && bwd_ok[j]);
                if !feasible {
                    stats.sign_blocked += members[j].len();
                    changed = true;
                    continue;
                }
                if reversible[j] && !bwd_ok[j] {
                    // Forward only.
                    reversible[j] = false;
                    stats.direction_fixed += 1;
                    changed = true;
                } else if reversible[j] && !fwd_ok[j] {
                    // Backward only: flip the column and its members.
                    for r in 0..stoich.rows() {
                        let v = stoich.get(r, j).neg();
                        stoich.set(r, j, v);
                    }
                    for (_, c) in members[j].iter_mut() {
                        *c = c.neg();
                    }
                    reversible[j] = false;
                    stats.direction_fixed += 1;
                    changed = true;
                }
                keep_cols.push(j);
            }
            if keep_cols.len() < q {
                stoich = stoich.select_cols(&keep_cols);
                reversible = keep_cols.iter().map(|&j| reversible[j]).collect();
                members = keep_cols.iter().map(|&j| members[j].clone()).collect();
            }
        }

        if !changed {
            break;
        }
    }

    let mut orig_to_reduced = vec![None; q0];
    let mut names = Vec::with_capacity(members.len());
    let original_names = net.reaction_names();
    for (j, mem) in members.iter().enumerate() {
        for (orig, _) in mem {
            orig_to_reduced[*orig] = Some(j);
        }
        let mut n: Vec<&str> = mem.iter().map(|(o, _)| original_names[*o].as_str()).collect();
        n.sort_unstable();
        names.push(n.join("*"));
    }

    (
        ReducedNetwork {
            stoich,
            reversible,
            names,
            members,
            num_original: q0,
            orig_to_reduced,
            original_names,
        },
        stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_network;

    #[test]
    fn toy_network_reduces_to_4x8() {
        // The paper's Fig. 1 network: row D and reaction r9 fold into r3.
        let net = crate::examples::toy_network();
        let (red, stats) = compress(&net);
        assert_eq!(red.stoich.rows(), 4, "expected 4 independent rows");
        assert_eq!(red.num_reduced(), 8, "expected 8 reduced reactions");
        assert_eq!(stats.merged, 1);
        assert_eq!(stats.blocked, 0);
        // r3 and r9 are one reduced reaction now.
        let r3 = net.reaction_index("r3").unwrap();
        let r9 = net.reaction_index("r9").unwrap();
        assert_eq!(red.reduced_index_of(r3), red.reduced_index_of(r9));
        // All other reactions survive individually.
        for name in ["r1", "r2", "r4", "r5", "r6r", "r7", "r8r"] {
            let i = net.reaction_index(name).unwrap();
            assert!(red.reduced_index_of(i).is_some());
            let j = red.reduced_index_of(i).unwrap();
            assert_eq!(red.members[j].len(), if name == "r3" { 2 } else { 1 });
        }
    }

    #[test]
    fn blocked_reaction_removed() {
        // C is produced but never consumed: r2 is blocked (dead end),
        // and then r1/r3 form the only path.
        let net = parse_network(
            "r1 : Aext => A\n\
             r2 : A => C\n\
             r3 : A => Bext\n",
        )
        .unwrap();
        let (red, stats) = compress(&net);
        assert_eq!(red.reduced_index_of(net.reaction_index("r2").unwrap()), None);
        assert!(stats.blocked >= 1);
        // r1 and r3 are fully coupled → merged.
        assert_eq!(red.num_reduced(), 1);
        assert_eq!(red.members[0].len(), 2);
    }

    #[test]
    fn conflicting_directions_block_subset() {
        // Both reactions produce A and nothing consumes it, so steady state
        // forces v1 = -v2; with both irreversible the subset directions
        // conflict and the whole subset is blocked.
        let net = parse_network(
            "r1 : Aext => A\n\
             r2 : Bext => A\n",
        )
        .unwrap();
        // Kernel of N = [1 1] is (1, -1): one proportional group, ratio -1.
        let (red, _) = compress(&net);
        assert_eq!(red.num_reduced(), 0, "both reactions must be blocked");
    }

    #[test]
    fn reversible_subset_stays_reversible() {
        let net = parse_network(
            "r1 : Aext <=> A\n\
             r2 : A <=> Bext\n",
        )
        .unwrap();
        let (red, _) = compress(&net);
        assert_eq!(red.num_reduced(), 1);
        assert!(red.reversible[0]);
        assert_eq!(red.members[0].len(), 2);
    }

    #[test]
    fn direction_flip_when_forced_negative() {
        // r2 written backwards (B => A, irreversible); flux must run
        // A→Bext via negative r2? No: r2: Bext <= ... construct:
        // r1: Aext => A (irrev), r2: B => A would make A doubly produced.
        // Use: r1 : Aext <=> A (rev), r2 : B => A (irrev), r3 : B <=> Bext (rev).
        // Steady state: v1 + v2 = 0 (A), -v2 + v3... let me use chain:
        // A -> produced by r1, consumed by r2 reversed... Simplest:
        // r1 : A => Aext irreversible, r2 : Aext2 <=> nothing...
        let net = parse_network(
            "r1 : Xext <=> A\n\
             r2 : B => A\n\
             r3 : Yext <=> B\n",
        )
        .unwrap();
        // Flux: v2 consumes B produces A; steady state A: v1 + v2 = 0 →
        // v1 = -v2; B: v3 - v2 = 0 → v3 = v2. Kernel ~ (−1, 1, 1).
        // r2 irreversible with ratio sign relative to r1=-1... The merged
        // subset must run with v2 ≥ 0, i.e. v1 ≤ 0.
        let (red, _) = compress(&net);
        assert_eq!(red.num_reduced(), 1);
        assert!(!red.reversible[0]);
        let flux = red.expand_flux(&[Rational::from_i64(1)]);
        let r1 = net.reaction_index("r1").unwrap();
        let r2 = net.reaction_index("r2").unwrap();
        assert_eq!(flux[r2].signum(), 1, "irreversible member must run forward");
        assert_eq!(flux[r1].signum(), -1);
    }

    #[test]
    fn expand_flux_and_support() {
        let net = crate::examples::toy_network();
        let (red, _) = compress(&net);
        let r3 = net.reaction_index("r3").unwrap();
        let j = red.reduced_index_of(r3).unwrap();
        let mut reduced = vec![Rational::zero(); red.num_reduced()];
        reduced[j] = Rational::from_i64(2);
        let full = red.expand_flux(&reduced);
        let r9 = net.reaction_index("r9").unwrap();
        assert_eq!(full[r3], Rational::from_i64(2));
        assert_eq!(full[r9], Rational::from_i64(2));
        let sup = red.expand_support(&[j]);
        assert_eq!(sup, vec![r3.min(r9), r3.max(r9)]);
    }

    #[test]
    fn kernel_dimension_preserved() {
        // Compression must not change the kernel dimension (EFM space).
        let net = crate::examples::toy_network();
        let n = net.stoichiometry();
        let kb_before = kernel_basis(&n, &[]);
        let (red, _) = compress(&net);
        let kb_after = kernel_basis(&red.stoich, &[]);
        assert_eq!(kb_before.k.cols(), kb_after.k.cols());
    }

    #[test]
    fn compression_levels_nest() {
        let net = crate::yeast::network_i();
        let (none, s0) = compress_with(&net, &CompressionOptions::none());
        let (kernel, s1) = compress_with(&net, &CompressionOptions::kernel_only());
        let (full, s2) = compress_with(&net, &CompressionOptions::default());
        assert_eq!(none.num_reduced(), net.num_reactions(), "none() is the identity");
        assert_eq!(s0.merged + s0.blocked + s0.sign_blocked, 0);
        assert!(kernel.num_reduced() < none.num_reduced());
        assert!(full.num_reduced() <= kernel.num_reduced());
        assert_eq!(s1.direction_fixed, 0);
        assert!(s2.direction_fixed > 0, "full pipeline fixes one-way reversibles");
    }

    #[test]
    fn no_compression_still_enumerable() {
        // The identity reduction must still expand supports correctly.
        let net = crate::examples::toy_network();
        let (red, _) = compress_with(&net, &CompressionOptions::none());
        assert_eq!(red.num_reduced(), 9);
        for j in 0..9 {
            assert_eq!(red.reduced_index_of(j), Some(j));
            assert_eq!(red.members[j].len(), 1);
        }
    }

    #[test]
    fn carried_witness_is_rechecked_exactly() {
        let net = crate::examples::toy_network();
        let (red, _) = compress(&net);
        let map = |v: &[Rational]| to_reduced(v, &red.stoich, &red.reversible, &red.members);
        // A steady state of the reduced network survives the round trip.
        let kb = kernel_basis(&red.stoich, &[]);
        let t: Vec<Rational> = (0..kb.k.rows()).map(|r| kb.k.get(r, 0).clone()).collect();
        let v = to_original(&t, &red.members, red.num_original);
        assert_eq!(map(&v), Some(t.clone()));
        // Not a steady state: one reaction alone.
        let mut lone = vec![Rational::zero(); red.num_original];
        lone[red.members[0][0].0] = Rational::one();
        assert_eq!(map(&lone), None);
        // Members of the merged r3*r9 column disagree.
        let j = red.reduced_index_of(net.reaction_index("r3").unwrap()).unwrap();
        let mut split = v.clone();
        let (o, c) = &red.members[j][1];
        split[*o] = split[*o].add(c);
        assert_eq!(map(&split), None);
        // Reversed, the flux runs an irreversible column backwards.
        assert!(t.iter().zip(&red.reversible).any(|(x, &rev)| !rev && !x.is_zero()));
        let reversed: Vec<Rational> = v.iter().map(Rational::neg).collect();
        assert_eq!(map(&reversed), None);
    }

    /// The greedy definition `independent_rows` must match: keep a row
    /// when it raises the rank of the rows kept before it.
    fn greedy_independent_rows(m: &Mat<Rational>) -> Vec<usize> {
        let t = m.transpose();
        let mut kept = Vec::new();
        let mut scratch = Vec::new();
        for r in 0..m.rows() {
            kept.push(r);
            if efm_linalg::rank_of_cols(&t, &kept, &mut scratch) < kept.len() {
                kept.pop();
            }
        }
        kept
    }

    /// A row recipe: `(kind, entries, weights)`. Kind 0 is a random
    /// rational row, 1 a zero row, 2 a copy of an earlier row and 3 an
    /// integer combination of the earlier rows.
    type RowRecipe = (u8, Vec<(i64, i64)>, Vec<i64>);

    fn matrix_from(cols: usize, recipes: &[RowRecipe]) -> Mat<Rational> {
        let mut rows: Vec<Vec<Rational>> = Vec::new();
        for (kind, entries, weights) in recipes {
            let random = || {
                entries[..cols].iter().map(|&(n, d)| Rational::new(n.into(), d.into())).collect()
            };
            let row = match kind {
                _ if rows.is_empty() => random(),
                1 => vec![Rational::zero(); cols],
                2 => rows[weights[0].unsigned_abs() as usize % rows.len()].clone(),
                3 => (0..cols)
                    .map(|c| {
                        rows.iter().zip(weights).fold(Rational::zero(), |acc, (row, &w)| {
                            acc.add(&row[c].mul(&Rational::from_i64(w)))
                        })
                    })
                    .collect(),
                _ => random(),
            };
            rows.push(row);
        }
        Mat::from_rows(rows)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(200))]

        #[test]
        fn independent_rows_is_the_greedy_rank_pick(
            cols in 1usize..6,
            recipes in proptest::collection::vec(
                (
                    0u8..4,
                    proptest::collection::vec((-3i64..4, 1i64..4), 6),
                    proptest::collection::vec(-2i64..3, 8),
                ),
                0..8,
            ),
        ) {
            let m = matrix_from(cols, &recipes);
            proptest::prop_assert_eq!(independent_rows(&m), greedy_independent_rows(&m));
        }
    }

    #[test]
    fn compress_is_idempotent() {
        let net = crate::examples::toy_network();
        let (red, _) = compress(&net);
        // Round 2 on an already reduced matrix: kernel has no zero or
        // proportional rows.
        let kb = kernel_basis(&red.stoich, &[]);
        let (groups, blocked) = proportional_groups(&kb.k);
        assert!(blocked.is_empty());
        assert!(groups.iter().all(|(rows, _)| rows.len() == 1));
    }
}
