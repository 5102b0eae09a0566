//! Inclusive anti-kT jet clustering.
//!
//! The standard sequential-recombination algorithm (Cacciari, Salam,
//! Soyez) with distance measure `d_ij = min(1/pT_i², 1/pT_j²)·ΔR²/R²` and
//! beam distance `d_iB = 1/pT_i²`, E-scheme recombination. Each iteration
//! scans every pair, O(N²) per step and O(N³) overall, so the scan reads
//! per-pseudojet `(1/pT², η, φ)` cached at creation and refreshed only on
//! a merge: multiply-adds and one `sqrt` per pair instead of two `asinh`,
//! two `atan2` and two `pT`. The cached values come from the very
//! expressions `FourVector::delta_r` and the scan used to evaluate, so
//! every `d_ij`, and with it every merge and tie, is bit-identical to the
//! uncached form.

use daspos_hep::fourvec::{delta_phi, FourVector};

use crate::objects::{CaloCluster, Jet};

/// A particle-like input to the clustering, with the kinematics the
/// distance scan reads.
#[derive(Debug, Clone, Copy)]
struct PseudoJet {
    momentum: FourVector,
    em_energy: f64,
    n_constituents: u32,
    /// `1/pT²`, with pT floored at 1e-9: the beam distance `d_iB`.
    inv_pt2: f64,
    eta: f64,
    phi: f64,
}

impl PseudoJet {
    fn new(momentum: FourVector, em_energy: f64, n_constituents: u32) -> PseudoJet {
        let pt = momentum.pt().max(1e-9);
        PseudoJet {
            momentum,
            em_energy,
            n_constituents,
            inv_pt2: 1.0 / (pt * pt),
            eta: momentum.eta(),
            phi: momentum.phi(),
        }
    }
}

/// Cluster calorimeter clusters into anti-kT jets of radius `r`,
/// returning jets above `pt_min`, descending in pT.
pub fn anti_kt(clusters: &[CaloCluster], r: f64, pt_min: f64) -> Vec<Jet> {
    let mut pseudo: Vec<PseudoJet> = clusters
        .iter()
        .filter(|c| c.energy > 0.0)
        .map(|c| PseudoJet::new(c.momentum(), c.energy * c.em_fraction, 1))
        .collect();
    let mut jets = Vec::new();
    let r2 = r * r;

    while !pseudo.is_empty() {
        // Find the minimal distance among all d_ij and d_iB; the first
        // strict minimum in (i, then beam, then j) order wins a tie.
        let mut best_ij: Option<(usize, usize)> = None;
        let mut best_d = f64::INFINITY;
        for i in 0..pseudo.len() {
            let pi = &pseudo[i];
            if pi.inv_pt2 < best_d {
                best_d = pi.inv_pt2;
                best_ij = Some((i, usize::MAX));
            }
            for (j, pj) in pseudo.iter().enumerate().skip(i + 1) {
                // ΔR exactly as `FourVector::delta_r` forms it, then
                // squared: `sqrt(x)²` is not always `x`.
                let deta = pi.eta - pj.eta;
                let dphi = delta_phi(pi.phi, pj.phi);
                let dr = (deta * deta + dphi * dphi).sqrt();
                let dij = pi.inv_pt2.min(pj.inv_pt2) * dr * dr / r2;
                if dij < best_d {
                    best_d = dij;
                    best_ij = Some((i, j));
                }
            }
        }
        let Some((i, j)) = best_ij else { break };
        if j == usize::MAX {
            // Promote i to a final jet.
            let p = pseudo.swap_remove(i);
            if p.momentum.pt() >= pt_min {
                let e = p.momentum.e.max(1e-12);
                jets.push(Jet {
                    momentum: p.momentum,
                    n_constituents: p.n_constituents,
                    em_fraction: (p.em_energy / e).clamp(0.0, 1.0),
                });
            }
        } else {
            // Merge j into i (E-scheme), refresh i's cache, remove j.
            let (pi, pj) = (pseudo[i], pseudo[j]);
            pseudo[i] = PseudoJet::new(
                pi.momentum + pj.momentum,
                pi.em_energy + pj.em_energy,
                pi.n_constituents + pj.n_constituents,
            );
            pseudo.swap_remove(j);
        }
    }
    jets.sort_by(|a, b| b.momentum.pt().total_cmp(&a.momentum.pt()));
    jets
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The uncached clustering: `delta_r` and `pt()` recomputed for every
    /// pair on every iteration. The oracle `anti_kt` must match bit for bit.
    fn anti_kt_reference(clusters: &[CaloCluster], r: f64, pt_min: f64) -> Vec<Jet> {
        #[derive(Clone, Copy)]
        struct Pseudo {
            momentum: FourVector,
            em_energy: f64,
            n_constituents: u32,
        }
        let mut pseudo: Vec<Pseudo> = clusters
            .iter()
            .filter(|c| c.energy > 0.0)
            .map(|c| Pseudo {
                momentum: c.momentum(),
                em_energy: c.energy * c.em_fraction,
                n_constituents: 1,
            })
            .collect();
        let mut jets = Vec::new();
        let r2 = r * r;
        while !pseudo.is_empty() {
            let mut best_ij: Option<(usize, usize)> = None;
            let mut best_d = f64::INFINITY;
            for i in 0..pseudo.len() {
                let pt_i = pseudo[i].momentum.pt().max(1e-9);
                let d_ib = 1.0 / (pt_i * pt_i);
                if d_ib < best_d {
                    best_d = d_ib;
                    best_ij = Some((i, usize::MAX));
                }
                for j in (i + 1)..pseudo.len() {
                    let pt_j = pseudo[j].momentum.pt().max(1e-9);
                    let dr = pseudo[i].momentum.delta_r(&pseudo[j].momentum);
                    let dij = (1.0 / (pt_i * pt_i)).min(1.0 / (pt_j * pt_j)) * dr * dr / r2;
                    if dij < best_d {
                        best_d = dij;
                        best_ij = Some((i, j));
                    }
                }
            }
            let Some((i, j)) = best_ij else { break };
            if j == usize::MAX {
                let p = pseudo.swap_remove(i);
                if p.momentum.pt() >= pt_min {
                    let e = p.momentum.e.max(1e-12);
                    jets.push(Jet {
                        momentum: p.momentum,
                        n_constituents: p.n_constituents,
                        em_fraction: (p.em_energy / e).clamp(0.0, 1.0),
                    });
                }
            } else {
                let pj = pseudo[j];
                let pi = &mut pseudo[i];
                pi.momentum += pj.momentum;
                pi.em_energy += pj.em_energy;
                pi.n_constituents += pj.n_constituents;
                pseudo.swap_remove(j);
            }
        }
        jets.sort_by(|a, b| b.momentum.pt().total_cmp(&a.momentum.pt()));
        jets
    }

    fn jet_bits(jets: &[Jet]) -> Vec<[u64; 6]> {
        jets.iter()
            .map(|j| {
                let m = j.momentum;
                [
                    m.px.to_bits(),
                    m.py.to_bits(),
                    m.pz.to_bits(),
                    m.e.to_bits(),
                    j.em_fraction.to_bits(),
                    u64::from(j.n_constituents),
                ]
            })
            .collect()
    }

    /// Clusters drawn from small value sets, so equal energies, equal
    /// directions and φ straddling ±π (where `delta_phi` wraps) are common;
    /// zero and negative energies exercise the input filter.
    fn clusters() -> impl Strategy<Value = Vec<CaloCluster>> {
        let pi = std::f64::consts::PI;
        let energy = prop_oneof![
            Just(0.0),
            Just(-1.0),
            Just(20.0),
            Just(20.0),
            Just(35.5),
            0.5f64..150.0,
        ];
        let eta = prop_oneof![Just(0.0), Just(0.3), Just(-1.2), -2.5f64..2.5];
        let phi = prop_oneof![
            Just(pi),
            Just(-pi),
            Just(pi - 1e-12),
            Just(-pi + 1e-12),
            Just(3.0),
            Just(-3.0),
            Just(0.0),
            -pi..pi,
        ];
        let cluster =
            (energy, eta, phi, 0.0f64..1.0).prop_map(|(energy, eta, phi, em)| CaloCluster {
                energy,
                eta,
                phi,
                em_fraction: em,
                n_towers: 1,
            });
        prop::collection::vec(cluster, 0..40)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        #[test]
        fn cached_anti_kt_matches_the_uncached_oracle_bit_for_bit(
            cls in clusters(),
            r in prop_oneof![Just(0.4), Just(1.0), 0.2f64..1.5],
            pt_min in prop_oneof![Just(0.0), Just(15.0)],
        ) {
            prop_assert_eq!(
                jet_bits(&anti_kt(&cls, r, pt_min)),
                jet_bits(&anti_kt_reference(&cls, r, pt_min))
            );
        }
    }

    fn cluster(et: f64, eta: f64, phi: f64) -> CaloCluster {
        CaloCluster {
            energy: et * eta.cosh(),
            eta,
            phi,
            em_fraction: 0.3,
            n_towers: 1,
        }
    }

    #[test]
    fn single_cluster_is_one_jet() {
        let jets = anti_kt(&[cluster(50.0, 0.5, 1.0)], 0.4, 10.0);
        assert_eq!(jets.len(), 1);
        assert!((jets[0].momentum.pt() - 50.0).abs() < 1e-6);
        assert_eq!(jets[0].n_constituents, 1);
    }

    #[test]
    fn nearby_clusters_merge() {
        let jets = anti_kt(
            &[
                cluster(40.0, 0.0, 0.0),
                cluster(10.0, 0.1, 0.1),
                cluster(5.0, -0.1, 0.05),
            ],
            0.4,
            10.0,
        );
        assert_eq!(jets.len(), 1);
        assert_eq!(jets[0].n_constituents, 3);
        assert!(jets[0].momentum.pt() > 50.0);
    }

    #[test]
    fn distant_clusters_stay_separate() {
        let jets = anti_kt(
            &[cluster(40.0, 0.0, 0.0), cluster(35.0, 0.0, 3.0)],
            0.4,
            10.0,
        );
        assert_eq!(jets.len(), 2);
        // Descending pT.
        assert!(jets[0].momentum.pt() >= jets[1].momentum.pt());
    }

    #[test]
    fn soft_clusters_attach_to_hard_ones_anti_kt_style() {
        // A soft cluster exactly between two hard ones joins the harder:
        // anti-kT grows cones around hard seeds.
        let jets = anti_kt(
            &[
                cluster(100.0, 0.0, 0.0),
                cluster(20.0, 0.7, 0.0),
                cluster(1.0, 0.35, 0.0),
            ],
            0.4,
            5.0,
        );
        assert_eq!(jets.len(), 2);
        let hard = &jets[0];
        assert_eq!(hard.n_constituents, 2, "soft cluster should join the 100 GeV jet");
    }

    #[test]
    fn pt_min_filters_jets() {
        let jets = anti_kt(&[cluster(4.0, 0.0, 0.0)], 0.4, 10.0);
        assert!(jets.is_empty());
    }

    #[test]
    fn empty_input_empty_output() {
        assert!(anti_kt(&[], 0.4, 10.0).is_empty());
    }

    #[test]
    fn em_fraction_is_energy_weighted() {
        let mut c1 = cluster(30.0, 0.0, 0.0);
        c1.em_fraction = 1.0;
        let mut c2 = cluster(30.0, 0.05, 0.05);
        c2.em_fraction = 0.0;
        let jets = anti_kt(&[c1, c2], 0.4, 10.0);
        assert_eq!(jets.len(), 1);
        assert!((jets[0].em_fraction - 0.5).abs() < 0.01);
    }
}
