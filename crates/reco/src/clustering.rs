//! Calorimeter clustering: connected components over the tower grid.
//!
//! Towers sharing an edge or corner (8-connectivity) are merged into one
//! cluster; the cluster direction is the energy-weighted mean of the tower
//! centres. Calibration constants (the per-run EM/hadronic gains resolved
//! from the conditions database) are divided out here, which is why
//! reconstruction — not analysis — owns the conditions dependency
//! (report §3.2).
//!
//! The grid is a vector of towers sorted by `(ieta, iphi)`; neighbours
//! are found by binary search and the visited set is a `Vec<bool>` over
//! the same indices. Duplicate cells fold into their tower in input
//! order, clusters grow breadth-first from the lowest unvisited tower and
//! visit neighbours in `(Δη, Δφ)` order, so every sum is formed in the
//! same order, and rounds the same way, as an ordered map would give.

use std::collections::VecDeque;

use daspos_detsim::config::CaloConfig;
use daspos_detsim::raw::CaloCell;

use crate::objects::CaloCluster;

/// Cluster the calorimeter cells of one event.
///
/// `em_gain` / `had_gain` are the calibration scales the simulation
/// applied; clustering divides them out to restore the true energy scale.
pub fn cluster_cells(
    cells: &[CaloCell],
    calo: &CaloConfig,
    em_gain: f64,
    had_gain: f64,
    min_cluster_energy: f64,
) -> Vec<CaloCluster> {
    if em_gain <= 0.0 || had_gain <= 0.0 {
        return Vec::new();
    }
    // Index cells by tower coordinates: a stable sort keeps duplicates of
    // one tower in cell order, and each tower's sum starts from zero.
    let mut sorted: Vec<((i32, i32), f64, f64)> = cells
        .iter()
        .map(|c| ((c.ieta, c.iphi), c.em / em_gain, c.had / had_gain))
        .collect();
    sorted.sort_by_key(|&(key, _, _)| key);
    let mut keys: Vec<(i32, i32)> = Vec::with_capacity(sorted.len());
    let mut grid: Vec<(f64, f64)> = Vec::with_capacity(sorted.len());
    for tower in sorted.chunk_by(|a, b| a.0 == b.0) {
        keys.push(tower[0].0);
        grid.push(tower.iter().fold((0.0, 0.0), |(em, had), &(_, dem, dhad)| {
            (em + dem, had + dhad)
        }));
    }

    let mut visited = vec![false; keys.len()];
    let mut queue = VecDeque::new();
    let mut clusters = Vec::new();
    for start in 0..keys.len() {
        if visited[start] {
            continue;
        }
        // BFS over 8-connected neighbours.
        queue.push_back(start);
        visited[start] = true;
        let mut sum_e = 0.0;
        let mut sum_em = 0.0;
        let mut sum_eta = 0.0;
        let mut sum_phi_x = 0.0;
        let mut sum_phi_y = 0.0;
        let mut n_towers = 0u32;
        while let Some(k) = queue.pop_front() {
            let (ieta, iphi) = keys[k];
            let (em, had) = grid[k];
            let e = em + had;
            let eta = (f64::from(ieta) + 0.5) * calo.d_eta;
            let phi = (f64::from(iphi) + 0.5) * calo.d_phi;
            sum_e += e;
            sum_em += em;
            sum_eta += e * eta;
            // Average phi on the circle to handle wrap-around.
            sum_phi_x += e * phi.cos();
            sum_phi_y += e * phi.sin();
            n_towers += 1;
            // One search per neighbouring η row: the row's towers at
            // iphi-1..=iphi+1 are contiguous and already in Δφ order.
            for deta in -1..=1 {
                let row = ieta + deta;
                let lo = keys.partition_point(|&nb| nb < (row, iphi - 1));
                for (nb, &key) in keys.iter().enumerate().skip(lo) {
                    if key > (row, iphi + 1) {
                        break;
                    }
                    if key != (ieta, iphi) && !visited[nb] {
                        visited[nb] = true;
                        queue.push_back(nb);
                    }
                }
            }
        }
        if sum_e >= min_cluster_energy && sum_e > 0.0 {
            clusters.push(CaloCluster {
                energy: sum_e,
                eta: sum_eta / sum_e,
                phi: sum_phi_y.atan2(sum_phi_x),
                em_fraction: (sum_em / sum_e).clamp(0.0, 1.0),
                n_towers,
            });
        }
    }
    clusters.sort_by(|a, b| b.energy.total_cmp(&a.energy));
    clusters
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The ordered-map clustering `cluster_cells` replaced: the oracle it
    /// must match bit for bit.
    fn cluster_cells_reference(
        cells: &[CaloCell],
        calo: &CaloConfig,
        em_gain: f64,
        had_gain: f64,
        min_cluster_energy: f64,
    ) -> Vec<CaloCluster> {
        if em_gain <= 0.0 || had_gain <= 0.0 {
            return Vec::new();
        }
        let mut grid: BTreeMap<(i32, i32), (f64, f64)> = BTreeMap::new();
        for c in cells {
            let e = grid.entry((c.ieta, c.iphi)).or_insert((0.0, 0.0));
            e.0 += c.em / em_gain;
            e.1 += c.had / had_gain;
        }
        let mut visited: BTreeMap<(i32, i32), bool> = BTreeMap::new();
        let mut clusters = Vec::new();
        let keys: Vec<(i32, i32)> = grid.keys().copied().collect();
        for start in keys {
            if visited.get(&start).copied().unwrap_or(false) {
                continue;
            }
            let mut queue = VecDeque::new();
            queue.push_back(start);
            visited.insert(start, true);
            let mut sum_e = 0.0;
            let mut sum_em = 0.0;
            let mut sum_eta = 0.0;
            let mut sum_phi_x = 0.0;
            let mut sum_phi_y = 0.0;
            let mut n_towers = 0u32;
            while let Some((ieta, iphi)) = queue.pop_front() {
                let (em, had) = grid[&(ieta, iphi)];
                let e = em + had;
                let eta = (f64::from(ieta) + 0.5) * calo.d_eta;
                let phi = (f64::from(iphi) + 0.5) * calo.d_phi;
                sum_e += e;
                sum_em += em;
                sum_eta += e * eta;
                sum_phi_x += e * phi.cos();
                sum_phi_y += e * phi.sin();
                n_towers += 1;
                for deta in -1..=1 {
                    for dphi in -1..=1 {
                        if deta == 0 && dphi == 0 {
                            continue;
                        }
                        let nb = (ieta + deta, iphi + dphi);
                        if grid.contains_key(&nb) && !visited.get(&nb).copied().unwrap_or(false) {
                            visited.insert(nb, true);
                            queue.push_back(nb);
                        }
                    }
                }
            }
            if sum_e >= min_cluster_energy && sum_e > 0.0 {
                clusters.push(CaloCluster {
                    energy: sum_e,
                    eta: sum_eta / sum_e,
                    phi: sum_phi_y.atan2(sum_phi_x),
                    em_fraction: (sum_em / sum_e).clamp(0.0, 1.0),
                    n_towers,
                });
            }
        }
        clusters.sort_by(|a, b| b.energy.total_cmp(&a.energy));
        clusters
    }

    fn cluster_bits(clusters: &[CaloCluster]) -> Vec<[u64; 5]> {
        clusters
            .iter()
            .map(|c| {
                [
                    c.energy.to_bits(),
                    c.eta.to_bits(),
                    c.phi.to_bits(),
                    c.em_fraction.to_bits(),
                    u64::from(c.n_towers),
                ]
            })
            .collect()
    }

    /// Unsorted cells on a small patch of the grid, so duplicates of one
    /// tower and touching towers are common; energies include ±0 and
    /// repeated values.
    fn cells() -> impl Strategy<Value = Vec<CaloCell>> {
        let energy = prop_oneof![Just(0.0), Just(-0.0), Just(2.5), 0.0f64..40.0];
        let cell =
            (-4i32..4, -33i32..33, energy.clone(), energy).prop_map(|(ieta, iphi, em, had)| {
                CaloCell {
                    ieta,
                    iphi,
                    em,
                    had,
                }
            });
        prop::collection::vec(cell, 0..60)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        #[test]
        fn sorted_grid_clustering_matches_the_ordered_map_oracle_bit_for_bit(
            cs in cells(),
            em_gain in prop_oneof![Just(1.0), Just(0.0), 0.5f64..1.5],
            had_gain in prop_oneof![Just(1.0), 0.5f64..1.5],
            min_e in prop_oneof![Just(0.0), Just(1.0), 0.0f64..20.0],
        ) {
            prop_assert_eq!(
                cluster_bits(&cluster_cells(&cs, &calo(), em_gain, had_gain, min_e)),
                cluster_bits(&cluster_cells_reference(&cs, &calo(), em_gain, had_gain, min_e))
            );
        }
    }

    fn calo() -> CaloConfig {
        CaloConfig {
            eta_min: -5.0,
            eta_max: 5.0,
            d_eta: 0.1,
            d_phi: 0.1,
            em_stochastic: 0.1,
            em_constant: 0.01,
            had_stochastic: 0.5,
            had_constant: 0.05,
            noise_towers: 0.0,
            noise_energy: 0.0,
            cell_threshold: 0.1,
        }
    }

    fn cell(ieta: i32, iphi: i32, em: f64, had: f64) -> CaloCell {
        CaloCell {
            ieta,
            iphi,
            em,
            had,
        }
    }

    #[test]
    fn adjacent_cells_merge() {
        let cells = vec![
            cell(0, 0, 10.0, 0.0),
            cell(0, 1, 5.0, 0.0),
            cell(1, 1, 2.0, 0.0), // diagonal: still connected
        ];
        let cl = cluster_cells(&cells, &calo(), 1.0, 1.0, 0.5);
        assert_eq!(cl.len(), 1);
        assert!((cl[0].energy - 17.0).abs() < 1e-9);
        assert_eq!(cl[0].n_towers, 3);
        assert_eq!(cl[0].em_fraction, 1.0);
    }

    #[test]
    fn separated_cells_stay_distinct() {
        let cells = vec![cell(0, 0, 10.0, 0.0), cell(5, 5, 8.0, 0.0)];
        let cl = cluster_cells(&cells, &calo(), 1.0, 1.0, 0.5);
        assert_eq!(cl.len(), 2);
        // Sorted by energy.
        assert!(cl[0].energy > cl[1].energy);
    }

    #[test]
    fn gain_is_divided_out() {
        let cells = vec![cell(0, 0, 20.0, 10.0)];
        let cl = cluster_cells(&cells, &calo(), 2.0, 2.0, 0.5);
        assert_eq!(cl.len(), 1);
        assert!((cl[0].energy - 15.0).abs() < 1e-9);
    }

    #[test]
    fn mixed_compartments_give_fraction() {
        let cells = vec![cell(0, 0, 3.0, 1.0)];
        let cl = cluster_cells(&cells, &calo(), 1.0, 1.0, 0.5);
        assert!((cl[0].em_fraction - 0.75).abs() < 1e-9);
    }

    #[test]
    fn min_energy_filters() {
        let cells = vec![cell(0, 0, 0.3, 0.0)];
        assert!(cluster_cells(&cells, &calo(), 1.0, 1.0, 0.5).is_empty());
    }

    #[test]
    fn position_is_energy_weighted() {
        // Two towers: 30 GeV at ieta=0, 10 GeV at ieta=1.
        let cells = vec![cell(0, 0, 30.0, 0.0), cell(1, 0, 10.0, 0.0)];
        let cl = cluster_cells(&cells, &calo(), 1.0, 1.0, 0.5);
        // Tower centres at eta = 0.05 and 0.15 → weighted mean 0.075.
        assert!((cl[0].eta - 0.075).abs() < 1e-9, "eta = {}", cl[0].eta);
    }

    #[test]
    fn phi_wraparound_is_handled() {
        // Towers straddling ±π (iphi ±31 at d_phi = 0.1 ⇒ phi ≈ ±3.1).
        let near_pi = (std::f64::consts::PI / 0.1) as i32 - 1;
        let cells = vec![
            cell(0, near_pi, 10.0, 0.0),
            cell(0, -near_pi - 1, 10.0, 0.0),
        ];
        // Not adjacent in index space, so two clusters — but each must have
        // a valid phi near ±π, not an average near 0.
        let cl = cluster_cells(&cells, &calo(), 1.0, 1.0, 0.5);
        for c in &cl {
            assert!(c.phi.abs() > 2.9, "phi = {}", c.phi);
        }
    }

    #[test]
    fn invalid_gain_yields_nothing() {
        let cells = vec![cell(0, 0, 10.0, 0.0)];
        assert!(cluster_cells(&cells, &calo(), 0.0, 1.0, 0.5).is_empty());
    }
}
