//! The single-domain simulation driver (periodic boundaries).
//!
//! One PIC step is the standard leapfrog cycle:
//! 1. gather `E`,`B` at particle positions (time n);
//! 2. Boris-push momenta `u^{n−½} → u^{n+½}` and move
//!    `x^n → x^{n+1} = x^n + Δt·v^{n+½}`;
//! 3. Esirkepov-deposit the half-step current `J^{n+½}`;
//! 4. advance fields: `B` half step, `E` full step, `B` half step.
//!
//! Steps 1–3 run as one fused, supercell-tiled, rayon-parallel pass
//! ([`crate::tile::fused_push_deposit`]); [`Simulation::step_reference`]
//! keeps the seed's push-then-serial-deposit pipeline as the equivalence
//! and benchmark baseline. Multi-rank runs wrap the same fused kernel in
//! [`crate::domain::DistributedSim`].

use crate::deposit::deposit_current;
use crate::field::VecField3;
use crate::gather::gather_eb;
use crate::grid::GridSpec;
use crate::maxwell::{advance_b, advance_e};
use crate::particles::ParticleBuffer;
use crate::pusher::boris;
use crate::tile::{fused_push_deposit, TilePool, Wrap};
use rayon::prelude::*;

/// A complete single-domain PIC simulation state.
pub struct Simulation {
    /// Grid geometry and time step.
    pub spec: GridSpec,
    /// Electric field (Yee edges).
    pub e: VecField3,
    /// Magnetic field (Yee faces).
    pub b: VecField3,
    /// Current density (colocated with E).
    pub j: VecField3,
    /// Particle species (index 0 is conventionally the electrons).
    pub species: Vec<ParticleBuffer>,
    /// Completed step count.
    pub step_index: u64,
    /// Simulated time (1/ω_pe).
    pub time: f64,
    /// Re-sort interval of the *reference* path
    /// ([`Self::step_reference`]); the fused tiled step re-bins every step
    /// regardless. 0 = never.
    pub sort_interval: u64,
    /// Supercell edge length in cells (tile size of the fused step).
    pub supercell_edge: usize,
    /// Reusable tile accumulators of the fused step (crate-internal so the
    /// distributed driver shares the same kernel and scratch).
    pub(crate) tile_pool: TilePool,
}

/// Builder for [`Simulation`].
pub struct SimulationBuilder {
    spec: GridSpec,
    species: Vec<ParticleBuffer>,
    sort_interval: u64,
    supercell_edge: usize,
}

impl SimulationBuilder {
    /// Start from a validated grid spec.
    pub fn new(spec: GridSpec) -> Self {
        spec.validate();
        Self {
            spec,
            species: Vec::new(),
            sort_interval: 20,
            supercell_edge: 4,
        }
    }

    /// Add a particle species.
    pub fn species(mut self, p: ParticleBuffer) -> Self {
        self.species.push(p);
        self
    }

    /// Configure supercell sorting (interval 0 disables).
    pub fn sorting(mut self, interval: u64, edge: usize) -> Self {
        self.sort_interval = interval;
        self.supercell_edge = edge.max(1);
        self
    }

    /// Finish construction.
    pub fn build(self) -> Simulation {
        let (nx, ny, nz) = (self.spec.nx, self.spec.ny, self.spec.nz);
        Simulation {
            spec: self.spec,
            e: VecField3::zeros(nx, ny, nz),
            b: VecField3::zeros(nx, ny, nz),
            j: VecField3::zeros(nx, ny, nz),
            species: self.species,
            step_index: 0,
            time: 0.0,
            sort_interval: self.sort_interval,
            supercell_edge: self.supercell_edge,
            tile_pool: TilePool::new(),
        }
    }
}

impl Simulation {
    /// Total particle count over all species.
    pub fn particle_count(&self) -> usize {
        self.species.iter().map(|s| s.len()).sum()
    }

    /// One full PIC step (periodic boundaries), using the fused
    /// supercell-tiled parallel kernel for the particle phase.
    ///
    /// Steady-state calls perform no per-step heap allocation: the sort
    /// scratch lives in each [`ParticleBuffer`] and the tile accumulators
    /// in the simulation's [`TilePool`].
    pub fn step(&mut self) {
        let g = self.spec;
        let (lx, ly, lz) = g.extents();
        // Fresh ghosts for the gather.
        self.e.wrap_ghosts_periodic();
        self.b.wrap_ghosts_periodic();
        self.j.clear();

        let edge = self.supercell_edge.max(1);
        for sp in &mut self.species {
            fused_push_deposit(
                sp,
                &self.e,
                &self.b,
                &mut self.j,
                &g,
                0.0,
                Wrap::Periodic3 { lx, ly, lz },
                edge,
                &mut self.tile_pool,
            );
        }
        // Fold current contributions that landed in x-ghost cells.
        self.j.reduce_ghosts_periodic();

        self.advance_fields();
        self.step_index += 1;
        self.time += g.dt;
    }

    /// The seed's push-then-serial-deposit step, kept as the equivalence
    /// and throughput baseline: a parallel Boris push materialises an O(N)
    /// move list, then Esirkepov deposition runs serially in particle
    /// order.
    pub fn step_reference(&mut self) {
        let g = self.spec;
        let (lx, ly, lz) = g.extents();
        self.e.wrap_ghosts_periodic();
        self.b.wrap_ghosts_periodic();
        self.j.clear();

        for sp in &mut self.species {
            let qm_dt_half = sp.charge / sp.mass * g.dt * 0.5;
            let q = sp.charge;
            let n = sp.len();
            // Phase 1 (parallel): push and move, recording old positions.
            let e = &self.e;
            let b = &self.b;
            let moves: Vec<(f64, f64, f64, f64, f64, f64, f64)> = (0..n)
                .into_par_iter()
                .map(|i| {
                    let (x0, y0, z0) = (sp.x[i], sp.y[i], sp.z[i]);
                    let (ex, ey, ez, bx, by, bz) = gather_eb(e, b, &g, x0, y0, z0, 0.0);
                    let (ux, uy, uz) = boris(
                        sp.ux[i], sp.uy[i], sp.uz[i], ex, ey, ez, bx, by, bz, qm_dt_half,
                    );
                    let gamma = (1.0 + ux * ux + uy * uy + uz * uz).sqrt();
                    let x1 = x0 + g.dt * ux / gamma;
                    let y1 = y0 + g.dt * uy / gamma;
                    let z1 = z0 + g.dt * uz / gamma;
                    (ux, uy, uz, x1, y1, z1, sp.w[i])
                })
                .collect();
            // Phase 2 (serial writes + deposition): currents are deposited
            // from the *unwrapped* trajectory, then positions wrap.
            for (i, (ux, uy, uz, x1, y1, z1, w)) in moves.into_iter().enumerate() {
                let (x0, y0, z0) = (sp.x[i], sp.y[i], sp.z[i]);
                deposit_current(&mut self.j, &g, q, w, x0, y0, z0, x1, y1, z1, 0.0);
                sp.ux[i] = ux;
                sp.uy[i] = uy;
                sp.uz[i] = uz;
                sp.x[i] = x1;
                sp.y[i] = y1;
                sp.z[i] = z1;
            }
            sp.apply_periodic(lx, ly, lz);
        }
        self.j.reduce_ghosts_periodic();

        self.advance_fields();
        self.step_index += 1;
        self.time += g.dt;
        if self.sort_interval > 0 && self.step_index.is_multiple_of(self.sort_interval) {
            let edge = self.supercell_edge;
            for sp in &mut self.species {
                sp.sort_by_supercell(edge, g.dx, g.dy, g.dz, g.nx, g.ny, g.nz);
            }
        }
    }

    /// Field update shared by both step paths: B half, E full, B half.
    /// Leaves every E and B ghost fresh, so a post-step diagnostic that
    /// gathers fields (the radiation plugin) sees the same halos as a
    /// [`crate::domain::DistributedSim`] after `refresh_ghosts`.
    fn advance_fields(&mut self) {
        let g = self.spec;
        self.e.wrap_ghosts_periodic();
        advance_b(&mut self.b, &self.e, &g, 0.5 * g.dt);
        self.b.wrap_ghosts_periodic();
        advance_e(&mut self.e, &self.b, &self.j, &g, g.dt);
        self.e.wrap_ghosts_periodic();
        advance_b(&mut self.b, &self.e, &g, 0.5 * g.dt);
        self.b.wrap_ghosts_periodic();
    }

    /// Run `n` steps.
    pub fn run(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Field energies `(E², B²)` summed over the interior (×½·V_cell for
    /// physical energy).
    pub fn field_energy(&self) -> (f64, f64) {
        (self.e.sq_sum_interior(), self.b.sq_sum_interior())
    }

    /// Total energy: kinetic + field (in consistent normalised units).
    pub fn total_energy(&self) -> f64 {
        let vol = self.spec.dx * self.spec.dy * self.spec.dz;
        let (e2, b2) = self.field_energy();
        let field = 0.5 * (e2 + b2) * vol;
        let kinetic: f64 = self.species.iter().map(|s| s.kinetic_energy()).sum();
        field + kinetic
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Uniform plasma with a seeded long-wavelength E perturbation must
    /// oscillate at ω ≈ ω_pe (= 1 in normalised units, density 1).
    #[test]
    fn plasma_oscillation_frequency() {
        let g = GridSpec::cubic(16, 4, 4, 0.5, 0.5);
        let mut rng = StdRng::seed_from_u64(7);
        let mut electrons = ParticleBuffer::new(-1.0, 1.0);
        let ppc = 8;
        let vol = g.dx * g.dy * g.dz;
        let w = vol / ppc as f64;
        for cx in 0..g.nx {
            for cy in 0..g.ny {
                for cz in 0..g.nz {
                    for _ in 0..ppc {
                        electrons.push(
                            (cx as f64 + rng.gen_range(0.0..1.0)) * g.dx,
                            (cy as f64 + rng.gen_range(0.0..1.0)) * g.dy,
                            (cz as f64 + rng.gen_range(0.0..1.0)) * g.dz,
                            0.0,
                            0.0,
                            0.0,
                            w,
                        );
                    }
                }
            }
        }
        let mut sim = SimulationBuilder::new(g).species(electrons).build();
        // Long-wavelength Ex seed.
        let kx = 2.0 * std::f64::consts::PI / (g.nx as f64 * g.dx);
        for i in 0..g.nx as isize {
            let x = (i as f64 + 0.5) * g.dx;
            for j in 0..g.ny as isize {
                for k in 0..g.nz as isize {
                    sim.e.x.set(i, j, k, 1e-3 * (kx * x).sin());
                }
            }
        }
        // Record the Ex mode amplitude over time and find the period from
        // zero crossings.
        let probe = |s: &Simulation| s.e.x.get(4, 1, 1);
        let mut crossings = Vec::new();
        let mut prev = probe(&sim);
        for _ in 0..600 {
            sim.step();
            let cur = probe(&sim);
            if prev < 0.0 && cur >= 0.0 {
                crossings.push(sim.time);
            }
            prev = cur;
        }
        assert!(crossings.len() >= 2, "no oscillation observed");
        let period = crossings[1] - crossings[0];
        let omega = 2.0 * std::f64::consts::PI / period;
        assert!(
            (omega - 1.0).abs() < 0.15,
            "plasma frequency should be ≈1 ω_pe, got {omega}"
        );
    }

    /// Total energy (kinetic + field) stays bounded for a warm plasma with
    /// a resolved Debye length (λ_D ≈ 0.8·dx here; under-resolving it
    /// causes the well-known grid-heating artefact, not a solver bug).
    #[test]
    fn warm_plasma_energy_is_stable() {
        let g = GridSpec::cubic(8, 8, 4, 0.25, 0.5);
        let mut rng = StdRng::seed_from_u64(9);
        let mut electrons = ParticleBuffer::new(-1.0, 1.0);
        let ppc = 8;
        let w = g.dx * g.dy * g.dz / ppc as f64;
        for cx in 0..g.nx {
            for cy in 0..g.ny {
                for cz in 0..g.nz {
                    for _ in 0..ppc {
                        electrons.push(
                            (cx as f64 + rng.gen_range(0.0..1.0)) * g.dx,
                            (cy as f64 + rng.gen_range(0.0..1.0)) * g.dy,
                            (cz as f64 + rng.gen_range(0.0..1.0)) * g.dz,
                            rng.gen_range(-0.2..0.2),
                            rng.gen_range(-0.2..0.2),
                            rng.gen_range(-0.2..0.2),
                            w,
                        );
                    }
                }
            }
        }
        let mut sim = SimulationBuilder::new(g).species(electrons).build();
        let e0 = sim.total_energy();
        sim.run(200);
        let e1 = sim.total_energy();
        assert!(
            (e1 - e0).abs() / e0 < 0.1,
            "energy drifted more than 10%: {e0} → {e1}"
        );
    }

    /// Build a warm quasi-neutral plasma for the equivalence tests.
    fn warm_plasma(g: GridSpec, ppc: usize, seed: u64) -> Simulation {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut electrons = ParticleBuffer::new(-1.0, 1.0);
        let w = g.dx * g.dy * g.dz / ppc as f64;
        for cx in 0..g.nx {
            for cy in 0..g.ny {
                for cz in 0..g.nz {
                    for _ in 0..ppc {
                        electrons.push(
                            (cx as f64 + rng.gen_range(0.0..1.0)) * g.dx,
                            (cy as f64 + rng.gen_range(0.0..1.0)) * g.dy,
                            (cz as f64 + rng.gen_range(0.0..1.0)) * g.dz,
                            rng.gen_range(-0.15..0.15),
                            rng.gen_range(-0.15..0.15),
                            rng.gen_range(-0.15..0.15),
                            w,
                        );
                    }
                }
            }
        }
        SimulationBuilder::new(g).species(electrons).build()
    }

    /// The tentpole equivalence: the fused tiled parallel step must match
    /// the seed's push-then-serial-deposit step on `J`, `E` and `B` to
    /// ≤ 1e-12 — the two paths differ only in summation order.
    #[test]
    fn fused_step_matches_reference_fields() {
        let g = GridSpec::cubic(12, 8, 8, 0.35, 0.5);
        let mut fused = warm_plasma(g, 4, 31);
        let mut reference = warm_plasma(g, 4, 31);
        reference.sort_interval = 0; // pure seed hot loop, no re-sorts
        for step in 0..8 {
            fused.step();
            reference.step_reference();
            let max_diff = |a: &crate::field::ScalarField3, b: &crate::field::ScalarField3| {
                let mut m: f64 = 0.0;
                for i in 0..g.nx as isize {
                    for jj in 0..g.ny as isize {
                        for k in 0..g.nz as isize {
                            m = m.max((a.get(i, jj, k) - b.get(i, jj, k)).abs());
                        }
                    }
                }
                m
            };
            for (name, a, b) in [
                ("jx", &fused.j.x, &reference.j.x),
                ("jy", &fused.j.y, &reference.j.y),
                ("jz", &fused.j.z, &reference.j.z),
                ("ex", &fused.e.x, &reference.e.x),
                ("ey", &fused.e.y, &reference.e.y),
                ("ez", &fused.e.z, &reference.e.z),
                ("bx", &fused.b.x, &reference.b.x),
                ("by", &fused.b.y, &reference.b.y),
                ("bz", &fused.b.z, &reference.b.z),
            ] {
                let d = max_diff(a, b);
                assert!(
                    d <= 1e-12,
                    "{name} diverged at step {step}: max |Δ| = {d:e}"
                );
            }
        }
        // The particle sets must also agree (order-independent invariants).
        let kf = fused.species[0].kinetic_energy();
        let kr = reference.species[0].kinetic_energy();
        assert!((kf - kr).abs() / kr < 1e-12, "kinetic: {kf} vs {kr}");
    }

    /// Both paths must conserve the total deposited current (first moment)
    /// regardless of tiling, ragged edges included.
    #[test]
    fn fused_step_handles_ragged_tiles() {
        // 10 and 6 are not multiples of the default supercell edge 4.
        let g = GridSpec::cubic(10, 6, 6, 0.35, 0.5);
        let mut fused = warm_plasma(g, 3, 5);
        let mut reference = warm_plasma(g, 3, 5);
        reference.sort_interval = 0;
        for _ in 0..5 {
            fused.step();
            reference.step_reference();
        }
        let (fe, fb) = fused.field_energy();
        let (re, rb) = reference.field_energy();
        assert!((fe - re).abs() <= 1e-12 * re.max(1.0), "E² {fe} vs {re}");
        assert!((fb - rb).abs() <= 1e-12 * rb.max(1.0), "B² {fb} vs {rb}");
    }

    /// `step` hands post-step diagnostics fresh halos: wrapping B's
    /// ghosts again after a step changes no bit.
    #[test]
    fn step_leaves_b_ghosts_fresh() {
        let g = GridSpec::cubic(12, 8, 8, 0.35, 0.5);
        let mut sim = warm_plasma(g, 4, 17);
        for step in 0..6 {
            sim.step();
            let mut wrapped = sim.b.clone();
            wrapped.wrap_ghosts_periodic();
            for (name, fresh, stepped) in [
                ("bx", &wrapped.x, &sim.b.x),
                ("by", &wrapped.y, &sim.b.y),
                ("bz", &wrapped.z, &sim.b.z),
            ] {
                assert!(
                    fresh.to_bits() == stepped.to_bits(),
                    "{name} ghosts stale after step {step}"
                );
            }
        }
    }

    #[test]
    fn step_advances_time_and_counts() {
        let g = GridSpec::cubic(4, 4, 4, 0.5, 0.5);
        let mut sim = SimulationBuilder::new(g)
            .species(ParticleBuffer::new(-1.0, 1.0))
            .build();
        sim.run(3);
        assert_eq!(sim.step_index, 3);
        assert!((sim.time - 3.0 * g.dt).abs() < 1e-12);
    }

    #[test]
    fn free_streaming_particle_returns_periodically() {
        let g = GridSpec::cubic(8, 4, 4, 0.5, 0.5);
        let mut p = ParticleBuffer::new(-1.0, 1.0);
        // Tiny weight → negligible self-field.
        let u = 0.5f64;
        p.push(1.0, 1.0, 1.0, u, 0.0, 0.0, 1e-12);
        let mut sim = SimulationBuilder::new(g).species(p).build();
        let v = u / (1.0f64 + u * u).sqrt();
        let lx = 8.0 * 0.5;
        let steps = (lx / (v * g.dt)).round() as usize;
        sim.run(steps);
        let x = sim.species[0].x[0];
        assert!(
            (x - 1.0).abs() < 0.05,
            "particle should lap the box back to x≈1, got {x}"
        );
    }
}
