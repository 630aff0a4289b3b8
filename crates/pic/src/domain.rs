//! Slab domain decomposition over the `as-cluster` communicator.
//!
//! The global grid is split along x into equal slabs, one per rank —
//! PIConGPU's spatial domain decomposition (§IV-A: "Spatial domain
//! decomposition distributes computational domains across GPUs …
//! asynchronous communication strategies between compute nodes minimize
//! communication overhead"). Each step exchanges:
//!
//! 1. **field halos** (E and B ghost slabs, width 2) with both neighbours,
//! 2. **current halos** (ghost-cell deposits folded into the neighbour's
//!    interior),
//! 3. **migrating particles** that crossed the slab boundary.
//!
//! A single-rank world degenerates to the periodic wraps of
//! [`crate::sim::Simulation`] and, after [`DistributedSim::refresh_ghosts`],
//! reproduces its state bit for bit (asserted in the tests).
//!
//! All exchanges go through the [`Collective`] trait, so the same slab
//! code runs over the in-process channel backend or the netsim-delayed
//! fabric model (`as_cluster::collective::SimNetComm`); the backend
//! defaults to [`ChannelComm`] for existing call sites.

use crate::field::{ScalarField3, VecField3, GHOSTS};
use crate::grid::GridSpec;
use crate::particles::ParticleBuffer;
use crate::sim::{Simulation, SimulationBuilder};
use crate::tile::{fused_push_deposit, wrap_coord, Wrap};
use as_cluster::collective::{ChannelComm, Collective};

const TAG_FIELD_L: u64 = 100;
const TAG_FIELD_R: u64 = 101;
const TAG_J_L: u64 = 102;
const TAG_PART_L: u64 = 104;
const TAG_PART_R: u64 = 105;

/// One rank's slab of a distributed PIC simulation, generic over the
/// collective backend (`C`).
pub struct DistributedSim<C: Collective = ChannelComm> {
    comm: C,
    /// The local simulation state (fields sized to the slab).
    pub local: Simulation,
    /// Global x cell index of local cell 0.
    pub offset_cells: usize,
    /// Global grid spec.
    pub global: GridSpec,
}

impl<C: Collective> DistributedSim<C> {
    /// Split `global` across the communicator and keep the particles of
    /// `all_particles` (global coordinates) that fall into this slab.
    ///
    /// # Panics
    /// Panics unless `global.nx` divides evenly by the world size and each
    /// slab keeps at least `GHOSTS` cells.
    pub fn new(comm: C, global: GridSpec, all_particles: Vec<ParticleBuffer>) -> Self {
        global.validate();
        let world = comm.size();
        assert_eq!(global.nx % world, 0, "nx must divide by world size");
        let nx_local = global.nx / world;
        assert!(nx_local >= GHOSTS, "slab thinner than the ghost width");
        let offset_cells = comm.rank() * nx_local;
        let x_lo = offset_cells as f64 * global.dx;
        let x_hi = (offset_cells + nx_local) as f64 * global.dx;
        let local_spec = GridSpec {
            nx: nx_local,
            ..global
        };
        let mut builder = SimulationBuilder::new(local_spec);
        for mut sp in all_particles {
            // Keep only this slab's particles.
            let _ = sp.drain_outside_x(x_lo, x_hi);
            builder = builder.species(sp);
        }
        Self {
            comm,
            local: builder.build(),
            offset_cells,
            global,
        }
    }

    fn left(&self) -> usize {
        (self.comm.rank() + self.comm.size() - 1) % self.comm.size()
    }

    fn right(&self) -> usize {
        (self.comm.rank() + 1) % self.comm.size()
    }

    /// Exchange ghost slabs of one scalar field with both neighbours.
    fn exchange_ghosts(&self, f: &mut ScalarField3, tag_base: u64) {
        let nx = self.local.spec.nx as isize;
        if self.comm.size() == 1 {
            f.wrap_ghosts_periodic();
            return;
        }
        // Send my low interior to the left (their right ghosts) and my
        // high interior to the right (their left ghosts).
        let low = f.extract_slab(0, GHOSTS);
        let high = f.extract_slab(nx - GHOSTS as isize, GHOSTS);
        self.comm.send_vec(self.left(), tag_base, low);
        self.comm.send_vec(self.right(), tag_base + 1, high);
        let from_right: Vec<f64> = self.comm.recv(self.right(), tag_base);
        let from_left: Vec<f64> = self.comm.recv(self.left(), tag_base + 1);
        f.insert_slab(nx, GHOSTS, &from_right);
        f.insert_slab(-(GHOSTS as isize), GHOSTS, &from_left);
    }

    /// Fold ghost-deposited current into the neighbours' interiors.
    fn reduce_current_ghosts(&self, f: &mut ScalarField3, tag_base: u64) {
        let nx = self.local.spec.nx as isize;
        if self.comm.size() == 1 {
            f.reduce_ghosts_periodic();
            return;
        }
        let to_left = f.extract_slab(-(GHOSTS as isize), GHOSTS);
        let to_right = f.extract_slab(nx, GHOSTS);
        self.comm.send_vec(self.left(), tag_base, to_left);
        self.comm.send_vec(self.right(), tag_base + 1, to_right);
        let from_right: Vec<f64> = self.comm.recv(self.right(), tag_base);
        let from_left: Vec<f64> = self.comm.recv(self.left(), tag_base + 1);
        f.add_slab(nx - GHOSTS as isize, GHOSTS, &from_right);
        f.add_slab(0, GHOSTS, &from_left);
        f.clear_ghosts();
    }

    fn exchange_vec_ghosts(&mut self, which: Which, tag: u64) {
        // Split borrows: temporarily take the fields out of `local`.
        let mut f = match which {
            Which::E => std::mem::replace(&mut self.local.e, VecField3::zeros(1, 1, 1)),
            Which::B => std::mem::replace(&mut self.local.b, VecField3::zeros(1, 1, 1)),
        };
        self.exchange_ghosts(&mut f.x, tag);
        self.exchange_ghosts(&mut f.y, tag + 10);
        self.exchange_ghosts(&mut f.z, tag + 20);
        match which {
            Which::E => self.local.e = f,
            Which::B => self.local.b = f,
        }
    }

    /// One distributed PIC step.
    pub fn step(&mut self) {
        let g = self.local.spec;
        let global = self.global;
        let (gx, gy, gz) = global.extents();
        let origin = self.offset_cells as f64;

        self.exchange_vec_ghosts(Which::E, TAG_FIELD_L);
        self.exchange_vec_ghosts(Which::B, TAG_FIELD_R);
        self.local.j.clear();

        // Same fused supercell-tiled kernel as the single-domain driver,
        // with the slab origin offsetting the x cell indices. Ghost-cell
        // deposits land in the x halo and are shipped to the neighbours
        // below.
        let edge = self.local.supercell_edge.max(1);
        let local = &mut self.local;
        for sp in &mut local.species {
            fused_push_deposit(
                sp,
                &local.e,
                &local.b,
                &mut local.j,
                &g,
                origin,
                Wrap::PeriodicYz { ly: gy, lz: gz },
                edge,
                &mut local.tile_pool,
            );
        }

        // Current halo reduction.
        let mut j = std::mem::replace(&mut self.local.j, VecField3::zeros(1, 1, 1));
        self.reduce_current_ghosts(&mut j.x, TAG_J_L);
        self.reduce_current_ghosts(&mut j.y, TAG_J_L + 10);
        self.reduce_current_ghosts(&mut j.z, TAG_J_L + 20);
        self.local.j = j;

        // Field updates with fresh halos at each stage.
        self.exchange_vec_ghosts(Which::E, TAG_FIELD_L);
        crate::maxwell::advance_b(&mut self.local.b, &self.local.e, &g, 0.5 * g.dt);
        self.exchange_vec_ghosts(Which::B, TAG_FIELD_R);
        crate::maxwell::advance_e(&mut self.local.e, &self.local.b, &self.local.j, &g, g.dt);
        self.exchange_vec_ghosts(Which::E, TAG_FIELD_L);
        crate::maxwell::advance_b(&mut self.local.b, &self.local.e, &g, 0.5 * g.dt);

        self.migrate_particles(gx);

        self.local.step_index += 1;
        self.local.time += g.dt;
    }

    /// Ship particles that left the slab to their new owners.
    fn migrate_particles(&mut self, global_lx: f64) {
        let x_lo = self.offset_cells as f64 * self.global.dx;
        let x_hi = x_lo + self.local.spec.nx as f64 * self.global.dx;
        for si in 0..self.local.species.len() {
            // Global periodic wrap in x first (same clamped wrap as the
            // single-domain path, so single-rank runs stay bit-identical).
            for v in &mut self.local.species[si].x {
                *v = wrap_coord(*v, global_lx);
            }
            if self.comm.size() == 1 {
                continue;
            }
            let leavers = self.local.species[si].drain_outside_x(x_lo, x_hi);
            // CFL limits motion to one cell per step, so after the periodic
            // wrap every leaver belongs to the left or right neighbour.
            let slab_len = self.local.spec.nx as f64 * self.global.dx;
            let mut to_left = ParticleBuffer::new(leavers.charge, leavers.mass);
            let mut to_right = ParticleBuffer::new(leavers.charge, leavers.mass);
            for i in 0..leavers.len() {
                let owner = ((leavers.x[i] / slab_len) as usize).min(self.comm.size() - 1);
                let buf = if owner == self.right() {
                    &mut to_right
                } else if owner == self.left() {
                    &mut to_left
                } else {
                    panic!(
                        "particle jumped past a neighbour slab: x={} owner={owner} rank={}",
                        leavers.x[i],
                        self.comm.rank()
                    );
                };
                buf.push(
                    leavers.x[i],
                    leavers.y[i],
                    leavers.z[i],
                    leavers.ux[i],
                    leavers.uy[i],
                    leavers.uz[i],
                    leavers.w[i],
                );
            }
            // send_vec (not send) so migration traffic shows up in the
            // world byte counter alongside the halo exchanges.
            self.comm
                .send_vec(self.left(), TAG_PART_L + si as u64 * 4, bundle(&to_left));
            self.comm
                .send_vec(self.right(), TAG_PART_R + si as u64 * 4, bundle(&to_right));
            let from_right: Vec<f64> = self.comm.recv(self.right(), TAG_PART_L + si as u64 * 4);
            let from_left: Vec<f64> = self.comm.recv(self.left(), TAG_PART_R + si as u64 * 4);
            unbundle(&from_right, &mut self.local.species[si]);
            unbundle(&from_left, &mut self.local.species[si]);
        }
    }

    /// Re-exchange the E and B ghost layers (call before any post-step
    /// diagnostic that gathers fields at particle positions, e.g. the
    /// radiation plugin — the final half-B update leaves ghosts one
    /// half-step stale otherwise).
    pub fn refresh_ghosts(&mut self) {
        self.exchange_vec_ghosts(Which::E, TAG_FIELD_L);
        self.exchange_vec_ghosts(Which::B, TAG_FIELD_R);
    }

    /// Sum of a scalar across ranks.
    pub fn allreduce_sum(&self, v: f64) -> f64 {
        self.comm.allreduce_scalar_f64(v)
    }

    /// Global particle count.
    pub fn global_particle_count(&self) -> usize {
        self.allreduce_sum(self.local.particle_count() as f64) as usize
    }

    /// Global field energy `(ΣE², ΣB²)`.
    pub fn global_field_energy(&self) -> (f64, f64) {
        let (e2, b2) = self.local.field_energy();
        (self.allreduce_sum(e2), self.allreduce_sum(b2))
    }

    /// Rank of this slab.
    pub fn rank(&self) -> usize {
        self.comm.rank()
    }

    /// World size.
    pub fn world(&self) -> usize {
        self.comm.size()
    }

    /// Borrow the collective endpoint (for plugins that need collectives).
    pub fn comm(&self) -> &C {
        &self.comm
    }
}

enum Which {
    E,
    B,
}

/// Serialise a particle buffer into a flat f64 vector (7 values each).
fn bundle(p: &ParticleBuffer) -> Vec<f64> {
    let mut out = Vec::with_capacity(p.len() * 7);
    for i in 0..p.len() {
        out.extend_from_slice(&[p.x[i], p.y[i], p.z[i], p.ux[i], p.uy[i], p.uz[i], p.w[i]]);
    }
    out
}

fn unbundle(data: &[f64], into: &mut ParticleBuffer) {
    assert_eq!(data.len() % 7, 0, "corrupt particle bundle");
    for c in data.chunks_exact(7) {
        into.push(c[0], c[1], c[2], c[3], c[4], c[5], c[6]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::khi::KhiSetup;
    use as_cluster::comm::CommWorld;

    fn khi_grid() -> GridSpec {
        GridSpec::cubic(16, 16, 4, 0.5, 0.5)
    }

    /// The decisive test: a 2-rank run must track the single-rank run's
    /// global observables (same physics, different partitioning).
    #[test]
    fn distributed_matches_single_rank_energies() {
        let g = khi_grid();
        let setup = KhiSetup {
            ppc: 2,
            ..KhiSetup::default()
        };
        // Reference: single-domain run.
        let mut reference = setup.build(g);
        for _ in 0..20 {
            reference.step();
        }
        let (re2, rb2) = reference.field_energy();
        let rkin: f64 = reference.species[0].kinetic_energy();

        // Distributed: 2 ranks.
        let endpoints = CommWorld::new(2).into_endpoints();
        let handles: Vec<_> = endpoints
            .into_iter()
            .map(|comm| {
                std::thread::spawn(move || {
                    let particles = setup.all_species(&g);
                    let mut d = DistributedSim::new(comm, g, particles);
                    for _ in 0..20 {
                        d.step();
                    }
                    let (e2, b2) = d.global_field_energy();
                    let kin = d.allreduce_sum(d.local.species[0].kinetic_energy());
                    let count = d.global_particle_count();
                    (e2, b2, kin, count)
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let (e2, b2, kin, count) = results[0];
        assert_eq!(count, reference.particle_count(), "no particles lost");
        // Same initial conditions, same deterministic scheme ⇒ observables
        // agree to floating-point accumulation differences.
        assert!(
            (e2 - re2).abs() / re2.max(1e-30) < 1e-6,
            "E energy: {e2} vs {re2}"
        );
        assert!(
            (b2 - rb2).abs() / rb2.max(1e-30) < 1e-6,
            "B energy: {b2} vs {rb2}"
        );
        assert!((kin - rkin).abs() / rkin < 1e-9, "kinetic: {kin} vs {rkin}");
    }

    #[test]
    fn particles_migrate_across_ranks_and_none_are_lost() {
        let g = khi_grid();
        let endpoints = CommWorld::new(4).into_endpoints();
        let handles: Vec<_> = endpoints
            .into_iter()
            .map(|comm| {
                std::thread::spawn(move || {
                    // A beam marching in +x crosses every slab.
                    let mut p = ParticleBuffer::new(-1.0, 1.0);
                    for k in 0..32 {
                        p.push(
                            0.1 + (k as f64) * 0.2,
                            (k % 16) as f64 * 0.5,
                            0.5,
                            1.0,
                            0.0,
                            0.0,
                            1e-9,
                        );
                    }
                    let mut d = DistributedSim::new(comm, g, vec![p]);
                    let before = d.global_particle_count();
                    for _ in 0..60 {
                        d.step();
                    }
                    (before, d.global_particle_count())
                })
            })
            .collect();
        for h in handles {
            let (before, after) = h.join().unwrap();
            assert_eq!(before, 32);
            assert_eq!(after, 32, "particle count must be conserved");
        }
    }

    /// Every particle array and every E and B value, ghosts included, as
    /// bit patterns.
    fn state_bits(sim: &Simulation) -> Vec<(String, Vec<u64>)> {
        let mut out = Vec::new();
        for (name, f) in [
            ("ex", &sim.e.x),
            ("ey", &sim.e.y),
            ("ez", &sim.e.z),
            ("bx", &sim.b.x),
            ("by", &sim.b.y),
            ("bz", &sim.b.z),
        ] {
            out.push((name.to_string(), f.to_bits()));
        }
        for (s, sp) in sim.species.iter().enumerate() {
            for (name, v) in [
                ("x", &sp.x),
                ("y", &sp.y),
                ("z", &sp.z),
                ("ux", &sp.ux),
                ("uy", &sp.uy),
                ("uz", &sp.uz),
                ("w", &sp.w),
            ] {
                out.push((
                    format!("s{s}.{name}"),
                    v.iter().map(|x| x.to_bits()).collect(),
                ));
            }
        }
        out
    }

    /// The 1-slab producer is the whole-box simulation, bit for bit: a
    /// 1-rank world with `refresh_ghosts` reproduces `Simulation::step`
    /// over the full state after every step.
    #[test]
    fn single_rank_distributed_equals_plain_simulation() {
        let g = khi_grid();
        for seed in [1, 7, 12345] {
            let setup = KhiSetup {
                ppc: 2,
                seed,
                ..KhiSetup::default()
            };
            let mut plain = setup.build(g);
            let comm = CommWorld::new(1).into_endpoints().remove(0);
            let mut dist = DistributedSim::new(comm, g, setup.all_species(&g));
            for step in 0..40 {
                plain.step();
                dist.step();
                dist.refresh_ghosts();
                for ((name, p), (_, d)) in state_bits(&plain).iter().zip(state_bits(&dist.local)) {
                    assert!(*p == d, "seed {seed}: {name} differs after step {step}");
                }
            }
            assert_eq!(dist.comm().world_bytes_sent(), 0);
            assert_eq!(dist.comm().world_messages_sent(), 0);
        }
    }
}
