// Droplet-ejection driving workload (§5.1).
//
// The paper's evaluation drives every octree implementation with a
// simulation of inkjet droplet ejection: a liquid jet leaves a nozzle,
// develops a capillary (Rayleigh–Plateau) instability, pinches off and
// breaks into droplets (Fig. 1c). The mesh refines to the finest level in
// a band around the liquid/gas interface and coarsens elsewhere, so the
// hot region *moves* with the jet tip and the traveling capillary wave —
// precisely the access pattern the dynamic layout transformation targets.
//
// We do not integrate the full incompressible Navier–Stokes system (the
// authors used Gerris for that); the octree data structures only observe
// *where* the interface is and *which* cells the solver touches. The jet
// kinematics — tip advance, wave growth, pinch-off into droplets — are
// prescribed analytically, and a light finite-volume relaxation solve runs
// on the leaves each step to generate solver-like traffic. DESIGN.md
// documents this substitution.
#pragma once

#include <cstdint>

#include "amr/mesh_backend.hpp"
#include "amr/neighbor_index.hpp"

namespace pmo::amr {

struct DropletParams {
  int min_level = 2;   ///< uniform background resolution
  int max_level = 5;   ///< interface resolution (4+ orders in the paper)
  double dt = 0.02;

  double nozzle_z = 0.08;       ///< reservoir occupies z < nozzle_z
  double reservoir_radius = 0.30;
  double jet_radius = 0.055;
  double jet_speed = 0.35;      ///< tip advance per unit time
  double wave_number = 55.0;    ///< capillary wavenumber k
  double wave_speed = 0.22;     ///< phase speed of the disturbance
  double growth_rate = 2.4;     ///< sigma: amplitude e-folding rate
  double initial_amplitude = 0.04;
  double axis_x = 0.5;
  double axis_y = 0.5;

  int solver_sweeps = 2;        ///< relaxation passes per step
  /// Resolve stencil neighbors through the per-sweep face-neighbor index
  /// (one batched build, reused across sweeps/steps until the leaf set
  /// changes) instead of per-face binary search in every sweep. Results
  /// are bit-identical either way; `false` keeps the legacy per-face
  /// LeafChunk::find arm (the perf gate's baseline).
  bool neighbor_index = true;
  /// Extra sub-cycled sweeps over the *focus window* (the near-tip /
  /// pinch-off region): breakup dynamics need finer time resolution, so
  /// the solver concentrates work there — the access-pattern hot spot the
  /// dynamic layout transformation targets.
  int focus_sweeps = 8;
  double focus_halfwidth = 0.10;  ///< z half-width of the focus window
  double interface_band = 1.5;  ///< VOF smearing width in cells
};

/// Per-step outcome, with per-routine modeled time (nanoseconds).
struct StepStats {
  std::size_t refined = 0;
  std::size_t coarsened = 0;
  std::size_t balance_refined = 0;
  std::size_t leaves = 0;
  std::uint64_t advect_ns = 0;
  std::uint64_t refine_coarsen_ns = 0;
  std::uint64_t balance_ns = 0;
  std::uint64_t solve_ns = 0;
  std::uint64_t persist_ns = 0;
  std::uint64_t total_ns() const noexcept {
    return advect_ns + refine_coarsen_ns + balance_ns + solve_ns +
           persist_ns;
  }
};

class DropletWorkload {
 public:
  explicit DropletWorkload(DropletParams params = {});

  const DropletParams& params() const noexcept { return params_; }
  double time() const noexcept { return time_; }

  /// Signed interface function: > 0 inside liquid, < 0 in gas; the zero
  /// level set is the jet/droplet surface at time t.
  double phi(double x, double y, double z, double t) const;

  /// Smeared volume fraction of the cell at `code` at time t.
  double vof_cell(const LocCode& code, double t) const;

  /// The refinement criterion: the cell straddles the interface.
  bool refine_feature(const LocCode& code, const CellData& d) const;

  /// The solver's hot-spot predicate — the natural PM-octree feature
  /// function (§3.3): interface cells inside the focus window around the
  /// advancing jet tip, where the solver sub-cycles.
  bool hot_feature(const LocCode& code, const CellData& d) const {
    return hot_feature_at(code, d, time_);
  }
  bool hot_feature_at(const LocCode& code, const CellData& d,
                      double t) const;
  /// Current jet-tip height (focus window center).
  double tip_z(double t) const;

  /// Construct routine: builds the initial mesh (uniform min_level, then
  /// interface-refined to max_level, balanced). Returns modeled ns.
  std::uint64_t initialize(MeshBackend& mesh);

  /// Advances one time step: advect fields, refine & coarsen, balance,
  /// solve, persist (unless `persist` is false).
  StepStats step(MeshBackend& mesh, int step_index, bool persist = true);

  /// Optional execution pool for the solve's chunked stencil gather
  /// (read-only phase; see MeshBackend::sweep_leaves_chunked), also
  /// handed to the backend through MeshBackend::set_exec. nullptr keeps
  /// everything sequential. Results — field values, modeled time, and the
  /// persisted image — are bit-identical either way: the decompositions
  /// are fixed and all reductions are replayed in deterministic order.
  void set_exec(exec::ThreadPool* pool) noexcept { exec_ = pool; }

 private:
  double jet_profile(double z, double t) const;

  DropletParams params_;
  double time_ = 0.0;
  exec::ThreadPool* exec_ = nullptr;
  /// Face-neighbor slot table of the solve, cached across Jacobi sweeps
  /// and across steps; invalidated by MeshBackend::structure_version().
  FaceNeighborIndex nbr_index_;
};

}  // namespace pmo::amr
