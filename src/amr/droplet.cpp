#include "amr/droplet.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "telemetry/telemetry.hpp"
#include "telemetry/timeseries.hpp"

namespace pmo::amr {

namespace {

/// Chunk count of the solve's stencil gather. Fixed — never derived from
/// the thread count — so the decomposition, and with it every modeled
/// number, is identical no matter how many workers run the chunks.
constexpr std::size_t kStencilChunks = 16;

}  // namespace

DropletWorkload::DropletWorkload(DropletParams params) : params_(params) {
  PMO_CHECK_MSG(params_.min_level >= 1 &&
                    params_.max_level >= params_.min_level &&
                    params_.max_level <= kMaxLevel,
                "bad refinement levels");
}

double DropletWorkload::jet_profile(double z, double t) const {
  // The jet is ejected upward (+z): the nozzle/reservoir sits at the
  // bottom of the domain and the tip advances toward z = 1. (Gravity
  // orientation is irrelevant to the capillary physics; +z keeps the hot
  // region late in Morton order, i.e. adversarial to naive placement.)
  const auto& p = params_;
  if (z <= p.nozzle_z) return p.reservoir_radius;  // reservoir slab
  const double tip = tip_z(t);
  if (z > tip) return -1.0;  // beyond the jet tip: gas
  // Capillary disturbance traveling along the jet, amplitude growing
  // exponentially until it exceeds the radius — necks pinch (r < 0) and
  // the jet breaks into segments: the droplets.
  const double amp = std::min(1.6, p.initial_amplitude *
                                       std::exp(p.growth_rate * t));
  const double phase = p.wave_number * (z - p.wave_speed * t);
  const double r = p.jet_radius * (1.0 - amp * (0.5 + 0.5 *
                                                std::sin(phase)));
  return r;
}

double DropletWorkload::phi(double x, double y, double z, double t) const {
  const double rx = x - params_.axis_x;
  const double ry = y - params_.axis_y;
  const double radial = std::sqrt(rx * rx + ry * ry);
  return jet_profile(z, t) - radial;
}

double DropletWorkload::vof_cell(const LocCode& code, double t) const {
  const auto c = code.center_unit();
  const double h = code.size_unit();
  // Coarse cells subsample phi so features thinner than the cell (the
  // reservoir slab, a droplet) still register a fractional volume — a
  // cheap stand-in for the exact geometric VOF integral Gerris computes.
  const int n = std::clamp(1 << (params_.max_level - code.level()), 1, 4);
  const double sub_h = h / n;
  const double band = params_.interface_band * sub_h;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = c[0] + (i + 0.5 - 0.5 * n) * sub_h;
    for (int j = 0; j < n; ++j) {
      const double y = c[1] + (j + 0.5 - 0.5 * n) * sub_h;
      for (int k = 0; k < n; ++k) {
        const double z = c[2] + (k + 0.5 - 0.5 * n) * sub_h;
        // Smeared Heaviside of the signed interface function.
        sum += std::clamp(0.5 + phi(x, y, z, t) / (2.0 * band), 0.0, 1.0);
      }
    }
  }
  return sum / (n * n * n);
}

bool DropletWorkload::refine_feature(const LocCode&,
                                     const CellData& d) const {
  return is_interface_cell(d, 1e-3);
}

double DropletWorkload::tip_z(double t) const {
  return std::min(0.94, params_.nozzle_z + params_.jet_speed * t);
}

bool DropletWorkload::hot_feature_at(const LocCode& code, const CellData& d,
                                     double t) const {
  if (!is_interface_cell(d, 1e-3)) return false;
  const double z = code.center_unit()[2];
  return std::abs(z - tip_z(t)) < params_.focus_halfwidth;
}

std::uint64_t DropletWorkload::initialize(MeshBackend& mesh) {
  const auto t0 = mesh.modeled_ns();
  // Uniform background to min_level.
  for (int l = 0; l < params_.min_level; ++l) {
    mesh.refine_where([](const LocCode&, const CellData&) { return true; },
                      nullptr);
  }
  // Seed the VOF field, then refine the interface band to max_level.
  for (int l = params_.min_level; l <= params_.max_level; ++l) {
    mesh.sweep_leaves([&](const LocCode& code, CellData& d) {
      const double v = vof_cell(code, 0.0);
      if (v == d.vof) return false;
      d.vof = v;
      return true;
    });
    if (l == params_.max_level) break;
    mesh.refine_where(
        [&](const LocCode& code, const CellData& d) {
          return code.level() < params_.max_level &&
                 refine_feature(code, d);
        },
        [&](const LocCode& code, CellData& d) {
          d.vof = vof_cell(code, 0.0);
        });
  }
  mesh.balance();
  time_ = 0.0;
  return mesh.modeled_ns() - t0;
}

StepStats DropletWorkload::step(MeshBackend& mesh, int step_index,
                                bool persist) {
  telemetry::Span span("amr.step");
  StepStats out;
  const auto& p = params_;
  const double t_new = (step_index + 1) * p.dt;
  // Hand the pool to the backend too, under the same determinism
  // contract (see MeshBackend::set_exec).
  mesh.set_exec(exec_);

  // 1. Advance the interface and velocity fields (advection proxy):
  // writes concentrate in and around the liquid — the moving hot region.
  std::uint64_t mark = mesh.modeled_ns();
  mesh.sweep_leaves([&](const LocCode& code, CellData& d) {
    const double v = vof_cell(code, t_new);
    const double w = p.jet_speed * v;  // liquid advances toward +z
    if (v == d.vof && w == d.w) return false;  // nothing changed: no write
    d.vof = v;
    d.u = 0.0;
    d.v = 0.0;
    d.w = w;
    return true;
  });
  out.advect_ns = mesh.modeled_ns() - mark;

  // 2. Refine the interface band; coarsen far-field regions.
  mark = mesh.modeled_ns();
  out.refined = mesh.refine_where(
      [&](const LocCode& code, const CellData& d) {
        return code.level() < p.max_level && refine_feature(code, d);
      },
      [&](const LocCode& code, CellData& d) {
        d.vof = vof_cell(code, t_new);
      });
  out.coarsened = mesh.coarsen_where(
      [&](const LocCode& code, const CellData& d) {
        return code.level() > p.min_level && !refine_feature(code, d);
      });
  out.refine_coarsen_ns = mesh.modeled_ns() - mark;

  // 3. Enforce 2:1.
  mark = mesh.modeled_ns();
  out.balance_refined = mesh.balance();
  out.balance_ns = mesh.modeled_ns() - mark;

  // 4. Solve: finite-volume relaxation of the tracer field using face-
  // neighbor stencils. Generates the solver's read/write traffic (writes
  // mostly in liquid cells).
  mark = mesh.modeled_ns();
  std::vector<double> relaxed;
  std::vector<std::uint8_t> touched;
  // One leaf-set stamp for the whole solve phase: between Jacobi sweeps
  // only data write-backs happen, so the face-neighbor index built in
  // the first sweep stays valid for the rest of the step even on
  // backends whose default structure_version() always reports change.
  const std::uint64_t leafset_version = mesh.structure_version();
  auto& reg = telemetry::Registry::global();
  for (int sweep = 0; sweep < p.solver_sweeps; ++sweep) {
    if (p.neighbor_index) {
      // Jacobi gather over an SoA leaf snapshot: all 6 neighbor slots
      // per leaf come from the prebuilt index (one batched build, reused
      // across sweeps and unchanged-topology steps). Same face order and
      // arithmetic as the per-face-find arm below, so the two arms are
      // bit-identical. Each chunk writes only its own [begin, end)
      // scratch slots.
      mesh.sweep_leaves_chunked_soa(
          kStencilChunks,
          [&](const SoaLeafChunk& ch) {
            const SoaLeaves& soa = *ch.leaves;
            gather_relax(soa.vof.data(), soa.tracer.data(),
                         nbr_index_.slots(), ch.begin, ch.end,
                         relaxed.data(), touched.data());
          },
          exec_,
          [&](const SoaLeaves& soa) {
            relaxed.assign(soa.size(), 0.0);
            touched.assign(soa.size(), 0);
            if (nbr_index_.valid_for(leafset_version, soa.size())) {
              reg.counter("amr.neighbor.reuses").add();
              return;
            }
            nbr_index_.build(soa);
            nbr_index_.stamp(leafset_version, soa.size());
            reg.counter("amr.neighbor.builds").add();
            reg.counter("amr.neighbor.build_probes")
                .add(nbr_index_.last_build_probes());
          });
    } else {
      // Legacy arm: per-face containment search in every sweep
      // (LeafChunk::find; its probe counter is the baseline the index's
      // build_probes are gated against). The loop body is the scalar
      // gather — same face table, same skip test, same accumulation
      // order as gather_relax.
      mesh.sweep_leaves_chunked(
          kStencilChunks,
          [&](const LeafChunk& ch) {
            for (std::size_t i = ch.begin; i < ch.end; ++i) {
              const LocCode& code = ch.codes[i];
              const CellData& d = ch.cells[i];
              if (gather_skip_cell(d.vof, d.tracer)) continue;
              double acc = 0.0;
              int n = 0;
              for (int f = 0; f < kFaceCount; ++f) {
                LocCode ncode;
                if (!code.neighbor(kFaces[f][0], kFaces[f][1], kFaces[f][2],
                                   ncode))
                  continue;
                if (const CellData* nb = ch.find(ncode)) {
                  acc += nb->tracer;
                  ++n;
                }
              }
              const double r =
                  n > 0 ? 0.5 * d.tracer + 0.5 * (acc / n) : d.tracer;
              relaxed[i] = r + 0.1 * d.vof;  // liquid acts as a source
              touched[i] = 1;
            }
          },
          exec_,
          [&](std::size_t leaves) {
            relaxed.assign(leaves, 0.0);
            touched.assign(leaves, 0);
          });
    }
    // Write-back: single-writer CoW mutation, Morton order (sweep_leaves
    // enumerates the same leaves the snapshot did — no surgery between).
    std::size_t idx = 0;
    mesh.sweep_leaves([&](const LocCode&, CellData& d) {
      const std::size_t i = idx++;
      if (touched[i] == 0) return false;
      d.tracer = relaxed[i];
      return true;
    });
  }
  // Sub-cycled sweeps over the focus window: the pinch-off region needs
  // finer time resolution, concentrating the solver's writes on the hot
  // subtrees (the access pattern §3.3's transformation exploits). The
  // traversal prunes octants whose z-range misses the window.
  const double win_lo = tip_z(t_new) - p.focus_halfwidth;
  const double win_hi = tip_z(t_new) + p.focus_halfwidth;
  auto in_window = [&](const LocCode& code) {
    const double inv =
        1.0 / static_cast<double>(std::uint32_t{1} << kMaxLevel);
    const double z0 = code.anchor().z * inv;
    const double z1 = z0 + code.size_unit();
    return z1 >= win_lo && z0 <= win_hi;
  };
  for (int sweep = 0; sweep < p.focus_sweeps; ++sweep) {
    mesh.sweep_leaves_pruned(in_window, [&](const LocCode& code,
                                            CellData& d) {
      if (!hot_feature_at(code, d, t_new)) return false;
      d.tracer = 0.7 * d.tracer + 0.3 * d.vof;
      d.pressure += 0.05 * (d.vof - 0.5);
      return true;
    });
  }
  out.solve_ns = mesh.modeled_ns() - mark;

  // Mesh census (charged to the Solve bucket: the solver owns the final
  // reduction pass in Gerris too).
  mark = mesh.modeled_ns();
  out.leaves = mesh.leaf_count();
  out.solve_ns += mesh.modeled_ns() - mark;

  // 5. Persist the step (snapshot / pm_persistent / fsync).
  if (persist) {
    mark = mesh.modeled_ns();
    mesh.end_step(step_index);
    out.persist_ns = mesh.modeled_ns() - mark;
  }

  reg.counter("amr.steps").add();
  reg.counter("amr.refined").add(out.refined);
  reg.counter("amr.coarsened").add(out.coarsened);
  reg.counter("amr.balance_refined").add(out.balance_refined);

  // Library sampling point: one time-series tick per completed step
  // (driver-thread gated; a no-op unless a MetricSampler is installed).
  telemetry::timeseries::tick_point();

  time_ = t_new;
  return out;
}

}  // namespace pmo::amr
