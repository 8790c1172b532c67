// Forwarding MeshBackend decorator that times every call into the wrapped
// backend. The benchmark hands it to DropletWorkload::step in its traced
// runs, so per-layer wall-clock comes from the layer boundary without any
// instrumentation inside the library. Every virtual is overridden and
// forwarded — a missed override would silently fall back to the base
// class (structure_version() would report "always changed" and rebuild the
// neighbor index each sweep; the default SoA sweep would re-extract
// through visit_leaves) and change the work being measured.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>

#include "amr/mesh_backend.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// One bucket per MeshBackend entry point. The SoA sweep is split three
/// ways: extraction (call start to the prepare callback), neighbor-index
/// build (the prepare callback) and the chunked gather (prepare end to
/// return, the wall-clock of the chunk fan-out).
enum class MeshOp : std::size_t {
  kName,
  kSweep,
  kSweepPruned,
  kVisit,
  kChunked,
  kExtractSoa,
  kNeighborBuild,
  kGather,
  kStructureVersion,
  kSetExec,
  kRefine,
  kCoarsen,
  kBalance,
  kSample,
  kLeafCount,
  kEndStep,
  kRecover,
  kModeledNs,
  kNvbmWrites,
  kMemoryBytes,
  kCount
};

struct MeshClock {
  static constexpr std::size_t kOps = static_cast<std::size_t>(MeshOp::kCount);
  std::array<std::uint64_t, kOps> ns{};
  std::array<std::uint64_t, kOps> calls{};
  /// Wall-clock spent inside forwarded calls, callbacks included.
  std::uint64_t inside_ns = 0;

  std::uint64_t op_ns(MeshOp op) const {
    return ns[static_cast<std::size_t>(op)];
  }
  std::uint64_t op_calls(MeshOp op) const {
    return calls[static_cast<std::size_t>(op)];
  }
  MeshClock since(const MeshClock& before) const {
    MeshClock d;
    for (std::size_t i = 0; i < kOps; ++i) {
      d.ns[i] = ns[i] - before.ns[i];
      d.calls[i] = calls[i] - before.calls[i];
    }
    d.inside_ns = inside_ns - before.inside_ns;
    return d;
  }
};

class TimedMesh final : public pmo::amr::MeshBackend {
 public:
  explicit TimedMesh(pmo::amr::MeshBackend& inner) : inner_(inner) {}

  const MeshClock& clock() const noexcept { return clock_; }

  std::string name() const override {
    Scope s(clock_, MeshOp::kName);
    return inner_.name();
  }
  void sweep_leaves(const pmo::amr::LeafMutFn& fn) override {
    Scope s(clock_, MeshOp::kSweep);
    inner_.sweep_leaves(fn);
  }
  void sweep_leaves_pruned(
      const std::function<bool(const pmo::LocCode&)>& visit_subtree,
      const pmo::amr::LeafMutFn& fn) override {
    Scope s(clock_, MeshOp::kSweepPruned);
    inner_.sweep_leaves_pruned(visit_subtree, fn);
  }
  void visit_leaves(const pmo::amr::LeafFn& fn) override {
    Scope s(clock_, MeshOp::kVisit);
    inner_.visit_leaves(fn);
  }
  void sweep_leaves_chunked(std::size_t chunks,
                            const pmo::amr::LeafChunkFn& fn,
                            pmo::exec::ThreadPool* pool = nullptr,
                            const pmo::amr::LeafPrepareFn& prepare =
                                nullptr) override {
    Scope s(clock_, MeshOp::kChunked);
    inner_.sweep_leaves_chunked(chunks, fn, pool, prepare);
  }
  void sweep_leaves_chunked_soa(std::size_t chunks,
                                const pmo::amr::SoaLeafChunkFn& fn,
                                pmo::exec::ThreadPool* pool = nullptr,
                                const pmo::amr::SoaPrepareFn& prepare =
                                    nullptr) override {
    const auto t0 = Clock::now();
    Clock::time_point prep_begin = t0;
    Clock::time_point prep_end = t0;
    bool prepared = false;
    inner_.sweep_leaves_chunked_soa(
        chunks, fn, pool, [&](const pmo::amr::SoaLeaves& soa) {
          prep_begin = Clock::now();
          if (prepare) prepare(soa);
          prep_end = Clock::now();
          prepared = true;
        });
    const auto t1 = Clock::now();
    if (!prepared) prep_begin = prep_end = t1;
    add(MeshOp::kExtractSoa, ns_between(t0, prep_begin));
    add(MeshOp::kNeighborBuild, ns_between(prep_begin, prep_end));
    add(MeshOp::kGather, ns_between(prep_end, t1));
    ++clock_.calls[static_cast<std::size_t>(MeshOp::kExtractSoa)];
    clock_.inside_ns += ns_between(t0, t1);
  }
  std::uint64_t structure_version() override {
    Scope s(clock_, MeshOp::kStructureVersion);
    return inner_.structure_version();
  }
  void set_exec(pmo::exec::ThreadPool* pool) noexcept override {
    Scope s(clock_, MeshOp::kSetExec);
    inner_.set_exec(pool);
  }
  std::size_t refine_where(const pmo::amr::LeafPred& pred,
                           const pmo::amr::ChildInit& init) override {
    Scope s(clock_, MeshOp::kRefine);
    return inner_.refine_where(pred, init);
  }
  std::size_t coarsen_where(const pmo::amr::LeafPred& pred) override {
    Scope s(clock_, MeshOp::kCoarsen);
    return inner_.coarsen_where(pred);
  }
  std::size_t balance() override {
    Scope s(clock_, MeshOp::kBalance);
    return inner_.balance();
  }
  pmo::CellData sample(const pmo::LocCode& code) override {
    Scope s(clock_, MeshOp::kSample);
    return inner_.sample(code);
  }
  std::size_t leaf_count() override {
    Scope s(clock_, MeshOp::kLeafCount);
    return inner_.leaf_count();
  }
  void end_step(int step) override {
    Scope s(clock_, MeshOp::kEndStep);
    inner_.end_step(step);
  }
  bool recover() override {
    Scope s(clock_, MeshOp::kRecover);
    return inner_.recover();
  }
  std::uint64_t modeled_ns() const override {
    Scope s(clock_, MeshOp::kModeledNs);
    return inner_.modeled_ns();
  }
  std::uint64_t nvbm_writes() const override {
    Scope s(clock_, MeshOp::kNvbmWrites);
    return inner_.nvbm_writes();
  }
  std::uint64_t memory_bytes() override {
    Scope s(clock_, MeshOp::kMemoryBytes);
    return inner_.memory_bytes();
  }

 private:
  /// Times one forwarded call, exception paths included.
  class Scope {
   public:
    Scope(MeshClock& clock, MeshOp op) noexcept
        : clock_(clock), op_(op), t0_(Clock::now()) {}
    ~Scope() {
      const std::uint64_t d = ns_between(t0_, Clock::now());
      const auto i = static_cast<std::size_t>(op_);
      clock_.ns[i] += d;
      ++clock_.calls[i];
      clock_.inside_ns += d;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    MeshClock& clock_;
    MeshOp op_;
    Clock::time_point t0_;
  };

  void add(MeshOp op, std::uint64_t d) {
    clock_.ns[static_cast<std::size_t>(op)] += d;
  }

  pmo::amr::MeshBackend& inner_;
  /// Mutable so the const accessors (name, modeled_ns, nvbm_writes) are
  /// timed like the rest.
  mutable MeshClock clock_;
};

}  // namespace perfbench
