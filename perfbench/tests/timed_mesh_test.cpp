// TimedMesh must override and forward every MeshBackend virtual: a
// missed override silently runs the base-class default instead of the
// wrapped backend and changes the work the benchmark measures.
#include "timed_mesh.hpp"

#include <gtest/gtest.h>

#include <map>

#include "exec/pool.hpp"
#include <string>
#include <type_traits>

namespace perfbench {
namespace {

using pmo::CellData;
using pmo::LocCode;
using namespace pmo::amr;

// Declared in TimedMesh itself (not inherited): the member pointer's
// class is TimedMesh only when TimedMesh declares the function.
static_assert(std::is_same_v<decltype(&TimedMesh::name),
                             std::string (TimedMesh::*)() const>);
static_assert(std::is_same_v<decltype(&TimedMesh::sweep_leaves),
                             void (TimedMesh::*)(const LeafMutFn&)>);
static_assert(std::is_same_v<
              decltype(&TimedMesh::sweep_leaves_pruned),
              void (TimedMesh::*)(const std::function<bool(const LocCode&)>&,
                                  const LeafMutFn&)>);
static_assert(std::is_same_v<decltype(&TimedMesh::visit_leaves),
                             void (TimedMesh::*)(const LeafFn&)>);
static_assert(std::is_same_v<
              decltype(&TimedMesh::sweep_leaves_chunked),
              void (TimedMesh::*)(std::size_t, const LeafChunkFn&,
                                  pmo::exec::ThreadPool*,
                                  const LeafPrepareFn&)>);
static_assert(std::is_same_v<
              decltype(&TimedMesh::sweep_leaves_chunked_soa),
              void (TimedMesh::*)(std::size_t, const SoaLeafChunkFn&,
                                  pmo::exec::ThreadPool*,
                                  const SoaPrepareFn&)>);
static_assert(std::is_same_v<decltype(&TimedMesh::structure_version),
                             std::uint64_t (TimedMesh::*)()>);
static_assert(std::is_same_v<decltype(&TimedMesh::set_exec),
                             void (TimedMesh::*)(pmo::exec::ThreadPool*)
                                 noexcept>);
static_assert(std::is_same_v<decltype(&TimedMesh::refine_where),
                             std::size_t (TimedMesh::*)(const LeafPred&,
                                                        const ChildInit&)>);
static_assert(std::is_same_v<decltype(&TimedMesh::coarsen_where),
                             std::size_t (TimedMesh::*)(const LeafPred&)>);
static_assert(std::is_same_v<decltype(&TimedMesh::balance),
                             std::size_t (TimedMesh::*)()>);
static_assert(std::is_same_v<decltype(&TimedMesh::sample),
                             CellData (TimedMesh::*)(const LocCode&)>);
static_assert(std::is_same_v<decltype(&TimedMesh::leaf_count),
                             std::size_t (TimedMesh::*)()>);
static_assert(std::is_same_v<decltype(&TimedMesh::end_step),
                             void (TimedMesh::*)(int)>);
static_assert(std::is_same_v<decltype(&TimedMesh::recover),
                             bool (TimedMesh::*)()>);
static_assert(std::is_same_v<decltype(&TimedMesh::modeled_ns),
                             std::uint64_t (TimedMesh::*)() const>);
static_assert(std::is_same_v<decltype(&TimedMesh::nvbm_writes),
                             std::uint64_t (TimedMesh::*)() const>);
static_assert(std::is_same_v<decltype(&TimedMesh::memory_bytes),
                             std::uint64_t (TimedMesh::*)()>);

/// Backend that records which entry point was called and returns
/// recognizable values, with every virtual overridden.
class RecordingMesh final : public MeshBackend {
 public:
  mutable std::map<std::string, int> calls;
  pmo::exec::ThreadPool* exec = nullptr;

  std::string name() const override {
    ++calls["name"];
    return "recording";
  }
  void sweep_leaves(const LeafMutFn& fn) override {
    ++calls["sweep_leaves"];
    CellData d;
    fn(LocCode::root(), d);
  }
  void sweep_leaves_pruned(const std::function<bool(const LocCode&)>& visit,
                           const LeafMutFn& fn) override {
    ++calls["sweep_leaves_pruned"];
    CellData d;
    if (visit(LocCode::root())) fn(LocCode::root(), d);
  }
  void visit_leaves(const LeafFn& fn) override {
    ++calls["visit_leaves"];
    fn(LocCode::root(), CellData{});
  }
  void sweep_leaves_chunked(std::size_t, const LeafChunkFn&,
                            pmo::exec::ThreadPool*,
                            const LeafPrepareFn&) override {
    ++calls["sweep_leaves_chunked"];
  }
  void sweep_leaves_chunked_soa(std::size_t chunks, const SoaLeafChunkFn& fn,
                                pmo::exec::ThreadPool* pool,
                                const SoaPrepareFn& prepare) override {
    ++calls["sweep_leaves_chunked_soa"];
    SoaLeaves soa;
    soa.push_back(LocCode::root(), CellData{});
    dispatch_soa_chunks(soa, chunks, fn, pool, prepare);
  }
  std::uint64_t structure_version() override {
    ++calls["structure_version"];
    return 4242;
  }
  void set_exec(pmo::exec::ThreadPool* pool) noexcept override {
    ++calls["set_exec"];
    exec = pool;
  }
  std::size_t refine_where(const LeafPred&, const ChildInit&) override {
    ++calls["refine_where"];
    return 11;
  }
  std::size_t coarsen_where(const LeafPred&) override {
    ++calls["coarsen_where"];
    return 12;
  }
  std::size_t balance() override {
    ++calls["balance"];
    return 13;
  }
  CellData sample(const LocCode&) override {
    ++calls["sample"];
    CellData d;
    d.vof = 0.25;
    return d;
  }
  std::size_t leaf_count() override {
    ++calls["leaf_count"];
    return 14;
  }
  void end_step(int) override { ++calls["end_step"]; }
  bool recover() override {
    ++calls["recover"];
    return true;
  }
  std::uint64_t modeled_ns() const override {
    ++calls["modeled_ns"];
    return 15;
  }
  std::uint64_t nvbm_writes() const override {
    ++calls["nvbm_writes"];
    return 16;
  }
  std::uint64_t memory_bytes() override {
    ++calls["memory_bytes"];
    return 17;
  }
};

TEST(TimedMesh, ForwardsEveryVirtual) {
  RecordingMesh inner;
  TimedMesh timed(inner);
  MeshBackend& mesh = timed;  // dispatch through the base, as the droplet does

  EXPECT_EQ(mesh.name(), "recording");
  int visited = 0;
  mesh.sweep_leaves([&](const LocCode&, CellData&) { return ++visited > 0; });
  mesh.sweep_leaves_pruned([](const LocCode&) { return true; },
                           [&](const LocCode&, CellData&) {
                             return ++visited > 0;
                           });
  mesh.visit_leaves([&](const LocCode&, const CellData&) { ++visited; });
  EXPECT_EQ(visited, 3);
  mesh.sweep_leaves_chunked(1, [](const LeafChunk&) {});
  bool prepared = false;
  int chunks = 0;
  mesh.sweep_leaves_chunked_soa(
      1, [&](const SoaLeafChunk&) { ++chunks; }, nullptr,
      [&](const SoaLeaves& soa) { prepared = soa.size() == 1; });
  EXPECT_TRUE(prepared);
  EXPECT_EQ(chunks, 1);
  EXPECT_EQ(mesh.structure_version(), 4242u);
  pmo::exec::ThreadPool pool(1);
  mesh.set_exec(&pool);
  EXPECT_EQ(inner.exec, &pool);
  EXPECT_EQ(mesh.refine_where(nullptr, nullptr), 11u);
  EXPECT_EQ(mesh.coarsen_where(nullptr), 12u);
  EXPECT_EQ(mesh.balance(), 13u);
  EXPECT_EQ(mesh.sample(LocCode::root()).vof, 0.25);
  EXPECT_EQ(mesh.leaf_count(), 14u);
  mesh.end_step(0);
  EXPECT_TRUE(mesh.recover());
  EXPECT_EQ(mesh.modeled_ns(), 15u);
  EXPECT_EQ(mesh.nvbm_writes(), 16u);
  EXPECT_EQ(mesh.memory_bytes(), 17u);

  for (const char* fn :
       {"name", "sweep_leaves", "sweep_leaves_pruned", "visit_leaves",
        "sweep_leaves_chunked", "sweep_leaves_chunked_soa",
        "structure_version", "set_exec", "refine_where", "coarsen_where",
        "balance", "sample", "leaf_count", "end_step", "recover",
        "modeled_ns", "nvbm_writes", "memory_bytes"}) {
    EXPECT_EQ(inner.calls[fn], 1) << fn << " was not forwarded exactly once";
  }
  EXPECT_EQ(inner.calls.size(), 18u);
}

TEST(TimedMesh, CountsEveryCallAndSplitsTheSoaSweep) {
  RecordingMesh inner;
  TimedMesh timed(inner);
  timed.balance();
  timed.balance();
  timed.structure_version();
  timed.sweep_leaves_chunked_soa(1, [](const SoaLeafChunk&) {}, nullptr,
                                 nullptr);
  const MeshClock& c = timed.clock();
  EXPECT_EQ(c.op_calls(MeshOp::kBalance), 2u);
  EXPECT_EQ(c.op_calls(MeshOp::kStructureVersion), 1u);
  EXPECT_EQ(c.op_calls(MeshOp::kExtractSoa), 1u);
  EXPECT_EQ(c.op_calls(MeshOp::kSweep), 0u);
  // The three SoA parts tile the call.
  std::uint64_t parts = c.op_ns(MeshOp::kExtractSoa) +
                        c.op_ns(MeshOp::kNeighborBuild) +
                        c.op_ns(MeshOp::kGather);
  std::uint64_t calls_ns = 0;
  for (const MeshOp op : {MeshOp::kBalance, MeshOp::kStructureVersion}) {
    calls_ns += c.op_ns(op);
  }
  EXPECT_EQ(c.inside_ns, calls_ns + parts);
}

}  // namespace
}  // namespace perfbench
