// Tests for the event-timeline trace layer: ring-buffer wraparound,
// begin/end nesting, multi-thread drain determinism, the export schema
// (golden file), and the structural validator trace2summary relies on.
#include "telemetry/trace.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace pmo::telemetry::trace {
namespace {

TraceCheck check_text(const std::string& text) {
  std::string err;
  const auto doc = json::Value::parse(text, &err);
  EXPECT_TRUE(doc.has_value()) << err;
  if (!doc) return TraceCheck{};
  return validate_chrome_trace(*doc);
}

TEST(EventBuffer, KeepsEverythingBelowCapacity) {
  EventBuffer buf(8);
  for (int i = 0; i < 5; ++i) {
    TraceEvent ev;
    ev.ts_ns = static_cast<std::uint64_t>(i);
    buf.push(std::move(ev));
  }
  EXPECT_EQ(buf.pushed(), 5u);
  EXPECT_EQ(buf.dropped(), 0u);
  const auto evs = buf.drain();
  ASSERT_EQ(evs.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(evs[static_cast<std::size_t>(i)].ts_ns,
              static_cast<std::uint64_t>(i));
  }
}

TEST(EventBuffer, WraparoundDropsOldestFirst) {
  EventBuffer buf(4);
  for (int i = 0; i < 10; ++i) {
    TraceEvent ev;
    ev.ts_ns = static_cast<std::uint64_t>(i);
    buf.push(std::move(ev));
  }
  EXPECT_EQ(buf.pushed(), 10u);
  EXPECT_EQ(buf.dropped(), 6u);
  const auto evs = buf.drain();
  ASSERT_EQ(evs.size(), 4u);
  // The four newest survive, oldest-first.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(evs[i].ts_ns, 6u + i);
  }
}

// ---- track/pid layout contract --------------------------------------------

// The pid bases partition the exported timeline into non-overlapping
// process rows: recovery audit (900) < cluster rank base (1000) <=
// ranks < serve mutator (1900) < serve reader base (2000) <= lanes.
// Serving and cluster tracks never share a trace, but the bases must
// still keep every practically traced fleet collision-free — tools
// (trace2summary, Perfetto groupings) key on these constants.
TEST(TrackLayout, PidBasesNeverCollide) {
  EXPECT_LT(kRecoveryAuditPid, kTraceRankPidBase);
  EXPECT_LT(kTraceRankPidBase, kServeMutatorPid);
  EXPECT_LT(kServeMutatorPid, kServeReaderPidBase);
  // Up to 900 simulated ranks fit under the mutator row.
  const std::uint32_t kMaxRanks = kServeMutatorPid - kTraceRankPidBase;
  EXPECT_GE(kMaxRanks, 900u);
  EXPECT_LT(kTraceRankPidBase + kMaxRanks - 1, kServeMutatorPid);
  // The audit row never aliases a rank, the mutator, or a lane.
  EXPECT_LT(kRecoveryAuditPid, kTraceRankPidBase);
  // Reader lanes are open-ended upward: lane L's pid is above every
  // other base for all L >= 0.
  EXPECT_GT(kServeReaderPidBase + 0, kServeMutatorPid);
  EXPECT_GT(kServeReaderPidBase + 0, kTraceRankPidBase + kMaxRanks - 1);
}

// ---- sections (compiled in both modes) ------------------------------------

TEST(Sections, FreezeOnDestroyAndClear) {
  clear_sections();
  int value = 1;
  {
    Section s = register_section("dev0", [&value] {
      auto v = json::Value::object();
      v["writes"] = value;
      return v;
    });
    value = 7;
    const auto live = collect_sections();
    ASSERT_NE(live.find("dev0"), nullptr);
    EXPECT_EQ(live.find("dev0")->find("writes")->as_double(), 7.0);
    value = 42;
  }  // handle dies: the provider's final value (42) is frozen
  value = -1;
  const auto frozen = collect_sections();
  ASSERT_NE(frozen.find("dev0"), nullptr);
  EXPECT_EQ(frozen.find("dev0")->find("writes")->as_double(), 42.0);
  clear_sections();
  EXPECT_EQ(collect_sections().members().size(), 0u);
}

// ---- validator (compiled in both modes) -----------------------------------

TEST(Validator, AcceptsMinimalWellFormedTrace) {
  const auto check = check_text(R"({"traceEvents":[
    {"name":"a","ph":"B","ts":1.0,"pid":0,"tid":1},
    {"name":"b","ph":"X","ts":2.0,"dur":1.0,"pid":0,"tid":1},
    {"name":"a","ph":"E","ts":4.0,"pid":0,"tid":1}
  ]})");
  EXPECT_TRUE(check.ok) << check.error;
  EXPECT_EQ(check.events, 3u);
  EXPECT_EQ(check.slices, 2u);
  EXPECT_EQ(check.tracks, 1u);
}

TEST(Validator, RejectsEndWithoutBegin) {
  const auto check = check_text(
      R"({"traceEvents":[{"name":"a","ph":"E","ts":1.0,"pid":0,"tid":1}]})");
  EXPECT_FALSE(check.ok);
}

TEST(Validator, RejectsMisnestedEnd) {
  const auto check = check_text(R"({"traceEvents":[
    {"name":"a","ph":"B","ts":1.0,"pid":0,"tid":1},
    {"name":"b","ph":"B","ts":2.0,"pid":0,"tid":1},
    {"name":"a","ph":"E","ts":3.0,"pid":0,"tid":1}
  ]})");
  EXPECT_FALSE(check.ok);
}

TEST(Validator, RejectsPartiallyOverlappingSlices) {
  const auto check = check_text(R"({"traceEvents":[
    {"name":"a","ph":"X","ts":1.0,"dur":5.0,"pid":0,"tid":1},
    {"name":"b","ph":"X","ts":3.0,"dur":10.0,"pid":0,"tid":1}
  ]})");
  EXPECT_FALSE(check.ok);
}

TEST(Validator, RejectsUnmatchedFlow) {
  const auto fonly = check_text(
      R"({"traceEvents":[
        {"name":"f","ph":"f","ts":1.0,"pid":0,"tid":1,"id":9}]})");
  EXPECT_FALSE(fonly.ok);
  const auto sonly = check_text(
      R"({"traceEvents":[
        {"name":"f","ph":"s","ts":1.0,"pid":0,"tid":1,"id":9}]})");
  EXPECT_FALSE(sonly.ok);
}

TEST(Validator, ChecksAuditCausalOrder) {
  const auto good = check_text(R"({"traceEvents":[
    {"name":"crash","cat":"recovery","ph":"i","ts":1.0,"pid":900,"tid":1,
     "args":{"audit_seq":1}},
    {"name":"restore","cat":"recovery","ph":"i","ts":2.0,"pid":900,"tid":1,
     "args":{"audit_seq":2}}
  ]})");
  EXPECT_TRUE(good.ok) << good.error;
  EXPECT_EQ(good.audit_events, 2u);
  const auto bad = check_text(R"({"traceEvents":[
    {"name":"crash","cat":"recovery","ph":"i","ts":1.0,"pid":900,"tid":1,
     "args":{"audit_seq":2}},
    {"name":"restore","cat":"recovery","ph":"i","ts":2.0,"pid":900,"tid":1,
     "args":{"audit_seq":1}}
  ]})");
  EXPECT_FALSE(bad.ok);
}

TEST(Validator, RejectsTimestampRegressionOnTrack) {
  const auto check = check_text(R"({"traceEvents":[
    {"name":"a","ph":"i","ts":5.0,"pid":0,"tid":1},
    {"name":"b","ph":"i","ts":2.0,"pid":0,"tid":1}
  ]})");
  EXPECT_FALSE(check.ok);
}

// ---- recording (only when compiled in) ------------------------------------

#if PMO_TELEMETRY_ENABLED

std::string write_to_string(TraceSession& session) {
  std::ostringstream out;
  session.write(out);
  return out.str();
}

TEST(Session, InactiveEmittersAreNoOps) {
  EXPECT_FALSE(active());
  begin("ignored");
  end("ignored");
  instant("ignored");
  counter("ignored", 1.0);
  TraceSession session;
  EXPECT_TRUE(active());
  session.stop();
  EXPECT_FALSE(active());
  EXPECT_EQ(session.event_count(), 0u);
}

TEST(Session, CapturesSpanBeginEndPairs) {
  Registry reg;
  TraceSession session;
  {
    Span outer(reg, "persist");
    Span inner(reg, "merge");
  }
  instant("swap", "pmoctree", {{"epoch", 3.0}});
  const auto check = check_text(write_to_string(session));
  EXPECT_TRUE(check.ok) << check.error;
  EXPECT_EQ(check.events, 5u);   // 2 B + 2 E + 1 i
  EXPECT_EQ(check.slices, 2u);   // persist, persist.merge
  EXPECT_EQ(check.dropped, 0u);
}

TEST(Session, SurfacesDroppedEventsInMetadata) {
  TraceSession::Options opts;
  opts.buffer_capacity = 16;
  TraceSession session(opts);
  for (int i = 0; i < 100; ++i) instant("spam");
  session.stop();
  EXPECT_EQ(session.event_count(), 16u);
  EXPECT_EQ(session.dropped_events(), 84u);
  const auto check = check_text(write_to_string(session));
  EXPECT_TRUE(check.ok) << check.error;
  EXPECT_EQ(check.dropped, 84u);
}

TEST(Session, AuditEventsStayInCausalOrder) {
  TraceSession session;
  audit("bench.crash", {{"step", 5.0}});
  audit("pmoctree.can_restore", {{"ok", 1.0}});
  audit("pmoctree.restore");
  const auto check = check_text(write_to_string(session));
  EXPECT_TRUE(check.ok) << check.error;
  EXPECT_EQ(check.audit_events, 3u);
}

TEST(Session, TrackGuardRoutesEvents) {
  TraceSession session;
  {
    TrackGuard guard(7, 2);
    EXPECT_EQ(current_track().pid, 7u);
    EXPECT_EQ(current_track().tid, 2u);
    instant("on-track-7");
  }
  instant("on-default-track");
  const auto check = check_text(write_to_string(session));
  EXPECT_TRUE(check.ok) << check.error;
  EXPECT_EQ(check.tracks, 2u);
}

/// The same deterministic multi-thread workload must export byte-for-byte
/// identically across sessions: drain order is (ts, seq)-sorted and the
/// workload pins every field including timestamps, so nothing about
/// thread scheduling may leak into the file.
std::string run_deterministic_workload() {
  TraceSession session;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < 50; ++i) {
        TraceEvent ev;
        ev.type = EventType::kInstant;
        ev.pid = 100 + static_cast<std::uint32_t>(t);
        ev.tid = 1;
        // Distinct timestamps everywhere: ties would fall back to emit
        // order, which *is* scheduling-dependent.
        ev.ts_ns = static_cast<std::uint64_t>(t * 1000 + i);
        // Appended rather than concatenated: GCC 12 -O3 misreports
        // `"t" + std::to_string(t) + ...` under -Wrestrict.
        ev.name = "t";
        ev.name += std::to_string(t);
        ev.name += 'e';
        ev.name += std::to_string(i);
        ev.cat = "test";
        emit(std::move(ev));
      }
    });
  }
  for (auto& th : threads) th.join();
  return write_to_string(session);
}

TEST(Session, MultiThreadDrainIsDeterministic) {
  const std::string a = run_deterministic_workload();
  const std::string b = run_deterministic_workload();
  EXPECT_EQ(a, b);
  const auto check = check_text(a);
  EXPECT_TRUE(check.ok) << check.error;
  EXPECT_EQ(check.events, 200u);
  EXPECT_EQ(check.tracks, 4u);
}

// The trace export schema is stable: a fixed event set must serialize
// byte-for-byte like the checked-in golden file. If this fails because
// the schema deliberately changed, regenerate by dumping this session's
// write() output into tests/data/trace_golden.json — and audit
// trace2summary plus every trace consumer first.
TEST(Export, MatchesGoldenFile) {
  clear_sections();
  Section sec = register_section("nvbm0", [] {
    auto v = json::Value::object();
    v["capacity"] = 1024;
    auto buckets = json::Value::array();
    buckets.push_back(3);
    buckets.push_back(0);
    v["buckets"] = std::move(buckets);
    return v;
  });
  TraceSession session;
  name_process(0, "bench demo");
  name_process(1000, "rank 0");
  name_thread(0, 1, "compute");
  const auto ev = [](EventType type, std::uint32_t pid, std::uint32_t tid,
                     std::uint64_t ts) {
    TraceEvent e;
    e.type = type;
    e.pid = pid;
    e.tid = tid;
    e.ts_ns = ts;
    return e;
  };
  TraceEvent b = ev(EventType::kBegin, 0, 1, 1000);
  b.name = "amr.step";
  b.cat = "span";
  emit(std::move(b));
  TraceEvent x = ev(EventType::kComplete, 1000, 1, 1500);
  x.dur_ns = 2500;  // 1.5us..4us, exporter writes fixed 3-decimal us
  x.name = "Advect";
  x.cat = "cluster";
  emit(std::move(x));
  TraceEvent i = ev(EventType::kInstant, 0, 1, 2000);
  i.name = "pmoctree.version_swap";
  i.cat = "pmoctree";
  i.args.emplace_back("epoch", 3.0);
  emit(std::move(i));
  TraceEvent c = ev(EventType::kCounter, 1000, 1, 2500);
  c.name = "cluster.imbalance";
  c.cat = "counter";
  c.value = 1.25;
  emit(std::move(c));
  TraceEvent s = ev(EventType::kFlowBegin, 1000, 1, 3000);
  s.name = "step barrier";
  s.cat = "cluster";
  s.id = 1;
  emit(std::move(s));
  TraceEvent f = ev(EventType::kFlowEnd, 1000, 1, 3500);
  f.name = "step barrier";
  f.cat = "cluster";
  f.id = 1;
  emit(std::move(f));
  TraceEvent a = ev(EventType::kInstant, kRecoveryAuditPid, 1, 3800);
  a.name = "bench.crash";
  a.cat = "recovery";
  a.args.emplace_back("audit_seq", 1.0);
  emit(std::move(a));
  TraceEvent e2 = ev(EventType::kEnd, 0, 1, 4000);
  e2.name = "amr.step";
  e2.cat = "span";
  emit(std::move(e2));

  const std::string text = write_to_string(session);
  const auto check = check_text(text);
  EXPECT_TRUE(check.ok) << check.error;
  sec.reset();
  clear_sections();

  const std::string golden_path =
      std::string(PMO_TEST_DATA_DIR) + "/trace_golden.json";
  if (std::getenv("PMO_UPDATE_GOLDEN") != nullptr) {
    std::ofstream regen(golden_path, std::ios::binary);
    regen << text;
    ASSERT_TRUE(regen.good()) << "failed to regenerate " << golden_path;
  }
  std::ifstream in(golden_path);
  ASSERT_TRUE(in.is_open()) << "missing " << golden_path;
  std::stringstream want;
  want << in.rdbuf();
  EXPECT_EQ(text, want.str());
}

#endif  // PMO_TELEMETRY_ENABLED

}  // namespace
}  // namespace pmo::telemetry::trace
