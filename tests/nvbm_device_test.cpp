// Tests for the NVBM device emulator: accounting, latency model, store
// buffer and crash simulation.
#include "nvbm/device.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <set>
#include <vector>

namespace pmo::nvbm {
namespace {

Config fast_config() {
  Config c;
  c.latency_mode = LatencyMode::kModeled;
  return c;
}

TEST(Device, ReadWriteRoundTrips) {
  Device dev(1 << 16, fast_config());
  const std::uint64_t value = 0xdeadbeefcafef00dull;
  dev.store(128, value);
  EXPECT_EQ(dev.load<std::uint64_t>(128), value);
}

TEST(Device, RangeChecked) {
  Device dev(4096, fast_config());
  std::uint64_t v = 0;
  EXPECT_THROW(dev.write(4090, &v, 8), ContractError);
  EXPECT_THROW(dev.read(4096, &v, 1), ContractError);
  EXPECT_NO_THROW(dev.write(4088, &v, 8));
  EXPECT_THROW(dev.flush(4090, 8), ContractError);

  // With crash_sim the line bitmap ends at the last line: a flush past the
  // capacity must be refused, not index one word past the bitmap.
  Config cfg = fast_config();
  cfg.crash_sim = true;
  Device crash_dev(4096, cfg);
  crash_dev.write(4088, &v, 8);
  EXPECT_THROW(crash_dev.flush(4090, 8), ContractError);
  EXPECT_EQ(crash_dev.dirty_lines(), 1u);
  EXPECT_NO_THROW(crash_dev.flush(4088, 8));
  EXPECT_EQ(crash_dev.dirty_lines(), 0u);
}

TEST(Device, CountsReadsAndWrites) {
  Device dev(1 << 16, fast_config());
  std::uint32_t v = 7;
  dev.write(0, &v, sizeof(v));
  dev.write(64, &v, sizeof(v));
  dev.read(0, &v, sizeof(v));
  const auto& c = dev.counters();
  EXPECT_EQ(c.writes, 2u);
  EXPECT_EQ(c.reads, 1u);
  EXPECT_EQ(c.bytes_written, 8u);
  EXPECT_EQ(c.bytes_read, 4u);
  EXPECT_NEAR(c.write_fraction(), 2.0 / 3.0, 1e-12);
}

TEST(Device, ModeledLatencyUsesTable2Numbers) {
  Config cfg = fast_config();  // read 100ns, write 150ns per line
  Device dev(1 << 16, cfg);
  std::uint32_t v = 1;
  dev.write(0, &v, sizeof(v));  // 1 line
  dev.read(0, &v, sizeof(v));   // 1 line
  EXPECT_EQ(dev.counters().modeled_write_ns, 150u);
  EXPECT_EQ(dev.counters().modeled_read_ns, 100u);
}

TEST(Device, MultiLineAccessChargesPerLine) {
  Device dev(1 << 16, fast_config());
  std::vector<std::byte> buf(200);
  dev.write(32, buf.data(), buf.size());  // spans lines 0..3 => 4 lines
  EXPECT_EQ(dev.counters().lines_written, 4u);
  EXPECT_EQ(dev.counters().modeled_write_ns, 4u * 150u);
}

TEST(Device, LatencyModeNoneChargesNothing) {
  Config cfg;
  cfg.latency_mode = LatencyMode::kNone;
  Device dev(1 << 16, cfg);
  std::uint64_t v = 0;
  dev.write(0, &v, 8);
  EXPECT_EQ(dev.counters().modeled_ns(), 0u);
  EXPECT_EQ(dev.counters().writes, 1u);  // still counted
}

TEST(Device, InjectedLatencyActuallySpins) {
  Config cfg;
  cfg.latency_mode = LatencyMode::kInjected;
  cfg.write_ns = 30000;  // large enough to measure
  Device dev(1 << 16, cfg);
  std::uint64_t v = 1;
  {
    const auto t0 = std::chrono::steady_clock::now();
    dev.write(0, &v, 8);
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    EXPECT_GE(ns, 20000);
  }
}

TEST(Device, WearTracking) {
  Config cfg = fast_config();
  cfg.track_wear = true;
  Device dev(1 << 16, cfg);
  std::uint64_t v = 0;
  for (int i = 0; i < 10; ++i) dev.write(0, &v, 8);
  dev.write(4096, &v, 8);
  EXPECT_EQ(dev.max_wear(), 10u);
  EXPECT_NEAR(dev.mean_wear(), (10.0 + 1.0) / 2.0, 1e-12);
}

TEST(Device, DirtyLinesTrackedAndFlushed) {
  Config cfg = fast_config();
  cfg.crash_sim = true;
  Device dev(1 << 16, cfg);
  std::uint64_t v = 42;
  dev.write(0, &v, 8);
  dev.write(128, &v, 8);
  EXPECT_EQ(dev.dirty_lines(), 2u);
  dev.flush(0, 8);
  EXPECT_EQ(dev.dirty_lines(), 1u);
  dev.flush_all();
  EXPECT_EQ(dev.dirty_lines(), 0u);
}

TEST(Device, FlushedDataSurvivesCrash) {
  Config cfg = fast_config();
  cfg.crash_sim = true;
  Device dev(1 << 16, cfg);
  const std::uint64_t value = 0x1234567890abcdefull;
  dev.store(256, value);
  dev.flush(256, 8);
  dev.persist_barrier();
  Rng rng(1);
  dev.simulate_crash(rng, /*survive_p=*/0.0);
  EXPECT_EQ(dev.load<std::uint64_t>(256), value);
}

TEST(Device, UnflushedDataLostWhenNothingSurvives) {
  Config cfg = fast_config();
  cfg.crash_sim = true;
  Device dev(1 << 16, cfg);
  const std::uint64_t value = 0x1111111111111111ull;
  dev.store(256, value);  // never flushed
  Rng rng(1);
  const auto lost = dev.simulate_crash(rng, /*survive_p=*/0.0);
  EXPECT_EQ(lost, 1u);
  EXPECT_EQ(dev.load<std::uint64_t>(256), 0u);
}

TEST(Device, UnflushedDataMaySurviveEviction) {
  Config cfg = fast_config();
  cfg.crash_sim = true;
  Device dev(1 << 16, cfg);
  const std::uint64_t value = 0x2222222222222222ull;
  dev.store(256, value);
  Rng rng(1);
  dev.simulate_crash(rng, /*survive_p=*/1.0);
  EXPECT_EQ(dev.load<std::uint64_t>(256), value);
}

TEST(Device, CrashIsAdversarialPerLine) {
  // With survive_p = 0.5 over many lines, some survive and some do not.
  Config cfg = fast_config();
  cfg.crash_sim = true;
  Device dev(1 << 20, cfg);
  const std::uint64_t value = ~0ull;
  for (int i = 0; i < 200; ++i)
    dev.store(static_cast<std::uint64_t>(i) * 64, value);
  Rng rng(33);
  const auto lost = dev.simulate_crash(rng, 0.5);
  EXPECT_GT(lost, 50u);
  EXPECT_LT(lost, 150u);
}

TEST(Device, CrashRequiresCrashSim) {
  Device dev(1 << 16, fast_config());
  Rng rng(1);
  EXPECT_THROW(dev.simulate_crash(rng), ContractError);
}

// Brute-force model of the store buffer: the set of lines written since
// the last flush_all() (flush_spans counts its maximal runs), the set of
// dirty lines, and both images as plain byte vectors.
struct ReferenceDevice {
  std::size_t line;
  std::vector<std::byte> working;
  std::vector<std::byte> durable;
  std::set<std::uint64_t> written;
  std::set<std::uint64_t> dirty;

  ReferenceDevice(std::size_t capacity, std::size_t line_bytes)
      : line(line_bytes), working(capacity), durable(capacity) {}

  void write(std::uint64_t off, const std::byte* src, std::size_t len) {
    std::copy(src, src + len, working.begin() + static_cast<long>(off));
    for (auto l = off / line; l <= (off + len - 1) / line; ++l) {
      written.insert(l);
      dirty.insert(l);
    }
  }
  void evict(std::uint64_t l) {
    const auto begin = static_cast<long>(l * line);
    const auto end =
        std::min(begin + static_cast<long>(line),
                 static_cast<long>(working.size()));
    std::copy(working.begin() + begin, working.begin() + end,
              durable.begin() + begin);
  }
  void flush(std::uint64_t off, std::size_t len) {
    for (auto l = off / line; l <= (off + len - 1) / line; ++l)
      if (dirty.erase(l) != 0) evict(l);
  }
  std::size_t flush_all() {
    std::size_t runs = 0;
    for (const auto l : written) runs += (l == 0 || !written.count(l - 1));
    for (const auto l : dirty) evict(l);
    dirty.clear();
    written.clear();
    return runs;
  }
  std::size_t crash(Rng& rng, double survive_p) {
    std::size_t lost = 0;
    for (const auto l : dirty) {
      if (rng.chance(survive_p)) {
        evict(l);
      } else {
        ++lost;
      }
    }
    dirty.clear();
    written.clear();
    working = durable;
    return lost;
  }
};

// Random store/flush/flush_all/crash sequences against ReferenceDevice:
// flush_spans, dirty_lines(), the lost count and the image after a crash
// must all match exactly.
void run_store_buffer_differential(std::size_t capacity, bool crash_sim,
                                   std::uint64_t seed) {
  SCOPED_TRACE(::testing::Message() << "capacity=" << capacity << " crash_sim="
                                    << crash_sim << " seed=" << seed);
  Config cfg = fast_config();
  cfg.crash_sim = crash_sim;
  Device dev(capacity, cfg);
  const std::size_t line = cfg.cache_line;
  const std::uint64_t lines = (capacity + line - 1) / line;
  ReferenceDevice ref(capacity, line);
  Rng rng(seed);
  std::vector<std::byte> buf(8 * line);

  // Stores of every shape: within one line, across several lines, ending
  // or starting at a 64-line word boundary, and covering the last line.
  const auto store_extent = [&]() -> std::pair<std::uint64_t, std::size_t> {
    switch (rng.below(5)) {
      case 0: {
        const std::uint64_t off = rng.below(capacity);
        const std::uint64_t room = line - off % line;
        return {off, 1 + rng.below(std::min<std::uint64_t>(
                             room, capacity - off))};
      }
      case 1: {
        const std::uint64_t off = rng.below(capacity);
        return {off, 1 + rng.below(std::min<std::uint64_t>(
                             buf.size(), capacity - off))};
      }
      case 2: {
        const std::uint64_t word = 1 + rng.below((lines - 1) / 64);
        const std::uint64_t off = word * 64 * line - (1 + rng.below(2 * line));
        return {off, std::min<std::uint64_t>(1 + rng.below(buf.size()),
                                             capacity - off)};
      }
      case 3: {
        const std::uint64_t word = 1 + rng.below((lines - 1) / 64);
        const std::uint64_t off = word * 64 * line + rng.below(line);
        return {off, std::min<std::uint64_t>(1 + rng.below(buf.size()),
                                             capacity - off)};
      }
      default: {
        const std::uint64_t off = (lines - 1) * line + rng.below(8);
        return {off, capacity - off};
      }
    }
  };

  for (int step = 0; step < 3000; ++step) {
    const std::uint64_t op = rng.below(100);
    if (op < 75) {
      const auto [off, len] = store_extent();
      for (std::size_t i = 0; i < len; ++i)
        buf[i] = static_cast<std::byte>(rng.below(256));
      dev.write(off, buf.data(), len);
      ref.write(off, buf.data(), len);
    } else if (op < 87) {
      const auto [off, len] = store_extent();
      dev.flush(off, len);
      ref.flush(off, len);
    } else if (op < 95 || !crash_sim) {
      const auto before = dev.counters().flush_spans;
      dev.flush_all();
      ASSERT_EQ(dev.counters().flush_spans - before, ref.flush_all())
          << "step " << step;
    } else {
      const double survive_p = rng.uniform();
      Rng ref_rng = rng;
      ASSERT_EQ(dev.simulate_crash(rng, survive_p),
                ref.crash(ref_rng, survive_p))
          << "step " << step;
      ASSERT_TRUE(std::equal(ref.working.begin(), ref.working.end(),
                             dev.raw(0, capacity)))
          << "step " << step;
    }
    ASSERT_EQ(dev.dirty_lines(), crash_sim ? ref.dirty.size() : 0u)
        << "step " << step;
  }
  ASSERT_TRUE(std::equal(ref.working.begin(), ref.working.end(),
                         dev.raw(0, capacity)));
}

TEST(Device, StoreBufferMatchesReferenceModel) {
  // 357 lines: not a multiple of 64, so the last bitmap word is partial;
  // the second capacity also ends in a partial cache line.
  for (const std::size_t capacity : {std::size_t{357} * 64,
                                     std::size_t{357} * 64 - 24}) {
    for (const bool crash_sim : {false, true}) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed)
        run_store_buffer_differential(capacity, crash_sim, seed);
    }
  }
}

std::size_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::size_t size_pages = 0;
  std::size_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

TEST(Device, CommitsOnlyTouchedMemory) {
  // A 256 MiB device with a durable image and wear counters must not cost
  // its capacity in host memory: only the pages a run touches commit, and
  // reset_all() drops the wear pages instead of filling them.
  Config cfg = fast_config();
  cfg.crash_sim = true;
  cfg.track_wear = true;
  const std::size_t before = resident_bytes();
  ASSERT_GT(before, 0u);
  {
    Device dev(std::size_t{256} << 20, cfg);
    const std::uint64_t value = 0x5555555555555555ull;
    for (std::uint64_t i = 0; i < 16; ++i) dev.store(i * 4096, value);
    dev.flush(0, 8);
    dev.flush_all();
    for (std::uint64_t i = 0; i < 16; ++i) dev.store(i * 4096 + 64, value);
    Rng rng(7);
    dev.simulate_crash(rng, 0.5);
    EXPECT_EQ(dev.max_wear(), 1u);
    dev.reset_all();
    EXPECT_EQ(dev.max_wear(), 0u);
    EXPECT_LT(resident_bytes(), before + (std::size_t{8} << 20));
  }
}

TEST(Device, ResetCountersClears) {
  Device dev(1 << 16, fast_config());
  std::uint64_t v = 0;
  dev.write(0, &v, 8);
  dev.reset_counters();
  EXPECT_EQ(dev.counters().writes, 0u);
  EXPECT_EQ(dev.counters().modeled_ns(), 0u);
}

TEST(Device, WearSurvivesResetCounters) {
  // reset_counters() deliberately keeps per-line wear: wear models device
  // endurance, which no software event can undo. Benches rely on this to
  // reset access accounting mid-run while endurance keeps accumulating.
  Config cfg = fast_config();
  cfg.track_wear = true;
  Device dev(1 << 16, cfg);
  std::uint64_t v = 0;
  for (int i = 0; i < 5; ++i) dev.write(0, &v, 8);
  dev.reset_counters();
  EXPECT_EQ(dev.counters().writes, 0u);
  EXPECT_EQ(dev.max_wear(), 5u);
}

TEST(Device, ResetAllClearsWearToo) {
  Config cfg = fast_config();
  cfg.track_wear = true;
  Device dev(1 << 16, cfg);
  std::uint64_t v = 0;
  for (int i = 0; i < 5; ++i) dev.write(0, &v, 8);
  dev.reset_all();
  EXPECT_EQ(dev.counters().writes, 0u);
  EXPECT_EQ(dev.max_wear(), 0u);
  EXPECT_EQ(dev.mean_wear(), 0.0);
}

TEST(Device, WearBucketsSurviveResetCountersNotResetAll) {
  // The bucketed wear map obeys the same contract as per-line wear:
  // reset_counters() keeps it (endurance models the medium, software
  // cannot undo it), reset_all() wipes it (fresh device).
  Device dev(1 << 16, fast_config());
  std::uint64_t v = 0;
  dev.write(0, &v, 8);               // first line -> bucket 0
  dev.write((1 << 16) - 8, &v, 8);   // last line -> bucket 63
  EXPECT_EQ(dev.wear_buckets().front(), 1u);
  EXPECT_EQ(dev.wear_buckets().back(), 1u);
  dev.reset_counters();
  EXPECT_EQ(dev.counters().writes, 0u);
  EXPECT_EQ(dev.wear_buckets().front(), 1u);
  EXPECT_EQ(dev.wear_buckets().back(), 1u);
  dev.reset_all();
  EXPECT_EQ(dev.wear_buckets().front(), 0u);
  EXPECT_EQ(dev.wear_buckets().back(), 0u);
}

TEST(Device, WearHeatmapJsonShape) {
  Device dev(1 << 16, fast_config());
  std::uint64_t v = 0;
  dev.write(0, &v, 8);
  dev.write(64, &v, 8);
  const auto heat = dev.wear_heatmap_json();
  EXPECT_EQ(heat.find("capacity")->as_double(), 65536.0);
  EXPECT_EQ(heat.find("total_line_writes")->as_double(), 2.0);
  EXPECT_EQ(heat.find("max_bucket")->as_double(), 2.0);
  ASSERT_NE(heat.find("buckets"), nullptr);
  EXPECT_EQ(heat.find("buckets")->size(), Device::kWearBuckets);
  EXPECT_EQ(heat.find("buckets")->at(0).as_double(), 2.0);
}

#if PMO_TELEMETRY_ENABLED
TEST(Device, PublishExportsGauges) {
  Config cfg = fast_config();
  cfg.track_wear = true;
  Device dev(1 << 16, cfg);
  std::uint64_t v = 0;
  dev.write(0, &v, 8);
  dev.read(0, &v, 8);

  telemetry::Registry reg;
  dev.publish(reg, "dev");
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.gauge("dev.writes"), 1.0);
  EXPECT_EQ(snap.gauge("dev.reads"), 1.0);
  EXPECT_GT(snap.gauge("dev.modeled_write_ns"), 0.0);
  EXPECT_EQ(snap.gauge("dev.max_wear"), 1.0);
}
#endif  // PMO_TELEMETRY_ENABLED

}  // namespace
}  // namespace pmo::nvbm
