// Emulated non-volatile byte-addressable memory (NVBM) device.
//
// Follows the paper's own evaluation methodology (§5.1): NVBM is modeled on
// DRAM, with extra read/write latency injected through calibrated spin
// loops (Table 2 defaults: DRAM 60/60 ns, NVBM 100/150 ns). On top of
// that, this emulator adds what a real NVDIMM has and DRAM emulation
// normally hides:
//
//  * a store-buffer/cache model — stores are *volatile* until explicitly
//    flushed (the clflush/mfence analog), so crash consistency of the data
//    structures above is actually testable;
//  * adversarial crash simulation — at a simulated power failure, each
//    dirty cache line independently either reached the durable medium
//    (spontaneous eviction) or did not;
//  * read/write accounting and per-line wear counters, used to reproduce
//    the paper's NVBM-write-reduction results (Fig. 11) and endurance
//    discussion.
//
// The emulation costs the host what a run touches, not the capacity: the
// working and durable images, the line bitmaps and the wear counters are
// anonymous mappings committed page by page on first touch, and the
// persist-point bookkeeping visits only the bitmap words written since
// the last flush_all().
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "telemetry/telemetry.hpp"

namespace pmo::nvbm {

/// How memory latency is realized.
enum class LatencyMode {
  kNone,      ///< count accesses only; no time cost (fast unit tests)
  kModeled,   ///< count accesses and accumulate modeled nanoseconds
  kInjected,  ///< count, accumulate, and really spin (paper's methodology)
};

/// Device timing/behaviour parameters. Defaults are the paper's Table 2.
struct Config {
  std::uint64_t read_ns = 100;        ///< NVBM read latency per cache line
  std::uint64_t write_ns = 150;       ///< NVBM write latency per cache line
  /// DRAM latency per cache line: charged for node-cache hits, serve
  /// reader cache hits and every PM-octree C0 access.
  std::uint64_t dram_read_ns = 60;
  std::uint64_t dram_write_ns = 60;
  std::uint64_t endurance = 100'000'000;  ///< writes/bit: 1e6–1e8 per paper
  LatencyMode latency_mode = LatencyMode::kModeled;
  bool track_wear = false;       ///< per-line write counters
  bool crash_sim = false;        ///< keep a durable shadow image
  /// Line size in bytes: flush granularity and the unit of every
  /// modeled access, NVBM and DRAM alike.
  std::size_t cache_line = 64;
};

/// Access counters, all cumulative since construction or reset_counters().
struct Counters {
  std::uint64_t reads = 0;          ///< read operations
  std::uint64_t writes = 0;         ///< write operations
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t lines_read = 0;     ///< cache-line touches (latency unit)
  std::uint64_t lines_written = 0;
  std::uint64_t flushes = 0;        ///< explicit persist (clflush) calls
  std::uint64_t barriers = 0;       ///< persist_barrier (sfence) calls
  /// Coalesced write-back extents issued by flush_all(): one per maximal
  /// run of contiguous lines written since the previous flush_all() (or
  /// crash). The per-line modeled cost is unchanged — this counts how
  /// many flush *instructions* a range-flushing persist path would issue.
  std::uint64_t flush_spans = 0;
  std::uint64_t modeled_read_ns = 0;
  std::uint64_t modeled_write_ns = 0;
  /// Reads of NVBM-resident data absorbed by a DRAM-side cache above the
  /// device (the PM-octree node cache). Charged at DRAM read latency —
  /// they never touch the medium, so they do not count into reads /
  /// lines_read / total_accesses().
  std::uint64_t cached_reads = 0;
  std::uint64_t cached_lines = 0;
  std::uint64_t modeled_cached_ns = 0;

  std::uint64_t total_accesses() const noexcept { return reads + writes; }
  double write_fraction() const noexcept {
    const auto t = total_accesses();
    return t == 0 ? 0.0 : static_cast<double>(writes) / static_cast<double>(t);
  }
  std::uint64_t modeled_ns() const noexcept {
    return modeled_read_ns + modeled_write_ns + modeled_cached_ns;
  }
};

/// The emulated NVBM DIMM: a flat byte range addressed by offsets.
///
/// Thread-compatibility: a Device is confined to one logical owner
/// (matching the paper's per-process NVBM pool); the cluster simulator
/// gives each simulated rank its own Device.
class Device {
 public:
  /// Address-range granularity of the always-on wear heatmap: the device
  /// is split into this many equal byte ranges, each counting cache-line
  /// writes. Coarse enough to cost one add per written line, fine enough
  /// to show *where* the allocator/CoW layer hammers the medium.
  static constexpr std::size_t kWearBuckets = 64;

  Device(std::size_t capacity, Config config);

  std::size_t capacity() const noexcept { return capacity_; }
  const Config& config() const noexcept { return config_; }
  const Counters& counters() const noexcept { return counters_; }
  /// Zeroes the access counters (a measurement-session boundary). Wear
  /// state intentionally SURVIVES this call — both the per-line counters
  /// (track_wear) and the per-range wear buckets: they model the physical
  /// medium's endurance, which does not reset between experiments — the
  /// Fig. 11 / ablation_wear methodology depends on that. Tests that need
  /// a factory-fresh device use reset_all().
  void reset_counters() noexcept { counters_ = Counters{}; }
  /// reset_counters() plus a wipe of ALL wear state — per-line counters
  /// and per-range wear buckets — as if the DIMM were replaced.
  /// Test-only semantics; a real device cannot un-wear.
  void reset_all() noexcept {
    reset_counters();
    wear_.zero();
    wear_buckets_.fill(0);
  }

  /// Reads `len` bytes at `offset` into `dst`, charging read latency.
  void read(std::uint64_t offset, void* dst, std::size_t len);

  /// Writes `len` bytes from `src` at `offset`, charging write latency.
  /// The bytes are NOT durable until flushed (see flush / persist_barrier)
  /// when crash simulation is enabled.
  void write(std::uint64_t offset, const void* src, std::size_t len);

  /// Typed convenience accessors.
  template <typename T>
  T load(std::uint64_t offset) {
    static_assert(std::is_trivially_copyable_v<T>);
    T value;
    read(offset, &value, sizeof(T));
    return value;
  }
  template <typename T>
  void store(std::uint64_t offset, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    write(offset, &value, sizeof(T));
  }

  /// Direct pointer into the working image. Accesses through this pointer
  /// bypass latency accounting; callers must pair it with touch_read /
  /// touch_write to keep the model honest. Used by the node accessor layer
  /// to avoid double memcpy on hot paths. A store through it must be
  /// announced with touch_write: simulate_crash() rolls back only the
  /// lines that write()/touch_write() marked dirty.
  std::byte* raw(std::uint64_t offset, std::size_t len);

  /// Accounting-only variants used together with raw().
  void touch_read(std::uint64_t offset, std::size_t len);
  void touch_write(std::uint64_t offset, std::size_t len);

  /// Accounting for a read of NVBM-resident data served by a DRAM-side
  /// cache layered above the device: charged at DRAM read latency into
  /// the cached_* counters so the modeled time reflects the hit without
  /// inflating the medium's read traffic.
  void charge_cached_read(std::size_t len);

  /// clflush analog: guarantees the given range is durable.
  void flush(std::uint64_t offset, std::size_t len);
  /// sfence analog. With our deterministic flush() this only counts, but
  /// call sites keep the real protocol visible.
  void persist_barrier();
  /// Flushes every dirty line (the whole-cache writeback at a persist
  /// point). No-op when crash simulation is off (everything is already
  /// "durable" then).
  void flush_all();
  /// Number of dirty (written, unflushed) cache lines.
  std::size_t dirty_lines() const noexcept { return dirty_count_; }

  /// Simulated power failure + reboot: every dirty line independently
  /// either reached the medium or is lost (probability `survive_p` each);
  /// the working image is then reset to the durable image. Requires
  /// Config::crash_sim. Returns how many dirty lines were lost.
  std::size_t simulate_crash(Rng& rng, double survive_p = 0.5);

  /// Maximum per-line write count (0 if wear tracking disabled).
  std::uint64_t max_wear() const noexcept;
  /// Mean per-line write count over lines ever written.
  double mean_wear() const noexcept;

  /// Per-address-range line-write counts (the wear heatmap), always on.
  const std::array<std::uint64_t, kWearBuckets>& wear_buckets()
      const noexcept {
    return wear_buckets_;
  }
  /// The heatmap as JSON: {capacity, cache_line, bucket_bytes,
  /// total_line_writes, max_bucket, buckets: [u64 x kWearBuckets]}.
  /// Embedded in trace files ("wear_heatmaps" section) and bench reports.
  telemetry::json::Value wear_heatmap_json() const;

  /// Publishes the device's access/wear counters into `reg` as gauges
  /// under `prefix` ("nvbm" -> "nvbm.writes", "nvbm.max_wear", ...).
  /// Typically installed as a pull-mode registry source so every snapshot
  /// sees fresh values:
  ///   auto src = reg.register_source(
  ///       [&dev](telemetry::Registry& r) { dev.publish(r, "nvbm"); });
  void publish(telemetry::Registry& reg, const std::string& prefix) const;

 private:
  /// Zero-initialized memory committed page by page on first touch: an
  /// anonymous private mapping, unmapped on destruction. Untouched pages
  /// read as zero and cost no host memory. Move-only.
  class LazyZeroed {
   public:
    LazyZeroed() = default;
    explicit LazyZeroed(std::size_t bytes);
    LazyZeroed(LazyZeroed&& other) noexcept;
    LazyZeroed& operator=(LazyZeroed&& other) noexcept;
    ~LazyZeroed();

    template <typename T>
    T* as() const noexcept {
      return static_cast<T*>(data_);
    }
    /// Returns the committed pages to the kernel, so the range reads as
    /// zero again without being written.
    void zero() noexcept;

   private:
    void* data_ = nullptr;
    std::size_t bytes_ = 0;
  };

  void charge_read(std::size_t lines);
  void charge_write(std::size_t lines);
  std::size_t line_span(std::uint64_t offset, std::size_t len) const noexcept;
  void mark_dirty(std::uint64_t offset, std::size_t len);
  /// Maximal runs of set bits in the written bitmap, carried across
  /// adjacent words. Requires touched_words_ sorted.
  std::size_t written_runs() const noexcept;
  /// Clears the written bitmap and the touched-word list.
  void forget_written() noexcept;
  /// Copies line `line` of the working image to the durable image.
  void evict_line(std::uint64_t line);
  /// Copies line `line` of the durable image back to the working image.
  void restore_line(std::uint64_t line);
  /// Invokes fn(line) for every dirty line in ascending order, then clears
  /// the dirty bitmap. Visits only the touched words, which must be
  /// sorted: every dirty line was written since the last flush_all().
  template <typename Fn>
  void drain_dirty(Fn&& fn);

  std::size_t capacity_;
  Config config_;
  std::size_t lines_ = 0;  ///< cache lines; the last may be partial
  LazyZeroed working_;
  LazyZeroed durable_;  ///< only when crash_sim
  /// Line bitmaps, one bit per cache line in 64-line words. `written_`
  /// holds the lines stored to since the last flush_all() or crash (the
  /// source of flush_spans); `dirty_` (only when crash_sim) the subset
  /// not yet flushed, so explicit flush() clears only `dirty_`.
  LazyZeroed written_;
  LazyZeroed dirty_;
  /// Indices of the `written_` words that went from zero to non-zero
  /// since the last flush_all() or crash; each enters once, unsorted.
  std::vector<std::uint64_t> touched_words_;
  std::size_t dirty_count_ = 0;
  LazyZeroed wear_;  ///< u32 per line, only when track_wear
  std::array<std::uint64_t, kWearBuckets> wear_buckets_{};
  Counters counters_;
};

}  // namespace pmo::nvbm
