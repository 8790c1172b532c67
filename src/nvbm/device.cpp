#include "nvbm/device.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#include "common/timing.hpp"
#include "telemetry/trace.hpp"

namespace pmo::nvbm {

namespace {

/// Calls fn(w, mask) for each 64-line bitmap word overlapping lines
/// [first, last]; `mask` selects the lines of the range within word w.
template <typename Fn>
void for_each_word(std::uint64_t first, std::uint64_t last, Fn&& fn) {
  for (std::uint64_t w = first >> 6; w <= last >> 6; ++w) {
    const std::uint64_t lo = w == first >> 6 ? first & 63 : 0;
    const std::uint64_t hi = w == last >> 6 ? last & 63 : 63;
    fn(w, (~std::uint64_t{0} << lo) & (~std::uint64_t{0} >> (63 - hi)));
  }
}

}  // namespace

Device::LazyZeroed::LazyZeroed(std::size_t bytes) : bytes_(bytes) {
  data_ = mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
               MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  PMO_CHECK_MSG(data_ != MAP_FAILED,
                "NVBM device mapping of " << bytes_ << " bytes failed");
}

Device::LazyZeroed::LazyZeroed(LazyZeroed&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      bytes_(std::exchange(other.bytes_, 0)) {}

Device::LazyZeroed& Device::LazyZeroed::operator=(
    LazyZeroed&& other) noexcept {
  std::swap(data_, other.data_);
  std::swap(bytes_, other.bytes_);
  return *this;
}

Device::LazyZeroed::~LazyZeroed() {
  if (data_ != nullptr) munmap(data_, bytes_);
}

void Device::LazyZeroed::zero() noexcept {
  if (data_ != nullptr && madvise(data_, bytes_, MADV_DONTNEED) != 0)
    std::memset(data_, 0, bytes_);
}

Device::Device(std::size_t capacity, Config config)
    : capacity_(capacity), config_(config) {
  PMO_CHECK_MSG(capacity > 0, "device capacity must be positive");
  PMO_CHECK_MSG((config_.cache_line & (config_.cache_line - 1)) == 0,
                "cache line size must be a power of two");
  lines_ = (capacity_ + config_.cache_line - 1) / config_.cache_line;
  const std::size_t bitmap_bytes = (lines_ + 63) / 64 * sizeof(std::uint64_t);
  working_ = LazyZeroed(capacity_);
  written_ = LazyZeroed(bitmap_bytes);
  if (config_.crash_sim) {
    durable_ = LazyZeroed(capacity_);
    dirty_ = LazyZeroed(bitmap_bytes);
  }
  if (config_.track_wear) wear_ = LazyZeroed(lines_ * sizeof(std::uint32_t));
}

std::size_t Device::line_span(std::uint64_t offset,
                              std::size_t len) const noexcept {
  if (len == 0) return 0;
  const std::uint64_t first = offset / config_.cache_line;
  const std::uint64_t last = (offset + len - 1) / config_.cache_line;
  return static_cast<std::size_t>(last - first + 1);
}

void Device::charge_read(std::size_t lines) {
  counters_.lines_read += lines;
  switch (config_.latency_mode) {
    case LatencyMode::kNone:
      break;
    case LatencyMode::kModeled:
      counters_.modeled_read_ns += lines * config_.read_ns;
      break;
    case LatencyMode::kInjected:
      counters_.modeled_read_ns += lines * config_.read_ns;
      spin_ns(lines * config_.read_ns);
      break;
  }
}

void Device::charge_write(std::size_t lines) {
  counters_.lines_written += lines;
  switch (config_.latency_mode) {
    case LatencyMode::kNone:
      break;
    case LatencyMode::kModeled:
      counters_.modeled_write_ns += lines * config_.write_ns;
      break;
    case LatencyMode::kInjected:
      counters_.modeled_write_ns += lines * config_.write_ns;
      spin_ns(lines * config_.write_ns);
      break;
  }
}

void Device::mark_dirty(std::uint64_t offset, std::size_t len) {
  if (len == 0) return;
  const std::uint64_t first = offset / config_.cache_line;
  const std::uint64_t last = (offset + len - 1) / config_.cache_line;
  for (std::uint64_t line = first; line <= last; ++line) {
    const std::size_t b = std::min<std::size_t>(
        static_cast<std::size_t>(line * config_.cache_line * kWearBuckets /
                                 capacity_),
        kWearBuckets - 1);
    ++wear_buckets_[b];
  }
  auto* written = written_.as<std::uint64_t>();
  auto* dirty = dirty_.as<std::uint64_t>();
  for_each_word(first, last, [&](std::uint64_t w, std::uint64_t mask) {
    if (written[w] == 0) touched_words_.push_back(w);
    written[w] |= mask;
    if (config_.crash_sim) {
      dirty_count_ += static_cast<std::size_t>(std::popcount(mask & ~dirty[w]));
      dirty[w] |= mask;
    }
  });
  if (config_.track_wear) {
    auto* wear = wear_.as<std::uint32_t>();
    for (std::uint64_t line = first; line <= last; ++line) ++wear[line];
  }
}

void Device::read(std::uint64_t offset, void* dst, std::size_t len) {
  PMO_CHECK_MSG(offset + len <= capacity_,
                "NVBM read out of range: off=" << offset << " len=" << len);
  ++counters_.reads;
  counters_.bytes_read += len;
  charge_read(line_span(offset, len));
  std::memcpy(dst, working_.as<std::byte>() + offset, len);
}

void Device::write(std::uint64_t offset, const void* src, std::size_t len) {
  PMO_CHECK_MSG(offset + len <= capacity_,
                "NVBM write out of range: off=" << offset << " len=" << len);
  ++counters_.writes;
  counters_.bytes_written += len;
  charge_write(line_span(offset, len));
  mark_dirty(offset, len);
  std::memcpy(working_.as<std::byte>() + offset, src, len);
}

std::byte* Device::raw(std::uint64_t offset, std::size_t len) {
  PMO_CHECK_MSG(offset + len <= capacity_,
                "NVBM raw access out of range: off=" << offset
                                                     << " len=" << len);
  return working_.as<std::byte>() + offset;
}

void Device::touch_read(std::uint64_t offset, std::size_t len) {
  ++counters_.reads;
  counters_.bytes_read += len;
  charge_read(line_span(offset, len));
}

void Device::touch_write(std::uint64_t offset, std::size_t len) {
  ++counters_.writes;
  counters_.bytes_written += len;
  charge_write(line_span(offset, len));
  mark_dirty(offset, len);
}

void Device::charge_cached_read(std::size_t len) {
  ++counters_.cached_reads;
  const std::size_t lines =
      (len + config_.cache_line - 1) / config_.cache_line;
  counters_.cached_lines += lines;
  switch (config_.latency_mode) {
    case LatencyMode::kNone:
      break;
    case LatencyMode::kModeled:
      counters_.modeled_cached_ns += lines * config_.dram_read_ns;
      break;
    case LatencyMode::kInjected:
      counters_.modeled_cached_ns += lines * config_.dram_read_ns;
      spin_ns(lines * config_.dram_read_ns);
      break;
  }
}

void Device::evict_line(std::uint64_t line) {
  const std::uint64_t begin = line * config_.cache_line;
  const std::size_t n =
      std::min<std::size_t>(config_.cache_line, capacity_ - begin);
  std::memcpy(durable_.as<std::byte>() + begin,
              working_.as<std::byte>() + begin, n);
}

void Device::restore_line(std::uint64_t line) {
  const std::uint64_t begin = line * config_.cache_line;
  const std::size_t n =
      std::min<std::size_t>(config_.cache_line, capacity_ - begin);
  std::memcpy(working_.as<std::byte>() + begin,
              durable_.as<std::byte>() + begin, n);
}

void Device::flush(std::uint64_t offset, std::size_t len) {
  PMO_CHECK_MSG(offset + len <= capacity_,
                "NVBM flush out of range: off=" << offset << " len=" << len);
  ++counters_.flushes;
  if (!config_.crash_sim || len == 0) return;
  auto* dirty = dirty_.as<std::uint64_t>();
  for_each_word(offset / config_.cache_line,
                (offset + len - 1) / config_.cache_line,
                [&](std::uint64_t w, std::uint64_t mask) {
                  std::uint64_t hit = dirty[w] & mask;
                  if (hit == 0) return;
                  dirty[w] &= ~mask;
                  dirty_count_ -= static_cast<std::size_t>(std::popcount(hit));
                  for (; hit != 0; hit &= hit - 1)
                    evict_line(w * 64 + static_cast<unsigned>(
                                            std::countr_zero(hit)));
                });
}

void Device::persist_barrier() { ++counters_.barriers; }

std::size_t Device::written_runs() const noexcept {
  const auto* written = written_.as<std::uint64_t>();
  std::size_t runs = 0;
  std::uint64_t carry = 0;  // bit 63 of the previous word, if adjacent
  std::uint64_t next = 0;   // the word index that `carry` belongs before
  for (const std::uint64_t w : touched_words_) {
    const std::uint64_t word = written[w];
    if (w != next) carry = 0;
    // A run starts at a set bit whose previous line is clear.
    runs += static_cast<std::size_t>(
        std::popcount(word & ~((word << 1) | carry)));
    carry = word >> 63;
    next = w + 1;
  }
  return runs;
}

void Device::forget_written() noexcept {
  auto* written = written_.as<std::uint64_t>();
  for (const std::uint64_t w : touched_words_) written[w] = 0;
  touched_words_.clear();
}

template <typename Fn>
void Device::drain_dirty(Fn&& fn) {
  auto* dirty = dirty_.as<std::uint64_t>();
  for (const std::uint64_t w : touched_words_) {
    for (std::uint64_t word = std::exchange(dirty[w], 0); word != 0;
         word &= word - 1)
      fn(w * 64 + static_cast<unsigned>(std::countr_zero(word)));
  }
  dirty_count_ = 0;
}

void Device::flush_all() {
  ++counters_.flushes;
  std::sort(touched_words_.begin(), touched_words_.end());
  counters_.flush_spans += written_runs();
  if (config_.crash_sim)
    drain_dirty([this](std::uint64_t line) { evict_line(line); });
  forget_written();
}

std::size_t Device::simulate_crash(Rng& rng, double survive_p) {
  PMO_CHECK_MSG(config_.crash_sim,
                "simulate_crash requires Config::crash_sim = true");
  const std::size_t dirty_at_crash = dirty_count_;
  std::size_t lost = 0;
  // Ascending line order: each dirty line independently either reached
  // the medium (spontaneous eviction) or is lost, and the reboot reloads
  // it from the medium. Every other line already equals its durable copy.
  std::sort(touched_words_.begin(), touched_words_.end());
  drain_dirty([&](std::uint64_t line) {
    if (rng.chance(survive_p)) {
      evict_line(line);
    } else {
      restore_line(line);
      ++lost;
    }
  });
  // Flush extents that were never issued died with the cache.
  forget_written();
  telemetry::trace::audit(
      "nvbm.crash", {{"dirty_lines", static_cast<double>(dirty_at_crash)},
                     {"lost_lines", static_cast<double>(lost)}});
  return lost;
}

void Device::publish(telemetry::Registry& reg,
                     const std::string& prefix) const {
  const auto gauge = [&](const char* name, double v) {
    reg.gauge(prefix + "." + name).set(v);
  };
  gauge("reads", static_cast<double>(counters_.reads));
  gauge("writes", static_cast<double>(counters_.writes));
  gauge("bytes_read", static_cast<double>(counters_.bytes_read));
  gauge("bytes_written", static_cast<double>(counters_.bytes_written));
  gauge("lines_read", static_cast<double>(counters_.lines_read));
  gauge("lines_written", static_cast<double>(counters_.lines_written));
  gauge("flushes", static_cast<double>(counters_.flushes));
  gauge("barriers", static_cast<double>(counters_.barriers));
  gauge("flush_spans", static_cast<double>(counters_.flush_spans));
  gauge("modeled_read_ns",
        static_cast<double>(counters_.modeled_read_ns));
  gauge("modeled_write_ns",
        static_cast<double>(counters_.modeled_write_ns));
  gauge("cached_reads", static_cast<double>(counters_.cached_reads));
  gauge("cached_lines", static_cast<double>(counters_.cached_lines));
  gauge("modeled_cached_ns",
        static_cast<double>(counters_.modeled_cached_ns));
  gauge("write_fraction", counters_.write_fraction());
  gauge("dirty_lines", static_cast<double>(dirty_count_));
  if (config_.track_wear) {
    gauge("max_wear", static_cast<double>(max_wear()));
    gauge("mean_wear", mean_wear());
  }
}

telemetry::json::Value Device::wear_heatmap_json() const {
  auto out = telemetry::json::Value::object();
  out["capacity"] = capacity_;
  out["cache_line"] = config_.cache_line;
  out["bucket_bytes"] = (capacity_ + kWearBuckets - 1) / kWearBuckets;
  std::uint64_t total = 0;
  std::uint64_t max_bucket = 0;
  auto buckets = telemetry::json::Value::array();
  for (const auto w : wear_buckets_) {
    total += w;
    max_bucket = std::max(max_bucket, w);
    buckets.push_back(w);
  }
  out["total_line_writes"] = total;
  out["max_bucket"] = max_bucket;
  out["buckets"] = std::move(buckets);
  return out;
}

std::uint64_t Device::max_wear() const noexcept {
  if (!config_.track_wear) return 0;
  const auto* wear = wear_.as<std::uint32_t>();
  return *std::max_element(wear, wear + lines_);
}

double Device::mean_wear() const noexcept {
  if (!config_.track_wear) return 0.0;
  const auto* wear = wear_.as<std::uint32_t>();
  std::uint64_t sum = 0;
  std::uint64_t touched = 0;
  for (std::size_t line = 0; line < lines_; ++line) {
    if (wear[line] > 0) {
      sum += wear[line];
      ++touched;
    }
  }
  return touched == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(touched);
}

}  // namespace pmo::nvbm
