#include "nvbm/device.hpp"

#include <algorithm>

#include "common/timing.hpp"
#include "telemetry/trace.hpp"

namespace pmo::nvbm {

Device::Device(std::size_t capacity, Config config)
    : capacity_(capacity), config_(config) {
  PMO_CHECK_MSG(capacity > 0, "device capacity must be positive");
  PMO_CHECK_MSG((config_.cache_line & (config_.cache_line - 1)) == 0,
                "cache line size must be a power of two");
  working_.resize(capacity_);
  if (config_.crash_sim) {
    durable_.resize(capacity_);
    const std::size_t lines =
        (capacity_ + config_.cache_line - 1) / config_.cache_line;
    dirty_words_.resize((lines + 63) / 64, 0);
  }
  if (config_.track_wear)
    wear_.resize((capacity_ + config_.cache_line - 1) / config_.cache_line);
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
  // Range-merging flush queue: a store contiguous with (or overlapping)
  // the previous one extends the tail entry instead of appending. The
  // allocator/CoW layer writes in rising-offset bursts, so most stores
  // collapse into the tail entry here and flush_all()'s sort/merge pass
  // sees a short queue.
  if (!span_queue_.empty() && first <= span_queue_.back().second + 1 &&
      last + 1 >= span_queue_.back().first) {
    span_queue_.back().first = std::min(span_queue_.back().first, first);
    span_queue_.back().second = std::max(span_queue_.back().second, last);
  } else {
    span_queue_.emplace_back(first, last);
  }
  for (std::uint64_t line = first; line <= last; ++line) {
    const std::size_t b = std::min<std::size_t>(
        static_cast<std::size_t>(line * config_.cache_line * kWearBuckets /
                                 capacity_),
        kWearBuckets - 1);
    ++wear_buckets_[b];
  }
  if (config_.crash_sim) {
    for (std::uint64_t line = first; line <= last; ++line) {
      const std::uint64_t mask = std::uint64_t{1} << (line & 63);
      std::uint64_t& word = dirty_words_[line >> 6];
      if ((word & mask) == 0) {
        word |= mask;
        ++dirty_count_;
      }
    }
  }
  if (config_.track_wear) {
    for (std::uint64_t line = first; line <= last; ++line) ++wear_[line];
  }
}

void Device::read(std::uint64_t offset, void* dst, std::size_t len) {
  PMO_CHECK_MSG(offset + len <= capacity_,
                "NVBM read out of range: off=" << offset << " len=" << len);
  ++counters_.reads;
  counters_.bytes_read += len;
  charge_read(line_span(offset, len));
  std::memcpy(dst, working_.data() + offset, len);
}

void Device::write(std::uint64_t offset, const void* src, std::size_t len) {
  PMO_CHECK_MSG(offset + len <= capacity_,
                "NVBM write out of range: off=" << offset << " len=" << len);
  ++counters_.writes;
  counters_.bytes_written += len;
  charge_write(line_span(offset, len));
  mark_dirty(offset, len);
  std::memcpy(working_.data() + offset, src, len);
}

std::byte* Device::raw(std::uint64_t offset, std::size_t len) {
  PMO_CHECK_MSG(offset + len <= capacity_,
                "NVBM raw access out of range: off=" << offset
                                                     << " len=" << len);
  return working_.data() + offset;
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
  std::memcpy(durable_.data() + begin, working_.data() + begin, n);
}

void Device::flush(std::uint64_t offset, std::size_t len) {
  ++counters_.flushes;
  if (!config_.crash_sim || len == 0) return;
  const std::uint64_t first = offset / config_.cache_line;
  const std::uint64_t last =
      std::min<std::uint64_t>((offset + len - 1) / config_.cache_line,
                              capacity_ / config_.cache_line);
  for (std::uint64_t line = first; line <= last; ++line) {
    const std::uint64_t mask = std::uint64_t{1} << (line & 63);
    std::uint64_t& word = dirty_words_[line >> 6];
    if ((word & mask) == 0) continue;
    evict_line(line);
    word &= ~mask;
    --dirty_count_;
  }
}

void Device::persist_barrier() { ++counters_.barriers; }

std::size_t Device::drain_spans() {
  if (span_queue_.empty()) return 0;
  std::sort(span_queue_.begin(), span_queue_.end());
  std::size_t spans = 0;
  std::uint64_t cur_last = span_queue_.front().second;
  for (std::size_t i = 1; i < span_queue_.size(); ++i) {
    const auto [first, last] = span_queue_[i];
    if (first <= cur_last + 1) {
      cur_last = std::max(cur_last, last);
    } else {
      ++spans;
      cur_last = last;
    }
  }
  ++spans;
  span_queue_.clear();
  return spans;
}

void Device::flush_all() {
  ++counters_.flushes;
  counters_.flush_spans += drain_spans();
  if (!config_.crash_sim) return;
  drain_dirty([this](std::uint64_t line) { evict_line(line); });
}

std::size_t Device::simulate_crash(Rng& rng, double survive_p) {
  PMO_CHECK_MSG(config_.crash_sim,
                "simulate_crash requires Config::crash_sim = true");
  const std::size_t dirty_at_crash = dirty_count_;
  std::size_t lost = 0;
  // Ascending line order: each dirty line independently either reached
  // the medium (spontaneous eviction) or is lost.
  drain_dirty([&](std::uint64_t line) {
    if (rng.chance(survive_p)) {
      evict_line(line);
    } else {
      ++lost;
    }
  });
  // Reboot: the CPU-visible image is whatever the medium holds, and any
  // queued (never-issued) flush extents died with the cache.
  span_queue_.clear();
  std::memcpy(working_.data(), durable_.data(), capacity_);
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
  if (wear_.empty()) return 0;
  return *std::max_element(wear_.begin(), wear_.end());
}

double Device::mean_wear() const noexcept {
  if (wear_.empty()) return 0.0;
  std::uint64_t sum = 0;
  std::uint64_t touched = 0;
  for (const auto w : wear_) {
    if (w > 0) {
      sum += w;
      ++touched;
    }
  }
  return touched == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(touched);
}

}  // namespace pmo::nvbm
