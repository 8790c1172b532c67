#include "nvbm/heap.hpp"

namespace pmo::nvbm {

namespace {
constexpr std::size_t kHeaderSize = 256;  // room for PersistentHeader
static_assert(kHeaderSize % 16 == 0);
}  // namespace

Heap::Heap(Device& device) : device_(device) {
  PMO_CHECK_MSG(device_.capacity() > kHeaderSize + 4096,
                "device too small to host a heap");
  const auto magic = device_.load<std::uint64_t>(0);
  if (magic == kMagic) {
    attach();
  } else {
    format();
  }
}

std::uint64_t Heap::heap_begin() const noexcept {
  return kHeaderSize + sizeof(ObjHeader);
}

void Heap::format() {
  PersistentHeader hdr;
  hdr.magic = kMagic;
  hdr.version = kVersion;
  hdr.capacity = device_.capacity();
  hdr.high_water = kHeaderSize;
  device_.store(0, hdr);
  device_.flush(0, sizeof(hdr));
  device_.persist_barrier();
  high_water_ = kHeaderSize;
}

void Heap::attach() {
  const auto hdr = device_.load<PersistentHeader>(0);
  PMO_CHECK_MSG(hdr.magic == kMagic, "corrupt heap header magic");
  PMO_CHECK_MSG(hdr.version == kVersion,
                "heap version mismatch: " << hdr.version);
  PMO_CHECK_MSG(hdr.capacity == device_.capacity(),
                "heap formatted for a different capacity");
  high_water_ = hdr.high_water;
  // Rebuild volatile free lists from durable object headers. Objects whose
  // header was torn by a crash before ever being linked into the tree will
  // read as neither-allocated-nor-free; treat them as free space.
  std::uint64_t at = kHeaderSize;
  while (at + sizeof(ObjHeader) <= high_water_) {
    auto oh = device_.load<ObjHeader>(at);
    const std::uint64_t payload = at + sizeof(ObjHeader);
    const std::uint64_t next = payload + rounded(oh.payload_size);
    if (oh.payload_size == 0 || next > high_water_) {
      // Torn tail allocation: everything from here up is garbage space.
      // Reset the high-water mark over it.
      write_high_water(at);
      break;
    }
    if (oh.flags != kAllocatedFlag) {
      if (oh.flags != kFreeFlag) {
        oh.flags = kFreeFlag;
        device_.store(at, oh);
        device_.flush(at, sizeof(oh));
      }
      free_lists_[rounded(oh.payload_size)].push_back(payload);
    }
    at = next;
  }
}

std::size_t Heap::rounded(std::size_t size) noexcept {
  const std::size_t min = kAlign;
  const std::size_t r = (size + kAlign - 1) & ~(kAlign - 1);
  return r < min ? min : r;
}

void Heap::write_high_water(std::uint64_t hw) {
  high_water_ = hw;
  const auto field = offsetof(PersistentHeader, high_water);
  device_.store(field, hw);
  device_.flush(field, sizeof(hw));
  device_.persist_barrier();
}

void Heap::reserve_class(std::size_t size) {
  const std::size_t klass = rounded(size);
  if (klass == fast_klass_) return;
  if (fast_klass_ != 0 && !fast_list_.empty()) {
    auto& old = free_lists_[fast_klass_];
    old.insert(old.end(), fast_list_.begin(), fast_list_.end());
    fast_list_.clear();
  }
  fast_klass_ = klass;
  if (const auto it = free_lists_.find(klass); it != free_lists_.end()) {
    fast_list_ = std::move(it->second);
    free_lists_.erase(it);
  }
}

std::uint64_t Heap::alloc(std::size_t size) {
  PMO_CHECK_MSG(size > 0 && size <= 0xffffffffu, "bad allocation size");
  const std::size_t klass = rounded(size);

  std::uint64_t reuse = 0;
  if (klass == fast_klass_ && !fast_list_.empty()) {
    reuse = fast_list_.back();
    fast_list_.pop_back();
  } else if (auto it = free_lists_.find(klass);
             it != free_lists_.end() && !it->second.empty()) {
    reuse = it->second.back();
    it->second.pop_back();
  }
  if (reuse != 0) {
    const std::uint64_t payload = reuse;
    const std::uint64_t hdr_off = payload - sizeof(ObjHeader);
    ObjHeader oh{static_cast<std::uint32_t>(size), kAllocatedFlag};
    device_.store(hdr_off, oh);
    device_.flush(hdr_off, sizeof(oh));
    return payload;
  }

  const std::uint64_t hdr_off = high_water_;
  const std::uint64_t payload = hdr_off + sizeof(ObjHeader);
  const std::uint64_t next = payload + klass;
  if (next > device_.capacity()) {
    throw OutOfSpaceError("NVBM heap exhausted: need " +
                          std::to_string(klass) + "B, high water " +
                          std::to_string(high_water_) + "/" +
                          std::to_string(device_.capacity()));
  }
  ObjHeader oh{static_cast<std::uint32_t>(size), kAllocatedFlag};
  device_.store(hdr_off, oh);
  device_.flush(hdr_off, sizeof(oh));
  write_high_water(next);
  return payload;
}

void Heap::free(std::uint64_t payload_offset) {
  const std::uint64_t hdr_off = payload_offset - sizeof(ObjHeader);
  auto oh = device_.load<ObjHeader>(hdr_off);
  PMO_CHECK_MSG(oh.flags == kAllocatedFlag,
                "double free or bad offset " << payload_offset);
  oh.flags = kFreeFlag;
  device_.store(hdr_off, oh);
  device_.flush(hdr_off, sizeof(oh));
  const std::size_t klass = rounded(oh.payload_size);
  if (klass == fast_klass_) {
    fast_list_.push_back(payload_offset);
  } else {
    free_lists_[klass].push_back(payload_offset);
  }
}

std::uint32_t Heap::payload_size(std::uint64_t payload_offset) {
  const auto oh =
      device_.load<ObjHeader>(payload_offset - sizeof(ObjHeader));
  return oh.payload_size;
}

bool Heap::is_allocated(std::uint64_t payload_offset) {
  if (payload_offset < kHeaderSize + sizeof(ObjHeader) ||
      payload_offset >= high_water_)
    return false;
  const auto oh =
      device_.load<ObjHeader>(payload_offset - sizeof(ObjHeader));
  return oh.flags == kAllocatedFlag;
}

void Heap::set_root(int slot, std::uint64_t offset) {
  PMO_CHECK_MSG(slot >= 0 && slot < kMaxRoots, "root slot out of range");
  const std::uint64_t field =
      offsetof(PersistentHeader, roots) + sizeof(std::uint64_t) * slot;
  device_.store(field, offset);
  device_.flush(field, sizeof(offset));
  device_.persist_barrier();
}

std::uint64_t Heap::root(int slot) {
  PMO_CHECK_MSG(slot >= 0 && slot < kMaxRoots, "root slot out of range");
  const std::uint64_t field =
      offsetof(PersistentHeader, roots) + sizeof(std::uint64_t) * slot;
  return device_.load<std::uint64_t>(field);
}

void Heap::for_each_object(
    const std::function<void(std::uint64_t, std::uint32_t, bool)>& fn) {
  std::uint64_t at = kHeaderSize;
  while (at + sizeof(ObjHeader) <= high_water_) {
    const auto oh = device_.load<ObjHeader>(at);
    const std::uint64_t payload = at + sizeof(ObjHeader);
    if (oh.payload_size == 0) break;
    fn(payload, oh.payload_size, oh.flags == kAllocatedFlag);
    at = payload + rounded(oh.payload_size);
  }
}

std::size_t Heap::sweep(const std::function<bool(std::uint64_t)>& live) {
  std::vector<std::uint64_t> dead;
  for_each_object([&](std::uint64_t payload, std::uint32_t, bool allocated) {
    if (allocated && !live(payload)) dead.push_back(payload);
  });
  for (const auto payload : dead) free(payload);
  return dead.size();
}

HeapStats Heap::stats() {
  HeapStats s;
  s.capacity = device_.capacity();
  s.high_water = high_water_;
  for_each_object([&](std::uint64_t, std::uint32_t size, bool allocated) {
    if (allocated) {
      s.live_bytes += size;
      ++s.live_objects;
    } else {
      s.free_bytes += size;
      ++s.free_objects;
    }
  });
  return s;
}

}  // namespace pmo::nvbm
