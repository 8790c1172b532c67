#include "nvbm/heap.hpp"

#include <bit>
#include <cstddef>
#include <string>

namespace pmo::nvbm {

namespace {
constexpr std::uint64_t kHeaderSize = 256;  // room for PersistentHeader
static_assert(kHeaderSize % 64 == 0 && Heap::kSlotBytes % 64 == 0,
              "slots start on cache-line boundaries");
}  // namespace

Heap::Heap(Device& device) : device_(device) {
  PMO_CHECK_MSG(device_.capacity() > kHeaderSize + 4096,
                "device too small to host a heap");
  static_assert(sizeof(PersistentHeader) <= kHeaderSize);
  const auto hdr = device_.load<PersistentHeader>(0);
  if (hdr.magic == kMagic) {
    attach(hdr);
  } else {
    format();
  }
}

std::uint64_t Heap::heap_begin() const noexcept { return kHeaderSize; }

std::uint64_t Heap::high_water() const noexcept {
  return kHeaderSize + slots_ * kSlotBytes;
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
}

void Heap::attach(const PersistentHeader& hdr) {
  PMO_CHECK_MSG(hdr.version == kVersion,
                "heap version mismatch: " << hdr.version);
  PMO_CHECK_MSG(hdr.capacity == device_.capacity(),
                "heap formatted for a different capacity");
  PMO_CHECK_MSG(hdr.high_water >= kHeaderSize &&
                    hdr.high_water <= device_.capacity() &&
                    (hdr.high_water - kHeaderSize) % kSlotBytes == 0,
                "corrupt heap high-water mark " << hdr.high_water);
  // Every slot below the durable mark may be reachable from a durable
  // root: count it allocated until the owner sweeps by reachability.
  slots_ = durable_slots_ = (hdr.high_water - kHeaderSize) / kSlotBytes;
  live_ = slots_;
  allocated_.assign((slots_ + 63) / 64, ~std::uint64_t{0});
  if (slots_ % 64 != 0) allocated_.back() >>= 64 - slots_ % 64;
}

std::uint64_t Heap::alloc() {
  std::uint64_t offset = 0;
  if (!free_.empty()) {
    offset = free_.back();
    free_.pop_back();
  } else {
    offset = high_water();
    if (offset + kSlotBytes > device_.capacity()) {
      throw OutOfSpaceError("NVBM heap exhausted: high water " +
                            std::to_string(offset) + "/" +
                            std::to_string(device_.capacity()));
    }
    if (slots_ % 64 == 0) allocated_.push_back(0);
    ++slots_;
  }
  const std::uint64_t slot = (offset - kHeaderSize) / kSlotBytes;
  allocated_[slot / 64] |= std::uint64_t{1} << (slot % 64);
  ++live_;
  return offset;
}

void Heap::free(std::uint64_t offset) {
  PMO_CHECK_MSG(is_allocated(offset),
                "double free or bad offset " << offset);
  const std::uint64_t slot = (offset - kHeaderSize) / kSlotBytes;
  allocated_[slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
  --live_;
  free_.push_back(offset);
}

bool Heap::is_allocated(std::uint64_t offset) const noexcept {
  if (offset < kHeaderSize || (offset - kHeaderSize) % kSlotBytes != 0)
    return false;
  const std::uint64_t slot = (offset - kHeaderSize) / kSlotBytes;
  return slot < slots_ &&
         (allocated_[slot / 64] >> (slot % 64) & 1u) != 0;
}

void Heap::set_root(int slot, std::uint64_t offset) {
  PMO_CHECK_MSG(slot >= 0 && slot < kMaxRoots, "root slot out of range");
  if (slots_ != durable_slots_) {
    const std::uint64_t hw = high_water();
    const auto field = offsetof(PersistentHeader, high_water);
    device_.store(field, hw);
    device_.flush(field, sizeof(hw));
    device_.persist_barrier();
    durable_slots_ = slots_;
  }
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

std::size_t Heap::sweep(const std::function<bool(std::uint64_t)>& live) {
  std::size_t freed = 0;
  for (std::size_t w = 0; w < allocated_.size(); ++w) {
    for (std::uint64_t bits = allocated_[w]; bits != 0; bits &= bits - 1) {
      const std::uint64_t offset =
          kHeaderSize + (w * 64 + std::countr_zero(bits)) * kSlotBytes;
      if (!live(offset)) {
        free(offset);
        ++freed;
      }
    }
  }
  return freed;
}

HeapStats Heap::stats() const noexcept {
  return {device_.capacity(), high_water(), live_, free_.size()};
}

}  // namespace pmo::nvbm
