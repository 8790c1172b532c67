#include "cluster/partition.hpp"

#include <algorithm>

namespace pmo::cluster {

int Partition::owner_of_index(std::size_t i) const {
  // range_begin is small (procs+1): binary search.
  const auto it =
      std::upper_bound(range_begin.begin(), range_begin.end(), i);
  return static_cast<int>(it - range_begin.begin()) - 1;
}

int Partition::owner_of(const LocCode& code) const {
  // The covering leaf is the last with key <= code's key (leaves partition
  // the domain). It lies in rank j's range, j = the number of split keys
  // <= code's key, so rank j's first leaf has the same owner — including
  // when empty ranks share that first leaf, and for probes before the
  // first leaf (j = 0, index 0).
  const auto j = std::upper_bound(split_keys.begin(), split_keys.end(),
                                  code.key()) -
                 split_keys.begin();
  return owner_of_index(range_begin[static_cast<std::size_t>(j)]);
}

Partition partition_leaves(std::vector<LocCode> sorted_leaves, int procs) {
  PMO_CHECK_MSG(procs >= 1, "need at least one rank");
  Partition p;
  p.procs = procs;
  p.leaves = std::move(sorted_leaves);
  const std::size_t n = p.leaves.size();
  p.range_begin.resize(static_cast<std::size_t>(procs) + 1);
  for (int r = 0; r <= procs; ++r) {
    p.range_begin[static_cast<std::size_t>(r)] =
        n * static_cast<std::size_t>(r) / static_cast<std::size_t>(procs);
  }
  if (n > 0) {
    for (int r = 1; r < procs; ++r)
      p.split_keys.push_back(
          p.leaves[p.range_begin[static_cast<std::size_t>(r)]].key());
  }
  return p;
}

std::unordered_map<LocCode, int, LocCodeHash> owner_map(const Partition& p) {
  std::unordered_map<LocCode, int, LocCodeHash> out;
  out.reserve(p.leaves.size());
  for (std::size_t i = 0; i < p.leaves.size(); ++i) {
    out.emplace(p.leaves[i], p.owner_of_index(i));
  }
  return out;
}

PartitionStats analyze_partition(
    const Partition& cur,
    const std::unordered_map<LocCode, int, LocCodeHash>& prev_owner) {
  PartitionStats s;
  s.boundary.assign(static_cast<std::size_t>(cur.procs), 0);
  s.counts.assign(static_cast<std::size_t>(cur.procs), 0);

  for (std::size_t i = 0; i < cur.leaves.size(); ++i) {
    const auto& code = cur.leaves[i];
    const int owner = cur.owner_of_index(i);
    ++s.counts[static_cast<std::size_t>(owner)];

    if (!prev_owner.empty()) {
      const auto it = prev_owner.find(code);
      if (it != prev_owner.end() && it->second != owner) ++s.migrated;
    }

    // Face-neighbor ghost test.
    static constexpr int kFaces[6][3] = {{1, 0, 0},  {-1, 0, 0}, {0, 1, 0},
                                         {0, -1, 0}, {0, 0, 1},  {0, 0, -1}};
    for (const auto& f : kFaces) {
      LocCode ncode;
      if (!code.neighbor(f[0], f[1], f[2], ncode)) continue;
      if (cur.owner_of(ncode) != owner) {
        ++s.boundary[static_cast<std::size_t>(owner)];
        break;
      }
    }
  }

  std::size_t max_count = 0;
  for (const auto c : s.counts) max_count = std::max(max_count, c);
  const double mean = cur.leaves.empty()
                          ? 0.0
                          : static_cast<double>(cur.leaves.size()) /
                                static_cast<double>(cur.procs);
  s.imbalance = mean > 0 ? static_cast<double>(max_count) / mean : 1.0;
  return s;
}

}  // namespace pmo::cluster
