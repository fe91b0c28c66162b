#include "src/core/messages.h"

#include <algorithm>

namespace skymr::core {

void MergeParts(const std::vector<PartitionSkyline>& parts, size_t dim,
                CellWindowMap* windows, DominanceCounter* counter,
                ThreadPool* pool) {
  // The map is not thread-safe: create every window first. Parts usually
  // ascend, so a short forward walk from the previous window finds most
  // positions without a lookup from the root. Each window is sized for
  // the whole part here, so it grows in this thread's malloc arena rather
  // than in those of the pool threads that run the units. Growing across
  // arenas raised skymr-e2e anti6-batch's peak RSS by ~8% on a 4-vCPU VM.
  std::vector<SkylineWindow*> targets;
  targets.reserve(parts.size());
  uint64_t work = 0;
  auto it = windows->begin();
  for (const PartitionSkyline& part : parts) {
    for (int step = 0; it != windows->end() && it->first < part.cell;
         ++step) {
      if (step == 8) {
        it = windows->lower_bound(part.cell);
        break;
      }
      ++it;
    }
    it = windows->try_emplace(it, part.cell, dim);
    it->second.Reserve(it->second.size() + part.window.size());
    targets.push_back(&it->second);
    work += part.window.size();
  }
  // Only parts of distinct cells, i.e. strictly ascending ones, touch
  // disjoint windows and may merge in parallel. One counter per part
  // keeps the sum.
  const bool distinct_cells = std::is_sorted(
      parts.begin(), parts.end(),
      [](const PartitionSkyline& a, const PartitionSkyline& b) {
        return a.cell <= b.cell;
      });
  std::vector<uint64_t> tests(parts.size());
  ParallelChunks(distinct_cells ? pool : nullptr, parts.size(), work,
                 [&](size_t p) {
                   // Local: neighbouring slots share a line.
                   DominanceCounter part_tests;
                   const SkylineWindow& part = parts[p].window;
                   for (size_t i = 0; i < part.size(); ++i) {
                     targets[p]->Insert(part.RowAt(i), part.IdAt(i),
                                        &part_tests);
                   }
                   tests[p] = part_tests.count();
                 });
  if (counter != nullptr) {
    for (const uint64_t part_tests : tests) {
      counter->Add(part_tests);
    }
  }
}

SkylineWindow UnionWindows(const CellWindowMap& windows, size_t dim) {
  SkylineWindow out(dim);
  for (const auto& [cell, window] : windows) {
    for (size_t i = 0; i < window.size(); ++i) {
      out.AppendUnchecked(window.RowAt(i), window.IdAt(i));
    }
  }
  return out;
}

}  // namespace skymr::core
