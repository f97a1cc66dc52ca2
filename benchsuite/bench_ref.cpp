// bench_ref — times a fixed reference kernel once and prints its wall
// seconds. bench_suite starts it after every timed rep, so each rep is
// paired with a measurement of how fast the host ran just then; run.py
// scales the timed metrics by it.
//
// The kernel is a binary-heap event queue popped and re-pushed while a hash
// map is probed and filled, the simulator's own access pattern, with the
// same operations in the same order on every call. It runs in a process of
// its own that links nothing from src/, so neither the simulator's code nor
// the heap and caches a rep leaves behind can move it.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

int main() {
  using Clock = std::chrono::steady_clock;
  using Entry = std::pair<double, std::uint32_t>;
  const auto t0 = Clock::now();
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue;
  std::unordered_map<std::uint64_t, std::uint32_t> map;
  map.reserve(1u << 18);
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (std::uint32_t id = 0; id < (1u << 16); ++id) {
    queue.push({static_cast<double>(next() % 1000), id});
  }
  std::uint64_t found = 0;
  for (int i = 0; i < 300000; ++i) {
    const auto [t, id] = queue.top();
    queue.pop();
    const std::uint64_t key = next() % (1u << 20);
    const auto it = map.find(key);
    if (it != map.end()) {
      found += it->second;
    } else if (map.size() < (1u << 18)) {
      map.emplace(key, id);
    }
    queue.push({t + static_cast<double>(next() % 1000), id});
  }
  const double seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  if (found == 0) {  // keeps the work observable
    std::fprintf(stderr, "bench_ref: reference kernel found no key\n");
    return 1;
  }
  std::printf("%.9f\n", seconds);
  return 0;
}
