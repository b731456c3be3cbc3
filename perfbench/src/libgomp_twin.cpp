// The fork_join and sync workloads written with OpenMP pragmas and built
// with -fopenmp, so they run on the host's GNU libgomp: the "stock
// libGOMP" the paper compares MCA-libGOMP against.  The shapes, sizes and
// seeded inputs match workloads.cpp; run it with OMP_WAIT_POLICY=active.
//
//   perfbench_libgomp --shape fork_join|sync --seed N --seconds S
//
// Prints one JSON object: op_p50_us, ops_per_s, attempted, failed.
#include <omp.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

namespace {

constexpr int kWidth = 3;
constexpr int kRegionDelay = 64;
constexpr long kLoopLength = 768;
constexpr int kSyncDelay = 32;
constexpr std::size_t kIncs = 4096;
constexpr long kWarmRegions = 2000;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void delay(int length) {
  volatile double sink = 0.0;
  for (int i = 0; i < length; ++i) sink = sink + i * 0.5;
}

struct alignas(64) Slot {
  long sum = 0;
  int width = 0;
};

struct Result {
  std::vector<std::uint32_t> lat_ns;
  long ops = 0;
  long attempted = 0;
  long failed = 0;
  double wall_s = 0;
};

void fork_join(const std::vector<std::int32_t>& loop, long loop_sum,
               std::uint64_t deadline, long max_regions, Result& r) {
  Slot slots[kWidth];
  std::atomic<int> entered{0};
  const std::uint64_t w0 = now_ns();
  for (long n = 0; n < max_regions; ++n) {
    const std::uint64_t t0 = now_ns();
    if (t0 >= deadline) break;
    entered.store(0, std::memory_order_relaxed);
#pragma omp parallel num_threads(kWidth)
    {
      const int tid = omp_get_thread_num();
      entered.fetch_add(1, std::memory_order_relaxed);
      delay(kRegionDelay);
      long sum = 0;
#pragma omp for schedule(static) nowait
      for (long i = 0; i < kLoopLength; ++i) sum += loop[i];
      slots[tid] = Slot{sum, omp_get_num_threads()};
#pragma omp barrier
    }
    const std::uint64_t t1 = now_ns();
    r.lat_ns.push_back(static_cast<std::uint32_t>(std::min<std::uint64_t>(
        t1 - t0, UINT32_MAX)));
    ++r.ops;
    ++r.attempted;
    const int width = slots[0].width;
    long sum = 0;
    bool ok = width > 0 && width <= kWidth && entered.load() == width;
    for (int t = 0; ok && t < width; ++t) {
      sum += slots[t].sum;
      ok = slots[t].width == width;
    }
    if (!ok || sum != loop_sum) ++r.failed;
  }
  r.wall_s = static_cast<double>(now_ns() - w0) * 1e-9;
}

void sync(const std::vector<std::int32_t>& incs, std::uint64_t deadline,
          Result& r) {
  std::atomic<long> counter{0};
  std::atomic<int> inside{0};
  std::atomic<long> violations{0};
  long ops = 0;
  long added = 0;
  const std::uint64_t w0 = now_ns();
#pragma omp parallel num_threads(kWidth) reduction(+ : ops, added)
  {
    std::size_t k = (omp_get_thread_num() * 1031) & (kIncs - 1);
    while (now_ns() < deadline) {
      const std::int32_t v = incs[k];
      k = (k + 1) & (kIncs - 1);
#pragma omp critical
      {
        if (inside.exchange(1, std::memory_order_acquire) != 0) {
          violations.fetch_add(1, std::memory_order_relaxed);
        }
        counter.store(counter.load(std::memory_order_relaxed) + v,
                      std::memory_order_relaxed);
        inside.store(0, std::memory_order_release);
      }
      ++ops;
      added += v;
      delay(kSyncDelay);
    }
  }
  r.wall_s = static_cast<double>(now_ns() - w0) * 1e-9;
  r.ops = ops;
  r.attempted = ops;
  r.failed = violations.load();
  if (counter.load() != added) r.failed = std::max(r.failed, 1L);
}

}  // namespace

int main(int argc, char** argv) {
  const char* shape = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--shape") == 0) {
      shape = argv[i + 1];
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (std::strcmp(argv[i], "--seconds") == 0) {
      seconds = std::strtod(argv[i + 1], nullptr);
    }
  }
  const bool is_fork_join = shape && std::strcmp(shape, "fork_join") == 0;
  const bool is_sync = shape && std::strcmp(shape, "sync") == 0;
  if ((!is_fork_join && !is_sync) || !(seconds > 0) || seconds > 60) {
    std::fprintf(stderr,
                 "usage: perfbench_libgomp --shape fork_join|sync --seed N "
                 "--seconds S\n");
    return 2;
  }

  // Same derivation as make_inputs() in workloads.cpp.
  std::uint64_t s = seed;
  std::vector<std::int32_t> loop(kLoopLength);
  long loop_sum = 0;
  for (auto& v : loop) {
    v = static_cast<std::int32_t>(splitmix64(s) % 2001) - 1000;
    loop_sum += v;
  }
  std::vector<std::int32_t> incs(kIncs);
  for (auto& v : incs) v = static_cast<std::int32_t>(splitmix64(s) % 100) + 1;

  Result warm;
  fork_join(loop, loop_sum, UINT64_MAX, kWarmRegions, warm);
  Result r;
  const auto deadline =
      now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  if (is_fork_join) {
    r.lat_ns.reserve(static_cast<std::size_t>(seconds * 2e6));
    fork_join(loop, loop_sum, deadline, UINT32_MAX, r);
  } else {
    sync(incs, deadline, r);
  }

  // Median of whole-nanosecond samples, interpolated across the samples
  // that share the median's value (as the runtime's histogram does inside
  // a bucket), so it is not rounded to the clock's 1 ns.
  double p50_us = 0;
  if (!r.lat_ns.empty()) {
    const double rank = 0.5 * static_cast<double>(r.lat_ns.size() - 1);
    auto mid = r.lat_ns.begin() + static_cast<long>(rank);
    std::nth_element(r.lat_ns.begin(), mid, r.lat_ns.end());
    const std::uint32_t v = *mid;
    const auto below = std::count_if(r.lat_ns.begin(), r.lat_ns.end(),
                                     [v](std::uint32_t x) { return x < v; });
    const auto same = std::count(r.lat_ns.begin(), r.lat_ns.end(), v);
    p50_us = (v - 0.5 + (rank - static_cast<double>(below) + 0.5) /
                            static_cast<double>(same)) * 1e-3;
  }
  std::printf("{\"shape\": \"%s\", \"op_p50_us\": %.9g, \"ops_per_s\": %.9g, "
              "\"attempted\": %ld, \"failed\": %ld}\n",
              shape, p50_us, r.wall_s > 0 ? r.ops / r.wall_s : 0.0,
              r.attempted + warm.attempted, r.failed + warm.failed);
  return 0;
}
