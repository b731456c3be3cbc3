// Ablation A1 (§5B.1 node management): persistent worker pool vs the
// literal create-per-region node lifecycle, under both backends.
//
// The paper's text describes nodes created at fork and finalized at join;
// libGOMP (and this runtime) parks a pool instead.  This bench quantifies
// what that choice is worth per PARALLEL construct.  The per-region rows
// drive the backend directly in the nested-team shape: launch n-1 worker
// threads (MRAPI nodes under the MCA backend), run the body, join them.
#include <benchmark/benchmark.h>

#include <atomic>

#include "gomp/gomp.hpp"

namespace {

using namespace ompmca;

gomp::Runtime make_runtime(benchmark::State& state,
                           gomp::BackendKind backend) {
  gomp::RuntimeOptions opts;
  opts.backend = backend;
  gomp::Icvs icvs;
  icvs.num_threads = static_cast<unsigned>(state.range(0));
  opts.icvs = icvs;
  return gomp::Runtime(opts);
}

void run_pool(benchmark::State& state, gomp::BackendKind backend) {
  gomp::Runtime rt = make_runtime(state, backend);
  for (auto _ : state) {
    long sink = 0;
    rt.parallel([&](gomp::ParallelContext& ctx) {
      benchmark::DoNotOptimize(ctx.thread_num());
      if (ctx.thread_num() == 0) sink = 1;
    });
    benchmark::DoNotOptimize(sink);
  }
  state.SetLabel("pool");
}

void run_per_region(benchmark::State& state, gomp::BackendKind backend) {
  gomp::Runtime rt = make_runtime(state, backend);
  gomp::SystemBackend& be = rt.backend();
  const auto n = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    std::atomic<long> sink{0};
    for (unsigned tid = 1; tid < n; ++tid) {
      const Status s = be.launch_thread(tid, [&sink, tid] {
        benchmark::DoNotOptimize(tid);
        sink.fetch_add(1, std::memory_order_relaxed);
      });
      if (!ok(s)) {
        state.SkipWithError("launch_thread failed");
        return;
      }
    }
    sink.fetch_add(1, std::memory_order_relaxed);  // the master's body
    for (unsigned tid = 1; tid < n; ++tid) {
      if (!ok(be.join_thread(tid))) {
        state.SkipWithError("join_thread failed");
        return;
      }
    }
    benchmark::DoNotOptimize(sink.load(std::memory_order_relaxed));
  }
  state.SetLabel("per-region");
}

void BM_Parallel_Native_Pool(benchmark::State& state) {
  run_pool(state, gomp::BackendKind::kNative);
}
void BM_Parallel_Native_PerRegion(benchmark::State& state) {
  run_per_region(state, gomp::BackendKind::kNative);
}
void BM_Parallel_Mca_Pool(benchmark::State& state) {
  run_pool(state, gomp::BackendKind::kMca);
}
void BM_Parallel_Mca_PerRegion(benchmark::State& state) {
  run_per_region(state, gomp::BackendKind::kMca);
}

}  // namespace

BENCHMARK(BM_Parallel_Native_Pool)->Arg(2)->Arg(4)->Arg(8)->Iterations(200);
BENCHMARK(BM_Parallel_Native_PerRegion)->Arg(2)->Arg(4)->Arg(8)->Iterations(50);
BENCHMARK(BM_Parallel_Mca_Pool)->Arg(2)->Arg(4)->Arg(8)->Iterations(200);
BENCHMARK(BM_Parallel_Mca_PerRegion)->Arg(2)->Arg(4)->Arg(8)->Iterations(50);

BENCHMARK_MAIN();
