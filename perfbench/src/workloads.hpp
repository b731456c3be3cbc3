// The benchmark's four workloads, written against the runtime's public API
// (Runtime::parallel, ParallelContext::{for_loop,barrier,critical},
// npb::run_*).  Each workload is a closed loop of one kind of operation:
//
//   fork_join  op = one width-3 region (delay, static for_loop, barrier)
//   sync       op = one unnamed critical section inside a long width-3 region
//   npb        op = one verified pass of CG, IS, MG and FT at class A
//   tenants    op = one width-2 region of either of two concurrent masters
//
// Every runtime runs with active wait and keeps at most 4 threads busy.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "gomp/runtime.hpp"
#include "layers.hpp"

namespace perfbench {

enum class Workload { kForkJoin, kSync, kNpb, kTenants };

std::optional<Workload> parse_workload(std::string_view name);
const char* name_of(Workload w);
/// The LayerGroup bits a workload exercises.
unsigned groups_of(Workload w);

/// Inputs derived from the seed.  NPB keeps its official generator (its
/// verification constants depend on it); the seed orders the kernels.
struct Inputs {
  std::vector<std::int32_t> loop;  // for_loop operands
  long loop_sum = 0;
  std::vector<std::int32_t> incs;  // critical-section increments
  std::array<int, 4> npb_order{};  // indices into kNpbKernels
};

Inputs make_inputs(std::uint64_t seed);

inline constexpr std::array<const char*, 4> kNpbKernels = {
    "npb.cg", "npb.is", "npb.mg", "npb.ft"};

/// What a measured stretch of a workload produced.
struct Outcome {
  Hist op_ns;          // latency of each operation
  long ops = 0;        // operations completed
  long attempted = 0;  // operations checked
  long failed = 0;     // operations whose check failed
  double wall_s = 0;   // wall time of the stretch
  long full_width = 0;  // regions that ran at the requested width
  std::array<Hist, 4> kernel_ns;  // NPB timed section per kernel

  void merge(const Outcome& o);
  double ops_per_s() const { return wall_s > 0 ? ops / wall_s : 0; }
};

/// A runtime set up for @p w: MCA or native backend, active wait, team
/// width of the workload, and a worker-lease cap that keeps the thread
/// count at 4.  @p traced wraps the MCA backend in the timing backend.
std::unique_ptr<ompmca::gomp::Runtime> make_runtime(
    Workload w, ompmca::gomp::BackendKind backend, bool traced);

/// Fixed-size first contact: launches the workers and fills the caches.
Outcome warm_up(ompmca::gomp::Runtime& rt, Workload w, const Inputs& in);

/// Runs @p w for @p seconds (NPB: whole passes, at least one).  With
/// @p traced the bodies record spans and feed the Recorder.
Outcome run_for(ompmca::gomp::Runtime& rt, Workload w, const Inputs& in,
                double seconds, bool traced);

}  // namespace perfbench
