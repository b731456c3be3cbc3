// perfbench: drives the OpenMP-MCA runtime on one workload and prints one
// JSON object with what it measured.  perfbench/run.py builds this binary,
// runs it, and turns its output into the benchmark's result line.
//
//   perfbench --workload fork_join|sync|npb|tenants --seed N --seconds S
//             --trace 0|1 [--spans FILE]
//
// --trace 0 measures the end-to-end figures with no instrumentation.
// --trace 1 splits the workload by layer instead: it alternates untraced
// and traced stretches (the difference is the tracing overhead), fills the
// layers the workload does not exercise from a short traced pass of the
// workload that does, runs the direct MRAPI probes and the native-backend
// reference, and writes the recorded spans to FILE.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "layers.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
namespace gomp = ompmca::gomp;

struct Args {
  Workload workload = Workload::kForkJoin;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string spans;
};

bool parse_args(int argc, char** argv, Args* a) {
  bool have_workload = false;
  bool have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      auto w = parse_workload(val);
      if (!w) return false;
      a->workload = *w;
      have_workload = true;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val, &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      a->seconds = std::strtod(val, &end);
      if (*end != '\0' || !(a->seconds > 0) || a->seconds > 3600) {
        return false;
      }
      have_seconds = true;
    } else if (key == "--trace") {
      if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0) {
        return false;
      }
      a->trace = val[0] == '1';
    } else if (key == "--spans") {
      a->spans = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seconds;
}

/// The @p q quantile of @p v, interpolated between order statistics.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double us(double ns) { return ns * 1e-3; }

/// CPU time the hypervisor stole, in ticks summed over all CPUs (0 when
/// /proc/stat is unreadable).  Recorded per sub-run as run health.
long long steal_ticks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  long long v[8] = {};
  const int n = std::fscanf(f, "cpu %lld %lld %lld %lld %lld %lld %lld %lld",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  return n == 8 ? v[7] : 0;
}

/// Cost of one operation, the figure the tracing overhead is taken on:
/// time per critical section for sync, median op latency otherwise.
double op_cost(Workload w, const Outcome& o) {
  if (w == Workload::kSync) return o.ops > 0 ? o.wall_s / o.ops : 0;
  return o.op_ns.quantile_ns(0.5);
}

/// Set-up, timed: input generation, runtime construction (MRAPI node
/// launch of the workers happens at the first region) and warm-up.
std::unique_ptr<gomp::Runtime> set_up(Workload w, gomp::BackendKind backend,
                                      bool traced, std::uint64_t seed,
                                      Inputs* in, Outcome* checks,
                                      double* seconds) {
  const std::uint64_t t0 = now_ns();
  *in = make_inputs(seed);
  auto rt = make_runtime(w, backend, traced);
  const Outcome warm = warm_up(*rt, w, *in);
  if (seconds != nullptr) {
    *seconds = static_cast<double>(now_ns() - t0) * 1e-9;
  }
  if (checks != nullptr) checks->merge(warm);
  return rt;
}

int run_untraced(const Args& a) {
  // The run is split into sub-runs, each with a fresh runtime (so fresh
  // worker threads and thread placement) and its own timed set-up.  Each
  // sub-run yields its own p50, p99 and rate.  Host interference comes in
  // bursts of seconds and only ever slows a sub-run down, so the run
  // reports the quartile of its sub-runs on the fast side: the 25th
  // percentile of the latencies, the 75th of the rates.  A change that
  // slows every sub-run moves it; a burst that slows a minority does not.
  // An NPB sub-run is one pass, so on npb the p99 equals the p50.
  const bool npb = a.workload == Workload::kNpb;
  const std::size_t sub_runs = npb ? 0 : 40;  // npb: passes until deadline
  constexpr std::size_t kMinSubRuns = 3;
  constexpr std::size_t kMinSetups = 10;
  constexpr double kFastSide = 0.25;
  const double sub_s = npb ? 0 : a.seconds / static_cast<double>(sub_runs);
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(a.seconds * 1e9);
  std::vector<double> setup;
  std::vector<double> p50;
  std::vector<double> p99;
  std::vector<double> rate;
  std::vector<long long> steal;
  Outcome checks;
  Outcome all;
  while (npb ? p50.size() < kMinSubRuns || now_ns() < deadline
             : p50.size() < sub_runs) {
    Inputs in;
    double s = 0;
    auto rt = set_up(a.workload, gomp::BackendKind::kMca, false, a.seed, &in,
                     &checks, &s);
    const long long steal0 = steal_ticks();
    const Outcome o = run_for(*rt, a.workload, in, sub_s, false);
    steal.push_back(steal_ticks() - steal0);
    rt.reset();
    setup.push_back(s);
    p50.push_back(o.op_ns.quantile_ns(0.5));
    p99.push_back(o.op_ns.quantile_ns(0.99));
    rate.push_back(o.ops_per_s());
    all.merge(o);
  }
  while (setup.size() < kMinSetups) {
    Inputs in;
    double s = 0;
    auto rt = set_up(a.workload, gomp::BackendKind::kMca, false, a.seed, &in,
                     &checks, &s);
    setup.push_back(s);
  }

  std::printf("{\"workload\": \"%s\", \"attempted\": %ld, \"failed\": %ld, ",
              name_of(a.workload), all.attempted + checks.attempted,
              all.failed + checks.failed);
  std::printf("\"setup_s\": %.9g, \"setups\": %zu, \"op_p50_us\": %.9g, "
              "\"op_p99_us\": %.9g, \"ops_per_s\": %.9g, \"op_samples\": %ld, ",
              median(setup), setup.size(), us(quantile(p50, kFastSide)),
              us(quantile(p99, kFastSide)), quantile(rate, 1 - kFastSide),
              all.ops);
  // Per-sub-run health: the host's steal next to each sub-run's figures.
  std::printf("\"sub_runs\": [");
  for (std::size_t i = 0; i < p50.size(); ++i) {
    std::printf("%s{\"steal_ticks\": %lld, \"op_p50_us\": %.9g, "
                "\"op_p99_us\": %.9g, \"ops_per_s\": %.9g}",
                i ? ", " : "", steal[i], us(p50[i]), us(p99[i]), rate[i]);
  }
  std::printf("]}\n");
  return 0;
}

// --- traced run --------------------------------------------------------------

struct LayerRow {
  std::string name;
  double value;
  const char* unit;
  unsigned long long samples;
  const char* source;
};

Workload owner_of(LayerGroup g) {
  switch (g) {
    case kGroupRegion: return Workload::kForkJoin;
    case kGroupCritical: return Workload::kSync;
    case kGroupNpb: return Workload::kNpb;
  }
  return Workload::kForkJoin;
}

/// Regions run while the region layers recorded, warm-up included, and
/// the shared-memory allocations made meanwhile (runtime construction
/// included, so the per-region figure is never a flat zero).
struct RegionTally {
  long regions = 0;
  long full_width = 0;
  std::uint64_t allocs = 0;
};

/// One traced stretch of @p w with @p groups recording; returns the
/// measured part.
Outcome traced_stretch(Workload w, unsigned groups, double seconds,
                       std::uint64_t seed, Outcome* checks,
                       RegionTally* tally) {
  Recorder& rec = Recorder::instance();
  rec.set_groups(groups);
  const std::uint64_t a0 = rec.shmem_allocs.load();
  Inputs in;
  Outcome warm;
  auto rt = set_up(w, gomp::BackendKind::kMca, true, seed, &in, &warm,
                   nullptr);
  const Outcome out = run_for(*rt, w, in, seconds, true);
  rt.reset();
  rec.set_groups(0);
  checks->merge(warm);
  checks->merge(out);
  if (tally != nullptr) {
    tally->regions += warm.ops + out.ops;
    tally->full_width += warm.full_width + out.full_width;
    tally->allocs += rec.shmem_allocs.load() - a0;
  }
  return out;
}

/// MCA and native backends on the same workload code, interleaved: the
/// paper's Table I comparison, reported as an ungated reference.
struct Reference {
  double fork_join_p50_us[2] = {0, 0};  // [mca, native]
  double sync_ops_per_s[2] = {0, 0};
  unsigned long long fork_join_ops = 0;  // native samples
  unsigned long long sync_ops = 0;
};

Reference run_reference(std::uint64_t seed, Outcome* checks) {
  constexpr double kStretch = 0.5;
  constexpr int kRounds = 2;
  const gomp::BackendKind kinds[2] = {gomp::BackendKind::kMca,
                                      gomp::BackendKind::kNative};
  Outcome fj[2];
  Outcome sy[2];
  for (int round = 0; round < kRounds; ++round) {
    for (int k = 0; k < 2; ++k) {
      for (Workload w : {Workload::kForkJoin, Workload::kSync}) {
        Inputs in;
        auto rt = set_up(w, kinds[k], false, seed, &in, checks, nullptr);
        const Outcome o = run_for(*rt, w, in, kStretch, false);
        checks->merge(o);
        (w == Workload::kForkJoin ? fj : sy)[k].merge(o);
      }
    }
  }
  Reference r;
  for (int k = 0; k < 2; ++k) {
    r.fork_join_p50_us[k] = us(fj[k].op_ns.quantile_ns(0.5));
    r.sync_ops_per_s[k] = sy[k].ops_per_s();
  }
  r.fork_join_ops = static_cast<unsigned long long>(fj[1].ops);
  r.sync_ops = static_cast<unsigned long long>(sy[1].ops);
  return r;
}

int run_traced(const Args& a) {
  const Workload w = a.workload;
  const unsigned own = groups_of(w);
  Outcome checks;

  // The named workload: alternating untraced and traced stretches.
  const int pairs = w == Workload::kNpb
                        ? 2
                        : std::max(1, static_cast<int>(a.seconds / 2 + 0.5));
  const double stretch = a.seconds / (2 * pairs);
  Outcome plain;
  Outcome traced;
  RegionTally tally;
  for (int p = 0; p < pairs; ++p) {
    for (int half = 0; half < 2; ++half) {
      if ((half == 0) == (p % 2 == 0)) {
        Inputs in;
        auto rt = set_up(w, gomp::BackendKind::kMca, false, a.seed, &in,
                         &checks, nullptr);
        const Outcome o = run_for(*rt, w, in, stretch, false);
        checks.merge(o);
        plain.merge(o);
      } else {
        traced.merge(traced_stretch(w, own, stretch, a.seed, &checks,
                                    own & kGroupRegion ? &tally : nullptr));
      }
    }
  }

  // Layers the named workload does not exercise, from their owners.
  Outcome npb_phase = w == Workload::kNpb ? traced : Outcome{};
  for (LayerGroup g : {kGroupRegion, kGroupCritical, kGroupNpb}) {
    if (own & g) continue;
    const Workload owner = owner_of(g);
    const double seconds = owner == Workload::kNpb ? 0.01 : 1.0;  // npb: 1 pass
    const Outcome o =
        traced_stretch(owner, g, seconds, a.seed, &checks,
                       g == kGroupRegion ? &tally : nullptr);
    if (g == kGroupNpb) npb_phase.merge(o);
  }

  const ProbeResult probe = run_probes();
  ++checks.attempted;
  if (!probe.ok) ++checks.failed;
  const Reference ref = run_reference(a.seed, &checks);

  const LayerStats ls = Recorder::instance().merged();
  auto source = [&](LayerGroup g) {
    return name_of(own & g ? w : owner_of(g));
  };
  auto mean_us = [&](Layer l) {
    const Hist& h = ls[l];
    return h.count() ? us(h.sum_ns() / h.count()) : 0.0;
  };
  auto row = [&](const char* name, Layer l, LayerGroup g) {
    return LayerRow{name, mean_us(l), "us", ls[l].count(), source(g)};
  };
  std::vector<LayerRow> rows = {
      row("pool.fork_us", Layer::kPoolFork, kGroupRegion),
      row("pool.wake_us", Layer::kPoolWake, kGroupRegion),
      row("pool.join_us", Layer::kPoolJoin, kGroupRegion),
      {"pool.full_width_ratio",
       tally.regions ? static_cast<double>(tally.full_width) / tally.regions
                     : 0.0,
       "ratio", static_cast<unsigned long long>(tally.regions),
       source(kGroupRegion)},
      row("barrier.wait_us", Layer::kBarrierWait, kGroupRegion),
      row("barrier.release_us", Layer::kBarrierRelease, kGroupRegion),
      row("for.self_us", Layer::kForSelf, kGroupRegion),
      row("critical.self_us", Layer::kCriticalSelf, kGroupCritical),
      row("mrapi.mutex.lock_us", Layer::kMutexLock, kGroupCritical),
      row("mrapi.mutex.unlock_us", Layer::kMutexUnlock, kGroupCritical),
      {"mrapi.shmem.allocs_per_region",
       tally.regions ? static_cast<double>(tally.allocs) / tally.regions : 0.0,
       "count", static_cast<unsigned long long>(tally.regions),
       source(kGroupRegion)},
      {"mrapi.shmem.alloc_us", mean_us(Layer::kShmemAlloc), "us",
       ls[Layer::kShmemAlloc].count(), "all"},
      {"mrapi.node.launch_us", mean_us(Layer::kNodeLaunch), "us",
       ls[Layer::kNodeLaunch].count(), "all"},
  };
  for (int k = 0; k < 4; ++k) {
    const Hist& h = npb_phase.kernel_ns[k];
    rows.push_back({std::string(kNpbKernels[k]) + "_s",
                    h.count() ? h.sum_ns() / h.count() * 1e-9 : 0.0, "s",
                    h.count(), source(kGroupNpb)});
  }
  const double plain_cost = op_cost(w, plain);
  rows.push_back({"trace.overhead_pct",
                  plain_cost > 0 ? (op_cost(w, traced) / plain_cost - 1) * 100
                                 : 0.0,
                  "%", static_cast<unsigned long long>(traced.ops),
                  name_of(w)});
  rows.push_back({"mrapi.mutex.uncontended_ns", probe.mutex_ns, "ns",
                  probe.batches, "probe"});
  rows.push_back({"mrapi.sem.uncontended_ns", probe.sem_ns, "ns",
                  probe.batches, "probe"});
  rows.push_back({"mrapi.arena.alloc_release_ns", probe.arena_ns, "ns",
                  probe.batches, "probe"});
  rows.push_back({"ref.native.fork_join.op_p50_us", ref.fork_join_p50_us[1],
                  "us", ref.fork_join_ops, "fork_join"});
  rows.push_back({"ref.native.sync.ops_per_s", ref.sync_ops_per_s[1], "1/s",
                  ref.sync_ops, "sync"});
  rows.push_back({"ref.mca_over_native.fork_join",
                  ref.fork_join_p50_us[1] > 0
                      ? ref.fork_join_p50_us[0] / ref.fork_join_p50_us[1]
                      : 0.0,
                  "ratio", ref.fork_join_ops, "fork_join"});
  rows.push_back({"ref.mca_over_native.sync",
                  ref.sync_ops_per_s[0] > 0
                      ? ref.sync_ops_per_s[1] / ref.sync_ops_per_s[0]
                      : 0.0,
                  "ratio", ref.sync_ops, "sync"});

  if (!a.spans.empty() &&
      !Recorder::instance().log().write_jsonl(a.spans)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", a.spans.c_str());
    return 1;
  }

  std::printf("{\"workload\": \"%s\", \"attempted\": %ld, \"failed\": %ld, ",
              name_of(w), checks.attempted, checks.failed);
  std::printf("\"ref_mca\": {\"fork_join.op_p50_us\": %.9g, "
              "\"sync.ops_per_s\": %.9g}, \"layers\": {",
              ref.fork_join_p50_us[0], ref.sync_ops_per_s[0]);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const LayerRow& r = rows[i];
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\", "
                "\"samples\": %llu, \"source\": \"%s\"}",
                i ? ", " : "", r.name.c_str(), r.value, r.unit, r.samples,
                r.source);
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload fork_join|sync|npb|tenants "
                 "--seed N --seconds S --trace 0|1 [--spans FILE]\n");
    return 2;
  }
  return a.trace ? run_traced(a) : run_untraced(a);
}
