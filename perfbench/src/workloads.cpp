#include "workloads.hpp"

#include <algorithm>
#include <limits>
#include <thread>
#include <utility>

#include "gomp/backend_mca.hpp"
#include "mrapi/database.hpp"
#include "npb/npb.hpp"

namespace perfbench {

namespace gomp = ompmca::gomp;
namespace npb = ompmca::npb;

namespace {

// Team shapes.  fork_join, sync and npb run one master and two workers;
// tenants runs two masters with one worker each.  Either way 4 threads,
// one per vCPU of the 4-vCPU sizing host, so active wait never spins
// against a thread it is waiting for.
constexpr unsigned kWidth = 3;
constexpr unsigned kTenants = 2;
constexpr unsigned kTenantWidth = 2;
constexpr unsigned kMaxTeam = 4;

// EPCC-sized region body: a delay of about 0.1 us and a static loop over
// 256 operands per thread.
constexpr int kRegionDelay = 64;
constexpr long kLoopLength = 768;
// sync: the delay each thread spends outside the lock between critical
// sections.
constexpr int kSyncDelay = 32;
constexpr std::size_t kIncs = 4096;  // power of two

// Warm-up sizes (fixed work, so set-up time measures work, not a timer).
constexpr long kWarmRegions = 2000;
constexpr long kWarmCriticals = 2000;

constexpr std::uint64_t kNoDeadline = std::numeric_limits<std::uint64_t>::max();

std::uint64_t deadline_after(double seconds) {
  return now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
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

unsigned width_of(Workload w) {
  return w == Workload::kTenants ? kTenantWidth : kWidth;
}

// --- fork_join / tenants: closed loop of regions -----------------------------

struct alignas(64) ThreadSlot {
  long sum = 0;
  unsigned width = 0;
};

/// One master's reusable region state.  Threads write only their own slot
/// and span group; the master reads them after the region has joined.
struct RegionState {
  std::atomic<unsigned> entered{0};
  std::array<ThreadSlot, kMaxTeam> slots;
  std::array<SpanGroup, kMaxTeam> groups;
};

void region_body(gomp::ParallelContext& ctx, RegionState& st,
                 const Inputs& in, bool traced) {
  const unsigned tid = ctx.thread_num();
  GroupScope scope(traced ? &st.groups[tid] : nullptr);
  ScopedSpan body(kSpanBody);
  st.entered.fetch_add(1, std::memory_order_relaxed);
  delay(kRegionDelay);
  long sum = 0;
  {
    ScopedSpan span(kSpanFor);
    ctx.for_loop(
        0, kLoopLength,
        [&](long lo, long hi) {
          ScopedSpan chunk(kSpanForBody);
          for (long i = lo; i < hi; ++i) sum += in.loop[i];
        },
        gomp::ScheduleSpec{gomp::Schedule::kStatic, 0}, /*nowait=*/true);
  }
  st.slots[tid] = ThreadSlot{sum, ctx.num_threads()};
  ScopedSpan span(kSpanBarrier);
  ctx.barrier();
}

/// A region passes when every team member ran the body once and the
/// worksharing loop covered every operand exactly once.
bool region_ok(RegionState& st, const Inputs& in) {
  const unsigned width = st.slots[0].width;
  if (width == 0 || width > kMaxTeam) return false;
  long sum = 0;
  bool ok = st.entered.load(std::memory_order_relaxed) == width;
  for (unsigned t = 0; t < width; ++t) {
    sum += st.slots[t].sum;
    ok = ok && st.slots[t].width == width;
  }
  return ok && sum == in.loop_sum;
}

/// Splits one traced region into its layers: dispatch (call to each
/// member's body entry), join (last body exit to return), barrier wait
/// and the worksharing loop's self time.
void account_region(RegionState& st, unsigned width, std::uint64_t t_call,
                    std::uint64_t t_ret, LayerStats& ls) {
  std::uint64_t last_enter = 0;
  std::uint64_t last_exit = 0;
  std::uint64_t last_arrival = 0;
  unsigned last_arriver = 0;
  for (unsigned t = 0; t < width; ++t) {
    const SpanGroup& g = st.groups[t];
    const int body = g.find(kSpanBody);
    const int bar = g.find(kSpanBarrier);
    const int loop = g.find(kSpanFor);
    if (body < 0 || bar < 0 || loop < 0) continue;
    last_enter = std::max(last_enter, g[body].start_ns);
    last_exit = std::max(last_exit, g[body].end_ns);
    if (t > 0) ls[Layer::kPoolWake].add(g[body].start_ns - t_call);
    ls[Layer::kBarrierWait].add(g[bar].dur());
    if (g[bar].start_ns >= last_arrival) {
      last_arrival = g[bar].start_ns;
      last_arriver = t;
    }
    ls[Layer::kForSelf].add(g.self_ns(loop));
  }
  const SpanGroup& last = st.groups[last_arriver];
  const int bar = last.find(kSpanBarrier);
  if (bar >= 0) ls[Layer::kBarrierRelease].add(last[bar].dur());
  if (last_enter >= t_call) ls[Layer::kPoolFork].add(last_enter - t_call);
  if (t_ret >= last_exit) ls[Layer::kPoolJoin].add(t_ret - last_exit);

  Recorder& rec = Recorder::instance();
  const std::uint64_t region = rec.next_region();
  SpanGroup root;
  root.add(kSpanRegion, t_call, t_ret, -1);
  const long root_id = rec.log().append(root, -1, region, 0);
  if (root_id < 0) return;
  for (unsigned t = 0; t < width; ++t) {
    rec.log().append(st.groups[t], root_id, region, t);
  }
}

void region_loop(gomp::Runtime& rt, unsigned width, const Inputs& in,
                 std::uint64_t deadline, long max_regions, bool traced,
                 Outcome& out) {
  RegionState st;
  const bool split = traced && Recorder::instance().active(kGroupRegion);
  LayerStats* ls = split ? &Recorder::instance().local() : nullptr;
  const std::uint64_t w0 = now_ns();
  for (long done = 0; done < max_regions; ++done) {
    if (split) {
      for (auto& g : st.groups) g.clear();
    }
    const std::uint64_t t0 = now_ns();
    if (t0 >= deadline) break;
    st.entered.store(0, std::memory_order_relaxed);
    rt.parallel(
        [&](gomp::ParallelContext& ctx) { region_body(ctx, st, in, split); },
        width);
    const std::uint64_t t1 = now_ns();
    out.op_ns.add(t1 - t0);
    ++out.ops;
    ++out.attempted;
    if (!region_ok(st, in)) ++out.failed;
    if (st.slots[0].width == width) ++out.full_width;
    if (ls != nullptr) account_region(st, st.slots[0].width, t0, t1, *ls);
  }
  out.wall_s = static_cast<double>(now_ns() - w0) * 1e-9;
}

Outcome tenants_loop(gomp::Runtime& rt, const Inputs& in,
                     std::uint64_t deadline, long max_regions, bool traced) {
  std::array<Outcome, kTenants> outs;
  std::atomic<bool> go{false};
  std::vector<std::thread> masters;
  for (unsigned t = 0; t < kTenants; ++t) {
    masters.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      region_loop(rt, kTenantWidth, in, deadline, max_regions, traced,
                  outs[t]);
    });
  }
  const std::uint64_t w0 = now_ns();
  go.store(true, std::memory_order_release);
  for (auto& m : masters) m.join();
  Outcome all;
  for (const auto& o : outs) all.merge(o);
  all.wall_s = static_cast<double>(now_ns() - w0) * 1e-9;
  return all;
}

// --- sync: critical sections in one long region ------------------------------

struct alignas(64) SyncThread {
  Hist lat;
  long ops = 0;
  long added = 0;
};

struct SyncState {
  std::atomic<long> counter{0};
  std::atomic<int> inside{0};
  std::atomic<long> violations{0};
  std::array<SyncThread, kMaxTeam> per;
};

void sync_body(gomp::ParallelContext& ctx, SyncState& st, const Inputs& in,
               std::uint64_t deadline, long max_ops, bool traced,
               std::uint64_t region) {
  const unsigned tid = ctx.thread_num();
  SyncThread& me = st.per[tid];
  SpanGroup op;
  const bool split = traced && Recorder::instance().active(kGroupCritical);
  LayerStats* ls = split ? &Recorder::instance().local() : nullptr;
  std::size_t k = (tid * 1031) & (kIncs - 1);
  for (long n = 0; n < max_ops; ++n) {
    const std::uint64_t t0 = now_ns();
    if (t0 >= deadline) break;
    const std::int32_t v = in.incs[k];
    k = (k + 1) & (kIncs - 1);
    {
      GroupScope scope(split ? &op : nullptr);
      ScopedSpan span(kSpanCritical);
      ctx.critical([&] {
        ScopedSpan inner(kSpanCriticalBody);
        // A second thread inside the section is a mutual-exclusion failure;
        // the plain load/store increment loses updates if one happens.
        if (st.inside.exchange(1, std::memory_order_acquire) != 0) {
          st.violations.fetch_add(1, std::memory_order_relaxed);
        }
        st.counter.store(st.counter.load(std::memory_order_relaxed) + v,
                         std::memory_order_relaxed);
        st.inside.store(0, std::memory_order_release);
      });
    }
    me.lat.add(now_ns() - t0);
    ++me.ops;
    me.added += v;
    if (ls != nullptr) {
      const int c = op.find(kSpanCritical);
      if (c >= 0) (*ls)[Layer::kCriticalSelf].add(op.self_ns(c));
      Recorder::instance().log().append(op, -1, region, tid);
      op.clear();
    }
    delay(kSyncDelay);
  }
}

Outcome sync_region(gomp::Runtime& rt, const Inputs& in,
                    std::uint64_t deadline, long max_ops, bool traced) {
  SyncState st;
  const std::uint64_t region = Recorder::instance().next_region();
  const std::uint64_t w0 = now_ns();
  rt.parallel(
      [&](gomp::ParallelContext& ctx) {
        sync_body(ctx, st, in, deadline, max_ops, traced, region);
      },
      kWidth);
  Outcome out;
  out.wall_s = static_cast<double>(now_ns() - w0) * 1e-9;
  long added = 0;
  for (const auto& p : st.per) {
    out.op_ns.merge(p.lat);
    out.ops += p.ops;
    added += p.added;
  }
  out.attempted = out.ops;
  out.failed = st.violations.load();
  if (st.counter.load() != added) out.failed = std::max(out.failed, 1L);
  out.failed = std::min(out.failed, out.attempted);
  return out;
}

// --- npb: verified class A passes --------------------------------------------

/// Runs NPB kernel @p k (an index into kNpbKernels); returns its timed
/// section and whether the official verification passed.
std::pair<double, bool> run_kernel(int k, gomp::Runtime& rt,
                                   npb::Class cls) {
  auto result = [](const auto& r) {
    return std::pair<double, bool>{r.seconds, r.verify.verified};
  };
  switch (k) {
    case 0: return result(npb::run_cg(rt, cls, kWidth));
    case 1: return result(npb::run_is(rt, cls, kWidth));
    case 2: return result(npb::run_mg(rt, cls, kWidth));
    default: return result(npb::run_ft(rt, cls, kWidth));
  }
}

Outcome npb_passes(gomp::Runtime& rt, const Inputs& in, npb::Class cls,
                   std::uint64_t deadline, bool traced) {
  Outcome out;
  Recorder& rec = Recorder::instance();
  const bool split = traced && rec.active(kGroupNpb);
  const std::uint64_t w0 = now_ns();
  do {
    SpanGroup pass;
    std::uint64_t pass_ns = 0;
    for (int k : in.npb_order) {
      GroupScope scope(split ? &pass : nullptr);
      ScopedSpan span(kNpbKernels[k]);
      const auto [seconds, verified] = run_kernel(k, rt, cls);
      const auto ns = static_cast<std::uint64_t>(seconds * 1e9);
      out.kernel_ns[k].add(ns);
      pass_ns += ns;
      ++out.attempted;
      if (!verified) ++out.failed;
    }
    out.op_ns.add(pass_ns);
    ++out.ops;
    if (split) rec.log().append(pass, -1, rec.next_region(), 0);
  } while (now_ns() < deadline);
  out.wall_s = static_cast<double>(now_ns() - w0) * 1e-9;
  return out;
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  for (Workload w : {Workload::kForkJoin, Workload::kSync, Workload::kNpb,
                     Workload::kTenants}) {
    if (name == name_of(w)) return w;
  }
  return std::nullopt;
}

const char* name_of(Workload w) {
  switch (w) {
    case Workload::kForkJoin: return "fork_join";
    case Workload::kSync: return "sync";
    case Workload::kNpb: return "npb";
    case Workload::kTenants: return "tenants";
  }
  return "?";
}

unsigned groups_of(Workload w) {
  switch (w) {
    case Workload::kForkJoin:
    case Workload::kTenants: return kGroupRegion;
    case Workload::kSync: return kGroupCritical;
    case Workload::kNpb: return kGroupNpb;
  }
  return 0;
}

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  std::uint64_t s = seed;
  in.loop.resize(kLoopLength);
  for (auto& v : in.loop) {
    v = static_cast<std::int32_t>(splitmix64(s) % 2001) - 1000;
    in.loop_sum += v;
  }
  in.incs.resize(kIncs);
  for (auto& v : in.incs) {
    v = static_cast<std::int32_t>(splitmix64(s) % 100) + 1;
  }
  in.npb_order = {0, 1, 2, 3};
  for (int i = 3; i > 0; --i) {
    std::swap(in.npb_order[i], in.npb_order[splitmix64(s) % (i + 1)]);
  }
  return in;
}

void Outcome::merge(const Outcome& o) {
  op_ns.merge(o.op_ns);
  ops += o.ops;
  attempted += o.attempted;
  failed += o.failed;
  wall_s += o.wall_s;
  full_width += o.full_width;
  for (std::size_t k = 0; k < kernel_ns.size(); ++k) {
    kernel_ns[k].merge(o.kernel_ns[k]);
  }
}

std::unique_ptr<gomp::Runtime> make_runtime(Workload w,
                                            gomp::BackendKind backend,
                                            bool traced) {
  gomp::RuntimeOptions opts;
  gomp::Icvs icvs;
  icvs.num_threads = width_of(w);
  // Passive wait would measure the kernel's futex wake, which varies far
  // more between runs than the runtime's own dispatch does.
  icvs.wait_policy = gomp::WaitPolicy::kActive;
  opts.icvs = icvs;
  opts.pool_max_workers =
      w == Workload::kTenants ? kTenants * (kTenantWidth - 1) : kWidth - 1;
  if (traced && backend == gomp::BackendKind::kMca) {
    opts.backend_factory = [topo = opts.topology, domain = opts.domain] {
      // Same platform set-up as the runtime's own MCA path.
      ompmca::mrapi::Database::instance().configure_platform(topo);
      return make_timing_backend(std::make_unique<gomp::McaBackend>(domain));
    };
  } else {
    opts.backend = backend;
  }
  return std::make_unique<gomp::Runtime>(std::move(opts));
}

Outcome warm_up(gomp::Runtime& rt, Workload w, const Inputs& in) {
  switch (w) {
    case Workload::kForkJoin: {
      Outcome out;
      region_loop(rt, kWidth, in, kNoDeadline, kWarmRegions, false, out);
      return out;
    }
    case Workload::kTenants:
      return tenants_loop(rt, in, kNoDeadline, kWarmRegions / kTenants,
                          false);
    case Workload::kSync:
      return sync_region(rt, in, kNoDeadline, kWarmCriticals, false);
    case Workload::kNpb:
      return npb_passes(rt, in, npb::Class::S, 0, false);
  }
  return {};
}

Outcome run_for(gomp::Runtime& rt, Workload w, const Inputs& in,
                double seconds, bool traced) {
  const std::uint64_t deadline = deadline_after(seconds);
  constexpr long kUnbounded = std::numeric_limits<long>::max();
  switch (w) {
    case Workload::kForkJoin: {
      Outcome out;
      region_loop(rt, kWidth, in, deadline, kUnbounded, traced, out);
      return out;
    }
    case Workload::kTenants:
      return tenants_loop(rt, in, deadline, kUnbounded, traced);
    case Workload::kSync:
      return sync_region(rt, in, deadline, kUnbounded, traced);
    case Workload::kNpb:
      return npb_passes(rt, in, npb::Class::A, deadline, traced);
  }
  return {};
}

}  // namespace perfbench
