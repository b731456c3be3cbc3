// Measurement plumbing shared by every workload: a constant-memory latency
// histogram, in-memory spans for the traced run, the per-layer statistics
// they feed, and a timing SystemBackend that wraps the MCA backend.
//
// Everything here lives in the benchmark: the runtime under test is built
// unmodified from ../src and sees only its public API.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "gomp/backend.hpp"

namespace perfbench {

inline std::uint64_t now_ns() { return ompmca::monotonic_nanos(); }

/// Log-linear histogram of nanosecond samples: 128 sub-buckets per power of
/// two (< 0.8 % bucket width), exact below 128 ns.  Constant memory, so the
/// benchmark's own footprint does not grow with throughput (peak_rss_mb
/// would otherwise reward slower runs).  Up to kExact samples are also kept
/// verbatim, so small sets (NPB passes) get exact quantiles.
class Hist {
 public:
  void add(std::uint64_t ns);
  void merge(const Hist& o);
  std::uint64_t count() const { return count_; }
  double sum_ns() const { return sum_; }
  /// Quantile, interpolated between samples (or inside the bucket once
  /// more than kExact samples were seen); 0 when empty.
  double quantile_ns(double q) const;

 private:
  static constexpr std::size_t kExact = 1024;
  static constexpr unsigned kSubBits = 7;
  static constexpr unsigned kSub = 1u << kSubBits;
  static constexpr unsigned kBuckets = kSub + (64 - kSubBits) * kSub;
  static unsigned index_of(std::uint64_t v);
  static void bounds_of(unsigned idx, double* lo, double* width);

  std::vector<std::uint64_t> buckets_;  // sized on first add
  std::vector<std::uint64_t> exact_;    // every sample while count_ <= kExact
  std::uint64_t count_ = 0;
  double sum_ = 0;
};

// --- spans -------------------------------------------------------------------

/// One timed call into a layer.  `parent` indexes the enclosing span of
/// the same group (-1 for a root).
struct Span {
  const char* name = nullptr;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  int parent = -1;

  std::uint64_t dur() const { return end_ns - start_ns; }
};

/// The spans one thread records for one unit of work (its share of a
/// region, or one critical section).  Fixed capacity: the traced bodies
/// open a known, small number of spans.
class SpanGroup {
 public:
  static constexpr int kCap = 16;

  int open(const char* name, int parent);
  /// Records a span timed by the caller.
  int add(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
          int parent);
  void close(int idx) { spans_[idx].end_ns = now_ns(); }
  void clear() { n_ = 0; }
  int size() const { return n_; }
  const Span& operator[](int i) const { return spans_[i]; }
  /// First span named @p name (pointer comparison), or -1.
  int find(const char* name) const;
  /// Span duration minus the time its direct children cover.
  std::uint64_t self_ns(int idx) const;

 private:
  std::array<Span, kCap> spans_{};
  int n_ = 0;
};

/// Routes the calling thread's spans into @p g (nullptr: tracing off).
class GroupScope {
 public:
  explicit GroupScope(SpanGroup* g);
  ~GroupScope();
  GroupScope(const GroupScope&) = delete;
  GroupScope& operator=(const GroupScope&) = delete;

 private:
  SpanGroup* saved_group_;
  int saved_parent_;
};

/// Records a span the caller timed itself, under the calling thread's
/// innermost open span, if a group is active.
void record_span(const char* name, std::uint64_t start_ns,
                 std::uint64_t end_ns);

/// Opens a span in the calling thread's current group, if any.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanGroup* group_;
  int idx_ = -1;
  int saved_parent_ = -1;
};

// Span names (compared by pointer).
inline constexpr const char* kSpanRegion = "region";
inline constexpr const char* kSpanBody = "body";
inline constexpr const char* kSpanFor = "for";
inline constexpr const char* kSpanForBody = "for.body";
inline constexpr const char* kSpanBarrier = "barrier";
inline constexpr const char* kSpanCritical = "critical";
inline constexpr const char* kSpanCriticalBody = "critical.body";
inline constexpr const char* kSpanLock = "mrapi.mutex.lock";
inline constexpr const char* kSpanUnlock = "mrapi.mutex.unlock";

/// Spans kept for the output file: the first kCap recorded, with ids,
/// region ids and thread ids resolved.  Later spans still feed the layer
/// statistics; only their raw copy is dropped.
class SpanLog {
 public:
  static constexpr std::size_t kCap = 100000;

  /// Appends @p g's spans; a root span gets @p root_parent as its parent.
  /// Returns the id of g's first span (or -1 when full).
  long append(const SpanGroup& g, long root_parent, std::uint64_t region,
              unsigned tid);
  bool write_jsonl(const std::string& path);

 private:
  struct Row {
    const char* name;
    std::uint64_t start_ns, end_ns;
    long parent;
    std::uint64_t region;
    unsigned tid;
  };
  std::atomic<bool> full_{false};
  std::mutex mu_;
  std::vector<Row> rows_;  // guarded by mu_
};

// --- per-layer statistics ----------------------------------------------------

enum class Layer : unsigned {
  kPoolFork,
  kPoolWake,
  kPoolJoin,
  kBarrierWait,
  kBarrierRelease,
  kForSelf,
  kCriticalSelf,
  kMutexLock,
  kMutexUnlock,
  kShmemAlloc,
  kNodeLaunch,
  kCount
};

/// Which workload layers a traced phase contributes.  Each per-layer
/// metric comes from the named workload when that workload exercises the
/// layer, else from a short traced pass of the workload that does.
enum LayerGroup : unsigned {
  kGroupRegion = 1u << 0,    // pool, barrier, workshare, shmem per region
  kGroupCritical = 1u << 1,  // critical registry, MRAPI mutex
  kGroupNpb = 1u << 2,       // NPB kernels
};

struct LayerStats {
  std::array<Hist, static_cast<unsigned>(Layer::kCount)> hist;
  Hist& operator[](Layer l) { return hist[static_cast<unsigned>(l)]; }
  const Hist& operator[](Layer l) const {
    return hist[static_cast<unsigned>(l)];
  }
  void merge(const LayerStats& o);
};

/// Process-wide sink of the traced run.  Each thread records into its own
/// shard; shards are merged once every runtime has been torn down.
class Recorder {
 public:
  static Recorder& instance();

  void set_groups(unsigned groups) {
    groups_.store(groups, std::memory_order_relaxed);
  }
  bool active(LayerGroup g) const {
    return (groups_.load(std::memory_order_relaxed) & g) != 0;
  }
  /// The calling thread's shard.
  LayerStats& local();
  LayerStats merged() const;

  SpanLog& log() { return log_; }
  std::uint64_t next_region() {
    return region_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  std::atomic<std::uint64_t> shmem_allocs{0};

 private:
  std::atomic<unsigned> groups_{0};
  std::atomic<std::uint64_t> region_{0};
  SpanLog log_;
};

/// Forwards every SystemBackend call to @p inner and times the MRAPI-backed
/// services: node launch, shared-memory allocation, and mutex lock/unlock.
std::unique_ptr<ompmca::gomp::SystemBackend> make_timing_backend(
    std::unique_ptr<ompmca::gomp::SystemBackend> inner);

// --- direct layer probes -----------------------------------------------------

struct ProbeResult {
  double mutex_ns = 0;  // mrapi::Mutex lock+unlock, uncontended
  double sem_ns = 0;    // mrapi::Semaphore acquire+release, uncontended
  double arena_ns = 0;  // SystemShmArena allocate+release
  unsigned long long batches = 0;  // samples behind each median
  bool ok = false;                 // every MRAPI call succeeded
};

/// Calls the MRAPI primitives directly, with no runtime involved.  Each
/// figure is the median of several batches, in ns per pair of calls.
ProbeResult run_probes();

}  // namespace perfbench
