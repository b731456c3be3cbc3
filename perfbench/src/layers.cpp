#include "layers.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

#include "mrapi/arena.hpp"
#include "mrapi/mutex.hpp"
#include "mrapi/semaphore.hpp"

namespace perfbench {

// --- Hist --------------------------------------------------------------------

unsigned Hist::index_of(std::uint64_t v) {
  if (v < kSub) return static_cast<unsigned>(v);
  const unsigned e = 63u - static_cast<unsigned>(std::countl_zero(v));
  const unsigned shift = e - kSubBits;
  const unsigned mant = static_cast<unsigned>(v >> shift) - kSub;
  return kSub + shift * kSub + mant;
}

void Hist::bounds_of(unsigned idx, double* lo, double* width) {
  if (idx < kSub) {
    *lo = idx;
    *width = 1;
    return;
  }
  const unsigned shift = (idx - kSub) / kSub;
  const unsigned mant = (idx - kSub) % kSub;
  *width = std::ldexp(1.0, static_cast<int>(shift));
  *lo = (kSub + mant) * *width;
}

void Hist::add(std::uint64_t ns) {
  if (buckets_.empty()) buckets_.assign(kBuckets, 0);
  ++buckets_[index_of(ns)];
  ++count_;
  sum_ += static_cast<double>(ns);
  if (count_ <= kExact) {
    exact_.push_back(ns);
  } else if (!exact_.empty()) {
    exact_.clear();
  }
}

void Hist::merge(const Hist& o) {
  if (o.count_ == 0) return;
  if (buckets_.empty()) buckets_.assign(kBuckets, 0);
  for (unsigned i = 0; i < kBuckets; ++i) buckets_[i] += o.buckets_[i];
  count_ += o.count_;
  sum_ += o.sum_;
  if (count_ <= kExact) {
    exact_.insert(exact_.end(), o.exact_.begin(), o.exact_.end());
  } else {
    exact_.clear();
  }
}

double Hist::quantile_ns(double q) const {
  if (count_ == 0) return 0;
  const double rank = q * static_cast<double>(count_ - 1);
  if (count_ <= kExact) {
    std::vector<std::uint64_t> v = exact_;
    std::sort(v.begin(), v.end());
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return static_cast<double>(v[lo]) * (1 - frac) +
           static_cast<double>(v[hi]) * frac;
  }
  double cum = 0;
  for (unsigned i = 0; i < kBuckets; ++i) {
    const double c = static_cast<double>(buckets_[i]);
    if (c == 0) continue;
    if (cum + c > rank) {
      double lo = 0;
      double width = 0;
      bounds_of(i, &lo, &width);
      return lo + width * (rank - cum + 0.5) / c;
    }
    cum += c;
  }
  return 0;
}

// --- spans -------------------------------------------------------------------

namespace {
thread_local SpanGroup* t_group = nullptr;
thread_local int t_parent = -1;
}  // namespace

int SpanGroup::open(const char* name, int parent) {
  const std::uint64_t t = now_ns();
  return add(name, t, t, parent);
}

int SpanGroup::add(const char* name, std::uint64_t start_ns,
                   std::uint64_t end_ns, int parent) {
  if (n_ == kCap) return -1;
  spans_[n_] = Span{name, start_ns, end_ns, parent};
  return n_++;
}

int SpanGroup::find(const char* name) const {
  for (int i = 0; i < n_; ++i) {
    if (spans_[i].name == name) return i;
  }
  return -1;
}

std::uint64_t SpanGroup::self_ns(int idx) const {
  std::uint64_t children = 0;
  for (int i = idx + 1; i < n_; ++i) {
    if (spans_[i].parent == idx) children += spans_[i].dur();
  }
  const std::uint64_t d = spans_[idx].dur();
  return children < d ? d - children : 0;
}

GroupScope::GroupScope(SpanGroup* g)
    : saved_group_(t_group), saved_parent_(t_parent) {
  t_group = g;
  t_parent = -1;
}

GroupScope::~GroupScope() {
  t_group = saved_group_;
  t_parent = saved_parent_;
}

void record_span(const char* name, std::uint64_t start_ns,
                 std::uint64_t end_ns) {
  if (t_group != nullptr) t_group->add(name, start_ns, end_ns, t_parent);
}

ScopedSpan::ScopedSpan(const char* name) : group_(t_group) {
  if (group_ == nullptr) return;
  idx_ = group_->open(name, t_parent);
  if (idx_ < 0) return;
  saved_parent_ = t_parent;
  t_parent = idx_;
}

ScopedSpan::~ScopedSpan() {
  if (group_ == nullptr || idx_ < 0) return;
  group_->close(idx_);
  t_parent = saved_parent_;
}

long SpanLog::append(const SpanGroup& g, long root_parent,
                     std::uint64_t region, unsigned tid) {
  if (full_.load(std::memory_order_relaxed) || g.size() == 0) return -1;
  std::lock_guard<std::mutex> lk(mu_);
  if (rows_.size() + static_cast<std::size_t>(g.size()) > kCap) {
    full_.store(true, std::memory_order_relaxed);
    return -1;
  }
  if (rows_.empty()) rows_.reserve(kCap);
  const long base = static_cast<long>(rows_.size());
  for (int i = 0; i < g.size(); ++i) {
    const Span& s = g[i];
    rows_.push_back(Row{s.name, s.start_ns, s.end_ns,
                        s.parent < 0 ? root_parent : base + s.parent, region,
                        tid});
  }
  return base;
}

bool SpanLog::write_jsonl(const std::string& path) {
  std::lock_guard<std::mutex> lk(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const Row& r = rows_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%llu,"
                 "\"end_ns\":%llu,\"parent\":%ld,\"region\":%llu,"
                 "\"tid\":%u}\n",
                 i, r.name, static_cast<unsigned long long>(r.start_ns),
                 static_cast<unsigned long long>(r.end_ns), r.parent,
                 static_cast<unsigned long long>(r.region), r.tid);
  }
  return std::fclose(f) == 0;
}

// --- Recorder ----------------------------------------------------------------

namespace {
std::mutex g_shards_mu;
std::vector<std::unique_ptr<LayerStats>>& shards() {
  static std::vector<std::unique_ptr<LayerStats>> s;
  return s;
}
}  // namespace

void LayerStats::merge(const LayerStats& o) {
  for (std::size_t i = 0; i < hist.size(); ++i) hist[i].merge(o.hist[i]);
}

Recorder& Recorder::instance() {
  static Recorder r;
  return r;
}

LayerStats& Recorder::local() {
  // Shards are owned by the process-wide list and never freed, so the
  // cached pointer stays valid after the thread that made it exits.
  thread_local LayerStats* shard = nullptr;
  if (shard == nullptr) {
    auto owned = std::make_unique<LayerStats>();
    shard = owned.get();
    std::lock_guard<std::mutex> lk(g_shards_mu);
    shards().push_back(std::move(owned));
  }
  return *shard;
}

LayerStats Recorder::merged() const {
  LayerStats all;
  std::lock_guard<std::mutex> lk(g_shards_mu);
  for (const auto& s : shards()) all.merge(*s);
  return all;
}

// --- timing backend ----------------------------------------------------------

namespace {

namespace gomp = ompmca::gomp;

class TimingMutex final : public gomp::BackendMutex {
 public:
  explicit TimingMutex(std::unique_ptr<gomp::BackendMutex> inner)
      : inner_(std::move(inner)) {}

  void lock() override { timed(kSpanLock, Layer::kMutexLock, [&] {
    inner_->lock();
  }); }
  void unlock() override { timed(kSpanUnlock, Layer::kMutexUnlock, [&] {
    inner_->unlock();
  }); }
  bool try_lock() override { return inner_->try_lock(); }

 private:
  template <typename F>
  static void timed(const char* span_name, Layer layer, F&& f) {
    Recorder& rec = Recorder::instance();
    if (!rec.active(kGroupCritical)) {
      f();
      return;
    }
    const std::uint64_t t0 = now_ns();
    f();
    const std::uint64_t t1 = now_ns();
    record_span(span_name, t0, t1);
    rec.local()[layer].add(t1 - t0);
  }

  std::unique_ptr<gomp::BackendMutex> inner_;
};

class TimingBackend final : public gomp::SystemBackend {
 public:
  explicit TimingBackend(std::unique_ptr<gomp::SystemBackend> inner)
      : inner_(std::move(inner)) {}

  std::string_view name() const override { return inner_->name(); }

  ompmca::Status launch_thread(unsigned index,
                               std::function<void()> fn) override {
    const std::uint64_t t0 = now_ns();
    const ompmca::Status s = inner_->launch_thread(index, std::move(fn));
    Recorder::instance().local()[Layer::kNodeLaunch].add(now_ns() - t0);
    return s;
  }
  ompmca::Status join_thread(unsigned index) override {
    return inner_->join_thread(index);
  }

  void* allocate(std::size_t bytes) override {
    return timed_alloc([&] { return inner_->allocate(bytes); });
  }
  void* allocate_on_cluster(std::size_t bytes, unsigned cluster) override {
    return timed_alloc(
        [&] { return inner_->allocate_on_cluster(bytes, cluster); });
  }
  void deallocate(void* p) override { inner_->deallocate(p); }

  std::unique_ptr<gomp::BackendMutex> create_mutex() override {
    auto m = inner_->create_mutex();
    if (m == nullptr) return nullptr;
    return std::make_unique<TimingMutex>(std::move(m));
  }

  unsigned num_procs() override { return inner_->num_procs(); }

 private:
  template <typename F>
  static void* timed_alloc(F&& f) {
    Recorder& rec = Recorder::instance();
    const std::uint64_t t0 = now_ns();
    void* p = f();
    rec.local()[Layer::kShmemAlloc].add(now_ns() - t0);
    rec.shmem_allocs.fetch_add(1, std::memory_order_relaxed);
    return p;
  }

  std::unique_ptr<gomp::SystemBackend> inner_;
};

}  // namespace

std::unique_ptr<gomp::SystemBackend> make_timing_backend(
    std::unique_ptr<gomp::SystemBackend> inner) {
  return std::make_unique<TimingBackend>(std::move(inner));
}

// --- direct probes -----------------------------------------------------------

namespace {

constexpr int kBatches = 9;

/// Median over kBatches batches of ns per call of @p op.
template <typename Op>
double median_ns_per_call(Op&& op) {
  constexpr int kCalls = 200000;
  std::vector<double> per_call;
  for (int b = 0; b < kBatches; ++b) {
    const std::uint64_t t0 = now_ns();
    for (int i = 0; i < kCalls; ++i) op();
    per_call.push_back(static_cast<double>(now_ns() - t0) / kCalls);
  }
  std::nth_element(per_call.begin(), per_call.begin() + kBatches / 2,
                   per_call.end());
  return per_call[kBatches / 2];
}

}  // namespace

ProbeResult run_probes() {
  namespace mrapi = ompmca::mrapi;
  ProbeResult r;
  bool ok = true;

  mrapi::Mutex mutex;
  r.mutex_ns = median_ns_per_call([&] {
    mrapi::LockKey key;
    ok &= ompmca::ok(mutex.lock(mrapi::kTimeoutInfinite, &key));
    ok &= ompmca::ok(mutex.unlock(key));
  });

  mrapi::Semaphore sem(mrapi::SemaphoreAttributes{1});
  r.sem_ns = median_ns_per_call([&] {
    ok &= ompmca::ok(sem.acquire(mrapi::kTimeoutInfinite));
    ok &= ompmca::ok(sem.release());
  });

  mrapi::SystemShmArena arena(std::size_t{1} << 20);
  r.arena_ns = median_ns_per_call([&] {
    auto p = arena.allocate(256);
    ok &= p.has_value();
    if (p) ok &= ompmca::ok(arena.release(*p));
  });

  r.batches = kBatches;
  r.ok = ok;
  return r;
}

}  // namespace perfbench
