// Cross-layer integration: the MCA runtime's observable MRAPI footprint —
// the paper's §5B wiring, checked end to end through the public MRAPI API.
#include <gtest/gtest.h>

#include "gomp/gomp.hpp"
#include "mrapi/database.hpp"

namespace ompmca::gomp {
namespace {

Runtime make_mca_runtime(unsigned threads, bool nested = false) {
  RuntimeOptions opts;
  opts.backend = BackendKind::kMca;
  Icvs icvs;
  icvs.num_threads = threads;
  icvs.nested = nested;
  icvs.max_active_levels = nested ? 2 : 1;
  opts.icvs = icvs;
  return Runtime(opts);
}

std::size_t domain_node_count() {
  auto d = mrapi::Database::instance().find_domain(0);
  return d ? (*d)->node_count() : 0;
}

TEST(McaIntegration, PersistentPoolKeepsWorkerNodesRegistered) {
  std::size_t before = domain_node_count();
  {
    Runtime rt = make_mca_runtime(4);
    // +1: the runtime's master node.
    EXPECT_EQ(domain_node_count(), before + 1);
    rt.parallel([](ParallelContext&) {});
    // Pool workers were launched as MRAPI nodes and stay parked: +3.
    EXPECT_EQ(domain_node_count(), before + 4);
    rt.parallel([](ParallelContext&) {});
    EXPECT_EQ(domain_node_count(), before + 4);  // reused, not re-created
  }
  // Runtime destruction retires every node it registered.
  EXPECT_EQ(domain_node_count(), before);
}

// §5B.1's literal lifecycle — a node created at fork, finalized at join —
// is the nested team's: its workers are MRAPI nodes that exist only for the
// inner region.
TEST(McaIntegration, NestedTeamRegistersAndRetiresPerRegion) {
  std::size_t before = domain_node_count();
  {
    Runtime rt = make_mca_runtime(2, /*nested=*/true);
    rt.parallel([&](ParallelContext& outer) {
      if (outer.thread_num() != 0) return;
      for (int r = 0; r < 2; ++r) {
        std::size_t inside = 0;
        rt.parallel(
            [&](ParallelContext& inner) {
              inner.master([&] { inside = domain_node_count(); });
              inner.barrier();
            },
            4);
        // Master + 1 pool worker + 3 nested workers inside the inner
        // region; the nested workers' nodes are gone after its join.
        EXPECT_EQ(inside, before + 5);
        EXPECT_EQ(domain_node_count(), before + 2);
      }
    });
    EXPECT_EQ(domain_node_count(), before + 2);
  }
  EXPECT_EQ(domain_node_count(), before);
}

TEST(McaIntegration, RuntimeAllocationsAreInvisibleAfterTeardown) {
  auto d = mrapi::Database::instance().domain(0);
  ASSERT_TRUE(d.has_value());
  std::size_t arena_before = (*d)->arena().used();
  {
    Runtime rt = make_mca_runtime(4);
    long sink = 0;
    rt.parallel([&](ParallelContext& ctx) {
      ctx.critical([&] { ++sink; });  // forces an MRAPI mutex creation
    });
    EXPECT_EQ(sink, 4);
  }
  // gomp_malloc segments are heap-mode: the system arena is untouched, and
  // teardown released every key the runtime created.
  EXPECT_EQ((*d)->arena().used(), arena_before);
}

TEST(McaIntegration, MasterNodeUsableForApplicationResources) {
  Runtime rt = make_mca_runtime(2);
  auto* mca = dynamic_cast<McaBackend*>(&rt.backend());
  ASSERT_NE(mca, nullptr);
  // Applications can share the runtime's domain for their own MRAPI use.
  auto seg = mca->node().shmem_create_malloc(0x7777, 256);
  ASSERT_TRUE(seg.has_value());
  auto found = mca->node().shmem_get(0x7777);
  ASSERT_TRUE(found.has_value());
  (void)(*found)->detach(mca->node().node_id());
  EXPECT_EQ(mca->node().shmem_delete(0x7777), Status::kSuccess);
}

TEST(McaIntegration, MetadataDrivesDefaultTeamWidth) {
  ::unsetenv("OMP_NUM_THREADS");
  RuntimeOptions opts;
  opts.backend = BackendKind::kMca;
  Runtime rt(opts);
  // §5B.4: the MRAPI resource tree reports 24 HW threads on the modelled
  // board; the pool defaults to that.
  EXPECT_EQ(rt.max_threads(), 24u);
}

}  // namespace
}  // namespace ompmca::gomp
