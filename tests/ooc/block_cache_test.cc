// BlockCache (ooc/block_cache.h): budget enforcement, LRU eviction order,
// pin leases, the overflow escape hatch, counters, and content fidelity
// against direct PagedSnapshot reads — single-threaded and concurrent.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/cloudwalker.h"
#include "graph/generators.h"
#include "gtest/gtest.h"
#include "ooc/block_cache.h"
#include "ooc/paged_snapshot.h"
#include "snapshot/snapshot.h"

namespace cloudwalker {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// One many-block snapshot shared by every test: block_bytes=1024 over
// ~5000 in-edges (4 bytes each) yields ~20 blocks.
class BlockCacheTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Graph graph = GenerateRmat(/*num_nodes=*/600, /*num_edges=*/5000,
                               /*seed=*/21);
    IndexingOptions options;
    options.num_walkers = 10;
    options.params.num_steps = 4;
    auto built = CloudWalker::Build(std::move(graph), options);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    path_ = new std::string(TempPath("cache_fixture.cwk"));
    SnapshotWriteOptions write_options;
    write_options.block_bytes = 1024;
    const Status s =
        SnapshotWriter::Write(*path_, (*built)->graph(), (*built)->index(),
                              SnapshotMetadata{}, write_options);
    ASSERT_TRUE(s.ok()) << s.ToString();
    auto paged = PagedSnapshot::Open(*path_);
    ASSERT_TRUE(paged.ok()) << paged.status().ToString();
    paged_ = new std::shared_ptr<const PagedSnapshot>(std::move(*paged));
    ASSERT_GE((*paged_)->blocks().size(), 8u)
        << "fixture must span many blocks";
    ASSERT_FALSE((*paged_)->all_resident());
  }
  static void TearDownTestSuite() {
    std::remove(path_->c_str());
    delete paged_;
    delete path_;
    paged_ = nullptr;
    path_ = nullptr;
  }

  static std::shared_ptr<const PagedSnapshot> snapshot() { return *paged_; }

  /// A budget admitting exactly `n` of the largest blocks.
  static uint64_t BudgetFor(size_t n) {
    return static_cast<uint64_t>(n) * snapshot()->max_block_bytes();
  }

  static std::shared_ptr<const PagedSnapshot>* paged_;
  static std::string* path_;
};

std::shared_ptr<const PagedSnapshot>* BlockCacheTest::paged_ = nullptr;
std::string* BlockCacheTest::path_ = nullptr;

TEST_F(BlockCacheTest, CreateRejectsBudgetBelowLargestBlock) {
  auto cache =
      BlockCache::Create(snapshot(), snapshot()->max_block_bytes() - 1);
  ASSERT_FALSE(cache.ok());
  EXPECT_TRUE(cache.status().IsInvalidArgument()) << cache.status().ToString();
  auto ok = BlockCache::Create(snapshot(), snapshot()->max_block_bytes());
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

TEST_F(BlockCacheTest, MissThenHitAndResidencyCounters) {
  auto cache = BlockCache::Create(snapshot(), BudgetFor(4));
  ASSERT_TRUE(cache.ok());
  {
    auto lease = (*cache)->Acquire(0);
    ASSERT_TRUE(lease.ok()) << lease.status().ToString();
    EXPECT_TRUE(lease->valid());
    EXPECT_EQ(lease->block(), 0u);
    EXPECT_EQ(lease->base(), snapshot()->blocks()[0].edge_begin);
  }
  BlockCacheCounters c = (*cache)->counters();
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.hits, 0u);
  EXPECT_EQ(c.bytes_read, snapshot()->blocks()[0].payload_bytes());
  EXPECT_EQ(c.bytes_resident, snapshot()->blocks()[0].payload_bytes());

  // Released but still resident: the second acquire is a hit, no re-read.
  auto again = (*cache)->Acquire(0);
  ASSERT_TRUE(again.ok());
  c = (*cache)->counters();
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.bytes_read, snapshot()->blocks()[0].payload_bytes());
  EXPECT_EQ(c.evictions, 0u);
  EXPECT_EQ(c.overflow_admits, 0u);
}

TEST_F(BlockCacheTest, EvictsLeastRecentlyUsedFirst) {
  auto cache = BlockCache::Create(snapshot(), BudgetFor(2));
  ASSERT_TRUE(cache.ok());
  // Load 0 then 1; touch 0 so 1 becomes LRU; 2 must evict 1, not 0.
  ASSERT_TRUE((*cache)->Acquire(0).ok());
  ASSERT_TRUE((*cache)->Acquire(1).ok());
  ASSERT_TRUE((*cache)->Acquire(0).ok());  // refresh 0
  ASSERT_TRUE((*cache)->Acquire(2).ok());
  BlockCacheCounters c = (*cache)->counters();
  EXPECT_GE(c.evictions, 1u);
  // 0 stayed resident (hit), 1 was the victim (miss again).
  const uint64_t hits_before = c.hits;
  const uint64_t misses_before = c.misses;
  ASSERT_TRUE((*cache)->Acquire(0).ok());
  EXPECT_EQ((*cache)->counters().hits, hits_before + 1);
  ASSERT_TRUE((*cache)->Acquire(1).ok());
  EXPECT_EQ((*cache)->counters().misses, misses_before + 1);
}

TEST_F(BlockCacheTest, BudgetIsHardWhileUnpinnedBlocksRemain) {
  auto cache = BlockCache::Create(snapshot(), BudgetFor(3));
  ASSERT_TRUE(cache.ok());
  const size_t num_blocks = snapshot()->blocks().size();
  for (int pass = 0; pass < 2; ++pass) {
    for (uint32_t b = 0; b < num_blocks; ++b) {
      auto lease = (*cache)->Acquire(b);
      ASSERT_TRUE(lease.ok()) << lease.status().ToString();
      EXPECT_LE((*cache)->counters().bytes_resident, BudgetFor(3));
    }
  }
  const BlockCacheCounters c = (*cache)->counters();
  EXPECT_EQ(c.overflow_admits, 0u);
  EXPECT_LE(c.peak_bytes_resident, BudgetFor(3));
  EXPECT_GT(c.evictions, 0u);
}

TEST_F(BlockCacheTest, PinnedBlocksAreNeverEvicted) {
  auto cache = BlockCache::Create(snapshot(), BudgetFor(2));
  ASSERT_TRUE(cache.ok());
  auto pinned = (*cache)->Acquire(0);
  ASSERT_TRUE(pinned.ok());
  const NodeId first_target = pinned->targets()[0];
  // Cycle every other block through the remaining budget; 0 must survive.
  for (uint32_t b = 1; b < snapshot()->blocks().size(); ++b) {
    ASSERT_TRUE((*cache)->Acquire(b).ok());
  }
  EXPECT_EQ(pinned->targets()[0], first_target);
  const uint64_t misses = (*cache)->counters().misses;
  ASSERT_TRUE((*cache)->Acquire(0).ok());
  EXPECT_EQ((*cache)->counters().misses, misses) << "pinned block re-read";
}

TEST_F(BlockCacheTest, OverflowAdmitsWhenEverythingElseIsPinned) {
  // Budget of one block, and that block pinned: acquiring a second cannot
  // make room, so the cache admits it over budget rather than deadlock.
  auto cache = BlockCache::Create(snapshot(), BudgetFor(1));
  ASSERT_TRUE(cache.ok());
  auto pin0 = (*cache)->Acquire(0);
  ASSERT_TRUE(pin0.ok());
  auto pin1 = (*cache)->Acquire(1);
  ASSERT_TRUE(pin1.ok());
  const BlockCacheCounters c = (*cache)->counters();
  EXPECT_EQ(c.overflow_admits, 1u);
  EXPECT_GT(c.bytes_resident, BudgetFor(1));
}

TEST_F(BlockCacheTest, LeaseContentMatchesDirectRead) {
  auto cache = BlockCache::Create(snapshot(), BudgetFor(2));
  ASSERT_TRUE(cache.ok());
  for (uint32_t b = 0; b < snapshot()->blocks().size(); ++b) {
    const BlockExtent& extent = snapshot()->blocks()[b];
    std::vector<NodeId> targets(extent.num_edges());
    ASSERT_TRUE(snapshot()->ReadBlock(b, targets.data()).ok());
    auto lease = (*cache)->Acquire(b);
    ASSERT_TRUE(lease.ok());
    EXPECT_EQ(lease->base(), extent.edge_begin);
    EXPECT_EQ(0, std::memcmp(lease->targets(), targets.data(),
                             targets.size() * sizeof(NodeId)));
  }
}

TEST_F(BlockCacheTest, ConcurrentAcquiresStayCorrectAndWithinBudget) {
  auto cache = BlockCache::Create(snapshot(), BudgetFor(3));
  ASSERT_TRUE(cache.ok());
  BlockCache* raw = cache->get();
  const uint32_t num_blocks =
      static_cast<uint32_t>(snapshot()->blocks().size());
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([raw, num_blocks, t, &failures] {
      for (int i = 0; i < 200; ++i) {
        const uint32_t b = static_cast<uint32_t>((i * 7 + t * 13) % num_blocks);
        auto lease = raw->Acquire(b);
        if (!lease.ok() || !lease->valid() ||
            lease->base() != raw->snapshot().blocks()[b].edge_begin) {
          failures.fetch_add(1);
          return;
        }
        // Spot-check one element against the authoritative read.
        const BlockExtent& extent = raw->snapshot().blocks()[b];
        std::vector<NodeId> targets(extent.num_edges());
        if (!raw->snapshot().ReadBlock(b, targets.data()).ok() ||
            std::memcmp(lease->targets(), targets.data(),
                        targets.size() * sizeof(NodeId)) != 0) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  const BlockCacheCounters c = (*cache)->counters();
  EXPECT_EQ(c.hits + c.misses, 8u * 200u);
  // 8 single-pin threads can hold at most 8 blocks at once; the budget can
  // only be exceeded through the all-pinned escape hatch.
  EXPECT_LE(c.peak_bytes_resident,
            8 * snapshot()->max_block_bytes() + BudgetFor(3));
}

TEST_F(BlockCacheTest, ConcurrentWalksEachPinTwoBlocks) {
  // The bound the cache documents: each walk in flight makes at most two
  // blocks unevictable, so W concurrent walks can push residency past a
  // two-block budget (overflow admits), but never past 2 * W blocks.
  constexpr uint32_t kWalks = 3;
  ASSERT_GE(snapshot()->blocks().size(), 2 * kWalks);
  const uint64_t budget = BudgetFor(2);
  auto cache = BlockCache::Create(snapshot(), budget);
  ASSERT_TRUE(cache.ok());
  BlockCache* raw = cache.value().get();
  uint64_t held = 0;  // payload of every block pinned at the rendezvous
  for (uint32_t b = 0; b < 2 * kWalks; ++b) {
    held += snapshot()->blocks()[b].payload_bytes();
  }
  ASSERT_GT(held, budget) << "the pins must not fit the budget";

  std::atomic<uint32_t> holding{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> walks;
  for (uint32_t w = 0; w < kWalks; ++w) {
    walks.emplace_back([raw, w, &holding, &failures] {
      auto current = raw->Acquire(2 * w);
      auto previous = raw->Acquire(2 * w + 1);
      if (!current.ok() || !previous.ok()) failures.fetch_add(1);
      // Hold both pins until every walk holds its pair.
      holding.fetch_add(1);
      while (holding.load() < kWalks) std::this_thread::yield();
    });
  }
  for (std::thread& t : walks) t.join();
  EXPECT_EQ(failures.load(), 0);

  const BlockCacheCounters c = (*cache)->counters();
  EXPECT_GT(c.overflow_admits, 0u);
  EXPECT_GE(c.peak_bytes_resident, held);
  EXPECT_LE(c.peak_bytes_resident,
            std::max(budget, 2 * kWalks * snapshot()->max_block_bytes()));
}

TEST_F(BlockCacheTest, AllResidentFallbackServesWithoutReads) {
  // An artifact without a block index: every acquire is a hit into the
  // resident array and nothing is ever read through the cache.
  const std::string flat_path = TempPath("cache_noblockindex.cwk");
  Graph graph = GenerateRmat(/*num_nodes=*/120, /*num_edges=*/900, /*seed=*/3);
  IndexingOptions options;
  options.num_walkers = 5;
  options.params.num_steps = 3;
  auto built = CloudWalker::Build(std::move(graph), options);
  ASSERT_TRUE(built.ok());
  SnapshotWriteOptions write_options;
  write_options.write_block_index = false;
  ASSERT_TRUE(SnapshotWriter::Write(flat_path, (*built)->graph(),
                                    (*built)->index(), SnapshotMetadata{},
                                    write_options)
                  .ok());
  auto paged = PagedSnapshot::Open(flat_path);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  ASSERT_TRUE((*paged)->all_resident());
  ASSERT_FALSE((*paged)->has_block_index());
  auto cache = BlockCache::Create(*paged, (*paged)->max_block_bytes());
  ASSERT_TRUE(cache.ok()) << cache.status().ToString();
  for (uint32_t b = 0; b < (*paged)->blocks().size(); ++b) {
    auto lease = (*cache)->Acquire(b);
    ASSERT_TRUE(lease.ok());
    EXPECT_EQ(lease->targets(),
              (*paged)->resident_in_targets().data() + lease->base());
  }
  const BlockCacheCounters c = (*cache)->counters();
  EXPECT_EQ(c.misses, 0u);
  EXPECT_EQ(c.bytes_read, 0u);
  EXPECT_EQ(c.bytes_resident, (*paged)->paged_bytes());
  std::remove(flat_path.c_str());
}

}  // namespace
}  // namespace cloudwalker
