// SnapshotRegistry semantics: versioned publication, epoch monotonicity,
// retire rules, and pin-based lifetime (DESIGN.md section 9).

#include "serve/snapshot_registry.h"

#include <memory>
#include <utility>

#include "core/cloudwalker.h"
#include "graph/generators.h"
#include "gtest/gtest.h"

namespace cloudwalker {
namespace {

std::shared_ptr<const CloudWalker> TinyWalker(uint64_t seed) {
  Graph graph = GenerateRmat(/*num_nodes=*/60, /*num_edges=*/300, seed);
  IndexingOptions options;
  options.num_walkers = 4;
  options.params.num_steps = 3;
  auto built = CloudWalker::Build(std::move(graph), options);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return built.ok() ? *built : nullptr;
}

TEST(SnapshotRegistryTest, PublishMakesCurrentAndEpochsIncrease) {
  SnapshotRegistry registry;
  EXPECT_EQ(registry.Current(), nullptr);

  auto e1 = registry.Publish(7, TinyWalker(1));
  ASSERT_TRUE(e1.ok());
  ASSERT_NE(registry.Current(), nullptr);
  EXPECT_EQ(registry.Current()->version, 7u);
  EXPECT_EQ(registry.Current()->epoch, *e1);

  auto e2 = registry.Publish(9, TinyWalker(2));
  ASSERT_TRUE(e2.ok());
  EXPECT_GT(*e2, *e1);
  EXPECT_EQ(registry.Current()->version, 9u);

  // Re-publishing an existing label replaces it under a fresh epoch, so
  // cache entries of the first incarnation can never resurface.
  auto e3 = registry.Publish(7, TinyWalker(3));
  ASSERT_TRUE(e3.ok());
  EXPECT_GT(*e3, *e2);
  EXPECT_EQ(registry.Current()->version, 7u);
  EXPECT_EQ(registry.Get(7)->epoch, *e3);

  EXPECT_EQ(registry.Versions(), (std::vector<uint64_t>{7, 9}));
  EXPECT_FALSE(registry.Publish(1, nullptr).ok());
}

TEST(SnapshotRegistryTest, PublishNextPicksFreshLabels) {
  SnapshotRegistry registry;
  uint64_t version = 0;
  ASSERT_TRUE(registry.PublishNext(TinyWalker(1), &version).ok());
  EXPECT_EQ(version, 1u);
  ASSERT_TRUE(registry.Publish(10, TinyWalker(2)).ok());
  ASSERT_TRUE(registry.PublishNext(TinyWalker(3), &version).ok());
  EXPECT_EQ(version, 11u);
  EXPECT_EQ(registry.Current()->version, 11u);
}

TEST(SnapshotRegistryTest, RetireRules) {
  SnapshotRegistry registry;
  ASSERT_TRUE(registry.Publish(1, TinyWalker(1)).ok());

  // The current version is protected.
  const Status current = registry.Retire(1);
  ASSERT_FALSE(current.ok());
  EXPECT_TRUE(current.IsFailedPrecondition());

  ASSERT_TRUE(registry.Publish(2, TinyWalker(2)).ok());
  EXPECT_TRUE(registry.Retire(1).ok());
  EXPECT_EQ(registry.Get(1), nullptr);
  EXPECT_TRUE(registry.Retire(1).IsNotFound());
  EXPECT_EQ(registry.Versions(), (std::vector<uint64_t>{2}));
}

TEST(SnapshotRegistryTest, PinsOutliveRetire) {
  SnapshotRegistry registry;
  std::shared_ptr<const CloudWalker> v1 = TinyWalker(1);
  std::weak_ptr<const CloudWalker> watch = v1;
  ASSERT_TRUE(registry.Publish(1, std::move(v1)).ok());

  // A reader pins the entry; retiring must not free the engine under it.
  auto pinned = registry.Current();
  ASSERT_TRUE(registry.Publish(2, TinyWalker(2)).ok());
  ASSERT_TRUE(registry.Retire(1).ok());
  EXPECT_FALSE(watch.expired());
  const QueryResponse score = pinned->walker->Execute(QueryRequest::Pair(1, 2));
  EXPECT_TRUE(score.ok());  // still fully usable

  // The last pin out the door releases it.
  pinned.reset();
  EXPECT_TRUE(watch.expired());
}

}  // namespace
}  // namespace cloudwalker
