#include "core/options.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

namespace cloudwalker {
namespace {

TEST(SimRankParamsTest, DefaultsAreThePapersTable) {
  SimRankParams p;
  EXPECT_DOUBLE_EQ(p.decay, 0.6);
  EXPECT_EQ(p.num_steps, 10u);
  EXPECT_TRUE(p.Validate().ok());
}

TEST(SimRankParamsTest, RejectsDecayOutOfRange) {
  SimRankParams p;
  p.decay = 0.0;
  EXPECT_FALSE(p.Validate().ok());
  p.decay = 1.0;
  EXPECT_FALSE(p.Validate().ok());
  p.decay = -0.2;
  EXPECT_FALSE(p.Validate().ok());
  p.decay = 1.5;
  EXPECT_FALSE(p.Validate().ok());
}

TEST(SimRankParamsTest, RejectsZeroSteps) {
  SimRankParams p;
  p.num_steps = 0;
  EXPECT_FALSE(p.Validate().ok());
}

TEST(IndexingOptionsTest, DefaultsAreThePapersTable) {
  IndexingOptions o;
  EXPECT_EQ(o.num_walkers, 100u);        // R
  EXPECT_EQ(o.jacobi_iterations, 3u);    // L
  EXPECT_TRUE(o.Validate().ok());
}

TEST(IndexingOptionsTest, RejectsZeroWalkers) {
  IndexingOptions o;
  o.num_walkers = 0;
  EXPECT_EQ(o.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(IndexingOptionsTest, RejectsZeroIterations) {
  IndexingOptions o;
  o.jacobi_iterations = 0;
  EXPECT_FALSE(o.Validate().ok());
}

TEST(IndexingOptionsTest, PropagatesParamValidation) {
  IndexingOptions o;
  o.params.decay = 2.0;
  EXPECT_FALSE(o.Validate().ok());
}

TEST(QueryOptionsTest, DefaultsAreThePapersTable) {
  QueryOptions o;
  EXPECT_EQ(o.num_walkers, 10000u);  // R'
  EXPECT_TRUE(o.Validate().ok());
}

TEST(QueryOptionsTest, RejectsZeroWalkers) {
  QueryOptions o;
  o.num_walkers = 0;
  EXPECT_FALSE(o.Validate().ok());
}

TEST(QueryOptionsTest, RejectsNegativePrune) {
  QueryOptions o;
  o.prune_threshold = -1e-9;
  EXPECT_FALSE(o.Validate().ok());
}

TEST(QueryOptionsTest, RejectsNanPrune) {
  // NaN compares false both ways, so `prune_threshold < 0` would let it
  // through, and the serving layer's intern table, keyed on option
  // equality, would never match it to itself.
  QueryOptions o;
  o.prune_threshold = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(o.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(QueryOptionsTest, ValidateIsAShimOverTheCentralValidator) {
  // Every layer (facade, QueryService admission, CLI flags) calls
  // ValidateQueryOptions; the member Validate() must agree verbatim so
  // error messages never diverge again.
  for (auto mutate : std::vector<void (*)(QueryOptions&)>{
           [](QueryOptions&) {},
           [](QueryOptions& q) { q.num_walkers = 0; },
           [](QueryOptions& q) { q.prune_threshold = -1.0; },
           [](QueryOptions& q) {
             q.prune_threshold = std::numeric_limits<double>::quiet_NaN();
           }}) {
    QueryOptions q;
    mutate(q);
    EXPECT_EQ(q.Validate(), ValidateQueryOptions(q));
  }
}

TEST(QueryOptionsTest, EqualityComparesEveryKnob) {
  QueryOptions a, b;
  EXPECT_TRUE(a == b);
  b.seed = 123;
  EXPECT_FALSE(a == b);
  b = a;
  b.prune_threshold = 0.5;
  EXPECT_FALSE(a == b);
}

}  // namespace
}  // namespace cloudwalker
