// QueryKind naming audit: every kind must round-trip through
// QueryKindToString / QueryKindFromString, so adding a QueryKind without
// wiring its workload / CLI verb fails here instead of silently shipping
// an unparseable "unknown" verb.

#include "core/request.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "serve/workload.h"

namespace cloudwalker {
namespace {

TEST(QueryKindTest, EveryKindHasACanonicalNameThatRoundTrips) {
  std::set<std::string> seen;
  for (const QueryKind kind : kAllQueryKinds) {
    const std::string_view name = QueryKindToString(kind);
    EXPECT_NE(name, "unknown")
        << "kind " << static_cast<int>(kind)
        << " is missing from QueryKindToString";
    EXPECT_TRUE(seen.insert(std::string(name)).second)
        << "duplicate kind name '" << name << "'";
    const auto parsed = QueryKindFromString(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, kind) << name;
  }
}

TEST(QueryKindTest, AllKindsArrayIsExhaustive) {
  // kAllQueryKinds must cover the contiguous enum exactly once. If a new
  // enumerator is appended without updating the array, the size check
  // fires; if the array gains a stray duplicate, the set check fires.
  std::set<uint8_t> values;
  for (const QueryKind kind : kAllQueryKinds) {
    EXPECT_TRUE(values.insert(static_cast<uint8_t>(kind)).second);
  }
  ASSERT_FALSE(values.empty());
  EXPECT_EQ(*values.begin(), 0u);
  EXPECT_EQ(*values.rbegin(), values.size() - 1)
      << "QueryKind enumerators are not contiguous with kAllQueryKinds";
}

TEST(QueryKindTest, FromStringRejectsNonNames) {
  EXPECT_FALSE(QueryKindFromString("unknown").has_value());
  EXPECT_FALSE(QueryKindFromString("").has_value());
  EXPECT_FALSE(QueryKindFromString("PAIR").has_value());
  EXPECT_FALSE(QueryKindFromString("topk ").has_value());
}

// The serving-side coverage audit: every kind must either have a workload
// file representation (SaveWorkloadText emits a verb the loader accepts)
// or be explicitly excluded (kAllPairsTopK — a full sweep is a command,
// not a request stream). A new kind that forgets both trips this test.
TEST(QueryKindTest, EveryKindIsRepresentableInWorkloadFilesOrExcluded) {
  for (const QueryKind kind : kAllQueryKinds) {
    QueryRequest request;
    request.kind = kind;
    request.a = 1;
    request.b = 2;
    request.k = 3;
    const std::string path =
        ::testing::TempDir() + "/kind_" +
        std::string(QueryKindToString(kind)) + ".txt";
    const Status saved = SaveWorkloadText({request}, path);
    if (kind == QueryKind::kAllPairsTopK) {
      EXPECT_TRUE(saved.IsInvalidArgument());
      continue;
    }
    ASSERT_TRUE(saved.ok()) << QueryKindToString(kind) << ": "
                            << saved.ToString();
    auto loaded = LoadWorkloadText(path);
    ASSERT_TRUE(loaded.ok()) << QueryKindToString(kind) << ": "
                             << loaded.status().ToString();
    ASSERT_EQ(loaded->size(), 1u);
    EXPECT_EQ((*loaded)[0].kind, kind);
    EXPECT_EQ((*loaded)[0].a, request.a);
    if (kind == QueryKind::kPair) {
      EXPECT_EQ((*loaded)[0].b, request.b);
    }
    if (kind == QueryKind::kSourceTopK ||
        kind == QueryKind::kPersonalizedPageRank ||
        kind == QueryKind::kNode2Vec) {
      EXPECT_EQ((*loaded)[0].k, request.k);
    }
  }
}

TEST(QueryRequestTest, FactoriesSetTheirKind) {
  EXPECT_EQ(QueryRequest::Pair(1, 2).kind, QueryKind::kPair);
  EXPECT_EQ(QueryRequest::SingleSource(1).kind, QueryKind::kSingleSource);
  EXPECT_EQ(QueryRequest::SourceTopK(1, 5).kind, QueryKind::kSourceTopK);
  EXPECT_EQ(QueryRequest::AllPairsTopK(5).kind, QueryKind::kAllPairsTopK);
  const QueryRequest ppr = QueryRequest::PersonalizedPageRank(7, 5);
  EXPECT_EQ(ppr.kind, QueryKind::kPersonalizedPageRank);
  EXPECT_EQ(ppr.a, 7u);
  EXPECT_EQ(ppr.k, 5u);
  const QueryRequest n2v = QueryRequest::Node2Vec(7, 5);
  EXPECT_EQ(n2v.kind, QueryKind::kNode2Vec);
  EXPECT_EQ(n2v.a, 7u);
  EXPECT_EQ(n2v.k, 5u);
}

TEST(QueryRequestTest, ValidationChecksTheSourceNodeOfProgramKinds) {
  const QueryOptions base;
  EXPECT_TRUE(ValidateQueryRequest(QueryRequest::PersonalizedPageRank(9, 5),
                                   /*num_nodes=*/10, base)
                  .ok());
  EXPECT_TRUE(ValidateQueryRequest(QueryRequest::PersonalizedPageRank(10, 5),
                                   /*num_nodes=*/10, base)
                  .IsOutOfRange());
  EXPECT_TRUE(ValidateQueryRequest(QueryRequest::Node2Vec(10, 5),
                                   /*num_nodes=*/10, base)
                  .IsOutOfRange());
}

TEST(QueryRequestTest, ValidationChecksProgramOptionKnobs) {
  QueryOptions bad_alpha;
  bad_alpha.ppr_alpha = 1.0;
  EXPECT_TRUE(ValidateQueryRequest(
                  QueryRequest::PersonalizedPageRank(0, 5).WithOptions(
                      bad_alpha),
                  /*num_nodes=*/10, QueryOptions{})
                  .IsInvalidArgument());
  QueryOptions bad_p;
  bad_p.n2v_return_p = 0.0;
  EXPECT_TRUE(ValidateQueryRequest(
                  QueryRequest::Node2Vec(0, 5).WithOptions(bad_p),
                  /*num_nodes=*/10, QueryOptions{})
                  .IsInvalidArgument());
  QueryOptions bad_q;
  bad_q.n2v_in_out_q = -1.0;
  EXPECT_TRUE(ValidateQueryRequest(
                  QueryRequest::Node2Vec(0, 5).WithOptions(bad_q),
                  /*num_nodes=*/10, QueryOptions{})
                  .IsInvalidArgument());
}

TEST(QueryOptionsTest, FingerprintSeparatesProgramKnobs) {
  const QueryOptions base;
  QueryOptions alpha = base;
  alpha.ppr_alpha = 0.5;
  QueryOptions p = base;
  p.n2v_return_p = 0.5;
  QueryOptions q = base;
  q.n2v_in_out_q = 0.5;
  const uint64_t h0 = QueryOptionsFingerprint(base);
  EXPECT_NE(h0, QueryOptionsFingerprint(alpha));
  EXPECT_NE(h0, QueryOptionsFingerprint(p));
  EXPECT_NE(h0, QueryOptionsFingerprint(q));
  EXPECT_NE(QueryOptionsFingerprint(p), QueryOptionsFingerprint(q));
}

// Separate payload objects with equal bits compare equal; a sign bit, a
// node id, a kind or a status code apart do not.
TEST(QueryResponseTest, BitIdenticalComparesKindCodeAndPayloadBits) {
  const auto topk = [](QueryKind kind, NodeId node, double score) {
    QueryResponse r;
    r.kind = kind;
    r.payload = std::make_shared<const TopKResult>(
        TopKResult{{node, score}, {9, 0.25}});
    return r;
  };
  const QueryResponse a = topk(QueryKind::kSourceTopK, 3, 0.0);
  EXPECT_TRUE(BitIdentical(a, topk(QueryKind::kSourceTopK, 3, 0.0)));
  EXPECT_FALSE(BitIdentical(a, topk(QueryKind::kSourceTopK, 3, -0.0)));
  EXPECT_FALSE(BitIdentical(a, topk(QueryKind::kSourceTopK, 4, 0.0)));
  EXPECT_FALSE(BitIdentical(a, topk(QueryKind::kNode2Vec, 3, 0.0)));

  QueryResponse pair;
  pair.payload = 0.5;
  QueryResponse source;
  source.kind = QueryKind::kSingleSource;
  source.payload = std::make_shared<const SparseVector>(
      SparseVector::FromSorted({{1, 0.5}, {2, -0.0}}));
  QueryResponse source_copy = source;
  source_copy.payload = std::make_shared<const SparseVector>(
      SparseVector::FromSorted({{1, 0.5}, {2, -0.0}}));
  QueryResponse all_pairs;
  all_pairs.kind = QueryKind::kAllPairsTopK;
  all_pairs.payload = std::make_shared<const AllPairsResult>(
      AllPairsResult{{{1, 0.5}}, {}});
  for (const QueryResponse& r : {pair, source, all_pairs}) {
    EXPECT_TRUE(BitIdentical(r, r));
  }
  EXPECT_TRUE(BitIdentical(source, source_copy));
  source_copy.payload = std::make_shared<const SparseVector>(
      SparseVector::FromSorted({{1, 0.5}, {2, 0.0}}));
  EXPECT_FALSE(BitIdentical(source, source_copy));

  // Failures carry no payload: one kind and code are equal, and a failure
  // never equals an answer.
  QueryResponse failed;
  failed.kind = QueryKind::kSourceTopK;
  failed.status = Status::DeadlineExceeded("late");
  QueryResponse other = failed;
  other.status = Status::DeadlineExceeded("later");
  EXPECT_TRUE(BitIdentical(failed, other));
  other.status = Status::Cancelled("stopped");
  EXPECT_FALSE(BitIdentical(failed, other));
  EXPECT_FALSE(BitIdentical(failed, a));
}

}  // namespace
}  // namespace cloudwalker
