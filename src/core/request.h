// The unified typed query pipeline: one request variant covering every
// query shape the library answers, one response variant carrying the
// typed payload plus execution metadata.
//
//   QueryRequest req = QueryRequest::SourceTopK(42, 10)
//                          .WithTimeout(0.050)        // 50 ms deadline
//                          .WithOptions(my_options);  // per-request R', seed
//   QueryResponse r = cloudwalker.Execute(req);       // facade, blocking
//   QueryFuture f = service.Submit(req);              // serving, async
//   if (r.ok()) use(*r.Get<QueryKind::kSourceTopK>());
//
// One request kind exists per online query shape of the paper (DESIGN.md
// section 5) plus the all-pairs sweep:
//   kPair         — MCSP s(a, b)                     -> double
//   kSingleSource — MCSS s(a, *), the full vector    -> SparseVector
//   kSourceTopK   — MCSS + top-k                     -> vector<ScoredNode>
//   kAllPairsTopK — MCAP, per-source top-k, all a    -> vector<vector<...>>
// plus two walk-program kinds served by the same engine / cache / snapshot
// stack (DESIGN.md section 10):
//   kPersonalizedPageRank — PPR endpoint top-k around a  -> vector<ScoredNode>
//   kNode2Vec             — node2vec visit top-k around a -> vector<ScoredNode>
//
// A request may carry a per-request QueryOptions override; it is validated
// once at admission (ValidateQueryRequest) and folded into the serving
// layer's cache key, so the one-answer-per-key determinism contract
// survives heterogeneous option traffic (DESIGN.md section 6). Deadlines
// are relative (`timeout_seconds`; non-positive = none) and are armed on a
// CancelToken at admission by whoever executes the request.

#ifndef CLOUDWALKER_CORE_REQUEST_H_
#define CLOUDWALKER_CORE_REQUEST_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/sparse.h"
#include "common/status.h"
#include "core/options.h"
#include "core/queries.h"
#include "graph/graph.h"

namespace cloudwalker {

/// Every query shape the library answers, as one closed enum. Kinds
/// kPersonalizedPageRank / kNode2Vec rank by walk-program scores
/// (engine/walk_program.h) instead of SimRank; the serving layer encodes
/// the kind into its 128-bit cache key in a 4-bit field, so values must
/// stay <= 15.
enum class QueryKind : uint8_t {
  kPair = 0,                  // MCSP: s(a, b)
  kSingleSource = 1,          // MCSS: the full sparse similarity vector of a
  kSourceTopK = 2,            // MCSS + top-k: the k nodes most similar to a
  kAllPairsTopK = 3,          // MCAP: per-source top-k over every source
  kPersonalizedPageRank = 4,  // PPR top-k around a source (teleport walks)
  kNode2Vec = 5,              // node2vec visit-frequency top-k around a source
};

/// Every QueryKind, for exhaustive iteration (tests, workload tooling).
/// Keep in sync with the enum — request_test cross-checks each entry
/// round-trips through QueryKindToString / QueryKindFromString.
inline constexpr QueryKind kAllQueryKinds[] = {
    QueryKind::kPair,          QueryKind::kSingleSource,
    QueryKind::kSourceTopK,    QueryKind::kAllPairsTopK,
    QueryKind::kPersonalizedPageRank, QueryKind::kNode2Vec,
};

/// Canonical lower-case name of `kind` ("pair", "source", "topk",
/// "allpairs", "ppr", "n2v") — also the verb vocabulary of workload
/// replay files.
std::string_view QueryKindToString(QueryKind kind);

/// Inverse of QueryKindToString: parses a canonical kind name; nullopt for
/// anything else (including "unknown").
std::optional<QueryKind> QueryKindFromString(std::string_view name);

/// One typed query. Build with the factory helpers; `a`/`b`/`k` are only
/// meaningful for the kinds documented on each factory.
struct QueryRequest {
  QueryKind kind = QueryKind::kPair;
  NodeId a = 0;    // pair: i; single-source / top-k: the source node
  NodeId b = 0;    // pair: j
  uint32_t k = 0;  // top-k / all-pairs: result size per source

  /// Per-request override of the executor's default QueryOptions. Folded
  /// into the serving cache key, so two requests differing only here can
  /// never share an answer.
  std::optional<QueryOptions> options;

  /// Relative deadline, armed at admission; non-positive = no deadline.
  /// An expired request completes with kDeadlineExceeded instead of an
  /// answer (checked at admission and between walk blocks).
  double timeout_seconds = 0.0;

  static QueryRequest Pair(NodeId i, NodeId j) {
    QueryRequest r;
    r.kind = QueryKind::kPair;
    r.a = i;
    r.b = j;
    return r;
  }
  static QueryRequest SingleSource(NodeId q) {
    QueryRequest r;
    r.kind = QueryKind::kSingleSource;
    r.a = q;
    return r;
  }
  static QueryRequest SourceTopK(NodeId q, uint32_t k) {
    QueryRequest r;
    r.kind = QueryKind::kSourceTopK;
    r.a = q;
    r.k = k;
    return r;
  }
  static QueryRequest AllPairsTopK(uint32_t k) {
    QueryRequest r;
    r.kind = QueryKind::kAllPairsTopK;
    r.k = k;
    return r;
  }
  static QueryRequest PersonalizedPageRank(NodeId q, uint32_t k) {
    QueryRequest r;
    r.kind = QueryKind::kPersonalizedPageRank;
    r.a = q;
    r.k = k;
    return r;
  }
  static QueryRequest Node2Vec(NodeId q, uint32_t k) {
    QueryRequest r;
    r.kind = QueryKind::kNode2Vec;
    r.a = q;
    r.k = k;
    return r;
  }

  /// Fluent decorators, so one-liners stay one-liners.
  QueryRequest WithOptions(QueryOptions o) const {
    QueryRequest r = *this;
    r.options = std::move(o);
    return r;
  }
  QueryRequest WithTimeout(double seconds) const {
    QueryRequest r = *this;
    r.timeout_seconds = seconds;
    return r;
  }

  /// The options this request executes under: its override, else `base`.
  const QueryOptions& EffectiveOptions(const QueryOptions& base) const {
    return options.has_value() ? *options : base;
  }

  bool operator==(const QueryRequest&) const = default;
};

/// Admission-time validation, shared by the facade and the serving layer:
/// the effective options must pass ValidateQueryOptions() and every node
/// the kind references must lie in [0, num_nodes).
Status ValidateQueryRequest(const QueryRequest& request, NodeId num_nodes,
                            const QueryOptions& base_options);

/// Payload aliases (shared so cached answers fan out without copying).
using TopKResult = std::vector<ScoredNode>;
using AllPairsResult = std::vector<std::vector<ScoredNode>>;
using SingleSourcePtr = std::shared_ptr<const SparseVector>;
using TopKPtr = std::shared_ptr<const TopKResult>;
using AllPairsPtr = std::shared_ptr<const AllPairsResult>;

namespace internal {
/// Maps a QueryKind to its payload type (the `Get<kind>()` plumbing).
template <QueryKind K>
struct QueryPayload;
template <>
struct QueryPayload<QueryKind::kPair> {
  using type = double;
};
template <>
struct QueryPayload<QueryKind::kSingleSource> {
  using type = SingleSourcePtr;
};
template <>
struct QueryPayload<QueryKind::kSourceTopK> {
  using type = TopKPtr;
};
template <>
struct QueryPayload<QueryKind::kAllPairsTopK> {
  using type = AllPairsPtr;
};
template <>
struct QueryPayload<QueryKind::kPersonalizedPageRank> {
  using type = TopKPtr;
};
template <>
struct QueryPayload<QueryKind::kNode2Vec> {
  using type = TopKPtr;
};
}  // namespace internal

/// One answered query: a uniform Status, the kind-typed payload, and
/// execution metadata. The payload holds std::monostate whenever `status`
/// is not OK (a stopped or rejected request never carries a partial
/// answer).
struct QueryResponse {
  Status status;
  QueryKind kind = QueryKind::kPair;
  std::variant<std::monostate, double, SingleSourcePtr, TopKPtr, AllPairsPtr>
      payload;

  /// Execution metadata: kernel counters (zeros for cached / deduped /
  /// failed requests), wall time, and answer provenance. The serving
  /// layer measures `latency_seconds` from admission, so queue wait and
  /// dedup wait are included for every requester.
  QueryStats stats;
  double latency_seconds = 0.0;
  bool cache_hit = false;  // answered straight from the result cache
  bool deduped = false;    // joined a concurrent identical computation

  bool ok() const { return status.ok(); }

  /// Typed accessor: `r.Get<QueryKind::kSourceTopK>()` yields the payload
  /// of that kind (a reference into the variant). Accessing a kind the
  /// response does not hold throws std::bad_variant_access — check
  /// `ok()` and `kind` first.
  template <QueryKind K>
  const typename internal::QueryPayload<K>::type& Get() const {
    return std::get<typename internal::QueryPayload<K>::type>(payload);
  }

  /// Kind-named conveniences over Get<>(). `topk()` resolves by payload
  /// type, so it also reads kPersonalizedPageRank / kNode2Vec answers
  /// (all three carry a TopKPtr).
  double score() const { return Get<QueryKind::kPair>(); }
  const SingleSourcePtr& scores() const {
    return Get<QueryKind::kSingleSource>();
  }
  const TopKPtr& topk() const { return Get<QueryKind::kSourceTopK>(); }
  const AllPairsPtr& all_pairs() const {
    return Get<QueryKind::kAllPairsTopK>();
  }
};

/// The answer equality of every bit-identity check: true iff `a` and `b`
/// have the same kind and status code and their payloads match bit for
/// bit — every node id and the bits of every score, so -0.0 and +0.0
/// differ. Two failures of one kind and code are equal (neither carries a
/// payload); a caller that needs an answer checks ok() as well. Stats,
/// latency and provenance are not compared.
bool BitIdentical(const QueryResponse& a, const QueryResponse& b);

}  // namespace cloudwalker

#endif  // CLOUDWALKER_CORE_REQUEST_H_
