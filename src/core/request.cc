#include "core/request.h"

#include <bit>
#include <cstdint>
#include <string>
#include <type_traits>

namespace cloudwalker {
namespace {

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool SameBits(const SparseEntry& a, const SparseEntry& b) {
  return a.index == b.index && SameBits(a.value, b.value);
}

bool SameBits(const ScoredNode& a, const ScoredNode& b) {
  return a.node == b.node && SameBits(a.score, b.score);
}

template <typename T>
bool SameBits(const std::vector<T>& a, const std::vector<T>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameBits(a[i], b[i])) return false;
  }
  return true;
}

bool SameBits(const SparseVector& a, const SparseVector& b) {
  return SameBits(a.entries(), b.entries());
}

// Shared payloads: both null, or both set and equal bit for bit.
template <typename T>
bool SameBits(const std::shared_ptr<const T>& a,
              const std::shared_ptr<const T>& b) {
  if (a == nullptr || b == nullptr) return a == b;
  return SameBits(*a, *b);
}

Status NodeInRange(std::string_view role, NodeId node, NodeId num_nodes) {
  if (node < num_nodes) return Status::Ok();
  return Status::OutOfRange(std::string(role) + " node " +
                            std::to_string(node) +
                            " out of range (graph has " +
                            std::to_string(num_nodes) + " nodes)");
}

}  // namespace

std::string_view QueryKindToString(QueryKind kind) {
  switch (kind) {
    case QueryKind::kPair:
      return "pair";
    case QueryKind::kSingleSource:
      return "source";
    case QueryKind::kSourceTopK:
      return "topk";
    case QueryKind::kAllPairsTopK:
      return "allpairs";
    case QueryKind::kPersonalizedPageRank:
      return "ppr";
    case QueryKind::kNode2Vec:
      return "n2v";
  }
  return "unknown";
}

std::optional<QueryKind> QueryKindFromString(std::string_view name) {
  for (const QueryKind kind : kAllQueryKinds) {
    if (QueryKindToString(kind) == name) return kind;
  }
  return std::nullopt;
}

bool BitIdentical(const QueryResponse& a, const QueryResponse& b) {
  if (a.kind != b.kind || a.status.code() != b.status.code() ||
      a.payload.index() != b.payload.index()) {
    return false;
  }
  return std::visit(
      [&b](const auto& x) {
        using T = std::decay_t<decltype(x)>;
        if constexpr (std::is_same_v<T, std::monostate>) {
          return true;
        } else {
          return SameBits(x, std::get<T>(b.payload));
        }
      },
      a.payload);
}

Status ValidateQueryRequest(const QueryRequest& request, NodeId num_nodes,
                            const QueryOptions& base_options) {
  CW_RETURN_IF_ERROR(
      ValidateQueryOptions(request.EffectiveOptions(base_options)));
  switch (request.kind) {
    case QueryKind::kPair:
      CW_RETURN_IF_ERROR(NodeInRange("pair", request.a, num_nodes));
      return NodeInRange("pair", request.b, num_nodes);
    case QueryKind::kSingleSource:
    case QueryKind::kSourceTopK:
    case QueryKind::kPersonalizedPageRank:
    case QueryKind::kNode2Vec:
      return NodeInRange("source", request.a, num_nodes);
    case QueryKind::kAllPairsTopK:
      return Status::Ok();
  }
  return Status::InvalidArgument("unknown query kind");
}

}  // namespace cloudwalker
