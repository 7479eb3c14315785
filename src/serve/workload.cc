#include "serve/workload.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/string_util.h"

namespace cloudwalker {

Status WorkloadSpec::Validate() const {
  if (num_requests < 1) {
    return Status::InvalidArgument("workload needs num_requests >= 1");
  }
  if (pair_fraction < 0.0 || pair_fraction > 1.0) {
    return Status::InvalidArgument("pair_fraction must be in [0, 1]");
  }
  if (source_fraction < 0.0 || source_fraction > 1.0) {
    return Status::InvalidArgument("source_fraction must be in [0, 1]");
  }
  if (ppr_fraction < 0.0 || ppr_fraction > 1.0) {
    return Status::InvalidArgument("ppr_fraction must be in [0, 1]");
  }
  if (n2v_fraction < 0.0 || n2v_fraction > 1.0) {
    return Status::InvalidArgument("n2v_fraction must be in [0, 1]");
  }
  if (pair_fraction + source_fraction + ppr_fraction + n2v_fraction > 1.0) {
    return Status::InvalidArgument(
        "request-kind fractions must not exceed 1 in total");
  }
  if (skew == WorkloadSkew::kZipf && !(zipf_theta > 0.0)) {
    return Status::InvalidArgument("zipf_theta must be > 0");
  }
  return Status::Ok();
}

ZipfSampler::ZipfSampler(NodeId num_nodes, double theta) {
  cdf_.resize(std::max<NodeId>(num_nodes, 1));
  double total = 0.0;
  for (size_t r = 0; r < cdf_.size(); ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), theta);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
  cdf_.back() = 1.0;  // guard against rounding
}

NodeId ZipfSampler::Sample(Xoshiro256& rng) const {
  const double u = rng.NextDouble();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<NodeId>(it - cdf_.begin());
}

StatusOr<std::vector<QueryRequest>> GenerateWorkload(
    NodeId num_nodes, const WorkloadSpec& spec) {
  CW_RETURN_IF_ERROR(spec.Validate());
  if (num_nodes == 0) {
    return Status::InvalidArgument("workload needs a non-empty graph");
  }

  // Independent streams for node choice and request-type choice, so e.g.
  // changing pair_fraction does not reshuffle which sources are hot.
  Xoshiro256 node_rng = Xoshiro256::Derive(spec.seed, /*stream=*/1);
  Xoshiro256 type_rng = Xoshiro256::Derive(spec.seed, /*stream=*/2);
  std::optional<ZipfSampler> zipf;  // the O(n) CDF only when actually used
  if (spec.skew == WorkloadSkew::kZipf) {
    zipf.emplace(num_nodes, spec.zipf_theta);
  }
  const auto draw_node = [&]() -> NodeId {
    return zipf.has_value()
               ? zipf->Sample(node_rng)
               : static_cast<NodeId>(node_rng.UniformInt32(num_nodes));
  };

  std::vector<QueryRequest> requests;
  requests.reserve(spec.num_requests);
  for (uint64_t r = 0; r < spec.num_requests; ++r) {
    // One draw splits [0, 1) into pair / source / ppr / n2v / top-k
    // bands, so the stream stays deterministic as fractions change (and
    // new bands at fraction 0 leave old streams byte-identical).
    const double band = type_rng.NextDouble();
    double edge = spec.pair_fraction;
    if (band < edge) {
      requests.push_back(QueryRequest::Pair(draw_node(), draw_node()));
    } else if (band < (edge += spec.source_fraction)) {
      requests.push_back(QueryRequest::SingleSource(draw_node()));
    } else if (band < (edge += spec.ppr_fraction)) {
      requests.push_back(
          QueryRequest::PersonalizedPageRank(draw_node(), spec.topk));
    } else if (band < (edge += spec.n2v_fraction)) {
      requests.push_back(QueryRequest::Node2Vec(draw_node(), spec.topk));
    } else {
      requests.push_back(QueryRequest::SourceTopK(draw_node(), spec.topk));
    }
  }
  return requests;
}

Status SaveWorkloadText(const std::vector<QueryRequest>& requests,
                        const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  out << "# cloudwalker workload: " << requests.size() << " requests\n";
  for (const QueryRequest& r : requests) {
    // The verb vocabulary is QueryKindToString — one definition shared
    // with the loader, so the format cannot silently fork.
    switch (r.kind) {
      case QueryKind::kPair:
        out << QueryKindToString(r.kind) << " " << r.a << " " << r.b
            << "\n";
        break;
      case QueryKind::kSingleSource:
        out << QueryKindToString(r.kind) << " " << r.a << "\n";
        break;
      case QueryKind::kSourceTopK:
      case QueryKind::kPersonalizedPageRank:
      case QueryKind::kNode2Vec:
        out << QueryKindToString(r.kind) << " " << r.a << " " << r.k
            << "\n";
        break;
      case QueryKind::kAllPairsTopK:
        return Status::InvalidArgument(
            "all-pairs requests have no workload-file representation");
    }
  }
  if (!out) return Status::IoError("write failed on " + path);
  return Status::Ok();
}

namespace {

// One whitespace token parsed as a 32-bit unsigned value. Rejects
// negatives, non-numeric junk, and 64-bit overflow with the reason — the
// loader wraps it with <path>:<line> so a typo in a replay file names its
// exact location instead of being skipped or mangled.
Status ParseU32Field(std::istringstream& fields, const char* what,
                     uint32_t* out) {
  std::string token;
  if (!(fields >> token)) {
    return Status::InvalidArgument(std::string("missing ") + what);
  }
  uint64_t value = 0;
  size_t used = 0;
  try {
    if (token.empty() || token[0] == '-') throw std::invalid_argument(token);
    value = std::stoull(token, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != token.size()) {
    return Status::InvalidArgument(std::string(what) + " '" + token +
                                   "' is not a non-negative integer");
  }
  if (value > 0xffffffffull) {
    return Status::InvalidArgument(std::string(what) + " '" + token +
                                   "' exceeds 32 bits");
  }
  *out = static_cast<uint32_t>(value);
  return Status::Ok();
}

}  // namespace

StatusOr<std::vector<QueryRequest>> LoadWorkloadText(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  std::vector<QueryRequest> requests;
  std::string line;
  uint64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string_view stripped = StripWhitespace(line);
    if (stripped.empty() || stripped.front() == '#') continue;
    const auto bad = [&](const std::string& what) {
      return Status::InvalidArgument(path + ":" + std::to_string(line_no) +
                                     ": " + what);
    };
    std::istringstream fields{std::string(stripped)};
    std::string verb;
    fields >> verb;
    // Verb first, then verb-specific arity — an unknown verb is reported
    // as such even when the rest of the line would not parse either.
    uint32_t a = 0, b = 0;
    if (verb == QueryKindToString(QueryKind::kPair)) {
      Status s = ParseU32Field(fields, "node i", &a);
      if (s.ok()) s = ParseU32Field(fields, "node j", &b);
      if (!s.ok()) {
        return bad("pair " + s.message() + " (usage: pair <i> <j>)");
      }
      requests.push_back(QueryRequest::Pair(a, b));
    } else if (verb == QueryKindToString(QueryKind::kSourceTopK)) {
      Status s = ParseU32Field(fields, "source node", &a);
      if (s.ok()) s = ParseU32Field(fields, "k", &b);
      if (!s.ok()) {
        return bad("topk " + s.message() + " (usage: topk <source> <k>)");
      }
      requests.push_back(QueryRequest::SourceTopK(a, b));
    } else if (verb == QueryKindToString(QueryKind::kSingleSource)) {
      const Status s = ParseU32Field(fields, "source node", &a);
      if (!s.ok()) {
        return bad("source " + s.message() + " (usage: source <q>)");
      }
      requests.push_back(QueryRequest::SingleSource(a));
    } else if (verb == QueryKindToString(QueryKind::kPersonalizedPageRank)) {
      Status s = ParseU32Field(fields, "source node", &a);
      if (s.ok()) s = ParseU32Field(fields, "k", &b);
      if (!s.ok()) {
        return bad("ppr " + s.message() + " (usage: ppr <source> <k>)");
      }
      requests.push_back(QueryRequest::PersonalizedPageRank(a, b));
    } else if (verb == QueryKindToString(QueryKind::kNode2Vec)) {
      Status s = ParseU32Field(fields, "source node", &a);
      if (s.ok()) s = ParseU32Field(fields, "k", &b);
      if (!s.ok()) {
        return bad("n2v " + s.message() + " (usage: n2v <source> <k>)");
      }
      requests.push_back(QueryRequest::Node2Vec(a, b));
    } else {
      return bad("unknown verb '" + verb +
                 "' (expected pair | topk | source | ppr | n2v)");
    }
    std::string extra;
    if (fields >> extra) {
      return bad("trailing content '" + extra + "' after " + verb);
    }
  }
  return requests;
}

}  // namespace cloudwalker
