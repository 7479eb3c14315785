#include "core/options.h"

#include <bit>

#include "common/random.h"

namespace cloudwalker {

Status SimRankParams::Validate() const {
  if (!(decay > 0.0) || !(decay < 1.0)) {
    return Status::InvalidArgument("decay factor c must lie in (0, 1)");
  }
  if (num_steps < 1) {
    return Status::InvalidArgument("num_steps T must be >= 1");
  }
  return Status::Ok();
}

Status IndexingOptions::Validate() const {
  CW_RETURN_IF_ERROR(params.Validate());
  if (num_walkers < 1) {
    return Status::InvalidArgument("num_walkers R must be >= 1");
  }
  if (jacobi_iterations < 1) {
    return Status::InvalidArgument("jacobi_iterations L must be >= 1");
  }
  return Status::Ok();
}

Status QueryOptions::Validate() const { return ValidateQueryOptions(*this); }

Status ValidateQueryOptions(const QueryOptions& options) {
  if (options.num_walkers < 1) {
    return Status::InvalidArgument("num_walkers R' must be >= 1");
  }
  if (!(options.prune_threshold >= 0.0)) {
    return Status::InvalidArgument("prune_threshold must be >= 0");
  }
  if (!(options.ppr_alpha > 0.0) || !(options.ppr_alpha < 1.0)) {
    return Status::InvalidArgument("ppr_alpha must lie in (0, 1)");
  }
  if (!(options.n2v_return_p > 0.0)) {
    return Status::InvalidArgument("n2v_return_p must be > 0");
  }
  if (!(options.n2v_in_out_q > 0.0)) {
    return Status::InvalidArgument("n2v_in_out_q must be > 0");
  }
  return Status::Ok();
}

uint64_t QueryOptionsFingerprint(const QueryOptions& o) {
  uint64_t h = DeriveSeed(o.seed, o.num_walkers);
  h = DeriveSeed(h, static_cast<uint64_t>(o.dangling));
  h = DeriveSeed(h, std::bit_cast<uint64_t>(o.prune_threshold));
  h = DeriveSeed(h, std::bit_cast<uint64_t>(o.ppr_alpha));
  h = DeriveSeed(h, std::bit_cast<uint64_t>(o.n2v_return_p));
  return DeriveSeed(h, std::bit_cast<uint64_t>(o.n2v_in_out_q));
}

}  // namespace cloudwalker
