#include "serve/query_service.h"

#include <chrono>
#include <string>
#include <utility>

#include "common/logging.h"

namespace cloudwalker {
namespace {

// Exact 128-bit cache/dedup key for a top-k answer: the snapshot epoch,
// kind tag, and interned options id in the high word, (source, k) in the
// low word. No two requests that could answer differently ever share a
// key — the epoch field (28 bits; epochs are assigned sequentially, so
// exhausting it would take 268M publishes against one service) is what
// makes a hot swap unable to serve one version's scores for another.
CacheKey TopKKey(uint64_t epoch, QueryKind kind, NodeId source, uint32_t k,
                 uint32_t options_id) {
  return CacheKey{
      (epoch << 36) | (static_cast<uint64_t>(kind) << 32) | options_id,
      (static_cast<uint64_t>(source) << 32) | k};
}

// The kinds served through the (source, k) top-k cache + dedup path: all
// carry a TopKPtr payload and are keyed by the same (source, k) pair, so
// one cache and one in-flight table serve all three (the 4-bit kind tag
// in the key keeps their answers apart).
bool CacheableTopKKind(QueryKind kind) {
  return kind == QueryKind::kSourceTopK ||
         kind == QueryKind::kPersonalizedPageRank ||
         kind == QueryKind::kNode2Vec;
}

}  // namespace

bool QueryFuture::done() const {
  CW_CHECK(valid());
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->done;
}

QueryResponse QueryFuture::Wait() const {
  CW_CHECK(valid());
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [this] { return state_->done; });
  return state_->response;
}

bool QueryFuture::WaitFor(double seconds) const {
  CW_CHECK(valid());
  std::unique_lock<std::mutex> lock(state_->mu);
  return state_->cv.wait_for(lock, std::chrono::duration<double>(seconds),
                             [this] { return state_->done; });
}

void QueryFuture::Cancel() const {
  CW_CHECK(valid());
  state_->cancel.Cancel();
}

std::vector<QueryResponse> WhenAll(const std::vector<QueryFuture>& futures) {
  std::vector<QueryResponse> responses;
  responses.reserve(futures.size());
  for (const QueryFuture& f : futures) {
    if (f.valid()) {
      responses.push_back(f.Wait());
    } else {
      QueryResponse invalid;
      invalid.status = Status::Internal("invalid (default) QueryFuture");
      responses.push_back(std::move(invalid));
    }
  }
  return responses;
}

QueryService::QueryService(std::shared_ptr<const CloudWalker> cloudwalker,
                           const ServeOptions& options, ThreadPool* pool)
    : options_(options), pool_(pool) {
  CW_CHECK(cloudwalker != nullptr);
  CW_CHECK(registry_.Publish(1, std::move(cloudwalker)).ok());
  if (options_.cache_capacity > 0) {
    cache_ = std::make_unique<ShardedLruCache>(options_.cache_capacity,
                                               options_.cache_shards);
  }
  interned_options_.push_back(options_.query);  // id 0 = service defaults
}

StatusOr<uint64_t> QueryService::Publish(
    std::shared_ptr<const CloudWalker> walker) {
  return registry_.PublishNext(std::move(walker));
}

QueryService::~QueryService() {
  // Outstanding tasks reference this service; drain before the members go.
  std::unique_lock<std::mutex> lock(queue_mu_);
  queue_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

uint32_t QueryService::InternOptions(const QueryOptions& options) {
  // Fast path for the dominant case — the service defaults — so default
  // traffic never serializes on intern_mu_ (options_ is immutable after
  // construction).
  if (options == options_.query) return 0;
  const uint64_t hash = QueryOptionsFingerprint(options);
  std::lock_guard<std::mutex> lock(intern_mu_);
  auto bucket = intern_index_.find(hash);
  if (bucket != intern_index_.end()) {
    for (const uint32_t id : bucket->second) {
      if (interned_options_[id] == options) return id;
    }
  }
  // Cap the table: a client streaming unbounded distinct overrides gets
  // correct-but-uncached answers instead of growing memory forever.
  if (interned_options_.size() >= kMaxInternedOptions) {
    return kUncachedOptionsId;
  }
  const uint32_t id = static_cast<uint32_t>(interned_options_.size());
  interned_options_.push_back(options);
  intern_index_[hash].push_back(id);
  return id;
}

QueryFuture QueryService::Submit(const QueryRequest& request) {
  return SubmitInternal(request, /*block_on_full=*/false);
}

QueryFuture QueryService::SubmitInternal(const QueryRequest& request,
                                         bool block_on_full) {
  auto state = std::make_shared<State>();  // the admission timer starts now
  QueryFuture future(state);
  state->cancel.SetDeadline(request.timeout_seconds);

  // Pin the current snapshot: this request executes, validates, and caches
  // against exactly this engine version even if a new one is published
  // while it waits in the queue (the pin keeps the old version alive).
  const SnapshotPtr snapshot = registry_.Current();
  CW_CHECK(snapshot != nullptr);  // the constructors always publish one

  // Materialize the effective options so every later stage (cache keying,
  // kernel execution) sees one explicit option set.
  QueryRequest task = request;
  if (!task.options.has_value()) task.options = options_.query;

  // Admission step 1: validate once, centrally, against the pinned
  // version's node space.
  const Status valid = ValidateQueryRequest(
      task, snapshot->walker->graph().num_nodes(), options_.query);
  if (!valid.ok()) {
    QueryResponse response;
    response.kind = task.kind;
    response.status = valid;
    Publish(state, std::move(response));
    return future;
  }

  // Admission fast path: a resident top-k answer needs no queue slot, no
  // worker, and no kernel — serve it inline on the caller's thread, so
  // warm traffic bypasses the admission lock and the pool entirely. A
  // miss here is speculative (the worker re-probes authoritatively,
  // catching answers published while the request sat in the queue) and
  // is therefore not counted.
  if (CacheableTopKKind(task.kind) && cache_ != nullptr &&
      !state->cancel.ShouldStop()) {
    const uint32_t options_id = InternOptions(*task.options);
    if (options_id != kUncachedOptionsId) {
      if (ShardedLruCache::Value hit =
              cache_->Get(TopKKey(snapshot->epoch, task.kind, task.a, task.k,
                                  options_id),
                          /*count_miss=*/false)) {
        QueryResponse response;
        response.kind = task.kind;
        response.payload = TopKPtr(std::move(hit));
        response.cache_hit = true;
        Publish(state, std::move(response));
        return future;
      }
    }
  }

  // Admission step 2: charge the bounded queue.
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    if (options_.max_queue_depth > 0) {
      if (block_on_full) {
        queue_cv_.wait(lock, [this] {
          return in_flight_ < options_.max_queue_depth;
        });
      } else if (in_flight_ >= options_.max_queue_depth) {
        lock.unlock();
        QueryResponse response;
        response.kind = task.kind;
        response.status = Status::ResourceExhausted(
            "serving queue full (" +
            std::to_string(options_.max_queue_depth) +
            " requests in flight)");
        Publish(state, std::move(response));
        return future;
      }
    }
    ++in_flight_;
  }

  if (pool_ == nullptr) {
    RunTask(state, task, snapshot);
  } else {
    pool_->Submit(
        [this, state, task, snapshot] { RunTask(state, task, snapshot); });
  }
  return future;
}

void QueryService::RunTask(const std::shared_ptr<State>& state,
                           const QueryRequest& request,
                           const SnapshotPtr& snapshot) {
  QueryResponse response;
  response.kind = request.kind;
  const CancelToken* cancel = &state->cancel;
  if (cancel->ShouldStop()) {
    // Expired in the queue (or cancelled before a worker got to it):
    // complete without running a kernel.
    response.status = cancel->ToStatus();
  } else if (CacheableTopKKind(request.kind)) {
    AnswerTopK(request, snapshot, cancel, &response);
  } else {
    // kPair / kSingleSource / kAllPairsTopK run the facade directly (no
    // caching: pair answers are cheap relative to their O(n^2) key space,
    // full vectors and all-pairs sweeps are too large to retain).
    // All-pairs runs serially inside this worker — re-entering the
    // service pool from a worker would deadlock its completion barrier.
    response =
        snapshot->walker->Execute(request, /*pool=*/nullptr, cancel);
    if (response.status.ok()) {
      computed_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  Publish(state, std::move(response));
  {
    // Notify under the lock: once the destructor's drain predicate sees
    // in_flight_ == 0 it may destroy the condition variable, so the
    // notify must complete before this critical section is released.
    std::lock_guard<std::mutex> lock(queue_mu_);
    --in_flight_;
    queue_cv_.notify_all();
  }
}

void QueryService::AnswerTopK(const QueryRequest& request,
                              const SnapshotPtr& snapshot,
                              const CancelToken* cancel,
                              QueryResponse* response) {
  const uint32_t options_id = InternOptions(*request.options);
  if (options_id == kUncachedOptionsId) {
    // Intern table full: no exact key, so no cache and no dedup — but
    // still a correct (freshly computed) answer.
    QueryResponse computed =
        snapshot->walker->Execute(request, /*pool=*/nullptr, cancel);
    response->status = computed.status;
    response->stats = computed.stats;
    if (computed.status.ok()) {
      computed_.fetch_add(1, std::memory_order_relaxed);
      response->payload = computed.topk();
    }
    return;
  }
  const CacheKey key =
      TopKKey(snapshot->epoch, request.kind, request.a, request.k, options_id);
  while (true) {
    if (cache_ != nullptr) {
      if (ShardedLruCache::Value hit = cache_->Get(key)) {
        response->payload = TopKPtr(std::move(hit));
        response->cache_hit = true;
        return;
      }
    }

    std::shared_ptr<InFlight> follow;
    if (options_.dedup_in_flight) {
      std::lock_guard<std::mutex> lock(inflight_mu_);
      auto it = inflight_.find(key);
      if (it != inflight_.end()) {
        follow = it->second;  // follower: someone else is computing this key
      } else {
        inflight_.emplace(key, std::make_shared<InFlight>());
      }
    }
    if (follow != nullptr) {
      {
        // Wait for the leader, but keep honoring *this* request's token:
        // a follower whose deadline passes (or that is cancelled) while
        // dedup-waiting gives up instead of sitting out the leader's
        // entire run. Polled at a coarse tick — the same order of
        // granularity as the kernel's per-level checkpoints.
        std::unique_lock<std::mutex> lock(follow->mu);
        while (!follow->done) {
          follow->cv.wait_for(lock, std::chrono::milliseconds(5));
          if (!follow->done && cancel->ShouldStop()) {
            response->status = cancel->ToStatus();
            return;
          }
        }
      }
      if (follow->status.ok()) {
        response->payload = follow->result;
        response->deduped = true;
        dedup_shared_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      // The leader stopped on *its* deadline or cancellation — an error
      // that is per-request, not per-key, so it must not fan out. Retry
      // under this request's own token (which may have stopped too).
      if (cancel->ShouldStop()) {
        response->status = cancel->ToStatus();
        return;
      }
      continue;
    }

    // Leader (or dedup disabled): run the kernel through the facade.
    QueryResponse computed =
        snapshot->walker->Execute(request, /*pool=*/nullptr, cancel);
    response->status = computed.status;
    response->stats = computed.stats;
    if (computed.status.ok()) {
      computed_.fetch_add(1, std::memory_order_relaxed);
      response->payload = computed.topk();
      if (cache_ != nullptr) cache_->Put(key, computed.topk());
    }

    if (options_.dedup_in_flight) {
      std::shared_ptr<InFlight> own;
      {
        std::lock_guard<std::mutex> lock(inflight_mu_);
        auto it = inflight_.find(key);
        own = std::move(it->second);
        inflight_.erase(it);
      }
      std::lock_guard<std::mutex> lock(own->mu);
      own->done = true;
      own->status = response->status;
      own->result = computed.status.ok() ? computed.topk() : nullptr;
      own->cv.notify_all();
    }
    return;
  }
}

void QueryService::Publish(const std::shared_ptr<State>& state,
                           QueryResponse response) {
  // One clock for every requester: wall time since admission, so queue
  // wait and dedup wait are part of the reported latency.
  response.latency_seconds = state->admitted.Seconds();
  if (response.status.IsResourceExhausted()) {
    // Queue-full rejections complete their future but stay out of the
    // served-traffic accounting: a microsecond rejection in the latency
    // histogram (or in QPS) would make overload look *faster*.
    rejected_.fetch_add(1, std::memory_order_relaxed);
    errors_.fetch_add(1, std::memory_order_relaxed);
  } else {
    switch (response.kind) {
      case QueryKind::kPair:
        pair_queries_.fetch_add(1, std::memory_order_relaxed);
        break;
      case QueryKind::kSingleSource:
        source_queries_.fetch_add(1, std::memory_order_relaxed);
        break;
      case QueryKind::kSourceTopK:
        topk_queries_.fetch_add(1, std::memory_order_relaxed);
        break;
      case QueryKind::kAllPairsTopK:
        all_pairs_queries_.fetch_add(1, std::memory_order_relaxed);
        break;
      case QueryKind::kPersonalizedPageRank:
        ppr_queries_.fetch_add(1, std::memory_order_relaxed);
        break;
      case QueryKind::kNode2Vec:
        n2v_queries_.fetch_add(1, std::memory_order_relaxed);
        break;
    }
    if (!response.status.ok()) {
      errors_.fetch_add(1, std::memory_order_relaxed);
      if (response.status.IsDeadlineExceeded()) {
        deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
      } else if (response.status.IsCancelled()) {
        cancelled_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    latencies_.Record(response.latency_seconds);
  }
  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->response = std::move(response);
    state->done = true;
  }
  state->cv.notify_all();
}

QueryResponse QueryService::Execute(const QueryRequest& request) {
  return SubmitInternal(request, /*block_on_full=*/true).Wait();
}

std::vector<QueryResponse> QueryService::ExecuteBatch(
    const std::vector<QueryRequest>& requests) {
  // Every request is an independently scheduled unit of work, so identical
  // sources landing on different workers overlap and dedup. Backpressure
  // (not rejection) keeps replayed batches lossless under a bounded queue.
  std::vector<QueryFuture> futures;
  futures.reserve(requests.size());
  for (const QueryRequest& request : requests) {
    futures.push_back(SubmitInternal(request, /*block_on_full=*/true));
  }
  return WhenAll(futures);
}

ServeStats QueryService::Stats() const {
  ServeStats s;
  s.pair_queries = pair_queries_.load(std::memory_order_relaxed);
  s.source_queries = source_queries_.load(std::memory_order_relaxed);
  s.topk_queries = topk_queries_.load(std::memory_order_relaxed);
  s.all_pairs_queries = all_pairs_queries_.load(std::memory_order_relaxed);
  s.ppr_queries = ppr_queries_.load(std::memory_order_relaxed);
  s.n2v_queries = n2v_queries_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  s.computed = computed_.load(std::memory_order_relaxed);
  s.dedup_shared = dedup_shared_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  s.cancelled = cancelled_.load(std::memory_order_relaxed);
  if (const SnapshotPtr current = registry_.Current()) {
    s.snapshot_version = current->version;
    s.snapshot_epoch = current->epoch;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    if (cache_ != nullptr) {
      const ShardedLruCache::Counters c = cache_->counters();
      s.cache_hits = c.hits - cache_baseline_.hits;
      s.cache_misses = c.misses - cache_baseline_.misses;
      s.cache_evictions = c.evictions - cache_baseline_.evictions;
      s.cache_entries = cache_->size();
    }
    s.elapsed_seconds = window_.Seconds();
  }
  if (s.elapsed_seconds > 0.0) {
    s.qps = static_cast<double>(s.total_queries()) / s.elapsed_seconds;
  }
  s.p50_ms = latencies_.Quantile(0.50) * 1e3;
  s.p95_ms = latencies_.Quantile(0.95) * 1e3;
  s.p99_ms = latencies_.Quantile(0.99) * 1e3;
  s.mean_ms = latencies_.Mean() * 1e3;
  return s;
}

void QueryService::ResetStats() {
  pair_queries_.store(0, std::memory_order_relaxed);
  source_queries_.store(0, std::memory_order_relaxed);
  topk_queries_.store(0, std::memory_order_relaxed);
  all_pairs_queries_.store(0, std::memory_order_relaxed);
  ppr_queries_.store(0, std::memory_order_relaxed);
  n2v_queries_.store(0, std::memory_order_relaxed);
  errors_.store(0, std::memory_order_relaxed);
  computed_.store(0, std::memory_order_relaxed);
  dedup_shared_.store(0, std::memory_order_relaxed);
  rejected_.store(0, std::memory_order_relaxed);
  deadline_exceeded_.store(0, std::memory_order_relaxed);
  cancelled_.store(0, std::memory_order_relaxed);
  latencies_.Reset();
  std::lock_guard<std::mutex> lock(stats_mu_);
  if (cache_ != nullptr) cache_baseline_ = cache_->counters();
  window_.Restart();
}

}  // namespace cloudwalker
