#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "obs/json.h"

namespace hermes::obs {

LogHistogram::LogHistogram(uint32_t shards, uint32_t sub_bits)
    : n_(shards), sub_bits_(sub_bits), num_buckets_(bucket_count(sub_bits)) {
  HERMES_CHECK(shards > 0 && sub_bits >= 1 && sub_bits <= 8);
  // Pad the per-shard stride to a whole number of cache lines so adjacent
  // shards never share one.
  constexpr size_t kEntriesPerLine = 64 / sizeof(std::atomic<uint64_t>);
  stride_ = (num_buckets_ + kEntriesPerLine - 1) / kEntriesPerLine *
            kEntriesPerLine;
  buckets_ = std::make_unique<std::atomic<uint64_t>[]>(stride_ * n_);
  for (size_t i = 0; i < stride_ * n_; ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  sums_ = std::make_unique<PaddedSum[]>(n_);
}

size_t LogHistogram::bucket_index(uint64_t v, uint32_t sub_bits) {
  const uint64_t sub_count = 1ull << sub_bits;
  if (v < sub_count) return static_cast<size_t>(v);
  const int msb = 63 - std::countl_zero(v);
  const auto bucket = static_cast<uint32_t>(msb) - sub_bits + 1;
  const uint64_t sub = (v >> (static_cast<uint32_t>(msb) - sub_bits)) &
                       (sub_count - 1);
  return static_cast<size_t>(bucket) * sub_count + static_cast<size_t>(sub);
}

uint64_t LogHistogram::bucket_lower(size_t idx, uint32_t sub_bits) {
  const uint64_t sub_count = 1ull << sub_bits;
  const uint64_t bucket = idx / sub_count;
  const uint64_t sub = idx % sub_count;
  if (bucket == 0) return sub;
  const uint32_t shift = static_cast<uint32_t>(bucket) - 1;
  return (sub_count + sub) << shift;
}

uint64_t LogHistogram::bucket_upper(size_t idx, uint32_t sub_bits) {
  const uint64_t sub_count = 1ull << sub_bits;
  const uint64_t bucket = idx / sub_count;
  const uint64_t sub = idx % sub_count;
  if (bucket == 0) return sub;
  const uint32_t shift = static_cast<uint32_t>(bucket) - 1;
  const uint64_t base = (sub_count + sub) << shift;
  return base + ((1ull << shift) - 1);
}

uint64_t LogHistogram::Snapshot::quantile(double q) const {
  if (count == 0) return 0;
  HERMES_DCHECK(q >= 0.0 && q <= 1.0);
  auto target = static_cast<uint64_t>(
      std::ceil(q * static_cast<double>(count)));
  if (target == 0) target = 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen >= target) return bucket_upper(i, sub_bits);
  }
  return bucket_upper(buckets.size() - 1, sub_bits);
}

void LogHistogram::Snapshot::merge(const Snapshot& o) {
  HERMES_CHECK(sub_bits == o.sub_bits && buckets.size() == o.buckets.size());
  for (size_t i = 0; i < buckets.size(); ++i) buckets[i] += o.buckets[i];
  count += o.count;
  sum += o.sum;
}

LogHistogram::Snapshot LogHistogram::shard_snapshot(uint32_t shard) const {
  HERMES_DCHECK(shard < n_);
  Snapshot s;
  s.sub_bits = sub_bits_;
  s.buckets.resize(num_buckets_);
  const size_t base = static_cast<size_t>(shard) * stride_;
  for (uint32_t i = 0; i < num_buckets_; ++i) {
    s.buckets[i] = buckets_[base + i].load(std::memory_order_relaxed);
    s.count += s.buckets[i];
  }
  s.sum = sums_[shard].v.load(std::memory_order_relaxed);
  return s;
}

LogHistogram::Snapshot LogHistogram::snapshot() const {
  Snapshot merged = shard_snapshot(0);
  for (uint32_t s = 1; s < n_; ++s) merged.merge(shard_snapshot(s));
  return merged;
}

Counter& Registry::counter(const std::string& name, uint32_t shards) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(name, std::make_unique<Counter>(
                                shards ? shards : default_shards_))
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(name, std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

LogHistogram& Registry::histogram(const std::string& name, uint32_t shards,
                                  uint32_t sub_bits) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(name, std::make_unique<LogHistogram>(
                                shards ? shards : default_shards_, sub_bits))
             .first;
  }
  return *it->second;
}

std::string Registry::to_json() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::string out;
  JsonWriter w(&out);
  w.begin_object();
  w.key("counters");
  w.begin_object();
  for (const auto& [name, c] : counters_) w.field(name, c->value());
  w.end_object();
  w.key("gauges");
  w.begin_object();
  for (const auto& [name, g] : gauges_) w.field(name, g->value());
  w.end_object();
  w.key("histograms");
  w.begin_object();
  for (const auto& [name, h] : histograms_) {
    const auto s = h->snapshot();
    w.key(name);
    w.begin_object();
    w.field("count", s.count);
    w.field("sum", s.sum);
    w.field("mean", s.mean());
    w.field("p50", s.p50());
    w.field("p99", s.p99());
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return out;
}

std::string Registry::text_dump() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::string out;
  char buf[256];
  for (const auto& [name, c] : counters_) {
    std::snprintf(buf, sizeof(buf), "%-28s %20llu", name.c_str(),
                  static_cast<unsigned long long>(c->value()));
    out += buf;
    if (c->shards() > 1) {
      out += "  [";
      for (uint32_t s = 0; s < c->shards(); ++s) {
        const uint64_t v = c->shard_value(s);
        if (s) out += ' ';
        out += std::to_string(v);
      }
      out += ']';
    }
    out += '\n';
  }
  for (const auto& [name, g] : gauges_) {
    std::snprintf(buf, sizeof(buf), "%-28s %20lld\n", name.c_str(),
                  static_cast<long long>(g->value()));
    out += buf;
  }
  for (const auto& [name, h] : histograms_) {
    const auto s = h->snapshot();
    std::snprintf(buf, sizeof(buf),
                  "%-28s count=%llu mean=%.1f p50=%llu p99=%llu\n",
                  name.c_str(), static_cast<unsigned long long>(s.count),
                  s.mean(), static_cast<unsigned long long>(s.p50()),
                  static_cast<unsigned long long>(s.p99()));
    out += buf;
  }
  return out;
}

PipelineMetrics::PipelineMetrics(Registry& reg, uint32_t workers)
    : wst_avail_updates(&reg.counter("wst.avail_updates", workers)),
      wst_pending_updates(&reg.counter("wst.pending_updates", workers)),
      wst_conn_updates(&reg.counter("wst.conn_updates", workers)),
      filter_runs(&reg.counter("filter.runs", workers)),
      filter_after_time(&reg.counter("filter.after_time", workers)),
      filter_after_conn(&reg.counter("filter.after_conn", workers)),
      filter_after_event(&reg.counter("filter.after_event", workers)),
      filter_selected(&reg.histogram("filter.selected", workers, 4)),
      filter_low_survivor(&reg.counter("filter.low_survivor", workers)),
      sync_published(&reg.counter("sync.published", workers)),
      sync_dropped(&reg.counter("sync.dropped", workers)),
      sync_gap_ns(&reg.histogram("sync.gap_ns", workers, 2)),
      sched_syncs_suppressed(&reg.counter("sched.syncs_suppressed", workers)),
      sched_fast_path_ns(&reg.counter("sched.fast_path_ns", workers)),
      policy_publishes{&reg.counter("sched.policy.cascade.publishes", workers),
                       &reg.counter("sched.policy.p2c.publishes", workers),
                       &reg.counter("sched.policy.weighted.publishes", workers),
                       &reg.counter("sched.policy.queue_est.publishes",
                                    workers)},
      policy_dispatches{&reg.counter("sched.policy.cascade.dispatches", 1),
                        &reg.counter("sched.policy.p2c.dispatches", 1),
                        &reg.counter("sched.policy.weighted.dispatches", 1),
                        &reg.counter("sched.policy.queue_est.dispatches", 1)},
      dispatch_picks(&reg.counter("dispatch.picks", workers)),
      dispatch_bpf(&reg.counter("dispatch.bpf", 1)),
      dispatch_fallback(&reg.counter("dispatch.fallback", 1)),
      dispatch_hash(&reg.counter("dispatch.hash", 1)),
      bpf_elide_dispatches(&reg.counter("bpf.tier2_dispatches", 1)),
      bpf_jit_dispatches(&reg.counter("bpf.tier3_dispatches", 1)),
      bpf_fused_ops(&reg.counter("bpf.fused_ops", 1)),
      bpf_elided_checks(&reg.counter("bpf.elided_checks", 1)),
      bpf_jit_fallbacks(&reg.counter("bpf.jit_fallbacks", 1)),
      bpf_jit_fallbacks_disabled(
          &reg.counter("bpf.jit_fallbacks_disabled", 1)),
      bpf_jit_fallbacks_alloc(&reg.counter("bpf.jit_fallbacks_alloc", 1)),
      bpf_jit_fallbacks_validate(
          &reg.counter("bpf.jit_fallbacks_validate", 1)),
      bpf_validate_accepts(&reg.counter("bpf.validate_accepts", 1)),
      bpf_validate_rejects(&reg.counter("bpf.validate_rejects", 1)),
      accept_enqueued(&reg.counter("accept.enqueued", workers)),
      accept_dropped(&reg.counter("accept.dropped", workers)),
      accept_depth(&reg.histogram("accept.depth", workers, 2)),
      http_requests_forwarded(&reg.counter("http.requests_forwarded", workers)),
      http_bytes_zero_copied(&reg.counter("http.bytes_zero_copied", workers)),
      http_bytes_copied(&reg.counter("http.bytes_copied", workers)),
      pool_hits(&reg.counter("pool.hits", workers)),
      pool_misses(&reg.counter("pool.misses", workers)),
      pool_expiries(&reg.counter("pool.expiries", workers)),
      ratelimit_drops(&reg.counter("ratelimit.drops", 1)),
      pool_occupancy(&reg.gauge("pool.occupancy")) {}

}  // namespace hermes::obs
