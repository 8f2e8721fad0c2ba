#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "bench.h"
#include "bpf/plan.h"

namespace pb {

int64_t mono_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return ts.tv_sec * 1'000'000'000ll + ts.tv_nsec;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double peak_rss_mb() {
  rusage self{}, kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  return static_cast<double>(std::max(self.ru_maxrss, kids.ru_maxrss)) /
         1024.0;
}

namespace {

volatile uint64_t g_probe_sink;  // keeps the probe's result alive
constexpr int kProbeOps = 4000;

// CPU seconds of kProbeOps insert-or-erase operations on a
// std::unordered_map over 16K keys.
double calibration_probe_s() {
  const double c0 = process_cpu_s();
  std::unordered_map<uint64_t, uint64_t> m;
  uint64_t x = 0x9e3779b97f4a7c15ull, acc = 0;
  for (int i = 0; i < kProbeOps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    auto [it, inserted] = m.emplace(x & 0x3fff, i);
    if (!inserted) {
      acc += it->second;
      m.erase(it);
    }
  }
  g_probe_sink = acc;
  return process_cpu_s() - c0;
}

}  // namespace

void CpuChunks::tick(uint64_t completed) {
  const int64_t now = mono_ns();
  if (start_ns_ != 0 && now - start_ns_ < period_ns_) return;
  double cpu = process_cpu_s();
  if (start_ns_ != 0 && completed > start_done_) {
    us_per_req_.push_back((cpu - start_cpu_s_) * 1e6 /
                          static_cast<double>(completed - start_done_));
    if (us_per_req_.size() % kChunksPerProbe == 0) {
      probe_us_per_op_.push_back(calibration_probe_s() * 1e6 / kProbeOps);
      cpu = process_cpu_s();
    }
  }
  start_ns_ = mono_ns();
  start_cpu_s_ = cpu;
  start_done_ = completed;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double stddev(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double m = 0;
  for (double x : v) m += x;
  m /= static_cast<double>(v.size());
  double s = 0;
  for (double x : v) s += (x - m) * (x - m);
  return std::sqrt(s / static_cast<double>(v.size()));
}

std::string dominant_tier(const double (&dispatches)[4]) {
  std::string tier = "none";
  double best = 0;
  for (int t = 0; t < 4; ++t) {
    if (dispatches[t] > best) {
      best = dispatches[t];
      tier = std::to_string(t) + " (" +
             hermes::bpf::to_string(static_cast<hermes::bpf::ExecTier>(t)) + ")";
    }
  }
  return tier;
}

void Report::check(const std::string& name, bool ok,
                   const std::string& detail) {
  ++checks;
  if (ok) return;
  failed_checks.push_back(detail.empty() ? name : name + ": " + detail);
  std::fprintf(stderr, "CHECK FAILED: %s %s\n", name.c_str(), detail.c_str());
}

size_t LatencyHist::index(uint64_t v) {
  constexpr uint64_t kSub = 1ull << kSubBits;
  if (v < kSub) return static_cast<size_t>(v);
  const int msb = 63 - __builtin_clzll(v);
  const int shift = msb - kSubBits;
  return static_cast<size_t>((static_cast<uint64_t>(shift + 1) << kSubBits) +
                             ((v >> shift) & (kSub - 1)));
}

double LatencyHist::lower(size_t idx) {
  constexpr size_t kSub = size_t{1} << kSubBits;
  if (idx < kSub) return static_cast<double>(idx);
  const size_t group = idx >> kSubBits;  // >= 1
  const double base = std::ldexp(1.0, static_cast<int>(group - 1 + kSubBits));
  return base + static_cast<double>(idx & (kSub - 1)) *
                    std::ldexp(1.0, static_cast<int>(group - 1));
}

void LatencyHist::add(int64_t v) {
  ++counts_[index(static_cast<uint64_t>(std::max<int64_t>(0, v)))];
  ++n_;
}

double LatencyHist::quantile(double q) const {
  if (n_ == 0) return 0;
  const double rank = q * static_cast<double>(n_ - 1);
  double below = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    const double c = static_cast<double>(counts_[i]);
    if (c == 0) continue;
    if (below + c > rank) {
      const double lo = lower(i);
      const double hi = i + 1 < counts_.size() ? lower(i + 1) : lo;
      return lo + (hi - lo) * (rank - below + 0.5) / c;
    }
    below += c;
  }
  return lower(counts_.size() - 1);
}

namespace {

struct SpanInfo {
  const char* name;
  const char* layer;
};
constexpr SpanInfo kSpans[kNumSpans] = {
    {"gen.schedule", "gen"},   {"gen.issue", "gen"},
    {"gen.complete", "gen"},   {"sim.run_until", "sim"},
    {"sim.open_burst", "sim"}, {"sim.churn", "sim"},
    {"sim.audit_pcc", "sim"},  {"bpf.run", "bpf"},
    {"shm.send_fd", "shm"},    {"shm.recv_fd", "shm"},
    {"core.hooks", "core"},    {"core.schedule_and_sync", "core"},
    {"http.parse", "http"},    {"http.egress", "http"},
};

}  // namespace

const char* span_name(uint32_t s) { return kSpans[s].name; }
const char* span_layer(uint32_t s) { return kSpans[s].layer; }

void TraceSink::reset(uint64_t capacity) {
  std::memset(count, 0, sizeof(count));
  std::memset(total_ns, 0, sizeof(total_ns));
  std::memset(self_ns, 0, sizeof(self_ns));
  n = 0;
  cap = capacity;
  dropped = 0;
}

void TraceSink::merge_aggregates(const TraceSink& o) {
  for (uint32_t s = 0; s < kNumSpans; ++s) {
    count[s] += o.count[s];
    total_ns[s] += o.total_ns[s];
    self_ns[s] += o.self_ns[s];
  }
  dropped += o.dropped;
}

uint32_t Tracer::begin(uint32_t name, uint64_t req, uint64_t conn) {
  Open o{name, 0, 0, 0, req, conn};
  if (sink_->n < sink_->cap) {
    o.rec = static_cast<uint32_t>(++sink_->n);
  } else {
    ++sink_->dropped;
  }
  stack_.push_back(o);
  stack_.back().start = mono_ns();
  return static_cast<uint32_t>(stack_.size());
}

void Tracer::end(uint32_t token) {
  const int64_t t = mono_ns();
  // Scopes close in LIFO order, so the token is always the top.
  if (token != stack_.size()) return;
  const Open o = stack_.back();
  stack_.pop_back();
  const int64_t dur = t - o.start;
  sink_->count[o.name] += 1;
  sink_->total_ns[o.name] += static_cast<uint64_t>(dur);
  sink_->self_ns[o.name] += static_cast<uint64_t>(std::max<int64_t>(0, dur - o.child_ns));
  uint32_t parent_rec = 0;
  if (!stack_.empty()) {
    stack_.back().child_ns += dur;
    parent_rec = stack_.back().rec;
  }
  if (o.rec != 0) {
    sink_->recs[o.rec - 1] =
        SpanRec{o.name, parent_rec, o.req, o.conn, o.start, t};
  }
}

OwnedSink::OwnedSink(uint64_t cap)
    : buf_(new uint64_t[(TraceSink::bytes_for(cap) + 7) / 8]()) {
  get()->reset(cap);
}

void dump_spans(std::FILE* f, const char* process, const TraceSink& sink) {
  for (uint64_t i = 0; i < sink.n; ++i) {
    const SpanRec& r = sink.recs[i];
    std::fprintf(f, "%s\t%s\t%s\t%u\t%llu\t%llu\t%lld\t%lld\n", process,
                 span_name(r.name), span_layer(r.name), r.parent,
                 static_cast<unsigned long long>(r.req),
                 static_cast<unsigned long long>(r.conn),
                 static_cast<long long>(r.start_ns),
                 static_cast<long long>(r.end_ns));
  }
}

std::map<std::string, double> layer_self_ns(const TraceSink& sink) {
  std::map<std::string, double> out;
  for (uint32_t s = 0; s < kNumSpans; ++s) {
    out[span_layer(s)] += static_cast<double>(sink.self_ns[s]);
  }
  return out;
}

double mean_ns(const TraceSink& sink, uint32_t name) {
  return sink.count[name] == 0
             ? 0
             : static_cast<double>(sink.total_ns[name]) /
                   static_cast<double>(sink.count[name]);
}

}  // namespace pb
