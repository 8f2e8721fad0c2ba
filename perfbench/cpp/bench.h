// Shared pieces of the repo benchmark: the result report, the span tracer,
// and small clock helpers. The benchmark drives the library only through
// its public headers; every span below is recorded here, around a call
// into one layer, never inside the library.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace pb {

// ---- clocks ---------------------------------------------------------------
int64_t mono_ns();         // CLOCK_MONOTONIC
double process_cpu_s();    // CPU time of this process (all threads)
double peak_rss_mb();      // max(self, largest reaped child), in MB

// CPU time per completed request over consecutive wall-time chunks of a
// measurement, with a calibration probe between every kChunksPerProbe
// chunks. The probe is a fixed loop of hash-map churn with node allocation
// that uses no library code: it stands for the simulator's own mix and
// slows down with it when other tenants of a shared host contend for caches
// and memory bandwidth. Call tick() often with the running count of completed requests;
// every `period_ns` of wall time it closes a chunk and records the chunk's
// CPU microseconds per request completed in it. The probes run outside the
// chunks, so they sample the host's speed at the same moments without
// being counted. Contention from other tenants of a shared host moves the
// per-chunk cost by up to 2x within seconds and between runs; the ratio of
// the chunks' median to the probes' median cancels most of it.
class CpuChunks {
 public:
  static constexpr size_t kChunksPerProbe = 5;
  explicit CpuChunks(int64_t period_ns) : period_ns_(period_ns) {}
  void tick(uint64_t completed);
  // Drops the open chunk: the time since the last tick is not request work.
  void skip() { start_ns_ = 0; }
  const std::vector<double>& us_per_req() const { return us_per_req_; }
  const std::vector<double>& probe_us_per_op() const { return probe_us_per_op_; }

 private:
  int64_t period_ns_;
  int64_t start_ns_ = 0;  // 0: no chunk open yet
  double start_cpu_s_ = 0;
  uint64_t start_done_ = 0;
  std::vector<double> us_per_req_;
  std::vector<double> probe_us_per_op_;
};

// ---- small statistics -----------------------------------------------------
double median(std::vector<double> v);
double stddev(const std::vector<double>& v);  // population SD
// "N (name)" of the BPF execution tier that ran the most dispatches, from
// per-tier counts (the bpf.tierN_dispatches counters); "none" if all are 0.
std::string dominant_tier(const double (&dispatches)[4]);

// ---- run options ----------------------------------------------------------
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;       // span dump path (traced runs)
  int64_t plant_spin_ns = 0;   // attribution self-test: spin in the WST hook
};

// ---- result ---------------------------------------------------------------
struct Report {
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> info;
  std::vector<std::string> failed_checks;
  uint64_t checks = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void set(const std::string& name, double v) { metrics[name] = v; }
  // A correctness check; any failed check fails the run.
  void check(const std::string& name, bool ok, const std::string& detail = "");
};

// ---- latency distribution ------------------------------------------------
// Log-linear histogram of non-negative ns values pooled over a run: 256
// sub-buckets per power of two (bucket width < 0.4%), with quantiles
// interpolated by rank inside the bucket. Fixed size, so memory does not
// grow with the number of samples.
class LatencyHist {
 public:
  static constexpr int kSubBits = 8;
  LatencyHist() : counts_((64 - kSubBits + 1) << kSubBits, 0) {}
  void add(int64_t v);
  uint64_t count() const { return n_; }
  double quantile(double q) const;

 private:
  static size_t index(uint64_t v);
  static double lower(size_t idx);
  std::vector<uint64_t> counts_;
  uint64_t n_ = 0;
};

// ---- spans ----------------------------------------------------------------
// Every span the benchmark records, with the layer (src/ module, or the
// benchmark's own generator) it is charged to.
enum Span : uint32_t {
  kGenSchedule,   // gen: draw the open-loop arrival schedule
  kGenIssue,      // gen: socket + connect + send (loopback)
  kGenComplete,   // gen: read + parse + validate the response (loopback)
  kSimRun,        // sim: LbDevice / Fleet run_until
  kSimBurst,      // sim: Fleet::open_burst
  kSimChurn,      // sim: Fleet::add_lb / remove_lb
  kSimAudit,      // sim: Fleet::audit_pcc
  kBpfRun,        // bpf: Vm::run of the dispatch program (acceptor)
  kShmHandoff,    // shm: FdChannel::send_fd (acceptor)
  kShmRecv,       // shm: FdChannel::recv_fd (worker)
  kCoreHooks,     // core: EventLoopHooks calls (worker)
  kCoreSched,     // core: HermesRuntime::schedule_and_sync (worker)
  kHttpParse,     // http: ConnState admit + pop_ready (worker)
  kHttpEgress,    // http: encode + egress + write (worker)
  kNumSpans
};
const char* span_name(uint32_t s);
const char* span_layer(uint32_t s);

struct SpanRec {
  uint32_t name;
  uint32_t parent;   // index+1 of the parent record in the same sink; 0 none
  uint64_t req;      // request id (loopback), else 0
  uint64_t conn;     // client port (loopback), else 0
  int64_t start_ns;
  int64_t end_ns;
};

// Per-process span store. Plain data so it can live in shared memory; the
// aggregates are exact even when the record array overflows.
struct TraceSink {
  uint64_t count[kNumSpans];
  uint64_t total_ns[kNumSpans];
  uint64_t self_ns[kNumSpans];
  uint64_t n;         // records stored
  uint64_t cap;       // record capacity
  uint64_t dropped;   // records not stored (capacity)
  SpanRec recs[1];    // really `cap` entries

  static size_t bytes_for(uint64_t cap) {
    return sizeof(TraceSink) + (cap - 1) * sizeof(SpanRec);
  }
  void reset(uint64_t capacity);
  void merge_aggregates(const TraceSink& o);
};

// Records spans into a sink. Disabled tracers cost one branch per span.
class Tracer {
 public:
  Tracer() = default;
  explicit Tracer(TraceSink* sink) : sink_(sink) {}
  bool on() const { return sink_ != nullptr; }

  uint32_t begin(uint32_t name, uint64_t req = 0, uint64_t conn = 0);
  void end(uint32_t token);

  class Scope {
   public:
    Scope(Tracer& t, uint32_t name, uint64_t req = 0, uint64_t conn = 0)
        : t_(t), tok_(t.on() ? t.begin(name, req, conn) : 0) {}
    ~Scope() {
      if (t_.on()) t_.end(tok_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    uint32_t tok_;
  };

 private:
  struct Open {
    uint32_t name;
    uint32_t rec;  // index+1 in sink, 0 if dropped
    int64_t start;
    int64_t child_ns;
    uint64_t req, conn;
  };
  TraceSink* sink_ = nullptr;
  std::vector<Open> stack_;
};

// Heap-owned sink for single-process workloads.
class OwnedSink {
 public:
  explicit OwnedSink(uint64_t cap);
  TraceSink* get() { return reinterpret_cast<TraceSink*>(buf_.get()); }

 private:
  std::unique_ptr<uint64_t[]> buf_;
};

// Appends every stored record of `sink` to `f` as TSV:
// process, name, layer, parent, req, conn, start_ns, end_ns.
void dump_spans(std::FILE* f, const char* process, const TraceSink& sink);
// Layer self times (ns) summed from the aggregates of `sink`.
std::map<std::string, double> layer_self_ns(const TraceSink& sink);
double mean_ns(const TraceSink& sink, uint32_t name);

// ---- workloads ------------------------------------------------------------
void run_short_conn(const Options& opt, Report& rep);
void run_keepalive_l7(const Options& opt, Report& rep);
void run_wedge_fleet(const Options& opt, Report& rep);
void run_live_loopback(const Options& opt, Report& rep);

}  // namespace pb
