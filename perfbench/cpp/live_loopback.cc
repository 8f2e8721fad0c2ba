// live_loopback: the Hermes closed loop on real TCP over 127.0.0.1.
//
//   * forked worker processes run real epoll loops through the library's
//     EventLoopHooks, http::ConnState and HermesRuntime::schedule_and_sync,
//     with the WST in a shm::ShmRegion;
//   * an acceptor process runs the verified dispatch program on bpf::Vm for
//     every accepted connection and hands the fd to the chosen worker over
//     shm::FdChannel (SCM_RIGHTS) -- the documented substitution for
//     SO_ATTACH_REUSEPORT_EBPF that examples/live_epoll_demo.cpp uses;
//   * this process is the load generator: one thread sending open-loop
//     Poisson arrivals of one-GET connections, at most nproc in flight,
//     each timed from when it was due.
//
// Generator, acceptor and workers together use at most nproc threads
// (workers = nproc - 2, but never fewer than 2, and at most 8).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <string>
#include <vector>

#include "bench.h"
#include "core/hermes.h"
#include "http/conn_state.h"
#include "http/response_parser.h"
#include "netsim/four_tuple.h"
#include "obs/observability.h"
#include "shm/fd_channel.h"
#include "shm/shm_region.h"
#include "simcore/rng.h"

namespace pb {
namespace {

using hermes::SimTime;
using hermes::WorkerId;
namespace core = hermes::core;

constexpr double kRatePerSec = 1000;       // offered load, below saturation
constexpr double kWarmupS = 0.3;           // unmeasured start of each phase
constexpr int64_t kTimeoutNs = 2'000'000'000;
constexpr double kLateBoundUs = 5000;      // generator validity bound (p99)
constexpr uint64_t kSpanCap = 1 << 17;     // span records per process
constexpr int kSetups = 5;                 // set-up repetitions per run
constexpr uint64_t kCookieBase = 9000;

// Per-process counters, written by their owner only.
struct alignas(64) ProcStats {
  std::atomic<uint64_t> cpu_ns{0};     // own CPU time, refreshed every loop
  std::atomic<uint64_t> conns{0};      // accepted (acceptor) / adopted
  std::atomic<uint64_t> requests{0};   // responses written (workers)
  std::atomic<uint64_t> bad{0};        // parse failures / bad paths
  std::atomic<uint64_t> hook_calls{0};
  std::atomic<uint64_t> sched_runs{0};
  std::atomic<uint64_t> sched_published{0};
  std::atomic<uint64_t> sched_selected{0};
  std::atomic<uint64_t> low_survivor{0};
  std::atomic<uint64_t> vm_runs{0};
  std::atomic<uint64_t> fallbacks{0};
  std::atomic<uint64_t> tier_runs[4]{};
};

struct Control {
  std::atomic<uint64_t> bitmap{~0ull};   // published selection (M_sel mirror)
  std::atomic<uint32_t> ready{0};
  std::atomic<uint32_t> stop{0};
  std::atomic<uint32_t> trace{0};
};

// Shared-memory layout: WST | Control | ProcStats[1 + W] | sinks[1 + W].
struct Layout {
  uint32_t workers = 0;
  size_t wst_bytes = 0, ctl_off = 0, stats_off = 0, sink_off = 0,
         sink_bytes = 0, total = 0;
  explicit Layout(uint32_t w) : workers(w) {
    auto up = [](size_t v) { return (v + 63) & ~size_t{63}; };
    wst_bytes = up(core::WorkerStatusTable::required_bytes(w));
    ctl_off = wst_bytes;
    stats_off = up(ctl_off + sizeof(Control));
    sink_off = up(stats_off + sizeof(ProcStats) * (w + 1));
    sink_bytes = up(TraceSink::bytes_for(kSpanCap));
    total = sink_off + sink_bytes * (w + 1);
  }
};

// Attribution self-test seam: a pass-through injector that spins a fixed
// time in the WST heartbeat hook.
class SpinInjector : public core::FaultInjector {
 public:
  explicit SpinInjector(int64_t ns) : ns_(ns) {}
  SimTime on_avail_update(WorkerId, SimTime now) override {
    const int64_t until = mono_ns() + ns_;
    while (mono_ns() < until) {
    }
    return now;
  }

 private:
  int64_t ns_;
};

void publish_cpu(ProcStats& st) {
  st.cpu_ns.store(static_cast<uint64_t>(process_cpu_s() * 1e9),
                  std::memory_order_relaxed);
}

// CPU placement. The generator polls without sleeping, so it gets CPU 0 to
// itself: a process woken onto the generator's CPU would wait for the
// scheduler tick before it ran. The acceptor and workers share CPUs 1..n-1.
long online_cpus() { return sysconf(_SC_NPROCESSORS_ONLN); }

void set_cpus(int first, int last) {
  if (online_cpus() < 3) return;  // too few CPUs to separate the roles
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c = first; c <= last; ++c) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

void set_generator_cpu() { set_cpus(0, 0); }
void set_lb_cpus() { set_cpus(1, static_cast<int>(online_cpus()) - 1); }

// Keeps the load balancer's CPUs out of the idle state for the life of the
// object: one SCHED_IDLE busy loop per CPU, which yields to any other task.
// A virtual machine's halted vCPU takes from tens of microseconds to
// milliseconds to wake, and that wake-up tail, not the load balancer, would
// otherwise set the loopback latency percentiles. The loops' CPU time is
// not charged to the load balancer.
class KeepAwake {
 public:
  KeepAwake() {
    if (online_cpus() < 3) return;
    for (int c = 1; c < online_cpus(); ++c) {
      const pid_t p = fork();
      if (p == 0) {
        prctl(PR_SET_PDEATHSIG, SIGKILL);
        set_cpus(c, c);
        sched_param sp{};
        sched_setscheduler(0, SCHED_IDLE, &sp);
        for (;;) {
        }
      }
      pids_.push_back(p);
    }
  }
  ~KeepAwake() {
    for (pid_t p : pids_) kill(p, SIGKILL);
    for (pid_t p : pids_) waitpid(p, nullptr, 0);
  }
  KeepAwake(const KeepAwake&) = delete;
  KeepAwake& operator=(const KeepAwake&) = delete;

 private:
  std::vector<pid_t> pids_;
};

SimTime now_sim() { return SimTime::nanos(mono_ns()); }

// One running Hermes instance: shared memory, runtime, forked processes.
class LiveLb {
 public:
  LiveLb(uint32_t workers, int64_t spin_ns)
      : layout_(workers),
        region_(hermes::shm::ShmRegion::create_anonymous(layout_.total)),
        spin_(spin_ns),
        obs_(workers) {
    std::memset(region_.data(), 0, layout_.total);
    ctl_ = new (base() + layout_.ctl_off) Control{};
    for (uint32_t i = 0; i <= workers; ++i) {
      new (&stats(i)) ProcStats{};
      sink(i)->reset(kSpanCap);
    }
    core::HermesRuntime::Options o;
    o.num_workers = workers;
    o.wst_memory = base();
    o.obs = &obs_;  // product default: observability on
    o.faults = spin_ns > 0 ? &spin_ : nullptr;
    runtime_.emplace(o);
    std::vector<uint64_t> cookies;
    for (WorkerId w = 0; w < workers; ++w) cookies.push_back(kCookieBase + w);
    att_ = runtime_->attach_port(cookies);

    listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    const int one = 1;
    setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in a{};
    a.sin_family = AF_INET;
    a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&a), sizeof(a)) != 0 ||
        listen(listen_fd_, 4096) != 0) {
      std::perror("live_loopback: bind/listen");
      std::_Exit(4);
    }
    socklen_t len = sizeof(a);
    getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&a), &len);
    port_ = ntohs(a.sin_port);

    std::vector<hermes::shm::FdChannel> parent_ends;
    for (WorkerId w = 0; w < workers; ++w) {
      auto [p, c] = hermes::shm::FdChannel::make_pair();
      const pid_t pid = fork();
      if (pid == 0) {
        prctl(PR_SET_PDEATHSIG, SIGKILL);
        set_lb_cpus();
        p.close();
        for (auto& pe : parent_ends) pe.close();
        close(listen_fd_);
        worker_main(w, std::move(c));
      }
      c.close();
      parent_ends.push_back(std::move(p));
      pids_.push_back(pid);
    }
    const pid_t acc = fork();
    if (acc == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      set_lb_cpus();
      acceptor_main(std::move(parent_ends));
    }
    pids_.push_back(acc);
    close(listen_fd_);
    listen_fd_ = -1;
    while (ctl_->ready.load() < workers + 1) usleep(200);
  }

  ~LiveLb() { stop(); }
  LiveLb(const LiveLb&) = delete;
  LiveLb& operator=(const LiveLb&) = delete;

  void stop() {
    if (pids_.empty()) return;
    ctl_->stop.store(1);
    for (pid_t p : pids_) {
      int status = 0;
      // Children poll the stop flag every few ms; reap them all.
      for (int i = 0; i < 2000; ++i) {
        if (waitpid(p, &status, WNOHANG) == p) break;
        if (i == 1999) {
          kill(p, SIGKILL);
          waitpid(p, &status, 0);
        }
        usleep(1000);
      }
    }
    pids_.clear();
  }

  uint16_t port() const { return port_; }
  uint32_t workers() const { return layout_.workers; }
  Control& ctl() { return *ctl_; }
  // Slot 0 is the acceptor, 1 + w worker w.
  ProcStats& stats(uint32_t i) {
    return reinterpret_cast<ProcStats*>(base() + layout_.stats_off)[i];
  }
  TraceSink* sink(uint32_t i) {
    return reinterpret_cast<TraceSink*>(base() + layout_.sink_off +
                                        layout_.sink_bytes * i);
  }
  uint64_t lb_cpu_ns() {
    uint64_t s = 0;
    for (uint32_t i = 0; i <= layout_.workers; ++i) s += stats(i).cpu_ns.load();
    return s;
  }

 private:
  char* base() { return static_cast<char*>(region_.data()); }

  [[noreturn]] void acceptor_main(std::vector<hermes::shm::FdChannel> chans) {
    ProcStats& st = stats(0);
    Tracer tr_on(sink(0)), tr_off;
    auto& rt = *runtime_;
    const int timeout_ms =
        static_cast<int>(rt.config().epoll_wait_timeout.ns() / 1'000'000);
    publish_cpu(st);
    ctl_->ready.fetch_add(1);
    pollfd pfd{listen_fd_, POLLIN, 0};
    while (ctl_->stop.load(std::memory_order_relaxed) == 0) {
      publish_cpu(st);
      if (poll(&pfd, 1, timeout_ms) <= 0) continue;
      for (;;) {
        sockaddr_in peer{};
        socklen_t plen = sizeof(peer);
        const int fd = accept4(listen_fd_, reinterpret_cast<sockaddr*>(&peer),
                               &plen, SOCK_NONBLOCK);
        if (fd < 0) break;
        Tracer& tr = ctl_->trace.load(std::memory_order_relaxed) ? tr_on : tr_off;
        st.conns.fetch_add(1, std::memory_order_relaxed);
        const uint64_t cport = ntohs(peer.sin_port);
        // Mirror the userspace-published bitmap into M_sel, then run the
        // verified program on the connection's real 4-tuple hash.
        rt.sel_map().store_u64(0, ctl_->bitmap.load(std::memory_order_acquire));
        hermes::netsim::FourTuple t;
        t.saddr = ntohl(peer.sin_addr.s_addr);
        t.daddr = 0x7f000001;
        t.sport = static_cast<uint16_t>(cport);
        t.dport = port_;
        hermes::bpf::ReuseportCtx ctx;
        ctx.hash = hermes::netsim::skb_hash(t);
        hermes::bpf::Vm::RunResult res;
        {
          Tracer::Scope s(tr, kBpfRun, 0, cport);
          res = rt.vm().run(*att_.program, ctx);
        }
        st.vm_runs.fetch_add(1, std::memory_order_relaxed);
        st.tier_runs[static_cast<int>(res.tier) & 3].fetch_add(
            1, std::memory_order_relaxed);
        WorkerId target = layout_.workers;
        if (res.ret == hermes::bpf::kRetUseSelection && ctx.selection_made) {
          target = static_cast<WorkerId>(ctx.selected_socket - kCookieBase);
        }
        if (target >= layout_.workers) {
          st.fallbacks.fetch_add(1, std::memory_order_relaxed);
          target = hermes::netsim::reciprocal_scale(ctx.hash, layout_.workers);
        }
        {
          Tracer::Scope s(tr, kShmHandoff, 0, cport);
          chans[target].send_fd(fd);
        }
        close(fd);
      }
    }
    publish_cpu(st);
    std::_Exit(0);
  }

  [[noreturn]] void worker_main(WorkerId id, hermes::shm::FdChannel chan) {
    ProcStats& st = stats(1 + id);
    Tracer tr_on(sink(1 + id)), tr_off;
    auto& rt = *runtime_;
    core::EventLoopHooks hooks = rt.hooks_for(id);
    const int ep = epoll_create1(0);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = chan.raw_fd();
    epoll_ctl(ep, EPOLL_CTL_ADD, chan.raw_fd(), &ev);
    struct Live {
      std::unique_ptr<hermes::http::ConnState> cs;
      uint64_t cport = 0;
    };
    std::vector<Live> conns(1024);
    const int timeout_ms =
        static_cast<int>(rt.config().epoll_wait_timeout.ns() / 1'000'000);
    char buf[4096];
    epoll_event events[64];
    publish_cpu(st);
    ctl_->ready.fetch_add(1);

    auto close_conn = [&](Tracer& tr, int fd) {
      epoll_ctl(ep, EPOLL_CTL_DEL, fd, nullptr);
      close(fd);
      conns[static_cast<size_t>(fd)].cs.reset();
      Tracer::Scope s(tr, kCoreHooks);
      hooks.on_conn_close();
      st.hook_calls.fetch_add(1, std::memory_order_relaxed);
    };

    while (ctl_->stop.load(std::memory_order_relaxed) == 0) {
      Tracer& tr = ctl_->trace.load(std::memory_order_relaxed) ? tr_on : tr_off;
      {
        Tracer::Scope s(tr, kCoreHooks);
        hooks.on_loop_enter(now_sim());
      }
      const int n = epoll_wait(ep, events, 64, timeout_ms);
      {
        Tracer::Scope s(tr, kCoreHooks);
        hooks.on_events_returned(n);
      }
      st.hook_calls.fetch_add(n > 0 ? 2 : 1, std::memory_order_relaxed);
      for (int i = 0; i < n; ++i) {
        const int fd = events[i].data.fd;
        if (fd == chan.raw_fd()) {
          std::optional<std::pair<int, unsigned char>> got;
          {
            Tracer::Scope s(tr, kShmRecv);
            got = chan.recv_fd();
          }
          if (!got) std::_Exit(0);  // acceptor gone
          const int cfd = got->first;
          if (static_cast<size_t>(cfd) >= conns.size()) {
            conns.resize(static_cast<size_t>(cfd) * 2);
          }
          sockaddr_in peer{};
          socklen_t plen = sizeof(peer);
          getpeername(cfd, reinterpret_cast<sockaddr*>(&peer), &plen);
          conns[static_cast<size_t>(cfd)] = Live{
              std::make_unique<hermes::http::ConnState>(), ntohs(peer.sin_port)};
          epoll_event cev{};
          cev.events = EPOLLIN;
          cev.data.fd = cfd;
          epoll_ctl(ep, EPOLL_CTL_ADD, cfd, &cev);
          st.conns.fetch_add(1, std::memory_order_relaxed);
          Tracer::Scope s(tr, kCoreHooks);
          hooks.on_conn_open();
          st.hook_calls.fetch_add(1, std::memory_order_relaxed);
        } else {
          Live& lc = conns[static_cast<size_t>(fd)];
          const ssize_t r = read(fd, buf, sizeof(buf));
          if (r < 0 && errno == EAGAIN) {
            // Spurious readiness; nothing to do for this event.
          } else if (r <= 0 || !lc.cs) {
            close_conn(tr, fd);
          } else {
            std::optional<hermes::http::ConnState::Ready> ready;
            {
              Tracer::Scope s(tr, kHttpParse, 0, lc.cport);
              lc.cs->on_client_data(std::string_view{buf, static_cast<size_t>(r)});
              ready = lc.cs->pop_ready();
            }
            if (lc.cs->failed()) {
              st.bad.fetch_add(1, std::memory_order_relaxed);
              close_conn(tr, fd);
            } else if (ready) {
              const std::string_view path = ready->request.path;
              uint64_t req_id = 0;
              if (path.rfind("/r/", 0) == 0) {
                req_id = std::strtoull(std::string(path.substr(3)).c_str(), nullptr, 10);
              } else {
                st.bad.fetch_add(1, std::memory_order_relaxed);
              }
              Tracer::Scope s(tr, kHttpEgress, req_id, lc.cport);
              hermes::http::Response resp;
              resp.set_body("ok " + std::to_string(req_id) + "\n");
              resp.add_header("X-Worker", std::to_string(id));
              const hermes::netsim::IoChain encoded =
                  hermes::http::ConnState::encode(resp);
              const hermes::netsim::IoChain out = lc.cs->egress(encoded);
              iovec iov[16];
              int k = 0;
              for (const auto& sl : out.slices()) {
                if (k == 16) break;
                const std::string_view v = sl.view();
                iov[k].iov_base = const_cast<char*>(v.data());
                iov[k].iov_len = v.size();
                ++k;
              }
              (void)!writev(fd, iov, k);
              st.requests.fetch_add(1, std::memory_order_relaxed);
              // The client closes (with RST) once it has the response.
            }
          }
        }
        Tracer::Scope s(tr, kCoreHooks);
        hooks.on_event_processed();
        st.hook_calls.fetch_add(1, std::memory_order_relaxed);
      }
      core::ScheduleResult res;
      {
        Tracer::Scope s(tr, kCoreSched);
        res = rt.schedule_and_sync(id, now_sim());
      }
      st.sched_runs.fetch_add(1, std::memory_order_relaxed);
      st.sched_selected.fetch_add(res.selected, std::memory_order_relaxed);
      if (res.selected < rt.config().min_workers_for_dispatch) {
        st.low_survivor.fetch_add(1, std::memory_order_relaxed);
      }
      if (res.published) {
        st.sched_published.fetch_add(1, std::memory_order_relaxed);
        ctl_->bitmap.store(rt.kernel_bitmap(), std::memory_order_release);
      }
      publish_cpu(st);
    }
    publish_cpu(st);
    std::_Exit(0);
  }

  Layout layout_;
  hermes::shm::ShmRegion region_;
  SpinInjector spin_;
  hermes::obs::Observability obs_;
  std::optional<core::HermesRuntime> runtime_;
  core::PortAttachment att_;
  Control* ctl_ = nullptr;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::vector<pid_t> pids_;
};

// ---- generator ----------------------------------------------------------

struct GenResult {
  uint64_t attempted = 0, completed = 0, errors = 0, timeouts = 0, bad = 0;
  uint64_t cap_hits = 0;
  LatencyHist latency;       // due time to full response
  double latency_sum_ns = 0;
  LatencyHist late;          // due time to issue
  std::vector<uint64_t> per_worker;
  double wall_s = 0;
};

struct GenConn {
  int fd = -1;
  uint64_t id = 0;
  int64_t due = 0;
  bool sent = false;
  std::string in;
};

// Parses a complete response out of `in`; returns false while incomplete.
bool response_complete(const std::string& in) {
  const auto hdr_end = in.find("\r\n\r\n");
  if (hdr_end == std::string::npos) return false;
  size_t clen = 0;
  for (size_t p = 0; p < hdr_end;) {
    const size_t eol = in.find("\r\n", p);
    const std::string_view line(in.data() + p, eol - p);
    if (line.size() > 15 && strncasecmp(line.data(), "content-length:", 15) == 0) {
      clen = std::strtoull(std::string(line.substr(15)).c_str(), nullptr, 10);
    }
    p = eol + 2;
  }
  return in.size() >= hdr_end + 4 + clen;
}

// Open-loop Poisson arrivals for `seconds`; returns once every request has
// completed, failed or timed out.
GenResult generate(LiveLb& lb, hermes::sim::Rng& rng, double seconds,
                   Tracer& tr, uint64_t* next_id) {
  GenResult g;
  g.per_worker.assign(lb.workers(), 0);
  const size_t cap = static_cast<size_t>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
  const int ep = epoll_create1(0);
  std::vector<GenConn> slots(cap);
  size_t inflight = 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(lb.port());

  const int64_t start = mono_ns();
  const int64_t stop_at = start + static_cast<int64_t>(seconds * 1e9);
  int64_t next_due = start + static_cast<int64_t>(rng.exponential(1e9 / kRatePerSec));
  bool blocked = false;

  auto finish = [&](size_t i, bool ok, bool timeout) {
    GenConn& c = slots[i];
    const int64_t now = mono_ns();
    ++g.attempted;
    if (ok) {
      ++g.completed;
      g.latency.add(now - c.due);
      g.latency_sum_ns += static_cast<double>(now - c.due);
    } else if (timeout) {
      ++g.timeouts;
    } else {
      ++g.errors;
    }
    linger lg{1, 0};  // abort: no TIME_WAIT on either side of loopback
    setsockopt(c.fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
    epoll_ctl(ep, EPOLL_CTL_DEL, c.fd, nullptr);
    close(c.fd);
    c.fd = -1;
    c.in.clear();
    --inflight;
  };

  for (;;) {
    int64_t now = mono_ns();
    // Issue every arrival that is due, as capacity allows.
    while (next_due <= now && next_due < stop_at) {
      if (inflight >= cap) {
        if (!blocked) ++g.cap_hits;
        blocked = true;
        break;
      }
      blocked = false;
      size_t i = 0;
      while (slots[i].fd >= 0) ++i;
      GenConn& c = slots[i];
      c.id = (*next_id)++;
      c.due = next_due;
      c.sent = false;
      {
        Tracer::Scope s(tr, kGenIssue, c.id);
        c.fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
        const int rc = connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
        const int err = rc == 0 ? 0 : errno;
        epoll_event ev{};
        ev.events = EPOLLOUT;
        ev.data.u64 = i;
        epoll_ctl(ep, EPOLL_CTL_ADD, c.fd, &ev);
        ++inflight;
        if (err != 0 && err != EINPROGRESS) {
          finish(i, false, false);
        }
      }
      g.late.add(mono_ns() - c.due);
      next_due += static_cast<int64_t>(rng.exponential(1e9 / kRatePerSec));
      now = mono_ns();
    }
    if (next_due >= stop_at && inflight == 0) break;
    // The generator polls without sleeping: a sleeping client adds its own
    // wake-up latency to every request and would drift off its schedule.
    epoll_event events[64];
    const int n = epoll_wait(ep, events, 64, 0);
    for (int e = 0; e < n; ++e) {
      const size_t i = events[e].data.u64;
      GenConn& c = slots[i];
      if (c.fd < 0) continue;
      if (!c.sent) {
        int err = 0;
        socklen_t el = sizeof(err);
        getsockopt(c.fd, SOL_SOCKET, SO_ERROR, &err, &el);
        if (err != 0 || (events[e].events & (EPOLLERR | EPOLLHUP))) {
          finish(i, false, false);
          continue;
        }
        Tracer::Scope s(tr, kGenIssue, c.id);
        char req[96];
        const int len = std::snprintf(
            req, sizeof(req), "GET /r/%llu HTTP/1.1\r\nHost: bench\r\n\r\n",
            static_cast<unsigned long long>(c.id));
        if (write(c.fd, req, static_cast<size_t>(len)) != len) {
          finish(i, false, false);
          continue;
        }
        c.sent = true;
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.u64 = i;
        epoll_ctl(ep, EPOLL_CTL_MOD, c.fd, &ev);
        continue;
      }
      Tracer::Scope s(tr, kGenComplete, c.id);
      char buf[1024];
      const ssize_t r = read(c.fd, buf, sizeof(buf));
      if (r > 0) c.in.append(buf, static_cast<size_t>(r));
      if (r > 0 && !response_complete(c.in)) continue;
      if (r < 0 && errno == EAGAIN) continue;
      // Validate: 200, the expected body, and a live worker id.
      bool ok = false;
      if (r > 0) {
        const auto resp = hermes::http::parse_response(c.in);
        const std::string body = "ok " + std::to_string(c.id) + "\n";
        if (resp && resp->status == 200 && resp->body == body) {
          const auto w = resp->header("x-worker");
          const long wid = w ? std::strtol(std::string(*w).c_str(), nullptr, 10) : -1;
          if (wid >= 0 && static_cast<uint32_t>(wid) < lb.workers()) {
            ok = true;
            ++g.per_worker[static_cast<size_t>(wid)];
          }
        }
        if (!ok) ++g.bad;
      }
      finish(i, ok, false);
    }
    // Time out stuck requests.
    now = mono_ns();
    for (size_t i = 0; i < slots.size(); ++i) {
      if (slots[i].fd >= 0 && now - slots[i].due > kTimeoutNs) finish(i, false, true);
    }
  }
  g.wall_s = seconds;
  close(ep);
  return g;
}

struct Phase {
  GenResult gen;
  uint64_t warmup_failures = 0;
  uint64_t lb_cpu_ns = 0;
  std::vector<double> worker_cpu_ns;
};

Phase run_phase(LiveLb& lb, hermes::sim::Rng& rng, double seconds, Tracer& tr,
                uint64_t* next_id) {
  // An unmeasured warm-up, then the measured part with CPU sampled
  // around it.
  const GenResult warm = generate(lb, rng, kWarmupS, tr, next_id);
  Phase ph;
  ph.warmup_failures = warm.errors + warm.timeouts + warm.bad;
  const uint64_t c0 = lb.lb_cpu_ns();
  std::vector<uint64_t> w0;
  for (uint32_t w = 0; w < lb.workers(); ++w) w0.push_back(lb.stats(1 + w).cpu_ns.load());
  ph.gen = generate(lb, rng, seconds, tr, next_id);
  ph.lb_cpu_ns = lb.lb_cpu_ns() - c0;
  for (uint32_t w = 0; w < lb.workers(); ++w) {
    ph.worker_cpu_ns.push_back(
        static_cast<double>(lb.stats(1 + w).cpu_ns.load() - w0[w]));
  }
  return ph;
}

}  // namespace

void run_live_loopback(const Options& opt, Report& rep) {
  signal(SIGPIPE, SIG_IGN);
  set_generator_cpu();
  const KeepAwake awake;
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const uint32_t workers = static_cast<uint32_t>(std::max(2L, std::min(8L, nproc - 2)));
  rep.info["live_workers"] = std::to_string(workers);
  rep.info["live_rate_per_s"] = std::to_string(static_cast<int>(kRatePerSec));

  // Set-up: runtime construction, program verify/prove/plan, forks, and
  // every worker reporting ready. Repeated; the last instance is measured.
  std::vector<double> setups;
  std::unique_ptr<LiveLb> lb;
  for (int i = 0; i < kSetups; ++i) {
    lb.reset();
    const int64_t a = mono_ns();
    lb = std::make_unique<LiveLb>(workers, opt.plant_spin_ns);
    setups.push_back(static_cast<double>(mono_ns() - a) / 1e9);
  }
  rep.set("setup_s", median(setups));

  hermes::sim::Rng rng(opt.seed ^ 0x6c6976656c6f6f70ull);
  uint64_t next_id = 1;
  Tracer off;
  const double measure_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  const Phase ph = run_phase(*lb, rng, measure_s - kWarmupS, off, &next_id);
  Phase tph;
  uint64_t served_untraced = 0;
  for (uint32_t w = 0; w < workers; ++w) served_untraced += lb->stats(1 + w).requests.load();
  if (opt.trace) {
    lb->ctl().trace.store(1);
    OwnedSink gen_sink(kSpanCap);
    Tracer gtr(gen_sink.get());
    tph = run_phase(*lb, rng, opt.seconds / 2 - kWarmupS, gtr, &next_id);
    lb->ctl().trace.store(0);
    lb->stop();

    TraceSink agg;
    agg.reset(0);
    agg.merge_aggregates(*gen_sink.get());
    for (uint32_t i = 0; i <= workers; ++i) agg.merge_aggregates(*lb->sink(i));
    // Span aggregates cover the traced phase including its warm-up, so
    // per-request shares divide by every request that phase served.
    uint64_t served = 0;
    for (uint32_t w = 0; w < workers; ++w) served += lb->stats(1 + w).requests.load();
    const double per = static_cast<double>(std::max<uint64_t>(1, served - served_untraced));
    auto self = layer_self_ns(agg);
    rep.set("bpf.run_ns", mean_ns(agg, kBpfRun));
    rep.set("shm.handoff_ns", mean_ns(agg, kShmHandoff));
    rep.set("http.parse_ns", mean_ns(agg, kHttpParse));
    rep.set("http.egress_ns", mean_ns(agg, kHttpEgress));
    rep.set("core.hooks_ns", mean_ns(agg, kCoreHooks));
    rep.set("sched.ns_per_run", mean_ns(agg, kCoreSched));
    for (const char* l : {"gen", "sim", "core", "bpf", "http", "shm"}) {
      rep.set(std::string("self.") + l + "_ns_per_req", self[l] / per);
    }
    double span_ns = 0;
    for (uint32_t s : {kBpfRun, kShmHandoff, kShmRecv, kCoreHooks, kCoreSched,
                       kHttpParse, kHttpEgress}) {
      span_ns += static_cast<double>(agg.total_ns[s]);
    }
    const double lat_mean =
        tph.gen.latency_sum_ns /
        static_cast<double>(std::max<uint64_t>(1, tph.gen.completed));
    rep.set("live.unattributed_ns", lat_mean - span_ns / per);
    const double cpu_u = static_cast<double>(ph.lb_cpu_ns) /
                         static_cast<double>(std::max<uint64_t>(1, ph.gen.completed));
    const double cpu_t = static_cast<double>(tph.lb_cpu_ns) /
                         static_cast<double>(std::max<uint64_t>(1, tph.gen.completed));
    rep.set("trace.overhead_pct", 100.0 * (cpu_t - cpu_u) / cpu_u);
    if (!opt.trace_out.empty()) {
      if (std::FILE* f = std::fopen(opt.trace_out.c_str(), "w")) {
        dump_spans(f, "generator", *gen_sink.get());
        dump_spans(f, "acceptor", *lb->sink(0));
        for (uint32_t w = 0; w < workers; ++w) {
          const std::string name = "worker" + std::to_string(w);
          dump_spans(f, name.c_str(), *lb->sink(1 + w));
        }
        std::fclose(f);
      }
    }
  }
  lb->stop();

  // Counters over the whole run (both phases).
  ProcStats& acc = lb->stats(0);
  uint64_t served = 0, bad = 0, hooks = 0, runs = 0, published = 0,
           selected = 0, low = 0;
  for (uint32_t w = 0; w < workers; ++w) {
    ProcStats& s = lb->stats(1 + w);
    served += s.requests.load();
    bad += s.bad.load();
    hooks += s.hook_calls.load();
    runs += s.sched_runs.load();
    published += s.sched_published.load();
    selected += s.sched_selected.load();
    low += s.low_survivor.load();
  }
  const double per = static_cast<double>(std::max<uint64_t>(1, served));
  double tier_runs[4];
  for (int t = 0; t < 4; ++t) {
    tier_runs[t] = static_cast<double>(acc.tier_runs[t].load());
  }
  rep.info["bpf_tier"] = dominant_tier(tier_runs);

  // ---- end-to-end (untraced phase) ---------------------------------------
  const GenResult& g = ph.gen;
  rep.set("p50_ms", g.latency.quantile(0.50) / 1e6);
  rep.set("p99_ms", g.latency.quantile(0.99) / 1e6);
  rep.set("live_p50_us", g.latency.quantile(0.50) / 1e3);
  rep.set("live_p99_us", g.latency.quantile(0.99) / 1e3);
  rep.set("goodput_krps", static_cast<double>(g.completed) / g.wall_s / 1e3);
  const double cpu_us = static_cast<double>(ph.lb_cpu_ns) / 1e3 /
                        static_cast<double>(std::max<uint64_t>(1, g.completed));
  rep.set("cpu_us_per_req", cpu_us);
  std::vector<double> util;
  for (double ns : ph.worker_cpu_ns) util.push_back(100.0 * ns / 1e9 / g.wall_s);
  rep.set("worker_cpu_sd_pp", stddev(util));
  const uint64_t fails = g.errors + g.timeouts + g.bad;
  rep.set("fail_pct", 100.0 * static_cast<double>(fails) /
                          static_cast<double>(std::max<uint64_t>(1, g.attempted)));
  rep.set("latency_samples", static_cast<double>(g.latency.count()));
  rep.attempted = g.attempted + tph.gen.attempted;
  rep.failed = fails + tph.gen.errors + tph.gen.timeouts + tph.gen.bad;
  const uint64_t warm_fails = ph.warmup_failures + tph.warmup_failures;

  // ---- per-layer counts ----------------------------------------------------
  const double late_p99_us = g.late.quantile(0.99) / 1e3;
  std::vector<double> per_worker;
  for (uint64_t c : g.per_worker) per_worker.push_back(static_cast<double>(c));
  rep.set("gen.late_p99_us", late_p99_us);
  rep.set("gen.inflight_cap_hits", static_cast<double>(g.cap_hits));
  rep.set("live.worker_conn_sd", stddev(per_worker));
  rep.set("netsim.syn_per_req", static_cast<double>(acc.conns.load()) / per);
  rep.set("bpf.dispatches_per_req", static_cast<double>(acc.vm_runs.load()) / per);
  rep.set("dispatch.fallback_pct",
          100.0 * static_cast<double>(acc.fallbacks.load()) /
              static_cast<double>(std::max<uint64_t>(1, acc.vm_runs.load())));
  rep.set("sched.runs_per_req", static_cast<double>(runs) / per);
  rep.set("sched.publish_pct", 100.0 * static_cast<double>(published) /
                                   static_cast<double>(std::max<uint64_t>(1, runs)));
  rep.set("sched.pass_ratio", static_cast<double>(selected) /
                                  static_cast<double>(std::max<uint64_t>(1, runs * workers)));
  rep.set("filter.low_survivor", static_cast<double>(low));
  rep.set("wst.updates_per_req", static_cast<double>(hooks) / per);

  // ---- correctness ----------------------------------------------------------
  // Every response of every phase, warm-ups included: 200, the expected
  // body, and the X-Worker of a live worker.
  rep.check("live_all_ok", rep.failed == 0 && warm_fails == 0 && bad == 0,
            std::to_string(rep.failed) + " failed requests, " +
                std::to_string(warm_fails) + " in warm-ups, " +
                std::to_string(bad) + " rejected by workers");
  rep.check("live_conservation", g.attempted == g.completed + fails &&
                                     tph.gen.attempted == tph.gen.completed +
                                         tph.gen.errors + tph.gen.timeouts +
                                         tph.gen.bad);
  rep.check("generator_on_schedule", late_p99_us <= kLateBoundUs,
            "gen.late_p99_us " + std::to_string(late_p99_us) + " > bound " +
                std::to_string(kLateBoundUs));
}

}  // namespace pb
