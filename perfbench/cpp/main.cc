// hermes_perfbench: one run of one benchmark workload.
//
//   hermes_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--trace-out <file>] [--plant-spin-ns <ns>]
//
// Prints a human-readable report, then, as its last line, one JSON object
// with every metric the run computed, the correctness verdict, the request
// counts and the pinned configuration. perfbench/run.py builds this binary
// and turns that line into the benchmark's result.
#include <sys/utsname.h>
#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "bench.h"
#include "core/policy.h"

extern char** environ;

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

// The configuration being measured is the product default: refuse any
// HERMES_* override and any build that is not optimized or is sanitized.
std::string config_refusal() {
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "HERMES_", 7) == 0) {
      return std::string("environment override set: ") + *e;
    }
  }
#ifndef NDEBUG
  return "debug build (NDEBUG not defined)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitized build";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return "sanitized build";
#endif
#endif
#ifndef __OPTIMIZE__
  return "unoptimized build";
#endif
  return "";
}

int usage() {
  std::fprintf(stderr,
               "usage: hermes_perfbench --workload <short_conn|keepalive_l7|"
               "wedge_fleet|live_loopback> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <file>] [--plant-spin-ns <ns>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      opt.workload = v;
    } else if (k == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      opt.seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      opt.trace = std::strcmp(v, "0") != 0;
    } else if (k == "--trace-out") {
      opt.trace_out = v;
    } else if (k == "--plant-spin-ns") {
      opt.plant_spin_ns = std::strtoll(v, nullptr, 10);
    } else {
      return usage();
    }
  }
  if (opt.workload.empty() || !(opt.seconds > 0)) return usage();

  const std::string refusal = config_refusal();
  if (!refusal.empty()) {
    std::fprintf(stderr, "hermes_perfbench: refusing to run: %s\n",
                 refusal.c_str());
    return 3;
  }

  pb::Report rep;
  utsname u{};
  uname(&u);
  rep.info["kernel"] = std::string(u.sysname) + " " + u.release;
  rep.info["cpu_model"] = cpu_model();
  rep.info["nproc"] = std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  rep.info["policy"] = hermes::core::to_string(hermes::core::default_policy());

  if (opt.workload == "short_conn") {
    pb::run_short_conn(opt, rep);
  } else if (opt.workload == "keepalive_l7") {
    pb::run_keepalive_l7(opt, rep);
  } else if (opt.workload == "wedge_fleet") {
    pb::run_wedge_fleet(opt, rep);
  } else if (opt.workload == "live_loopback") {
    pb::run_live_loopback(opt, rep);
  } else {
    return usage();
  }
  rep.set("peak_rss_mb", pb::peak_rss_mb());
  for (const auto& [name, v] : rep.metrics) {
    rep.check("finite:" + name, std::isfinite(v));
  }
  rep.check("attempted>0", rep.attempted > 0);

  std::printf("\n== %s seed=%llu trace=%d ==\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0);
  for (const auto& [k, v] : rep.info) {
    std::printf("  info  %-26s %s\n", k.c_str(), v.c_str());
  }
  for (const auto& [k, v] : rep.metrics) {
    std::printf("  %-34s %.6g\n", k.c_str(), v);
  }
  std::printf("  checks %llu, failed %zu; attempted %llu, failed ops %llu\n",
              static_cast<unsigned long long>(rep.checks),
              rep.failed_checks.size(),
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed));

  std::string js = "{\"workload\":\"" + json_escape(opt.workload) + "\"";
  js += ",\"correct\":";
  js += rep.failed_checks.empty() ? "true" : "false";
  js += ",\"attempted\":" + std::to_string(rep.attempted);
  js += ",\"failed\":" + std::to_string(rep.failed);
  js += ",\"checks\":" + std::to_string(rep.checks);
  js += ",\"failed_checks\":[";
  for (size_t i = 0; i < rep.failed_checks.size(); ++i) {
    if (i) js += ",";
    js += "\"" + json_escape(rep.failed_checks[i]) + "\"";
  }
  js += "],\"info\":{";
  bool first = true;
  for (const auto& [k, v] : rep.info) {
    js += std::string(first ? "" : ",") + "\"" + json_escape(k) + "\":\"" +
          json_escape(v) + "\"";
    first = false;
  }
  js += "},\"metrics\":{";
  first = true;
  char buf[64];
  for (const auto& [k, v] : rep.metrics) {
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    js += std::string(first ? "" : ",") + "\"" + json_escape(k) + "\":" + buf;
    first = false;
  }
  js += "}}";
  std::printf("%s\n", js.c_str());
  return rep.failed_checks.empty() ? 0 : 1;
}
