// The end-to-end benchmark of the Bristle Blocks compiler.
//
//   perfbench --workload <full_build|batch_sweep|service_session|mask_import>
//             --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//
// Untraced (--trace 0), it runs the named workload and prints its
// end-to-end metrics. Traced (--trace 1), it runs all four workloads, a
// quarter of the time each, with every second op recorded, prints the
// per-layer metrics, and writes the spans to <out>/trace.json as Chrome
// trace-event JSON. The last line of standard output is always one JSON
// object: {"correct", "attempted", "failed", "metrics"}. attempted and
// failed count the named workload's ops.
#include "harness.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace perfbench;

struct Workload {
  const char* name;
  void (*run)(const RunConfig&, Report&);
};

// Traced runs go through them in this order: the ones that keep to one
// or two threads run before batch_sweep starts the shared thread pool,
// so the process never holds more threads than the host has cores.
constexpr Workload kWorkloads[] = {
    {"full_build", &runFullBuild},
    {"mask_import", &runMaskImport},
    {"service_session", &runServiceSession},
    {"batch_sweep", &runBatchSweep},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--out <dir>]\n",
               why);
  std::exit(2);
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

void printTable(const char* title, const std::vector<Metric>& ms) {
  std::printf("== %s ==\n", title);
  for (const Metric& m : ms) {
    std::printf("  %-40s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

// The gated end-to-end metrics. They count CPU time, not wall time: the
// host is a VM shared with other tenants, and the time the hypervisor
// steals from its vCPUs (up to 15% of all vCPU time, in bursts) lands in
// wall time only. Wall-time figures go to the table.
std::vector<Metric> endToEnd(const Report& r) {
  const double ops = static_cast<double>(r.opMs.size());
  std::vector<Metric> m;
  m.push_back({"setup_s", median(r.setupCpuSeconds), "s"});
  m.push_back({"cpu_ms_per_op", ops > 0 ? 1e3 * r.cpuSeconds / ops : 0, "ms"});
  m.push_back({"peak_rss_mb", peakRssMiB(), "MiB"});
  return m;
}

/// Wall-time figures: set-up, throughput and the latency percentiles
/// with enough samples beyond them to be a tail (p90 from 100 ops, p99
/// from 1000).
std::vector<Metric> wallTimes(const Report& r) {
  const double ops = static_cast<double>(r.opMs.size());
  std::vector<Metric> m;
  m.push_back({"setup_wall_s", median(r.setupWallSeconds), "s"});
  m.push_back({"throughput_ops_s", r.measuredSeconds > 0 ? ops / r.measuredSeconds : 0, "1/s"});
  m.push_back({"ops", ops, "count"});
  m.push_back({"latency_p50_ms", median(r.opMs), "ms"});
  if (r.opMs.size() >= 100) m.push_back({"latency_p90_ms", percentile(r.opMs, 0.90), "ms"});
  if (r.opMs.size() >= 1000) m.push_back({"latency_p99_ms", percentile(r.opMs, 0.99), "ms"});
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  RunConfig cfg;
  std::string out = ".";
  bool haveSeed = false, haveSeconds = false, haveTrace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      workload = val;
    } else if (key == "--seed") {
      cfg.seed = std::strtoull(val, nullptr, 10);
      haveSeed = true;
    } else if (key == "--seconds") {
      cfg.seconds = std::atof(val);
      haveSeconds = cfg.seconds > 0;
    } else if (key == "--trace") {
      cfg.trace = std::strcmp(val, "1") == 0;
      haveTrace = cfg.trace || std::strcmp(val, "0") == 0;
    } else if (key == "--out") {
      out = val;
    } else {
      usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 != 1) usage("arguments come in pairs");
  if (!haveSeed || !haveSeconds || !haveTrace) usage("--seed, --seconds and --trace are required");
  const Workload* chosen = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload == w.name) chosen = &w;
  }
  if (chosen == nullptr) usage(("unknown workload '" + workload + "'").c_str());
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());

  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;
  int maxThreads = 0;
  const auto collect = [&](const Workload& w, const Report& r) {
    correct = correct && r.correct;
    for (const std::string& e : r.errors) errors.push_back(std::string(w.name) + ": " + e);
    if (&w == chosen) {
      attempted = r.attempted;
      failed = r.failed;
    }
    maxThreads = std::max({maxThreads, r.threads, threadCount()});
  };

  if (!cfg.trace) {
    Report r;
    chosen->run(cfg, r);
    collect(*chosen, r);
    metrics = endToEnd(r);
    std::vector<Metric> table = metrics;
    const std::vector<Metric> wall = wallTimes(r);
    table.insert(table.end(), wall.begin(), wall.end());
    table.insert(table.end(), r.info.begin(), r.info.end());
    printTable(chosen->name, table);
  } else {
    std::string events = "{\"traceEvents\":[";
    RunConfig each = cfg;
    each.seconds = cfg.seconds / 4;
    int pid = 0;
    for (const Workload& w : kWorkloads) {
      Report r;
      w.run(each, r);
      collect(w, r);
      Tracer::get().appendChromeEvents(events, ++pid, w.name);
      Tracer::get().clear();
      std::vector<Metric> table = r.layers;
      for (const Metric& m : r.info) {
        if (m.name.rfind("trace.", 0) == 0) table.push_back(m);
      }
      printTable((std::string(w.name) + " (traced)").c_str(), table);
      metrics.insert(metrics.end(), r.layers.begin(), r.layers.end());
    }
    events += "\n]}\n";
    std::ofstream(out + "/trace.json") << events;
    std::printf("trace written to %s/trace.json\n", out.c_str());
  }
  std::printf("threads at most %d (cores %u)\n", maxThreads, cores);
  if (maxThreads > static_cast<int>(cores)) {
    correct = false;
    errors.push_back("the process held more threads than the host has cores");
  }
  for (const std::string& e : errors) std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());

  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + num(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
