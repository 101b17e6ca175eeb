// perfbench: the repository benchmark binary. Runs one workload and prints
// a machine-fingerprint line and, last, the result line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (untraced run) or the per-layer metrics
// (traced run). Normally driven by perfbench/run.py, which builds it first.
//
// Usage: perfbench --workload serve_dense|cnn_lenet|train_logreg --seed N
//                  --seconds S --trace 0|1 [--spans PATH] [--commit ID]
//                  [--fail-group G]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "common/thread_pool.h"
#include "fhe/simd/simd.h"
#include "harness.h"

namespace {

using namespace perfbench;

std::string cpu_flags() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("flags", 0) != 0) continue;
    std::istringstream is(line.substr(line.find(':') + 1));
    std::string flag, out;
    while (is >> flag)
      if (flag == "avx2" || flag == "avx512f" || flag == "avx512ifma")
        out += (out.empty() ? "" : ",") + flag;
    return out;
  }
  return "";
}

/// Busy and stolen CPU jiffies of the whole machine, from /proc/stat.
struct CpuTimes {
  unsigned long long busy = 0, steal = 0;
};

CpuTimes cpu_times() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  unsigned long long user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0,
                     softirq = 0, steal = 0;
  f >> cpu >> user >> nice >> system >> idle >> iowait >> irq >> softirq >> steal;
  return {user + nice + system + irq + softirq, steal};
}

void print_metrics(const std::vector<Metric>& ms) {
  std::printf("\"metrics\": {");
  for (std::size_t i = 0; i < ms.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                ms[i].name.c_str(), ms[i].value, ms[i].unit.c_str());
  std::printf("}");
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload serve_dense|cnn_lenet|"
               "train_logreg --seed N --seconds S --trace 0|1 [--spans PATH] "
               "[--commit ID] [--fail-group G]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") o.workload = v;
    else if (a == "--seed") o.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (a == "--seconds") o.seconds = std::atof(v.c_str());
    else if (a == "--trace") o.trace = v == "1";
    else if (a == "--spans") o.spans_path = v;
    else if (a == "--commit") commit = v;
    else if (a == "--fail-group") o.fail_group = std::atoi(v.c_str());
    else return usage(("unknown option " + a).c_str());
  }

  // One lane: every unit runs on one thread, and serve_dense adds only its
  // load generator. On a shared host whose hypervisor steals CPU time, a
  // pool of several lanes stalls at each parallel_for barrier on whichever
  // lane is descheduled; probes with 20-50% steal read 2x apart across
  // runs at 3 lanes and within about 10% at one.
  const int nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  sp::ThreadPool::set_global_threads(1);

  // Share of CPU time the host took from this machine during the run: runs
  // with a large share measured a contended host, not the program.
  const CpuTimes cpu0 = cpu_times();
  Result r;
  try {
    if (o.workload == "serve_dense") r = run_serve_dense(o);
    else if (o.workload == "cnn_lenet") r = run_cnn_lenet(o);
    else if (o.workload == "train_logreg") r = run_train_logreg(o);
    else return usage(("unknown workload '" + o.workload + "'").c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", o.workload.c_str(), e.what());
    return 1;
  }
  const CpuTimes cpu1 = cpu_times();
  const unsigned long long stolen = cpu1.steal - cpu0.steal;
  const unsigned long long used = cpu1.busy - cpu0.busy + stolen;
  r.note("cpu_steal_pct", std::to_string(used ? 100.0 * static_cast<double>(stolen) / used : 0.0));

  std::printf("{\"fingerprint\": {\"commit\": \"%s\", \"cpu_flags\": \"%s\", \"nproc\": %d, "
              "\"build_type\": \"%s\", \"simd_tier\": \"%s\", \"pool_lanes\": %d, "
              "\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d",
              commit.c_str(), cpu_flags().c_str(), nproc, PERFBENCH_BUILD_TYPE,
              sp::fhe::simd::tier_name(sp::fhe::simd::active_tier()),
              sp::ThreadPool::global().threads(), o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), o.trace ? 1 : 0);
  for (const auto& kv : r.info) std::printf(", \"%s\": \"%s\"", kv.first.c_str(), kv.second.c_str());
  std::printf("}}\n");

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
              r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  print_metrics(o.trace ? r.per_layer : r.end_to_end);
  std::printf("}\n");
  return 0;
}
