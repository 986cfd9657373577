// Benchmark binary: runs one workload and prints the result as
// one JSON object on the last line of stdout; the human-readable report
// goes to stderr. Exits 1 when a self-check fails, 2 on bad arguments,
// 3 on a crash or when the run outlives its watchdog.
//
//   mrp_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--out-dir DIR]
#include <execinfo.h>
#include <sys/personality.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: mrp_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n",
               why);
  return 2;
}

// A crash prints a backtrace instead of a bare signal, and exits 3.
void OnFatalSignal(int sig) {
  void* frames[64];
  const int n = backtrace(frames, 64);
  std::fprintf(stderr, "fatal signal %d; backtrace:\n", sig);
  backtrace_symbols_fd(frames, n, 2);
  _exit(3);
}

// Ends a run that hangs (a lost wake-up, a stuck drain) well inside the
// caller's time limit, without printing a result.
void OnWatchdog(int) {
  static const char kMsg[] = "watchdog: run exceeded its time limit\n";
  [[maybe_unused]] ssize_t n = write(2, kMsg, sizeof kMsg - 1);
  _exit(3);
}

// Address-space randomisation moves the heap and stacks between runs,
// and with them cache-set conflicts: run-to-run throughput of one binary
// on one seed varied by a quarter with it on, a few percent with it off.
// Re-executes this binary once with randomisation disabled.
void DisableAslr(char** argv) {
  const int pers = personality(0xffffffff);
  if (pers == -1 || (pers & ADDR_NO_RANDOMIZE) != 0) return;
  if (personality(static_cast<unsigned long>(pers) | ADDR_NO_RANDOMIZE) == -1) return;
  execv("/proc/self/exe", argv);  // returns only on failure: run as is
}

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  DisableAslr(argv);
  perfbench::RunOptions o;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string v = argv[i + 1];
    if (flag == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::atof(v.c_str());
    } else if (flag == "--trace") {
      o.trace = v == "1";
    } else if (flag == "--out-dir") {
      o.out_dir = v;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  bool known = false;
  for (const auto& w : perfbench::WorkloadNames()) known |= w == o.workload;
  if (!have_workload || !known) return Usage("unknown or missing --workload");
  if (!(o.seconds > 0)) return Usage("--seconds must be positive");

  std::signal(SIGSEGV, OnFatalSignal);
  std::signal(SIGBUS, OnFatalSignal);
  std::signal(SIGABRT, OnFatalSignal);
  std::signal(SIGALRM, OnWatchdog);
  alarm(static_cast<unsigned>(std::min(170.0, 3 * o.seconds + 60)));
  perfbench::RunResult r = perfbench::RunWorkload(o);
  for (const auto& line : r.log) std::fprintf(stderr, "[%s] %s\n", o.workload.c_str(), line.c_str());
  for (const auto& f : r.failures) {
    std::fprintf(stderr, "[%s] SELF-CHECK FAILED: %s\n", o.workload.c_str(), f.c_str());
  }
  std::string metrics;
  for (const auto& m : r.metrics) {
    if (!std::isfinite(m.value)) {
      r.correct = false;
      std::fprintf(stderr, "[%s] non-finite metric %s\n", o.workload.c_str(), m.name.c_str());
      continue;
    }
    char buf[128];
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + Escape(m.name) + "\": {\"value\": " + buf + ", \"unit\": \"" +
               Escape(m.unit) + "\"}";
  }
  std::fflush(stderr);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
