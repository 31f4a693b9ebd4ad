// bench_e2e entry point.
//
//   bench_e2e prepare --data DIR --seed N --images M [--record-images R]
//       Generates the seed's inputs and ingests them once (excluded from
//       every metric).
//   bench_e2e run --workload W --data DIR --seed N --seconds S
//       [--warmup S] [--setups K] [--trace 0|1] [--run-dir DIR]
//       [--trace-out FILE]
//       Runs one workload in this process and prints one JSON result line.
//
// A watchdog bounds every run: a consumer blocked on one request for 10 s,
// or a run past 130 s, prints each stream's delivered count and exits
// nonzero.
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>

#include "harness.h"

namespace {

using pcr::e2e::Board;
using pcr::e2e::NowNanos;

constexpr int64_t kRequestDeadlineNanos = 10'000'000'000;
/// Inside run.py's 150 s kill, so a stalled run still reports its counts.
constexpr int64_t kRunDeadlineNanos = 130'000'000'000;

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const pcr::e2e::Metrics& metrics) {
  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    if (!first) line += ", ";
    first = false;
    line += "\"" + name + "\": {\"value\": " + JsonNumber(metric.value) +
            ", \"unit\": \"" + metric.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

/// Exits the process when a consumer stalls or the run overstays. A stalled
/// consumer cannot be unblocked from outside, so the exit is immediate.
void Watchdog(const std::atomic<bool>* done, int64_t run_deadline) {
  while (!done->load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    const int64_t now = NowNanos();
    const auto stalled = Board().Stalled(now, kRequestDeadlineNanos);
    if (stalled.empty() && now < run_deadline) continue;
    std::fprintf(stderr,
                 "bench_e2e: %s; delivered batches per stream:\n%s",
                 stalled.empty() ? "whole-run deadline passed"
                                 : ("request unanswered for 10 s on " +
                                    stalled.front())
                                       .c_str(),
                 Board().Describe().c_str());
    PrintResult(false, 1, 1, {});
    std::fflush(stderr);
    std::_Exit(3);
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_e2e prepare --data DIR --seed N --images M "
               "[--record-images R]\n"
               "       bench_e2e run --workload W --data DIR --seed N "
               "--seconds S [--warmup S] [--setups K] [--trace 0|1] "
               "[--run-dir DIR] [--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return Usage();
    flags[argv[i] + 2] = argv[i + 1];
  }
  auto flag = [&](const char* name, const char* fallback) {
    const auto it = flags.find(name);
    return it == flags.end() ? std::string(fallback) : it->second;
  };
  if (flag("data", "").empty()) return Usage();
  pcr::e2e::SeedDir seed_dir{flag("data", "")};
  const uint64_t seed = std::strtoull(flag("seed", "1").c_str(), nullptr, 10);

  if (command == "prepare") {
    const int images = std::atoi(flag("images", "1024").c_str());
    const int per_record = std::atoi(flag("record-images", "64").c_str());
    if (images < 1 || per_record < 1) return Usage();
    const int threads =
        std::max(1, std::min(4, static_cast<int>(
                                    std::thread::hardware_concurrency())));
    pcr::Status status =
        pcr::e2e::Prepare(seed_dir, seed, images, per_record, threads);
    if (!status.ok()) {
      std::fprintf(stderr, "bench_e2e prepare: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    return 0;
  }
  if (command != "run") return Usage();

  pcr::e2e::RunConfig config;
  config.workload = flag("workload", "");
  config.seed_dir = seed_dir;
  config.seed = seed;
  config.window_seconds = std::atof(flag("seconds", "10").c_str());
  config.warmup_seconds = std::atof(flag("warmup", "3").c_str());
  config.setups = std::atoi(flag("setups", "5").c_str());
  config.traced = flag("trace", "0") == "1";
  config.run_dir = flag("run-dir", ".");
  config.trace_path = flag("trace-out", "");
  std::atomic<bool> done{false};
  std::thread watchdog(Watchdog, &done, NowNanos() + kRunDeadlineNanos);
  auto result = pcr::e2e::RunWorkload(config);
  done.store(true, std::memory_order_release);
  watchdog.join();
  if (!result.ok()) {
    std::fprintf(stderr, "bench_e2e %s: %s\n", config.workload.c_str(),
                 result.status().ToString().c_str());
    return 1;
  }
  const bool correct = result->failed == 0 && result->attempted > 0;
  PrintResult(correct, result->attempted, result->failed, result->metrics);
  return correct ? 0 : 1;
}
