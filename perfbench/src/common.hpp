// Shared plumbing of the benchmark driver: monotonic timestamps, sample
// statistics, the workload definitions and the one-line JSON result.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "datagen/generator.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// CLOCK_MONOTONIC in nanoseconds — the same clock Python's
/// time.monotonic_ns() reads, so run.py can hand over the spawn instant.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double ms_between(std::int64_t a_ns, std::int64_t b_ns) {
  return static_cast<double>(b_ns - a_ns) * 1e-6;
}

/// Linear-interpolated quantile (numpy's default), q in [0, 1]. Throws on
/// an empty sample, so a metric with no samples ends the run instead of
/// reading 0.
inline double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) throw std::runtime_error("quantile of an empty sample");
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

inline double median(std::vector<double> xs) {
  return quantile(std::move(xs), 0.5);
}

inline double sum(const std::vector<double>& xs) {
  double s = 0.0;
  for (const double x : xs) s += x;
  return s;
}

/// Peak resident set size of a process in MB (VmHWM of /proc/<pid>/status;
/// pid 0 = this process). 0 when unreadable.
inline double peak_rss_mb(long pid = 0) {
  const std::string path = pid == 0 ? "/proc/self/status"
                                    : "/proc/" + std::to_string(pid) +
                                          "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

/// One named workload: the shape of its generated stream. The serving
/// phase's shape is fixed in daemon_workload.cpp.
struct Workload {
  std::string name;
  unsigned scale_factor = 128;
  std::size_t change_sets = 700;  ///< the generated stream
  std::size_t elements_per_set = 9;
  double frac_removals = 0.0;
  /// Engine phase: the first engine_sets change sets, in whole rounds.
  std::size_t engine_sets = 700;
};

/// The workloads, by name; nullptr when unknown.
const Workload* find_workload(const std::string& name);

/// The generator parameters of a workload at a seed. The initial graph
/// depends only on (scale factor, seed), so grb_daemon --sf/--seed builds
/// the same one.
inline datagen::GeneratorParams dataset_params(const Workload& w,
                                               std::uint64_t seed) {
  datagen::GeneratorParams p = datagen::params_for_scale(w.scale_factor, seed);
  p.change_sets = w.change_sets;
  p.insert_elements = w.change_sets * w.elements_per_set;
  p.frac_removals = w.frac_removals;
  return p;
}

/// Metrics of one run, printed as the benchmark's result line.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, std::pair<double, std::string>> metrics;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void fail(const std::string& why) {
    correct = false;
    if (errors.size() < 20) errors.push_back(why);
  }
};

inline void print_result(const Result& r) {
  for (const std::string& e : r.errors) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", e.c_str());
  }
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : r.metrics) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(), vu.first,
                  vu.second.c_str());
    out += buf;
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
