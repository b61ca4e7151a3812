#include "speed_probe.hpp"

#include <chrono>
#include <string>

#include "common.hpp"

namespace perfbench {

namespace {

constexpr std::int64_t kWindowNs = 1'000'000'000;
constexpr auto kPeriod = std::chrono::milliseconds(10);
constexpr int kLoopIters = 20000;      // ~30 us on the tuning host
constexpr std::size_t kMinProbes = 5;  // per window, to classify it
constexpr double kSlack = 1.2;         // quiet: within 20% of the fast quarter

std::uint64_t fixed_loop(std::uint64_t x) {
  for (int i = 0; i < kLoopIters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

}  // namespace

SpeedProbe::SpeedProbe()
    : t0_(now_ns()), thread_([this](std::stop_token stop) {
        std::uint64_t x = 0x9e3779b97f4a7c15ULL;
        while (!stop.stop_requested()) {
          const std::int64_t t = now_ns();
          x = fixed_loop(x);
          const std::int64_t dt = now_ns() - t;
          {
            const std::lock_guard<std::mutex> lock(mu_);
            samples_.emplace_back(t, dt);
          }
          std::this_thread::sleep_for(kPeriod);
        }
        // Keeps the loop's result observable, so it is not optimised away.
        if (x == 0) std::fprintf(stderr, "perfbench: probe degenerate\n");
      }) {}

void SpeedProbe::stop() {
  thread_.request_stop();
  thread_.join();
  std::vector<std::vector<double>> per_window;
  for (const auto& [t, dt] : samples_) {
    const auto w = static_cast<std::size_t>((t - t0_) / kWindowNs);
    if (w >= per_window.size()) per_window.resize(w + 1);
    per_window[w].push_back(static_cast<double>(dt));
  }
  std::vector<double> medians;
  for (const auto& xs : per_window) {
    if (xs.size() >= kMinProbes) medians.push_back(median(xs));
  }
  const double fast = medians.empty() ? 0.0 : quantile(medians, 0.25);
  window_quiet_.clear();
  std::string trace;
  for (const auto& xs : per_window) {
    const bool quiet = medians.empty() || xs.size() < kMinProbes ||
                       median(xs) <= kSlack * fast;
    window_quiet_.push_back(quiet);
    trace += quiet ? '.' : 'x';
  }
  std::fprintf(stderr, "perfbench: probe windows (x = slow, fast quarter "
               "%.0f us): %s\n", fast * 1e-3, trace.c_str());
}

bool SpeedProbe::quiet(std::int64_t t_ns) const {
  if (t_ns < t0_) return true;
  const auto w = static_cast<std::size_t>((t_ns - t0_) / kWindowNs);
  return w >= window_quiet_.size() || window_quiet_[w];
}

}  // namespace perfbench
