// Machine-speed probe. The hosts this benchmark was tuned on slow down by
// up to 1.7x for seconds at a time: a fixed integer loop measured 33-37 ms
// in some windows and 55-62 ms in others, with the loop's thread CPU time
// slowing as much as its wall time, so no timing inside the program can
// tell the neighbours' load from its own. The probe thread times a fixed
// loop every 10 ms and marks quiet the 1-second windows where the loop ran
// within 20% of the run's fastest quarter of windows; a change set's time
// is then the least of its rounds timed in quiet windows. On a steady
// machine every window qualifies; the fastest quarter always does.
//
// The probe competes for a core with whatever runs beside it, so it is
// sound only where the program under test leaves cores idle: the engine
// phase (one thread on a 4-core host). A multi-threaded program that got
// burstier would slow the probe in exactly its busiest windows, and the
// filter would drop them; the serving phase therefore does not use it.
#pragma once

#include <cstdint>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

class SpeedProbe {
 public:
  /// Starts probing; windows are counted from now.
  SpeedProbe();
  SpeedProbe(const SpeedProbe&) = delete;
  SpeedProbe& operator=(const SpeedProbe&) = delete;

  /// Stops the probe thread and classifies the windows. Call once, after
  /// the last timed sample; quiet() is valid only afterwards.
  void stop();

  /// True when time t (steady clock, ns) fell in a quiet window, or in a
  /// window the probe could not classify.
  [[nodiscard]] bool quiet(std::int64_t t_ns) const;

 private:
  std::int64_t t0_;
  std::mutex mu_;  // guards samples_ while the thread runs
  std::vector<std::pair<std::int64_t, std::int64_t>> samples_;  // (t, dt)
  std::vector<bool> window_quiet_;
  std::jthread thread_;  // last: it uses every member above
};

}  // namespace perfbench
