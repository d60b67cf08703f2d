#pragma once

#include <bit>
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"

/// \file ledger.hpp
/// What every archbench workload shares: options, the repetition loop, host
/// timing, medians, the kernel handler probe, result digests and the
/// repetition checker.  Every time here is host time (steady_clock seconds),
/// never simulated time.

namespace archbench {

/// Seed whose outputs the workloads pin.  Other seeds are checked for
/// agreement between repetitions only.
inline constexpr std::uint64_t kDefaultSeed = 1;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;   ///< host time one invocation measures for
  bool trace = false;      ///< emit the per-layer ledger instead of end-to-end metrics
  bool small = false;      ///< reduced sizes, for the benchmark's own tests
  bool wrong_pin = false;  ///< corrupt the pin (tests that a mismatch is counted)
};

/// The digest a run must reproduce: \p full_pin or \p small_pin at the
/// default seed (flipped under --wrong-pin), nothing at any other seed.
[[nodiscard]] std::optional<std::uint64_t> pin_for(const Options& opt,
                                                   std::uint64_t full_pin,
                                                   std::uint64_t small_pin);

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Host seconds taken by one call of \p fn.
template <typename Fn>
double time_s(Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  return seconds_since(t0);
}

/// Linearly interpolated quantile \p q in [0, 1] of \p v (0 when empty).
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Per-repetition samples by metric name; a metric's value is
/// their median or minimum.
class Samples {
 public:
  void add(std::string_view name, double value) { by_name_[std::string(name)].push_back(value); }
  [[nodiscard]] double median_of(std::string_view name) const;
  [[nodiscard]] const std::vector<double>& of(std::string_view name) const;
  [[nodiscard]] bool has(std::string_view name) const { return by_name_.contains(name); }

 private:
  std::map<std::string, std::vector<double>, std::less<>> by_name_;
};

/// Host-speed probe: fixed kernels that share no code with the repository,
/// a random walk with updates over 16 MiB and a branchy hash loop over a
/// 64 KiB table.  The host this benchmark was built on slows down by up to
/// 40% for tens of seconds at a time; timing these kernels beside every
/// repetition measures that slowdown, so the end-to-end times can be
/// rescaled to a fixed reference speed (README.md, "Estimators").
class HostSpeedProbe {
 public:
  /// Probe time that defines the reference speed: about the fastest the
  /// kernels ran on the 4-core Xeon the benchmark was first recorded on.
  static constexpr double kReferenceS = 0.020;
  /// Resident bytes of the probe's buffers.
  static constexpr std::size_t kBytes = (std::size_t{1} << 24) + (std::size_t{1} << 16);

  /// Records the CPUs the process may run on.
  HostSpeedProbe();
  /// Host seconds one pass of both kernels takes now.
  double measure();
  /// Pins the process to the allowed CPU on which the probe runs fastest
  /// (best of five passes each), and returns that CPU (-1 when affinity
  /// cannot be set).  On a shared host the vCPUs differ in speed by up to
  /// 25% and the scheduler moves a thread between them; a fixed, fast CPU
  /// removes that source of spread.  main() calls it once, first.
  int pin_fastest_cpu();

 private:
  std::vector<std::uint32_t> walk_;   // 16 MiB
  std::vector<std::uint32_t> table_;  // 64 KiB
  std::uint64_t state_ = 1;
  std::vector<int> cpus_;  ///< CPUs the process may run on
};

/// The process's one probe.  main() creates it before any workload runs,
/// so its buffers are resident for the process's whole life and its peak
/// RSS includes exactly HostSpeedProbe::kBytes of probe.
HostSpeedProbe& host_speed_probe();

/// Calls rep(traced) until opt.seconds of host time have passed, and at
/// least kMinReps times per kind, timing the host-speed probe before each
/// repetition into \p samples as `probe_s`.  Without --trace every
/// repetition is untraced; with it they alternate untraced/traced, so the
/// tracing overhead compares runs made under the same machine conditions.
template <typename Fn>
void repeat(const Options& opt, Samples& samples, Fn&& rep) {
  constexpr int kMinReps = 3;
  const int min_total = opt.trace ? 2 * kMinReps : kMinReps;
  HostSpeedProbe& probe = host_speed_probe();
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < min_total || seconds_since(t0) < opt.seconds; ++i) {
    samples.add("probe_s", probe.measure());
    rep(opt.trace && i % 2 == 1);
  }
}

/// FNV-1a over 64-bit words, folded byte by byte (the repository's digest).
class Digest {
 public:
  static constexpr std::uint64_t kOffset = 14695981039346656037ULL;
  explicit Digest(std::uint64_t offset = kOffset) : h_(offset) {}
  void fold(std::uint64_t v) noexcept;
  void fold(std::int64_t v) noexcept { fold(static_cast<std::uint64_t>(v)); }
  void fold(int v) noexcept { fold(static_cast<std::int64_t>(v)); }
  void fold(double v) noexcept { fold(std::bit_cast<std::uint64_t>(v)); }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_;
};

/// Kernel probe that times every event handler on the host clock.  Passive:
/// it reads the clock and nothing else, so attaching it leaves every digest
/// unchanged.  One probe may observe several engines in turn.
class HandlerProbe final : public hpc::sim::SimProbe {
 public:
  void on_event(hpc::sim::TimeNs at, std::uint64_t seq, std::size_t pending) override;
  void on_event_done(hpc::sim::TimeNs at, std::uint64_t seq) override;
  void on_checkpoint(hpc::sim::TimeNs, std::uint64_t, std::uint64_t) override {}

  [[nodiscard]] std::uint64_t events() const noexcept { return durations_.size(); }
  [[nodiscard]] std::size_t max_pending() const noexcept { return max_pending_; }
  /// Host seconds spent inside handlers, summed over every event.
  [[nodiscard]] double handler_s() const noexcept { return handler_s_; }
  /// Quantile \p q of the per-event handler time, in microseconds.
  [[nodiscard]] double handler_us(double q) const;

 private:
  Clock::time_point started_{};
  std::size_t max_pending_ = 0;
  double handler_s_ = 0.0;
  std::vector<double> durations_;
};

/// Counts repetitions and failed ones.  A repetition fails when its own
/// output check fails, when its digest differs from the first recorded
/// repetition's, or from the pin when one applies.
class RepChecker {
 public:
  explicit RepChecker(std::optional<std::uint64_t> pin) : pin_(pin) {}
  void record(bool outputs_ok, std::uint64_t digest);
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] std::uint64_t first_digest() const noexcept { return first_.value_or(0); }
  [[nodiscard]] bool pinned() const noexcept { return pin_.has_value(); }

 private:
  std::optional<std::uint64_t> pin_;
  std::optional<std::uint64_t> first_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Adds the kernel probe's figures for one traced run: `sim.engine.*`,
/// with kernel time taken as \p engine_s (host time the engine was driven)
/// minus handler time.
void add_engine_figures(Samples& samples, const HandlerProbe& probe, double engine_s);

/// Everything one workload invocation measured.  `samples` holds the
/// end-to-end series (`run_s`, `setup_s`) from untraced repetitions and the
/// ledger series from traced ones, plus `trace.run_s`, the traced run time.
struct Report {
  RepChecker checks;
  Samples samples;
  std::uint64_t input_digest = 0;
};

// The four workloads.  `congestion_tree` selects fabric_congestion_tree
// over fabric_flowbased.
[[nodiscard]] Report run_fabric(const Options& opt, bool congestion_tree);
[[nodiscard]] Report run_federation(const Options& opt);
[[nodiscard]] Report run_whatif(const Options& opt);

}  // namespace archbench
