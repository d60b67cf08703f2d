#include "ledger.hpp"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace archbench {

std::optional<std::uint64_t> pin_for(const Options& opt, std::uint64_t full_pin,
                                     std::uint64_t small_pin) {
  if (opt.seed != kDefaultSeed) return std::nullopt;
  const std::uint64_t pin = opt.small ? small_pin : full_pin;
  return opt.wrong_pin ? ~pin : pin;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double HostSpeedProbe::measure() {
  return time_s([&] {
    const std::size_t walk_mask = walk_.size() - 1;
    for (int i = 0; i < 1'000'000; ++i) {
      state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
      std::uint32_t& cell = walk_[(state_ >> 33) & walk_mask];
      cell = cell * 3 + static_cast<std::uint32_t>(state_ >> 7);
    }
    const std::size_t table_mask = table_.size() - 1;
    std::uint64_t h = state_;
    for (int i = 0; i < 1'500'000; ++i) {
      h ^= h >> 29;
      h *= 0xbf58476d1ce4e5b9ULL;
      std::uint32_t& cell = table_[h & table_mask];
      cell += static_cast<std::uint32_t>(h);
      if (cell & 1) h += cell;
    }
    state_ ^= h;
  });
}

HostSpeedProbe::HostSpeedProbe()
    : walk_(std::size_t{1} << 22, 1), table_(std::size_t{1} << 14, 1) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
}

int HostSpeedProbe::pin_fastest_cpu() {
  const auto pin = [](int cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof one, &one) == 0;
  };
  int best_cpu = -1;
  double best_s = 0.0;
  for (const int cpu : cpus_) {
    if (!pin(cpu)) continue;
    double fastest = measure();
    for (int i = 1; i < 5; ++i) fastest = std::min(fastest, measure());
    if (best_cpu < 0 || fastest < best_s) {
      best_cpu = cpu;
      best_s = fastest;
    }
  }
  return best_cpu >= 0 && pin(best_cpu) ? best_cpu : -1;
}

HostSpeedProbe& host_speed_probe() {
  static HostSpeedProbe probe;
  return probe;
}

void Digest::fold(std::uint64_t v) noexcept {
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  for (int byte = 0; byte < 8; ++byte) {
    h_ ^= (v >> (8 * byte)) & 0xffULL;
    h_ *= kPrime;
  }
}

void HandlerProbe::on_event(hpc::sim::TimeNs, std::uint64_t, std::size_t pending) {
  max_pending_ = std::max(max_pending_, pending);
  started_ = Clock::now();
}

void HandlerProbe::on_event_done(hpc::sim::TimeNs, std::uint64_t) {
  const double dt = seconds_since(started_);
  handler_s_ += dt;
  durations_.push_back(dt);
}

double HandlerProbe::handler_us(double q) const { return quantile(durations_, q) * 1e6; }

void add_engine_figures(Samples& samples, const HandlerProbe& probe, double engine_s) {
  samples.add("sim.engine.events", static_cast<double>(probe.events()));
  samples.add("sim.engine.max_pending", static_cast<double>(probe.max_pending()));
  samples.add("sim.engine.handler_s", probe.handler_s());
  samples.add("sim.engine.kernel_s", engine_s - probe.handler_s());
  samples.add("sim.engine.handler_us_p50", probe.handler_us(0.50));
  samples.add("sim.engine.handler_us_p99", probe.handler_us(0.99));
}

void RepChecker::record(bool outputs_ok, std::uint64_t digest) {
  ++attempted_;
  if (!first_) first_ = digest;
  const bool agrees = digest == *first_ && (!pin_ || digest == *pin_);
  if (!outputs_ok || !agrees) ++failed_;
}

double Samples::median_of(std::string_view name) const { return median(of(name)); }

const std::vector<double>& Samples::of(std::string_view name) const {
  const auto it = by_name_.find(name);
  if (it == by_name_.end())
    throw std::logic_error("archbench: no samples recorded for " + std::string(name));
  return it->second;
}

}  // namespace archbench
