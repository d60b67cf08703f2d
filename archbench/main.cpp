#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "ledger.hpp"

/// \file main.cpp
/// archbench: runs one workload of the Archipelago benchmark for a fixed
/// host-time budget and prints its metrics as one JSON object on the last
/// line of standard output.  Usage:
///
///   archbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
///             [--commit SHA] [--small] [--wrong-pin]
///
/// --trace 0 prints the end-to-end metrics (run_s, setup_s, peak_rss_mb);
/// --trace 1 prints the per-layer ledger.  Every repetition is checked;
/// `attempted`/`failed` count them.  The line before the result carries the
/// provenance and the sample counts.  Exit codes: 0 measured, 2 usage
/// error, 3 refused (not an optimised build), 4 the workload threw.

namespace {

constexpr std::string_view kWorkloads[] = {
    "fabric_flowbased", "fabric_congestion_tree", "whatif_coupled", "federation_cheapest"};

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"run_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

// A layer a workload does not run reports 0.
constexpr MetricSpec kLedger[] = {
    {"sim.engine.events", "count"},
    {"sim.engine.max_pending", "count"},
    {"sim.engine.handler_s", "s"},
    {"sim.engine.kernel_s", "s"},
    {"sim.engine.handler_us_p50", "us"},
    {"sim.engine.handler_us_p99", "us"},
    {"net.topology.build_s", "s"},
    {"net.route.append_s", "s"},
    {"net.route.words", "count"},
    {"net.maxmin.solve_s", "s"},
    {"net.flowsim.solver_invocations", "count"},
    {"net.flowsim.recompute_skips", "count"},
    {"net.flowsim.backpressure_events", "count"},
    {"net.flowsim.skip_ratio", "ratio"},
    {"core.build_s", "s"},
    {"core.prefix_s", "s"},
    {"core.branch_s", "s"},
    {"core.tasks_placed", "count"},
    {"snap.save_s", "s"},
    {"snap.restore_s", "s"},
    {"snap.blob_bytes", "bytes"},
    {"market.trades_matched", "count"},
    {"fed.submit_s", "s"},
    {"fed.jobs_completed", "count"},
    {"fed.jobs_routed_remote", "count"},
    {"trace.coverage", "ratio"},
    {"trace.overhead", "ratio"},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "archbench: %s\nusage: archbench --workload "
               "<fabric_flowbased|fabric_congestion_tree|whatif_coupled|federation_cheapest>"
               " [--seed N] [--seconds S] [--trace 0|1] [--commit SHA] [--small] [--wrong-pin]\n",
               why);
  return 2;
}

/// Peak resident memory of this process (VmHWM, which unlike ru_maxrss
/// does not carry over the parent's peak across exec), less the host-speed
/// probe's buffers, resident from start to exit and so exactly part of it.
/// 0 when /proc/self/status cannot be read.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::strtod(line + 6, nullptr);
  std::fclose(f);
  if (kib <= 0.0) return 0.0;
  return (kib - archbench::HostSpeedProbe::kBytes / 1024.0) / 1024.0;
}

/// JSON number with every digit a double carries.
std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string hex16(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string metric_json(const MetricSpec& m, double value) {
  return std::string("\"") + m.name + "\": {\"value\": " + num(value) + ", \"unit\": \"" +
         m.unit + "\"}";
}

}  // namespace

int main(int argc, char** argv) {
  archbench::Options opt;
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--small") {
      opt.small = true;
    } else if (arg == "--wrong-pin") {
      opt.wrong_pin = true;
    } else if (!has_value) {
      return usage("missing value or unknown flag");
    } else if (arg == "--workload") {
      opt.workload = argv[++i];
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      const std::string_view v = argv[++i];
      if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
      opt.trace = v == "1";
    } else if (arg == "--commit") {
      commit = argv[++i];
    } else {
      return usage("unknown flag");
    }
  }
  if (!(opt.seconds > 0.0 && opt.seconds <= 600.0)) return usage("--seconds must be in (0, 600]");
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads), opt.workload) == std::end(kWorkloads))
    return usage("unknown workload");

#ifndef NDEBUG
  std::fprintf(stderr, "archbench: refusing to record from a build with assertions on\n");
  return 3;
#endif
  if (std::strcmp(ARCHBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "archbench: refusing to record from a %s build; configure Release\n",
                 ARCHBENCH_BUILD_TYPE);
    return 3;
  }

  // The probe exists before any workload allocates; see peak_rss_mb().
  const int cpu = archbench::host_speed_probe().pin_fastest_cpu();
  archbench::Report report{archbench::RepChecker(std::nullopt), {}, 0};
  try {
    if (opt.workload == "fabric_flowbased")
      report = archbench::run_fabric(opt, /*congestion_tree=*/false);
    else if (opt.workload == "fabric_congestion_tree")
      report = archbench::run_fabric(opt, /*congestion_tree=*/true);
    else if (opt.workload == "whatif_coupled")
      report = archbench::run_whatif(opt);
    else
      report = archbench::run_federation(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "archbench: %s failed: %s\n", opt.workload.c_str(), e.what());
    return 4;
  }

  const double peak_mb = peak_rss_mb();
  if (peak_mb <= 0.0) {
    std::fprintf(stderr, "archbench: cannot read VmHWM from /proc/self/status\n");
    return 4;
  }
  const archbench::Samples& s = report.samples;
  const std::vector<double>& runs = s.of("run_s");
  const std::size_t n = runs.size();
  // run_s is the fastest repetition and setup_s the median one, each
  // rescaled to the reference host speed by the host-speed probe (fastest
  // and median probe time respectively); README.md, "Estimators", gives the
  // measurements behind this.  The raw figures, the median and the highest
  // percentile with at least ten samples beyond it go on the detail line.
  const auto fastest = [&s](std::string_view name) {
    const std::vector<double>& v = s.of(name);
    return *std::min_element(v.begin(), v.end());
  };
  const double ref = archbench::HostSpeedProbe::kReferenceS;
  const double run_s = fastest("run_s") * ref / fastest("probe_s");
  const double setup_s = s.median_of("setup_s") * ref / s.median_of("probe_s");
  const double tail_q = n >= 20 ? 1.0 - 10.0 / static_cast<double>(n) : 1.0;
  std::printf(
      "{\"archbench\": {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, \"small\": %d, "
      "\"provenance\": {\"compiler\": \"%s\", \"build_type\": \"%s\", \"nproc\": %u, "
      "\"cpu\": %d, "
      "\"commit\": \"%s\"}, \"run_s_samples\": %zu, \"run_s_raw_min\": %s, "
      "\"run_s_raw_median\": %s, \"run_s_raw_tail_quantile\": %s, \"run_s_raw_tail\": %s, "
      "\"setup_s_raw_median\": %s, \"probe_s_min\": %s, \"probe_s_median\": %s, "
      "\"input_digest\": \"%s\", \"output_digest\": \"%s\", \"pinned\": %s}}\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0,
      opt.small ? 1 : 0, ARCHBENCH_COMPILER, ARCHBENCH_BUILD_TYPE,
      std::thread::hardware_concurrency(), cpu, commit.c_str(), n, num(fastest("run_s")).c_str(),
      num(archbench::median(runs)).c_str(), num(tail_q).c_str(),
      num(archbench::quantile(runs, tail_q)).c_str(), num(s.median_of("setup_s")).c_str(),
      num(fastest("probe_s")).c_str(), num(s.median_of("probe_s")).c_str(),
      hex16(report.input_digest).c_str(), hex16(report.checks.first_digest()).c_str(),
      report.checks.pinned() ? "true" : "false");

  std::string metrics;
  const auto append = [&](const MetricSpec& m, double value) {
    if (!metrics.empty()) metrics += ", ";
    metrics += metric_json(m, value);
  };
  if (!opt.trace) {
    append(kEndToEnd[0], run_s);
    append(kEndToEnd[1], setup_s);
    append(kEndToEnd[2], peak_mb);
  } else {
    for (const MetricSpec& m : kLedger) {
      const std::string_view name = m.name;
      double value = 0.0;
      if (name == "trace.overhead")
        value = fastest("trace.run_s") / fastest("run_s") - 1.0;
      else if (s.has(name))
        value = s.median_of(name);
      append(m, value);
    }
  }
  const bool correct = report.checks.failed() == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.checks.attempted()),
              static_cast<unsigned long long>(report.checks.failed()), metrics.c_str());
  return 0;
}
