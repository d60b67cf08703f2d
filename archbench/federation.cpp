#include <memory>
#include <string>
#include <vector>

#include "fed/federation.hpp"
#include "fed/site.hpp"
#include "ledger.hpp"
#include "obs/metrics.hpp"
#include "sched/workload.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"

/// \file federation.cpp
/// federation_cheapest: per repetition, eight independent FederationSim
/// runs over the three golden sites (campus, leadership, cloud) at the
/// kExchange stage with the kCheapest policy, 250 jobs each (2,000 in all).
/// Jobs arrive every 2 s on average, far faster than the sites drain them,
/// so the queues stay deep and per-decision queue scans in the
/// meta-scheduler dominate.  No network or snapshot work runs here, which
/// makes it the workload that must not move when those layers change.
///
/// Why eight small federations and not one of 2,000 jobs: the run time of
/// one federation follows its few largest jobs (work sizes are lognormal),
/// so it varied 3x between seeds at the golden 20 s interarrival and still
/// by 10-15% in overload.  Eight independent job streams per repetition
/// average that out.

namespace archbench {
namespace {

using namespace hpc;

constexpr int kFederations = 8;

// Digest over every placement of every federation, at the default seed.
constexpr std::uint64_t kPin = 0xbb2bf46906bf8d32ULL;
constexpr std::uint64_t kPinSmall = 0x183c72c2b1dfddefULL;

std::vector<fed::Site> golden_sites() {
  fed::Site campus = fed::make_onprem_site(0, "campus", 8, 4);
  fed::Site leadership = fed::make_supercomputer_site(1, "leadership", 64);
  leadership.admin_domain = 0;
  fed::Site cloud = fed::make_cloud_site(2, "cloud", 48);
  return {campus, leadership, cloud};
}

/// The job stream with its federation context: input data at site i%3,
/// submitted from home site (i*7)%3.
struct Submission {
  sched::Job job;
  int home_site;
};

std::vector<Submission> make_jobs(int count, std::uint64_t seed) {
  sched::WorkloadConfig cfg;
  cfg.jobs = count;
  cfg.mean_interarrival_s = 2.0;
  sim::Rng rng(seed);
  std::vector<Submission> out;
  for (sched::Job& job : sched::generate_workload(cfg, rng)) {
    const int i = static_cast<int>(out.size());
    job.data_site = i % 3;
    out.push_back({std::move(job), (i * 7) % 3});
  }
  return out;
}

/// One federation of the ensemble: its job stream and a simulator the
/// stream was submitted to.  Its seed is a named child of the run seed.
struct Federation {
  std::uint64_t seed;
  std::vector<Submission> jobs;
  fed::FederationSim sim;
  double submit_s = 0.0;  ///< host time of the submit calls alone

  Federation(int count, std::uint64_t run_seed, int index)
      : seed(sim::Rng::child_seed(run_seed, "federation/" + std::to_string(index))),
        jobs(make_jobs(count, seed)),
        sim(golden_sites(), [&] {
          fed::FederationConfig cfg;
          cfg.stage = fed::FederationStage::kExchange;
          cfg.policy = fed::MetaPolicy::kCheapest;
          cfg.seed = seed;
          return cfg;
        }()) {
    submit_s = time_s([&] {
      for (const Submission& s : jobs) sim.submit(s.job, s.home_site);
    });
  }
};

using Ensemble = std::vector<std::unique_ptr<Federation>>;

Ensemble make_ensemble(int jobs_each, std::uint64_t seed) {
  Ensemble out;
  for (int i = 0; i < kFederations; ++i)
    out.push_back(std::make_unique<Federation>(jobs_each, seed, i));
  return out;
}

/// Output check of one federation: every job completed, none dropped.
/// Folds the placements into \p d.
bool check_result(const fed::FederationResult& r, std::size_t count, Digest& d) {
  for (const fed::FedPlacement& p : r.placements) {
    d.fold(p.job_id);
    d.fold(p.site);
    d.fold(p.partition);
    d.fold(p.submitted);
    d.fold(p.data_ready);
    d.fold(p.start);
    d.fold(p.finish);
    d.fold(p.transfer_gb);
    d.fold(p.cost_usd);
  }
  d.fold(r.makespan);
  d.fold(r.total_cost_usd);
  return static_cast<std::size_t>(r.jobs_completed) == count && r.jobs_dropped == 0 &&
         r.placements.size() == count;
}

/// The traced composition: for each federation the benchmark builds its
/// own Engine, with one kernel probe across all of them and the
/// federations' metric observer attached.
std::pair<bool, std::uint64_t> traced_rep(Ensemble& fleet, Samples& out) {
  obs::MetricRegistry reg;
  HandlerProbe probe;
  bool ok = true;
  Digest d;
  double run_s = 0.0;
  double engine_s = 0.0;
  double submit_s = 0.0;
  double completed = 0.0;
  for (const std::unique_ptr<Federation>& f : fleet) {
    f->sim.set_observer(nullptr, &reg);
    fed::FederationResult result;
    run_s += time_s([&] {
      sim::Engine engine(f->seed);
      engine.kernel().set_probe(&probe);
      engine.attach(f->sim);
      engine_s += time_s([&] { engine.run(); });
      engine.detach(f->sim);
      result = f->sim.take_result();
    });
    ok = check_result(result, f->jobs.size(), d) && ok;
    submit_s += f->submit_s;
    completed += result.jobs_completed;
  }
  add_engine_figures(out, probe, engine_s);
  out.add("fed.submit_s", submit_s);
  out.add("fed.jobs_completed", completed);
  out.add("fed.jobs_routed_remote",
          static_cast<double>(reg.counter("fed.jobs_routed_remote").value()));
  out.add("trace.run_s", run_s);
  out.add("trace.coverage", engine_s / run_s);
  return {ok, d.value()};
}

}  // namespace

Report run_federation(const Options& opt) {
  const int jobs_each = opt.small ? 20 : 250;
  Report report{RepChecker(pin_for(opt, kPin, kPinSmall)), {}, 0};
  {
    // Warm-up, untimed: the traced composition runs first, so every
    // untraced repetition below is checked against it.
    Ensemble fleet = make_ensemble(jobs_each, opt.seed);
    Digest inputs;
    for (const std::unique_ptr<Federation>& f : fleet)
      for (const Submission& s : f->jobs) {
        inputs.fold(s.job.arrival);
        inputs.fold(s.job.nodes);
        inputs.fold(s.job.total_gflop);
        inputs.fold(s.job.dataset_gb);
      }
    report.input_digest = inputs.value();
    Samples discard;
    const auto [ok, digest] = traced_rep(fleet, discard);
    report.checks.record(ok, digest);
  }
  repeat(opt, report.samples, [&](bool traced) {
    Ensemble fleet;
    const double setup_s = time_s([&] { fleet = make_ensemble(jobs_each, opt.seed); });
    if (traced) {
      const auto [ok, digest] = traced_rep(fleet, report.samples);
      report.checks.record(ok, digest);
      return;
    }
    bool ok = true;
    Digest d;
    double run_s = 0.0;
    for (const std::unique_ptr<Federation>& f : fleet) {
      fed::FederationResult result;
      run_s += time_s([&] { result = f->sim.run(); });
      ok = check_result(result, f->jobs.size(), d) && ok;
    }
    report.checks.record(ok, d.value());
    report.samples.add("setup_s", setup_s);
    report.samples.add("run_s", run_s);
  });
  return report;
}

}  // namespace archbench
