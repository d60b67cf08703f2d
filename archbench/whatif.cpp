#include <memory>
#include <string>
#include <vector>

#include "campaign/warmstart.hpp"
#include "core/system.hpp"
#include "core/workflow.hpp"
#include "data/catalog.hpp"
#include "exec/policy.hpp"
#include "fed/site.hpp"
#include "ledger.hpp"
#include "market/agents.hpp"
#include "market/exchange.hpp"
#include "obs/metrics.hpp"
#include "sim/rng.hpp"
#include "snap/snapshot.hpp"

/// \file whatif.cpp
/// whatif_coupled: one warm run_whatif_campaign per repetition (16 shards,
/// branch point at 600 s simulated, 8 branches, SerialPolicy).  Coupled
/// core + net + market on one clock, with one snapshot save beside eight
/// restores.  Its WAN fabric is a three-site star, so it bypasses the
/// net-layer optimisations the fabric workloads measure.
///
/// run_whatif_campaign hides its steps, so the traced run rebuilds the same
/// campaign from public calls (System, Exchange, CoupledSession,
/// Snapshotter, snap::fork) with the same sites, workflow and market
/// roster, and times each step.  Its digests must equal the campaign's.

namespace archbench {
namespace {

using namespace hpc;

// campaign_digest at the default seed.
constexpr std::uint64_t kPin = 0x1c8cf0d212e42733ULL;
constexpr std::uint64_t kPinSmall = 0x843b1a27208f64edULL;

campaign::WhatIfOptions options_of(const Options& opt) {
  campaign::WhatIfOptions o;
  o.seed = opt.seed;
  o.shards = opt.small ? 4 : 16;
  o.branch_at = (opt.small ? 60 : 600) * sim::kSecond;
  for (int b = 0; b < (opt.small ? 2 : 8); ++b) o.branches.push_back(std::string("b").append(std::to_string(b)));
  return o;
}

// --- The campaign's session, rebuilt from public calls.  Each helper
// mirrors its namesake in src/campaign/warmstart.cpp; the traced run's
// digest check fails if they drift apart.

std::vector<fed::Site> make_sites() {
  std::vector<fed::Site> sites;
  sites.push_back(fed::make_onprem_site(0, "campus", 12, 4));
  sites.push_back(fed::make_supercomputer_site(1, "center", 48));
  sites.push_back(fed::make_cloud_site(2, "cloud", 48));
  for (fed::Site& site : sites) site.admin_domain = 0;
  return sites;
}

double unit_draw(std::uint64_t seed, const std::string& label) {
  return static_cast<double>(sim::Rng::child_seed(seed, label) >> 11) * 0x1.0p-53;
}

double workload_jitter(std::uint64_t seed, const std::string& label) {
  return 0.9 + 0.2 * unit_draw(seed, label);
}

core::Workflow make_workflow(core::System& system, int shards, std::uint64_t seed) {
  std::vector<int> shard_ds;
  for (int s = 0; s < shards; ++s)
    shard_ds.push_back(system.catalog().add(
        "shard-" + std::to_string(s),
        60.0 * workload_jitter(seed, "workload/shard-" + std::to_string(s)),
        /*home_site=*/0, /*admin_domain=*/0, data::Sensitivity::kInternal,
        "survey frames, shard " + std::to_string(s)));
  const int reference = system.catalog().add("reference-catalog", 40.0, 0, 0,
                                             data::Sensitivity::kPublic,
                                             "calibration reference");
  core::Workflow wf;
  std::vector<int> shard_tasks;
  for (int s = 0; s < shards; ++s) {
    core::Task analyze;
    analyze.name = "analyze-" + std::to_string(s);
    analyze.kind = core::TaskKind::kAnalyze;
    analyze.input_datasets = {shard_ds[static_cast<std::size_t>(s)], reference};
    analyze.output_gb = 8.0;
    analyze.job.nodes = 8;
    analyze.job.total_gflop = 3e5 * workload_jitter(seed, "workload/analyze-" + std::to_string(s));
    shard_tasks.push_back(wf.add(analyze));
  }
  core::Task train;
  train.name = "train-surrogate";
  train.kind = core::TaskKind::kTrain;
  train.deps = shard_tasks;
  train.input_tasks = shard_tasks;
  train.output_gb = 2.0;
  train.job.nodes = 16;
  train.job.total_gflop = 8e5 * workload_jitter(seed, "workload/train");
  const int t_train = wf.add(train);
  core::Task deploy;
  deploy.name = "deploy-inference";
  deploy.kind = core::TaskKind::kInfer;
  deploy.deps = {t_train};
  deploy.input_tasks = {t_train};
  deploy.job.nodes = 1;
  deploy.job.total_gflop = 5e2;
  wf.add(deploy);
  return wf;
}

constexpr std::uint64_t kMarketSeed = 2026;
constexpr sim::TimeNs kClearingPeriod = sim::kSecond / 2;

void populate_market(market::Exchange& exchange) {
  const auto draw = [](const std::string& label, double lo, double hi) {
    return lo + (hi - lo) * unit_draw(kMarketSeed, label);
  };
  for (int s = 0; s < 8; ++s)
    exchange.add_agent(std::make_unique<market::ProviderAgent>(
        "site-" + std::to_string(s), draw("market/site-" + std::to_string(s), 0.6, 1.4), 3.0));
  for (int u = 0; u < 12; ++u)
    exchange.add_agent(std::make_unique<market::ConsumerAgent>(
        "user-" + std::to_string(u), draw("market/user-" + std::to_string(u), 0.9, 2.4), 2.0));
  exchange.add_agent(std::make_unique<market::BrokerAgent>("broker"));
}

/// One live coupled session, composed as the campaign composes each of its
/// sessions.  \p metrics (optional) receives the core and market counters.
struct Session {
  core::System system;
  market::Exchange exchange;
  core::Workflow wf;
  std::unique_ptr<core::CoupledSession> live;

  Session(const campaign::WhatIfOptions& opt, obs::MetricRegistry* metrics)
      : system(make_sites(), opt.seed), exchange(kMarketSeed) {
    system.set_observer(nullptr, metrics);
    exchange.set_observer(nullptr, metrics);
    populate_market(exchange);
    exchange.set_cosim_clearing(kClearingPeriod,
                                static_cast<int>(opt.branch_at / kClearingPeriod) + 40);
    wf = make_workflow(system, opt.shards, opt.seed);
    core::CosimConfig cfg;
    cfg.seed = opt.seed;
    cfg.price_fn = [&ex = exchange] { return ex.last_price(); };
    cfg.extra = {&exchange};
    live = std::make_unique<core::CoupledSession>(system, wf,
                                                  core::PlacementPolicy::kGravityAware,
                                                  std::move(cfg));
  }
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
};

/// run_whatif_campaign's fold of the branch digests (its own FNV offset).
constexpr std::uint64_t kCampaignFoldOffset = 1469598103934665603ULL;

/// Output check of a campaign: every branch ran events, and the branch
/// point snapshot is the one \p snapshot_digest names (0: not yet known).
bool branches_ok(const campaign::WhatIfResult& r, std::size_t branches,
                 std::uint64_t snapshot_digest) {
  bool ok = r.branches.size() == branches &&
            (snapshot_digest == 0 || r.snapshot_digest == snapshot_digest);
  for (const campaign::BranchOutcome& b : r.branches) ok = ok && b.events > 0;
  return ok;
}

/// The traced rebuild of one warm campaign.  Returns the output check and
/// the campaign digest folded exactly as run_whatif_campaign folds it.
std::pair<bool, std::uint64_t> traced_rep(const campaign::WhatIfOptions& opt,
                                          std::uint64_t snapshot_digest, Samples& out) {
  obs::MetricRegistry reg;
  HandlerProbe probe;
  const snap::Snapshotter snapper;
  std::vector<double> build_s;
  std::vector<double> restore_s;
  std::vector<double> branch_s;
  double prefix_s = 0.0;
  double save_s = 0.0;
  std::string blob;
  Digest campaign(kCampaignFoldOffset);
  bool ok = true;

  const auto build = [&] {
    std::unique_ptr<Session> s;
    build_s.push_back(time_s([&] { s = std::make_unique<Session>(opt, &reg); }));
    s->live->engine().kernel().set_probe(&probe);
    return s;
  };
  const double run_s = time_s([&] {
    {
      const std::unique_ptr<Session> ref = build();
      prefix_s = time_s([&] { ref->live->run_until(opt.branch_at); });
      save_s = time_s([&] { blob = snapper.save(ref->live->engine()); });
    }
    for (const std::string& label : opt.branches) {
      const std::unique_ptr<Session> s = build();
      sim::Rng rng;
      restore_s.push_back(
          time_s([&] { rng = snap::fork(s->live->engine(), blob, label, snapper); }));
      core::CoupledResult done;
      branch_s.push_back(time_s([&] {
        // The campaign's divergence: one WAN transfer drawn from the branch stream.
        const int from = static_cast<int>(rng.index(3));
        const int to = (from + 1 + static_cast<int>(rng.index(2))) % 3;
        const double gb = rng.uniform(20.0, 80.0);
        s->live->inject_wan_flow(from, to, gb);
        done = s->live->finish();
      }));
      ok = ok && done.events_executed > 0;
      campaign.fold(done.engine_digest);
    }
  });
  ok = ok && (snapshot_digest == 0 || snap::blob_digest(blob) == snapshot_digest);

  double engine_s = prefix_s;
  double spans_s = prefix_s + save_s;
  for (const double s : branch_s) engine_s += s;
  for (const double s : build_s) spans_s += s;
  for (const double s : restore_s) spans_s += s;
  spans_s += engine_s - prefix_s;

  add_engine_figures(out, probe, engine_s);
  out.add("core.build_s", median(build_s));
  out.add("core.prefix_s", prefix_s);
  out.add("core.branch_s", median(branch_s));
  out.add("core.tasks_placed", static_cast<double>(reg.counter("core.tasks_placed").value()));
  out.add("snap.save_s", save_s);
  out.add("snap.restore_s", median(restore_s));
  out.add("snap.blob_bytes", static_cast<double>(blob.size()));
  out.add("market.trades_matched",
          static_cast<double>(reg.counter("market.trades_matched").value()));
  out.add("trace.run_s", run_s);
  out.add("trace.coverage", spans_s / run_s);
  return {ok, campaign.value()};
}

}  // namespace

Report run_whatif(const Options& opt) {
  const campaign::WhatIfOptions options = options_of(opt);
  exec::SerialPolicy serial;
  Report report{RepChecker(pin_for(opt, kPin, kPinSmall)), {}, 0};

  // Untimed, before the timed loop: a cold campaign (every branch re-runs
  // the prefix), whose digests the warm campaigns and the traced rebuilds
  // below must reproduce.
  campaign::WhatIfOptions cold = options;
  cold.warm_start = false;
  const campaign::WhatIfResult reference = run_whatif_campaign(cold, serial);
  const std::uint64_t snapshot_digest = reference.snapshot_digest;
  report.checks.record(branches_ok(reference, options.branches.size(), 0),
                       reference.campaign_digest);
  {
    Digest inputs;
    const Session s(options, nullptr);
    for (const core::Task& t : s.wf.tasks()) inputs.fold(t.job.total_gflop);
    report.input_digest = inputs.value();
    Samples discard;
    const auto [ok, digest] = traced_rep(options, snapshot_digest, discard);
    report.checks.record(ok, digest);
  }

  repeat(opt, report.samples, [&](bool traced) {
    // Set-up is the cost of composing one coupled session; the campaign
    // composes nine (the prefix session and one per branch).
    std::unique_ptr<Session> session;
    const double setup_s =
        time_s([&] { session = std::make_unique<Session>(options, nullptr); });
    session.reset();
    if (traced) {
      const auto [ok, digest] = traced_rep(options, snapshot_digest, report.samples);
      report.checks.record(ok, digest);
      return;
    }
    campaign::WhatIfResult result;
    const double run_s = time_s([&] { result = run_whatif_campaign(options, serial); });
    report.checks.record(branches_ok(result, options.branches.size(), snapshot_digest),
                         result.campaign_digest);
    report.samples.add("setup_s", setup_s);
    report.samples.add("run_s", run_s);
  });
  return report;
}

}  // namespace archbench
