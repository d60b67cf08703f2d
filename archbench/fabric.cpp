#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "ledger.hpp"
#include "net/flowsim.hpp"
#include "net/maxmin.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"

/// \file fabric.cpp
/// fabric_flowbased and fabric_congestion_tree: FlowSim runs over a
/// fat-tree, one per flow set, per repetition.
///
/// fabric_flowbased (k=16, 65,536 flows, flow-based congestion control) is
/// heavy on events and route setup and light per solve, since few flows are
/// active at once; fabric_congestion_tree (k=8, four flow sets of 1,024
/// flows, no congestion control) spends most of its time in max-min solves.
/// An optimisation of the solver should move the second and leave the first
/// alone; one of route setup or the kernel, the other way round.
///
/// The congestion-tree arrivals are four times denser than the flow-based
/// ones (one per 250 us on average, not one per ms).  At one per ms the
/// fabric sits at the edge of congestion-tree collapse and the run time
/// varied 2x between seeds.  Saturated, one flow set still varies by about
/// 10% between seeds; four independent sets per repetition average it out.

namespace archbench {
namespace {

using namespace hpc;

struct FabricShape {
  int k;
  int flows;          ///< flows per flow set
  int sets;           ///< independent flow sets per repetition
  double spacing_ns;  ///< mean gap between flow arrivals
  net::CongestionControl cc;
};

FabricShape shape_of(const Options& opt, bool congestion_tree) {
  if (congestion_tree)
    return {opt.small ? 4 : 8, opt.small ? 128 : 1024, opt.small ? 2 : 4, 2.5e5,
            net::CongestionControl::kNone};
  return {opt.small ? 4 : 16, opt.small ? 512 : 65536, 1, 1e6,
          net::CongestionControl::kFlowBased};
}

// Digests over (finish_ns, fct_ns) of every flow of every set at the
// default seed.
constexpr std::uint64_t kPinFlowbased = 0x721f67f77e2df822ULL;
constexpr std::uint64_t kPinFlowbasedSmall = 0xbfff581da67fdcb4ULL;
constexpr std::uint64_t kPinCongestion = 0x6f58ef20f51fda52ULL;
constexpr std::uint64_t kPinCongestionSmall = 0x03c2c5e46f1302a0ULL;

/// The bench_perf_flowsim mix, the hostile one for the solver: a quarter of
/// the flows are incasts onto 8 receivers, the rest uniform pairs, one in
/// eight with weight 4, arrivals staggered so the active set churns on
/// every event.  A pair that draws src == dst redraws its destination, so
/// every flow crosses the fabric.  `tag` is the flow's index.
std::vector<net::FlowSpec> make_flows(const net::Network& net, const FabricShape& shape,
                                      std::uint64_t seed) {
  const int n = shape.flows;
  sim::Rng rng(seed);
  const std::vector<int>& hosts = net.endpoints();
  std::vector<int> receivers;
  for (int r = 0; r < 8; ++r) receivers.push_back(hosts[rng.index(hosts.size())]);
  std::vector<net::FlowSpec> flows;
  flows.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    net::FlowSpec f;
    f.src = hosts[rng.index(hosts.size())];
    f.dst = i % 4 == 0 ? receivers[static_cast<std::size_t>(i / 4) % receivers.size()]
                       : hosts[rng.index(hosts.size())];
    while (f.src == f.dst) f.dst = hosts[rng.index(hosts.size())];
    f.bytes = rng.uniform(1e6, 5e7);
    f.start = static_cast<sim::TimeNs>(rng.uniform(0.0, shape.spacing_ns * n));
    f.tag = i;
    f.weight = i % 8 == 0 ? 4.0 : 1.0;
    flows.push_back(f);
  }
  return flows;
}

/// One flow set and a simulator loaded with it.
struct FlowSet {
  std::uint64_t seed;
  std::vector<net::FlowSpec> flows;
  net::FlowSim sim;

  FlowSet(const net::Network& net, const FabricShape& shape, std::uint64_t set_seed)
      : seed(set_seed),
        flows(make_flows(net, shape, seed)),
        sim(net, shape.cc, net::Routing::kMinimal, seed) {
    for (const net::FlowSpec& f : flows) sim.add_flow(f);
  }
};

/// One repetition's inputs: the fabric with its route table and the flow
/// sets, each seeded by a named child of the run seed.  Pinned in place:
/// the simulators hold a reference to the fabric.
struct Setup {
  double topology_s = 0.0;  ///< host time of make_fat_tree (route table included)
  net::Network net;
  std::vector<std::unique_ptr<FlowSet>> sets;

  Setup(const FabricShape& shape, std::uint64_t seed)
      : net([&] {
          const Clock::time_point t0 = Clock::now();
          net::Network built = net::make_fat_tree(shape.k);
          topology_s = seconds_since(t0);
          return built;
        }()) {
    for (int i = 0; i < shape.sets; ++i)
      sets.push_back(std::make_unique<FlowSet>(
          net, shape, sim::Rng::child_seed(seed, "fabric/" + std::to_string(i))));
  }
  Setup(const Setup&) = delete;
  Setup& operator=(const Setup&) = delete;
};

/// Output check: every flow completes exactly once with a positive FCT.
/// Folds (finish_ns, fct_ns) into \p d in completion order.
bool check_summary(const net::FlowRunSummary& s, std::size_t flow_count, Digest& d) {
  std::vector<unsigned char> seen(flow_count, 0);
  bool ok = s.flows.size() == flow_count;
  for (const net::FlowResult& r : s.flows) {
    const auto tag = static_cast<std::size_t>(r.spec.tag);
    ok = ok && tag < flow_count && seen[tag]++ == 0 && r.fct_ns > 0.0;
    d.fold(r.finish_ns);
    d.fold(r.fct_ns);
  }
  return ok;
}

/// The route and solver layers replayed on one flow set, outside the run.
struct Replay {
  double append_s;    ///< Network::append_route for every flow
  std::size_t words;  ///< link ids appended
  double solve_s;     ///< one span-form maxmin_rates over every flow
  bool feasible;      ///< no link above capacity in that solve
};

Replay replay(const net::Network& net, const std::vector<net::FlowSpec>& flows) {
  const std::size_t n = flows.size();
  std::vector<int> pool;
  pool.reserve(n * 8);
  std::vector<net::PathSpan> spans(n);
  Replay r{};
  r.append_s = time_s([&] {
    for (std::size_t i = 0; i < n; ++i) {
      spans[i].offset = static_cast<std::uint32_t>(pool.size());
      net.append_route(flows[i].src, flows[i].dst, pool);
      spans[i].length = static_cast<std::uint32_t>(pool.size()) - spans[i].offset;
    }
  });
  r.words = pool.size();

  std::vector<double> capacity(net.link_count());
  for (std::size_t l = 0; l < capacity.size(); ++l)
    capacity[l] = net.link(static_cast<int>(l)).bandwidth_gbs;
  std::vector<double> weights(n);
  for (std::size_t i = 0; i < n; ++i) weights[i] = std::max(1e-6, flows[i].weight);
  net::MaxMinScratch scratch;
  std::vector<double> rates;
  r.solve_s = time_s([&] {
    net::maxmin_rates(spans.data(), n, pool.data(), capacity, weights.data(), nullptr,
                      scratch, rates);
  });

  std::vector<double> load(capacity.size(), 0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::uint32_t w = 0; w < spans[i].length; ++w)
      load[static_cast<std::size_t>(pool[spans[i].offset + w])] += rates[i];
  r.feasible = true;
  for (std::size_t l = 0; l < load.size(); ++l)
    r.feasible = r.feasible && load[l] <= capacity[l] * (1.0 + 1e-9);
  return r;
}

/// The traced composition of one repetition: for each flow set the
/// benchmark builds the Engine itself, with one kernel probe across all of
/// them and FlowSim's metric observer attached, then replays the route and
/// solver layers as separately timed regions.  Returns the output check.
std::pair<bool, std::uint64_t> traced_rep(Setup& in, Samples& out) {
  obs::MetricRegistry reg;
  HandlerProbe probe;
  bool ok = true;
  Digest d;
  double run_s = 0.0;
  double engine_s = 0.0;
  Replay layers{};
  for (const std::unique_ptr<FlowSet>& set : in.sets) {
    set->sim.set_observer(nullptr, &reg);
    net::FlowRunSummary summary;
    run_s += time_s([&] {
      sim::Engine engine(set->seed);
      engine.kernel().set_probe(&probe);
      engine.attach(set->sim);
      engine_s += time_s([&] { engine.run(); });
      engine.detach(set->sim);
      summary = set->sim.take_summary();
    });
    ok = check_summary(summary, set->flows.size(), d) && ok;
    const Replay r = replay(in.net, set->flows);
    layers.append_s += r.append_s;
    layers.words += r.words;
    layers.solve_s += r.solve_s;
    ok = ok && r.feasible;
  }

  const auto solves = static_cast<double>(reg.counter("net.flowsim.solver_invocations").value());
  const auto skips = static_cast<double>(reg.counter("net.flowsim.recompute_skips").value());
  add_engine_figures(out, probe, engine_s);
  out.add("net.topology.build_s", in.topology_s);
  out.add("net.route.append_s", layers.append_s);
  out.add("net.route.words", static_cast<double>(layers.words));
  out.add("net.maxmin.solve_s", layers.solve_s);
  out.add("net.flowsim.solver_invocations", solves);
  out.add("net.flowsim.recompute_skips", skips);
  out.add("net.flowsim.backpressure_events",
          static_cast<double>(reg.counter("net.flowsim.backpressure_events").value()));
  out.add("net.flowsim.skip_ratio", solves + skips > 0 ? skips / (solves + skips) : 0.0);
  out.add("trace.run_s", run_s);
  out.add("trace.coverage", engine_s / run_s);
  return {ok, d.value()};
}

}  // namespace

Report run_fabric(const Options& opt, bool congestion_tree) {
  const FabricShape shape = shape_of(opt, congestion_tree);
  Report report{RepChecker(congestion_tree
                               ? pin_for(opt, kPinCongestion, kPinCongestionSmall)
                               : pin_for(opt, kPinFlowbased, kPinFlowbasedSmall)),
                {}, 0};
  {
    // Warm-up, untimed: the traced composition runs first, so every
    // untraced repetition below is checked against it.
    Setup in(shape, opt.seed);
    Digest inputs;
    for (const std::unique_ptr<FlowSet>& set : in.sets)
      for (const net::FlowSpec& f : set->flows) {
        inputs.fold(f.src);
        inputs.fold(f.dst);
        inputs.fold(f.bytes);
        inputs.fold(f.start);
      }
    report.input_digest = inputs.value();
    Samples discard;
    const auto [ok, digest] = traced_rep(in, discard);
    report.checks.record(ok, digest);
  }
  repeat(opt, report.samples, [&](bool traced) {
    std::unique_ptr<Setup> in;
    const double setup_s = time_s([&] { in = std::make_unique<Setup>(shape, opt.seed); });
    if (traced) {
      const auto [ok, digest] = traced_rep(*in, report.samples);
      report.checks.record(ok, digest);
      return;
    }
    bool ok = true;
    Digest d;
    double run_s = 0.0;
    for (const std::unique_ptr<FlowSet>& set : in->sets) {
      net::FlowRunSummary summary;
      run_s += time_s([&] { summary = set->sim.run(); });
      ok = check_summary(summary, set->flows.size(), d) && ok;
    }
    report.checks.record(ok, d.value());
    report.samples.add("setup_s", setup_s);
    report.samples.add("run_s", run_s);
  });
  return report;
}

}  // namespace archbench
