#include "vuln/planner.hpp"

#include <algorithm>
#include <string>

#include "ft/framework.hpp"
#include "rtc/sizing.hpp"
#include "util/assert.hpp"

namespace sccft::vuln {
namespace {

rtc::TimeNs sizing_horizon(const ProcessSpec& spec) {
  return 100 * std::max({spec.producer.period, spec.stage.period,
                         spec.consumer.period}) +
         2 * std::max({spec.producer.jitter, spec.stage.jitter,
                       spec.consumer.jitter});
}

/// Eq. (3) capacity of the unprotected pipeline's FIFOs.
rtc::Tokens pipeline_capacity(const ProcessSpec& spec) {
  const rtc::PJDUpperCurve producer_upper(spec.producer);
  const rtc::PJDLowerCurve stage_lower(spec.stage);
  const auto capacity = rtc::min_fifo_capacity(producer_upper, stage_lower,
                                               sizing_horizon(spec));
  return std::max<rtc::Tokens>(capacity.value_or(1), 1);
}

/// Classic duplicated-pair sizing mapped into the N-ary report shape so one
/// ft::replication_cost covers both protected forms.
ft::NSizingReport size_pair(const ProcessSpec& spec) {
  ft::AppTimingSpec timing;
  timing.producer = spec.producer;
  timing.replica1_in = timing.replica2_in = spec.stage;
  timing.replica1_out = timing.replica2_out = spec.stage;
  timing.consumer = spec.consumer;
  const rtc::SizingReport s = timing.analyze();
  ft::NSizingReport n;
  n.replicator_capacity = {s.replicator_capacity1, s.replicator_capacity2};
  n.selector_capacity = {s.selector_capacity1, s.selector_capacity2};
  n.selector_initial = {s.selector_initial1, s.selector_initial2};
  n.divergence_threshold = s.selector_threshold;
  n.replicator_overflow_bound = s.replicator_overflow_bound;
  n.selector_latency_bound = s.selector_latency_bound;
  return n;
}

/// N-ary sizing with the payload vote's capacity floor (initial + D + 1), as
/// NReplicaHarness allocates and ft/fleet.cpp places.
ft::NSizingReport size_vote(const ProcessSpec& spec, int protection) {
  ft::NReplicaTimingModel model;
  model.producer_upper = rtc::make_curve<rtc::PJDUpperCurve>(spec.producer);
  model.producer_lower = rtc::make_curve<rtc::PJDLowerCurve>(spec.producer);
  model.consumer_upper = rtc::make_curve<rtc::PJDUpperCurve>(spec.consumer);
  model.consumer_lower = rtc::make_curve<rtc::PJDLowerCurve>(spec.consumer);
  for (int r = 0; r < protection; ++r) {
    model.in_upper.push_back(rtc::make_curve<rtc::PJDUpperCurve>(spec.stage));
    model.in_lower.push_back(rtc::make_curve<rtc::PJDLowerCurve>(spec.stage));
    model.out_upper.push_back(rtc::make_curve<rtc::PJDUpperCurve>(spec.stage));
    model.out_lower.push_back(rtc::make_curve<rtc::PJDLowerCurve>(spec.stage));
  }
  ft::NSizingReport sizing =
      ft::analyze_n_replica_network(model, sizing_horizon(spec));
  for (std::size_t i = 0; i < sizing.selector_capacity.size(); ++i) {
    sizing.selector_capacity[i] =
        std::max(sizing.selector_capacity[i],
                 sizing.selector_initial[i] + sizing.divergence_threshold + 1);
  }
  return sizing;
}

std::uint64_t bytes_per_second(const ProcessSpec& spec) {
  return static_cast<std::uint64_t>(spec.token_bytes) *
         static_cast<std::uint64_t>(
             1'000'000'000 / std::max<rtc::TimeNs>(spec.producer.period, 1));
}

/// v(index, protection) from the profile; nullopt when that level was never
/// measured for the process (the planner then refuses to upgrade into it).
std::optional<double> vulnerability_at(const VulnerabilityProfile& profile,
                                       std::size_t process, int protection) {
  const ProcessProfile& p = profile.processes[process];
  const bool measured =
      std::any_of(p.cells.begin(), p.cells.end(), [&](const CampaignCell& c) {
        return c.protection == protection && c.trials > 0;
      });
  if (!measured) return std::nullopt;
  return p.vulnerability(protection);
}

bool placement_fits(const Application& app, const std::vector<int>& protection,
                    int max_processes_per_core) {
  try {
    (void)scc::place_fleet(
        build_placement_request(app, protection, max_processes_per_core));
    return true;
  } catch (const scc::PlacementError&) {
    return false;
  }
}

}  // namespace

ft::ReplicationCost process_cost(const ProcessSpec& spec, int protection) {
  SCCFT_EXPECTS(protection >= 1 && protection <= 4);
  if (protection == 1) {
    return ft::unreplicated_cost(pipeline_capacity(spec), spec.token_bytes);
  }
  const ft::NSizingReport sizing =
      protection == 2 ? size_pair(spec) : size_vote(spec, protection);
  return ft::replication_cost(sizing, spec.token_bytes);
}

scc::PlacementRequest build_placement_request(const Application& app,
                                              const std::vector<int>& protection,
                                              int max_processes_per_core) {
  SCCFT_EXPECTS(protection.size() == app.processes.size());
  scc::PlacementRequest request;
  request.max_processes_per_core = max_processes_per_core;
  for (std::size_t i = 0; i < app.processes.size(); ++i) {
    const ProcessSpec& spec = app.processes[i];
    const int n = protection[i];
    SCCFT_EXPECTS(n >= 1 && n <= 4);
    const int base = static_cast<int>(request.processes.size());
    const std::uint64_t weight = bytes_per_second(spec);
    if (n >= 3) {
      const ft::NSizingReport sizing = size_vote(spec, n);
      request.processes.push_back({spec.name + ".producer", spec.index, -1, 0});
      for (int r = 0; r < n; ++r) {
        const auto ri = static_cast<std::size_t>(r);
        request.processes.push_back(
            {spec.name + ".r" + std::to_string(r + 1), spec.index, spec.index,
             static_cast<std::size_t>(sizing.replicator_capacity[ri] +
                                      sizing.selector_capacity[ri]) *
                 spec.token_bytes});
      }
      request.processes.push_back({spec.name + ".consumer", spec.index, -1, 0});
      const int consumer = base + 1 + n;
      for (int r = 0; r < n; ++r) {
        request.edges.push_back({base, base + 1 + r, weight});
        request.edges.push_back({base + 1 + r, consumer, weight});
      }
    } else if (n == 2) {
      const ft::NSizingReport sizing = size_pair(spec);
      request.processes.push_back({spec.name + ".producer", spec.index, -1, 0});
      request.processes.push_back(
          {spec.name + ".r1", spec.index, spec.index,
           static_cast<std::size_t>(sizing.replicator_capacity[0]) *
               spec.token_bytes});
      request.processes.push_back(
          {spec.name + ".r2", spec.index, spec.index,
           static_cast<std::size_t>(sizing.replicator_capacity[1]) *
               spec.token_bytes});
      request.processes.push_back(
          {spec.name + ".consumer", spec.index, -1,
           static_cast<std::size_t>(sizing.selector_capacity[0] +
                                    sizing.selector_capacity[1]) *
               spec.token_bytes});
      request.edges.push_back({base, base + 1, weight});
      request.edges.push_back({base, base + 2, weight});
      request.edges.push_back({base + 1, base + 3, weight});
      request.edges.push_back({base + 2, base + 3, weight});
    } else {
      const std::size_t fifo_bytes =
          static_cast<std::size_t>(pipeline_capacity(spec)) * spec.token_bytes;
      request.processes.push_back({spec.name + ".producer", spec.index, -1, 0});
      request.processes.push_back(
          {spec.name + ".stage", spec.index, -1, fifo_bytes});
      request.processes.push_back(
          {spec.name + ".consumer", spec.index, -1, fifo_bytes});
      request.edges.push_back({base, base + 1, weight});
      request.edges.push_back({base + 1, base + 2, weight});
    }
  }
  return request;
}

ProtectionPlan plan_protection(const Application& app,
                               const VulnerabilityProfile& profile,
                               const PlannerOptions& options) {
  SCCFT_EXPECTS(!app.processes.empty());
  SCCFT_EXPECTS(options.budget_extra_cores >= 0);
  SCCFT_EXPECTS(options.max_protection >= 1 && options.max_protection <= 4);
  if (profile.processes.size() != app.processes.size()) {
    throw util::ContractViolation(
        "vulnerability profile covers " +
        std::to_string(profile.processes.size()) + " processes, application has " +
        std::to_string(app.processes.size()));
  }

  ProtectionPlan plan;
  plan.budget_extra_cores = options.budget_extra_cores;
  plan.protection.assign(app.processes.size(), 1);

  int spent = 0;
  while (spent < options.budget_extra_cores) {
    // Candidate upgrades, best first: marginal escapes-per-trial removed by
    // one more replica. Strictly-greater ordering with index tiebreak keeps
    // the plan independent of evaluation order.
    struct Candidate {
      std::size_t process;
      double gain;
    };
    std::vector<Candidate> candidates;
    for (std::size_t i = 0; i < app.processes.size(); ++i) {
      const int current = plan.protection[i];
      if (current >= options.max_protection) continue;
      const auto now = vulnerability_at(profile, i, current);
      const auto next = vulnerability_at(profile, i, current + 1);
      if (!now || !next) continue;
      const double gain = *now - *next;
      if (gain > 0.0) candidates.push_back({i, gain});
    }
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const Candidate& a, const Candidate& b) {
                       return a.gain > b.gain;
                     });
    bool upgraded = false;
    for (const Candidate& candidate : candidates) {
      std::vector<int> tentative = plan.protection;
      ++tentative[candidate.process];
      if (options.check_placement &&
          !placement_fits(app, tentative, options.max_processes_per_core)) {
        continue;
      }
      plan.protection = std::move(tentative);
      ++spent;
      upgraded = true;
      break;
    }
    if (!upgraded) break;
  }

  for (std::size_t i = 0; i < app.processes.size(); ++i) {
    const ft::ReplicationCost cost =
        process_cost(app.processes[i], plan.protection[i]);
    plan.total_cost.cores += cost.cores;
    plan.total_cost.mpb_bytes += cost.mpb_bytes;
    plan.total_cost.noc_links += cost.noc_links;
    plan.residual_vulnerability +=
        vulnerability_at(profile, i, plan.protection[i]).value_or(0.0);
  }
  return plan;
}

}  // namespace sccft::vuln
