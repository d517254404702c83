#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "apps/adpcm/app.hpp"
#include "apps/common/experiment.hpp"
#include "apps/h264/app.hpp"
#include "apps/mjpeg/app.hpp"
#include "ft/fleet.hpp"
#include "ft/framework.hpp"
#include "ft/nreplica.hpp"
#include "rtc/sizing.hpp"
#include "scc/placement.hpp"
#include "util/log.hpp"

namespace perfbench {

using namespace sccft;

namespace {

constexpr std::int64_t kMs = 1'000'000;

/// Names a failed unit on stderr.
void report_failure(const std::string& what) { std::fprintf(stderr, "%s\n", what.c_str()); }

/// Counts one unit's work into its record.
void add(UnitRecord& record, Count count, std::uint64_t value) {
  record.counts[static_cast<std::size_t>(count)] += value;
}

// ---------------------------------------------------------------------------
// app_campaign: Table 2/3-style ExperimentRunner::run over the three paper
// applications on the SCC platform model, with the online monitor attached.
// ---------------------------------------------------------------------------

constexpr int kApps = 3;
constexpr int kScenarios = 3;  // fault-free, silence, rate degradation
constexpr int kAppWarmupPerApp = 4;
constexpr std::uint64_t kAppRunPeriods = 200;

struct AppState {
  std::unique_ptr<apps::ExperimentRunner> runner;
  std::vector<std::uint32_t> reference;  ///< reference-network output stream
};

class AppCampaign final : public Workload {
 public:
  AppCampaign(const WorkloadConfig& config, SpanLog* setup_spans)
      : seed_(config.seed), timed_(config.units) {
    for (int a = 0; a < kApps; ++a) {
      // Input content is drawn from the run seed, so every seed encodes and
      // decodes different frames and samples.
      const std::uint64_t content = mix_seed(config.seed, 1'000'000 + static_cast<std::uint64_t>(a));
      AppState& app = apps_[static_cast<std::size_t>(a)];
      app.runner = std::make_unique<apps::ExperimentRunner>(
          a == 0 ? apps::adpcm::make_application(content)
                 : a == 1 ? apps::mjpeg::make_application(content)
                          : apps::h264::make_application(content));
      {
        const ScopedSpan span(setup_spans, kRtcSizing);
        const ft::AppTimingSpec& timing = app.runner->app().timing;
        const rtc::SizingReport sizing =
            rtc::analyze_duplicated_network(timing.to_model(), timing.default_horizon());
        if (sizing.replicator_overflow_bound <= 0 || sizing.selector_latency_bound <= 0) {
          throw std::runtime_error("app_campaign: degenerate design-time sizing");
        }
      }
      const ScopedSpan span(setup_spans, kPrepare);
      // Warming runs every transform the units use once: the reference
      // network (whose output is the stream every unit is checked against)
      // and the duplicated network's stage caches.
      apps::ExperimentOptions options = unit_options(0);
      options.seed = mix_seed(config.seed, 2'000'000 + static_cast<std::uint64_t>(a));
      options.duplicated = false;
      options.online_monitor = false;
      app.reference = app.runner->run(options).output_checksums;
      options.duplicated = true;
      options.online_monitor = true;
      (void)app.runner->run(options);
    }
    // Warm-up slice: every (app, scenario) pair once or more, on unit seeds
    // beyond the timed list.
    for (int i = 0; i < kApps * kAppWarmupPerApp; ++i) count_warmup(run(timed_ + i, nullptr));
  }

  int units() const override { return timed_; }
  UnitRecord run_unit(int index, SpanLog* spans) override { return run(index, spans); }

 private:
  apps::ExperimentOptions unit_options(int index) const {
    apps::ExperimentOptions options;
    options.seed = mix_seed(seed_, static_cast<std::uint64_t>(index));
    options.run_periods = kAppRunPeriods;
    options.use_platform = true;
    options.online_monitor = true;
    const int scenario = (index / kApps) % kScenarios;
    options.inject_fault = scenario != 0;
    options.fault_mode = scenario == 2 ? ft::FaultMode::kRateDegradation : ft::FaultMode::kSilence;
    options.faulty_replica = (index / (kApps * kScenarios)) % 2 == 0 ? ft::ReplicaIndex::kReplica1
                                                                     : ft::ReplicaIndex::kReplica2;
    return options;
  }

  UnitRecord run(int index, SpanLog* spans) {
    const util::ScopedLogCapture quiet;
    AppState& app = apps_[static_cast<std::size_t>(index % kApps)];
    const apps::ExperimentOptions options = unit_options(index);
    apps::ExperimentResult r;
    {
      const ScopedSpan span(spans, kRun);
      r = app.runner->run(options);
    }

    UnitRecord record;
    add(record, kEvents, r.events_processed);
    add(record, kTokensDelivered, r.consumer_tokens);
    add(record, kNocStalls, r.noc_contention_stalls);
    std::uint64_t peer_violations = 0;
    for (const auto& stream : r.online_streams) {
      add(record, kOnlineEvents, stream.events);
      add(record, kOnlineViolations, stream.upper_violations + stream.lower_violations);
      const bool injected = options.inject_fault &&
                            stream.replica == ft::index_of(options.faulty_replica);
      if (!injected) peer_violations += stream.upper_violations + stream.lower_violations;
    }

    // Theorem 2: the consumer sees the reference network's stream (common
    // prefix; the horizon may cut either run a few tokens short).
    const auto& out = r.output_checksums;
    const std::size_t common = std::min(out.size(), app.reference.size());
    bool ok = out.size() > 10 && out.size() + 3 >= app.reference.size() &&
              std::equal(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(common),
                         app.reference.begin());
    ok = ok && !r.false_positive && peer_violations == 0;
    if (options.inject_fault) {
      // The injected replica, and only it, is detected.
      ok = ok && r.any_detection && r.correct_replica && r.first_record &&
           r.first_record->replica == options.faulty_replica && r.first_latency;
      if (r.any_detection) add(record, kDetections, 1);
      if (r.first_latency) record.detect_latency_ns.push_back(*r.first_latency);
      // The Eq. (6)-(8) bound is derived for silence; a rate-degraded
      // replica may legitimately be caught later, so this is counted, not
      // checked.
      const rtc::TimeNs bound =
          std::min(r.sizing.replicator_overflow_bound, r.sizing.selector_latency_bound);
      if (r.first_latency && *r.first_latency > bound) add(record, kBoundMisses, 1);
    } else {
      ok = ok && !r.any_detection;
    }
    if (r.false_positive || (r.any_detection && !r.correct_replica)) {
      add(record, kFalseConvictions, 1);
    }
    record.ok = ok;
    if (!ok) {
      report_failure("perfbench: app_campaign unit " + std::to_string(index) + " (" +
                     app.runner->app().name + ", fault " +
                     (options.inject_fault ? std::to_string(static_cast<int>(options.fault_mode))
                                           : std::string("none")) +
                     ", seed " + std::to_string(options.seed) + ") failed its checks");
    }
    return record;
  }

  std::uint64_t seed_;
  int timed_;
  std::array<AppState, kApps> apps_;
};

// ---------------------------------------------------------------------------
// fleet_mesh: ft::run_fleet at 32 streams on the 48-core mesh, alternating
// the default supervised-pair fleet with a mixed N in {1,2,3} fleet.
// ---------------------------------------------------------------------------

constexpr int kFleetStreams = 32;
constexpr int kFleetDesigns = 16;  // even: default fleet, odd: mixed protection
constexpr std::int64_t kFleetRunLength = 120 * kMs;
constexpr std::int64_t kFleetFaultDuration = 30 * kMs;
/// Mixed fleets protect like Table 7's planner output: most streams bare,
/// a third duplicated, a few triplicated.
constexpr int kMixedCounts[3] = {16, 12, 4};

/// Design-time Eq. (3)-(8) sizing of every protected stream of a fleet.
void size_fleet(const std::vector<ft::FleetStreamSpec>& streams) {
  for (const ft::FleetStreamSpec& s : streams) {
    if (s.protection == 2) {
      ft::AppTimingSpec timing;
      timing.producer = s.producer;
      timing.replica1_in = timing.replica2_in = s.stage;
      timing.replica1_out = timing.replica2_out = s.stage;
      timing.consumer = s.consumer;
      const rtc::SizingReport sizing =
          rtc::analyze_duplicated_network(timing.to_model(), timing.default_horizon());
      if (sizing.replicator_overflow_bound <= 0) {
        throw std::runtime_error("fleet_mesh: degenerate duplicated-stream sizing");
      }
    } else if (s.protection >= 3) {
      ft::NReplicaTimingModel model;
      model.producer_upper = rtc::make_curve<rtc::PJDUpperCurve>(s.producer);
      model.producer_lower = rtc::make_curve<rtc::PJDLowerCurve>(s.producer);
      model.consumer_upper = rtc::make_curve<rtc::PJDUpperCurve>(s.consumer);
      model.consumer_lower = rtc::make_curve<rtc::PJDLowerCurve>(s.consumer);
      for (int r = 0; r < s.protection; ++r) {
        model.in_upper.push_back(rtc::make_curve<rtc::PJDUpperCurve>(s.stage));
        model.in_lower.push_back(rtc::make_curve<rtc::PJDLowerCurve>(s.stage));
        model.out_upper.push_back(rtc::make_curve<rtc::PJDUpperCurve>(s.stage));
        model.out_lower.push_back(rtc::make_curve<rtc::PJDLowerCurve>(s.stage));
      }
      const rtc::TimeNs horizon =
          100 * std::max({s.producer.period, s.stage.period, s.consumer.period}) +
          2 * std::max({s.producer.jitter, s.stage.jitter, s.consumer.jitter});
      const ft::NSizingReport sizing = ft::analyze_n_replica_network(model, horizon);
      if (sizing.replicator_overflow_bound <= 0) {
        throw std::runtime_error("fleet_mesh: degenerate N-replica sizing");
      }
    }
  }
}

class FleetMesh final : public Workload {
 public:
  FleetMesh(const WorkloadConfig& config, SpanLog* setup_spans)
      : seed_(config.seed), timed_(config.units) {
    for (int d = 0; d < kFleetDesigns; ++d) {
      designs_.push_back(design(d, setup_spans));
    }
    // Warm-up slice: one unit per design.
    for (int i = 0; i < kFleetDesigns; ++i) count_warmup(run(timed_ + i, nullptr));
  }

  int units() const override { return timed_; }
  UnitRecord run_unit(int index, SpanLog* spans) override { return run(index, spans); }

 private:
  /// Materializes, places and sizes fleet design `d`. A mixed fleet draws a
  /// seeded shuffle of the protection multiset and redraws until it places.
  ft::FleetSpec design(int d, SpanLog* spans) const {
    ft::FleetSpec spec;
    spec.streams = kFleetStreams;
    spec.shared_restart_budget = 2 * kFleetStreams;
    for (std::uint64_t attempt = 0;; ++attempt) {
      if (attempt == 64) throw std::runtime_error("fleet_mesh: no placeable fleet design");
      spec.seed = mix_seed(seed_, 3'000'000 + 100 * static_cast<std::uint64_t>(d) + attempt);
      if (d % 2 == 1) {
        spec.protection.clear();
        for (int level = 0; level < 3; ++level) {
          spec.protection.insert(spec.protection.end(), kMixedCounts[level], level + 1);
        }
        for (std::size_t k = spec.protection.size() - 1; k > 0; --k) {
          std::swap(spec.protection[k], spec.protection[mix_seed(spec.seed, k) % (k + 1)]);
        }
      }
      std::vector<ft::FleetStreamSpec> streams;
      {
        const ScopedSpan span(spans, kPrepare);
        streams = spec.materialize();
      }
      try {
        const ScopedSpan span(spans, kPrepare);
        (void)scc::place_fleet(ft::build_placement_request(spec, streams));
      } catch (const scc::PlacementError&) {
        continue;
      }
      const ScopedSpan span(spans, kRtcSizing);
      size_fleet(streams);
      return spec;
    }
  }

  UnitRecord run(int index, SpanLog* spans) {
    const util::ScopedLogCapture quiet;
    const ft::FleetSpec& spec = designs_[static_cast<std::size_t>(index % kFleetDesigns)];
    ft::FleetRunOptions options;
    options.run_length = kFleetRunLength;
    options.fault_at = 30 * kMs + static_cast<std::int64_t>(
                                      mix_seed(seed_, static_cast<std::uint64_t>(index)) %
                                      static_cast<std::uint64_t>(40 * kMs));
    options.fault_duration = kFleetFaultDuration;
    ft::FleetRunResult r;
    {
      const ScopedSpan span(spans, kRun);
      r = ft::run_fleet(spec, options);
    }

    UnitRecord record;
    record.ok = true;
    add(record, kEvents, r.events_processed);
    add(record, kNocStalls, r.noc_contention_stalls);
    for (const ft::FleetStreamOutcome& s : r.streams) {
      add(record, kTokensDelivered, s.tokens_consumed);
      add(record, kRestarts, static_cast<std::uint64_t>(s.restarts));
      add(record, kOnlineViolations, s.upper_violations + s.lower_violations);
      if (s.false_conviction) add(record, kFalseConvictions, 1);
      if (s.detected) add(record, kDetections, 1);
      if (s.detection_latency) {
        record.detect_latency_ns.push_back(*s.detection_latency);
        if (*s.detection_latency > s.detection_bound) add(record, kBoundMisses, 1);
      }
      // No false conviction, no sequence gap, every injected fault detected
      // within its Eq. (6)-(8) bound.
      const bool in_bound = s.detection_latency && *s.detection_latency <= s.detection_bound;
      if (s.false_conviction || s.sequence_gap || (s.critical && !in_bound)) {
        record.ok = false;
        report_failure("perfbench: fleet_mesh unit " + std::to_string(index) + " stream " +
                       std::to_string(s.index) + ": false conviction " +
                       std::to_string(s.false_conviction) + ", gap " +
                       std::to_string(s.sequence_gap) + ", detected in bound " +
                       std::to_string(in_bound));
      }
    }
    return record;
  }

  std::uint64_t seed_;
  int timed_;
  std::vector<ft::FleetSpec> designs_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {"app_campaign", "fleet_mesh"};
  return kNames;
}

RunShape run_shape(const std::string& workload, double seconds) {
  // Units per second of one pass on a 4-vCPU Xeon VM (each unit followed by
  // one reference-kernel run), passes per run, and
  // the fewest units a pass may have: enough for ten samples beyond the p99
  // of both the unit latencies and the detection latencies (two app units
  // in three inject a fault; every fleet unit detects several).
  double rate = 0;
  RunShape shape;
  if (workload == "app_campaign") {
    rate = 550.0;
    shape = {1600, 10};
  } else if (workload == "fleet_mesh") {
    rate = 120.0;
    shape = {1100, 5};
  } else {
    throw std::invalid_argument("unknown workload: " + workload);
  }
  shape.units = std::max(shape.units,
                         static_cast<int>(std::llround(seconds / shape.passes * rate)));
  return shape;
}

std::unique_ptr<Workload> make_workload(const std::string& name, const WorkloadConfig& config,
                                        SpanLog* setup_spans) {
  if (config.units < 1) throw std::invalid_argument("a workload needs at least one unit");
  if (name == "app_campaign") return std::make_unique<AppCampaign>(config, setup_spans);
  if (name == "fleet_mesh") return std::make_unique<FleetMesh>(config, setup_spans);
  throw std::invalid_argument("unknown workload: " + name);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + index + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
