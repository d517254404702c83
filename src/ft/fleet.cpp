#include "ft/fleet.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <utility>

#include "ft/fault_plan.hpp"
#include "ft/framework.hpp"
#include "ft/supervisor.hpp"
#include "kpn/network.hpp"
#include "kpn/timing.hpp"
#include "rtc/sizing.hpp"
#include "rtc/online/monitor.hpp"
#include "scc/platform.hpp"
#include "sim/simulator.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace sccft::ft {

namespace {

std::string stream_tag(int index) { return "s" + std::to_string(index); }

AppTimingSpec timing_of(const FleetStreamSpec& s) {
  AppTimingSpec timing;
  timing.producer = s.producer;
  timing.replica1_in = timing.replica2_in = s.stage;
  timing.replica1_out = timing.replica2_out = s.stage;
  timing.consumer = s.consumer;
  return timing;
}

/// The unsupervised N-replica payload-vote rig of a protection >= 3 stream.
NReplicaHarness::Config vote_config_of(const FleetStreamSpec& s) {
  NReplicaHarness::Config config;
  config.producer = s.producer;
  config.consumer = s.consumer;
  config.replica_in.assign(static_cast<std::size_t>(s.protection), s.stage);
  config.replica_out = config.replica_in;
  config.name_prefix = stream_tag(s.index);
  config.enable_payload_vote = true;
  return config;
}

/// Eq. (3) capacity of a non-critical pipeline's FIFO: the producer's upper
/// curve against the consuming stage's lower curve.
rtc::Tokens pipeline_fifo_capacity(const FleetStreamSpec& s) {
  const rtc::PJDUpperCurve producer_upper(s.producer);
  const rtc::PJDLowerCurve stage_lower(s.stage);
  const rtc::TimeNs horizon =
      100 * std::max(s.producer.period, s.stage.period) +
      std::max(s.producer.jitter, s.stage.jitter);
  const auto capacity =
      rtc::min_fifo_capacity(producer_upper, stage_lower, horizon);
  return std::max<rtc::Tokens>(capacity.value_or(1), 1);
}

/// One stream's design-time Eq. (3)-(8) sizing, computed once per fleet and
/// shared by the placement request, the harness and the outcome. Exactly one
/// member is filled, by protection level: the pair report (2), the raw N-ary
/// report before the vote's capacity floor (>= 3), or the plain pipeline's
/// FIFO capacity (1).
struct StreamSizing {
  rtc::SizingReport pair;
  NSizingReport vote;
  rtc::Tokens fifo_capacity = 0;
};

StreamSizing size_stream(const FleetStreamSpec& s) {
  StreamSizing sizing;
  if (s.protection >= 3) {
    sizing.vote = vote_config_of(s).analyze();
  } else if (s.critical) {
    sizing.pair = timing_of(s).analyze();
  } else {
    sizing.fifo_capacity = pipeline_fifo_capacity(s);
  }
  return sizing;
}

std::vector<StreamSizing> size_streams(const std::vector<FleetStreamSpec>& streams) {
  std::vector<StreamSizing> sizings;
  sizings.reserve(streams.size());
  for (const FleetStreamSpec& s : streams) sizings.push_back(size_stream(s));
  return sizings;
}

/// Selector side i's capacity as NReplicaHarness allocates it: vote mode
/// grows each side to at least initial + D + 1 (see framework.cpp).
rtc::Tokens vote_selector_capacity(const NSizingReport& sizing, std::size_t i) {
  return std::max(sizing.selector_capacity[i],
                  sizing.selector_initial[i] + sizing.divergence_threshold + 1);
}

/// Traffic weight of one stream's edges: payload bytes per second.
std::uint64_t bytes_per_second(const FleetStreamSpec& s) {
  return static_cast<std::uint64_t>(s.token_bytes) *
         static_cast<std::uint64_t>(1'000'000'000 /
                                    std::max<rtc::TimeNs>(s.producer.period, 1));
}

/// Appends stream `s`'s processes and traffic edges to `request`, with MPB
/// demands taken from the stream's already-computed sizing.
void add_stream(scc::PlacementRequest& request, const FleetStreamSpec& s,
                const StreamSizing& sizing) {
  const int base = static_cast<int>(request.processes.size());
  const std::uint64_t weight = bytes_per_second(s);
  const std::string tag = stream_tag(s.index);
  if (s.protection >= 3) {
    // Generalized layout: replica i's tile MPB holds both its replicator
    // FIFO and its selector side S_i (the voting consumer reads every side
    // remotely — N grown sides no longer fit one consumer tile), matching
    // ft::replication_cost's per-replica sum(|R_i| + |S_i|) accounting.
    // All N replicas share one anti-affinity group.
    request.processes.push_back({tag + ".producer", s.index, -1, 0});
    for (int r = 0; r < s.protection; ++r) {
      const auto ri = static_cast<std::size_t>(r);
      request.processes.push_back(
          {tag + ".r" + std::to_string(r + 1), s.index, s.index,
           static_cast<std::size_t>(sizing.vote.replicator_capacity[ri] +
                                    vote_selector_capacity(sizing.vote, ri)) *
               s.token_bytes});
    }
    request.processes.push_back({tag + ".consumer", s.index, -1, 0});
    const int consumer = base + 1 + s.protection;
    for (int r = 0; r < s.protection; ++r) {
      request.edges.push_back({base, base + 1 + r, weight});
      request.edges.push_back({base + 1 + r, consumer, weight});
    }
  } else if (s.critical) {
    // The replicator FIFO of replica i lives in the replica's tile MPB
    // (the reader-side copy target of the paper's iRCCE put); both
    // selector FIFOs live with the consumer.
    request.processes.push_back({tag + ".producer", s.index, -1, 0});
    request.processes.push_back(
        {tag + ".r1", s.index, s.index,
         static_cast<std::size_t>(sizing.pair.replicator_capacity1) * s.token_bytes});
    request.processes.push_back(
        {tag + ".r2", s.index, s.index,
         static_cast<std::size_t>(sizing.pair.replicator_capacity2) * s.token_bytes});
    request.processes.push_back(
        {tag + ".consumer", s.index, -1,
         static_cast<std::size_t>(sizing.pair.selector_capacity1 +
                                  sizing.pair.selector_capacity2) *
             s.token_bytes});
    request.edges.push_back({base, base + 1, weight});
    request.edges.push_back({base, base + 2, weight});
    request.edges.push_back({base + 1, base + 3, weight});
    request.edges.push_back({base + 2, base + 3, weight});
  } else {
    const std::size_t fifo_bytes =
        static_cast<std::size_t>(sizing.fifo_capacity) * s.token_bytes;
    request.processes.push_back({tag + ".producer", s.index, -1, 0});
    request.processes.push_back({tag + ".worker", s.index, -1, fifo_bytes});
    request.processes.push_back({tag + ".consumer", s.index, -1, fifo_bytes});
    request.edges.push_back({base, base + 1, weight});
    request.edges.push_back({base + 1, base + 2, weight});
  }
}

scc::PlacementRequest placement_request(const FleetSpec& spec,
                                        const std::vector<FleetStreamSpec>& streams,
                                        const std::vector<StreamSizing>& sizings) {
  scc::PlacementRequest request;
  request.max_processes_per_core = spec.max_processes_per_core;
  for (std::size_t i = 0; i < streams.size(); ++i) {
    add_stream(request, streams[i], sizings[i]);
  }
  return request;
}

}  // namespace

int FleetSpec::protection_of(int index) const {
  SCCFT_EXPECTS(index >= 0 && index < streams);
  if (!protection.empty()) {
    SCCFT_EXPECTS(protection.size() == static_cast<std::size_t>(streams));
    const int n = protection[static_cast<std::size_t>(index)];
    SCCFT_EXPECTS(n >= 1 && n <= 4);
    return n;
  }
  return critical_every > 0 && index % critical_every == 0 ? 2 : 1;
}

std::vector<FleetStreamSpec> FleetSpec::materialize() const {
  SCCFT_EXPECTS(streams > 0);
  SCCFT_EXPECTS(base_period > 0);
  SCCFT_EXPECTS(period_spread >= 0.0 && period_spread < 1.0);
  SCCFT_EXPECTS(jitter_fraction >= 0.0 && jitter_fraction < 0.5);
  SCCFT_EXPECTS(token_bytes > 0);
  SCCFT_EXPECTS(protection.empty() ||
                protection.size() == static_cast<std::size_t>(streams));
  std::vector<FleetStreamSpec> result;
  result.reserve(static_cast<std::size_t>(streams));
  for (int i = 0; i < streams; ++i) {
    // One private RNG stream per fleet member: adding stream N+1 never
    // changes what streams 0..N drew.
    util::Xoshiro256 rng(seed * 0x9E3779B97F4A7C15ULL +
                         static_cast<std::uint64_t>(i) + 1);
    FleetStreamSpec s;
    s.index = i;
    s.protection = protection_of(i);
    s.critical = s.protection >= 2;
    const double factor = rng.uniform(1.0 - period_spread, 1.0 + period_spread);
    const auto period = std::max<rtc::TimeNs>(
        static_cast<rtc::TimeNs>(static_cast<double>(base_period) * factor), 1);
    const auto jitter =
        static_cast<rtc::TimeNs>(static_cast<double>(period) * jitter_fraction);
    s.producer = rtc::PJD{period, jitter, period};
    // The middle stage tolerates twice the producer jitter (the paper's
    // Table 1 rigs give replicas looser envelopes than the producer).
    s.stage = rtc::PJD{period, 2 * jitter, period};
    s.consumer = rtc::PJD{period, jitter, period};
    s.token_bytes = token_bytes;
    s.seed = seed * 1'000'003ULL + static_cast<std::uint64_t>(i) * 7919ULL + 1;
    result.push_back(std::move(s));
  }
  return result;
}

scc::PlacementRequest build_placement_request(
    const FleetSpec& spec, const std::vector<FleetStreamSpec>& streams) {
  return placement_request(spec, streams, size_streams(streams));
}

FleetRunResult run_fleet(const FleetSpec& spec, const FleetRunOptions& options) {
  SCCFT_EXPECTS(options.run_length > 0);
  const std::vector<FleetStreamSpec> streams = spec.materialize();
  const std::vector<StreamSizing> sizings = size_streams(streams);
  const scc::PlacementRequest request = placement_request(spec, streams, sizings);
  const scc::Placement placement = scc::place_fleet(request);

  sim::Simulator simulator;
  scc::Platform platform(simulator);
  kpn::Network net(simulator);

  RestartBudgetPool pool{spec.shared_restart_budget, 0};

  // Stable per-stream storage the coroutines write into (never resized once
  // the processes capture pointers into it).
  struct Runtime {
    std::uint64_t consumed = 0;
    std::uint64_t expected_seq = 0;
    bool gap = false;
  };
  std::vector<Runtime> runtime(streams.size());

  std::vector<std::unique_ptr<FaultTolerantHarness>> harnesses(streams.size());
  std::vector<std::unique_ptr<NReplicaHarness>> vote_harnesses(streams.size());
  std::vector<std::unique_ptr<Supervisor>> supervisors(streams.size());
  std::vector<std::unique_ptr<FaultCampaign>> campaigns(streams.size());
  std::vector<kpn::FifoChannel*> fifo_in(streams.size(), nullptr);
  std::vector<kpn::FifoChannel*> fifo_out(streams.size(), nullptr);

  std::vector<rtc::online::StreamSpec> monitor_specs;

  std::size_t process_cursor = 0;
  for (std::size_t i = 0; i < streams.size(); ++i) {
    const FleetStreamSpec& s = streams[i];
    const StreamSizing& sizing = sizings[i];
    const std::string tag = stream_tag(s.index);
    Runtime* rt = &runtime[i];
    const trace::SubjectId producer_subject =
        simulator.trace().intern(tag + ".producer");
    trace::TraceBus* bus = &simulator.trace();

    if (options.online_monitors) {
      rtc::online::StreamSpec ms;
      ms.subject = tag + ".producer";
      ms.name = tag;
      const auto pair = rtc::ArrivalCurvePair::from_pjd(s.producer);
      ms.design_upper = pair.upper;
      ms.design_lower = pair.lower;
      monitor_specs.push_back(std::move(ms));
    }

    if (s.protection >= 3) {
      // Unsupervised N-replica payload-vote rig: conviction and masking are
      // the selector's job (ft/nreplica), no Supervisor attached. The vote
      // channels model no NoC links — mesh accounting for these streams is
      // placement-only.
      vote_harnesses[i] =
          std::make_unique<NReplicaHarness>(net, vote_config_of(s), sizing.vote);
      NReplicaHarness* harness = vote_harnesses[i].get();

      net.add_process(
          tag + ".producer", placement.process_to_core[process_cursor],
          s.seed * 10 + 1,
          [harness, s, bus, producer_subject](kpn::ProcessContext& ctx)
              -> sim::Task {
            kpn::TimingShaper shaper(s.producer, 0, ctx.rng());
            shaper.bind_trace(bus, producer_subject);
            for (std::uint64_t k = 0;; ++k) {
              const rtc::TimeNs t = shaper.next_emission(ctx.now());
              if (t > ctx.now()) co_await ctx.delay(t - ctx.now());
              std::vector<std::uint8_t> payload(
                  s.token_bytes, static_cast<std::uint8_t>(k));
              co_await kpn::write(harness->replicator(),
                                  kpn::Token(std::move(payload), k, ctx.now()));
              shaper.commit(ctx.now());
            }
          });

      std::vector<std::vector<kpn::Process*>> replica_processes(
          static_cast<std::size_t>(s.protection));
      for (int r = 0; r < s.protection; ++r) {
        kpn::Process* p = &net.add_process(
            tag + ".r" + std::to_string(r + 1),
            placement.process_to_core[process_cursor + 1 +
                                      static_cast<std::size_t>(r)],
            s.seed * 10 + 2 + static_cast<std::uint64_t>(r),
            [harness, s, replica = ReplicaIndex{r}](kpn::ProcessContext& ctx) -> sim::Task {
              kpn::TimingShaper emit(s.stage, ctx.now(), ctx.rng());
              while (true) {
                SCCFT_FAULT_GATE(ctx);
                kpn::Token token =
                    co_await kpn::read(harness->replicator().read_interface(replica));
                SCCFT_FAULT_GATE(ctx);
                const rtc::TimeNs target = emit.next_emission(ctx.now());
                if (target > ctx.now()) co_await ctx.compute(target - ctx.now());
                SCCFT_FAULT_GATE(ctx);
                co_await kpn::write(harness->selector().write_interface(replica),
                                    token);
                emit.commit(ctx.now());
              }
            });
        replica_processes[static_cast<std::size_t>(r)] = {p};
      }

      net.add_process(
          tag + ".consumer",
          placement.process_to_core[process_cursor + 1 +
                                    static_cast<std::size_t>(s.protection)],
          s.seed * 10 + 2 + static_cast<std::uint64_t>(s.protection),
          [harness, s, rt](kpn::ProcessContext& ctx) -> sim::Task {
            kpn::TimingShaper shaper(s.consumer, 0, ctx.rng());
            while (true) {
              const rtc::TimeNs t = shaper.next_emission(ctx.now());
              if (t > ctx.now()) co_await ctx.delay(t - ctx.now());
              kpn::Token token = co_await kpn::read(harness->selector());
              shaper.commit(ctx.now());
              if (token.seq() > rt->expected_seq) rt->gap = true;
              rt->expected_seq = token.seq() + 1;
              ++rt->consumed;
            }
          });

      if (options.inject_faults) {
        FaultCampaign::Wiring wiring;
        wiring.replicator = &harness->replicator();
        wiring.selector = &harness->selector();
        wiring.processes = std::move(replica_processes);
        campaigns[i] = std::make_unique<FaultCampaign>(simulator, wiring,
                                                       tag + ".faults");
        FaultSpec fault;
        fault.kind = FaultKind::kTransientSilence;
        fault.replica = ReplicaIndex::kReplica1;
        fault.at = options.fault_at;
        fault.duration = options.fault_duration;
        fault.seed = s.seed;
        campaigns[i]->add(fault);
        campaigns[i]->arm();
      }
    } else if (s.critical) {
      FaultTolerantHarness::Config config;
      config.timing = timing_of(s);
      config.name_prefix = tag;
      config.platform = &platform;
      config.producer_core = placement.process_to_core[process_cursor];
      config.replica1_in_core = config.replica1_out_core =
          placement.process_to_core[process_cursor + 1];
      config.replica2_in_core = config.replica2_out_core =
          placement.process_to_core[process_cursor + 2];
      config.consumer_core = placement.process_to_core[process_cursor + 3];
      harnesses[i] = std::make_unique<FaultTolerantHarness>(net, config, sizing.pair);
      FaultTolerantHarness* harness = harnesses[i].get();

      net.add_process(
          tag + ".producer", config.producer_core, s.seed * 10 + 1,
          [harness, s, bus, producer_subject](kpn::ProcessContext& ctx)
              -> sim::Task {
            kpn::TimingShaper shaper(s.producer, 0, ctx.rng());
            shaper.bind_trace(bus, producer_subject);
            for (std::uint64_t k = 0;; ++k) {
              const rtc::TimeNs t = shaper.next_emission(ctx.now());
              if (t > ctx.now()) co_await ctx.delay(t - ctx.now());
              std::vector<std::uint8_t> payload(
                  s.token_bytes, static_cast<std::uint8_t>(k));
              co_await kpn::write(harness->replicator(),
                                  kpn::Token(std::move(payload), k, ctx.now()));
              shaper.commit(ctx.now());
            }
          });

      auto replica_body = [harness, s](ReplicaIndex which) {
        return [harness, s, which](kpn::ProcessContext& ctx) -> sim::Task {
          kpn::TimingShaper emit(s.stage, ctx.now(), ctx.rng());
          while (true) {
            SCCFT_FAULT_GATE(ctx);
            kpn::Token token =
                co_await kpn::read(harness->replicator().read_interface(which));
            SCCFT_FAULT_GATE(ctx);
            const rtc::TimeNs target = emit.next_emission(ctx.now());
            if (target > ctx.now()) co_await ctx.compute(target - ctx.now());
            SCCFT_FAULT_GATE(ctx);
            co_await kpn::write(harness->selector().write_interface(which),
                                token);
            emit.commit(ctx.now());
          }
        };
      };
      kpn::Process* r1 = &net.add_process(tag + ".r1", config.replica1_in_core,
                                          s.seed * 10 + 2,
                                          replica_body(ReplicaIndex::kReplica1));
      kpn::Process* r2 = &net.add_process(tag + ".r2", config.replica2_in_core,
                                          s.seed * 10 + 3,
                                          replica_body(ReplicaIndex::kReplica2));

      net.add_process(tag + ".consumer", config.consumer_core, s.seed * 10 + 4,
                      [harness, s, rt](kpn::ProcessContext& ctx) -> sim::Task {
                        kpn::TimingShaper shaper(s.consumer, 0, ctx.rng());
                        while (true) {
                          const rtc::TimeNs t = shaper.next_emission(ctx.now());
                          if (t > ctx.now()) co_await ctx.delay(t - ctx.now());
                          kpn::Token token =
                              co_await kpn::read(harness->selector());
                          shaper.commit(ctx.now());
                          if (token.seq() > rt->expected_seq) rt->gap = true;
                          rt->expected_seq = token.seq() + 1;
                          ++rt->consumed;
                        }
                      });

      std::array<ReplicaAssets, 2> assets{
          ReplicaAssets{ReplicaIndex::kReplica1, {r1}, {}},
          ReplicaAssets{ReplicaIndex::kReplica2, {r2}, {}}};
      Supervisor::Config supervisor_config;
      supervisor_config.restart_budget = spec.restart_budget;
      supervisor_config.initial_backoff = 20'000'000;
      supervisor_config.detection_latency_bound =
          std::min(sizing.pair.replicator_overflow_bound,
                   sizing.pair.selector_latency_bound);
      supervisor_config.name = tag + ".sup";
      supervisor_config.injection_subject = tag + ".faults";
      if (pool.capacity > 0) supervisor_config.shared_budget = &pool;
      supervisors[i] = std::make_unique<Supervisor>(
          simulator, harness->replicator(), harness->selector(), assets,
          supervisor_config);

      if (options.inject_faults) {
        FaultCampaign::Wiring wiring;
        wiring.replicator = &harness->replicator();
        wiring.selector = &harness->selector();
        wiring.processes = {{r1}, {r2}};
        campaigns[i] = std::make_unique<FaultCampaign>(simulator, wiring,
                                                       tag + ".faults");
        FaultSpec fault;
        fault.kind = FaultKind::kTransientSilence;
        fault.replica = ReplicaIndex::kReplica1;
        fault.at = options.fault_at;
        fault.duration = options.fault_duration;
        fault.seed = s.seed;
        campaigns[i]->add(fault);
        campaigns[i]->arm();
      }
    } else {
      const rtc::Tokens capacity = sizing.fifo_capacity;
      const scc::CoreId producer_core = placement.process_to_core[process_cursor];
      const scc::CoreId worker_core =
          placement.process_to_core[process_cursor + 1];
      const scc::CoreId consumer_core =
          placement.process_to_core[process_cursor + 2];
      fifo_in[i] = &net.add_fifo(
          tag + ".in", capacity,
          kpn::FifoChannel::LinkModel{&platform.noc(), producer_core,
                                      worker_core});
      fifo_out[i] = &net.add_fifo(
          tag + ".out", capacity,
          kpn::FifoChannel::LinkModel{&platform.noc(), worker_core,
                                      consumer_core});
      kpn::FifoChannel* in = fifo_in[i];
      kpn::FifoChannel* out = fifo_out[i];

      net.add_process(
          tag + ".producer", producer_core, s.seed * 10 + 1,
          [in, s, bus, producer_subject](kpn::ProcessContext& ctx) -> sim::Task {
            kpn::TimingShaper shaper(s.producer, 0, ctx.rng());
            shaper.bind_trace(bus, producer_subject);
            for (std::uint64_t k = 0;; ++k) {
              const rtc::TimeNs t = shaper.next_emission(ctx.now());
              if (t > ctx.now()) co_await ctx.delay(t - ctx.now());
              std::vector<std::uint8_t> payload(
                  s.token_bytes, static_cast<std::uint8_t>(k));
              co_await kpn::write(*in,
                                  kpn::Token(std::move(payload), k, ctx.now()));
              shaper.commit(ctx.now());
            }
          });
      net.add_process(tag + ".worker", worker_core, s.seed * 10 + 2,
                      [in, out, s](kpn::ProcessContext& ctx) -> sim::Task {
                        kpn::TimingShaper emit(s.stage, ctx.now(), ctx.rng());
                        while (true) {
                          kpn::Token token = co_await kpn::read(*in);
                          const rtc::TimeNs target = emit.next_emission(ctx.now());
                          if (target > ctx.now()) {
                            co_await ctx.compute(target - ctx.now());
                          }
                          co_await kpn::write(*out, token);
                          emit.commit(ctx.now());
                        }
                      });
      net.add_process(tag + ".consumer", consumer_core, s.seed * 10 + 3,
                      [out, s, rt](kpn::ProcessContext& ctx) -> sim::Task {
                        kpn::TimingShaper shaper(s.consumer, 0, ctx.rng());
                        while (true) {
                          const rtc::TimeNs t = shaper.next_emission(ctx.now());
                          if (t > ctx.now()) co_await ctx.delay(t - ctx.now());
                          kpn::Token token = co_await kpn::read(*out);
                          shaper.commit(ctx.now());
                          if (token.seq() > rt->expected_seq) rt->gap = true;
                          rt->expected_seq = token.seq() + 1;
                          ++rt->consumed;
                        }
                      });
    }
    process_cursor +=
        s.protection >= 3 ? 2 + static_cast<std::size_t>(s.protection)
                          : (s.critical ? 4 : 3);
  }

  std::unique_ptr<rtc::online::OnlineMonitor> monitor;
  if (options.online_monitors && !monitor_specs.empty()) {
    rtc::online::OnlineMonitor::Options monitor_options;
    // Non-escalating: every supervisor on the shared bus would see every
    // kCurveViolation, so escalation from stream A's monitor could convict
    // stream B's replicas. Conformance is still counted and reported.
    monitor_options.escalate = false;
    monitor_options.cross_advance_quantum = options.monitor_quantum;
    rtc::online::LatticeConfig lattice;
    lattice.base_delta = spec.base_period;
    monitor = std::make_unique<rtc::online::OnlineMonitor>(
        simulator.trace(), lattice, std::move(monitor_specs), monitor_options);
  }

  net.run_until(options.run_length);

  FleetRunResult result;
  result.placement_cost = placement.cost(request.edges);
  result.tiles_used = placement.tiles_used();
  result.max_core_load = placement.max_core_load();
  result.max_tile_mpb_used = placement.max_tile_mpb_used();
  result.events_processed = simulator.events_processed();
  result.noc_contention_stalls = platform.noc().contention_stalls();
  result.max_link_busy_ns = platform.noc().max_link_busy_ns();
  result.total_link_busy_ns = platform.noc().total_link_busy_ns();
  result.simulated_ns = options.run_length;
  result.pool_capacity = pool.capacity;
  result.pool_used = pool.used;

  std::vector<rtc::online::OnlineMonitor::StreamReport> monitor_reports;
  if (monitor) monitor_reports = monitor->finalize(options.run_length);

  const double simulated_sec =
      static_cast<double>(options.run_length) / 1e9;
  result.streams.reserve(streams.size());
  for (std::size_t i = 0; i < streams.size(); ++i) {
    const FleetStreamSpec& s = streams[i];
    const StreamSizing& sizing = sizings[i];
    FleetStreamOutcome outcome;
    outcome.index = s.index;
    outcome.critical = s.critical;
    outcome.protection = s.protection;
    outcome.tokens_consumed = runtime[i].consumed;
    outcome.nominal_rate_hz =
        1e9 / static_cast<double>(std::max<rtc::TimeNs>(s.producer.period, 1));
    outcome.achieved_rate_hz =
        static_cast<double>(runtime[i].consumed) / simulated_sec;
    outcome.sequence_gap = runtime[i].gap;
    if (s.protection >= 3) {
      NReplicaHarness* harness = vote_harnesses[i].get();
      outcome.detection_bound = std::min(sizing.vote.replicator_overflow_bound,
                                         sizing.vote.selector_latency_bound);
      for (const DetectionRecord& record : harness->detections().records) {
        if (record.replica == ReplicaIndex::kReplica1) {
          outcome.detected = true;
          if (!outcome.detection_latency) {
            outcome.detection_latency = record.detected_at - options.fault_at;
          }
        } else {
          outcome.false_conviction = true;
        }
      }
      // A convicted replica stays out (no supervisor to reintegrate it);
      // the stream keeps running on the surviving majority.
      outcome.degraded = outcome.detected;
      const kpn::ChannelStats replicator_stats = harness->replicator().stats();
      const kpn::ChannelStats selector_stats = harness->selector().stats();
      outcome.replicator_max_fill = replicator_stats.max_fill;
      outcome.replicator_capacity =
          *std::max_element(sizing.vote.replicator_capacity.begin(),
                            sizing.vote.replicator_capacity.end());
      outcome.selector_max_fill = selector_stats.max_fill;
      for (std::size_t r = 0; r < sizing.vote.selector_capacity.size(); ++r) {
        outcome.selector_capacity += vote_selector_capacity(sizing.vote, r);
      }
      outcome.writer_blocks =
          replicator_stats.writer_blocks + selector_stats.writer_blocks;
    } else if (s.critical) {
      FaultTolerantHarness* harness = harnesses[i].get();
      Supervisor* supervisor = supervisors[i].get();
      outcome.detection_bound = std::min(sizing.pair.replicator_overflow_bound,
                                         sizing.pair.selector_latency_bound);
      const auto target = supervisor->report(ReplicaIndex::kReplica1);
      const auto peer = supervisor->report(ReplicaIndex::kReplica2);
      outcome.detected = target.faults_seen > 0;
      outcome.false_conviction = peer.faults_seen > 0;
      if (!target.detection_latencies.empty()) {
        outcome.detection_latency = target.detection_latencies.front();
      }
      outcome.restarts = target.restarts + peer.restarts;
      outcome.degraded = target.health == ReplicaHealth::kDegraded ||
                         peer.health == ReplicaHealth::kDegraded;
      const kpn::ChannelStats replicator_stats = harness->replicator().stats();
      const kpn::ChannelStats selector_stats = harness->selector().stats();
      outcome.replicator_max_fill = replicator_stats.max_fill;
      outcome.replicator_capacity = std::max(sizing.pair.replicator_capacity1,
                                             sizing.pair.replicator_capacity2);
      outcome.selector_max_fill = selector_stats.max_fill;
      outcome.selector_capacity =
          sizing.pair.selector_capacity1 + sizing.pair.selector_capacity2;
      outcome.writer_blocks =
          replicator_stats.writer_blocks + selector_stats.writer_blocks;
    } else {
      const kpn::ChannelStats in_stats = fifo_in[i]->stats();
      const kpn::ChannelStats out_stats = fifo_out[i]->stats();
      outcome.replicator_max_fill = in_stats.max_fill;
      outcome.replicator_capacity = sizing.fifo_capacity;
      outcome.selector_max_fill = out_stats.max_fill;
      outcome.selector_capacity = sizing.fifo_capacity;
      outcome.writer_blocks = in_stats.writer_blocks + out_stats.writer_blocks;
    }
    for (const auto& report : monitor_reports) {
      if (report.name == stream_tag(s.index)) {
        outcome.upper_violations = report.upper_violations;
        outcome.lower_violations = report.lower_violations;
        break;
      }
    }
    result.streams.push_back(std::move(outcome));
  }
  return result;
}

}  // namespace sccft::ft
