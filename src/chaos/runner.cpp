#include "chaos/runner.hpp"

#include <algorithm>
#include <array>
#include <functional>

#include "adapt/reconfig.hpp"
#include "ft/framework.hpp"
#include "ft/scrub.hpp"
#include "kpn/network.hpp"
#include "kpn/timing.hpp"
#include "scc/platform.hpp"
#include "scc/watchdog.hpp"
#include "trace/sinks.hpp"
#include "util/assert.hpp"
#include "util/csv.hpp"

namespace sccft::chaos {
namespace {

/// Counts supervisor restarts as they happen, so the planted bugs can key
/// their misbehaviour off the recovery lifecycle.
struct RestartCounter final : trace::Sink {
  int restarts = 0;
  void on_event(const trace::Event&) override { ++restarts; }
};

/// Observes the supervisor's kHeartbeat beacons for the silent-supervisor
/// oracle: an independent count plus the time the beacon last fired.
struct HeartbeatMonitor final : trace::Sink {
  std::uint64_t count = 0;
  rtc::TimeNs last = -1;
  void on_event(const trace::Event& event) override {
    ++count;
    last = event.time;
  }
};

/// A replica task loop's handle onto its per-tile watchdog channel; null
/// until the control-plane rig wires one up.
struct WatchdogHook {
  scc::WatchdogTimer* watchdog = nullptr;
  int channel = -1;
};

}  // namespace

const char* to_string(PlantedBug bug) {
  switch (bug) {
    case PlantedBug::kNone: return "none";
    case PlantedBug::kDropAfterSecondRestart: return "drop-after-second-restart";
    case PlantedBug::kCorruptAfterRestart: return "corrupt-after-restart";
  }
  return "?";
}

PlantedBug planted_bug_from_text(const std::string& tag) {
  for (const PlantedBug bug :
       {PlantedBug::kNone, PlantedBug::kDropAfterSecondRestart,
        PlantedBug::kCorruptAfterRestart}) {
    if (tag == to_string(bug)) return bug;
  }
  util::contract_failure("precondition", "tag is a known planted bug", __FILE__,
                         __LINE__);
}

std::string RunObservation::render_flight_csv() const {
  util::CsvWriter csv({"time_ns", "kind", "subject", "a", "b", "c"});
  csv.add_comment("flight recorder: last " + std::to_string(flight_events.size()) +
                  " events (" + std::to_string(flight_dropped) + " older dropped)");
  static const std::string kUnknownSubject = "?";
  for (const trace::Event& event : flight_events) {
    const std::string& subject = event.subject < flight_subjects.size()
                                     ? flight_subjects[event.subject]
                                     : kUnknownSubject;
    csv.add_row({std::to_string(event.time), trace::to_string(event.kind), subject,
                 std::to_string(event.a), std::to_string(event.b),
                 std::to_string(event.c)});
  }
  return csv.render();
}

namespace {

/// The N-replica soak rig (RunOptions::nreplica >= 3): producer ->
/// ReplicatorChannel -> N replicas -> SelectorChannel (payload vote + CRC
/// verify) -> consumer. Deliberately unsupervised: no restart path exists, so
/// every verdict the observation carries was reached by the channels' own
/// rules (a)/(b)/(c)/vote — the property the N-oracles then check against
/// the injection log.
RunObservation run_storm_n(const StormPlan& plan, const RunOptions& options) {
  SCCFT_EXPECTS(plan.run_length > 0);
  SCCFT_EXPECTS(options.planted == PlantedBug::kNone);
  SCCFT_EXPECTS(!options.control_plane.enabled);
  SCCFT_EXPECTS(!options.reconfig.enabled);
  const int n = options.nreplica;
  for (const ft::FaultSpec& spec : plan.faults) {
    SCCFT_EXPECTS(spec.kind != ft::FaultKind::kNocLink &&
                  !ft::is_control_plane(spec.kind));
    SCCFT_EXPECTS(ft::victim_index(spec) < n);
  }

  sim::Simulator simulator;
  kpn::Network net(simulator);

  ft::NReplicaHarness::Config config;
  config.producer = rtc::PJD::from_ms(10, 1, 10);
  config.consumer = rtc::PJD::from_ms(10, 1, 10);
  for (int i = 0; i < n; ++i) {
    // Heterogeneous replica timing, like the 2-replica rig's 2 ms / 6 ms
    // jitter split: replica i jitters by 2(i+1) ms.
    const rtc::PJD model = rtc::PJD::from_ms(10, 2 * (i + 1), 10);
    config.replica_in.push_back(model);
    config.replica_out.push_back(model);
  }
  config.verify_checksums = true;
  config.enable_payload_vote = true;
  ft::NReplicaHarness harness(net, config);

  RunObservation obs;
  obs.nreplica = n;

  trace::RingBufferSink ring(options.ring_capacity);
  trace::CounterSink counters(simulator.trace().metrics());
  simulator.trace().subscribe(&ring, trace::kFlightRecorderMask,
                              trace::DeliveryMode::kDeferred);
  simulator.trace().subscribe(&counters, trace::kFlightRecorderMask,
                              trace::DeliveryMode::kDeferred);

  const std::uint64_t seed = plan.seed;
  net.add_process("producer", scc::CoreId{0}, seed * 10 + 1,
                  [&](kpn::ProcessContext& ctx) -> sim::Task {
                    kpn::TimingShaper shaper(config.producer, 0, ctx.rng());
                    for (std::uint64_t k = 0;; ++k) {
                      const rtc::TimeNs t = shaper.next_emission(ctx.now());
                      if (t > ctx.now()) co_await ctx.delay(t - ctx.now());
                      std::vector<std::uint8_t> payload(4, static_cast<std::uint8_t>(k));
                      co_await kpn::write(harness.replicator(),
                                          kpn::Token(std::move(payload), k, ctx.now()));
                      shaper.commit(ctx.now());
                    }
                  });

  auto replica_body = [&](ft::ReplicaIndex which, rtc::PJD model) {
    return [&harness, which, model](kpn::ProcessContext& ctx) -> sim::Task {
      kpn::TimingShaper emit(model, ctx.now(), ctx.rng());
      rtc::TimeNs last_emit = -1;
      while (true) {
        SCCFT_FAULT_GATE(ctx);
        kpn::Token token =
            co_await kpn::read(harness.replicator().read_interface(which));
        SCCFT_FAULT_GATE(ctx);
        rtc::TimeNs target = emit.next_emission(ctx.now());
        if (ctx.fault().rate_factor > 1.0 && last_emit >= 0) {
          target = std::max(target,
                            last_emit + static_cast<rtc::TimeNs>(
                                            ctx.fault().rate_factor *
                                            static_cast<double>(model.period)));
        }
        if (target > ctx.now()) co_await ctx.compute(target - ctx.now());
        SCCFT_FAULT_GATE(ctx);
        co_await kpn::write(harness.selector().write_interface(which), token);
        emit.commit(ctx.now());
        last_emit = ctx.now();
      }
    };
  };
  std::vector<std::vector<kpn::Process*>> replica_groups;
  for (int i = 0; i < n; ++i) {
    replica_groups.push_back({&net.add_process(
        "r" + std::to_string(i + 1), scc::CoreId{2 * (i + 1)},
        seed * 10 + 2 + static_cast<std::uint64_t>(i),
        replica_body(ft::ReplicaIndex{i}, config.replica_out[static_cast<std::size_t>(i)]))});
  }

  net.add_process(
      "consumer", scc::CoreId{2 * (n + 1)},
      seed * 10 + 2 + static_cast<std::uint64_t>(n),
      [&](kpn::ProcessContext& ctx) -> sim::Task {
        kpn::TimingShaper shaper(config.consumer, 0, ctx.rng());
        while (true) {
          const rtc::TimeNs t = shaper.next_emission(ctx.now());
          if (t > ctx.now()) co_await ctx.delay(t - ctx.now());
          kpn::Token token = co_await kpn::read(harness.selector());
          shaper.commit(ctx.now());
          if (!token.verify_checksum()) ++obs.corrupt_delivered;
          obs.consumed_seqs.push_back(token.seq());
          obs.consumed_times.push_back(ctx.now());
          obs.consumed_fingerprints.push_back(token.checksum());
        }
      });

  ft::FaultCampaign::Wiring wiring;
  wiring.replicator = &harness.replicator();
  wiring.selector = &harness.selector();
  wiring.processes = replica_groups;
  ft::FaultCampaign campaign(simulator, wiring);
  for (const ft::FaultSpec& spec : plan.faults) campaign.add(spec);
  campaign.arm();

  try {
    net.run_until(plan.run_length);
  } catch (const util::ContractViolation& violation) {
    obs.contract_violation = violation.what();
  }

  simulator.trace().flush();
  obs.injections = campaign.injections();
  obs.n_detections = harness.detections().records;
  obs.vote_conflicts = harness.selector().vote_conflicts();
  obs.votes_outvoted = harness.selector().votes_outvoted();
  obs.events_processed = simulator.events_processed();
  obs.flight_total_events = ring.total_events();
  obs.flight_events = ring.events();
  obs.flight_dropped = ring.dropped();
  obs.flight_subjects.reserve(simulator.trace().subject_count());
  for (std::size_t id = 0; id < simulator.trace().subject_count(); ++id) {
    obs.flight_subjects.push_back(
        simulator.trace().subject_name(static_cast<trace::SubjectId>(id)));
  }
  obs.metrics = simulator.trace().metrics();
  obs.control_plane = options.control_plane;
  obs.reconfig = options.reconfig;

  simulator.trace().unsubscribe(&ring);
  simulator.trace().unsubscribe(&counters);
  return obs;
}

}  // namespace

RunObservation run_storm(const StormPlan& plan, const RunOptions& options) {
  SCCFT_EXPECTS(plan.run_length > 0);
  SCCFT_EXPECTS(options.nreplica >= 2);
  if (options.nreplica > 2) return run_storm_n(plan, options);
  sim::Simulator simulator;
  kpn::Network net(simulator);
  const bool with_noc =
      std::any_of(plan.faults.begin(), plan.faults.end(), [](const ft::FaultSpec& s) {
        return s.kind == ft::FaultKind::kNocLink;
      });
  std::optional<scc::Platform> platform;
  if (with_noc) platform.emplace(simulator);

  ft::AppTimingSpec timing;
  timing.producer = rtc::PJD::from_ms(10, 1, 10);
  timing.replica1_in = timing.replica1_out = rtc::PJD::from_ms(10, 2, 10);
  timing.replica2_in = timing.replica2_out = rtc::PJD::from_ms(10, 6, 10);
  timing.consumer = rtc::PJD::from_ms(10, 1, 10);

  ft::FaultTolerantHarness::Config config{.timing = timing};
  if (with_noc) {
    config.platform = &*platform;
    config.producer_core = scc::CoreId{0};
    config.replica1_in_core = config.replica1_out_core = scc::CoreId{2};
    config.replica2_in_core = config.replica2_out_core = scc::CoreId{4};
    config.consumer_core = scc::CoreId{6};
  }
  ft::FaultTolerantHarness harness(net, config);

  RunObservation obs;

  // The redundant observers: the ring keeps the recent event history for the
  // failure artifact, the counter sink keeps lifetime per-kind totals in the
  // registry — the consistency oracle cross-checks the two. Both subscribe
  // the same mask, so their counts must agree exactly. (The global
  // install_flight_recorder hook is deliberately NOT used: it is
  // process-wide state and chaos runs execute many simulators in parallel.)
  // Both are passive recorders, so they take the bus's deferred/batched path;
  // they lag by exactly the same staged events, which keeps the scrubber's
  // ring-vs-tally cross-check consistent at every flush point.
  trace::RingBufferSink ring(options.ring_capacity);
  trace::CounterSink counters(simulator.trace().metrics());
  simulator.trace().subscribe(&ring, trace::kFlightRecorderMask,
                              trace::DeliveryMode::kDeferred);
  simulator.trace().subscribe(&counters, trace::kFlightRecorderMask,
                              trace::DeliveryMode::kDeferred);
  RestartCounter restart_counter;
  simulator.trace().subscribe(&restart_counter,
                              trace::bit(trace::EventKind::kRestart));
  HeartbeatMonitor heartbeat_monitor;
  simulator.trace().subscribe(&heartbeat_monitor,
                              trace::bit(trace::EventKind::kHeartbeat));

  const std::uint64_t seed = plan.seed;
  net.add_process("producer", scc::CoreId{0}, seed * 10 + 1,
                  [&](kpn::ProcessContext& ctx) -> sim::Task {
                    kpn::TimingShaper shaper(timing.producer, 0, ctx.rng());
                    for (std::uint64_t k = 0;; ++k) {
                      const rtc::TimeNs t = shaper.next_emission(ctx.now());
                      if (t > ctx.now()) co_await ctx.delay(t - ctx.now());
                      std::vector<std::uint8_t> payload(4, static_cast<std::uint8_t>(k));
                      co_await kpn::write(harness.replicator(),
                                          kpn::Token(std::move(payload), k, ctx.now()));
                      shaper.commit(ctx.now());
                    }
                  });

  // Per-replica watchdog hooks: filled in only when the control-plane rig
  // arms the watchdog (below), read from inside the task loops. Lives in
  // this frame, which outlives the simulation.
  std::array<WatchdogHook, 2> watchdog_hooks{};

  auto replica_body = [&](ft::ReplicaIndex which, rtc::PJD model) {
    WatchdogHook* hook =
        &watchdog_hooks[static_cast<std::size_t>(ft::index_of(which))];
    return [&harness, which, model, hook](kpn::ProcessContext& ctx) -> sim::Task {
      kpn::TimingShaper emit(model, ctx.now(), ctx.rng());
      rtc::TimeNs last_emit = -1;
      while (true) {
        SCCFT_FAULT_GATE(ctx);
        kpn::Token token =
            co_await kpn::read(harness.replicator().read_interface(which));
        SCCFT_FAULT_GATE(ctx);
        rtc::TimeNs target = emit.next_emission(ctx.now());
        if (ctx.fault().rate_factor > 1.0 && last_emit >= 0) {
          target = std::max(target,
                            last_emit + static_cast<rtc::TimeNs>(
                                            ctx.fault().rate_factor *
                                            static_cast<double>(model.period)));
        }
        if (target > ctx.now()) co_await ctx.compute(target - ctx.now());
        SCCFT_FAULT_GATE(ctx);
        co_await kpn::write(harness.selector().write_interface(which), token);
        emit.commit(ctx.now());
        last_emit = ctx.now();
        // One heartbeat per completed iteration: a frozen or wedged loop
        // stops kicking and the per-tile deadline does the convicting.
        if (hook->watchdog != nullptr) hook->watchdog->kick(hook->channel);
      }
    };
  };
  std::vector<kpn::Process*> replicas;
  replicas.push_back(&net.add_process(
      "r1", scc::CoreId{2}, seed * 10 + 2,
      replica_body(ft::ReplicaIndex::kReplica1, timing.replica1_out)));
  replicas.push_back(&net.add_process(
      "r2", scc::CoreId{4}, seed * 10 + 3,
      replica_body(ft::ReplicaIndex::kReplica2, timing.replica2_out)));

  bool planted_fired = false;
  net.add_process(
      "consumer", scc::CoreId{6}, seed * 10 + 4,
      [&](kpn::ProcessContext& ctx) -> sim::Task {
        kpn::TimingShaper shaper(timing.consumer, 0, ctx.rng());
        while (true) {
          const rtc::TimeNs t = shaper.next_emission(ctx.now());
          if (t > ctx.now()) co_await ctx.delay(t - ctx.now());
          kpn::Token token = co_await kpn::read(harness.selector());
          shaper.commit(ctx.now());
          if (!token.verify_checksum()) ++obs.corrupt_delivered;
          std::uint32_t fingerprint = token.checksum();
          // Test-only defect hooks (see PlantedBug).
          if (options.planted == PlantedBug::kDropAfterSecondRestart &&
              !planted_fired && restart_counter.restarts >= 2) {
            planted_fired = true;
            continue;  // the token vanishes: a manufactured sequence gap
          }
          if (options.planted == PlantedBug::kCorruptAfterRestart &&
              !planted_fired && restart_counter.restarts >= 1) {
            planted_fired = true;
            fingerprint ^= 1;  // a manufactured golden-run divergence
          }
          obs.consumed_seqs.push_back(token.seq());
          obs.consumed_times.push_back(ctx.now());
          obs.consumed_fingerprints.push_back(fingerprint);
        }
      });

  std::array<ft::ReplicaAssets, 2> assets{
      ft::ReplicaAssets{ft::ReplicaIndex::kReplica1, {replicas[0]}, {}},
      ft::ReplicaAssets{ft::ReplicaIndex::kReplica2, {replicas[1]}, {}}};
  const ControlPlaneOptions& cp = options.control_plane;
  ft::Supervisor::Config supervisor_config;
  supervisor_config.restart_budget = 3;
  supervisor_config.initial_backoff = rtc::from_ms(20.0);
  if (cp.enabled) supervisor_config.heartbeat_period = cp.heartbeat_period;
  ft::Supervisor supervisor(simulator, harness.replicator(), harness.selector(),
                            assets, supervisor_config);
  obs.restart_budget = supervisor_config.restart_budget;

  // --- benign live-resize windows (adapt/) ---------------------------------
  const ReconfigOptions& rc = options.reconfig;
  std::optional<adapt::ReconfigurationController> reconfigurator;
  std::uint64_t reconfig_round = 0;
  std::function<void()> reconfig_tick;
  if (rc.enabled) {
    reconfigurator.emplace(
        simulator, simulator.trace(), harness.replicator(), harness.selector(),
        adapt::ReconfigurationController::Config{.quiesce_window = rc.quiesce_window});
    const rtc::Tokens base_f1 = harness.sizing().replicator_capacity1;
    const rtc::Tokens base_f2 = harness.sizing().replicator_capacity2;
    const rtc::Tokens base_d = harness.sizing().selector_threshold;
    reconfig_tick = [&, base_f1, base_f2, base_d] {
      ++reconfig_round;
      adapt::ReconfigurationController::Request request;
      const rtc::Tokens delta = reconfig_round % 2 == 1 ? rc.grow : 0;
      request.fifo1 = base_f1 + delta;
      request.fifo2 = base_f2 + delta;
      request.divergence = base_d + delta;
      (void)reconfigurator->request(request);
      simulator.schedule_after(rc.period, [&] { reconfig_tick(); });
    };
    simulator.schedule_after(rc.period, [&] { reconfig_tick(); });
  }

  // --- last-line defense: per-tile watchdog + control-state scrubber -------
  std::optional<scc::WatchdogTimer> watchdog;
  std::optional<ft::Scrubber> scrubber;
  if (cp.enabled && cp.watchdog) {
    watchdog.emplace(simulator,
                     scc::WatchdogTimer::Config{.deadline = cp.watchdog_deadline});
    const int supervisor_channel = watchdog->add_channel(
        "supervisor", scc::CoreId{6}.tile(),
        [&supervisor] { supervisor.on_self_watchdog_reset(); });
    supervisor.attach_watchdog(&*watchdog, supervisor_channel);
    watchdog_hooks[0] = WatchdogHook{
        &*watchdog,
        watchdog->add_channel("core.r1", scc::CoreId{2}.tile(), [&supervisor] {
          supervisor.on_core_watchdog_reset(ft::ReplicaIndex::kReplica1);
        })};
    watchdog_hooks[1] = WatchdogHook{
        &*watchdog,
        watchdog->add_channel("core.r2", scc::CoreId{4}.tile(), [&supervisor] {
          supervisor.on_core_watchdog_reset(ft::ReplicaIndex::kReplica2);
        })};
    watchdog->arm_all();
  }
  if (cp.enabled && cp.scrubber) {
    scrubber.emplace(simulator, ft::Scrubber::Config{.period = cp.scrub_period});
    scrubber->add_target(&harness.replicator());
    scrubber->add_target(&harness.selector());
    // The controller's pending-target words join the scrub walk strictly
    // AFTER the channels', so the channels' pinned global word indices (which
    // fault plans address) are unchanged.
    if (reconfigurator) scrubber->add_target(&*reconfigurator);
    // The ring audit's independent tally: the CounterSink subscribes the
    // same mask, so its per-kind totals are what the ring should have seen.
    scrubber->watch_flight_ring(&ring, [&simulator] {
      std::uint64_t total = 0;
      for (std::size_t k = 0; k < trace::kEventKindCount; ++k) {
        const auto kind = static_cast<trace::EventKind>(k);
        if ((trace::kFlightRecorderMask & trace::bit(kind)) == 0) continue;
        total += simulator.trace().metrics().counter(
            std::string("trace.events.") + trace::to_string(kind));
      }
      return total;
    });
    scrubber->start();
  }

  ft::FaultCampaign::Wiring wiring;
  wiring.replicator = &harness.replicator();
  wiring.selector = &harness.selector();
  wiring.processes = {{replicas[0]}, {replicas[1]}};
  if (with_noc) wiring.noc = &platform->noc();
  // Control-plane targets are wired unconditionally: a storm may attack the
  // protection machinery whether or not the defenses are armed — that
  // asymmetry is exactly what the ablation demos measure.
  wiring.supervisor = &supervisor;
  wiring.scrubbables = {&harness.replicator(), &harness.selector()};
  // Appended last (like the scrub walk) so pinned global word indices hold.
  if (reconfigurator) wiring.scrubbables.push_back(&*reconfigurator);
  wiring.flight_ring = &ring;
  ft::FaultCampaign campaign(simulator, wiring);
  for (const ft::FaultSpec& spec : plan.faults) campaign.add(spec);
  campaign.arm();

  try {
    net.run_until(plan.run_length);
  } catch (const util::ContractViolation& violation) {
    // The run died mid-simulation. Capture what we have — the artifact's
    // flight recorder is most valuable exactly here.
    obs.contract_violation = violation.what();
  }

  // Harvest. Deliver staged deferred events first so the ring and counter
  // totals reflect the complete run.
  simulator.trace().flush();
  obs.transitions = supervisor.transitions();
  obs.final_health[0] = supervisor.health(ft::ReplicaIndex::kReplica1);
  obs.final_health[1] = supervisor.health(ft::ReplicaIndex::kReplica2);
  obs.injections = campaign.injections();
  obs.events_processed = simulator.events_processed();
  obs.flight_total_events = ring.total_events();
  obs.flight_events = ring.events();
  obs.flight_dropped = ring.dropped();
  obs.flight_subjects.reserve(simulator.trace().subject_count());
  for (std::size_t id = 0; id < simulator.trace().subject_count(); ++id) {
    obs.flight_subjects.push_back(
        simulator.trace().subject_name(static_cast<trace::SubjectId>(id)));
  }
  harness.replicator().publish_metrics(simulator.trace().metrics());
  harness.selector().publish_metrics(simulator.trace().metrics());
  obs.metrics = simulator.trace().metrics();

  obs.reconfig = rc;
  if (reconfigurator) {
    obs.reconfig_windows = reconfigurator->stats().windows_completed;
    obs.reconfig_targets = reconfigurator->stats().targets_applied;
    obs.reconfig_clamped = reconfigurator->stats().clamped;
  }

  obs.control_plane = cp;
  obs.heartbeats = heartbeat_monitor.count;
  obs.last_heartbeat = heartbeat_monitor.last;
  obs.watchdog_resets = watchdog ? watchdog->total_resets() : 0;
  obs.scrub_repairs = scrubber ? scrubber->total_repairs() : 0;
  obs.flight_ring_resyncs = scrubber ? scrubber->ring_resyncs() : 0;

  simulator.trace().unsubscribe(&ring);
  simulator.trace().unsubscribe(&counters);
  simulator.trace().unsubscribe(&restart_counter);
  simulator.trace().unsubscribe(&heartbeat_monitor);
  return obs;
}

RunObservation run_golden(std::uint64_t seed, rtc::TimeNs run_length,
                          const ReconfigOptions& reconfig, int nreplica) {
  StormPlan golden;
  golden.seed = seed;
  golden.run_length = run_length;
  RunOptions options;
  options.reconfig = reconfig;
  options.nreplica = nreplica;
  return run_storm(golden, options);
}

}  // namespace sccft::chaos
