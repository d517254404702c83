#include "ft/supervisor.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "scc/watchdog.hpp"
#include "util/assert.hpp"

namespace sccft::ft {

namespace {

std::optional<rtc::TimeNs> mean_of(const std::vector<rtc::TimeNs>& samples) {
  if (samples.empty()) return std::nullopt;
  const auto sum = std::accumulate(samples.begin(), samples.end(),
                                   static_cast<std::int64_t>(0));
  return sum / static_cast<std::int64_t>(samples.size());
}

}  // namespace

std::string to_string(ReplicaHealth health) {
  switch (health) {
    case ReplicaHealth::kHealthy: return "healthy";
    case ReplicaHealth::kConvicted: return "convicted";
    case ReplicaHealth::kRestarting: return "restarting";
    case ReplicaHealth::kDegraded: return "degraded";
  }
  return "?";
}

std::optional<rtc::TimeNs> Supervisor::ReplicaReport::mean_time_to_repair() const {
  return mean_of(repair_times);
}

std::optional<rtc::TimeNs> Supervisor::ReplicaReport::mean_detection_latency() const {
  return mean_of(detection_latencies);
}

Supervisor::Supervisor(sim::Simulator& sim, ReplicatorChannel& replicator,
                       SelectorChannel& selector,
                       std::array<ReplicaAssets, 2> assets)
    : Supervisor(sim, replicator, selector, std::move(assets), Config{}) {}

Supervisor::Supervisor(sim::Simulator& sim, ReplicatorChannel& replicator,
                       SelectorChannel& selector,
                       std::array<ReplicaAssets, 2> assets, Config config)
    : sim_(sim),
      replicator_(replicator),
      selector_(selector),
      config_(std::move(config)),
      subject_(sim.trace().intern(config_.name)),
      sink_(*this) {
  SCCFT_EXPECTS(replicator.replica_count() == 2 && selector.replica_count() == 2);
  SCCFT_EXPECTS(config_.restart_budget >= 0);
  SCCFT_EXPECTS(!config_.name.empty());
  if (!config_.injection_subject.empty()) {
    injection_filter_ = sim.trace().intern(config_.injection_subject);
  }
  SCCFT_EXPECTS(config_.initial_backoff >= 0);
  SCCFT_EXPECTS(config_.backoff_factor >= 1.0);
  SCCFT_EXPECTS(config_.max_backoff >= config_.initial_backoff);
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    SCCFT_EXPECTS(index_of(assets[i].index) == static_cast<int>(i));
    replicas_[i].assets = std::move(assets[i]);
    replicas_[i].metric_prefix = config_.name + ".R" + std::to_string(i + 1);
  }
  // Subscribed after the harness's DetectionRecorder (construction order), so
  // the framework's detection log already holds a verdict by the time the
  // supervisor acts on it.
  sim_.trace().subscribe(&sink_, trace::bit(trace::EventKind::kDetection) |
                                     trace::bit(trace::EventKind::kInjection) |
                                     trace::bit(trace::EventKind::kCurveViolation));
  SCCFT_EXPECTS(config_.heartbeat_period >= 0);
  if (config_.heartbeat_period > 0) {
    sim_.schedule_after(config_.heartbeat_period, [this] { tick(); });
  }
}

Supervisor::~Supervisor() { sim_.trace().unsubscribe(&sink_); }

void Supervisor::BusSink::on_event(const trace::Event& event) {
  // Hang gate (kSupervisorHang): a wedged supervisor core sees nothing. The
  // events still happened — the flight recorder has them — but this observer
  // misses them, which is exactly the failure the hardware watchdog exists
  // to bound (on_self_watchdog_reset re-drives standing detections).
  if (owner_.hung_) return;
  if (event.kind == trace::EventKind::kInjection) {
    // Control-plane injections have no replica victim: operand b is
    // meaningless as a ReplicaIndex and must not seed a latency sample.
    if (is_control_plane(static_cast<FaultKind>(event.a))) return;
    // Fleet rigs run one campaign per stream; only this stream's injections
    // may seed latency samples (no filter = single-stream accept-any).
    if (owner_.injection_filter_ &&
        event.subject != *owner_.injection_filter_) {
      return;
    }
    // Injections carry the target replica in operand b; the timestamp seeds
    // the next detection-latency sample (idempotent with manual
    // note_fault_injected wiring, which records the same instant).
    owner_.note_fault_injected(static_cast<ReplicaIndex>(event.b), event.time);
    return;
  }
  if (event.kind == trace::EventKind::kCurveViolation) {
    // Online-RTC conformance breach (rtc/online). The subject is the drifted
    // stream, not the replicator/selector; operand a names the convicted
    // replica (-1: a non-replica stream such as the producer — noted but not
    // actionable by replica recovery).
    if (event.a == 0 || event.a == 1) {
      owner_.on_detection(DetectionRecord{static_cast<ReplicaIndex>(event.a),
                                          DetectionRule::kCurveConformance,
                                          event.time});
    }
    return;
  }
  if (event.subject != owner_.replicator_.trace_subject() &&
      event.subject != owner_.selector_.trace_subject()) {
    return;
  }
  owner_.on_detection(DetectionRecord{static_cast<ReplicaIndex>(event.a),
                                      static_cast<DetectionRule>(event.b),
                                      event.time});
}

void Supervisor::note_fault_injected(ReplicaIndex replica, rtc::TimeNs at) {
  replicas_[static_cast<std::size_t>(index_of(replica))].last_injection = at;
}

bool Supervisor::any_replica_serviceable() const {
  return std::any_of(replicas_.begin(), replicas_.end(), [](const ReplicaState& s) {
    return s.health != ReplicaHealth::kDegraded;
  });
}

Supervisor::ReplicaReport Supervisor::report(ReplicaIndex r) const {
  const ReplicaState& state = replicas_[static_cast<std::size_t>(index_of(r))];
  const trace::MetricsRegistry& registry = metrics();
  ReplicaReport report;
  report.health = state.health;
  report.faults_seen = registry.counter(state.metric_prefix + ".faults_seen");
  report.restarts =
      static_cast<int>(registry.counter(state.metric_prefix + ".restarts"));
  report.detections_within_bound =
      registry.counter(state.metric_prefix + ".detections_within_bound");
  if (const auto* s =
          registry.find_series(state.metric_prefix + ".detection_latency_ns")) {
    report.detection_latencies = s->samples();
  }
  if (const auto* s =
          registry.find_series(state.metric_prefix + ".repair_time_ns")) {
    report.repair_times = s->samples();
  }
  return report;
}

rtc::TimeNs backoff_duration(const Supervisor::Config& config,
                             std::uint64_t restarts) {
  // The clamp is applied *before* exponentiation: the naive multiply loop
  // overflowed to inf for large restart counts, and casting an
  // out-of-double-range value to TimeNs is undefined behavior. Any restart
  // count at or past the saturation point log_factor(max/initial) yields
  // max_backoff exactly.
  if (restarts == 0 || config.initial_backoff == 0) {
    return std::min(config.initial_backoff, config.max_backoff);
  }
  if (config.backoff_factor <= 1.0) {
    return std::min(config.initial_backoff, config.max_backoff);
  }
  const double initial = static_cast<double>(config.initial_backoff);
  const double cap = static_cast<double>(config.max_backoff);
  const double saturation =
      std::log(cap / initial) / std::log(config.backoff_factor);
  if (static_cast<double>(restarts) >= saturation) return config.max_backoff;
  const double backoff =
      initial * std::pow(config.backoff_factor, static_cast<double>(restarts));
  if (backoff >= cap) return config.max_backoff;
  return static_cast<rtc::TimeNs>(backoff);
}

rtc::TimeNs Supervisor::backoff_for(const ReplicaState& state) const {
  return backoff_duration(config_,
                          metrics().counter(state.metric_prefix + ".restarts"));
}

void Supervisor::on_detection(const DetectionRecord& record) {
  ReplicaState& state =
      replicas_[static_cast<std::size_t>(index_of(record.replica))];
  // Both channels may convict the same fault (e.g. replicator overflow then
  // selector stall); only the first verdict per fault episode acts.
  if (state.health != ReplicaHealth::kHealthy) return;

  metrics().add(state.metric_prefix + ".faults_seen");
  state.convicted_at = record.detected_at;
  if (state.last_injection >= 0 && record.detected_at >= state.last_injection) {
    const rtc::TimeNs latency = record.detected_at - state.last_injection;
    metrics().record(state.metric_prefix + ".detection_latency_ns", latency);
    if (config_.detection_latency_bound > 0 &&
        latency <= config_.detection_latency_bound) {
      metrics().add(state.metric_prefix + ".detections_within_bound");
    }
    state.last_injection = -1;  // consumed by this detection
  }

  if (metrics().counter(state.metric_prefix + ".restarts") >=
      static_cast<std::uint64_t>(config_.restart_budget)) {
    // Budget exhausted: stop repairing. Conviction semantics keep the
    // network live on the peer replica (graceful degradation).
    transition(state, record.replica, ReplicaHealth::kDegraded);
    return;
  }
  if (config_.shared_budget != nullptr && !config_.shared_budget->try_acquire()) {
    // The fleet-wide pool is dry: this replica degrades even though its own
    // budget had headroom — repair capacity is a shared resource.
    metrics().add(config_.name + ".pool_exhausted");
    transition(state, record.replica, ReplicaHealth::kDegraded);
    return;
  }

  transition(state, record.replica, ReplicaHealth::kConvicted);
  schedule_restart(record.replica);
}

void Supervisor::schedule_restart(ReplicaIndex r) {
  ReplicaState& state = replicas_[static_cast<std::size_t>(index_of(r))];
  sim_.schedule_after(backoff_for(state),
                      [this, r, generation = state.generation] {
                        ReplicaState& s =
                            replicas_[static_cast<std::size_t>(index_of(r))];
                        if (s.generation != generation) return;
                        if (s.health != ReplicaHealth::kConvicted) return;
                        // A hung supervisor core drops its own timer work:
                        // the restart is lost until the hardware watchdog
                        // resets the core and re-schedules it.
                        if (hung_) return;
                        perform_restart(r);
                      });
}

void Supervisor::perform_restart(ReplicaIndex r) {
  ReplicaState& state = replicas_[static_cast<std::size_t>(index_of(r))];
  transition(state, r, ReplicaHealth::kRestarting);
  ++state.generation;

  // Quiesce the replica before tearing down its coroutines: after the
  // freezes, no channel fires a wake into the old frames (the epoch bump in
  // reintegrate then invalidates wakes already in flight).
  replicator_.freeze_reader(r);
  selector_.freeze_writer(r);
  recover_replica(replicator_, selector_, state.assets);

  metrics().add(state.metric_prefix + ".restarts");
  sim_.trace().emit(trace::EventKind::kRestart, subject_, sim_.now(), index_of(r),
                    static_cast<std::int64_t>(
                        metrics().counter(state.metric_prefix + ".restarts")));
  if (state.convicted_at >= 0) {
    metrics().record(state.metric_prefix + ".repair_time_ns",
                     sim_.now() - state.convicted_at);
    state.convicted_at = -1;
  }
  transition(state, r, ReplicaHealth::kHealthy);
}

void Supervisor::attach_watchdog(scc::WatchdogTimer* watchdog, int channel) {
  SCCFT_EXPECTS(watchdog != nullptr);
  SCCFT_EXPECTS(channel >= 0 && channel < watchdog->channel_count());
  watchdog_ = watchdog;
  watchdog_channel_ = channel;
}

void Supervisor::inject_hang() {
  hung_ = true;
  metrics().add(config_.name + ".hangs");
}

void Supervisor::tick() {
  // The tick models the supervisor core's timer interrupt, so it always
  // re-arms — a hung core still takes interrupts, it just does nothing
  // useful in them (no heartbeat, no watchdog kick, so the deadline runs
  // out and the hardware path below fires).
  sim_.schedule_after(config_.heartbeat_period, [this] { tick(); });
  if (hung_) return;
  ++heartbeats_;
  metrics().add(config_.name + ".heartbeats");
  sim_.trace().emit(trace::EventKind::kHeartbeat, subject_, sim_.now(),
                    static_cast<std::int64_t>(heartbeats_));
  if (watchdog_ != nullptr) watchdog_->kick(watchdog_channel_);
}

void Supervisor::on_self_watchdog_reset() {
  clear_hang();
  metrics().add(config_.name + ".watchdog_resets");
  // Repair what the hang broke. Restart timers that fired while hung were
  // swallowed (schedule_restart's hung_ guard), so every still-convicted
  // replica gets a fresh one; detections the BusSink missed are still
  // latched in the channels' verdict state and can be re-driven.
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    const auto r = static_cast<ReplicaIndex>(i);
    ReplicaState& state = replicas_[i];
    if (state.health == ReplicaHealth::kConvicted) {
      schedule_restart(r);
    } else if (state.health == ReplicaHealth::kHealthy) {
      std::optional<DetectionRecord> standing = replicator_.detection(r);
      if (!standing) standing = selector_.detection(r);
      if (standing) on_detection(*standing);
    }
  }
}

void Supervisor::on_core_watchdog_reset(ReplicaIndex replica) {
  // The reset line is hardware: it convicts through the ordinary detection
  // path (budget, backoff, degradation all apply) but never through the
  // hung_-gated bus sink.
  const ReplicaState& state =
      replicas_[static_cast<std::size_t>(index_of(replica))];
  if (state.health != ReplicaHealth::kHealthy) return;
  on_detection(DetectionRecord{replica, DetectionRule::kWatchdogTimeout,
                               sim_.now()});
}

void Supervisor::transition(ReplicaState& state, ReplicaIndex r, ReplicaHealth to) {
  transitions_.push_back(HealthTransition{r, state.health, to, sim_.now()});
  sim_.trace().emit(trace::EventKind::kHealthTransition, subject_, sim_.now(),
                    index_of(r), static_cast<std::int64_t>(state.health),
                    static_cast<std::int64_t>(to));
  state.health = to;
}

}  // namespace sccft::ft
