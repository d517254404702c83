// Automated fault supervision (extension beyond the paper).
//
// The paper detects faults (Section 3.3) and the recovery extension
// (ft/recovery.hpp) can repair a replica — but somebody has to connect the
// two. The Supervisor closes the loop: it subscribes to every detection
// verdict of the replicator and selector, and drives each replica through a
// small health state machine:
//
//             detection                restart fires
//   kHealthy ----------> kConvicted ----------------> kRestarting
//      ^                     |  restart budget             |
//      |                     |  exhausted                  | recover_replica
//      |                     v                             | done
//      |                kDegraded  (terminal)              |
//      +---------------------------------------------------+
//
// Restarts are spaced by exponential backoff in *simulated* time
// (initial_backoff x factor^restarts, capped), modelling the real cost of
// rebooting an SCC core plus a damping margin against restart storms on a
// flapping replica. When a replica exhausts its restart budget the
// supervisor stops repairing it and the system degrades gracefully to
// single-replica pass-through: the paper's conviction semantics already
// guarantee the producer and consumer keep running on the healthy replica,
// so degradation needs no extra mechanics — only the decision to stop
// restarting.
//
// The supervisor also keeps per-replica health accounting: faults seen,
// restarts spent, detection latencies (checked against the Eq. (6)-(8)
// analytic bound when one is configured), and mean time to repair. The
// accounting lives in the simulator's MetricsRegistry (counters
// "supervisor.R<i>.faults_seen" / ".restarts" / ".detections_within_bound",
// series ".detection_latency_ns" / ".repair_time_ns"); report() assembles the
// ReplicaReport view from the registry on demand, so harnesses can read the
// same numbers without going through the supervisor at all.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ft/fault_plan.hpp"
#include "ft/recovery.hpp"
#include "ft/replica.hpp"
#include "ft/replicator.hpp"
#include "ft/selector.hpp"
#include "rtc/time.hpp"
#include "sim/simulator.hpp"
#include "trace/bus.hpp"

namespace sccft::scc {
class WatchdogTimer;
}  // namespace sccft::scc

namespace sccft::ft {

enum class ReplicaHealth {
  kHealthy,     ///< participating in duplicate execution
  kConvicted,   ///< detected faulty, restart pending (backoff running)
  kRestarting,  ///< recovery sequence executing
  kDegraded,    ///< restart budget exhausted; permanently excluded
};

[[nodiscard]] std::string to_string(ReplicaHealth health);

/// Restart budget shared across a fleet of supervisors (ft/fleet.hpp): every
/// restart must win a unit here in addition to the replica's own budget, so
/// a handful of flapping streams cannot consume unbounded repair capacity.
/// Plain counters — deterministic in the single-threaded simulator.
struct RestartBudgetPool {
  int capacity = 0;
  int used = 0;

  [[nodiscard]] bool exhausted() const { return used >= capacity; }
  [[nodiscard]] bool try_acquire() {
    if (used >= capacity) return false;
    ++used;
    return true;
  }
};

/// One edge of the health state machine, for post-run inspection.
struct HealthTransition {
  ReplicaIndex replica = ReplicaIndex::kReplica1;
  ReplicaHealth from = ReplicaHealth::kHealthy;
  ReplicaHealth to = ReplicaHealth::kHealthy;
  rtc::TimeNs at = 0;
};

/// Watches detection verdicts and drives restart/reintegration automatically.
class Supervisor final {
 public:
  struct Config {
    /// Restarts allowed per replica before it is declared kDegraded.
    int restart_budget = 3;
    /// Backoff before the first restart of a replica.
    rtc::TimeNs initial_backoff = 20'000'000;  // 20 ms
    /// Backoff grows by this factor with every restart already spent.
    double backoff_factor = 2.0;
    /// Backoff ceiling.
    rtc::TimeNs max_backoff = 500'000'000;  // 500 ms
    /// Analytic detection-latency bound (Eq. 6-8); 0 disables the check.
    rtc::TimeNs detection_latency_bound = 0;
    /// Liveness-beacon period: every `heartbeat_period` ns the supervisor
    /// emits kHeartbeat and kicks its watchdog channel (if attached).
    /// 0 (the default) disables the tick entirely — existing rigs keep
    /// byte-identical event schedules.
    rtc::TimeNs heartbeat_period = 0;
    /// Trace-subject name and metric-prefix stem ("<name>.R<i>.faults_seen").
    /// Fleets run one supervisor per stream; distinct names keep their
    /// accounting separate in the shared MetricsRegistry.
    std::string name = "supervisor";
    /// When non-empty, only kInjection events from this trace subject seed
    /// detection-latency samples. Empty (default) accepts any injection —
    /// correct for single-stream rigs, wrong at fleet scale where another
    /// stream's campaign would contaminate this supervisor's latencies.
    std::string injection_subject;
    /// Optional fleet-shared restart pool: a conviction consumes a unit here
    /// in addition to the per-replica budget; an empty pool degrades the
    /// replica. Null (default) = per-replica budget only. Must outlive the
    /// supervisor.
    RestartBudgetPool* shared_budget = nullptr;
  };

  /// Health accounting for one replica.
  struct ReplicaReport {
    ReplicaHealth health = ReplicaHealth::kHealthy;
    std::uint64_t faults_seen = 0;   ///< detections acted upon
    int restarts = 0;                ///< recoveries performed
    /// Detection latencies (detection minus the matching injection), for
    /// detections with a known injection time.
    std::vector<rtc::TimeNs> detection_latencies;
    std::uint64_t detections_within_bound = 0;
    /// Repair times (reintegration minus detection), one per restart.
    std::vector<rtc::TimeNs> repair_times;

    [[nodiscard]] std::optional<rtc::TimeNs> mean_time_to_repair() const;
    [[nodiscard]] std::optional<rtc::TimeNs> mean_detection_latency() const;
  };

  /// Subscribes to both channels' verdicts (kDetection events on the
  /// simulator's trace bus) and to kInjection events, which timestamp
  /// latency samples automatically. The channels must be 2 replicas wide.
  /// `assets` describe what recovery must touch per replica (index 0 =
  /// kReplica1); their pointers must outlive the supervisor.
  Supervisor(sim::Simulator& sim, ReplicatorChannel& replicator,
             SelectorChannel& selector, std::array<ReplicaAssets, 2> assets,
             Config config);
  Supervisor(sim::Simulator& sim, ReplicatorChannel& replicator,
             SelectorChannel& selector, std::array<ReplicaAssets, 2> assets);
  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Timestamps a fault injection so the next detection of `replica` gets a
  /// latency sample. A FaultCampaign needs no wiring for this: its
  /// activations travel the bus as kInjection events, and the supervisor's
  /// own subscription records every data-path one (control-plane kinds have
  /// no replica victim and are skipped):
  ///   Supervisor supervisor(sim, replicator, selector, assets, config);
  ///   FaultCampaign campaign(sim, wiring);  // activations reach `supervisor`
  /// Call it directly only for injections that bypass the bus.
  void note_fault_injected(ReplicaIndex replica, rtc::TimeNs at);

  [[nodiscard]] ReplicaHealth health(ReplicaIndex r) const {
    return replicas_[static_cast<std::size_t>(index_of(r))].health;
  }
  /// Assembled from the metrics registry on demand (the registry is the
  /// single source of truth; this is a snapshot view of it).
  [[nodiscard]] ReplicaReport report(ReplicaIndex r) const;
  [[nodiscard]] const std::vector<HealthTransition>& transitions() const {
    return transitions_;
  }
  /// True while at least one replica is not degraded (the system still
  /// delivers tokens; with both degraded only the single-fault hypothesis
  /// was violated beyond repair).
  [[nodiscard]] bool any_replica_serviceable() const;

  // --- control-plane fault tolerance (scc/watchdog, ft/scrub) --------------

  /// Ties this supervisor to `channel` of a hardware watchdog: every
  /// heartbeat tick kicks it, and the channel's ResetHandler should call
  /// on_self_watchdog_reset(). Call before the watchdog is armed.
  void attach_watchdog(scc::WatchdogTimer* watchdog, int channel);

  /// Fault hook (kSupervisorHang): while hung the supervisor swallows every
  /// bus event, scheduled restarts are dropped on fire, and the heartbeat
  /// stays silent. The tick keeps *rescheduling itself* — a hung core still
  /// burns timer interrupts; it just does no useful work in them.
  void inject_hang();
  /// Self-recovery end of a bounded hang (kSupervisorHang with duration).
  void clear_hang() { hung_ = false; }
  [[nodiscard]] bool hung() const { return hung_; }
  [[nodiscard]] std::uint64_t heartbeats() const { return heartbeats_; }

  /// Hardware watchdog fired on the *supervisor's* tile: model of the reset
  /// line un-wedging the core. Clears the hang, then repairs what the hang
  /// broke: re-schedules the restart of every convicted replica (the backoff
  /// timers that fired while hung were swallowed) and re-drives standing
  /// channel detections that were masked.
  void on_self_watchdog_reset();

  /// Hardware watchdog fired on a replica core's tile. Feeds the ordinary
  /// detection path (DetectionRule::kWatchdogTimeout), so conviction,
  /// backoff, and the restart budget all apply unchanged. Bypasses the hang
  /// gate: the watchdog is hardware, a hung supervisor cannot mask it.
  void on_core_watchdog_reset(ReplicaIndex replica);

 private:
  struct ReplicaState {
    ReplicaAssets assets;
    ReplicaHealth health = ReplicaHealth::kHealthy;
    std::string metric_prefix;         ///< "supervisor.R1" / "supervisor.R2"
    rtc::TimeNs last_injection = -1;   ///< most recent un-consumed injection
    rtc::TimeNs convicted_at = -1;     ///< detection time of the open fault
    std::uint64_t generation = 0;      ///< guards scheduled restarts
  };

  /// Bus subscription: verdicts (kDetection from either channel) drive the
  /// state machine, kInjection events timestamp latency samples.
  class BusSink final : public trace::Sink {
   public:
    explicit BusSink(Supervisor& owner) : owner_(owner) {}
    void on_event(const trace::Event& event) override;

   private:
    Supervisor& owner_;
  };

  void on_detection(const DetectionRecord& record);
  void perform_restart(ReplicaIndex r);
  void schedule_restart(ReplicaIndex r);
  void tick();
  void transition(ReplicaState& state, ReplicaIndex r, ReplicaHealth to);
  [[nodiscard]] rtc::TimeNs backoff_for(const ReplicaState& state) const;
  [[nodiscard]] trace::MetricsRegistry& metrics() const {
    return sim_.trace().metrics();
  }

  sim::Simulator& sim_;
  ReplicatorChannel& replicator_;
  SelectorChannel& selector_;
  Config config_;
  trace::SubjectId subject_;
  std::optional<trace::SubjectId> injection_filter_;
  std::array<ReplicaState, 2> replicas_;
  std::vector<HealthTransition> transitions_;
  BusSink sink_;
  bool hung_ = false;
  std::uint64_t heartbeats_ = 0;
  scc::WatchdogTimer* watchdog_ = nullptr;
  int watchdog_channel_ = -1;
};

/// Closed-form exponential backoff: min(initial * factor^restarts, max), with
/// the clamp applied before exponentiation so arbitrarily large restart
/// counts saturate to max_backoff instead of overflowing through double
/// infinity (casting an out-of-range double to TimeNs is undefined behavior).
[[nodiscard]] rtc::TimeNs backoff_duration(const Supervisor::Config& config,
                                           std::uint64_t restarts);

}  // namespace sccft::ft
