#include "chaos/oracle.hpp"

#include <algorithm>
#include <string>

#include "trace/bus.hpp"
#include "util/assert.hpp"

namespace sccft::chaos {
namespace {

std::string replica_tag(ft::ReplicaIndex r) {
  return "R" + std::to_string(ft::index_of(r) + 1);
}

bool legal_edge(ft::ReplicaHealth from, ft::ReplicaHealth to) {
  using H = ft::ReplicaHealth;
  return (from == H::kHealthy && to == H::kConvicted) ||
         (from == H::kHealthy && to == H::kDegraded) ||
         (from == H::kConvicted && to == H::kRestarting) ||
         (from == H::kRestarting && to == H::kHealthy);
}

}  // namespace

const char* to_string(ViolationCode code) {
  switch (code) {
    case ViolationCode::kContractViolation: return "contract-violation";
    case ViolationCode::kDuplicateDelivery: return "duplicate-delivery";
    case ViolationCode::kCorruptDelivery: return "corrupt-delivery";
    case ViolationCode::kGoldenMismatch: return "golden-mismatch";
    case ViolationCode::kUnjustifiedConviction: return "unjustified-conviction";
    case ViolationCode::kIllegalTransition: return "illegal-transition";
    case ViolationCode::kBudgetExceeded: return "budget-exceeded";
    case ViolationCode::kSpineInconsistent: return "spine-inconsistent";
    case ViolationCode::kSequenceGap: return "sequence-gap";
    case ViolationCode::kStalledStream: return "stalled-stream";
    case ViolationCode::kSilentSupervisor: return "silent-supervisor";
  }
  return "?";
}

ViolationCode violation_code_from_text(const std::string& tag) {
  for (const ViolationCode code :
       {ViolationCode::kContractViolation, ViolationCode::kDuplicateDelivery,
        ViolationCode::kCorruptDelivery, ViolationCode::kGoldenMismatch,
        ViolationCode::kUnjustifiedConviction, ViolationCode::kIllegalTransition,
        ViolationCode::kBudgetExceeded, ViolationCode::kSpineInconsistent,
        ViolationCode::kSequenceGap, ViolationCode::kStalledStream,
        ViolationCode::kSilentSupervisor}) {
    if (tag == to_string(code)) return code;
  }
  util::contract_failure("precondition", "tag is a known violation code",
                         __FILE__, __LINE__);
}

std::vector<Violation> check_invariants(const StormPlan& plan,
                                        const RunObservation& obs,
                                        const RunObservation& golden) {
  std::vector<Violation> violations;
  auto flag = [&](ViolationCode code, std::string detail) {
    violations.push_back(Violation{code, std::move(detail)});
  };

  if (obs.contract_violation) {
    flag(ViolationCode::kContractViolation, *obs.contract_violation);
  }

  // --- selector ordering and duplicate-freedom (unconditional) -------------
  bool gap_seen = false;
  rtc::TimeNs first_gap_prev = 0;
  for (std::size_t i = 1; i < obs.consumed_seqs.size(); ++i) {
    const std::uint64_t prev = obs.consumed_seqs[i - 1];
    const std::uint64_t seq = obs.consumed_seqs[i];
    if (seq <= prev) {
      flag(ViolationCode::kDuplicateDelivery,
           "seq " + std::to_string(seq) + " delivered after seq " +
               std::to_string(prev));
      break;
    }
    if (!gap_seen && seq > prev + 1) {
      gap_seen = true;
      first_gap_prev = static_cast<rtc::TimeNs>(prev);
    }
  }
  if (!obs.consumed_seqs.empty() && obs.consumed_seqs.front() > 0) {
    gap_seen = true;
    first_gap_prev = -1;
  }

  // --- Theorem-2 output equivalence against the golden run -----------------
  if (obs.corrupt_delivered > 0) {
    flag(ViolationCode::kCorruptDelivery,
         std::to_string(obs.corrupt_delivered) + " token(s) failed CRC");
  }
  {
    // Fingerprints keyed by sequence number; the golden run delivers each
    // seq exactly once, so the table is a direct index.
    std::vector<std::uint32_t> table;
    std::vector<bool> present;
    for (std::size_t i = 0; i < golden.consumed_seqs.size(); ++i) {
      const std::uint64_t seq = golden.consumed_seqs[i];
      if (seq >= table.size()) {
        table.resize(seq + 1, 0);
        present.resize(seq + 1, false);
      }
      table[seq] = golden.consumed_fingerprints[i];
      present[seq] = true;
    }
    for (std::size_t i = 0; i < obs.consumed_seqs.size(); ++i) {
      const std::uint64_t seq = obs.consumed_seqs[i];
      if (seq >= present.size() || !present[seq]) continue;  // beyond reference
      if (obs.consumed_fingerprints[i] != table[seq]) {
        flag(ViolationCode::kGoldenMismatch,
             "seq " + std::to_string(seq) + " payload differs from golden run");
        break;
      }
    }
  }

  // --- Lemma-1 conviction evidence -----------------------------------------
  const bool noc_in_plan =
      std::any_of(plan.faults.begin(), plan.faults.end(), [](const ft::FaultSpec& s) {
        return s.kind == ft::FaultKind::kNocLink;
      });
  // N-replica runs have no supervisor: the channels' own verdicts ARE the
  // conviction log, and each must trace back to a fault actually injected
  // against that replica index (the Lemma-1 obligation, rule-agnostic — a
  // stall, divergence, CRC, or vote verdict against an untouched replica is
  // a framework bug either way).
  if (!noc_in_plan) {
    for (const ft::DetectionRecord& detection : obs.n_detections) {
      const bool justified = std::any_of(
          obs.injections.begin(), obs.injections.end(),
          [&](const ft::FaultInjectionRecord& record) {
            return !ft::is_control_plane(record.kind) &&
                   record.victim == ft::index_of(detection.replica) &&
                   record.at <= detection.detected_at;
          });
      if (!justified) {
        flag(ViolationCode::kUnjustifiedConviction,
             "replica " + std::to_string(ft::index_of(detection.replica) + 1) +
                 " convicted by rule " + ft::to_string(detection.rule) + " at " +
                 std::to_string(detection.detected_at) +
                 " ns with no fault against it");
      }
    }
  }
  if (!noc_in_plan) {
    for (const ft::HealthTransition& transition : obs.transitions) {
      const bool conviction =
          transition.to == ft::ReplicaHealth::kConvicted ||
          (transition.from == ft::ReplicaHealth::kHealthy &&
           transition.to == ft::ReplicaHealth::kDegraded);
      if (!conviction) continue;
      const bool justified = std::any_of(
          obs.injections.begin(), obs.injections.end(),
          [&](const ft::FaultInjectionRecord& record) {
            // Control-plane injections carry no meaningful replica: they
            // attack the machinery, not a core, so they justify nothing — a
            // conviction caused by corrupted bookkeeping must be flagged.
            return !ft::is_control_plane(record.kind) &&
                   record.replica == transition.replica &&
                   record.at <= transition.at;
          });
      if (!justified) {
        flag(ViolationCode::kUnjustifiedConviction,
             replica_tag(transition.replica) + " convicted at " +
                 std::to_string(transition.at) + " ns with no fault against it");
      }
    }
  }

  // --- supervisor health-machine legality ----------------------------------
  ft::ReplicaHealth tracked[2] = {ft::ReplicaHealth::kHealthy,
                                  ft::ReplicaHealth::kHealthy};
  rtc::TimeNs last_at = 0;
  int restarts_per_replica[2] = {0, 0};
  std::uint64_t faults_seen_per_replica[2] = {0, 0};
  for (const ft::HealthTransition& transition : obs.transitions) {
    const auto r = static_cast<std::size_t>(ft::index_of(transition.replica));
    if (transition.at < last_at) {
      flag(ViolationCode::kIllegalTransition,
           "transition log runs backwards in time at " +
               std::to_string(transition.at) + " ns");
      break;
    }
    last_at = transition.at;
    if (transition.from != tracked[r] || !legal_edge(transition.from, transition.to)) {
      flag(ViolationCode::kIllegalTransition,
           replica_tag(transition.replica) + ": " + ft::to_string(transition.from) +
               " -> " + ft::to_string(transition.to) + " (tracked state " +
               ft::to_string(tracked[r]) + ")");
      break;
    }
    tracked[r] = transition.to;
    if (transition.to == ft::ReplicaHealth::kRestarting) ++restarts_per_replica[r];
    if (transition.to == ft::ReplicaHealth::kConvicted ||
        (transition.from == ft::ReplicaHealth::kHealthy &&
         transition.to == ft::ReplicaHealth::kDegraded)) {
      ++faults_seen_per_replica[r];
    }
  }
  for (int r = 0; r < 2; ++r) {
    if (obs.final_health[r] != tracked[r]) {
      flag(ViolationCode::kIllegalTransition,
           std::string("R") + std::to_string(r + 1) + " final health " +
               ft::to_string(obs.final_health[r]) +
               " does not match its transition log (" + ft::to_string(tracked[r]) +
               ")");
    }
    if (restarts_per_replica[r] > obs.restart_budget) {
      flag(ViolationCode::kBudgetExceeded,
           std::string("R") + std::to_string(r + 1) + " restarted " +
               std::to_string(restarts_per_replica[r]) + "x against a budget of " +
               std::to_string(obs.restart_budget));
    }
  }

  // --- trace-spine consistency ---------------------------------------------
  std::uint64_t counted = 0;
  for (std::size_t k = 0; k < trace::kEventKindCount; ++k) {
    const auto kind = static_cast<trace::EventKind>(k);
    if ((trace::kFlightRecorderMask & trace::bit(kind)) == 0) continue;
    counted += obs.metrics.counter(std::string("trace.events.") + trace::to_string(kind));
  }
  if (counted != obs.flight_total_events) {
    flag(ViolationCode::kSpineInconsistent,
         "flight recorder saw " + std::to_string(obs.flight_total_events) +
             " events but the counter sink totals " + std::to_string(counted));
  }
  for (int r = 0; r < 2; ++r) {
    const std::string prefix = "supervisor.R" + std::to_string(r + 1);
    const std::uint64_t restarts = obs.metrics.counter(prefix + ".restarts");
    if (restarts != static_cast<std::uint64_t>(restarts_per_replica[r])) {
      flag(ViolationCode::kSpineInconsistent,
           prefix + ".restarts = " + std::to_string(restarts) + " but the " +
               "transition log shows " + std::to_string(restarts_per_replica[r]));
    }
    const std::uint64_t faults_seen = obs.metrics.counter(prefix + ".faults_seen");
    if (faults_seen != faults_seen_per_replica[r]) {
      flag(ViolationCode::kSpineInconsistent,
           prefix + ".faults_seen = " + std::to_string(faults_seen) +
               " but the transition log shows " +
               std::to_string(faults_seen_per_replica[r]));
    }
  }

  // --- no-loss + liveness, gated on the Theorem-2 precondition -------------
  if (plan_is_lossless(plan.faults, obs.nreplica)) {
    if (gap_seen) {
      flag(ViolationCode::kSequenceGap,
           first_gap_prev < 0
               ? std::string("stream does not start at seq 0")
               : "gap after seq " + std::to_string(first_gap_prev) +
                     " on a lossless plan");
    }
    // The unsupervised N-rig's vote can legally hold delivery while an
    // unconvicted transient silence overlaps the end of the run (the rule (b)
    // verdict that would shrink the majority needs the leader to run D
    // tokens ahead first), so its floor allows one detection latency more.
    const rtc::TimeNs liveness_floor =
        plan.run_length - rtc::from_ms(obs.nreplica > 2 ? 200.0 : 100.0);
    if (obs.consumed_times.empty() || obs.consumed_times.back() < liveness_floor) {
      flag(ViolationCode::kStalledStream,
           obs.consumed_times.empty()
               ? std::string("nothing was ever delivered")
               : "last delivery at " + std::to_string(obs.consumed_times.back()) +
                     " ns, liveness floor " + std::to_string(liveness_floor) + " ns");
    }
  }

  // --- supervisor liveness (heartbeat), gated on a configured beacon -------
  if (obs.control_plane.enabled && obs.control_plane.heartbeat_period > 0) {
    // A healthy supervisor beats every heartbeat_period; a hung one that the
    // watchdog reset resumes within deadline + period. The floor allows both
    // plus slack — only a hang nothing ever cleared can undershoot it.
    const rtc::TimeNs heartbeat_floor =
        plan.run_length - (obs.control_plane.heartbeat_period +
                           obs.control_plane.watchdog_deadline + rtc::from_ms(50.0));
    if (obs.last_heartbeat < heartbeat_floor) {
      flag(ViolationCode::kSilentSupervisor,
           obs.last_heartbeat < 0
               ? std::string("no heartbeat was ever observed")
               : "last heartbeat at " + std::to_string(obs.last_heartbeat) +
                     " ns, floor " + std::to_string(heartbeat_floor) + " ns");
    }
    const std::uint64_t counted_beats = obs.metrics.counter("supervisor.heartbeats");
    if (counted_beats != obs.heartbeats) {
      flag(ViolationCode::kSpineInconsistent,
           "supervisor.heartbeats = " + std::to_string(counted_beats) +
               " but the bus observer saw " + std::to_string(obs.heartbeats));
    }
  }
  return violations;
}

}  // namespace sccft::chaos
