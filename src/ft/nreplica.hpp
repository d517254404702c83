// N-replica generalization of the replicator and selector channels.
//
// The paper (Section 1): "Without loss of generality, we focus on tolerating
// at most one permanent timing fault, using two replicas ... a more general
// setup for tolerating up to n timing faults can be easily constructed using
// the principles outlined in this paper." This module constructs it:
//
//  * NReplicatorChannel — one FIFO per replica, the producer's write is
//    duplicated into every non-faulty queue; a queue found full at a write
//    attempt marks its replica faulty (the Eq. (3) capacities make that
//    impossible for healthy replicas). Tolerates up to N-1 faults.
//  * NSelectorChannel — one write interface per replica, one physical FIFO.
//    Interface i's k-th token is the first of duplicate group k iff no peer
//    has delivered k tokens yet (received-count test, the exact form of the
//    paper's space comparison); later group members are dropped. Detection:
//    stall rule (space_i > |S_i|) and divergence rule (received count lags
//    the leader by >= D). Multiple replicas can be convicted over time, up
//    to N-1.
//
// Sizing is the per-replica application of Eq. (3)-(5):
//   |R_i| = sup(alpha_P^u - alpha_{i,in}^l),
//   |S_i|_0 = sup(alpha_C^u - alpha_{i,out}^l),
//   |S_i| = |S_i|_0 + sup(alpha_{i,out}^u - alpha_C^l),
//   D = 1 + max over ordered pairs (i, j) of sup(alpha_i^u - alpha_j^l).
#pragma once

#include <coroutine>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "ft/replica.hpp"
#include "ft/scrub.hpp"
#include "kpn/channel.hpp"
#include "rtc/sizing.hpp"
#include "sim/simulator.hpp"

namespace sccft::ft {

/// Detection record for the N-replica channels (replica index is an int).
struct NDetectionRecord {
  int replica = 0;
  DetectionRule rule = DetectionRule::kReplicatorOverflow;
  rtc::TimeNs detected_at = 0;
};

using NFaultObserver = std::function<void(const NDetectionRecord&)>;

/// Per-replica timing models for the N-replica sizing analysis.
struct NReplicaTimingModel {
  rtc::CurveRef producer_upper, producer_lower;
  rtc::CurveRef consumer_upper, consumer_lower;
  std::vector<rtc::CurveRef> in_upper, in_lower;    // one per replica
  std::vector<rtc::CurveRef> out_upper, out_lower;  // one per replica
};

struct NSizingReport {
  std::vector<rtc::Tokens> replicator_capacity;  // |R_i|
  std::vector<rtc::Tokens> selector_capacity;    // |S_i|
  std::vector<rtc::Tokens> selector_initial;     // |S_i|_0
  rtc::Tokens divergence_threshold = 0;          // D
  rtc::TimeNs replicator_overflow_bound = 0;     // max_i (Eq. 3 fill time)
  rtc::TimeNs selector_latency_bound = 0;        // Eq. (7)/(8) over all pairs

  bool operator==(const NSizingReport&) const = default;
};

/// Runs the Section 3.4 analysis for N replicas. Throws on infeasible bounds.
[[nodiscard]] NSizingReport analyze_n_replica_network(const NReplicaTimingModel& model,
                                                      rtc::TimeNs horizon);

/// Platform cost of one protection level, in the three resources the SCC
/// budget is spent in: replica cores, MPB bytes for the channel queues, and
/// mesh links for the duplicated producer->replica->consumer hops. One shared
/// definition so the replica-count ablation, the vulnerability-guided
/// planner, and the fleet placement accounting can never drift apart.
struct ReplicationCost {
  int cores = 0;             ///< replica processes (producer/consumer excluded)
  std::size_t mpb_bytes = 0; ///< all queue slots (Eq. (3) + Eq. (4)) x token size
  int noc_links = 0;         ///< producer->R_i plus R_i->consumer hops

  [[nodiscard]] bool operator==(const ReplicationCost&) const = default;
};

/// Cost of an N-replicated stream under `sizing` (N = the report's width).
[[nodiscard]] ReplicationCost replication_cost(const NSizingReport& sizing,
                                               std::size_t token_bytes);

/// Cost of an unprotected (N = 1) stream: one core, one plain FIFO, two hops.
[[nodiscard]] ReplicationCost unreplicated_cost(rtc::Tokens fifo_capacity,
                                                std::size_t token_bytes);

/// Replicator channel with N reading interfaces.
class NReplicatorChannel final : public kpn::ChannelBase,
                                 public kpn::TokenSink,
                                 public Scrubbable {
 public:
  NReplicatorChannel(sim::Simulator& sim, std::string name,
                     std::vector<rtc::Tokens> capacities);

  [[nodiscard]] int replica_count() const { return static_cast<int>(queues_.size()); }
  [[nodiscard]] kpn::TokenSource& read_interface(int replica);

  // TokenSink (producer)
  [[nodiscard]] bool try_write(const kpn::Token& token) override;
  void await_writable(std::coroutine_handle<> writer) override;
  [[nodiscard]] std::string sink_name() const override { return name_; }

  // ChannelBase
  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] kpn::ChannelStats stats() const override;

  [[nodiscard]] bool fault(int replica) const;
  [[nodiscard]] std::optional<NDetectionRecord> detection(int replica) const;
  [[nodiscard]] rtc::Tokens fill(int replica) const;
  [[nodiscard]] rtc::Tokens max_fill(int replica) const;
  [[nodiscard]] int healthy_count() const;

  void set_fault_observer(NFaultObserver observer) { observer_ = std::move(observer); }

  /// Halts reads on interface `replica` (silence-fault injection support).
  /// A parked reader's handle is retained so unfreeze_reader can resume it.
  void freeze_reader(int replica);
  /// Lifts a freeze_reader; wakes the parked reader if tokens are available.
  void unfreeze_reader(int replica);

  /// Re-admits a restarted replica: clears the fault verdict, reopens the
  /// queue at the producer's CURRENT position (stale slots are discarded —
  /// the peers delivered them while this replica was down), and bumps the
  /// wake epoch so wakes aimed at the destroyed coroutine frame are dropped.
  /// Mirrors ReplicatorChannel::reintegrate for the 2-replica channel.
  void reintegrate(int replica);

  // Scrubbable: word order is {queue_0.capacity, ..., queue_{N-1}.capacity}.
  [[nodiscard]] std::string scrub_name() const override { return name_; }
  [[nodiscard]] int control_word_count() const override { return scrub_set_.size(); }
  void corrupt_control_word(int word, int copy, std::uint64_t mask) override {
    scrub_set_.corrupt(word, copy, mask);
  }
  [[nodiscard]] ScrubReport scrub_control_state() override { return scrub_set_.scrub(); }

 private:
  struct Queue {
    Tmr<rtc::Tokens> capacity = 0;  ///< TMR-protected (see Scrubbable above)
    std::deque<kpn::Token> slots;
    std::coroutine_handle<> waiting_reader;
    bool reader_frozen = false;
    bool fault = false;
    std::optional<NDetectionRecord> detection;
    rtc::Tokens max_fill = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    /// Restart generation: wakes scheduled before a reintegrate must not
    /// resume the coroutine frame the restart destroyed.
    std::uint64_t epoch = 0;
  };

  class ReadInterface final : public kpn::TokenSource {
   public:
    ReadInterface(NReplicatorChannel& owner, int replica)
        : owner_(owner), replica_(replica) {}
    [[nodiscard]] std::optional<kpn::Token> try_read() override {
      return owner_.queue_try_read(replica_);
    }
    void await_readable(std::coroutine_handle<> reader) override {
      owner_.queue_await_readable(replica_, reader);
    }
    [[nodiscard]] std::string source_name() const override {
      return owner_.name_ + ".r" + std::to_string(replica_);
    }

   private:
    NReplicatorChannel& owner_;
    int replica_;
  };

  [[nodiscard]] std::optional<kpn::Token> queue_try_read(int replica);
  void queue_await_readable(int replica, std::coroutine_handle<> reader);
  void declare_fault(int replica);
  /// Schedules an epoch-guarded resume of `reader` (re-parks it if a freeze
  /// lands before the wake fires).
  void wake_reader(Queue& queue, std::coroutine_handle<> reader);

  sim::Simulator& sim_;
  std::string name_;
  std::vector<Queue> queues_;
  std::vector<std::unique_ptr<ReadInterface>> interfaces_;
  std::coroutine_handle<> waiting_writer_;
  NFaultObserver observer_;
  std::uint64_t dropped_ = 0;
  ScrubSet scrub_set_;
};

/// Selector channel with N writing interfaces.
class NSelectorChannel final : public kpn::ChannelBase,
                               public kpn::TokenSource,
                               public Scrubbable {
 public:
  struct Config {
    std::vector<rtc::Tokens> capacities;  // |S_i|
    std::vector<rtc::Tokens> initials;    // |S_i|_0
    rtc::Tokens divergence_threshold = 0; // D; 0 disables the divergence rule
    bool enable_stall_rule = true;
    /// Detection rule (c) for the N-selector: verify each arriving token's
    /// CRC-32; a mismatch is quarantined (received does not advance) and
    /// repeated mismatches convict the side, mirroring SelectorChannel.
    bool verify_checksums = false;
    int corruption_conviction_threshold = 3;
    /// Majority-vote delivery: arrivals are buffered per duplicate group and
    /// groups are resolved strictly in order. A group resolves as soon as a
    /// strict majority of the non-convicted sides agree on a payload
    /// fingerprint (the earliest agreeing arrival is delivered and any
    /// dissenting side is convicted by rule kSelectorVote), or — failing a
    /// majority once every live side has reported — by delivering the first
    /// arrival and counting a vote_conflict (detect-only: with N=2 there is
    /// no majority to out-vote a silent corrupter). Requires every capacity
    /// to exceed the divergence threshold so a healthy leader reaches the
    /// rule (b) verdict against a stalled laggard before exhausting its own
    /// space, and does not support reintegrate() (no restart path).
    bool enable_payload_vote = false;
  };

  using WriteTamper = std::function<kpn::Token(const kpn::Token&)>;

  NSelectorChannel(sim::Simulator& sim, std::string name, Config config);

  [[nodiscard]] int replica_count() const { return static_cast<int>(sides_.size()); }
  [[nodiscard]] kpn::TokenSink& write_interface(int replica);

  // TokenSource (consumer)
  [[nodiscard]] std::optional<kpn::Token> try_read() override;
  void await_readable(std::coroutine_handle<> reader) override;
  [[nodiscard]] std::string source_name() const override { return name_; }

  // ChannelBase
  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] kpn::ChannelStats stats() const override { return stats_; }

  [[nodiscard]] rtc::Tokens space(int replica) const;
  [[nodiscard]] std::uint64_t tokens_received(int replica) const;
  [[nodiscard]] bool fault(int replica) const;
  [[nodiscard]] std::optional<NDetectionRecord> detection(int replica) const;
  [[nodiscard]] rtc::Tokens fill() const {
    return static_cast<rtc::Tokens>(queue_.size());
  }
  [[nodiscard]] int healthy_count() const;

  void set_fault_observer(NFaultObserver observer) { observer_ = std::move(observer); }

  /// Installs a fault-injection tamper on interface `replica`: every arriving
  /// token is passed through it before rule (c) / the vote (mirrors
  /// SelectorChannel::set_write_tamper).
  void set_write_tamper(int replica, WriteTamper tamper);

  [[nodiscard]] std::uint64_t crc_mismatches(int replica) const;
  /// Duplicate groups where every live side reported but no strict majority
  /// fingerprint existed (vote mode only; N=2's detect-without-mask case).
  [[nodiscard]] std::uint64_t vote_conflicts() const { return vote_conflicts_; }
  /// Tokens whose fingerprint lost a resolved vote (dissenter arrivals).
  [[nodiscard]] std::uint64_t votes_outvoted() const { return votes_outvoted_; }

  /// Halts writes on interface `replica` (silence-fault injection support).
  /// A parked writer's handle is retained so unfreeze_writer can resume it.
  void freeze_writer(int replica);
  /// Lifts a freeze_writer; wakes the parked writer if it can proceed.
  void unfreeze_writer(int replica);

  /// Re-admits a restarted replica: clears the fault verdict, resets the
  /// space budget to capacity - initial, and marks the side resync-pending.
  /// The side's first write then re-anchors its received counter against the
  /// most advanced peer by sequence number (and is HELD at the delivered
  /// frontier while a healthy peer still has the missing tokens in its
  /// pipeline), so duplicate-group identity stays exact despite the tokens
  /// this replica missed while down. Mirrors SelectorChannel::reintegrate.
  void reintegrate(int replica);

  // Scrubbable: word order is per side {capacity, initial, space, received,
  // last_seq} for sides 0..N-1, then {last_enqueued_seq_,
  // divergence_threshold_}.
  [[nodiscard]] std::string scrub_name() const override { return name_; }
  [[nodiscard]] int control_word_count() const override { return scrub_set_.size(); }
  void corrupt_control_word(int word, int copy, std::uint64_t mask) override {
    scrub_set_.corrupt(word, copy, mask);
  }
  [[nodiscard]] ScrubReport scrub_control_state() override { return scrub_set_.scrub(); }

 private:
  // TMR-protected like SelectorChannel::Side (see ft/scrub.hpp).
  struct Side {
    Tmr<rtc::Tokens> capacity = 0;
    Tmr<rtc::Tokens> space = 0;
    Tmr<rtc::Tokens> initial = 0;  ///< |S_i|_0, restored by reintegrate()
    Tmr<std::uint64_t> received = 0;
    Tmr<std::uint64_t> last_seq = 0;  ///< seq of the last counted token
    /// Sequence of the write last refused by the rejoin frontier hold;
    /// wake_writers only resumes the held writer once the hold has lifted.
    std::uint64_t held_seq = 0;
    std::coroutine_handle<> waiting_writer;
    bool writer_frozen = false;
    bool fault = false;
    /// Set by reintegrate(); cleared when the first post-rejoin write
    /// re-anchors the counters. While set, stall/divergence are suspended
    /// for this side (its counters refer to the pre-fault epoch).
    bool resync_pending = false;
    std::optional<NDetectionRecord> detection;
    /// Restart generation guarding scheduled wakes (see Queue::epoch).
    std::uint64_t epoch = 0;
    WriteTamper tamper;
    std::uint64_t crc_mismatches = 0;
  };

  class WriteInterface final : public kpn::TokenSink {
   public:
    WriteInterface(NSelectorChannel& owner, int replica)
        : owner_(owner), replica_(replica) {}
    [[nodiscard]] bool try_write(const kpn::Token& token) override {
      return owner_.side_try_write(replica_, token);
    }
    void await_writable(std::coroutine_handle<> writer) override {
      owner_.side_await_writable(replica_, writer);
    }
    [[nodiscard]] std::string sink_name() const override {
      return owner_.name_ + ".w" + std::to_string(replica_);
    }

   private:
    NSelectorChannel& owner_;
    int replica_;
  };

  [[nodiscard]] bool side_try_write(int replica, const kpn::Token& token);
  void side_await_writable(int replica, std::coroutine_handle<> writer);
  void declare_fault(int replica, DetectionRule rule);
  void check_divergence();
  void wake_reader();
  void wake_writers();
  [[nodiscard]] bool frontier_hold_active(std::size_t i) const;
  /// Vote mode: enqueue for delivery behind the seq-monotone guard.
  void enqueue_for_delivery(const kpn::Token& token);
  /// Vote mode: records side `replica`'s member of duplicate group `group`.
  void note_vote_arrival(int replica, std::uint64_t group, const kpn::Token& token);
  /// Vote mode: resolves pending groups starting at next_resolve_group_ for
  /// as long as a verdict (majority or all-live-reported) is available.
  void resolve_ready_groups();

  sim::Simulator& sim_;
  std::string name_;
  std::vector<Side> sides_;
  std::vector<std::unique_ptr<WriteInterface>> interfaces_;
  std::deque<kpn::Token> queue_;
  /// Highest sequence number ever enqueued for delivery (-1 before the
  /// first); keeps the delivered stream strictly increasing under arrival-
  /// count skew (see side_try_write).
  Tmr<std::int64_t> last_enqueued_seq_ = -1;
  Tmr<rtc::Tokens> divergence_threshold_ = 0;
  bool enable_stall_rule_ = true;
  bool verify_checksums_ = false;
  int corruption_conviction_threshold_ = 3;
  bool enable_payload_vote_ = false;
  std::coroutine_handle<> waiting_reader_;
  kpn::ChannelStats stats_;
  NFaultObserver observer_;
  ScrubSet scrub_set_;

  // --- vote-mode state (empty unless enable_payload_vote_) ---
  struct GroupArrival {
    int replica = 0;
    kpn::Token token;
  };
  /// Buffered arrivals for groups >= next_resolve_group_, keyed by group.
  std::map<std::uint64_t, std::vector<GroupArrival>> pending_;
  /// Delivered fingerprint of majority-resolved groups, kept until every
  /// non-convicted side has passed the group (straggler cross-check).
  std::map<std::uint64_t, std::uint32_t> resolved_fp_;
  std::uint64_t next_resolve_group_ = 1;
  std::uint64_t vote_conflicts_ = 0;
  std::uint64_t votes_outvoted_ = 0;
  bool resolving_ = false;  ///< reentrancy guard: conviction inside a resolve
};

}  // namespace sccft::ft
