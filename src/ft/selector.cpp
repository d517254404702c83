#include "ft/selector.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace sccft::ft {

SelectorChannel::SelectorChannel(sim::Simulator& sim, std::string name, Config config)
    : sim_(sim),
      name_(std::move(name)),
      subject_(sim.trace().intern(name_)),
      sides_(config.capacities.size()),
      divergence_threshold_(config.divergence_threshold),
      enable_stall_rule_(config.enable_stall_rule),
      verify_checksums_(config.verify_checksums),
      corruption_conviction_threshold_(config.corruption_conviction_threshold),
      enable_payload_vote_(config.enable_payload_vote) {
  const std::size_t n = sides_.size();
  SCCFT_EXPECTS(n >= 2);
  SCCFT_EXPECTS(config.initials.empty() || config.initials.size() == n);
  SCCFT_EXPECTS(config.links.empty() || config.links.size() == n);
  SCCFT_EXPECTS(config.divergence_threshold >= 0);
  SCCFT_EXPECTS(config.corruption_conviction_threshold > 0);
  // Vote mode needs rule (b) as its backstop: a group blocked on a silent
  // replica only resolves once that replica is convicted, so the divergence
  // rule must be armed and every healthy leader must be able to out-write a
  // stalled laggard all the way to the D verdict without exhausting its own
  // space budget first (the usable budget is capacity - initial: the Eq. (4)
  // offset is burned on the preloaded slots).
  SCCFT_EXPECTS(!config.enable_payload_vote ||
                (config.divergence_threshold > 0 && config.links.empty()));
  write_interfaces_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const rtc::Tokens capacity = config.capacities[i];
    const rtc::Tokens initial = config.initials.empty() ? 0 : config.initials[i];
    SCCFT_EXPECTS(capacity > 0);
    SCCFT_EXPECTS(initial >= 0 && initial <= capacity);
    SCCFT_EXPECTS(!config.enable_payload_vote ||
                  capacity - initial > config.divergence_threshold);
    const ReplicaIndex r{static_cast<int>(i)};
    Side& side = sides_[i];
    side.capacity = capacity;
    side.space = capacity - initial;
    side.initial = initial;
    side.subject = sim.trace().intern(name_ + ".S" + std::to_string(i + 1));
    if (!config.links.empty()) side.link = config.links[i];
    write_interfaces_.emplace_back(*this, r);
  }
  // Scrubbable word order (stable, documented in the header): per side
  // {capacity, initial, space, virtual_fill, tokens_received, last_seq},
  // then the channel-level frontier and divergence threshold.
  for (Side& side : sides_) {
    scrub_set_.add(side.capacity);
    scrub_set_.add(side.initial);
    scrub_set_.add(side.space);
    scrub_set_.add(side.virtual_fill);
    scrub_set_.add(side.tokens_received);
    scrub_set_.add(side.last_seq);
  }
  scrub_set_.add(last_enqueued_seq_);
  scrub_set_.add(divergence_threshold_);
}

int SelectorChannel::healthy_count() const {
  return static_cast<int>(std::count_if(sides_.begin(), sides_.end(),
                                        [](const Side& side) { return !side.fault; }));
}

kpn::TokenSink& SelectorChannel::write_interface(ReplicaIndex r) {
  (void)side_at(r);  // bounds check
  return write_interfaces_[static_cast<std::size_t>(index_of(r))];
}

void SelectorChannel::preload_initial_tokens(const kpn::Token& token) {
  SCCFT_EXPECTS(queue_.empty());
  pending_preload_ = 0;
  for (const Side& side : sides_) {
    pending_preload_ = std::max<rtc::Tokens>(pending_preload_, side.capacity - side.space);
  }
  for (rtc::Tokens i = 0; i < pending_preload_; ++i) {
    queue_.push_back(Slot{token, sim_.now(), std::nullopt});
  }
}

const SelectorChannel::Side* SelectorChannel::frontier_leader(std::size_t i) const {
  const Side* leader = nullptr;
  for (std::size_t j = 0; j < sides_.size(); ++j) {
    const Side& peer = sides_[j];
    // A resync-pending peer has pre-fault counters and no claim on the
    // frontier (holding against it can deadlock two rejoining writers).
    if (j == i || peer.fault || peer.resync_pending) continue;
    if (!leader || peer.tokens_received > leader->tokens_received) leader = &peer;
  }
  return leader;
}

bool SelectorChannel::reanchor_received(std::size_t i, std::uint64_t seq) {
  // The reference is the most advanced peer, preferring peers whose counters
  // are current (not resync-pending); with N = 2 it is simply the peer.
  const Side* anchor = nullptr;
  for (std::size_t j = 0; j < sides_.size(); ++j) {
    const Side& peer = sides_[j];
    if (j == i) continue;
    if (!anchor || (anchor->resync_pending && !peer.resync_pending) ||
        (anchor->resync_pending == peer.resync_pending &&
         peer.tokens_received > anchor->tokens_received)) {
      anchor = &peer;
    }
  }
  if (anchor->tokens_received == 0) return false;
  // After this, seq == anchor.last_seq + 1 is fresh; anything at or below
  // anchor.last_seq is a late duplicate.
  const auto delta = static_cast<std::int64_t>(seq) -
                     static_cast<std::int64_t>(anchor->last_seq) - 1;
  const auto synced = static_cast<std::int64_t>(anchor->tokens_received) + delta;
  sides_[i].tokens_received = synced > 0 ? static_cast<std::uint64_t>(synced) : 0;
  return true;
}

bool SelectorChannel::side_try_write(ReplicaIndex r, const kpn::Token& token) {
  const auto i = static_cast<std::size_t>(index_of(r));
  Side& side = sides_[i];

  if (side.fault || side.writer_frozen) {
    // A replica already declared faulty (or halted by fault injection) can
    // neither block nor corrupt the stream: its writes are accepted and
    // discarded.
    ++stats_.tokens_dropped;
    sim_.trace().emit(trace::EventKind::kTokenDrop, side.subject, sim_.now(),
                      static_cast<std::int64_t>(token.seq()));
    return true;
  }
  if (side.space == 0) {
    // Rule 3: the writer blocks. Lemma 1: this depends only on space_i.
    // Recording the refused token lets wake_writers judge a rejoin frontier
    // hold against the token the retry will carry, not a stale one.
    side.held_seq = token.seq();
    ++stats_.writer_blocks;
    SCCFT_TRACE(sim_.trace(), trace::EventKind::kWriterBlock, side.subject, sim_.now(),
                static_cast<std::int64_t>(token.seq()));
    return false;
  }

  // Fault-injection tamper (models corruption in the replica's core or on
  // its output link), then detection rule (c): verify the arriving token's
  // CRC-32. A mismatch is quarantined — the write succeeds from the
  // replica's view and consumes its space slot (Lemma 1: only space_i is
  // touched, and rule (a) stays quiet for a replica that is producing on
  // schedule), but the token is never delivered: a peer's healthy copy of
  // the same group is. Outside vote mode the received count does NOT
  // advance, so a persistently corrupting replica also drifts toward the
  // rule (b) divergence threshold. In vote mode the arrival still reports
  // its group (as a non-ballot), so the group never waits for a report that
  // cannot come.
  const kpn::Token* arriving = &token;
  kpn::Token tampered;
  if (side.tamper) {
    tampered = side.tamper(token);
    arriving = &tampered;
  }
  if (verify_checksums_ && arriving->valid() && !arriving->verify_checksum()) {
    ++side.crc_mismatches;
    ++stats_.tokens_dropped;
    side.space -= 1;
    sim_.trace().emit(trace::EventKind::kQuarantine, subject_, sim_.now(), index_of(r),
                      static_cast<std::int64_t>(side.crc_mismatches));
    if (enable_payload_vote_) {
      side.tokens_received += 1;
      note_vote_arrival(side.tokens_received, GroupArrival{r, *arriving, false});
    } else {
      side.count_resync_pending = true;
    }
    if (!side.fault && side.crc_mismatches >=
                           static_cast<std::uint64_t>(corruption_conviction_threshold_)) {
      // Unlike (a)/(b), a CRC mismatch is direct evidence against replica i
      // regardless of the peers' state.
      declare_fault(r, DetectionRule::kSelectorCorruption);
    }
    return true;
  }

  if (side.resync_pending) {
    // Reconfiguration window: the re-anchor below reads the peers' counters
    // and the capacity words, which a resize is about to rewrite. Defer the
    // rejoin across the window through the same hold machinery as the
    // frontier hold — end_reconfiguration() wakes the writer and the retry
    // re-anchors against settled state.
    if (reconfiguring_) {
      side.held_seq = token.seq();
      ++stats_.writer_blocks;
      return false;
    }
    // A rejoining replica may only re-enter AT the delivered frontier. If its
    // first token is ahead of leader.last_seq + 1, the missing sequence
    // numbers exist solely in the peers' pipelines (e.g. a peer is mid-burst
    // of a transient fault); enqueueing now would deliver the future before
    // the past and turn the peers' copies into dropped "late duplicates" — a
    // permanent gap. Hold the write while a HEALTHY peer still owns the
    // frontier; conviction of that peer lifts the hold (the stream then has
    // a genuine gap no ordering can repair, and this side must flow to keep
    // the consumer alive).
    const Side* leader = frontier_leader(i);
    if (leader && leader->tokens_received > 0 && token.seq() > leader->last_seq + 1) {
      side.held_seq = token.seq();
      ++stats_.writer_blocks;
      return false;
    }
    // Recovery: align this side's counter with the most advanced peer using
    // sequence numbers, so duplicate-group identity stays exact despite the
    // tokens this replica missed while down. The space counter is
    // re-anchored here too: the reads that happened while the replica
    // refilled its pipeline must not count against its stall budget.
    side.resync_pending = false;
    side.count_resync_pending = false;
    side.space = side.capacity - side.initial;
    (void)reanchor_received(i, token.seq());
  } else if (side.count_resync_pending) {
    // Quarantined (or link-lost) tokens were arrivals that never counted as
    // received; this healthy token's sequence number restores the exact
    // group alignment (same formula as post-recovery resync, but the space
    // counter — which tracked every arrival — is left alone).
    if (reanchor_received(i, token.seq())) side.count_resync_pending = false;
  }
  side.space -= 1;

  // Vote mode: interface i's k-th counted token is its member of duplicate
  // group k, and resolve_ready_groups decides what is delivered.
  bool first_of_group = false;
  rtc::TimeNs available_at = sim_.now();
  if (!enable_payload_vote_) {
    // First-of-group test. The paper states this as "space_i <= space_j",
    // which equals the received-token comparison below exactly when every
    // interface starts with the same free space. With per-replica
    // capacities and initial fills (|S_1|-|S_1|_0 != |S_2|-|S_2|_0 for both
    // paper applications) the raw space comparison is biased by the
    // constant offset and drops one healthy token at failover; comparing
    // received counts implements the intended semantics — interface i's
    // k-th token is the first of group k iff no peer has delivered k yet —
    // exactly (KPN determinacy + FIFO order make the k-th arrival token k).
    std::uint64_t best_peer = 0;
    for (std::size_t j = 0; j < sides_.size(); ++j) {
      if (j != i) best_peer = std::max<std::uint64_t>(best_peer, sides_[j].tokens_received);
    }
    // Seq-monotone safety net. The count comparison assumes every replica
    // saw the same input stream; NoC loss on a producer->replica link
    // starves one replica, skews the arrival counts, and can make several
    // copies of one sequence number test fresh (a replica's k-th token need
    // not be token k any more). The delivered stream must stay strictly
    // increasing no matter what, so nothing at or below the enqueued
    // frontier is ever delivered twice — the late copy is dropped like any
    // duplicate (the count still advances, which is what rules (a)/(b)
    // reason about).
    first_of_group = side.tokens_received + 1 > best_peer &&
                     static_cast<std::int64_t>(token.seq()) > last_enqueued_seq_;
    if (first_of_group && side.link) {
      const auto outcome = side.link->noc->transfer_ex(
          side.link->src, side.link->dst, arriving->size_bytes(), sim_.now());
      if (!outcome.delivered) {
        // NoC fault exhausted its retransmission budget: the first-of-group
        // copy is lost in transit. Handled like a quarantine — the received
        // count does not advance, so a peer's healthy copy of the same group
        // is delivered instead: replicated execution masks link loss.
        side.count_resync_pending = true;
        ++stats_.tokens_written;
        ++stats_.tokens_dropped;
        sim_.trace().emit(trace::EventKind::kTokenDrop, side.subject, sim_.now(),
                          static_cast<std::int64_t>(token.seq()));
        check_divergence();
        return true;
      }
      available_at = outcome.arrival;
    }
  }

  side.tokens_received += 1;
  side.last_seq = token.seq();
  ++stats_.tokens_written;
  if (enable_payload_vote_) {
    note_vote_arrival(side.tokens_received, GroupArrival{r, *arriving, true});
  } else if (first_of_group) {
    enqueue(*arriving, available_at, r);
  } else {
    // Late duplicate of a token a peer already delivered: dropped.
    ++stats_.tokens_dropped;
    sim_.trace().emit(trace::EventKind::kTokenDrop, side.subject, sim_.now(),
                      static_cast<std::int64_t>(token.seq()));
  }
  // Always-on: the virtual fill/space levels drive the per-side VCD signals
  // (space_i is what rules (a)/(b) reason about, so it belongs on waveforms
  // even in compiled-out builds).
  sim_.trace().emit(trace::EventKind::kQueueLevel, side.subject, sim_.now(),
                    static_cast<std::int64_t>(side.virtual_fill),
                    static_cast<std::int64_t>(side.space));

  check_divergence();
  // This delivery advanced the frontier; a peer writer held at its rejoin
  // point may now be able to proceed.
  for (const Side& peer : sides_) {
    if (peer.resync_pending && peer.waiting_writer) {
      wake_writers();
      break;
    }
  }
  return true;
}

void SelectorChannel::enqueue(const kpn::Token& token, rtc::TimeNs available_at,
                              ReplicaIndex origin) {
  Side& side = sides_[static_cast<std::size_t>(index_of(origin))];
  queue_.push_back(Slot{token, available_at, origin});
  last_enqueued_seq_ = static_cast<std::int64_t>(token.seq());
  side.virtual_fill += 1;
  side.max_virtual_fill =
      std::max(side.max_virtual_fill, static_cast<rtc::Tokens>(side.virtual_fill));
  stats_.max_fill = std::max(stats_.max_fill, fill() - pending_preload_);
  // Always-on: VCD fill waveforms derive from enqueue/dequeue events.
  sim_.trace().emit(trace::EventKind::kEnqueue, subject_, sim_.now(),
                    static_cast<std::int64_t>(token.seq()),
                    static_cast<std::int64_t>(fill()));
  if (waiting_reader_) wake_reader(available_at);
}

void SelectorChannel::note_vote_arrival(std::uint64_t group, GroupArrival arrival) {
  if (group < next_resolve_group_) {
    // Straggler into an already-resolved group: the duplicate is dropped, but
    // if the group had a majority verdict a differing fingerprint is direct
    // evidence against this replica. (A quarantined straggler was counted
    // as dropped already and never dissents.)
    if (arrival.ballot) {
      ++stats_.tokens_dropped;
      const auto it = resolved_fp_.find(group);
      if (it != resolved_fp_.end() && arrival.token.checksum() != it->second) {
        ++votes_outvoted_;
        if (!side_at(arrival.replica).fault) {
          declare_fault(arrival.replica, DetectionRule::kSelectorVote);
        }
      }
    }
  } else {
    pending_[group].push_back(std::move(arrival));
    resolve_ready_groups();
  }
  // Prune verdicts every non-convicted replica has passed: the maps stay
  // bounded by the inter-replica skew (at most a capacity + D).
  std::uint64_t floor = UINT64_MAX;
  for (const Side& side : sides_) {
    if (!side.fault) floor = std::min<std::uint64_t>(floor, side.tokens_received);
  }
  if (floor != UINT64_MAX) {
    resolved_fp_.erase(resolved_fp_.begin(), resolved_fp_.upper_bound(floor));
  }
}

void SelectorChannel::resolve_ready_groups() {
  if (resolving_) return;  // conviction mid-resolve re-enters via declare_fault
  resolving_ = true;
  // Seq-monotone safety net (see side_try_write): groups resolve in order,
  // so this only rejects pathological replays below the delivered frontier.
  const auto deliver = [this](const GroupArrival& arrival) {
    if (static_cast<std::int64_t>(arrival.token.seq()) <= last_enqueued_seq_) {
      ++stats_.tokens_dropped;
      return;
    }
    enqueue(arrival.token, sim_.now(), arrival.replica);
  };
  const auto votes = [this](const GroupArrival& arrival) {
    return arrival.ballot && !side_at(arrival.replica).fault;
  };
  while (true) {
    const auto it = pending_.find(next_resolve_group_);
    if (it == pending_.end()) break;
    std::vector<GroupArrival>& arrivals = it->second;
    const int live = healthy_count();
    const int majority = live / 2 + 1;
    const auto ballots = static_cast<std::uint64_t>(std::count_if(
        arrivals.begin(), arrivals.end(), [](const GroupArrival& a) { return a.ballot; }));

    // Earliest ballot whose fingerprint a strict majority of the live
    // electorate agrees with (arrival order is deterministic simulation
    // order, so the tie-break is too).
    const GroupArrival* winner = nullptr;
    for (const GroupArrival& a : arrivals) {
      if (!votes(a)) continue;
      const auto agree = std::count_if(arrivals.begin(), arrivals.end(),
                                       [&](const GroupArrival& b) {
                                         return votes(b) &&
                                                b.token.checksum() == a.token.checksum();
                                       });
      if (agree >= majority) {
        winner = &a;
        break;
      }
    }
    if (winner) {
      const std::uint32_t fp = winner->token.checksum();
      deliver(*winner);
      resolved_fp_[next_resolve_group_] = fp;
      stats_.tokens_dropped += ballots - 1;  // non-delivered members
      // Dissenters lost to a strict majority: direct evidence, rule (vote).
      for (const GroupArrival& a : arrivals) {
        if (!votes(a) || a.token.checksum() == fp) continue;
        ++votes_outvoted_;
        declare_fault(a.replica, DetectionRule::kSelectorVote);
      }
      pending_.erase(it);
      ++next_resolve_group_;
      continue;
    }

    const auto reported = std::count_if(
        arrivals.begin(), arrivals.end(),
        [this](const GroupArrival& a) { return !side_at(a.replica).fault; });
    if (!arrivals.empty() && reported >= live) {
      // Every live replica has reported and no strict majority exists (N=2
      // against a silent corrupter): deliver the first ballot and count the
      // conflict — detection without masking. No verdict is recorded, so
      // stragglers cannot be convicted off it. A group whose every member
      // was quarantined has nothing trustworthy to deliver.
      const auto first = std::find_if(arrivals.begin(), arrivals.end(),
                                      [](const GroupArrival& a) { return a.ballot; });
      if (first != arrivals.end()) {
        ++vote_conflicts_;
        deliver(*first);
        stats_.tokens_dropped += ballots - 1;
      }
      pending_.erase(it);
      ++next_resolve_group_;
      continue;
    }
    break;  // wait for more arrivals or a conviction
  }
  resolving_ = false;
}

void SelectorChannel::freeze_writer(ReplicaIndex r) {
  Side& side = side_at(r);
  side.writer_frozen = true;
  // A parked writer's handle is RETAINED: a transient fault must resume it
  // (via unfreeze_writer) with its in-flight token intact. Only reintegrate
  // — the restart path, after which the handle dangles — discards it and
  // bumps the epoch; an in-flight wake that fires mid-freeze re-parks the
  // handle instead.
}

void SelectorChannel::unfreeze_writer(ReplicaIndex r) {
  Side& side = side_at(r);
  if (!side.writer_frozen) return;
  side.writer_frozen = false;
  // Route through wake_writers: a writer that parked at the rejoin frontier
  // hold BEFORE the freeze landed must stay parked until the hold lifts, and
  // the wake needs the epoch guard in case a restart supersedes this thaw.
  wake_writers();
}

void SelectorChannel::set_write_tamper(ReplicaIndex r, WriteTamper tamper) {
  side_at(r).tamper = std::move(tamper);
}

void SelectorChannel::reintegrate(ReplicaIndex r) {
  // Vote mode has no restart path: a rejoining replica's group numbering
  // would be ambiguous against buffered ballots (documented in Config).
  SCCFT_EXPECTS(!enable_payload_vote_);
  Side& side = side_at(r);
  side.fault = false;
  side.detection.reset();
  side.writer_frozen = false;
  side.waiting_writer = nullptr;  // restart destroyed the old coroutine frame
  ++side.epoch;                   // invalidate any wake already scheduled
  side.space = side.capacity - side.initial;
  side.virtual_fill = 0;
  side.crc_mismatches = 0;
  side.resync_pending = true;
  side.count_resync_pending = false;
  // Always-on repair boundary: together with the replicator's kReintegrate
  // this brackets recover_replica in flight-recorder dumps, so a post-mortem
  // can see exactly when a replica was re-admitted (and the chaos oracles
  // can correlate convictions with repairs).
  sim_.trace().emit(trace::EventKind::kReintegrate, subject_, sim_.now(), index_of(r));
}

void SelectorChannel::side_await_writable(ReplicaIndex r, std::coroutine_handle<> writer) {
  Side& side = side_at(r);
  SCCFT_EXPECTS(!side.waiting_writer);
  side.waiting_writer = writer;
}

std::optional<kpn::Token> SelectorChannel::try_read() {
  if (queue_.empty()) return std::nullopt;
  if (queue_.front().available_at > sim_.now()) return std::nullopt;
  Slot slot = std::move(queue_.front());
  queue_.pop_front();
  ++stats_.tokens_read;
  sim_.trace().emit(trace::EventKind::kDequeue, subject_, sim_.now(),
                    static_cast<std::int64_t>(slot.token.valid() ? slot.token.seq() : 0),
                    static_cast<std::int64_t>(fill()));

  // Rule 2: a read increments ALL space variables and decrements fill.
  for (Side& side : sides_) side.space += 1;
  if (slot.origin) {
    Side& origin = sides_[static_cast<std::size_t>(index_of(*slot.origin))];
    SCCFT_ASSERT(origin.virtual_fill > 0);
    origin.virtual_fill -= 1;
  } else {
    SCCFT_ASSERT(pending_preload_ > 0);
    pending_preload_ -= 1;
  }

  // Detection rule (a): replica i is faulty once space_i exceeds |S_i|, as
  // long as at least one other replica is healthy ((N-1)-fault hypothesis).
  // A side awaiting its post-recovery resync is immune: its counters refer
  // to the pre-fault epoch until its first write re-anchors them.
  if (enable_stall_rule_) {
    for (std::size_t i = 0; i < sides_.size(); ++i) {
      Side& side = sides_[i];
      if (!side.fault && !side.resync_pending && side.space > side.capacity &&
          healthy_count() > 1) {
        declare_fault(ReplicaIndex{static_cast<int>(i)}, DetectionRule::kSelectorStall);
      }
    }
  }

  for (const Side& side : sides_) {
    sim_.trace().emit(trace::EventKind::kQueueLevel, side.subject, sim_.now(),
                      static_cast<std::int64_t>(side.virtual_fill),
                      static_cast<std::int64_t>(side.space));
  }

  wake_writers();
  return std::move(slot.token);
}

void SelectorChannel::await_readable(std::coroutine_handle<> reader) {
  SCCFT_EXPECTS(!waiting_reader_);
  waiting_reader_ = reader;
  ++stats_.reader_blocks;
  SCCFT_TRACE(sim_.trace(), trace::EventKind::kReaderBlock, subject_, sim_.now());
  if (!queue_.empty()) {
    wake_reader(std::max(queue_.front().available_at, sim_.now()));
  }
}

void SelectorChannel::declare_fault(ReplicaIndex r, DetectionRule rule) {
  Side& side = side_at(r);
  SCCFT_ASSERT(!side.fault);
  side.fault = true;
  side.detection = DetectionRecord{r, rule, sim_.now()};
  // The verdict travels the bus only: detection logs and the supervisor are
  // bus subscribers.
  sim_.trace().emit(trace::EventKind::kDetection, subject_, sim_.now(), index_of(r),
                    static_cast<std::int64_t>(rule));
  // If the (now-faulty) replica is blocked on this interface, release it so a
  // zombie replica cannot wedge; its retried write will be accepted-and-
  // dropped via the fault path. Frozen writers stay parked (they resume via
  // unfreeze or die via restart), and the wake checks the epoch so it cannot
  // touch a coroutine a restart destroyed in the meantime. This also releases
  // a peer writer held at its rejoin frontier: with this side convicted, the
  // hold no longer applies.
  wake_writers();
  // A conviction shrinks the electorate, which can hand a stalled group its
  // majority (or its all-live-reported verdict).
  if (enable_payload_vote_) resolve_ready_groups();
}

void SelectorChannel::begin_reconfiguration() {
  SCCFT_EXPECTS(!reconfiguring_);
  reconfiguring_ = true;
}

void SelectorChannel::end_reconfiguration() {
  SCCFT_EXPECTS(reconfiguring_);
  reconfiguring_ = false;
  // Deferred detection: a divergence that deepened past the (possibly new)
  // threshold during the window is convicted now. The set_divergence_threshold
  // clamp guarantees the resize alone never triggers this — only genuine
  // drift accumulated inside the window can.
  check_divergence();
  wake_writers();
}

rtc::Tokens SelectorChannel::set_divergence_threshold(rtc::Tokens requested) {
  SCCFT_EXPECTS(requested >= 0);
  rtc::Tokens applied = requested;
  if (requested > 0) {
    // No retroactive conviction: a narrowing stops one token above the
    // current gap, so the divergence must genuinely deepen after the resize
    // before rule (b) can fire.
    const auto [lo, hi] = std::minmax_element(
        sides_.begin(), sides_.end(), [](const Side& a, const Side& b) {
          return a.tokens_received < b.tokens_received;
        });
    const auto gap = static_cast<std::int64_t>(hi->tokens_received) -
                     static_cast<std::int64_t>(lo->tokens_received);
    applied = std::max(requested, static_cast<rtc::Tokens>(gap) + 1);
  }
  divergence_threshold_ = applied;
  return applied;
}

void SelectorChannel::check_divergence() {
  if (reconfiguring_) return;  // deferred to end_reconfiguration()
  if (divergence_threshold_ <= 0) return;
  // A resyncing side's received count is pre-fault-epoch noise: it neither
  // defines the leader nor can be convicted until its first write
  // re-anchors it (recovery grace).
  std::uint64_t best = 0;
  for (const Side& side : sides_) {
    if (!side.fault && !side.resync_pending) {
      best = std::max<std::uint64_t>(best, side.tokens_received);
    }
  }
  const auto threshold = static_cast<std::uint64_t>(divergence_threshold_);
  for (std::size_t i = 0; i < sides_.size(); ++i) {
    Side& side = sides_[i];
    if (side.fault || side.resync_pending) continue;
    if (healthy_count() <= 1) break;  // never convict the last healthy replica
    if (best >= side.tokens_received + threshold) {
      declare_fault(ReplicaIndex{static_cast<int>(i)}, DetectionRule::kSelectorDivergence);
    }
  }
}

void SelectorChannel::publish_metrics(trace::MetricsRegistry& registry) const {
  for (std::size_t i = 0; i < sides_.size(); ++i) {
    const Side& side = sides_[i];
    const std::string prefix = name_ + ".S" + std::to_string(i + 1);
    registry.gauge_max(prefix + ".max_observed_fill",
                       static_cast<std::int64_t>(side.max_virtual_fill));
    registry.add(prefix + ".tokens_received", side.tokens_received);
    registry.add(prefix + ".crc_mismatches", side.crc_mismatches);
  }
  registry.gauge_max(name_ + ".max_fill",
                     static_cast<std::int64_t>(stats_.max_fill));
  registry.add(name_ + ".tokens_written", stats_.tokens_written);
  registry.add(name_ + ".tokens_read", stats_.tokens_read);
  registry.add(name_ + ".tokens_dropped", stats_.tokens_dropped);
  registry.add(name_ + ".writer_blocks", stats_.writer_blocks);
  registry.add(name_ + ".reader_blocks", stats_.reader_blocks);
  registry.gauge_max(name_ + ".control_bytes",
                     static_cast<std::int64_t>(control_memory_bytes()));
}

void SelectorChannel::wake_reader(rtc::TimeNs when) {
  if (!waiting_reader_) return;
  auto reader = waiting_reader_;
  waiting_reader_ = nullptr;
  sim_.schedule_at(std::max(when, sim_.now()), [reader] { reader.resume(); });
}

bool SelectorChannel::frontier_hold_active(std::size_t i) const {
  const Side& side = sides_[i];
  if (!side.resync_pending) return false;
  // Rejoin re-anchoring is deferred across a reconfiguration window (see
  // begin_reconfiguration); the hold lifts when the window closes.
  if (reconfiguring_) return true;
  const Side* leader = frontier_leader(i);
  return leader && leader->tokens_received > 0 && side.held_seq > leader->last_seq + 1;
}

void SelectorChannel::wake_writers() {
  for (std::size_t i = 0; i < sides_.size(); ++i) {
    Side& side = sides_[i];
    // A writer refused by the rejoin frontier hold is only resumed once the
    // hold has lifted (the frontier reached held_seq - 1, or its owner was
    // convicted); waking it earlier would make its try_write retry fail,
    // which the kpn WriteAwaiter treats as a contract violation.
    if (side.waiting_writer && !side.writer_frozen &&
        (side.space > 0 || side.fault) && !frontier_hold_active(i)) {
      auto writer = side.waiting_writer;
      side.waiting_writer = nullptr;
      // The epoch guard drops the wake if a restart invalidated the handle;
      // if a freeze or a re-armed frontier hold lands between scheduling and
      // firing, the handle is re-parked instead of resumed so the token
      // survives the fault.
      sim_.schedule_after(0, [this, &side, i, writer, epoch = side.epoch] {
        if (side.epoch != epoch) return;
        if (side.writer_frozen || frontier_hold_active(i)) {
          side.waiting_writer = writer;
          return;
        }
        writer.resume();
      });
    }
  }
}

}  // namespace sccft::ft
