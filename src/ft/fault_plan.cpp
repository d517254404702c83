#include "ft/fault_plan.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <limits>
#include <sstream>

#include "ft/supervisor.hpp"
#include "scc/topology.hpp"
#include "trace/sinks.hpp"
#include "util/assert.hpp"

namespace sccft::ft {

std::string to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kPermanentSilence: return "permanent-silence";
    case FaultKind::kTransientSilence: return "transient-silence";
    case FaultKind::kIntermittentSilence: return "intermittent-silence";
    case FaultKind::kRateDegradation: return "rate-degradation";
    case FaultKind::kPayloadCorruption: return "payload-corruption";
    case FaultKind::kSilentCorruption: return "silent-corruption";
    case FaultKind::kNocLink: return "noc-link";
    case FaultKind::kSupervisorHang: return "supervisor-hang";
    case FaultKind::kCounterCorruption: return "counter-corruption";
    case FaultKind::kTraceSinkStuck: return "trace-sink-stuck";
  }
  return "?";
}

FaultKind fault_kind_from_text(const std::string& tag) {
  for (const FaultKind kind :
       {FaultKind::kPermanentSilence, FaultKind::kTransientSilence,
        FaultKind::kIntermittentSilence, FaultKind::kRateDegradation,
        FaultKind::kPayloadCorruption, FaultKind::kSilentCorruption,
        FaultKind::kNocLink,
        FaultKind::kSupervisorHang, FaultKind::kCounterCorruption,
        FaultKind::kTraceSinkStuck}) {
    if (tag == to_string(kind)) return kind;
  }
  util::contract_failure("precondition", "tag is a known fault kind", __FILE__,
                         __LINE__);
}

// ---------------------------------------------------------------------------
// Text serialization
// ---------------------------------------------------------------------------

namespace {

constexpr std::size_t kMaxPlanLines = 10'000;

/// Full-precision double rendering so parse(serialize(x)) is exact.
std::string render_double(double value) {
  std::ostringstream out;
  out << std::setprecision(std::numeric_limits<double>::max_digits10) << value;
  return out.str();
}

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string token;
  while (in >> token) tokens.push_back(token);
  return tokens;
}

std::int64_t parse_int(const std::string& token) {
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(token.c_str(), &end, 10);
  SCCFT_EXPECTS(end != nullptr && *end == '\0' && end != token.c_str());
  SCCFT_EXPECTS(errno != ERANGE);
  return static_cast<std::int64_t>(value);
}

std::uint64_t parse_uint(const std::string& token) {
  SCCFT_EXPECTS(!token.empty() && token.front() != '-');
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(token.c_str(), &end, 10);
  SCCFT_EXPECTS(end != nullptr && *end == '\0' && end != token.c_str());
  SCCFT_EXPECTS(errno != ERANGE);
  return static_cast<std::uint64_t>(value);
}

double parse_double(const std::string& token) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  SCCFT_EXPECTS(end != nullptr && *end == '\0' && end != token.c_str());
  SCCFT_EXPECTS(errno != ERANGE);
  SCCFT_EXPECTS(std::isfinite(value));
  return value;
}

}  // namespace

std::string serialize(const FaultSpec& spec) {
  std::ostringstream out;
  out << "fault " << to_string(spec.kind) << ' '
      << (index_of(spec.replica) + 1) << ' ' << spec.at << ' ' << spec.duration
      << ' ' << render_double(spec.rate_factor) << ' '
      << render_double(spec.corrupt_probability) << ' ' << spec.burst_on_mean
      << ' ' << spec.burst_off_mean << ' ' << spec.seed << ' '
      << render_double(spec.noc.chunk_drop_probability) << ' '
      << render_double(spec.noc.chunk_delay_probability) << ' '
      << spec.noc.delay_min_ns << ' ' << spec.noc.delay_max_ns << ' '
      << spec.noc.max_retries << ' ' << spec.noc.retry_timeout_ns << ' '
      << spec.tile;
  // Emitted only when set: 2-replica plans keep their historical byte layout.
  if (spec.victim != 0) out << ' ' << spec.victim;
  return out.str();
}

std::string serialize(const std::vector<FaultSpec>& plan) {
  std::string out;
  for (const FaultSpec& spec : plan) {
    out += serialize(spec);
    out += '\n';
  }
  return out;
}

FaultSpec parse_fault_spec(const std::string& line) {
  const std::vector<std::string> tokens = tokenize(line);
  // 16 tokens is the legacy (pre-control-plane) format without the trailing
  // tile field: stored chaos artifacts stay replayable, tile defaults to 0.
  // 18 tokens adds the N-replica victim selector after the tile.
  SCCFT_EXPECTS(tokens.size() >= 16 && tokens.size() <= 18);
  SCCFT_EXPECTS(tokens[0] == "fault");

  FaultSpec spec;
  spec.kind = fault_kind_from_text(tokens[1]);
  const std::int64_t replica = parse_int(tokens[2]);
  SCCFT_EXPECTS(replica == 1 || replica == 2);
  spec.replica = replica == 1 ? ReplicaIndex::kReplica1 : ReplicaIndex::kReplica2;
  spec.at = parse_int(tokens[3]);
  SCCFT_EXPECTS(spec.at >= 0);
  spec.duration = parse_int(tokens[4]);
  SCCFT_EXPECTS(spec.duration >= 0);
  spec.rate_factor = parse_double(tokens[5]);
  spec.corrupt_probability = parse_double(tokens[6]);
  SCCFT_EXPECTS(spec.corrupt_probability >= 0.0 && spec.corrupt_probability <= 1.0);
  spec.burst_on_mean = parse_int(tokens[7]);
  SCCFT_EXPECTS(spec.burst_on_mean >= 0);
  spec.burst_off_mean = parse_int(tokens[8]);
  SCCFT_EXPECTS(spec.burst_off_mean >= 0);
  spec.seed = parse_uint(tokens[9]);
  spec.noc.chunk_drop_probability = parse_double(tokens[10]);
  SCCFT_EXPECTS(spec.noc.chunk_drop_probability >= 0.0 &&
                spec.noc.chunk_drop_probability <= 1.0);
  spec.noc.chunk_delay_probability = parse_double(tokens[11]);
  SCCFT_EXPECTS(spec.noc.chunk_delay_probability >= 0.0 &&
                spec.noc.chunk_delay_probability <= 1.0);
  spec.noc.delay_min_ns = parse_int(tokens[12]);
  SCCFT_EXPECTS(spec.noc.delay_min_ns >= 0);
  spec.noc.delay_max_ns = parse_int(tokens[13]);
  SCCFT_EXPECTS(spec.noc.delay_max_ns >= spec.noc.delay_min_ns);
  spec.noc.max_retries = static_cast<int>(parse_int(tokens[14]));
  SCCFT_EXPECTS(spec.noc.max_retries >= 0);
  spec.noc.retry_timeout_ns = parse_int(tokens[15]);
  SCCFT_EXPECTS(spec.noc.retry_timeout_ns >= 0);
  if (tokens.size() >= 17) {
    spec.tile = static_cast<int>(parse_int(tokens[16]));
    SCCFT_EXPECTS(spec.tile >= 0 && spec.tile < scc::kTileCount);
  }
  if (tokens.size() >= 18) {
    spec.victim = static_cast<int>(parse_int(tokens[17]));
    SCCFT_EXPECTS(spec.victim >= 0 && spec.victim <= 16);
  }

  // Per-kind semantic checks, mirroring FaultCampaign::add: a plan that
  // parses is a plan that arms.
  switch (spec.kind) {
    case FaultKind::kPermanentSilence:
    case FaultKind::kNocLink:
    case FaultKind::kSupervisorHang:
    case FaultKind::kCounterCorruption:
    case FaultKind::kTraceSinkStuck:
      break;
    case FaultKind::kTransientSilence:
      SCCFT_EXPECTS(spec.duration > 0);
      break;
    case FaultKind::kIntermittentSilence:
      SCCFT_EXPECTS(spec.duration > 0);
      SCCFT_EXPECTS(spec.burst_on_mean > 0 && spec.burst_off_mean > 0);
      break;
    case FaultKind::kRateDegradation:
      SCCFT_EXPECTS(spec.rate_factor > 1.0);
      break;
    case FaultKind::kPayloadCorruption:
    case FaultKind::kSilentCorruption:
      SCCFT_EXPECTS(spec.corrupt_probability > 0.0);
      break;
  }
  return spec;
}

std::vector<FaultSpec> parse_fault_plan(const std::string& text) {
  std::vector<FaultSpec> plan;
  std::istringstream in(text);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    SCCFT_EXPECTS(++lines <= kMaxPlanLines);
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    plan.push_back(parse_fault_spec(line));
  }
  return plan;
}

namespace {

[[nodiscard]] ReplicaIndex victim_of(const FaultSpec& spec) {
  return ReplicaIndex{victim_index(spec)};
}

}  // namespace

FaultCampaign::FaultCampaign(sim::Simulator& sim, Wiring wiring,
                             std::string subject_name)
    : sim_(sim), wiring_(std::move(wiring)), subject_(sim.trace().intern(subject_name)) {
  SCCFT_EXPECTS(wiring_.replicator != nullptr && wiring_.selector != nullptr);
  const int n = wiring_.selector->replica_count();
  SCCFT_EXPECTS(wiring_.replicator->replica_count() == n);
  SCCFT_EXPECTS(static_cast<int>(wiring_.processes.size()) <= n);
  wiring_.processes.resize(static_cast<std::size_t>(n));
}

void FaultCampaign::add(FaultSpec spec) {
  SCCFT_EXPECTS(!armed_);
  SCCFT_EXPECTS(spec.at >= 0);
  SCCFT_EXPECTS(spec.victim >= 0);
  if (!is_control_plane(spec.kind) && spec.kind != FaultKind::kNocLink) {
    SCCFT_EXPECTS(victim_index(spec) < wiring_.selector->replica_count());
  }
  switch (spec.kind) {
    case FaultKind::kPermanentSilence:
      break;
    case FaultKind::kTransientSilence:
      SCCFT_EXPECTS(spec.duration > 0);
      break;
    case FaultKind::kIntermittentSilence:
      SCCFT_EXPECTS(spec.duration > 0);
      SCCFT_EXPECTS(spec.burst_on_mean > 0 && spec.burst_off_mean > 0);
      break;
    case FaultKind::kRateDegradation:
      SCCFT_EXPECTS(spec.rate_factor > 1.0);
      break;
    case FaultKind::kPayloadCorruption:
    case FaultKind::kSilentCorruption:
      SCCFT_EXPECTS(spec.corrupt_probability > 0.0 && spec.corrupt_probability <= 1.0);
      break;
    case FaultKind::kNocLink:
      SCCFT_EXPECTS(wiring_.noc != nullptr);
      break;
    case FaultKind::kSupervisorHang:
      SCCFT_EXPECTS(wiring_.supervisor != nullptr);
      break;
    case FaultKind::kCounterCorruption:
      SCCFT_EXPECTS(!wiring_.scrubbables.empty());
      break;
    case FaultKind::kTraceSinkStuck:
      SCCFT_EXPECTS(wiring_.flight_ring != nullptr);
      break;
  }
  pending_.push_back(spec);
}

void FaultCampaign::arm() {
  SCCFT_EXPECTS(!armed_);
  armed_ = true;
  // Stable storage: scheduled events keep references into armed_specs_, so
  // it is filled once here and never resized again.
  armed_specs_.reserve(pending_.size());
  for (const FaultSpec& spec : pending_) armed_specs_.emplace_back(spec);
  pending_.clear();
  for (ArmedSpec& armed : armed_specs_) arm_spec(armed);
}

void FaultCampaign::arm_spec(ArmedSpec& armed) {
  const FaultSpec& spec = armed.spec;
  switch (spec.kind) {
    case FaultKind::kPermanentSilence:
      sim_.schedule_at(spec.at, [this, &armed] {
        record(armed.spec, sim_.now());
        begin_silence(armed.spec, -1);
      });
      break;

    case FaultKind::kTransientSilence:
      sim_.schedule_at(spec.at, [this, &armed] {
        record(armed.spec, sim_.now());
        begin_silence(armed.spec, armed.spec.at + armed.spec.duration);
      });
      sim_.schedule_at(spec.at + spec.duration,
                       [this, &armed] { end_silence(armed.spec); });
      break;

    case FaultKind::kIntermittentSilence:
      schedule_burst(armed, spec.at);
      break;

    case FaultKind::kRateDegradation:
      sim_.schedule_at(spec.at, [this, &armed] {
        record(armed.spec, sim_.now());
        for (auto* victim : victims(armed.spec)) {
          kpn::FaultState& fault = victim->context().fault();
          fault.rate_factor = armed.spec.rate_factor;
          if (fault.faulted_at < 0) fault.faulted_at = sim_.now();
        }
      });
      if (spec.duration > 0) {
        sim_.schedule_at(spec.at + spec.duration, [this, &armed] {
          for (auto* victim : victims(armed.spec)) {
            victim->context().fault().rate_factor = 1.0;
          }
        });
      }
      break;

    case FaultKind::kPayloadCorruption:
    case FaultKind::kSilentCorruption:
      sim_.schedule_at(spec.at, [this, &armed] {
        record(armed.spec, sim_.now());
        // The tamper models corruption of a replica's output tokens. For
        // kPayloadCorruption the flip lands between the replica's CRC
        // stamping and the selector's verification (rule (c) convicts); for
        // kSilentCorruption the flip precedes stamping, so the checksum is
        // consistent with the corrupted bytes and only a replica vote or the
        // golden oracle can see it. Bit position and per-token chance come
        // from the spec's private RNG stream.
        const bool silent = armed.spec.kind == FaultKind::kSilentCorruption;
        auto tamper = [&armed, silent](const kpn::Token& token) {
          if (!token.valid() || token.size_bytes() == 0) return token;
          if (!armed.rng.chance(armed.spec.corrupt_probability)) return token;
          const auto bit = static_cast<std::size_t>(armed.rng.next());
          return silent ? token.silently_corrupted(bit) : token.corrupted(bit);
        };
        wiring_.selector->set_write_tamper(victim_of(armed.spec), std::move(tamper));
      });
      if (spec.duration > 0) {
        sim_.schedule_at(spec.at + spec.duration, [this, &armed] {
          wiring_.selector->set_write_tamper(victim_of(armed.spec), nullptr);
        });
      }
      break;

    case FaultKind::kNocLink: {
      // The NoC model gates fault activity on its plan window, so the plan
      // can be installed immediately; only the window needs deriving here.
      scc::NocFaultPlan plan = spec.noc;
      plan.window_start = spec.at;
      plan.window_end = spec.duration > 0 ? spec.at + spec.duration
                                          : std::numeric_limits<rtc::TimeNs>::max();
      plan.seed = spec.seed;
      wiring_.noc->inject_faults(plan);
      sim_.schedule_at(spec.at,
                       [this, &armed] { record(armed.spec, sim_.now()); });
      break;
    }

    case FaultKind::kSupervisorHang:
      sim_.schedule_at(spec.at, [this, &armed] {
        record(armed.spec, sim_.now());
        wiring_.supervisor->inject_hang();
      });
      if (spec.duration > 0) {
        sim_.schedule_at(spec.at + spec.duration,
                         [this] { wiring_.supervisor->clear_hang(); });
      }
      break;

    case FaultKind::kCounterCorruption:
      schedule_flip(armed, spec.at, 0);
      break;

    case FaultKind::kTraceSinkStuck:
      sim_.schedule_at(spec.at, [this, &armed] {
        record(armed.spec, sim_.now());
        // Deliver staged events first so the wedge boundary falls at exactly
        // the same event position as with immediate delivery.
        sim_.trace().flush();
        wiring_.flight_ring->set_wedged(true);
      });
      if (spec.duration > 0) {
        sim_.schedule_at(spec.at + spec.duration, [this] {
          sim_.trace().flush();
          wiring_.flight_ring->set_wedged(false);
        });
      }
      break;
  }
}

void FaultCampaign::schedule_flip(ArmedSpec& armed, rtc::TimeNs at,
                                  int flip_index) {
  sim_.schedule_at(at, [this, &armed, at, flip_index] {
    const FaultSpec& spec = armed.spec;
    record(spec, sim_.now());
    std::int64_t total_words = 0;
    for (Scrubbable* target : wiring_.scrubbables) {
      total_words += target->control_word_count();
    }
    if (total_words > 0) {
      // burst_off_mean pins the victim word (1-based); otherwise a fresh
      // word is drawn per flip. The copy rotates with the flip index and the
      // mask is drawn fresh every flip: two copies must never carry the
      // *same* corruption, or they would outvote the clean copy and the
      // scrubber's majority repair could not be the defense under test.
      std::int64_t word = spec.burst_off_mean > 0
                              ? (spec.burst_off_mean - 1) % total_words
                              : armed.rng.uniform_int(0, total_words - 1);
      const int copy = flip_index % 3;
      const std::uint64_t mask = std::uint64_t{1}
                                 << armed.rng.uniform_int(0, 30);
      for (Scrubbable* target : wiring_.scrubbables) {
        const std::int64_t words = target->control_word_count();
        if (word < words) {
          target->corrupt_control_word(static_cast<int>(word), copy, mask);
          break;
        }
        word -= words;
      }
    }
    if (spec.burst_on_mean > 0 && spec.duration > 0) {
      const rtc::TimeNs next = at + spec.burst_on_mean;
      if (next < spec.at + spec.duration) {
        schedule_flip(armed, next, flip_index + 1);
      }
    }
  });
}

void FaultCampaign::begin_silence(const FaultSpec& spec, rtc::TimeNs until) {
  for (auto* victim : victims(spec)) {
    kpn::FaultState& fault = victim->context().fault();
    fault.silenced = true;
    fault.silence_until = until;
    if (fault.faulted_at < 0) fault.faulted_at = sim_.now();
  }
  // Channel-level freeze so consumption/production stops at the fault
  // instant even for a process currently parked inside a channel await.
  // Handles are retained (see freeze_reader/freeze_writer): end_silence
  // resumes them.
  wiring_.replicator->freeze_reader(victim_of(spec));
  wiring_.selector->freeze_writer(victim_of(spec));
}

void FaultCampaign::end_silence(const FaultSpec& spec) {
  for (auto* victim : victims(spec)) {
    // Idempotent: the process's own fault gate may have cleared it already.
    victim->context().fault().clear_silence();
  }
  wiring_.replicator->unfreeze_reader(victim_of(spec));
  wiring_.selector->unfreeze_writer(victim_of(spec));
}

void FaultCampaign::schedule_burst(ArmedSpec& armed, rtc::TimeNs at) {
  const FaultSpec& spec = armed.spec;
  const rtc::TimeNs window_end = spec.at + spec.duration;
  if (at >= window_end) return;
  // Burst lengths are uniform in [0.5, 1.5] x mean — bounded away from zero
  // so every burst is observable, deterministic per seed.
  const auto draw = [&armed](rtc::TimeNs mean) {
    return std::max<rtc::TimeNs>(
        1, static_cast<rtc::TimeNs>(armed.rng.uniform(0.5, 1.5) *
                                    static_cast<double>(mean)));
  };
  const rtc::TimeNs on_len = std::min(draw(spec.burst_on_mean), window_end - at);
  const rtc::TimeNs off_len = draw(spec.burst_off_mean);
  sim_.schedule_at(at, [this, &armed, at, on_len] {
    record(armed.spec, sim_.now());
    begin_silence(armed.spec, at + on_len);
  });
  sim_.schedule_at(at + on_len, [this, &armed, at, on_len, off_len] {
    end_silence(armed.spec);
    // The next burst is scheduled only now, once this one ended: burst
    // boundaries never interleave and the RNG stream stays in draw order.
    schedule_burst(armed, at + on_len + off_len);
  });
}

void FaultCampaign::record(const FaultSpec& spec, rtc::TimeNs at) {
  injections_.push_back(
      FaultInjectionRecord{spec.kind, spec.replica, at, victim_index(spec)});
  // The activation travels the bus: the supervisor's own subscription
  // timestamps its detection-latency sample without any manual wiring.
  sim_.trace().emit(trace::EventKind::kInjection, subject_, at,
                    static_cast<std::int64_t>(spec.kind), victim_index(spec));
}

}  // namespace sccft::ft
