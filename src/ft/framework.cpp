#include "ft/framework.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "util/assert.hpp"

namespace sccft::ft {

rtc::NetworkTimingModel AppTimingSpec::to_model() const {
  rtc::NetworkTimingModel model;
  auto fill = [](const rtc::PJD& pjd, rtc::CurveRef& upper, rtc::CurveRef& lower) {
    upper = rtc::make_curve<rtc::PJDUpperCurve>(pjd);
    lower = rtc::make_curve<rtc::PJDLowerCurve>(pjd);
  };
  fill(producer, model.producer_upper, model.producer_lower);
  fill(replica1_in, model.replica1_in_upper, model.replica1_in_lower);
  fill(replica2_in, model.replica2_in_upper, model.replica2_in_lower);
  fill(replica1_out, model.replica1_out_upper, model.replica1_out_lower);
  fill(replica2_out, model.replica2_out_upper, model.replica2_out_lower);
  fill(consumer, model.consumer_upper, model.consumer_lower);
  return model;
}

rtc::TimeNs AppTimingSpec::default_horizon() const {
  rtc::TimeNs max_period = 0;
  rtc::TimeNs max_jitter = 0;
  for (const rtc::PJD* pjd : {&producer, &replica1_in, &replica2_in, &replica1_out,
                              &replica2_out, &consumer}) {
    max_period = std::max(max_period, pjd->period);
    max_jitter = std::max(max_jitter, pjd->jitter);
  }
  return 100 * max_period + 2 * max_jitter;
}

rtc::SizingReport AppTimingSpec::analyze() const {
  return rtc::analyze_duplicated_network(to_model(), default_horizon());
}

std::optional<DetectionRecord> DetectionLog::first() const {
  if (records.empty()) return std::nullopt;
  return records.front();
}

std::optional<DetectionRecord> DetectionLog::first_replicator() const {
  for (const auto& record : records) {
    if (record.rule == DetectionRule::kReplicatorOverflow) return record;
  }
  return std::nullopt;
}

std::optional<DetectionRecord> DetectionLog::first_selector() const {
  for (const auto& record : records) {
    if (record.rule == DetectionRule::kSelectorStall ||
        record.rule == DetectionRule::kSelectorDivergence ||
        record.rule == DetectionRule::kSelectorCorruption) {
      return record;
    }
  }
  return std::nullopt;
}

DetectionRecorder::DetectionRecorder(trace::TraceBus& bus,
                                     std::vector<trace::SubjectId> subjects)
    : bus_(bus), subjects_(std::move(subjects)) {
  bus_.subscribe(this, trace::bit(trace::EventKind::kDetection));
}

DetectionRecorder::~DetectionRecorder() { bus_.unsubscribe(this); }

void DetectionRecorder::on_event(const trace::Event& event) {
  if (std::find(subjects_.begin(), subjects_.end(), event.subject) == subjects_.end()) {
    return;
  }
  log_.records.push_back(DetectionRecord{ReplicaIndex{static_cast<int>(event.a)},
                                         static_cast<DetectionRule>(event.b),
                                         event.time});
}

FaultTolerantHarness::FaultTolerantHarness(kpn::Network& network, Config config)
    : FaultTolerantHarness(network, config, config.timing.analyze()) {}

FaultTolerantHarness::FaultTolerantHarness(kpn::Network& network, Config config,
                                           rtc::SizingReport sizing)
    : sizing_(sizing), injector_(network.simulator()) {
  // The overrides use 0 as "unset"; a negative value is neither unset nor a
  // legal size, and the `override > 0 ? override : analyzed` selection below
  // would silently discard it. Diagnose with the offending value instead.
  if (config.divergence_threshold_override < 0) {
    util::contract_failure_msg(
        "precondition",
        "divergence_threshold_override must be >= 0 (0 = use Eq. (5)), got " +
            std::to_string(config.divergence_threshold_override),
        __FILE__, __LINE__);
  }
  if (config.replicator_capacity_override < 0) {
    util::contract_failure_msg(
        "precondition",
        "replicator_capacity_override must be >= 0 (0 = use Eq. (3)), got " +
            std::to_string(config.replicator_capacity_override),
        __FILE__, __LINE__);
  }
  auto link = [&](scc::CoreId src,
                  scc::CoreId dst) -> std::optional<kpn::FifoChannel::LinkModel> {
    if (config.platform == nullptr) return std::nullopt;
    return kpn::FifoChannel::LinkModel{&config.platform->noc(), src, dst};
  };

  const auto replicator_capacity = [&](rtc::Tokens analyzed) {
    return config.replicator_capacity_override > 0 ? config.replicator_capacity_override
                                                   : analyzed;
  };
  ReplicatorChannel::Config replicator_config{
      .capacities = {replicator_capacity(sizing_.replicator_capacity1),
                     replicator_capacity(sizing_.replicator_capacity2)},
      .links = {link(config.producer_core, config.replica1_in_core),
                link(config.producer_core, config.replica2_in_core)}};
  replicator_ = &network.adopt_channel(std::make_unique<ReplicatorChannel>(
      network.simulator(), config.name_prefix + ".replicator", replicator_config));

  SelectorChannel::Config selector_config{
      .capacities = {sizing_.selector_capacity1, sizing_.selector_capacity2},
      .initials = {sizing_.selector_initial1, sizing_.selector_initial2},
      .divergence_threshold = config.divergence_threshold_override > 0
                                  ? config.divergence_threshold_override
                                  : sizing_.selector_threshold,
      .enable_stall_rule = config.enable_selector_stall_rule,
      .verify_checksums = config.verify_selector_checksums,
      .corruption_conviction_threshold = config.corruption_conviction_threshold,
      .links = {link(config.replica1_out_core, config.consumer_core),
                link(config.replica2_out_core, config.consumer_core)}};
  selector_ = &network.adopt_channel(std::make_unique<SelectorChannel>(
      network.simulator(), config.name_prefix + ".selector", selector_config));
  if (config.preload_initial_tokens) {
    selector_->preload_initial_tokens(config.initial_token);
  }

  recorder_.emplace(network.simulator().trace(),
                    std::vector{replicator_->trace_subject(), selector_->trace_subject()});
}

rtc::TimeNs NReplicaHarness::Config::default_horizon() const {
  rtc::TimeNs max_period = std::max(producer.period, consumer.period);
  rtc::TimeNs max_jitter = std::max(producer.jitter, consumer.jitter);
  for (const std::vector<rtc::PJD>* models : {&replica_in, &replica_out}) {
    for (const rtc::PJD& pjd : *models) {
      max_period = std::max(max_period, pjd.period);
      max_jitter = std::max(max_jitter, pjd.jitter);
    }
  }
  return 100 * max_period + 2 * max_jitter;
}

NSizingReport NReplicaHarness::Config::analyze() const {
  SCCFT_EXPECTS(replica_in.size() >= 2);
  SCCFT_EXPECTS(replica_out.size() == replica_in.size());
  const std::size_t n = replica_in.size();

  NReplicaTimingModel model;
  auto fill = [](const rtc::PJD& pjd, rtc::CurveRef& upper, rtc::CurveRef& lower) {
    upper = rtc::make_curve<rtc::PJDUpperCurve>(pjd);
    lower = rtc::make_curve<rtc::PJDLowerCurve>(pjd);
  };
  fill(producer, model.producer_upper, model.producer_lower);
  fill(consumer, model.consumer_upper, model.consumer_lower);
  model.in_upper.resize(n);
  model.in_lower.resize(n);
  model.out_upper.resize(n);
  model.out_lower.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    fill(replica_in[i], model.in_upper[i], model.in_lower[i]);
    fill(replica_out[i], model.out_upper[i], model.out_lower[i]);
  }
  return analyze_n_replica_network(model, default_horizon());
}

NReplicaHarness::NReplicaHarness(kpn::Network& network, Config config)
    : NReplicaHarness(network, config, config.analyze()) {}

NReplicaHarness::NReplicaHarness(kpn::Network& network, Config config,
                                 NSizingReport sizing)
    : sizing_(std::move(sizing)) {
  SCCFT_EXPECTS(config.replica_in.size() >= 2);
  SCCFT_EXPECTS(sizing_.replicator_capacity.size() == config.replica_in.size());
  SCCFT_EXPECTS(sizing_.selector_capacity.size() == config.replica_in.size());
  SCCFT_EXPECTS(sizing_.selector_initial.size() == config.replica_in.size());

  replicator_ = &network.adopt_channel(std::make_unique<ReplicatorChannel>(
      network.simulator(), config.name_prefix + ".replicator",
      ReplicatorChannel::Config{.capacities = sizing_.replicator_capacity}));

  SelectorChannel::Config selector_config;
  selector_config.capacities = sizing_.selector_capacity;
  selector_config.initials = sizing_.selector_initial;
  selector_config.divergence_threshold = sizing_.divergence_threshold;
  selector_config.enable_stall_rule = config.enable_stall_rule;
  selector_config.verify_checksums = config.verify_checksums;
  selector_config.corruption_conviction_threshold =
      config.corruption_conviction_threshold;
  selector_config.enable_payload_vote = config.enable_payload_vote;
  if (config.enable_payload_vote) {
    // Vote mode requires every side's usable space (capacity - initial) to
    // exceed D (see SelectorChannel::Config): while a group is blocked on a silent
    // peer, the consumer drains nothing, so a healthy leader must be able to
    // write its way to the rule (b) verdict on space alone. Grow the FIFOs,
    // never weaken the threshold.
    for (std::size_t i = 0; i < selector_config.capacities.size(); ++i) {
      selector_config.capacities[i] =
          std::max(selector_config.capacities[i],
                   selector_config.initials[i] + sizing_.divergence_threshold + 1);
    }
  }
  selector_ = &network.adopt_channel(std::make_unique<SelectorChannel>(
      network.simulator(), config.name_prefix + ".selector",
      std::move(selector_config)));
  recorder_.emplace(network.simulator().trace(),
                    std::vector{replicator_->trace_subject(), selector_->trace_subject()});
}

std::optional<rtc::TimeNs> FaultTolerantHarness::first_detection_latency() const {
  const auto record = detections().first();
  if (!record || injector_.injected_at() < 0) return std::nullopt;
  return record->detected_at - injector_.injected_at();
}

std::optional<rtc::TimeNs> FaultTolerantHarness::replicator_detection_latency() const {
  const auto record = detections().first_replicator();
  if (!record || injector_.injected_at() < 0) return std::nullopt;
  return record->detected_at - injector_.injected_at();
}

std::optional<rtc::TimeNs> FaultTolerantHarness::selector_detection_latency() const {
  const auto record = detections().first_selector();
  if (!record || injector_.injected_at() < 0) return std::nullopt;
  return record->detected_at - injector_.injected_at();
}

}  // namespace sccft::ft
