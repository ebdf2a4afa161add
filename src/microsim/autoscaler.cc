#include "microsim/autoscaler.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/json_fmt.hh"
#include "util/logging.hh"

namespace accel::microsim {

namespace {

/**
 * Window latency histogram: linear buckets across [0, 2*SLO] so the
 * p99 interpolation is fine-grained exactly where the control decision
 * lives, plus the implicit overflow bucket for collapsed tails.
 */
Histogram
controlWindowHist(const AutoscalerConfig &cfg)
{
    cfg.validate();
    std::vector<double> edges;
    edges.reserve(65);
    double step = 2.0 * cfg.sloLatencyCycles / 64.0;
    for (int i = 0; i <= 64; ++i)
        edges.push_back(step * i);
    return Histogram(std::move(edges));
}

} // namespace

void
AutoscalerConfig::validate() const
{
    require(std::isfinite(intervalCycles) && intervalCycles >= 1.0,
            "AutoscalerConfig.intervalCycles must be finite and >= 1");
    require(std::isfinite(sloLatencyCycles) && sloLatencyCycles >= 0.0,
            "AutoscalerConfig.sloLatencyCycles must be finite and >= 0");
    require(!enabled || sloLatencyCycles > 0.0,
            "AutoscalerConfig.sloLatencyCycles must be > 0 when "
            "enabled");
    require(std::isfinite(scaleUpPressure) && scaleUpPressure > 0.0,
            "AutoscalerConfig.scaleUpPressure must be finite and > 0");
    require(std::isfinite(scaleDownPressure) &&
                scaleDownPressure >= 0.0 &&
                scaleDownPressure < scaleUpPressure,
            "AutoscalerConfig.scaleDownPressure must be in "
            "[0, scaleUpPressure)");
    require(upWindows >= 1, "AutoscalerConfig.upWindows must be >= 1");
    require(downWindows >= 1,
            "AutoscalerConfig.downWindows must be >= 1");
    require(std::isfinite(cooldownCycles) && cooldownCycles >= 0.0,
            "AutoscalerConfig.cooldownCycles must be finite and >= 0");
    require(minReplicas >= 1,
            "AutoscalerConfig.minReplicas must be >= 1");
    require(maxReplicas >= minReplicas,
            "AutoscalerConfig.maxReplicas must be >= minReplicas");
    require(scaleStep >= 1, "AutoscalerConfig.scaleStep must be >= 1");
    require(brownoutFloor >= 1,
            "AutoscalerConfig.brownoutFloor must be >= 1");
    require(std::isfinite(brownoutTighten) && brownoutTighten > 0.0 &&
                brownoutTighten < 1.0,
            "AutoscalerConfig.brownoutTighten must be in (0, 1)");
    require(std::isfinite(brownoutRelax) && brownoutRelax > 1.0,
            "AutoscalerConfig.brownoutRelax must be > 1");
    require(!brownout || enabled,
            "AutoscalerConfig.brownout needs the autoscaler enabled "
            "(the gate runs on the control cadence)");
}

std::string
AutoscalerStats::summaryJson() const
{
    std::ostringstream os;
    os << "{\"control_windows\": " << controlWindows
       << ", \"scale_ups\": " << scaleUps
       << ", \"scale_downs\": " << scaleDowns
       << ", \"up_blocked\": " << upBlocked
       << ", \"down_blocked\": " << downBlocked
       << ", \"breach_windows\": " << breachWindows
       << ", \"admission_tightenings\": " << admissionTightenings
       << ", \"admission_relaxations\": " << admissionRelaxations
       << ", \"window_p99_cycles\": " << windowP99Cycles.summaryJson()
       << ", \"merged_p99_cycles\": " << jsonNumber(mergedP99Cycles)
       << ", \"final_replicas\": " << finalReplicas
       << ", \"min_replicas_observed\": " << minReplicasObserved
       << ", \"max_replicas_observed\": " << maxReplicasObserved
       << "}";
    return os.str();
}

Autoscaler::Autoscaler(sim::EventQueue &eq, AcceleratorTier &tier,
                       const AutoscalerConfig &cfg,
                       std::uint32_t staticQueueBound)
    : eq_(eq),
      tier_(tier),
      cfg_(cfg),
      staticQueueBound_(staticQueueBound),
      interval_(std::max<sim::Tick>(
          1, static_cast<sim::Tick>(std::llround(cfg.intervalCycles)))),
      window_(controlWindowHist(cfg)),
      cumulative_(controlWindowHist(cfg))
{
    require(cfg_.enabled, "Autoscaler: constructed while disabled");
    require(cfg_.maxReplicas <= tier_.replicaCount(),
            "Autoscaler: maxReplicas exceeds the tier's constructed "
            "replica count");
    require(!cfg_.brownout || staticQueueBound_ > 0,
            "Autoscaler: the brown-out gate tightens the admission "
            "queue, so ServiceConfig.maxArrivalQueue must be > 0");
    require(!cfg_.brownout || cfg_.brownoutFloor <= staticQueueBound_,
            "Autoscaler: brownoutFloor exceeds maxArrivalQueue");
    target_ = cfg_.minReplicas;
    admissionLimit_ = cfg_.brownout ? staticQueueBound_ : 0;
    stats_.finalReplicas = target_;
    stats_.minReplicasObserved = target_;
    stats_.maxReplicasObserved = target_;
}

void
Autoscaler::start(sim::Tick endTick)
{
    endTick_ = endTick;
    // A one-replica tier may be trivial (single-device fast path);
    // applying a target of 1 there is a no-op either way.
    if (tier_.replicaCount() > 1)
        tier_.setActiveReplicas(target_);
    eq_.scheduleIn(interval_, [this]() { controlTick(); });
}

void
Autoscaler::observeLatency(double cycles)
{
    window_.add(cycles);
}

void
Autoscaler::noteQueueDepth(std::uint64_t depth)
{
    maxQueueInWindow_ = std::max(maxQueueInWindow_, depth);
}

void
Autoscaler::noteShed()
{
    ++shedsInWindow_;
}

void
Autoscaler::resetStats()
{
    stats_ = AutoscalerStats{};
    stats_.finalReplicas = target_;
    stats_.minReplicasObserved = target_;
    stats_.maxReplicasObserved = target_;
    // The measurement window starts a fresh aggregate; the in-flight
    // control window keeps its samples (control state is continuous).
    cumulative_ = controlWindowHist(cfg_);
}

void
Autoscaler::controlTick()
{
    ++stats_.controlWindows;
    bool hasSamples = window_.total() > 0.0;
    double p99 = hasSamples ? window_.quantile(0.99) : 0.0;
    stats_.windowP99Cycles.add(p99);
    cumulative_.merge(window_);
    window_ = controlWindowHist(cfg_);
    stats_.mergedP99Cycles = cumulative_.quantile(0.99);
    if (hasSamples && p99 > cfg_.sloLatencyCycles)
        ++stats_.breachWindows;

    // Pressure signals, any of which votes to grow (and tightens the
    // brown-out gate): the window tail is approaching the budget,
    // arrivals were shed, or the admission queue filled past half its
    // bound (incipient overload the latency percentile has not caught
    // up with yet). Slack — a calm window with a low tail — votes to
    // shrink (and relaxes the gate).
    bool pressure = shedsInWindow_ > 0 ||
        (hasSamples && p99 >= cfg_.scaleUpPressure * cfg_.sloLatencyCycles) ||
        (staticQueueBound_ > 0 &&
         maxQueueInWindow_ * 2 >= staticQueueBound_);
    bool slack = !pressure && hasSamples &&
        p99 <= cfg_.scaleDownPressure * cfg_.sloLatencyCycles;
    evaluateScaling(pressure, slack);
    if (cfg_.brownout)
        evaluateAdmission(pressure, slack);

    shedsInWindow_ = 0;
    maxQueueInWindow_ = 0;
    stats_.finalReplicas = target_;

    if (eq_.now() < endTick_)
        eq_.scheduleIn(interval_, [this]() { controlTick(); });
}

void
Autoscaler::evaluateScaling(bool pressure, bool slack)
{
    upVotes_ = pressure ? upVotes_ + 1 : 0;
    downVotes_ = slack ? downVotes_ + 1 : 0;

    if (everActed_ &&
        static_cast<double>(eq_.now() - lastActionTick_) <
            cfg_.cooldownCycles)
        return; // cooling down; votes keep accumulating

    if (upVotes_ >= cfg_.upWindows) {
        upVotes_ = 0;
        if (target_ >= cfg_.maxReplicas) {
            ++stats_.upBlocked;
            return;
        }
        target_ = std::min(target_ + cfg_.scaleStep, cfg_.maxReplicas);
        tier_.setActiveReplicas(target_);
        ++stats_.scaleUps;
        stats_.maxReplicasObserved =
            std::max(stats_.maxReplicasObserved, target_);
        lastActionTick_ = eq_.now();
        everActed_ = true;
    } else if (downVotes_ >= cfg_.downWindows) {
        downVotes_ = 0;
        if (target_ <= cfg_.minReplicas) {
            ++stats_.downBlocked;
            return;
        }
        target_ = std::max(target_ - std::min(target_ - 1,
                                              cfg_.scaleStep),
                           cfg_.minReplicas);
        tier_.setActiveReplicas(target_);
        ++stats_.scaleDowns;
        stats_.minReplicasObserved =
            std::min(stats_.minReplicasObserved, target_);
        lastActionTick_ = eq_.now();
        everActed_ = true;
    }
}

void
Autoscaler::evaluateAdmission(bool pressure, bool slack)
{
    std::uint64_t before = admissionLimit_;
    if (pressure) {
        // Tighten before latency collapses: admitted requests keep a
        // bounded queue ahead of them; the overflow is shed and
        // attributed to overload, not silently delayed.
        auto cut = static_cast<std::uint64_t>(
            static_cast<double>(admissionLimit_) *
            cfg_.brownoutTighten);
        admissionLimit_ = std::max<std::uint64_t>(cfg_.brownoutFloor,
                                                  cut);
        if (admissionLimit_ < before)
            ++stats_.admissionTightenings;
    } else if (slack && admissionLimit_ < staticQueueBound_) {
        auto grown = static_cast<std::uint64_t>(
            static_cast<double>(admissionLimit_) * cfg_.brownoutRelax);
        admissionLimit_ = std::min<std::uint64_t>(
            staticQueueBound_,
            std::max(grown, admissionLimit_ + 1));
        if (admissionLimit_ > before)
            ++stats_.admissionRelaxations;
    }
}

} // namespace accel::microsim
