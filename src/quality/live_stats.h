//===- quality/live_stats.h - Latest live quality sample -------*- C++-*-===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Process-global slot for the most recent live quality sample. The
/// QualityMonitor (quality/monitor.h) computes samples from the
/// adaptive runtime's in-format key reservoir and publishes them here;
/// sepeserve reads them back for its `/quality` endpoint and appends
/// the `sepe_quality_*` gauges to its Prometheus exposition.
///
//===----------------------------------------------------------------------===//

#ifndef SEPE_QUALITY_LIVE_STATS_H
#define SEPE_QUALITY_LIVE_STATS_H

#include <cstdint>
#include <string>

namespace sepe {
namespace quality {

/// One sampled estimate of how well the currently published plan is
/// distributing live traffic, stamped with the plan generation it was
/// computed against.
struct LiveQualitySample {
  /// AdaptiveHash epoch the sampled keys were hashed under.
  uint64_t Generation = 0;
  /// Monotone pump count; lets scrapers tell "new sample" from "same".
  uint64_t SequenceNumber = 0;
  /// Keys in the reservoir snapshot this sample was computed from.
  uint64_t SampleKeys = 0;
  /// Distinct sampled keys whose 64-bit hashes collided exactly.
  uint64_t DuplicateHashes = 0;
  /// Max-over-mean occupancy across 64 scrambled buckets (1.0 is
  /// perfectly even; a drifting plan skews upward before the drift
  /// detector trips).
  double OccupancySkew = 0.0;
  /// Chi-square statistic of the same 64-bucket occupancy (dof 63).
  double Chi2 = 0.0;
  /// False until the monitor has seen enough keys to say anything.
  bool Valid = false;
};

/// Publishes \p Sample as the process-wide latest. Thread-safe.
void publishLiveSample(const LiveQualitySample &Sample);

/// Latest published sample; SequenceNumber == 0 when none yet.
LiveQualitySample latestLiveSample();

/// `sepe_quality_*` gauge exposition appended to the Prometheus page.
/// Empty until the first publish so quiet processes scrape clean.
std::string liveStatsPrometheus();

/// JSON document served by `/quality`: the latest sample, generation
/// stamp included, `{"valid":false}`-shaped when nothing is published.
std::string liveStatsJson();

} // namespace quality
} // namespace sepe

#endif // SEPE_QUALITY_LIVE_STATS_H
