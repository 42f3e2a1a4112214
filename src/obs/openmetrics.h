#ifndef STREAMAGG_OBS_OPENMETRICS_H_
#define STREAMAGG_OBS_OPENMETRICS_H_

#include <string>

#include "obs/telemetry.h"

namespace streamagg {

/// Renders a TelemetrySnapshot as OpenMetrics text exposition (the
/// Prometheus scrape format, version 1.0.0): every counter, gauge, and
/// LogHistogram of the snapshot becomes a `streamagg_*` metric family,
/// with per-table / per-shard / per-query breakdowns as
/// labels ({relation="AB"}, {shard="0"}, ...). Histograms are exposed with
/// cumulative `_bucket{le="..."}` samples at the log2 bucket upper bounds.
/// The output ends with the mandatory `# EOF` terminator and is accepted
/// verbatim by Prometheus and the OpenMetrics parsers.
///
/// The metric-name <-> JSON-field mapping is tabulated in
/// docs/observability.md; the HTTP endpoint serving this text is
/// obs/http_listener.h (engine_monitor --serve).
std::string TelemetryToOpenMetrics(const TelemetrySnapshot& snapshot);

/// The Content-Type an HTTP endpoint should serve this text under.
inline const char* OpenMetricsContentType() {
  return "application/openmetrics-text; version=1.0.0; charset=utf-8";
}

}  // namespace streamagg

#endif  // STREAMAGG_OBS_OPENMETRICS_H_
