#include "core/classes.h"

#include <cstdio>

#include "util/status.h"

namespace twchase {

ClassificationReport ClassifyKb(const KnowledgeBase& kb,
                                const ClassificationOptions& options) {
  ClassificationReport report;

  ChaseOptions core_opts;
  core_opts.variant = ChaseVariant::kCore;
  core_opts.limits.max_steps = options.max_steps;
  auto core_run = RunChase(kb, core_opts);
  TWCHASE_CHECK_MSG(core_run.ok(), core_run.status().ToString());
  report.core_chase_terminated =
      core_run->stop_reason == StopReason::kFixpoint;
  report.core_steps = core_run->steps;
  report.core_tw_series = MeasureSeries(core_run->derivation,
                                        Measure::kTreewidthUpper, options.tw);
  report.core_tw =
      SummarizeBoundedness(report.core_tw_series, options.tail_window);

  ChaseOptions restricted_opts;
  restricted_opts.variant = ChaseVariant::kRestricted;
  restricted_opts.limits.max_steps = options.max_steps;
  auto restricted_run = RunChase(kb, restricted_opts);
  TWCHASE_CHECK_MSG(restricted_run.ok(), restricted_run.status().ToString());
  report.restricted_terminated =
      restricted_run->stop_reason == StopReason::kFixpoint;
  report.restricted_steps = restricted_run->steps;
  report.restricted_tw_series = MeasureSeries(
      restricted_run->derivation, Measure::kTreewidthUpper, options.tw);
  report.restricted_tw =
      SummarizeBoundedness(report.restricted_tw_series, options.tail_window);

  return report;
}

std::string ClassificationReport::ToTableRow(const std::string& name) const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%-24s | %-9s %6zu | rc tw max %2d tail %2d %-9s | cc tw max "
                "%2d tail %2d",
                name.c_str(), core_chase_terminated ? "TERM(fes)" : "no-term",
                core_steps, restricted_tw.uniform_bound,
                restricted_tw.recurring_estimate,
                restricted_terminated ? "TERM" : "no-term",
                core_tw.uniform_bound, core_tw.recurring_estimate);
  return buf;
}

}  // namespace twchase
