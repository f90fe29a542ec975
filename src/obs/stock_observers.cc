#include "obs/stock_observers.h"

#include <iterator>
#include <string>

#include "tw/treewidth.h"
#include "util/status.h"

namespace twchase {

// --------------------------------------------------------------------------
// TraceObserver. The format mirrors the historical trace.cc line for line;
// tests/trace_dot_test.cc pins it.

void TraceObserver::AppendInstance(const AtomSet* instance) {
  if (options_.print_instances && instance != nullptr) {
    text_ += "    " + instance->ToString(*vocab_) + "\n";
  }
}

void TraceObserver::OnRunBegin(const RunBeginEvent& event) {
  ++elements_seen_;
  if (options_.max_steps != 0 && elements_printed_ >= options_.max_steps) {
    return;
  }
  ++elements_printed_;
  text_ += "F_0 = initial";
  const Substitution* sigma = event.initial_simplification;
  if (sigma != nullptr && !sigma->empty() && !sigma->IsIdentity()) {
    text_ += ", cored via " + sigma->ToString(*vocab_);
  }
  text_ += " -> |F| = " + std::to_string(event.initial_size) + "\n";
  AppendInstance(event.instance);
}

void TraceObserver::OnTriggerApplied(const TriggerAppliedEvent& event) {
  ++elements_seen_;
  if (options_.max_steps != 0 && elements_printed_ >= options_.max_steps) {
    return;
  }
  ++elements_printed_;
  text_ += "F_" + std::to_string(event.step) + " = ";
  if (event.rule_label != nullptr && !event.rule_label->empty()) {
    text_ += *event.rule_label;
  } else {
    text_ += "rule#" + std::to_string(event.rule_index);
  }
  text_ += " @ " + event.match->ToString(*vocab_);
  text_ += " +" + std::to_string(event.added_atoms) + " atoms";
  const Substitution* sigma = event.simplification;
  if (sigma != nullptr && !sigma->empty() && !sigma->IsIdentity()) {
    text_ += ", simplified " + sigma->ToString(*vocab_);
  }
  text_ += " -> |F| = " + std::to_string(event.instance_size) + "\n";
  AppendInstance(event.instance);
}

void TraceObserver::OnRunEnd(const RunEndEvent& event) {
  (void)event;
  if (elements_seen_ > elements_printed_) {
    text_ += "... (" + std::to_string(elements_seen_ - elements_printed_) +
             " more steps)\n";
  }
}

// --------------------------------------------------------------------------
// MeasuresObserver.

void MeasuresObserver::Record(size_t instance_size, const AtomSet* instance) {
  switch (measure_) {
    case Measure::kSize:
      series_.push_back(static_cast<int>(instance_size));
      break;
    case Measure::kTreewidthUpper:
    case Measure::kTreewidthLower: {
      TWCHASE_CHECK_MSG(instance != nullptr,
                        "treewidth measures need the instance payload");
      TreewidthResult tw = ComputeTreewidth(*instance, tw_options_);
      series_.push_back(measure_ == Measure::kTreewidthUpper ? tw.upper_bound
                                                             : tw.lower_bound);
      break;
    }
  }
}

void MeasuresObserver::OnRunBegin(const RunBeginEvent& event) {
  Record(event.initial_size, event.instance);
}

void MeasuresObserver::OnTriggerApplied(const TriggerAppliedEvent& event) {
  Record(event.instance_size, event.instance);
}

// --------------------------------------------------------------------------
// MetricsObserver.

namespace {

template <auto Member>
uint64_t ReadStat(const ChaseStats& stats) {
  return static_cast<uint64_t>(stats.*Member);
}

// Every instrument published from ChaseStats, in column order: counters
// are registered after chase.core.folds, gauges after chase.instance.size.
struct StatsColumn {
  const char* name;
  bool gauge;
  uint64_t (*read)(const ChaseStats&);
};
constexpr StatsColumn kStatsColumns[] = {
    {"chase.match.index_probes", false,
     ReadStat<&ChaseStats::match_index_probes>},
    {"chase.match.column_scans", false,
     ReadStat<&ChaseStats::match_column_scans>},
    {"chase.match.join_fallbacks", false,
     ReadStat<&ChaseStats::match_join_fallbacks>},
    {"chase.match.index_builds", false,
     ReadStat<&ChaseStats::match_index_builds>},
    {"chase.match.index_build_bytes", false,
     ReadStat<&ChaseStats::match_index_build_bytes>},
    {"chase.match.search_nodes", false,
     ReadStat<&ChaseStats::match_search_nodes>},
    {"chase.plan.enumerations_skipped", false,
     ReadStat<&ChaseStats::plan_enumerations_skipped>},
    {"chase.plan.probes_skipped", false,
     ReadStat<&ChaseStats::plan_probes_skipped>},
    {"chase.plan.core_proofs", false, ReadStat<&ChaseStats::plan_core_proofs>},
    {"chase.plan.core_certified", false,
     ReadStat<&ChaseStats::plan_core_certified>},
    {"chase.plan.guard_nodes", false,
     ReadStat<&ChaseStats::guard_search_nodes>},
    {"chase.plan.reliance_edges", true,
     ReadStat<&ChaseStats::plan_reliance_edges>},
    {"chase.plan.strata", true, ReadStat<&ChaseStats::plan_strata>},
    {"chase.plan.dormant_rules", true,
     ReadStat<&ChaseStats::plan_dormant_rules>},
    {"chase.plan.active_strata", true,
     ReadStat<&ChaseStats::plan_active_strata>},
    {"chase.plan.guard_max_nodes", true,
     ReadStat<&ChaseStats::guard_max_call_nodes>},
};

}  // namespace

MetricsObserver::MetricsObserver(MetricsRegistry* registry,
                                 const MetricsObserverOptions& options)
    : registry_(registry), options_(options) {
  considered_ = registry_->GetCounter("chase.triggers.considered");
  applied_ = registry_->GetCounter("chase.triggers.applied");
  retired_ = registry_->GetCounter("chase.triggers.retired");
  delta_repairs_ = registry_->GetCounter("chase.delta.repairs");
  delta_inserted_ = registry_->GetCounter("chase.delta.inserted");
  delta_erased_ = registry_->GetCounter("chase.delta.erased");
  delta_invalidated_ = registry_->GetCounter("chase.delta.invalidated");
  delta_seed_probes_ = registry_->GetCounter("chase.delta.seed_probes");
  core_retractions_ = registry_->GetCounter("chase.core.retractions");
  core_folds_ = registry_->GetCounter("chase.core.folds");
  stats_instruments_.resize(std::size(kStatsColumns));
  for (size_t i = 0; i < std::size(kStatsColumns); ++i) {
    if (!kStatsColumns[i].gauge) {
      stats_instruments_[i].counter =
          registry_->GetCounter(kStatsColumns[i].name);
    }
  }
  round_ = registry_->GetGauge("chase.round");
  instance_size_ = registry_->GetGauge("chase.instance.size");
  for (size_t i = 0; i < std::size(kStatsColumns); ++i) {
    if (kStatsColumns[i].gauge) {
      stats_instruments_[i].gauge = registry_->GetGauge(kStatsColumns[i].name);
    }
  }
  if (options_.treewidth_upper) {
    treewidth_upper_ = registry_->GetGauge("chase.treewidth.upper");
  }
  round_pending_ = registry_->GetHistogram("chase.round.pending");
  step_added_atoms_ = registry_->GetHistogram("chase.step.added_atoms");
}

void MetricsObserver::PublishStats(const ChaseStats* stats) {
  if (stats == nullptr) return;
  for (size_t i = 0; i < std::size(kStatsColumns); ++i) {
    StatsInstrument& instrument = stats_instruments_[i];
    const uint64_t value = kStatsColumns[i].read(*stats);
    if (instrument.counter != nullptr) {
      instrument.counter->Increment(value - instrument.published);
    } else {
      instrument.gauge->Set(static_cast<double>(value));
    }
    instrument.published = value;
  }
}

void MetricsObserver::UpdatePerStepGauges(size_t step, size_t instance_size,
                                          const AtomSet* instance) {
  instance_size_->Set(static_cast<double>(instance_size));
  if (treewidth_upper_ != nullptr) {
    TWCHASE_CHECK_MSG(instance != nullptr,
                      "treewidth gauge needs instance payloads");
    treewidth_upper_->Set(static_cast<double>(
        ComputeTreewidth(*instance, options_.tw).upper_bound));
  }
  registry_->EmitRow(options_.out, step);
}

void MetricsObserver::OnRunBegin(const RunBeginEvent& event) {
  // A registry may outlive one run: counters keep adding up across runs.
  for (StatsInstrument& instrument : stats_instruments_) {
    instrument.published = 0;
  }
  PublishStats(event.stats);
  UpdatePerStepGauges(0, event.initial_size, event.instance);
}

void MetricsObserver::OnRoundBegin(const RoundBeginEvent& event) {
  round_->Set(static_cast<double>(event.round));
  round_pending_->Observe(static_cast<double>(event.pending_triggers));
}

void MetricsObserver::OnDeltaRepair(const DeltaRepairEvent& event) {
  delta_repairs_->Increment();
  delta_inserted_->Increment(event.inserted_atoms);
  delta_erased_->Increment(event.erased_atoms);
  delta_invalidated_->Increment(event.matches_invalidated);
  delta_seed_probes_->Increment(event.seed_probes);
}

void MetricsObserver::OnTriggerConsidered(const TriggerConsideredEvent&) {
  considered_->Increment();
}

void MetricsObserver::OnTriggerApplied(const TriggerAppliedEvent& event) {
  applied_->Increment();
  step_added_atoms_->Observe(static_cast<double>(event.added_atoms));
  PublishStats(event.stats);
  UpdatePerStepGauges(event.step, event.instance_size, event.instance);
}

void MetricsObserver::OnTriggerRetired(const TriggerRetiredEvent&) {
  retired_->Increment();
}

void MetricsObserver::OnCoreRetraction(const CoreRetractionEvent& event) {
  core_retractions_->Increment();
  core_folds_->Increment(event.folds);
}

void MetricsObserver::OnPhase(const PhaseEvent& event) {
  registry_->GetHistogram(std::string("phase.") + event.name + ".wall_ms")
      ->Observe(event.wall_ms);
}

// Repeats the last step with the run's final values: the counters of the
// work after that step (the rest of its round).
void MetricsObserver::OnRunEnd(const RunEndEvent& event) {
  PublishStats(event.stats);
  registry_->EmitRow(options_.out, event.steps);
}

// --------------------------------------------------------------------------
// EventLogObserver.

namespace {

std::string Escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

const char* Bool(bool b) { return b ? "true" : "false"; }

}  // namespace

void EventLogObserver::OnRunBegin(const RunBeginEvent& event) {
  if (out_ == nullptr) return;
  *out_ << "{\"event\": \"run_begin\", \"variant\": \""
        << ChaseVariantName(event.variant)
        << "\", \"rules\": " << event.rule_count
        << ", \"initial_size\": " << event.initial_size << "}\n";
}

void EventLogObserver::OnRoundBegin(const RoundBeginEvent& event) {
  if (out_ == nullptr) return;
  *out_ << "{\"event\": \"round_begin\", \"round\": " << event.round
        << ", \"pending\": " << event.pending_triggers
        << ", \"size\": " << event.instance_size << "}\n";
}

void EventLogObserver::OnDeltaRepair(const DeltaRepairEvent& event) {
  if (out_ == nullptr) return;
  *out_ << "{\"event\": \"delta_repair\", \"round\": " << event.round
        << ", \"inserted\": " << event.inserted_atoms
        << ", \"erased\": " << event.erased_atoms
        << ", \"invalidated\": " << event.matches_invalidated
        << ", \"seed_probes\": " << event.seed_probes
        << ", \"matches_added\": " << event.matches_added << "}\n";
}

void EventLogObserver::OnTriggerConsidered(
    const TriggerConsideredEvent& event) {
  if (out_ == nullptr) return;
  *out_ << "{\"event\": \"trigger_considered\", \"round\": " << event.round
        << ", \"rule\": " << event.rule_index << "}\n";
}

void EventLogObserver::OnTriggerApplied(const TriggerAppliedEvent& event) {
  if (out_ == nullptr) return;
  *out_ << "{\"event\": \"trigger_applied\", \"step\": " << event.step
        << ", \"round\": " << event.round << ", \"rule\": " << event.rule_index;
  if (event.rule_label != nullptr && !event.rule_label->empty()) {
    *out_ << ", \"label\": \"" << Escape(*event.rule_label) << "\"";
  }
  *out_ << ", \"added\": " << event.added_atoms
        << ", \"size\": " << event.instance_size << "}\n";
}

void EventLogObserver::OnTriggerRetired(const TriggerRetiredEvent& event) {
  if (out_ == nullptr) return;
  *out_ << "{\"event\": \"trigger_retired\", \"round\": " << event.round
        << ", \"rule\": " << event.rule_index << ", \"reason\": \""
        << TriggerRetireReasonName(event.reason) << "\"}\n";
}

void EventLogObserver::OnCoreRetraction(const CoreRetractionEvent& event) {
  if (out_ == nullptr) return;
  *out_ << "{\"event\": \"core_retraction\", \"step\": " << event.step
        << ", \"folds\": " << event.folds
        << ", \"before\": " << event.size_before
        << ", \"after\": " << event.size_after << "}\n";
}

void EventLogObserver::OnRoundEnd(const RoundEndEvent& event) {
  if (out_ == nullptr) return;
  *out_ << "{\"event\": \"round_end\", \"round\": " << event.round
        << ", \"steps\": " << event.steps_in_round
        << ", \"size\": " << event.instance_size
        << ", \"progressed\": " << Bool(event.progressed) << "}\n";
}

void EventLogObserver::OnRobustRename(const RobustRenameEvent& event) {
  if (out_ == nullptr) return;
  *out_ << "{\"event\": \"robust_rename\", \"step\": " << event.step
        << ", \"renamed\": " << event.renamed_variables
        << ", \"stable\": " << event.stable_variables
        << ", \"g_size\": " << event.g_size
        << ", \"union_size\": " << event.union_size << "}\n";
}

void EventLogObserver::OnPhase(const PhaseEvent& event) {
  if (out_ == nullptr) return;
  *out_ << "{\"event\": \"phase\", \"name\": \"" << Escape(event.name)
        << "\", \"wall_ms\": " << FormatMetricNumber(event.wall_ms)
        << ", \"chase_steps\": " << event.chase_steps << "}\n";
}

void EventLogObserver::OnFaultInjected(const FaultInjectedEvent& event) {
  if (out_ == nullptr) return;
  *out_ << "{\"event\": \"fault_injected\", \"site\": \""
        << FaultSiteName(event.site) << "\", \"visit\": " << event.visit
        << ", \"simulated\": \"" << StopReasonName(event.simulated)
        << "\"}\n";
}

void EventLogObserver::OnRunEnd(const RunEndEvent& event) {
  if (out_ == nullptr) return;
  *out_ << "{\"event\": \"run_end\", \"steps\": " << event.steps
        << ", \"rounds\": " << event.rounds
        << ", \"terminated\": " << Bool(event.terminated)
        << ", \"size_guard\": " << Bool(event.size_guard_tripped)
        << ", \"stop_reason\": \"" << StopReasonName(event.stop_reason)
        << "\", \"final_size\": " << event.final_size << "}\n";
}

}  // namespace twchase
