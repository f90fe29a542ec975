#include "obs/metrics.h"

#include <cmath>
#include <cstdio>

#include "util/status.h"

namespace twchase {

void Histogram::Observe(double value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (count_ == 0 || value < min_) min_ = value;
  if (count_ == 0 || value > max_) max_ = value;
  ++count_;
  sum_ += value;
}

size_t Histogram::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

double Histogram::sum() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sum_;
}

double Histogram::min() const {
  std::lock_guard<std::mutex> lock(mu_);
  return min_;
}

double Histogram::max() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_;
}

double Histogram::mean() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_ == 0 ? 0 : sum_ / count_;
}

void Histogram::Merge(const Histogram& other) {
  // Snapshot `other` under its own lock first: the two locks are never
  // held together, so Merge can never deadlock (a histogram is not merged
  // into itself).
  size_t other_count;
  double other_sum, other_min, other_max;
  {
    std::lock_guard<std::mutex> lock(other.mu_);
    other_count = other.count_;
    other_sum = other.sum_;
    other_min = other.min_;
    other_max = other.max_;
  }
  if (other_count == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (count_ == 0 || other_min < min_) min_ = other_min;
  if (count_ == 0 || other_max > max_) max_ = other_max;
  count_ += other_count;
  sum_ += other_sum;
}

MetricsRegistry::Entry* MetricsRegistry::FindOrCreate(const std::string& name,
                                                      Kind kind) {
  auto it = index_.find(name);
  if (it != index_.end()) {
    Entry& entry = entries_[it->second];
    TWCHASE_CHECK_MSG(entry.kind == kind,
                      "metric '" + name + "' registered under another kind");
    return &entry;
  }
  index_.emplace(name, entries_.size());
  Entry entry;
  entry.name = name;
  entry.kind = kind;
  switch (kind) {
    case Kind::kCounter:
      entry.counter = std::make_unique<Counter>();
      break;
    case Kind::kGauge:
      entry.gauge = std::make_unique<Gauge>();
      break;
    case Kind::kHistogram:
      entry.histogram = std::make_unique<Histogram>();
      break;
  }
  entries_.push_back(std::move(entry));
  return &entries_.back();
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  return FindOrCreate(name, Kind::kCounter)->counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  return FindOrCreate(name, Kind::kGauge)->gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  return FindOrCreate(name, Kind::kHistogram)->histogram.get();
}

std::vector<MetricColumn> MetricsRegistry::SnapshotColumns() const {
  std::vector<MetricColumn> columns;
  columns.reserve(entries_.size());
  for (const Entry& entry : entries_) {
    switch (entry.kind) {
      case Kind::kCounter:
        columns.push_back(
            {entry.name, static_cast<double>(entry.counter->value())});
        break;
      case Kind::kGauge:
        columns.push_back({entry.name, entry.gauge->value()});
        break;
      case Kind::kHistogram: {
        const Histogram& h = *entry.histogram;
        columns.push_back(
            {entry.name + ".count", static_cast<double>(h.count())});
        columns.push_back({entry.name + ".sum", h.sum()});
        columns.push_back({entry.name + ".min", h.min()});
        columns.push_back({entry.name + ".max", h.max()});
        break;
      }
    }
  }
  return columns;
}

std::string FormatMetricNumber(double value) {
  if (std::isfinite(value) && value == std::floor(value) &&
      std::abs(value) < 1e15) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.0f", value);
    return buffer;
  }
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return buffer;
}

namespace {

// Metric names are dotted identifiers we mint ourselves, but escape anyway
// so a stray quote can never produce invalid JSON.
std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

std::string MetricsRegistry::ToJson(int indent) const {
  const std::string pad(static_cast<size_t>(indent), ' ');
  std::string counters;
  std::string gauges;
  std::string histograms;
  for (const Entry& entry : entries_) {
    std::string* group = &counters;
    std::string rendered = "\"" + JsonEscape(entry.name) + "\": ";
    switch (entry.kind) {
      case Kind::kCounter:
        group = &counters;
        rendered +=
            FormatMetricNumber(static_cast<double>(entry.counter->value()));
        break;
      case Kind::kGauge:
        group = &gauges;
        rendered += FormatMetricNumber(entry.gauge->value());
        break;
      case Kind::kHistogram: {
        group = &histograms;
        const Histogram& h = *entry.histogram;
        rendered += "{\"count\": " +
                    FormatMetricNumber(static_cast<double>(h.count())) +
                    ", \"sum\": " + FormatMetricNumber(h.sum()) +
                    ", \"min\": " + FormatMetricNumber(h.min()) +
                    ", \"max\": " + FormatMetricNumber(h.max()) +
                    ", \"mean\": " + FormatMetricNumber(h.mean()) + "}";
        break;
      }
    }
    if (!group->empty()) *group += ",\n";
    *group += pad + "    " + rendered;
  }
  std::string out = "{\n";
  auto append_group = [&](const char* key, const std::string& body,
                          bool last) {
    out += pad + "  \"" + key + "\": {";
    if (!body.empty()) out += "\n" + body + "\n" + pad + "  ";
    out += "}";
    if (!last) out += ",";
    out += "\n";
  };
  append_group("counters", counters, false);
  append_group("gauges", gauges, false);
  append_group("histograms", histograms, true);
  out += pad + "}";
  return out;
}

void MetricsRegistry::MergeFrom(const MetricsRegistry& other) {
  for (const Entry& entry : other.entries_) {
    switch (entry.kind) {
      case Kind::kCounter: {
        // Register even a zero counter so the fleet column set is the
        // union of every job's, stable across merges.
        Counter* mine = GetCounter(entry.name);
        uint64_t value = entry.counter->value();
        if (value != 0) mine->Increment(value);
        break;
      }
      case Kind::kGauge:
        GetGauge(entry.name)->Set(entry.gauge->value());
        break;
      case Kind::kHistogram:
        GetHistogram(entry.name)->Merge(*entry.histogram);
        break;
    }
  }
}

void MetricsRegistry::EmitRow(std::ostream* out, size_t step) const {
  if (out == nullptr) return;
  *out << "{\"step\": " << step;
  for (const MetricColumn& column : SnapshotColumns()) {
    *out << ", \"" << JsonEscape(column.name)
         << "\": " << FormatMetricNumber(column.value);
  }
  *out << "}\n";
}

}  // namespace twchase
