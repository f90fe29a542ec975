// MetricsRegistry: named counters, gauges and summary histograms with
// deterministic (registration-order) iteration, plus row-oriented sinks.
//
// Two consumption modes:
//   * Snapshot — ToJson() renders every instrument once (benches embed this
//     into their BENCH_*.json artifacts).
//   * Series — EmitRow(sink, step) appends one row with the current value of
//     every instrument; JsonlSink writes one JSON object per line (the CLI's
//     --metrics-out), CsvSink writes a header plus comma-separated rows.
//     Histograms expand into .count/.sum/.min/.max columns so rows stay
//     flat. The column set is fixed at the first row: register every
//     instrument before emitting (stock observers do this in their
//     constructors).
//
// Instruments are thread-safe, because the daemon's chase workers and HTTP
// handlers share registries: counters are sharded over cache-line-aligned
// atomic cells (one relaxed fetch_add on the calling thread's shard per
// Increment, merge-on-read), gauges are a single atomic, histograms take a
// mutex (they are observed at phase granularity, never on a hot path).
// *Registration* is not: GetCounter/GetGauge/GetHistogram and the
// render/emit paths must stay on one thread — stock observers register
// everything in their constructors, before any other thread sees the
// registry. Pointers remain stable for the registry's lifetime.
#ifndef TWCHASE_OBS_METRICS_H_
#define TWCHASE_OBS_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace twchase {

/// Monotone counter, safe for concurrent Increment from any number of
/// threads. Sharded: each thread is hashed onto one of kShards cache-line
/// aligned cells, so concurrent increments from different threads do not
/// contend (no CAS loop, no shared cache line); value() folds the shards.
/// value() is safe concurrently with increments but, like any merge-on-read
/// scheme, yields a momentary snapshot — exact once the writers joined.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Increment(uint64_t delta = 1) {
    shards_[ShardIndex()].value.fetch_add(delta, std::memory_order_relaxed);
  }

  uint64_t value() const {
    uint64_t total = 0;
    for (const Shard& shard : shards_) {
      total += shard.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  static constexpr size_t kShards = 16;
  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };

  /// The calling thread's shard: threads are numbered on first use and
  /// folded mod kShards, so a thread always hits the same cell.
  static size_t ShardIndex();

  Shard shards_[kShards];
};

/// Last-write-wins gauge; Set and value are single atomic accesses.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0};
};

/// Summary histogram: count/sum/min/max (no buckets — enough for the
/// per-phase timing and per-step distribution series the benches report).
/// Mutex-guarded: observations happen at phase/round granularity, where a
/// lock is noise; min/max updates do not decompose into atomics anyway.
class Histogram {
 public:
  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(double value);
  size_t count() const;
  double sum() const;
  double min() const;
  double max() const;
  double mean() const;

  /// Folds `other`'s summary into this one, as if every observation of
  /// `other` had been Observed here (count/sum add, min/max widen).
  void Merge(const Histogram& other);

 private:
  mutable std::mutex mu_;
  size_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

/// One flat (column, value) pair of a metrics row.
struct MetricColumn {
  std::string name;
  double value = 0;
};

/// Receives one row per EmitRow call. Column order and names are identical
/// across the rows of one registry.
class MetricsSink {
 public:
  virtual ~MetricsSink() = default;
  virtual void Row(size_t step, const std::vector<MetricColumn>& columns) = 0;
};

class MetricsRegistry {
 public:
  /// Get-or-create by name. The returned pointer is stable. A name may be
  /// registered under one instrument kind only.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Flattens every instrument into columns, registration order.
  std::vector<MetricColumn> SnapshotColumns() const;

  /// Appends one row with the current value of every instrument.
  void EmitRow(MetricsSink* sink, size_t step) const;

  /// Renders all instruments as one JSON object, grouped by kind:
  /// {"counters": {...}, "gauges": {...}, "histograms": {name:
  /// {"count":..,"sum":..,"min":..,"max":..,"mean":..}}}. `indent` shifts
  /// every line for embedding into an enclosing document.
  std::string ToJson(int indent = 0) const;

  /// Folds every instrument of `other` into this registry, get-or-creating
  /// by name: counters add, gauges take `other`'s last value, histograms
  /// merge summaries. The fleet-aggregation primitive of the chase daemon
  /// (each finished job's per-run registry is folded into one fleet
  /// registry). Registration is still single-threaded: callers serialize
  /// MergeFrom with every other registration/render of *this* registry
  /// (the daemon holds its fleet-metrics mutex); `other` may no longer be
  /// written to concurrently.
  void MergeFrom(const MetricsRegistry& other);

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    std::string name;
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* FindOrCreate(const std::string& name, Kind kind);

  std::vector<Entry> entries_;
  std::unordered_map<std::string, size_t> index_;
};

/// Renders a double the way our JSON artifacts expect: integral values
/// without a fraction ("42"), others with up to 6 significant decimals.
std::string FormatMetricNumber(double value);

/// One JSON object per row, one row per line:
/// {"step":3,"chase.instance.size":14,...}
class JsonlSink : public MetricsSink {
 public:
  explicit JsonlSink(std::ostream* out) : out_(out) {}
  void Row(size_t step, const std::vector<MetricColumn>& columns) override;

 private:
  std::ostream* out_;
};

/// Header row ("step,<col>,..."), then one comma-separated row per call.
/// The header is written lazily at the first row and the column set is
/// checked to stay identical afterwards.
class CsvSink : public MetricsSink {
 public:
  explicit CsvSink(std::ostream* out) : out_(out) {}
  void Row(size_t step, const std::vector<MetricColumn>& columns) override;

 private:
  std::ostream* out_;
  size_t header_columns_ = 0;
  bool header_written_ = false;
};

}  // namespace twchase

#endif  // TWCHASE_OBS_METRICS_H_
