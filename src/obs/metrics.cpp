#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace pardfs::obs {
namespace {

// Map key: name and labels joined on a byte that can appear in neither.
std::string make_key(std::string_view name, std::string_view labels) {
  std::string key;
  key.reserve(name.size() + labels.size() + 1);
  key.append(name);
  key.push_back('\x1f');
  key.append(labels);
  return key;
}

[[noreturn]] void kind_clash(std::string_view name) {
  std::fprintf(stderr,
               "pardfs::obs: metric '%.*s' registered with two kinds\n",
               static_cast<int>(name.size()), name.data());
  std::abort();
}

}  // namespace

double HistogramSnapshot::bucket_upper(std::size_t i) const {
  // Bucket 0 is the exact value 0; bucket i >= 1 covers [2^(i-1), 2^i).
  if (i == 0) return 0.0;
  return static_cast<double>(std::uint64_t{1} << i) * scale;
}

double HistogramSnapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target order statistic, 1-based.
  const double rank = q * static_cast<double>(count - 1) + 1.0;
  std::uint64_t below = 0;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    const std::uint64_t in_bucket = buckets[i];
    if (in_bucket == 0) continue;
    if (rank <= static_cast<double>(below + in_bucket)) {
      if (i == 0) return 0.0;
      // Linear interpolation across the bucket's value range by the rank's
      // position within the bucket's population.
      const double lo = static_cast<double>(std::uint64_t{1} << (i - 1));
      const double hi = static_cast<double>(std::uint64_t{1} << i);
      const double frac =
          (rank - static_cast<double>(below)) / static_cast<double>(in_bucket);
      double est = (lo + (hi - lo) * frac) * scale;
      // The true value can't exceed the observed maximum (tight for the top
      // bucket, harmless elsewhere).
      return std::min(est, max > 0.0 ? max : est);
    }
    below += in_bucket;
  }
  return max;
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  snap.scale = scale_;
  std::uint64_t raw_sum = 0;
  std::uint64_t raw_max = 0;
  for (const Shard& s : shards_) {
    for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
      snap.buckets[i] += s.buckets[i].load(std::memory_order_relaxed);
    }
    snap.count += s.count.load(std::memory_order_relaxed);
    raw_sum += s.sum.load(std::memory_order_relaxed);
    raw_max = std::max(raw_max, s.max.load(std::memory_order_relaxed));
  }
  snap.sum = static_cast<double>(raw_sum) * scale_;
  snap.max = static_cast<double>(raw_max) * scale_;
  snap.p50 = snap.quantile(0.50);
  snap.p90 = snap.quantile(0.90);
  snap.p99 = snap.quantile(0.99);
  return snap;
}

std::uint64_t Histogram::count() const {
  std::uint64_t total = 0;
  for (const Shard& s : shards_) {
    total += s.count.load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::sum() const {
  std::uint64_t raw = 0;
  for (const Shard& s : shards_) {
    raw += s.sum.load(std::memory_order_relaxed);
  }
  return static_cast<double>(raw) * scale_;
}

void Histogram::reset() {
  for (Shard& s : shards_) {
    for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
    s.count.store(0, std::memory_order_relaxed);
    s.sum.store(0, std::memory_order_relaxed);
    s.max.store(0, std::memory_order_relaxed);
  }
}

Registry& Registry::global() {
  static Registry* instance = new Registry();  // leaked on purpose
  return *instance;
}

Counter& Registry::counter(std::string_view name, std::string_view labels) {
  const std::string key = make_key(name, labels);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(key);
  if (it == counters_.end()) {
    if (gauges_.count(key) || histograms_.count(key)) kind_clash(name);
    it = counters_
             .emplace(key, std::unique_ptr<Counter>(new Counter(
                               std::string(name), std::string(labels))))
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name, std::string_view labels) {
  const std::string key = make_key(name, labels);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(key);
  if (it == gauges_.end()) {
    if (counters_.count(key) || histograms_.count(key)) kind_clash(name);
    it = gauges_
             .emplace(key, std::unique_ptr<Gauge>(new Gauge(
                               std::string(name), std::string(labels))))
             .first;
  }
  return *it->second;
}

std::string shard_labels(std::string labels, std::string_view shard) {
  if (shard.empty()) return labels;
  if (!labels.empty()) labels += ',';
  labels += "shard=\"";
  labels += shard;
  labels += '"';
  return labels;
}

Histogram& Registry::histogram(std::string_view name, std::string_view labels,
                               double scale) {
  const std::string key = make_key(name, labels);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(key);
  if (it == histograms_.end()) {
    if (counters_.count(key) || gauges_.count(key)) kind_clash(name);
    it = histograms_
             .emplace(key, std::unique_ptr<Histogram>(new Histogram(
                               std::string(name), std::string(labels), scale)))
             .first;
  }
  return *it->second;
}

namespace {
template <class Map, class T>
std::vector<const T*> sorted_view(std::mutex& mu, const Map& map) {
  std::vector<const T*> out;
  {
    std::lock_guard<std::mutex> lock(mu);
    out.reserve(map.size());
    for (const auto& [key, ptr] : map) out.push_back(ptr.get());
  }
  std::sort(out.begin(), out.end(), [](const T* a, const T* b) {
    if (a->name() != b->name()) return a->name() < b->name();
    return a->labels() < b->labels();
  });
  return out;
}
}  // namespace

std::vector<const Counter*> Registry::counters() const {
  return sorted_view<decltype(counters_), Counter>(mu_, counters_);
}

std::vector<const Gauge*> Registry::gauges() const {
  return sorted_view<decltype(gauges_), Gauge>(mu_, gauges_);
}

std::vector<const Histogram*> Registry::histograms() const {
  return sorted_view<decltype(histograms_), Histogram>(mu_, histograms_);
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, c] : counters_) c->reset();
  for (auto& [key, g] : gauges_) g->reset();
  for (auto& [key, h] : histograms_) h->reset();
}

}  // namespace pardfs::obs
