#include "obs/export.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

namespace pardfs::obs {
namespace {

void append_double(std::string& out, double v) {
  char buf[64];
  // %.17g round-trips; %g keeps integers clean. Prometheus accepts both.
  std::snprintf(buf, sizeof(buf), "%g", v);
  out += buf;
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

// `{phase="patch"}` from the stored inner list, or nothing when unlabeled.
// `extra` (e.g. `le="4.096"`) is appended after the stored labels.
void append_labels(std::string& out, std::string_view labels,
                   std::string_view extra = {}) {
  if (labels.empty() && extra.empty()) return;
  out.push_back('{');
  out += labels;
  if (!labels.empty() && !extra.empty()) out.push_back(',');
  out += extra;
  out.push_back('}');
}

void type_line(std::string& out, std::string_view name, const char* kind,
               std::string& last_typed) {
  if (last_typed == name) return;  // one TYPE line per family
  out += "# TYPE ";
  out += name;
  out.push_back(' ');
  out += kind;
  out.push_back('\n');
  last_typed = name;
}

std::string le_label(double upper) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "le=\"%g\"", upper);
  return buf;
}

void append_json_string(std::string& out, std::string_view s) {
  out.push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out.push_back(c);
    }
  }
  out.push_back('"');
}

// JSON map key identifying one (name, labels) series.
std::string series_key(std::string_view name, std::string_view labels) {
  std::string key(name);
  if (!labels.empty()) key.append("{").append(labels).append("}");
  return key;
}

// The registry's counters and `extra`, sorted by (name, labels).
std::vector<CounterRow> counter_rows(const Registry& reg,
                                     std::span<const CounterRow> extra) {
  std::vector<CounterRow> rows(extra.begin(), extra.end());
  for (const Counter* c : reg.counters()) {
    rows.push_back({c->name(), c->labels(), c->value()});
  }
  std::sort(rows.begin(), rows.end(), [](const CounterRow& a, const CounterRow& b) {
    return std::tie(a.name, a.labels) < std::tie(b.name, b.labels);
  });
  return rows;
}

}  // namespace

std::string prometheus_text(const Registry& reg,
                            std::span<const CounterRow> extra) {
  std::string out;
  out.reserve(4096);
  std::string last_typed;

  for (const CounterRow& c : counter_rows(reg, extra)) {
    type_line(out, c.name, "counter", last_typed);
    out += c.name;
    append_labels(out, c.labels);
    out.push_back(' ');
    append_u64(out, c.value);
    out.push_back('\n');
  }

  for (const Gauge* g : reg.gauges()) {
    type_line(out, g->name(), "gauge", last_typed);
    out += g->name();
    append_labels(out, g->labels());
    out.push_back(' ');
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRId64,
                  static_cast<std::int64_t>(g->value()));
    out += buf;
    out.push_back('\n');
  }

  // Histograms: the standard cumulative series first (whole family), then
  // the companion quantile gauge families (grouped per suffix so every
  // family keeps a single TYPE line).
  const auto hists = reg.histograms();
  std::vector<HistogramSnapshot> snaps;
  snaps.reserve(hists.size());
  for (const Histogram* h : hists) snaps.push_back(h->snapshot());

  for (std::size_t hi = 0; hi < hists.size(); ++hi) {
    const Histogram* h = hists[hi];
    const HistogramSnapshot& s = snaps[hi];
    type_line(out, h->name(), "histogram", last_typed);
    // Last non-empty bucket bounds the emitted range; everything above is
    // covered by +Inf.
    std::size_t top = 0;
    for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
      if (s.buckets[i] != 0) top = i;
    }
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i <= top; ++i) {
      cumulative += s.buckets[i];
      out += h->name();
      out += "_bucket";
      append_labels(out, h->labels(), le_label(s.bucket_upper(i)));
      out.push_back(' ');
      append_u64(out, cumulative);
      out.push_back('\n');
    }
    out += h->name();
    out += "_bucket";
    append_labels(out, h->labels(), "le=\"+Inf\"");
    out.push_back(' ');
    append_u64(out, s.count);
    out.push_back('\n');
    out += h->name();
    out += "_sum";
    append_labels(out, h->labels());
    out.push_back(' ');
    append_double(out, s.sum);
    out.push_back('\n');
    out += h->name();
    out += "_count";
    append_labels(out, h->labels());
    out.push_back(' ');
    append_u64(out, s.count);
    out.push_back('\n');
  }

  struct QuantileCol {
    const char* suffix;
    double HistogramSnapshot::* field;
  };
  static constexpr QuantileCol kCols[] = {
      {"_p50", &HistogramSnapshot::p50},
      {"_p90", &HistogramSnapshot::p90},
      {"_p99", &HistogramSnapshot::p99},
      {"_max", &HistogramSnapshot::max},
  };
  for (const QuantileCol& col : kCols) {
    for (std::size_t hi = 0; hi < hists.size(); ++hi) {
      const Histogram* h = hists[hi];
      const std::string family = h->name() + col.suffix;
      type_line(out, family, "gauge", last_typed);
      out += family;
      append_labels(out, h->labels());
      out.push_back(' ');
      append_double(out, snaps[hi].*col.field);
      out.push_back('\n');
    }
  }
  return out;
}

std::string metrics_json(const Registry& reg,
                         std::span<const CounterRow> extra) {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const CounterRow& c : counter_rows(reg, extra)) {
    if (!first) out.push_back(',');
    first = false;
    append_json_string(out, series_key(c.name, c.labels));
    out.push_back(':');
    append_u64(out, c.value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const Gauge* g : reg.gauges()) {
    if (!first) out.push_back(',');
    first = false;
    append_json_string(out, series_key(g->name(), g->labels()));
    out.push_back(':');
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRId64,
                  static_cast<std::int64_t>(g->value()));
    out += buf;
  }
  out += "},\"histograms\":{";
  first = true;
  for (const Histogram* h : reg.histograms()) {
    if (!first) out.push_back(',');
    first = false;
    const HistogramSnapshot s = h->snapshot();
    append_json_string(out, series_key(h->name(), h->labels()));
    out += ":{\"count\":";
    append_u64(out, s.count);
    out += ",\"sum\":";
    append_double(out, s.sum);
    out += ",\"max\":";
    append_double(out, s.max);
    out += ",\"p50\":";
    append_double(out, s.p50);
    out += ",\"p90\":";
    append_double(out, s.p90);
    out += ",\"p99\":";
    append_double(out, s.p99);
    out += "}";
  }
  out += "}}";
  return out;
}

}  // namespace pardfs::obs
