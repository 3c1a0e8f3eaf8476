// Registry exporters. Both render a point-in-time snapshot of every
// registered metric; output is deterministic (sorted by name, then labels).
//
//   * prometheus_text — Prometheus exposition format. Histograms emit the
//     standard cumulative `_bucket{le=...}` / `_sum` / `_count` series
//     (log2 bucket bounds, trailing empty buckets elided) plus companion
//     `<name>_p50/_p90/_p99/_max` gauge families, since log-bucket
//     quantiles are the object of interest and not every scrape pipeline
//     runs histogram_quantile().
//   * metrics_json — same data as one JSON object, for tooling and the
//     bench/fuzz artifact paths.
//
// `extra` adds counter series kept outside the registry (a router's own
// event counts, DESIGN.md §11). They merge into the sorted counter section,
// so a family keeps one TYPE line whichever side its series come from.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"

namespace pardfs::obs {

struct CounterRow {
  std::string_view name;
  std::string_view labels;  // pre-formatted inner list, like Counter's
  std::uint64_t value = 0;
};

std::string prometheus_text(const Registry& reg = Registry::global(),
                            std::span<const CounterRow> extra = {});
std::string metrics_json(const Registry& reg = Registry::global(),
                         std::span<const CounterRow> extra = {});

}  // namespace pardfs::obs
