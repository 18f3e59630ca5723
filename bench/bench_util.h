#ifndef ESR_BENCH_BENCH_UTIL_H_
#define ESR_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "obs/metric_registry.h"

namespace esr::bench {

/// Machine-readable mirror of a bench binary's printed output: every
/// Banner() opens a section, every Table::Print() records the table under
/// the current section, and WriteMetricsSnapshot() serializes the result
/// as `<bench_name>.bench.json` next to the `.metrics.prom` snapshot
/// (scripts/run_benches.sh folds all of them into BENCH_RESULTS.json).
class BenchResultsCollector {
 public:
  static BenchResultsCollector& Instance() {
    static BenchResultsCollector collector;
    return collector;
  }

  void BeginSection(const std::string& title) {
    sections_.push_back(Section{title, {}});
  }

  void AddTable(const std::vector<std::string>& headers,
                const std::vector<std::vector<std::string>>& rows) {
    if (sections_.empty()) BeginSection("");
    sections_.back().tables.push_back(TableData{headers, rows});
  }

  std::string Json(const std::string& bench_name) const {
    std::string out = "{\"bench\":\"" + Escape(bench_name) +
                      "\",\"sections\":[";
    for (size_t s = 0; s < sections_.size(); ++s) {
      if (s > 0) out += ",";
      out += "{\"title\":\"" + Escape(sections_[s].title) + "\",\"tables\":[";
      const auto& tables = sections_[s].tables;
      for (size_t t = 0; t < tables.size(); ++t) {
        if (t > 0) out += ",";
        out += "{\"headers\":" + Array(tables[t].headers) + ",\"rows\":[";
        for (size_t r = 0; r < tables[t].rows.size(); ++r) {
          if (r > 0) out += ",";
          out += Array(tables[t].rows[r]);
        }
        out += "]}";
      }
      out += "]}";
    }
    out += "]}";
    return out;
  }

 private:
  struct TableData {
    std::vector<std::string> headers;
    std::vector<std::vector<std::string>> rows;
  };
  struct Section {
    std::string title;
    std::vector<TableData> tables;
  };

  static std::string Escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
    return out;
  }

  static std::string Array(const std::vector<std::string>& cells) {
    std::string out = "[";
    for (size_t i = 0; i < cells.size(); ++i) {
      if (i > 0) out += ",";
      out += "\"" + Escape(cells[i]) + "\"";
    }
    out += "]";
    return out;
  }

  std::vector<Section> sections_;
};

/// Fixed-width console table, markdown-ish, used by every experiment
/// harness so EXPERIMENTS.md can quote the output verbatim.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  void Print() const {
    BenchResultsCollector::Instance().AddTable(headers_, rows_);
    std::vector<size_t> widths(headers_.size());
    for (size_t i = 0; i < headers_.size(); ++i) widths[i] = headers_[i].size();
    for (const auto& row : rows_) {
      for (size_t i = 0; i < row.size() && i < widths.size(); ++i) {
        if (row[i].size() > widths[i]) widths[i] = row[i].size();
      }
    }
    PrintRow(headers_, widths);
    std::string sep;
    for (size_t i = 0; i < widths.size(); ++i) {
      sep += "|";
      sep.append(widths[i] + 2, '-');
    }
    sep += "|";
    std::printf("%s\n", sep.c_str());
    for (const auto& row : rows_) PrintRow(row, widths);
  }

 private:
  static void PrintRow(const std::vector<std::string>& cells,
                       const std::vector<size_t>& widths) {
    std::string line;
    for (size_t i = 0; i < widths.size(); ++i) {
      const std::string& cell = i < cells.size() ? cells[i] : std::string();
      line += "| " + cell;
      line.append(widths[i] - cell.size() + 1, ' ');
    }
    line += "|";
    std::printf("%s\n", line.c_str());
  }

  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string Fmt(double v, int precision = 1) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

inline std::string FmtInt(int64_t v) { return std::to_string(v); }

/// Section banner for a bench binary's stdout.
inline void Banner(const std::string& title) {
  BenchResultsCollector::Instance().BeginSection(title);
  std::printf("\n=== %s ===\n\n", title.c_str());
}

/// Per-binary metric registry that the experiments fold their systems'
/// registries into; WriteMetricsSnapshot exports it at exit.
inline obs::MetricRegistry& BenchMetrics() {
  static obs::MetricRegistry registry;
  return registry;
}

/// Folds one simulated system's metrics into the bench-wide registry.
/// Templated so this header needs no dependency on the esr facade: any type
/// with SampleGauges() and metrics() works.
template <typename System>
void CollectMetrics(System& system) {
  system.SampleGauges();
  BenchMetrics().Merge(system.metrics());
}

/// Count of a facade or method event (esr_events_total) in one system.
template <typename System>
int64_t EventCount(const System& system, const std::string& event) {
  return system.metrics().CounterValue("esr_events_total",
                                       {{"event", event}});
}

/// Count of a reliable-transport event at one site of one system.
template <typename System>
int64_t TransportEventCount(const System& system, int site,
                            const std::string& event) {
  return system.metrics().CounterValue(
      "esr_transport_events_total",
      {{"event", event}, {"site", std::to_string(site)}});
}

/// Writes the bench-wide registry as Prometheus text next to the binary's
/// stdout results (`<bench_name>.metrics.prom`). Purely additive: measured
/// results are produced before this runs and are unaffected. Its
/// `[metrics]` and `[results]` lines go to stderr, so stdout holds the
/// measured results only and does not change with the exported series.
inline void WriteMetricsSnapshot(const std::string& bench_name) {
  const std::string path = bench_name + ".metrics.prom";
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "[metrics] cannot open %s for writing\n",
                 path.c_str());
    return;
  }
  out << BenchMetrics().PrometheusText();
  std::fprintf(stderr, "[metrics] wrote %s (%lld series)\n", path.c_str(),
               static_cast<long long>(BenchMetrics().SeriesCount()));
  const std::string json_path = bench_name + ".bench.json";
  std::ofstream json_out(json_path, std::ios::trunc);
  if (!json_out) {
    std::fprintf(stderr, "[results] cannot open %s for writing\n",
                 json_path.c_str());
    return;
  }
  json_out << BenchResultsCollector::Instance().Json(bench_name) << "\n";
  std::fprintf(stderr, "[results] wrote %s\n", json_path.c_str());
}

}  // namespace esr::bench

#endif  // ESR_BENCH_BENCH_UTIL_H_
