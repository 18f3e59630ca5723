#ifndef ESR_TESTS_TEST_UTIL_H_
#define ESR_TESTS_TEST_UTIL_H_

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "esr/replicated_system.h"

namespace esr::test {

/// Strict Prometheus text-format (0.0.4) check used by the golden-file and
/// exporter tests. Returns "" when `text` is a well-formed exposition, else
/// a one-line description of the first violation. Checks: line shapes
/// (HELP/TYPE comments, `name{labels} value` samples), metric-name and
/// label syntax with escape handling, one TYPE per family declared before
/// its samples, no duplicate series, parseable sample values, histogram
/// bucket runs cumulative with a final +Inf bucket equal to `_count`.
inline std::string ValidatePrometheusExposition(const std::string& text) {
  if (text.empty()) return "";  // an empty exposition is trivially valid
  if (text.back() != '\n') return "exposition does not end with a newline";

  auto valid_name = [](const std::string& s) {
    if (s.empty()) return false;
    if (!std::isalpha(static_cast<unsigned char>(s[0])) && s[0] != '_' &&
        s[0] != ':') {
      return false;
    }
    for (char c : s) {
      if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
          c != ':') {
        return false;
      }
    }
    return true;
  };
  /// Family a sample name belongs to, given the declared TYPEs (histogram
  /// samples carry _bucket/_sum/_count suffixes).
  auto family_of = [](const std::string& sample,
                      const std::map<std::string, std::string>& types) {
    if (types.count(sample) != 0) return sample;
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const size_t len = std::string(suffix).size();
      if (sample.size() > len &&
          sample.compare(sample.size() - len, len, suffix) == 0) {
        const std::string base = sample.substr(0, sample.size() - len);
        if (types.count(base) != 0) return base;
      }
    }
    return std::string();
  };

  std::map<std::string, std::string> types;  // family -> counter|gauge|...
  std::set<std::string> families_with_samples;
  std::set<std::string> seen_series;
  // State of the current histogram bucket run (one series' le sequence).
  std::string run_key;  // name + labels-without-le; "" = no open run
  double run_prev = 0;
  bool run_saw_inf = false;
  double run_inf_value = 0;

  size_t pos = 0;
  int lineno = 0;
  while (pos < text.size()) {
    ++lineno;
    const size_t eol = text.find('\n', pos);
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    const std::string where = " (line " + std::to_string(lineno) + ")";
    if (line.empty()) return "blank line" + where;

    if (line[0] == '#') {
      // "# HELP name text" / "# TYPE name kind"; other comments pass.
      if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
        const bool is_type = line.rfind("# TYPE ", 0) == 0;
        const size_t name_at = 7;
        const size_t sp = line.find(' ', name_at);
        const std::string name = line.substr(
            name_at, sp == std::string::npos ? std::string::npos
                                             : sp - name_at);
        if (!valid_name(name)) return "bad metric name in comment" + where;
        if (is_type) {
          const std::string kind =
              sp == std::string::npos ? "" : line.substr(sp + 1);
          if (kind != "counter" && kind != "gauge" && kind != "histogram" &&
              kind != "summary" && kind != "untyped") {
            return "unknown TYPE kind '" + kind + "'" + where;
          }
          if (types.count(name) != 0) return "duplicate TYPE" + where;
          if (families_with_samples.count(name) != 0) {
            return "TYPE after samples of " + name + where;
          }
          types[name] = kind;
        }
      }
      continue;
    }

    // Sample line: name[{labels}] value
    size_t i = 0;
    while (i < line.size() && line[i] != '{' && line[i] != ' ') ++i;
    const std::string name = line.substr(0, i);
    if (!valid_name(name)) return "bad sample name" + where;
    std::string labels;
    std::string le_value;
    if (i < line.size() && line[i] == '{') {
      const size_t open = i;
      ++i;
      while (i < line.size() && line[i] != '}') {
        // label name
        const size_t lname_at = i;
        while (i < line.size() && line[i] != '=') ++i;
        const std::string lname = line.substr(lname_at, i - lname_at);
        if (!valid_name(lname) || lname[0] == ':') {
          return "bad label name" + where;
        }
        if (i + 1 >= line.size() || line[i + 1] != '"') {
          return "label value not quoted" + where;
        }
        i += 2;
        std::string lvalue;
        while (i < line.size() && line[i] != '"') {
          if (line[i] == '\\') {
            if (i + 1 >= line.size() ||
                (line[i + 1] != '\\' && line[i + 1] != '"' &&
                 line[i + 1] != 'n')) {
              return "bad escape in label value" + where;
            }
            lvalue += line[i + 1];
            i += 2;
          } else {
            lvalue += line[i];
            ++i;
          }
        }
        if (i >= line.size()) return "unterminated label value" + where;
        ++i;  // closing quote
        if (lname == "le") le_value = lvalue;
        if (i < line.size() && line[i] == ',') ++i;
      }
      if (i >= line.size()) return "unterminated label set" + where;
      ++i;  // '}'
      labels = line.substr(open, i - open);
    }
    if (i >= line.size() || line[i] != ' ') {
      return "missing value separator" + where;
    }
    const std::string value_str = line.substr(i + 1);
    double value = 0;
    if (value_str == "+Inf") {
      value = std::numeric_limits<double>::infinity();
    } else if (value_str == "-Inf") {
      value = -std::numeric_limits<double>::infinity();
    } else if (value_str == "NaN") {
      value = 0;
    } else {
      char* end = nullptr;
      value = std::strtod(value_str.c_str(), &end);
      if (value_str.empty() || end == nullptr || *end != '\0') {
        return "unparseable sample value '" + value_str + "'" + where;
      }
    }

    const std::string family = family_of(name, types);
    if (family.empty()) return "sample " + name + " has no TYPE" + where;
    families_with_samples.insert(family);
    if (!seen_series.insert(name + labels).second) {
      return "duplicate series " + name + labels + where;
    }

    // Histogram bucket runs: per series, cumulative le buckets ending in
    // +Inf, with _count equal to the +Inf bucket.
    const bool is_bucket =
        types[family] == "histogram" && name == family + "_bucket";
    if (is_bucket) {
      // Strip the le label so the run key identifies the series.
      std::string key = name;
      const size_t le_at = labels.find("le=\"");
      if (le_at == std::string::npos) {
        return "histogram bucket without le label" + where;
      }
      key += labels.substr(0, le_at) +
             labels.substr(labels.find_first_of(",}", le_at));
      if (key != run_key) {
        if (!run_key.empty() && !run_saw_inf) {
          return "bucket run without +Inf before " + name + labels + where;
        }
        run_key = key;
        run_prev = 0;
        run_saw_inf = false;
      }
      if (value + 1e-9 < run_prev) {
        return "non-cumulative bucket " + name + labels + where;
      }
      run_prev = value;
      if (le_value == "+Inf") {
        run_saw_inf = true;
        run_inf_value = value;
      }
    } else {
      if (!run_key.empty()) {
        if (!run_saw_inf) return "bucket run without +Inf bucket" + where;
        if (name == family + "_count" && value != run_inf_value) {
          return family + "_count != +Inf bucket" + where;
        }
        if (name != family + "_sum" && name != family + "_count") {
          run_key.clear();
        }
      }
      if (name == family + "_count") run_key.clear();
    }
  }
  if (!run_key.empty() && !run_saw_inf) {
    return "exposition ends mid bucket run";
  }
  return "";
}

/// Count of the facade or method event `event` (esr_events_total).
inline int64_t EventCount(const core::ReplicatedSystem& system,
                          const std::string& event) {
  return system.metrics().CounterValue("esr_events_total",
                                       {{"event", event}});
}

/// The series of event-counter family `name` whose `site` label is `site`
/// (every series when `site` is empty), as (event, value) pairs in event
/// order, read back from the registry's exposition.
inline std::vector<std::pair<std::string, int64_t>> EventCounts(
    const obs::MetricRegistry& metrics, const std::string& name,
    const std::string& site = "") {
  auto label = [](const std::string& labels, const std::string& key) {
    const size_t at = labels.find(key + "=\"");
    if (at == std::string::npos) return std::string();
    const size_t from = at + key.size() + 2;
    return labels.substr(from, labels.find('"', from) - from);
  };
  std::vector<std::pair<std::string, int64_t>> counts;
  const std::string text = metrics.PrometheusText();
  const std::string prefix = name + "{";
  for (size_t pos = 0; pos < text.size();) {
    const size_t eol = text.find('\n', pos);
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.rfind(prefix, 0) != 0) continue;
    const std::string labels = line.substr(0, line.find('}'));
    if (!site.empty() && label(labels, "site") != site) continue;
    counts.emplace_back(label(labels, "event"),
                        std::stoll(line.substr(line.rfind(' ') + 1)));
  }
  return counts;
}

/// Builds a default SystemConfig for a method.
inline core::SystemConfig Config(core::Method method, int num_sites = 3,
                                 uint64_t seed = 42) {
  core::SystemConfig config;
  config.method = method;
  config.num_sites = num_sites;
  config.seed = seed;
  return config;
}

/// Submits an update and returns its ET id, failing the test on admission
/// errors.
inline EtId MustSubmit(core::ReplicatedSystem& system, SiteId origin,
                       std::vector<store::Operation> ops,
                       core::CommitFn done = nullptr) {
  auto result = system.SubmitUpdate(origin, std::move(ops), std::move(done));
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? *result : kInvalidEtId;
}

/// What a pinned-run test compares against constants captured at a
/// known-good commit: every site's state digest, the order position of
/// every committed update (history order), and every site's transport
/// counters as "name=value" pairs.
struct PinnedRun {
  std::vector<uint64_t> digests;
  std::vector<SequenceNumber> orders;
  std::vector<std::string> transport;
};

inline PinnedRun CapturePinnedRun(core::ReplicatedSystem& system) {
  PinnedRun run;
  for (SiteId s = 0; s < system.config().num_sites; ++s) {
    run.digests.push_back(system.SiteDigest(s));
    std::string counters;
    for (const auto& [event, value] :
         EventCounts(system.metrics(), "esr_transport_events_total",
                     std::to_string(s))) {
      if (!counters.empty()) counters += ' ';
      counters += event + "=" + std::to_string(value);
    }
    run.transport.push_back(std::move(counters));
  }
  for (const analysis::UpdateRecord& u : system.history().updates()) {
    if (!u.aborted) run.orders.push_back(u.order);
  }
  return run;
}

/// `run` as a PinnedRun initializer, printed when a pin does not match.
inline std::string FormatPinnedRun(const PinnedRun& run) {
  std::string out = "{{";
  char hex[32];
  for (size_t i = 0; i < run.digests.size(); ++i) {
    std::snprintf(hex, sizeof(hex), "%s0x%016llxull", i == 0 ? "" : ", ",
                  static_cast<unsigned long long>(run.digests[i]));
    out += hex;
  }
  out += "},\n {";
  for (size_t i = 0; i < run.orders.size(); ++i) {
    out += (i == 0 ? "" : ", ") + std::to_string(run.orders[i]);
  }
  out += "},\n {";
  for (size_t i = 0; i < run.transport.size(); ++i) {
    out += (i == 0 ? "\"" : ",\n  \"") + run.transport[i] + "\"";
  }
  return out + "}}";
}

inline void ExpectPinnedRun(const PinnedRun& actual, const PinnedRun& pinned) {
  EXPECT_EQ(actual.digests, pinned.digests);
  EXPECT_EQ(actual.orders, pinned.orders);
  EXPECT_EQ(actual.transport, pinned.transport);
  if (actual.digests != pinned.digests || actual.orders != pinned.orders ||
      actual.transport != pinned.transport) {
    ADD_FAILURE() << "actual run:\n" << FormatPinnedRun(actual);
  }
}

/// Runs a whole query ET synchronously from the test's point of view:
/// begins the query, issues the reads back-to-back through the retrying
/// Read API (driving the simulator until each completes), ends the query,
/// and returns the values. `inconsistency_out`, if non-null, receives the
/// query's final counter.
inline std::vector<Value> RunQuery(core::ReplicatedSystem& system,
                                   SiteId site, int64_t epsilon,
                                   const std::vector<ObjectId>& objects,
                                   int64_t* inconsistency_out = nullptr,
                                   int64_t* restarts_out = nullptr) {
  const EtId q = system.BeginQuery(site, epsilon);
  std::vector<Value> values;
  for (ObjectId object : objects) {
    bool done = false;
    system.Read(q, object, [&](Result<Value> v) {
      EXPECT_TRUE(v.ok()) << v.status().ToString();
      if (v.ok()) values.push_back(*v);
      done = true;
    });
    // Drive the simulator until this read resolves (bounded).
    int64_t guard = 0;
    while (!done && guard++ < 10'000'000) {
      if (!system.simulator().Step()) break;
    }
    EXPECT_TRUE(done) << "read never completed";
    if (!done) break;
  }
  const core::QueryState* state = system.query_state(q);
  if (state != nullptr) {
    if (inconsistency_out != nullptr) *inconsistency_out = state->inconsistency;
    if (restarts_out != nullptr) *restarts_out = state->restarts;
  }
  EXPECT_TRUE(system.EndQuery(q).ok());
  return values;
}

/// One query of an overlapping mix: the values it read, in read order, and
/// its accounting just before it ended.
struct QueryOutcome {
  std::vector<int64_t> values;
  int64_t inconsistency = 0;
  int64_t restarts = 0;

  friend bool operator==(const QueryOutcome&, const QueryOutcome&) = default;
};

/// Runs `rounds` rounds of overlapping query ETs against whatever load the
/// caller scheduled. Round r begins one query at `sites[r % sites.size()]`
/// with epsilon `1 + r % 3`; then every live query issues one read, the
/// i-th live query reading `objects[(r + i) % objects.size()]`, and the
/// simulator runs `gap_us`. A query ends after `lifetime` reads, once they
/// have all completed, so up to `lifetime` queries with staggered pins are
/// live at a time. Returns one outcome per query, in begin order.
inline std::vector<QueryOutcome> RunOverlappingQueries(
    core::ReplicatedSystem& system, const std::vector<SiteId>& sites,
    const std::vector<ObjectId>& objects, int rounds, int lifetime,
    SimDuration gap_us) {
  struct Live {
    EtId id;
    size_t outcome;
    int issued = 0;
    int pending = 0;
  };
  std::vector<QueryOutcome> outcomes;
  std::vector<Live> live;
  auto end_oldest = [&]() {
    Live& q = live.front();
    int64_t guard = 0;
    while (q.pending > 0 && guard++ < 10'000'000) {
      if (!system.simulator().Step()) break;
    }
    EXPECT_EQ(q.pending, 0) << "read of query " << q.id << " never completed";
    const core::QueryState* state = system.query_state(q.id);
    EXPECT_NE(state, nullptr);
    if (state != nullptr) {
      outcomes[q.outcome].inconsistency = state->inconsistency;
      outcomes[q.outcome].restarts = state->restarts;
    }
    EXPECT_TRUE(system.EndQuery(q.id).ok());
    live.erase(live.begin());
  };
  for (int r = 0; r < rounds; ++r) {
    outcomes.emplace_back();
    live.push_back(Live{system.BeginQuery(sites[r % sites.size()], 1 + r % 3),
                        outcomes.size() - 1});
    for (size_t i = 0; i < live.size(); ++i) {
      Live& q = live[i];
      ++q.issued;
      ++q.pending;
      // `live` only shrinks from the front, between rounds: index by id.
      const EtId id = q.id;
      const size_t outcome = q.outcome;
      system.Read(id, objects[(r + i) % objects.size()],
                  [&live, &outcomes, id, outcome](Result<Value> v) {
                    EXPECT_TRUE(v.ok()) << v.status().ToString();
                    if (v.ok()) outcomes[outcome].values.push_back(v->AsInt());
                    for (Live& l : live) {
                      if (l.id == id) --l.pending;
                    }
                  });
    }
    system.RunFor(gap_us);
    if (live.front().issued == lifetime) end_oldest();
  }
  while (!live.empty()) end_oldest();
  return outcomes;
}

/// `outcomes` as a QueryOutcome vector initializer.
inline std::string FormatOutcomes(const std::vector<QueryOutcome>& outcomes) {
  std::string out = "{";
  for (size_t i = 0; i < outcomes.size(); ++i) {
    out += i == 0 ? "{{" : ",\n {{";
    for (size_t j = 0; j < outcomes[i].values.size(); ++j) {
      out += (j == 0 ? "" : ", ") + std::to_string(outcomes[i].values[j]);
    }
    out += "}, " + std::to_string(outcomes[i].inconsistency) + ", " +
           std::to_string(outcomes[i].restarts) + "}";
  }
  return out + "}";
}

/// Compares a query mix's outcomes and the run's limit-hit count against
/// values captured at a known-good commit.
inline void ExpectOutcomes(core::ReplicatedSystem& system,
                           const std::vector<QueryOutcome>& actual,
                           const std::vector<QueryOutcome>& pinned,
                           int64_t pinned_limit_hits) {
  EXPECT_EQ(EventCount(system, "esr.query_limit_hits"), pinned_limit_hits);
  EXPECT_TRUE(actual == pinned) << "actual outcomes:\n"
                                << FormatOutcomes(actual);
}

}  // namespace esr::test

#endif  // ESR_TESTS_TEST_UTIL_H_
