#include "analysis/trace_export.h"

#include <fstream>
#include <sstream>

namespace esr::analysis {

namespace {

/// Minimal JSON string escaping (quotes, backslashes, control chars).
std::string Escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string ExportHistoryJsonl(const HistoryRecorder& history,
                               int num_sites) {
  std::ostringstream os;
  for (const UpdateRecord& u : history.updates()) {
    os << "{\"kind\":\"update\",\"et\":" << u.et << ",\"origin\":" << u.origin
       << ",\"commit_time\":" << u.commit_time << ",\"order\":" << u.order
       << ",\"ts\":\"" << ToString(u.timestamp) << "\",\"aborted\":"
       << (u.aborted ? "true" : "false") << ",\"ops\":[";
    for (size_t i = 0; i < u.ops.size(); ++i) {
      if (i > 0) os << ",";
      os << "\"" << Escape(u.ops[i].ToString()) << "\"";
    }
    os << "]}\n";
  }
  for (SiteId site = 0; site < num_sites; ++site) {
    for (const ApplyRecord& a : history.site_applies(site)) {
      os << "{\"kind\":\"apply\",\"et\":" << a.et << ",\"site\":" << a.site
         << ",\"time\":" << a.time << ",\"index\":" << a.apply_index << "}\n";
    }
  }
  for (const ReadRecord& r : history.reads()) {
    os << "{\"kind\":\"read\",\"query\":" << r.query << ",\"site\":" << r.site
       << ",\"object\":" << r.object << ",\"value\":\""
       << Escape(r.value.ToString()) << "\",\"time\":" << r.time
       << ",\"inc\":" << r.inconsistency_increment << ",\"pin\":" << r.pin
       << "}\n";
  }
  for (const QueryRecord& q : history.queries()) {
    os << "{\"kind\":\"query\",\"query\":" << q.query << ",\"site\":" << q.site
       << ",\"epsilon\":" << q.epsilon
       << ",\"inconsistency\":" << q.final_inconsistency << ",\"completed\":"
       << (q.completed ? "true" : "false") << "}\n";
  }
  return os.str();
}

Status WriteHistoryJsonl(const HistoryRecorder& history, int num_sites,
                         const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Status::InvalidArgument("cannot open " + path + " for writing");
  }
  out << ExportHistoryJsonl(history, num_sites);
  out.close();
  if (!out) return Status::Internal("short write to " + path);
  return Status::Ok();
}

}  // namespace esr::analysis
