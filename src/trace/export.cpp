#include "trace/export.h"

#include <fstream>
#include <ostream>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/error.h"
#include "common/json.h"
#include "trace/critical_path.h"

namespace vmlp::trace {

namespace {

/// Each request's recorded spans indexed by DAG node. On duplicate spans of a
/// node the later-recorded one wins, as in extract_critical_path.
using NodeIndex = std::unordered_map<RequestId, std::vector<const Span*>>;

const Span* blocking_span(const NodeIndex& index, const Span& span) {
  if (span.blocking_parent == Span::kNoNode) return nullptr;
  const auto it = index.find(span.request);
  if (it == index.end() || span.blocking_parent >= it->second.size()) return nullptr;
  return it->second[span.blocking_parent];
}

}  // namespace

void export_spans_json(const Tracer& tracer, const app::Application& application,
                       std::ostream& out, const SpanExportOptions& options) {
  NodeIndex index;
  for (const Span& s : tracer.spans()) {
    if (s.node == Span::kNoNode) continue;
    std::vector<const Span*>& nodes = index[s.request];
    if (nodes.size() <= s.node) nodes.resize(static_cast<std::size_t>(s.node) + 1, nullptr);
    nodes[s.node] = &s;
  }
  // Blocking-chain membership per finished request: the spans whose phases
  // carry the end-to-end latency.
  std::unordered_set<const Span*> critical;
  std::vector<const Span*> spans;
  for (const RequestRecord* rec : tracer.requests()) {
    const auto it = index.find(rec->id);
    if (!rec->finished() || it == index.end()) continue;
    spans.clear();
    for (const Span* s : it->second) {
      if (s != nullptr) spans.push_back(s);
    }
    for (const CriticalStep& step : extract_critical_path(*rec, spans).steps) {
      critical.insert(step.span);
    }
  }

  out << "[";
  bool first = true;
  for (const auto& span : tracer.spans()) {
    if (!first) out << ",";
    first = false;
    const auto& svc = application.service(span.service);
    const auto& req = application.request(span.request_type);
    out << "\n  {\"traceId\":\"" << span.request.value() << "\""
        << ",\"id\":\"" << span.instance.value() << "\"";
    if (const Span* parent = blocking_span(index, span); parent != nullptr) {
      out << ",\"parentId\":\"" << parent->instance.value() << "\"";
    }
    out << ",\"name\":\"" << json_escape(svc.name) << "\""
        << ",\"kind\":\"SERVER\""
        << ",\"timestamp\":" << span.start << ",\"duration\":" << span.duration()
        << ",\"localEndpoint\":{\"serviceName\":\"" << json_escape(svc.name)
        << "\",\"ipv4\":\"10.0." << span.machine.value() / 256 << "."
        << span.machine.value() % 256 << "\"}"
        << ",\"tags\":{\"requestType\":\"" << json_escape(req.name()) << "\",\"machine\":\""
        << span.machine.value() << "\"";
    if (options.machines_per_rack > 0) {
      out << ",\"rack\":\"" << span.machine.value() / options.machines_per_rack << "\"";
    }
    if (critical.count(&span) != 0) out << ",\"critical\":\"true\"";
    out << "}}";
  }
  out << "\n]\n";
}

void export_spans_json_file(const Tracer& tracer, const app::Application& application,
                            const std::string& path, const SpanExportOptions& options) {
  std::ofstream out(path);
  if (!out) throw ConfigError("cannot open for writing: " + path);
  export_spans_json(tracer, application, out, options);
  if (!out) throw ConfigError("write failed: " + path);
}

void export_requests_csv(const Tracer& tracer, const app::Application& application,
                         std::ostream& out) {
  out << "request_id,type,arrival_us,completion_us,latency_us\n";
  for (const auto* rec : tracer.requests()) {
    out << rec->id.value() << "," << application.request(rec->type).name() << ","
        << rec->arrival << ",";
    if (rec->finished()) {
      out << *rec->completion << "," << rec->latency();
    } else {
      out << ",";
    }
    out << "\n";
  }
}

void export_requests_csv_file(const Tracer& tracer, const app::Application& application,
                              const std::string& path) {
  std::ofstream out(path);
  if (!out) throw ConfigError("cannot open for writing: " + path);
  export_requests_csv(tracer, application, out);
  if (!out) throw ConfigError("write failed: " + path);
}

}  // namespace vmlp::trace
