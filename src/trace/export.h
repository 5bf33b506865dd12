// Trace and result export: Zipkin-v2-style JSON spans and CSV tables.
//
// The simulator's tracer plays the role of the paper's Zipkin/Jaeger
// deployment; exporting its spans in the Zipkin JSON shape lets standard
// trace tooling consume simulated runs, and CSV export feeds plotting
// scripts for the figure reproductions.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "app/application.h"
#include "trace/tracer.h"

namespace vmlp::trace {

/// Knobs for the Zipkin span export that the tracer itself cannot know.
struct SpanExportOptions {
  /// Rack width of the simulated topology. When positive, each span gets a
  /// `rack` tag (machine / machines_per_rack) next to its `machine` tag so
  /// trace tooling can group lanes the way the cluster is cabled.
  std::size_t machines_per_rack = 0;
};

/// Write all spans as a Zipkin v2 JSON array:
/// [{"traceId","id","parentId","name","timestamp","duration",
///   "localEndpoint":{...},"tags":{...}}...].
/// Timestamps are simulated microseconds. `parentId` links each span to the
/// recorded span of its `blocking_parent` — the parent whose message arrived
/// last, as chosen by the driver — so Zipkin/Jaeger render the request as a
/// tree; roots and spans without a recorded blocking parent omit it. Each
/// finished request's blocking chain (trace::extract_critical_path, the chain
/// the attribution report blames) is tagged `"critical":"true"`, so the
/// critical spans of a request form one parentId-linked path from its root.
void export_spans_json(const Tracer& tracer, const app::Application& application,
                       std::ostream& out, const SpanExportOptions& options = {});

/// Convenience: export to a file. Throws ConfigError on IO failure.
void export_spans_json_file(const Tracer& tracer, const app::Application& application,
                            const std::string& path, const SpanExportOptions& options = {});

/// Write completed requests as CSV:
/// request_id,type,arrival_us,completion_us,latency_us.
void export_requests_csv(const Tracer& tracer, const app::Application& application,
                         std::ostream& out);

void export_requests_csv_file(const Tracer& tracer, const app::Application& application,
                              const std::string& path);

}  // namespace vmlp::trace
