// Extension bench — latency decomposition per scheme.
//
// For the mixed stream at the full workload level, decompose every completed
// request's end-to-end time along its blocking chain, as extracted by
// trace::extract_critical_path from the driver's recorded blocking parents:
//   exec    — the chain's execution phase;
//   ingress — arrival to the first chain span's start;
//   handoff — the rest: communication + scheduling wait + misalignment (and
//             failure phases, which stay 0 with failures off).
// MLP's thesis is that aligned chains shrink the handoff share — this makes
// the mechanism visible directly instead of only through tail latencies.
#include <cstdio>
#include <iostream>
#include <map>
#include <unordered_map>
#include <vector>

#include "bench_common.h"
#include "trace/critical_path.h"

int main() {
  using namespace vmlp;
  exp::print_section("Latency decomposition — mixed stream, L2, full load, 100 machines");

  exp::Table table({"scheme", "request", "n", "mean total", "exec", "handoff", "ingress",
                    "handoff share", "dominant stage"});
  constexpr auto kExec = static_cast<std::size_t>(trace::Phase::kExec);

  for (auto scheme : exp::all_schemes()) {
    auto config = bench::eval_config(scheme, loadgen::PatternKind::kL2Fluctuating,
                                     exp::StreamKind::kMixed);
    // Capture spans and request records; collection never changes a decision
    // (claim 6).
    config.driver.obs.enabled = true;
    const exp::TrialTemplate tpl = exp::build_trial_template(config);
    std::fprintf(stderr, "  running %s ...\n", exp::scheme_name(scheme));
    const exp::ExperimentResult result = exp::run_experiment(config, tpl);
    const app::Application& application = *tpl.application;

    std::unordered_map<std::uint64_t, std::vector<const trace::Span*>> spans_of;
    for (const trace::Span& s : result.obs.spans) spans_of[s.request.value()].push_back(&s);

    struct TypeRow {
      std::size_t n = 0;
      double total = 0.0;
      double exec = 0.0;
      double ingress = 0.0;
      std::map<std::uint32_t, std::size_t> dominant;  ///< node -> requests it dominated
    };
    std::map<std::uint32_t, TypeRow> rows;  // by request type id: stable row order
    for (const trace::RequestRecord& rec : result.obs.request_records) {
      if (!rec.finished()) continue;
      const auto path = trace::extract_critical_path(rec, spans_of[rec.id.value()]);
      if (path.steps.empty()) continue;
      // Dominant stage: the longest-exec step, ties to the lower node.
      const trace::CriticalStep* longest = &path.steps.front();
      for (const trace::CriticalStep& step : path.steps) {
        const SimDuration d = step.phase[kExec];
        if (d > longest->phase[kExec] ||
            (d == longest->phase[kExec] && step.span->node < longest->span->node)) {
          longest = &step;
        }
      }
      TypeRow& row = rows[rec.type.value()];
      ++row.n;
      row.total += static_cast<double>(path.latency);
      row.exec += static_cast<double>(path.totals[kExec]);
      row.ingress += static_cast<double>(path.steps.front().span->start - rec.arrival);
      ++row.dominant[longest->span->node];
    }

    for (const auto& [type, row] : rows) {
      const auto n = static_cast<double>(row.n);
      const double handoff = row.total - row.exec - row.ingress;
      // Most frequent dominant node; the ordered map breaks ties to the lower.
      std::uint32_t dominant = row.dominant.begin()->first;
      for (const auto& [node, count] : row.dominant) {
        if (count > row.dominant.at(dominant)) dominant = node;
      }
      const app::RequestType& rt = application.request(RequestTypeId(type));
      table.row({exp::scheme_name(scheme), rt.name(), std::to_string(row.n),
                 exp::fmt_ms(row.total / n), exp::fmt_ms(row.exec / n), exp::fmt_ms(handoff / n),
                 exp::fmt_ms(row.ingress / n), exp::fmt_percent(handoff / row.total),
                 application.service(rt.nodes()[dominant].service).name});
    }
  }
  table.print();

  std::cout << "\nReading: execution time is scheduler-independent to first order; the\n"
               "schedulers differ in the handoff share — the misalignment waste MLP\n"
               "coalescing removes.\n";
  return 0;
}
