// Ablation: the paper's actor-count knobs (§V.A).
//
// The dispatchers x computers grid for PageRank on the pokec stand-in.
// Engine work is dominated by vertex compute, so the grid shows how much
// overlap and batching the actor counts buy and where oversubscription
// starts to cost.
//
// Set GPSA_BENCH_JSON=<path> to also write the result set as JSON.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "apps/pagerank.hpp"
#include "core/engine.hpp"
#include "harness/experiment.hpp"
#include "metrics/table.hpp"

namespace gpsa {
namespace {

struct EngineCell {
  unsigned dispatchers = 0;
  unsigned computers = 0;
  double avg_seconds = 0.0;
  double avg_superstep_seconds = 0.0;
  std::uint64_t messages = 0;
  double messages_per_sec = 0.0;
};

void append_json_number(std::string& out, const char* key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "\"%s\":%.6g", key, value);
  out += buf;
}

}  // namespace
}  // namespace gpsa

int main() {
  using namespace gpsa;
  const ExperimentOptions exp = ExperimentOptions::from_env();

  const EdgeList graph =
      generate_paper_graph(PaperGraph::kPokec, exp.scale, exp.seed);
  std::printf("== Ablation: actor counts, PageRank, pokec stand-in "
              "(scale %.3g) ==\n\n",
              exp.scale);

  struct Shape {
    unsigned dispatchers;
    unsigned computers;
  };
  const Shape shapes[] = {{1, 1}, {1, 4}, {4, 1}, {2, 2},
                          {4, 4}, {8, 8}, {16, 16}};

  std::vector<EngineCell> engine_cells;
  TextTable engine_table({"dispatchers", "computers", "avg elapsed (s)",
                          "avg/superstep (s)", "msg/s"});
  bool ok = true;
  const PageRankProgram pagerank(5);
  for (const Shape& shape : shapes) {
    double total = 0;
    std::uint64_t supersteps = 1;
    std::uint64_t messages = 0;
    for (unsigned r = 0; r < exp.runs; ++r) {
      EngineOptions eo;
      eo.num_dispatchers = shape.dispatchers;
      eo.num_computers = shape.computers;
      eo.max_supersteps = 5;
      auto result = Engine::run(graph, pagerank, eo);
      if (!result.is_ok()) {
        std::fprintf(stderr, "%s\n", result.status().to_string().c_str());
        ok = false;
        continue;
      }
      total += result.value().elapsed_seconds;
      supersteps = result.value().supersteps;
      messages = result.value().total_messages;
    }
    EngineCell cell;
    cell.dispatchers = shape.dispatchers;
    cell.computers = shape.computers;
    cell.avg_seconds = total / exp.runs;
    cell.avg_superstep_seconds =
        cell.avg_seconds / static_cast<double>(supersteps);
    cell.messages = messages;
    cell.messages_per_sec =
        cell.avg_seconds > 0 ? static_cast<double>(messages) / cell.avg_seconds
                             : 0;
    engine_cells.push_back(cell);
    engine_table.add_row({TextTable::num(std::uint64_t{shape.dispatchers}),
                          TextTable::num(std::uint64_t{shape.computers}),
                          TextTable::num(cell.avg_seconds, 4),
                          TextTable::num(cell.avg_superstep_seconds, 4),
                          TextTable::num(cell.messages_per_sec, 0)});
  }
  engine_table.print();

  // --- JSON artifact ------------------------------------------------------
  if (const char* json_path = std::getenv("GPSA_BENCH_JSON")) {
    std::string out = "{\n  \"bench\": \"ablation_actors\",\n";
    out += "  \"engine_sweep\": [\n";
    for (std::size_t i = 0; i < engine_cells.size(); ++i) {
      const EngineCell& c = engine_cells[i];
      out += "    {\"dispatchers\":" + std::to_string(c.dispatchers);
      out += ",\"computers\":" + std::to_string(c.computers);
      out += ",\"messages\":" + std::to_string(c.messages) + ",";
      append_json_number(out, "avg_seconds", c.avg_seconds);
      out += ",";
      append_json_number(out, "messages_per_sec", c.messages_per_sec);
      out += i + 1 < engine_cells.size() ? "},\n" : "}\n";
    }
    out += "  ]\n}\n";
    if (std::FILE* f = std::fopen(json_path, "w")) {
      std::fwrite(out.data(), 1, out.size(), f);
      std::fclose(f);
      std::printf("\nwrote %s\n", json_path);
    } else {
      std::fprintf(stderr, "cannot write GPSA_BENCH_JSON=%s\n", json_path);
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
