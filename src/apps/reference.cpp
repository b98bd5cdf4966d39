#include "apps/reference.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <optional>
#include <queue>

#include "apps/weights.hpp"
#include "util/check.hpp"

namespace gpsa {

ReferenceResult reference_run(const Csr& graph, const Program& program,
                              std::uint64_t max_supersteps) {
  const VertexId n = graph.num_vertices();
  ReferenceResult out;
  out.values.resize(n);

  std::vector<char> active(n, 0);
  for (VertexId v = 0; v < n; ++v) {
    const Program::InitialState st = program.init(v, n);
    out.values[v] = st.value;
    active[v] = st.active ? 1 : 0;
  }

  std::uint64_t budget = program.max_supersteps();
  if (max_supersteps != 0) {
    budget = std::min(budget, max_supersteps);
  }

  // Sum-fold programs fold through the exact sum SliceApply uses, so
  // the result does not depend on the order messages arrive in.
  std::optional<SliceSumFold> sums;
  if (program.sum_fold()) {
    sums.emplace().init(0, n);
  }
  std::vector<Payload> accumulator(n, 0);
  std::vector<char> touched(n, 0);
  std::vector<VertexId> touched_list;
  // Delta programs (Program::delta_messages): dispatch the change since
  // the vertex's previous dispatch instead of the absolute value.
  const bool delta = program.delta_messages();
  std::vector<Payload> last_sent;
  if (delta) {
    last_sent.assign(n, Payload{0});
  }

  for (std::uint64_t s = 0; s < budget; ++s) {
    std::uint64_t messages = 0;
    touched_list.clear();
    for (VertexId src = 0; src < n; ++src) {
      if (!active[src]) {
        continue;
      }
      Payload value = out.values[src];
      if (delta) {
        const Payload current = value;
        value = program.delta(current, last_sent[src]);
        last_sent[src] = current;
      }
      const auto degree =
          static_cast<std::uint32_t>(graph.out_degree(src));
      for (VertexId dst : graph.neighbors(src)) {
        const Payload msg = program.gen_msg(src, dst, value, degree);
        ++messages;
        if (sums.has_value()) {
          sums->add(dst, msg, [&] {
            return program.first_update(dst, out.values[dst]);
          });
        } else if (!touched[dst]) {
          touched[dst] = 1;
          touched_list.push_back(dst);
          accumulator[dst] =
              program.compute(program.first_update(dst, out.values[dst]), msg);
        } else {
          accumulator[dst] = program.compute(accumulator[dst], msg);
        }
      }
    }
    out.superstep_messages.push_back(messages);
    out.total_messages += messages;
    ++out.supersteps;
    if (messages == 0) {
      out.converged = true;
      break;
    }
    // Commit: activity for the next superstep is "received a message and
    // the fold changed the value".
    std::fill(active.begin(), active.end(), 0);
    if (sums.has_value()) {
      sums->finish([&](VertexId v, Payload sum) {
        if (program.changed(out.values[v], sum)) {
          out.values[v] = sum;
          active[v] = 1;
        }
      });
    }
    for (VertexId v : touched_list) {
      touched[v] = 0;
      if (program.changed(out.values[v], accumulator[v])) {
        out.values[v] = accumulator[v];
        active[v] = 1;
      }
    }
  }
  return out;
}

std::vector<Payload> oracle_bfs_levels(const Csr& graph, VertexId root) {
  const VertexId n = graph.num_vertices();
  std::vector<Payload> level(n, kPayloadInfinity);
  if (root >= n) {
    return level;
  }
  level[root] = 0;
  std::deque<VertexId> frontier{root};
  while (!frontier.empty()) {
    const VertexId u = frontier.front();
    frontier.pop_front();
    for (VertexId v : graph.neighbors(u)) {
      if (level[v] == kPayloadInfinity) {
        level[v] = level[u] + 1;
        frontier.push_back(v);
      }
    }
  }
  return level;
}

std::vector<Payload> oracle_min_label(const Csr& graph) {
  const VertexId n = graph.num_vertices();
  std::vector<Payload> label(n);
  for (VertexId v = 0; v < n; ++v) {
    label[v] = v;
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (VertexId u = 0; u < n; ++u) {
      for (VertexId v : graph.neighbors(u)) {
        if (label[u] < label[v]) {
          label[v] = label[u];
          changed = true;
        }
      }
    }
  }
  return label;
}

std::vector<Payload> oracle_sssp(const Csr& graph, VertexId source) {
  const VertexId n = graph.num_vertices();
  std::vector<std::uint64_t> dist(n,
                                  std::numeric_limits<std::uint64_t>::max());
  std::vector<Payload> out(n, kPayloadInfinity);
  if (source >= n) {
    return out;
  }
  using Entry = std::pair<std::uint64_t, VertexId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  dist[source] = 0;
  heap.emplace(0, source);
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d != dist[u]) {
      continue;
    }
    for (VertexId v : graph.neighbors(u)) {
      const std::uint64_t nd = d + synthetic_edge_weight(u, v);
      if (nd < dist[v]) {
        dist[v] = nd;
        heap.emplace(nd, v);
      }
    }
  }
  for (VertexId v = 0; v < n; ++v) {
    if (dist[v] < kPayloadInfinity) {
      out[v] = static_cast<Payload>(dist[v]);
    }
  }
  return out;
}

std::vector<Payload> oracle_pagerank(const Csr& graph,
                                     std::uint64_t iterations,
                                     float damping) {
  const VertexId n = graph.num_vertices();
  GPSA_CHECK(n > 0);
  const double teleport =
      (1.0 - static_cast<double>(damping)) / static_cast<double>(n);
  std::vector<double> rank(n, 1.0 / static_cast<double>(n));
  std::vector<double> acc(n, 0.0);
  std::vector<char> active(n, 1);
  std::vector<char> touched(n, 0);
  for (std::uint64_t it = 0; it < iterations; ++it) {
    std::fill(acc.begin(), acc.end(), 0.0);
    std::fill(touched.begin(), touched.end(), 0);
    bool any = false;
    for (VertexId u = 0; u < n; ++u) {
      if (!active[u]) {
        continue;
      }
      const auto degree = graph.out_degree(u);
      if (degree == 0) {
        continue;
      }
      const double share =
          static_cast<double>(damping) * rank[u] / static_cast<double>(degree);
      for (VertexId v : graph.neighbors(u)) {
        acc[v] += share;
        touched[v] = 1;
        any = true;
      }
    }
    if (!any) {
      break;
    }
    for (VertexId v = 0; v < n; ++v) {
      active[v] = touched[v];
      if (touched[v]) {
        rank[v] = teleport + acc[v];
      }
    }
  }
  std::vector<Payload> out(n);
  for (VertexId v = 0; v < n; ++v) {
    out[v] = float_to_payload(static_cast<float>(rank[v]));
  }
  return out;
}

}  // namespace gpsa
