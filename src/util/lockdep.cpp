#include "util/lockdep.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "util/knobs.hpp"

namespace gpsa::lockdep {

namespace detail {
std::atomic<int> g_state{0};

int latch_from_env() {
  // A bad value warns through fprintf, never GPSA_LOG: the log sink takes
  // a tracked Mutex, which would re-enter this latch.
  const Result<bool> on = knob<bool>("GPSA_LOCKDEP");
  if (!on.is_ok()) {
    std::fprintf(stderr, "lockdep: %s; staying off\n",
                 on.status().to_string().c_str());
  }
  const int state = on.is_ok() && on.value() ? 2 : 1;
  int expected = 0;
  // A racing first call latches the same value; keep whichever landed.
  g_state.compare_exchange_strong(expected, state);
  return g_state.load(std::memory_order_relaxed);
}
}  // namespace detail

void enable_for_testing(bool on) {
  detail::g_state.store(on ? 2 : 1, std::memory_order_seq_cst);
}

namespace {

/// One acquisition held by the current thread.
struct Held {
  const void* mutex = nullptr;
  int cls = -1;  // class id, -1 for unnamed
};

/// Global order graph. Everything inside is guarded by `mu` — a raw
/// std::mutex on purpose: a gpsa::Mutex here would recurse into its own
/// instrumentation. Function-local static so lockdep works from other
/// translation units' static initializers.
struct Graph {
  std::mutex mu;
  std::unordered_map<std::string, int> class_ids;
  std::vector<const char*> class_names;    // id -> name (interned copy)
  std::vector<std::vector<int>> adjacency; // id -> successors
  std::unordered_set<std::uint64_t> edges; // (from << 32) | to
  std::atomic<std::uint64_t> edge_count{0};

  int intern(const char* name) {
    const auto it = class_ids.find(name);
    if (it != class_ids.end()) {
      return it->second;
    }
    const int id = static_cast<int>(class_names.size());
    // Own a copy: nothing requires the caller's string to outlive us.
    char* copy = new char[std::strlen(name) + 1];
    std::strcpy(copy, name);
    class_ids.emplace(copy, id);
    class_names.push_back(copy);
    adjacency.emplace_back();
    return id;
  }

  /// DFS: is `to` reachable from `from`? Fills `path` with the class-id
  /// chain from -> ... -> to when it is.
  bool reachable(int from, int to, std::vector<int>& path) {
    path.push_back(from);
    if (from == to) {
      return true;
    }
    for (const int next : adjacency[static_cast<std::size_t>(from)]) {
      // The graph was acyclic before this probe, so no visited set is
      // needed to terminate; depth is bounded by the class count.
      if (reachable(next, to, path)) {
        return true;
      }
    }
    path.pop_back();
    return false;
  }
};

Graph& graph() {
  static Graph* g = new Graph();  // leaked: alive for process lifetime
  return *g;
}

struct ThreadState {
  std::vector<Held> held;
  /// Edges this thread has already pushed to the global graph; skipping
  /// the global mutex for repeats keeps steady-state acquisition cheap.
  std::unordered_set<std::uint64_t> seen_edges;
};

ThreadState& thread_state() {
  thread_local ThreadState state;
  return state;
}

[[noreturn]] void report_cycle(Graph& g, int held_cls, int new_cls,
                               const std::vector<int>& path) {
  std::fprintf(stderr,
               "GPSA_LOCKDEP: lock-order inversion: acquiring \"%s\" while "
               "holding \"%s\", but the opposite order is already "
               "established:\n",
               g.class_names[static_cast<std::size_t>(new_cls)],
               g.class_names[static_cast<std::size_t>(held_cls)]);
  for (std::size_t i = 0; i < path.size(); ++i) {
    std::fprintf(stderr, "  %s%s\n",
                 g.class_names[static_cast<std::size_t>(path[i])],
                 i + 1 < path.size() ? " ->" : "");
  }
  std::fprintf(stderr,
               "  %s  (closing the cycle)\n"
               "GPSA_LOCKDEP: aborting\n",
               g.class_names[static_cast<std::size_t>(held_cls)]);
  std::fflush(stderr);
  std::abort();
}

[[noreturn]] void report_recursion(const void* mutex, const char* name) {
  std::fprintf(stderr,
               "GPSA_LOCKDEP: recursive acquisition of \"%s\" (%p) — this "
               "thread already holds this exact mutex\nGPSA_LOCKDEP: "
               "aborting\n",
               name != nullptr ? name : "<unnamed>", mutex);
  std::fflush(stderr);
  std::abort();
}

}  // namespace

void on_acquire(const void* mutex, const char* name) {
  ThreadState& ts = thread_state();
  for (const Held& held : ts.held) {
    if (held.mutex == mutex) {
      report_recursion(mutex, name);
    }
  }
  int cls = -1;
  if (name != nullptr) {
    Graph& g = graph();
    {
      std::lock_guard<std::mutex> guard(g.mu);
      cls = g.intern(name);
    }
    for (const Held& held : ts.held) {
      if (held.cls < 0 || held.cls == cls) {
        continue;  // unnamed or same-class-different-instance: no edge
      }
      const std::uint64_t key =
          (static_cast<std::uint64_t>(held.cls) << 32) |
          static_cast<std::uint32_t>(cls);
      if (!ts.seen_edges.insert(key).second) {
        continue;  // this thread already recorded held -> cls
      }
      std::lock_guard<std::mutex> guard(g.mu);
      if (!g.edges.insert(key).second) {
        continue;  // another thread recorded it first
      }
      // New edge held.cls -> cls: a cycle exists iff held.cls was already
      // reachable FROM cls. Probe before wiring the edge in so the DFS
      // runs on the known-acyclic graph.
      std::vector<int> path;
      if (g.reachable(cls, held.cls, path)) {
        report_cycle(g, held.cls, cls, path);
      }
      g.adjacency[static_cast<std::size_t>(held.cls)].push_back(cls);
      g.edge_count.fetch_add(1, std::memory_order_relaxed);
    }
  }
  ts.held.push_back(Held{mutex, cls});
}

void on_release(const void* mutex) {
  std::vector<Held>& held = thread_state().held;
  for (std::size_t i = held.size(); i > 0; --i) {
    if (held[i - 1].mutex == mutex) {
      held.erase(held.begin() + static_cast<std::ptrdiff_t>(i - 1));
      return;
    }
  }
  // Release of a mutex this thread never recorded: acquisition predated
  // enabling (enable_for_testing mid-run). Ignore.
}

std::uint64_t edges_recorded() {
  return graph().edge_count.load(std::memory_order_relaxed);
}

}  // namespace gpsa::lockdep
