#pragma once
/// \file task_graph.hpp
/// \brief Dependency-aware task graph: the unit of work the executor runs.
///
/// The FSI stages inside one matrix are not independent — every BSOFI
/// depends on its b cluster products, every wrap seed walk depends on
/// BSOFI.  A TaskGraph expresses exactly that: nodes carry a body, a stage
/// tag (for telemetry) and a dependency count; edges order them.  The
/// executor (executor.hpp) preloads the dependency-free nodes into
/// owner-FIFO / steal-half deques and releases successors as their last
/// predecessor finishes — so a straggler matrix's b² seed walks can be
/// stolen by idle workers, which flat OpenMP loops never allowed.
///
/// A graph is built single-threaded, validated (cycle check) once, and run
/// once; it does not own any execution state, so the same const graph could
/// in principle be replayed.

#include <cstdint>
#include <functional>
#include <vector>

namespace fsi::sched {

using NodeId = std::uint32_t;

/// Stage tag of a node, used to bucket node-latency telemetry and to map
/// graph-mode FsiStats onto the paper's CLS / BSOFI / WRP decomposition.
enum class Stage : int {
  Build = 0,  ///< matrix assembly (HS field -> M, BlockOps inversion)
  Cls,        ///< one cluster product of the factor-of-c reduction
  Bsofi,      ///< inversion of the reduced b-block p-cyclic matrix
  Wrap,       ///< one seed walk of the wrapping stage
  Measure,    ///< per-task measurement accumulation / cleanup
  Other,      ///< anything else
  kCount
};

/// Human-readable stage name ("build", "cls", ...).
const char* stage_name(Stage s) noexcept;

inline constexpr int kNumStages = static_cast<int>(Stage::kCount);

class TaskGraph {
 public:
  /// Append a node.  \p body receives the executing worker's id (so
  /// consumers can keep per-worker output buffers without locking);
  /// \p owner_hint names the worker whose deque the node is preloaded to
  /// when it starts dependency-free (clamped into range by the executor) —
  /// with stealing disabled this *is* the static assignment.  \p span, if
  /// set (a string literal), names the trace span the executor records
  /// around the body from the same two clock reads as the node's busy time,
  /// so a stage's span sum and its busy seconds are one measurement.
  NodeId add_node(std::function<void(int)> body, Stage stage = Stage::Other,
                  int owner_hint = 0, const char* span = nullptr);

  /// Declare that \p from must complete before \p to may start.
  /// Both ids must already exist; self-edges are rejected.
  void add_edge(NodeId from, NodeId to);

  std::size_t num_nodes() const { return nodes_.size(); }

  /// Kahn's-algorithm acyclicity check; throws util::CheckError when the
  /// edges contain a cycle.  The executor validates before running, so a
  /// malformed graph fails fast instead of deadlocking the termination
  /// count.
  void validate() const;

 private:
  friend class GraphRunner;

  struct Node {
    std::function<void(int)> body;
    Stage stage = Stage::Other;
    int owner_hint = 0;
    const char* span = nullptr;
    std::uint32_t num_deps = 0;
    std::vector<NodeId> successors;
  };

  std::vector<Node> nodes_;
};

}  // namespace fsi::sched
