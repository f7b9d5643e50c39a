#include "fsi/sched/task_graph.hpp"

#include "fsi/util/check.hpp"

namespace fsi::sched {

const char* stage_name(Stage s) noexcept {
  switch (s) {
    case Stage::Build: return "build";
    case Stage::Cls: return "cls";
    case Stage::Bsofi: return "bsofi";
    case Stage::Wrap: return "wrap";
    case Stage::Measure: return "measure";
    case Stage::Other: return "other";
    case Stage::kCount: break;
  }
  return "?";
}

NodeId TaskGraph::add_node(std::function<void(int)> body, Stage stage,
                           int owner_hint, const char* span) {
  FSI_CHECK(body != nullptr, "TaskGraph: node needs a body");
  Node node;
  node.body = std::move(body);
  node.stage = stage;
  node.owner_hint = owner_hint;
  node.span = span;
  nodes_.push_back(std::move(node));
  return static_cast<NodeId>(nodes_.size() - 1);
}

void TaskGraph::add_edge(NodeId from, NodeId to) {
  FSI_CHECK(from < nodes_.size() && to < nodes_.size(),
            "TaskGraph: edge endpoint out of range");
  FSI_CHECK(from != to, "TaskGraph: self-dependency");
  nodes_[from].successors.push_back(to);
  ++nodes_[to].num_deps;
}

void TaskGraph::validate() const {
  // Kahn's algorithm: repeatedly retire in-degree-zero nodes; anything left
  // unprocessed sits on a cycle and would hang the executor's termination
  // count forever.
  std::vector<std::uint32_t> indeg(nodes_.size());
  std::vector<NodeId> ready;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    indeg[i] = nodes_[i].num_deps;
    if (indeg[i] == 0) ready.push_back(static_cast<NodeId>(i));
  }
  std::size_t processed = 0;
  while (!ready.empty()) {
    const NodeId v = ready.back();
    ready.pop_back();
    ++processed;
    for (NodeId succ : nodes_[v].successors)
      if (--indeg[succ] == 0) ready.push_back(succ);
  }
  FSI_CHECK(processed == nodes_.size(),
            "TaskGraph: dependency cycle detected");
}

}  // namespace fsi::sched
