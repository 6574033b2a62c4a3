#include "core/graph_op.h"

namespace weaver {

Status ApplyGraphOpToNode(Node* node, const GraphOp& op,
                          const RefinableTimestamp& ts) {
  switch (op.type) {
    case GraphOpType::kCreateNode:
      return Status::Internal("kCreateNode creates the object; see callers");
    case GraphOpType::kDeleteNode:
      return node->Delete(ts);
    case GraphOpType::kCreateEdge:
      return node->AddEdge(op.edge, op.to, ts);
    case GraphOpType::kDeleteEdge:
      return node->DeleteEdge(op.edge, ts);
    case GraphOpType::kAssignNodeProp:
      return node->AssignProperty(op.key, op.value, ts);
    case GraphOpType::kRemoveNodeProp:
      return node->RemoveProperty(op.key, ts);
    case GraphOpType::kAssignEdgeProp:
      return node->AssignEdgeProperty(op.edge, op.key, op.value, ts);
    case GraphOpType::kRemoveEdgeProp:
      return node->RemoveEdgeProperty(op.edge, op.key, ts);
  }
  return Status::Internal("unknown op type");
}

Status ApplyGraphOpToStore(GraphStore* store, const GraphOp& op,
                           const RefinableTimestamp& ts) {
  switch (op.type) {
    case GraphOpType::kCreateNode:
      return store->CreateNode(op.node, ts);
    case GraphOpType::kDeleteNode:
      return store->DeleteNode(op.node, ts);
    case GraphOpType::kCreateEdge:
      return store->CreateEdge(op.edge, op.node, op.to, ts);
    case GraphOpType::kDeleteEdge:
      return store->DeleteEdge(op.node, op.edge, ts);
    case GraphOpType::kAssignNodeProp:
      return store->AssignNodeProperty(op.node, op.key, op.value, ts);
    case GraphOpType::kRemoveNodeProp:
      return store->RemoveNodeProperty(op.node, op.key, ts);
    case GraphOpType::kAssignEdgeProp:
      return store->AssignEdgeProperty(op.node, op.edge, op.key, op.value,
                                       ts);
    case GraphOpType::kRemoveEdgeProp:
      return store->RemoveEdgeProperty(op.node, op.edge, op.key, ts);
  }
  return Status::Internal("unknown op type");
}

const char* GraphOpTypeName(GraphOpType t) {
  switch (t) {
    case GraphOpType::kCreateNode:
      return "create_node";
    case GraphOpType::kDeleteNode:
      return "delete_node";
    case GraphOpType::kCreateEdge:
      return "create_edge";
    case GraphOpType::kDeleteEdge:
      return "delete_edge";
    case GraphOpType::kAssignNodeProp:
      return "assign_node_prop";
    case GraphOpType::kRemoveNodeProp:
      return "remove_node_prop";
    case GraphOpType::kAssignEdgeProp:
      return "assign_edge_prop";
    case GraphOpType::kRemoveEdgeProp:
      return "remove_edge_prop";
  }
  return "?";
}

}  // namespace weaver
